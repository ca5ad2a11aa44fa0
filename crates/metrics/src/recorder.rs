//! The shared measurement sink written by edge agents.
//!
//! Every transport implementation in this repository (μFAB and the
//! baselines) receives a [`SharedRecorder`] at construction and reports the
//! same events into it: bytes delivered per VM-pair, per-packet RTT samples,
//! and message/flow completions. Experiments then read rates, latency
//! distributions and FCTs out of one place regardless of which system ran.
//!
//! A partitioned simulation gives every logical process its own
//! recorder — per-LP, merged in LP order by [`Recorder::merge_from`] —
//! and one thread runs all of them. The handle is an `Arc<Mutex<…>>`
//! because the agents holding it are `Send` (a simulation may be built on
//! an executor thread); the mutex is never contended and costs one atomic
//! pair per access.

use crate::stats::Percentiles;
use crate::timeseries::SeriesSet;
use crate::Nanos;
use std::sync::{Arc, Mutex};

/// A completed application message (the paper's "flow"/"query"/"task").
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Flow / message identifier assigned by the workload.
    pub flow: u64,
    /// VM-pair the message travelled on.
    pub pair: u32,
    /// Message size in bytes.
    pub bytes: u64,
    /// Submission time at the sender.
    pub start: Nanos,
    /// Time the final byte was delivered at the receiver.
    pub end: Nanos,
    /// Workload-defined tag (e.g. distinguishes request vs. response,
    /// SA vs. BA vs. GC traffic in the EBS model).
    pub tag: u32,
}

impl Completion {
    /// Flow completion time in nanoseconds.
    pub fn fct(&self) -> Nanos {
        self.end.saturating_sub(self.start)
    }
}

/// One RTT observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RttSample {
    /// VM-pair that measured it.
    pub pair: u32,
    /// When the ACK arrived.
    pub at: Nanos,
    /// Measured round-trip in nanoseconds.
    pub rtt: Nanos,
}

/// Central sink for everything the experiments measure.
#[derive(Debug)]
pub struct Recorder {
    /// Delivered goodput per VM-pair (receiver side).
    pub pair_rates: SeriesSet<u32>,
    /// Delivered goodput per tenant/VF.
    pub tenant_rates: SeriesSet<u32>,
    /// All data-packet RTT samples (sender side, per ACK).
    pub rtts: Percentiles,
    /// Completed messages, in completion order.
    pub completions: Vec<Completion>,
    /// Completions not yet consumed by a closed-loop driver.
    unconsumed: usize,
    /// Total data bytes delivered (all pairs).
    pub delivered_bytes: u64,
    /// Count of data packets retransmitted after loss.
    pub retransmits: u64,
    /// Count of path migrations performed (Fig 18a/b).
    pub path_migrations: u64,
}

impl Recorder {
    /// Create a recorder whose rate series use `bin_ns`-wide bins.
    pub fn new(bin_ns: Nanos) -> Self {
        Self {
            pair_rates: SeriesSet::new(bin_ns),
            tenant_rates: SeriesSet::new(bin_ns),
            rtts: Percentiles::new(),
            completions: Vec::new(),
            unconsumed: 0,
            delivered_bytes: 0,
            retransmits: 0,
            path_migrations: 0,
        }
    }

    /// Record `bytes` of application payload delivered on `pair` belonging
    /// to `tenant` at time `now`.
    pub fn delivered(&mut self, now: Nanos, pair: u32, tenant: u32, bytes: u64) {
        self.pair_rates.add(pair, now, bytes);
        self.tenant_rates.add(tenant, now, bytes);
        self.delivered_bytes += bytes;
    }

    /// Record one RTT sample.
    pub fn rtt(&mut self, now: Nanos, pair: u32, tenant: u32, rtt: Nanos) {
        self.rtts.add(rtt as f64);
        let _ = (now, pair, tenant);
    }

    /// Record a completed message.
    pub fn complete(&mut self, c: Completion) {
        self.completions.push(c);
    }

    /// Drain completions that arrived since the previous call. Closed-loop
    /// workload drivers poll this between simulation slices.
    pub fn drain_new_completions(&mut self) -> Vec<Completion> {
        let out = self.completions[self.unconsumed..].to_vec();
        self.unconsumed = self.completions.len();
        out
    }

    /// Fold `other`'s measurements into this recorder.
    ///
    /// Rates, byte counters and percentile pools are additive, so the
    /// merge is independent of the order recorders are folded in — the
    /// property sharded runs rely on when combining per-LP recorders.
    /// Completions are appended in `other`'s order; callers that need a
    /// global order sort afterwards by `(end, pair, flow)`.
    pub fn merge_from(&mut self, other: &Recorder) {
        self.pair_rates.merge_from(&other.pair_rates);
        self.tenant_rates.merge_from(&other.tenant_rates);
        self.rtts.merge_from(&other.rtts);
        self.completions.extend(other.completions.iter().cloned());
        self.delivered_bytes += other.delivered_bytes;
        self.retransmits += other.retransmits;
        self.path_migrations += other.path_migrations;
    }
}

/// Shared handle to a [`Recorder`].
pub type SharedRecorder = Arc<Mutex<Recorder>>;

/// Construct a fresh shared recorder.
pub fn shared(bin_ns: Nanos) -> SharedRecorder {
    Arc::new(Mutex::new(Recorder::new(bin_ns)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MS, US};

    #[test]
    fn delivery_feeds_both_series() {
        let mut r = Recorder::new(MS);
        r.delivered(0, 7, 1, 1000);
        r.delivered(MS, 7, 1, 500);
        r.delivered(0, 8, 1, 200);
        assert_eq!(r.delivered_bytes, 1700);
        assert_eq!(r.pair_rates.get(&7).unwrap().total_bytes(), 1500);
        assert_eq!(r.tenant_rates.get(&1).unwrap().total_bytes(), 1700);
    }

    #[test]
    fn completion_fct() {
        let c = Completion {
            flow: 1,
            pair: 0,
            bytes: 64_000,
            start: 10 * US,
            end: 110 * US,
            tag: 0,
        };
        assert_eq!(c.fct(), 100 * US);
    }

    #[test]
    fn drain_new_completions_is_incremental() {
        let mut r = Recorder::new(MS);
        let mk = |flow| Completion {
            flow,
            pair: 0,
            bytes: 1,
            start: 0,
            end: 1,
            tag: 0,
        };
        r.complete(mk(1));
        r.complete(mk(2));
        let first = r.drain_new_completions();
        assert_eq!(first.len(), 2);
        assert!(r.drain_new_completions().is_empty());
        r.complete(mk(3));
        let second = r.drain_new_completions();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].flow, 3);
        // Full history still retained for end-of-run analysis.
        assert_eq!(r.completions.len(), 3);
    }

    /// Sharded runs fold per-LP recorders in whatever order the LPs
    /// are visited: nothing a scenario reads may depend on it.
    #[test]
    fn merge_is_order_independent_for_everything_a_scenario_reads() {
        let mk = |flow, pair, end| Completion {
            flow,
            pair,
            bytes: 1000,
            start: 0,
            end,
            tag: 0,
        };
        let mut a = Recorder::new(MS);
        a.delivered(0, 7, 1, 1000);
        a.delivered(MS, 8, 2, 500);
        a.rtt(0, 7, 1, 24_000);
        a.rtt(0, 8, 2, 30_000);
        a.complete(mk(1, 7, MS));
        a.retransmits = 3;
        a.path_migrations = 1;
        let mut b = Recorder::new(MS);
        b.delivered(0, 7, 1, 200);
        b.delivered(2 * MS, 9, 2, 700);
        b.rtt(MS, 9, 2, 100_000);
        b.complete(mk(2, 9, 2 * MS));
        b.complete(mk(3, 7, 3 * MS));
        b.retransmits = 4;
        b.path_migrations = 2;

        let fold = |parts: [&Recorder; 2]| {
            let mut out = Recorder::new(MS);
            parts.into_iter().for_each(|p| out.merge_from(p));
            out
        };
        let (mut ab, mut ba) = (fold([&a, &b]), fold([&b, &a]));
        assert_eq!(ab.rtts.count(), 3);
        for q in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(ab.rtts.percentile(q), ba.rtts.percentile(q));
        }
        assert_eq!(ab.pair_rates.get(&7).unwrap().total_bytes(), 1200);
        assert_eq!(ab.tenant_rates.get(&2).unwrap().total_bytes(), 1200);
        let rates = |s: &SeriesSet<u32>| -> Vec<_> {
            s.iter().map(|(k, v)| (*k, v.points(4 * MS))).collect()
        };
        assert_eq!(rates(&ab.pair_rates), rates(&ba.pair_rates));
        assert_eq!(rates(&ab.tenant_rates), rates(&ba.tenant_rates));
        for r in [&ab, &ba] {
            assert_eq!(r.completions.len(), 3);
            assert_eq!(r.delivered_bytes, 2400);
            assert_eq!((r.retransmits, r.path_migrations), (7, 3));
        }
    }
}
