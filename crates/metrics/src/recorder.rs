//! The shared measurement sink written by edge agents.
//!
//! Every transport implementation in this repository (μFAB and the
//! baselines) receives a [`SharedRecorder`] at construction and reports the
//! same events into it: bytes delivered per VM-pair, per-packet RTT samples,
//! and message/flow completions. Experiments then read rates, latency
//! distributions and FCTs out of one place regardless of which system ran.
//!
//! A simulation has one recorder and one thread runs it. The handle is an
//! `Arc<Mutex<…>>` because the agents holding it are `Send` (a simulation
//! may be built on an executor thread); the mutex is never contended and
//! costs one atomic pair per access.

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

/// Central sink for everything the experiments measure.
#[derive(Debug)]
pub struct Recorder {
    /// Delivered goodput per VM-pair (receiver side).
    pub pair_rates: SeriesSet<u32>,
    /// Delivered goodput per tenant/VF.
    pub tenant_rates: SeriesSet<u32>,
    /// All data-packet RTT samples (sender side, per ACK), in integer ns,
    /// so the store holds a count per distinct RTT once that is smaller
    /// than the sample list (112 KB for 1.9 M samples at 512 servers).
    pub rtts: Percentiles,
    /// Completed messages not yet drained, in completion order (a run
    /// that needs the whole history collects the drained batches).
    pub completions: Vec<Completion>,
    /// Total data bytes delivered (all pairs).
    pub delivered_bytes: u64,
    /// Count of data packets retransmitted after loss.
    pub retransmits: u64,
    /// Count of path migrations performed (Fig 18a/b).
    pub path_migrations: u64,
}

impl Recorder {
    /// Create a recorder whose rate series use `bin_ns`-wide bins.
    pub(crate) fn new(bin_ns: Nanos) -> Self {
        Self {
            pair_rates: SeriesSet::new(bin_ns),
            tenant_rates: SeriesSet::new(bin_ns),
            rtts: Percentiles::new(),
            completions: Vec::new(),
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
    pub fn rtt(&mut self, rtt: Nanos) {
        self.rtts.add(rtt as f64);
    }

    /// Record a completed message.
    pub fn complete(&mut self, c: Completion) {
        self.completions.push(c);
    }

    /// Move out the completions that arrived since the previous call,
    /// leaving none held. Closed-loop workload drivers poll this between
    /// simulation slices.
    pub fn drain_new_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
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
    use crate::MS;
    use proptest::prelude::*;

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
            start: MS,
            end: 3 * MS,
            tag: 0,
        };
        assert_eq!(c.fct(), 2 * MS);
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
        // Nothing is held once handed out.
        assert!(r.completions.is_empty());
    }

    proptest! {
        /// Over any interleaving of `complete` and
        /// `drain_new_completions`, the drained batches hand out every
        /// completion exactly once, in completion order, and a drain
        /// leaves nothing held.
        #[test]
        fn every_completion_is_handed_out_once_in_order(
            ops in prop::collection::vec(any::<bool>(), 0..200),
        ) {
            let mut r = Recorder::new(MS);
            let mut completed = 0u64;
            let mut handed = Vec::new();
            for complete in ops {
                if complete {
                    r.complete(Completion {
                        flow: completed,
                        pair: 0,
                        bytes: 1,
                        start: 0,
                        end: completed,
                        tag: 0,
                    });
                    completed += 1;
                } else {
                    handed.extend(r.drain_new_completions().into_iter().map(|c| c.flow));
                    prop_assert!(r.completions.is_empty());
                }
            }
            handed.extend(r.drain_new_completions().into_iter().map(|c| c.flow));
            prop_assert!(r.completions.is_empty());
            prop_assert_eq!(handed, (0..completed).collect::<Vec<_>>());
        }
    }
}
