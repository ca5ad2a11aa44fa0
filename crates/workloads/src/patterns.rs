//! Open-loop traffic patterns from the evaluation.

use crate::driver::{Driver, FlowIds, WorkloadPort};
use metrics::recorder::Completion;
use netsim::{NodeId, PairId, Time};
use ufab::endpoint::AppMsg;

/// One-shot bulk transfers: every pair sends `bytes` at its configured
/// start time (used for incast — Fig 4/12 — and the staggered permutation
/// joins of Fig 11).
#[derive(Debug)]
pub struct BulkDriver {
    jobs: Vec<(Time, NodeId, PairId, u64, u32)>,
    flows: FlowIds,
    started: usize,
}

impl BulkDriver {
    /// `jobs` = (start, src_host, pair, bytes, tag), any order.
    pub fn new(mut jobs: Vec<(Time, NodeId, PairId, u64, u32)>, flow_base: u64) -> Self {
        jobs.sort_by_key(|j| j.0);
        Self {
            jobs,
            flows: FlowIds::new(flow_base),
            started: 0,
        }
    }
}

impl Driver for BulkDriver {
    fn poll(&mut self, port: &mut dyn WorkloadPort, _completions: &[Completion]) {
        let now = port.now();
        while self.started < self.jobs.len() && self.jobs[self.started].0 <= now {
            let (_, host, pair, bytes, tag) = self.jobs[self.started];
            let flow = self.flows.next();
            port.inject(host, AppMsg::oneway(flow, pair, bytes, tag));
            self.started += 1;
        }
    }

    fn next_wake(&self) -> Time {
        self.jobs
            .get(self.started)
            .map(|j| j.0)
            .unwrap_or(Time::MAX)
    }

    fn done(&self) -> bool {
        self.started >= self.jobs.len()
    }
}

/// The Fig-16 on-off pattern: each pair toggles between a fixed-rate
/// underload phase (500 Mbps via paced small messages) and an unlimited
/// phase (keep a deep backlog) every `period`.
#[derive(Debug)]
pub struct OnOffDriver {
    pairs: Vec<(NodeId, PairId)>,
    period: Time,
    underload_bps: f64,
    chunk: u64,
    flows: FlowIds,
    next_emit: Vec<Time>,
    /// Phase 0 starts as underload.
    start_unlimited: bool,
    unlimited_backlog: u64,
}

impl OnOffDriver {
    /// Create with `period` per phase and the underload rate.
    pub fn new(
        pairs: Vec<(NodeId, PairId)>,
        period: Time,
        underload_bps: f64,
        flow_base: u64,
    ) -> Self {
        let n = pairs.len();
        Self {
            pairs,
            period,
            underload_bps,
            chunk: 16_000,
            flows: FlowIds::new(flow_base),
            next_emit: vec![0; n],
            start_unlimited: false,
            unlimited_backlog: 4_000_000,
        }
    }

    fn unlimited_phase(&self, now: Time) -> bool {
        let phase = (now / self.period) % 2;
        (phase == 0) == self.start_unlimited
    }
}

impl Driver for OnOffDriver {
    fn poll(&mut self, port: &mut dyn WorkloadPort, _completions: &[Completion]) {
        let now = port.now();
        let unlimited = self.unlimited_phase(now);
        for i in 0..self.pairs.len() {
            let (host, pair) = self.pairs[i];
            if unlimited {
                // Keep a deep backlog so demand is effectively unbounded.
                if port.backlog(host, pair) < self.unlimited_backlog / 2 {
                    let flow = self.flows.next();
                    port.inject(host, AppMsg::oneway(flow, pair, self.unlimited_backlog, 1));
                }
            } else {
                // Phase change: drop leftover unlimited backlog, then pace
                // chunks at the underload rate.
                if port.backlog(host, pair) > 4 * self.chunk {
                    port.clear_backlog(host, pair);
                }
                let gap = (self.chunk as f64 * 8.0 / self.underload_bps * 1e9) as Time;
                if self.next_emit[i] == 0 {
                    self.next_emit[i] = now;
                }
                while now >= self.next_emit[i] {
                    let flow = self.flows.next();
                    port.inject(host, AppMsg::oneway(flow, pair, self.chunk, 0));
                    self.next_emit[i] += gap.max(1);
                }
            }
        }
    }

    fn next_wake(&self) -> Time {
        self.next_emit.iter().copied().min().unwrap_or(Time::MAX)
    }
}

/// Bulk transfers striped across parallel fabric pairs (Appendix F):
/// each job's bytes are split evenly over the pair's stripes, which μFAB
/// manages on independent underlay paths — the way a VM-pair uses
/// multiple paths in oversubscribed fabrics.
#[derive(Debug)]
pub struct StripedBulkDriver {
    inner: BulkDriver,
}

impl StripedBulkDriver {
    /// `jobs` = (start, src_host, stripes, bytes, tag); the bytes are
    /// divided across the stripes (remainder to the first).
    pub fn new(jobs: Vec<(Time, NodeId, Vec<PairId>, u64, u32)>, flow_base: u64) -> Self {
        let mut flat = Vec::new();
        for (at, host, stripes, bytes, tag) in jobs {
            assert!(!stripes.is_empty());
            let per = bytes / stripes.len() as u64;
            let mut rem = bytes - per * stripes.len() as u64;
            for &s in &stripes {
                let mut b = per;
                if rem > 0 {
                    b += 1;
                    rem -= 1;
                }
                if b > 0 {
                    flat.push((at, host, s, b, tag));
                }
            }
        }
        Self {
            inner: BulkDriver::new(flat, flow_base),
        }
    }
}

impl Driver for StripedBulkDriver {
    fn poll(&mut self, port: &mut dyn WorkloadPort, completions: &[Completion]) {
        self.inner.poll(port, completions);
    }

    fn next_wake(&self) -> Time {
        self.inner.next_wake()
    }

    fn done(&self) -> bool {
        self.inner.done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::MockPort;
    use netsim::{MS, US};

    #[test]
    fn bulk_driver_respects_start_times() {
        let mut d = BulkDriver::new(
            vec![
                (10 * MS, NodeId(0), PairId(0), 100, 0),
                (5 * MS, NodeId(1), PairId(1), 200, 0),
            ],
            0,
        );
        let mut port = MockPort::default();
        port.now = 1 * MS;
        d.poll(&mut port, &[]);
        assert!(port.injected.is_empty());
        assert_eq!(d.next_wake(), 5 * MS);
        port.now = 6 * MS;
        d.poll(&mut port, &[]);
        assert_eq!(port.injected.len(), 1);
        assert_eq!(port.injected[0].1.size, 200);
        port.now = 12 * MS;
        d.poll(&mut port, &[]);
        assert_eq!(port.injected.len(), 2);
        assert!(d.done());
    }

    #[test]
    fn onoff_toggles_phases() {
        let mut d = OnOffDriver::new(vec![(NodeId(0), PairId(0))], 4 * MS, 500e6, 0);
        let mut port = MockPort::default();
        // Phase 0: underload → paced chunks.
        port.now = 0;
        d.poll(&mut port, &[]);
        assert_eq!(port.injected.len(), 1);
        assert_eq!(port.injected[0].1.size, 16_000);
        // Paced: the next chunk is due 16 KB / 500 Mbps = 256 us later.
        assert_eq!(d.next_wake(), 256 * US);
        // Phase 1 (unlimited): deep backlog injected when low.
        port.now = 5 * MS;
        d.poll(&mut port, &[]);
        let last = port.injected.last().unwrap();
        assert!(last.1.size >= 1_000_000);
        // With a deep simulated backlog nothing more is injected.
        port.backlogs.insert((NodeId(0), PairId(0)), 10_000_000);
        let count = port.injected.len();
        port.now = 6 * MS;
        d.poll(&mut port, &[]);
        assert_eq!(port.injected.len(), count);
        // Back to underload: leftover backlog cleared.
        port.now = 8 * MS + 100 * US;
        d.poll(&mut port, &[]);
        assert_eq!(port.cleared.len(), 1);
    }
}
