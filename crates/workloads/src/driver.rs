//! The closed-loop workload driver framework.
//!
//! Experiments advance the simulator in small slices; between slices they
//! drain new completions from the shared recorder and hand them to the
//! active [`Driver`]s, which inject follow-up messages through the
//! [`WorkloadPort`]. The port abstracts over which edge-agent type
//! (μFAB-E or a baseline) is installed.

use metrics::recorder::Completion;
use netsim::{NodeId, PairId, Time};
use ufab::endpoint::AppMsg;

/// The surface a driver uses to interact with the running simulation.
pub trait WorkloadPort {
    /// Current simulation time.
    fn now(&self) -> Time;
    /// Queue a message at the source host's edge agent.
    fn inject(&mut self, host: NodeId, msg: AppMsg);
    /// Unsent payload bytes currently queued on a pair at a host.
    fn backlog(&self, host: NodeId, pair: PairId) -> u64;
    /// Drop all unsent messages of a pair (demand withdrawal).
    fn clear_backlog(&mut self, host: NodeId, pair: PairId);
}

/// A closed-loop (or time-driven) workload.
pub trait Driver {
    /// React to this slice: `completions` are the messages that finished
    /// since the previous call.
    fn poll(&mut self, port: &mut dyn WorkloadPort, completions: &[Completion]);

    /// The next time the driver wants to be polled even without
    /// completions (`Time::MAX` = only on completions).
    fn next_wake(&self) -> Time {
        Time::MAX
    }

    /// True once the workload has finished all its work.
    fn done(&self) -> bool {
        false
    }
}

/// A list of completions is a driver that injects nothing and keeps each
/// batch it is handed: the run's history, which the recorder hands out once.
impl Driver for Vec<Completion> {
    fn poll(&mut self, _port: &mut dyn WorkloadPort, completions: &[Completion]) {
        self.extend_from_slice(completions);
    }
}

/// Monotonic flow-id allocator shared by drivers (keeps ids unique across
/// concurrently-running drivers in one experiment).
#[derive(Debug, Clone)]
pub(crate) struct FlowIds {
    next: u64,
}

impl FlowIds {
    /// Start allocating from `base` (namespaces different drivers).
    pub(crate) fn new(base: u64) -> Self {
        Self { next: base }
    }

    /// Allocate a fresh id.
    pub(crate) fn next(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A scriptable in-memory port for driver unit tests.
    #[derive(Default)]
    pub(crate) struct MockPort {
        /// Simulated current time.
        pub now: Time,
        /// Messages injected so far.
        pub injected: Vec<(NodeId, AppMsg)>,
        /// Scripted backlog responses.
        pub backlogs: HashMap<(NodeId, PairId), u64>,
        /// Recorded clear_backlog calls.
        pub cleared: Vec<(NodeId, PairId)>,
    }

    impl WorkloadPort for MockPort {
        fn now(&self) -> Time {
            self.now
        }
        fn inject(&mut self, host: NodeId, msg: AppMsg) {
            self.injected.push((host, msg));
        }
        fn backlog(&self, host: NodeId, pair: PairId) -> u64 {
            self.backlogs.get(&(host, pair)).copied().unwrap_or(0)
        }
        fn clear_backlog(&mut self, host: NodeId, pair: PairId) {
            self.cleared.push((host, pair));
        }
    }

    #[test]
    fn flow_ids_are_unique_and_namespaced() {
        let mut a = FlowIds::new(0);
        let mut b = FlowIds::new(1 << 32);
        let ids: Vec<u64> = (0..4)
            .map(|_| a.next())
            .chain((0..4).map(|_| b.next()))
            .collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
        assert!(ids[4] >= 1 << 32);
    }
}

#[cfg(test)]
pub(crate) use tests::MockPort;
