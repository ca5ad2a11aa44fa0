//! Clove: congestion-aware flowlet load balancing at the virtual edge.
//!
//! Clove (CoNEXT '17) splits traffic at flowlet granularity across the
//! equivalent underlay paths, steering new flowlets by path congestion
//! state learned at the edge. The paper's experiments use the explicit
//! path-utilisation variant ("selects a path for flowlets based on
//! explicit path utilization"): ACKs echo the maximum link utilisation
//! stamped on the data path, and tiny pilot packets keep estimates of
//! currently-unused paths fresh (as Clove-INT's probing does).
//!
//! The critical property the paper dissects in §2.2 Case-2 is faithfully
//! reproduced: the steering signal is **utilisation**, not bandwidth
//! subscription, so Clove will happily pile a guaranteed flow onto a
//! lightly-utilised but heavily-subscribed path.

use netsim::Time;

/// Per-pair Clove path selector.
#[derive(Debug, Clone)]
pub(crate) struct Clove {
    /// Flowlet gap: a pause longer than this opens a new flowlet
    /// (paper: 200 μs recommended; 36 μs = 1.5×baseRTT forces per-flowlet
    /// behaviour in Case-2).
    pub flowlet_gap: Time,
    utils: Vec<f64>,
    last_update: Vec<Time>,
    last_send: Time,
    started: bool,
    cur: usize,
    /// Utilisation estimates decay toward zero with this time constant —
    /// an unused path slowly looks attractive again (the source of the
    /// Fig 5c oscillation).
    pub decay_tau: Time,
}

impl Clove {
    /// A selector over `n_paths` paths.
    pub(crate) fn new(n_paths: usize, flowlet_gap: Time, decay_tau: Time) -> Self {
        assert!(n_paths > 0);
        Self {
            flowlet_gap,
            utils: vec![0.0; n_paths],
            last_update: vec![0; n_paths],
            last_send: 0,
            started: false,
            cur: 0,
            decay_tau,
        }
    }

    /// Feed a utilisation echo for `path` (from an ACK or pilot).
    pub(crate) fn feedback(&mut self, now: Time, path: usize, util: f64) {
        // Fresh observation dominates; mild smoothing against jitter.
        let prev = self.decayed(now, path);
        self.utils[path] = 0.7 * util + 0.3 * prev;
        self.last_update[path] = now;
    }

    fn decayed(&self, now: Time, path: usize) -> f64 {
        let dt = now.saturating_sub(self.last_update[path]) as f64;
        self.utils[path] * (-dt / self.decay_tau.max(1) as f64).exp()
    }

    /// Which path to send the next packet on. Re-decides only at flowlet
    /// boundaries; records the send time.
    pub(crate) fn choose(&mut self, now: Time) -> usize {
        if !self.started || now.saturating_sub(self.last_send) > self.flowlet_gap {
            self.started = true;
            let mut best = 0usize;
            let mut best_u = f64::INFINITY;
            for i in 0..self.utils.len() {
                let u = self.decayed(now, i);
                if u < best_u {
                    best_u = u;
                    best = i;
                }
            }
            self.cur = best;
        }
        self.last_send = now;
        self.cur
    }

    /// Currently selected path (without sending).
    pub(crate) fn current(&self) -> usize {
        self.cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{MS, US};

    #[test]
    fn sticks_within_flowlet() {
        let mut c = Clove::new(3, 200 * US, 10 * MS);
        c.feedback(0, 0, 0.9);
        c.feedback(0, 1, 0.1);
        c.feedback(0, 2, 0.5);
        let first = c.choose(1000);
        assert_eq!(first, 1);
        // Keep sending with small gaps: no re-decision even if feedback
        // changes.
        c.feedback(2000, 2, 0.0);
        assert_eq!(c.choose(50 * US), 1);
        assert_eq!(c.choose(100 * US), 1);
    }

    #[test]
    fn switches_at_flowlet_boundary() {
        let mut c = Clove::new(2, 200 * US, 100 * MS);
        c.feedback(0, 0, 0.2);
        c.feedback(0, 1, 0.8);
        assert_eq!(c.choose(10), 0);
        c.feedback(20, 0, 0.9); // path 0 now hot
                                // Pause longer than the gap → re-decide.
        assert_eq!(c.choose(500 * US), 1);
    }

    #[test]
    fn estimates_decay() {
        let mut c = Clove::new(2, 36 * US, 1 * MS);
        c.feedback(0, 0, 1.0);
        c.feedback(0, 1, 0.4);
        // Immediately, path 1 wins; after 5 decay constants path 0's
        // stale heat has evaporated below path 1's fresher reading.
        assert!(c.decayed(10, 0) > c.decayed(10, 1));
        assert!(c.decayed(5 * MS, 0) < 0.01);
    }

    #[test]
    fn single_path_trivial() {
        let mut c = Clove::new(1, 200 * US, MS);
        assert_eq!(c.choose(0), 0);
        assert_eq!(c.choose(MS), 0);
    }
}
