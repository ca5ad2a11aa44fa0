//! Swift-style weighted congestion control (WCC).
//!
//! Swift (SIGCOMM '20) is a delay-based AIMD: additive increase while the
//! measured RTT sits below a target delay, multiplicative decrease scaled
//! by how far the RTT overshoots. Seawall-style *weighted* CC multiplies
//! the additive-increase term by the source's weight, which yields
//! steady-state shares proportional to weights under a shared bottleneck.
//!
//! This is the paper's `WCC` building block ("We choose Swift, a
//! delay-based CC recently proposed for DCN, as the basis of WCC").

use netsim::Time;

// Swift's parameters: no run varies them.

/// Additive increase in MTUs per RTT per unit weight.
const AI_MTUS: f64 = 1.0;
/// Multiplicative-decrease sensitivity β.
const BETA: f64 = 0.8;
/// Maximum fractional decrease per RTT.
const MAX_MDF: f64 = 0.5;
/// Lower bound of the window in MTUs.
const MIN_CWND_MTUS: f64 = 1.0;
/// Target delay as a multiple of the flow's base RTT (Swift's fabric
/// target scales with hops; 1.5× base is the paper's Fig-5 flowlet
/// threshold scale).
const TARGET_SCALE: f64 = 1.5;

/// Per-pair Swift state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SwiftState {
    /// Congestion window in bytes.
    pub cwnd: f64,
    last_decrease: Time,
    base_rtt: Time,
}

impl SwiftState {
    /// Initialise with an explicit window (datacenter transports start at
    /// the wire-speed BDP — the greedy start the paper's Case-1 blames
    /// for unbounded incast queueing).
    pub(crate) fn with_initial(base_rtt: Time, cwnd: f64) -> Self {
        Self {
            cwnd,
            last_decrease: 0,
            base_rtt,
        }
    }

    /// Process one RTT sample from an ACK.
    ///
    /// `weight` is the pair's bandwidth-token weight, `mtu` the fabric
    /// MTU, `max_cwnd` an upper clamp (e.g. NIC BDP).
    pub(crate) fn on_ack(&mut self, now: Time, rtt: Time, weight: f64, mtu: u32, max_cwnd: f64) {
        let target = (self.base_rtt as f64 * TARGET_SCALE) as Time;
        let mtu_f = mtu as f64;
        if rtt < target {
            // Per-ACK share of "weight·ai MTUs per RTT".
            self.cwnd += weight * AI_MTUS * mtu_f * (mtu_f / self.cwnd);
        } else if now.saturating_sub(self.last_decrease) >= rtt {
            let over = (rtt - target) as f64 / rtt as f64;
            let factor = (1.0 - BETA * over).max(1.0 - MAX_MDF);
            self.cwnd *= factor;
            self.last_decrease = now;
        }
        self.cwnd = self.cwnd.clamp(MIN_CWND_MTUS * mtu_f, max_cwnd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::US;

    const MTU: u32 = 1500;

    #[test]
    fn grows_below_target() {
        let mut s = SwiftState::with_initial(24 * US, MTU as f64);
        let start = s.cwnd;
        let mut now = 0;
        for _ in 0..50 {
            now += 24 * US;
            s.on_ack(now, 20 * US, 1.0, MTU, 1e9);
        }
        assert!(s.cwnd > start * 10.0, "cwnd {}", s.cwnd);
    }

    #[test]
    fn shrinks_above_target_once_per_rtt() {
        let mut s = SwiftState::with_initial(24 * US, MTU as f64);
        s.cwnd = 100_000.0;
        // Two congested ACKs back-to-back: only one decrease applies.
        s.on_ack(100 * US, 100 * US, 1.0, MTU, 1e9);
        let after_first = s.cwnd;
        assert!(after_first < 100_000.0);
        s.on_ack(101 * US, 100 * US, 1.0, MTU, 1e9);
        assert_eq!(s.cwnd, after_first);
        // After an RTT has passed, it may decrease again.
        s.on_ack(300 * US, 100 * US, 1.0, MTU, 1e9);
        assert!(s.cwnd < after_first);
    }

    #[test]
    fn decrease_bounded_by_max_mdf() {
        let mut s = SwiftState::with_initial(24 * US, MTU as f64);
        s.cwnd = 100_000.0;
        // Enormous RTT: decrease clamps at 50 %.
        s.on_ack(10_000 * US, 5_000 * US, 1.0, MTU, 1e9);
        assert!((s.cwnd - 50_000.0).abs() < 1.0);
    }

    #[test]
    fn floor_and_ceiling() {
        let mut s = SwiftState::with_initial(24 * US, MTU as f64);
        s.cwnd = 2000.0;
        for i in 0..100 {
            s.on_ack((i + 1) * 100 * US, 100 * US, 1.0, MTU, 1e9);
        }
        assert_eq!(s.cwnd, MIN_CWND_MTUS * MTU as f64);
        for i in 0..10_000u64 {
            s.on_ack(i * 24 * US + 2_000_000_000, 10 * US, 1.0, MTU, 50_000.0);
        }
        assert_eq!(s.cwnd, 50_000.0);
    }

    #[test]
    fn weighted_growth_is_proportional() {
        // Measure growth over a fixed number of uncongested ACKs from the
        // same starting window.
        let grow = |weight: f64| {
            let mut s = SwiftState::with_initial(24 * US, MTU as f64);
            s.cwnd = 30_000.0;
            let mut now = 0;
            for _ in 0..20 {
                now += 24 * US;
                s.on_ack(now, 20 * US, weight, MTU, 1e9);
            }
            s.cwnd - 30_000.0
        };
        let g1 = grow(1.0);
        let g4 = grow(4.0);
        let ratio = g4 / g1;
        assert!((ratio - 4.0).abs() < 0.4, "ratio {ratio}");
    }
}
