//! Property-based tests for the simulator substrate.

use netsim::builder::{LinkSpec, NetworkBuilder};
use netsim::time::{bdp_bytes, tx_time};
use netsim::{Simulator, MS};
use proptest::prelude::*;

proptest! {
    /// Serialization time is monotone in size, antitone in capacity, and
    /// exact for byte-aligned cases.
    #[test]
    fn tx_time_monotone(bytes in 1u32..100_000, cap_gbps in 1u64..400) {
        let cap = cap_gbps * 1_000_000_000;
        let t = tx_time(bytes, cap);
        prop_assert!(t >= 1);
        prop_assert!(tx_time(bytes + 1, cap) >= t);
        if cap_gbps > 1 {
            prop_assert!(tx_time(bytes, cap - 1_000_000_000) >= t);
        }
        // Round-trip: t is within 1 ns of the exact value.
        let exact = bytes as f64 * 8.0 / cap as f64 * 1e9;
        prop_assert!((t as f64 - exact).abs() <= 1.0);
    }

    /// BDP arithmetic is consistent with tx_time: sending one BDP takes
    /// one RTT (within rounding).
    #[test]
    fn bdp_consistency(cap_gbps in 1u64..400, rtt_us in 1u64..1000) {
        let cap = cap_gbps * 1_000_000_000;
        let rtt = rtt_us * 1_000;
        let bdp = bdp_bytes(cap, rtt);
        prop_assume!(bdp > 0 && bdp < u32::MAX as u64);
        let t = tx_time(bdp as u32, cap);
        prop_assert!((t as i64 - rtt as i64).abs() <= 1 + rtt as i64 / 1000);
    }

    /// The simulator is deterministic: identical builds and seeds produce
    /// identical event counts.
    #[test]
    fn sim_deterministic(seed in 0u64..1_000) {
        let run = || {
            let mut b = NetworkBuilder::new();
            let h0 = b.add_host();
            let h1 = b.add_host();
            let s = b.add_switch();
            b.connect(h0, s, LinkSpec::gbps(10, 1000));
            b.connect(h1, s, LinkSpec::gbps(10, 1000));
            let mut sim = Simulator::new(b.build(), seed);
            // No agents: just exercise timers/links via direct events.
            sim.schedule_link_event(MS, s, netsim::PortNo(0), false);
            sim.schedule_link_event(2 * MS, s, netsim::PortNo(0), true);
            sim.run_until(3 * MS);
            sim.stats().events
        };
        prop_assert_eq!(run(), run());
    }
}
