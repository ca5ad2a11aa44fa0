//! Property-based tests for the telemetry primitives.

use proptest::prelude::*;
use telemetry::wire::{probe_packet_bytes, WireHop, WireProbe};
use telemetry::CountingBloom;

fn arb_hop() -> impl Strategy<Value = WireHop> {
    (
        any::<u16>(),
        any::<u16>(),
        any::<u16>(),
        0u16..4096,
        0u8..16,
    )
        .prop_map(|(w_units, phi, tx_units, q_units, speed)| WireHop {
            w_units,
            phi,
            tx_units,
            q_units,
            speed,
        })
}

proptest! {
    /// Encode/decode is the identity for any probe with ≤15 hops.
    #[test]
    fn wire_roundtrip(
        ptype in prop::sample::select(vec![1u8, 2, 4]),
        phi in 0u32..(1 << 24),
        hops in prop::collection::vec(arb_hop(), 0..15),
    ) {
        let p = WireProbe { ptype, phi, hops };
        let bytes = p.encode();
        prop_assert_eq!(bytes.len(), p.encoded_len());
        let q = WireProbe::decode(&bytes).unwrap();
        prop_assert_eq!(p, q);
    }

    /// Truncating an encoded probe by any number of bytes fails to decode
    /// (never panics, never silently succeeds with hops).
    #[test]
    fn wire_truncation_detected(
        phi in 0u32..(1 << 24),
        hops in prop::collection::vec(arb_hop(), 1..10),
        cut in 1usize..8,
    ) {
        let p = WireProbe { ptype: 1, phi, hops };
        let bytes = p.encode();
        let cut = cut.min(bytes.len() - 1);
        let r = WireProbe::decode(&bytes[..bytes.len() - cut]);
        prop_assert!(r.is_err());
    }

    /// Quantisation error is bounded by the documented step sizes.
    #[test]
    fn quantisation_bounded(
        w in 0.0f64..4e6,
        phi in 0.0f64..65_000.0,
        tx in 0.0f64..1.3e11,
        q in 0u64..4_000_000,
    ) {
        let h = WireHop::quantise(w, phi, tx, q, 100_000_000_000);
        let (w2, phi2, tx2, q2, _) = h.dequantise();
        prop_assert!((w2 - w).abs() <= telemetry::wire::W_UNIT_BYTES as f64);
        prop_assert!((phi2 - phi.round()).abs() < 0.5 + 1e-9);
        prop_assert!((tx2 - tx).abs() <= telemetry::wire::TX_UNIT_BPS as f64);
        prop_assert!(q.abs_diff(q2) <= telemetry::wire::Q_UNIT_BYTES);
    }

    /// Probe wire size grows linearly and stays modest.
    #[test]
    fn probe_size_sane(hops in 0usize..15, sr in 0usize..10) {
        let sz = probe_packet_bytes(hops, sr);
        prop_assert!(sz >= probe_packet_bytes(0, 0));
        prop_assert!(sz <= 200);
    }

    /// The Bloom filter never produces false negatives, at any bank count.
    #[test]
    fn bloom_no_false_negative(
        keys in prop::collection::hash_set(any::<u64>(), 1..500),
        k in 1u8..=8,
    ) {
        let mut bf = CountingBloom::with_hashes(8 * 1024, k);
        for &k in &keys {
            bf.insert(k);
        }
        for &k in &keys {
            prop_assert!(bf.contains(k));
        }
    }

    /// Counting bloom: after inserting and removing the same multiset, the
    /// filter reports nothing present (exact cancellation, no underflow).
    #[test]
    fn counting_bloom_cancels(keys in prop::collection::vec(any::<u64>(), 1..200)) {
        let mut cb = CountingBloom::new(16 * 1024);
        for &k in &keys {
            cb.insert(k);
        }
        for &k in &keys {
            cb.remove(k);
        }
        let mut distinct = keys.clone();
        distinct.sort();
        distinct.dedup();
        for &k in &distinct {
            prop_assert!(!cb.contains(k));
        }
    }
}
