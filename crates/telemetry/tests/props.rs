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

/// The filter as the switch holds it: `k` dense banks of `bytes / k`
/// saturating 8-bit cells, bank 0 at h_a, bank 1 at h_b, bank i ≥ 2 at
/// h_a + i·h_b (SplitMix64 finaliser hashes).
struct DenseBloom(Vec<Vec<u8>>);

impl DenseBloom {
    fn new(bytes: usize, k: u8) -> Self {
        Self(vec![vec![0; bytes / k as usize]; k as usize])
    }

    fn cells(&self, key: u64) -> Vec<(usize, usize)> {
        let mix = |mut x: u64| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        let ha = mix(key ^ 0xA5A5_5A5A_DEAD_BEEF);
        let hb = mix(key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1234_5678_9ABC_DEF0);
        let n = self.0[0].len() as u64;
        (0..self.0.len())
            .map(|i| match i {
                0 => (0, (ha % n) as usize),
                1 => (1, (hb % n) as usize),
                i => (
                    i,
                    (ha.wrapping_add((i as u64).wrapping_mul(hb)) % n) as usize,
                ),
            })
            .collect()
    }

    fn insert(&mut self, key: u64) -> bool {
        let cells = self.cells(key);
        let was = cells.iter().all(|&(b, p)| self.0[b][p] > 0);
        cells
            .iter()
            .for_each(|&(b, p)| self.0[b][p] = self.0[b][p].saturating_add(1));
        was
    }

    fn remove(&mut self, key: u64) {
        for (b, p) in self.cells(key) {
            self.0[b][p] = self.0[b][p].saturating_sub(1);
        }
    }

    fn contains(&self, key: u64) -> bool {
        self.cells(key).iter().all(|&(b, p)| self.0[b][p] > 0)
    }
}

/// One filter operation: 0 insert, 1 remove (each `reps` times, so one key
/// can pass the 255 saturation point and come back), 2 contains, 3 clear.
fn bloom_ops() -> impl Strategy<Value = Vec<(u8, u64, usize)>> {
    let op = (0u8..31).prop_map(|o| if o == 30 { 3 } else { o % 3 });
    let key = (0u8..5, 0u64..48, any::<u64>()).prop_map(|(w, k, any)| if w == 0 { any } else { k });
    let reps = (0u8..9, 1usize..4, 250usize..300)
        .prop_map(|(w, few, many)| if w == 0 { many } else { few });
    prop::collection::vec((op, key, reps), 0..120)
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

    /// The sparse filter answers every insert and contains exactly as the
    /// dense banks do, at any bank count, on a starved (64 B) and on the
    /// paper's (20 KiB) budget, through saturation, removes of absent keys
    /// and clears.
    #[test]
    fn counting_bloom_matches_dense_banks(
        ops in bloom_ops(),
        k in 1u8..=8,
        bytes in prop::sample::select(vec![64usize, 20 * 1024]),
    ) {
        let mut sparse = CountingBloom::with_hashes(bytes, k);
        let mut dense = DenseBloom::new(bytes, k);
        for (op, key, reps) in ops {
            for _ in 0..reps {
                match op {
                    0 => prop_assert_eq!(sparse.insert(key), dense.insert(key)),
                    1 => {
                        sparse.remove(key);
                        dense.remove(key);
                    }
                    2 => {}
                    _ => {
                        sparse.clear();
                        dense = DenseBloom::new(bytes, k);
                    }
                }
            }
            prop_assert_eq!(sparse.contains(key), dense.contains(key));
        }
        for key in 0..48 {
            prop_assert_eq!(sparse.contains(key), dense.contains(key));
        }
    }
}
