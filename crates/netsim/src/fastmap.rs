//! A deterministic multiplicative hasher for the simulator's id keys.
//!
//! Agents resolve `PairId`/`TenantId`/sequence-number keys on the
//! per-packet path; std's SipHash costs more there than the lookup it
//! guards, and its per-process random seed makes map iteration order
//! differ between runs. Keys here come from inside the program, so
//! collision-flooding resistance buys nothing. [`FastMap`] is
//! **lookup-only** in agent code: anything that walks pairs or tenants
//! goes through a sorted vector, never through map iteration.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher: one multiply per written word. The product's
/// high bits are the well-mixed ones: the table takes its control byte
/// from them as they are, and the final xor-shift folds them into the
/// low bits it indexes buckets with.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

macro_rules! write_word {
    ($($f:ident $t:ty),*) => {$(
        #[inline]
        fn $f(&mut self, v: $t) {
            self.add(v as u64);
        }
    )*};
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 29)
    }
    fn write(&mut self, bytes: &[u8]) {
        for c in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..c.len()].copy_from_slice(c);
            self.add(u64::from_le_bytes(w));
        }
    }
    write_word!(write_u16 u16, write_u32 u32, write_u64 u64, write_usize usize);
}

/// A `HashMap` keyed through `FastHasher`; build with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{NodeId, PairId};
    use crate::route::Route;
    use crate::PortNo;
    use std::hash::BuildHasher;

    #[test]
    fn dense_and_strided_keys_spread_over_buckets() {
        let bh = BuildHasherDefault::<FastHasher>::default();
        for stride in [1u32, 2, 64, 4096] {
            let mut low = std::collections::HashSet::new();
            let mut top = std::collections::HashSet::new();
            for i in 0..1024u32 {
                let h = bh.hash_one(PairId(i * stride));
                low.insert(h & 1023);
                top.insert(h >> 57);
            }
            assert!(low.len() > 600, "stride {stride}: {} buckets", low.len());
            assert_eq!(top.len(), 128, "stride {stride}: control bytes");
        }
    }

    #[test]
    fn behaves_as_a_map_for_every_key_shape_agents_use() {
        let mut m: FastMap<(NodeId, Route), u64> = FastMap::default();
        for n in 0..50u32 {
            for p in 0..6u16 {
                m.insert((NodeId(n), Route::from([PortNo(p), PortNo(p + 1)])), 0);
            }
        }
        assert_eq!(m.len(), 300);
        assert!(m.contains_key(&(NodeId(7), Route::from(vec![PortNo(2), PortNo(3)]))));
        assert!(!m.contains_key(&(NodeId(7), Route::new())));
        let mut s: FastMap<u64, u32> = FastMap::default();
        for seq in (0..1000u64).chain(u64::MAX / 2..u64::MAX / 2 + 1000) {
            s.insert(seq, 1);
        }
        assert_eq!(s.len(), 2000);
    }
}
