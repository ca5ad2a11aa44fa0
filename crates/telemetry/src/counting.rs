//! Counting variant of the multi-bank Bloom filter.
//!
//! §3.6 requires switches to *adjust* Φ_l/W_l when a finish probe
//! deregisters a VM-pair, which a plain bit-vector Bloom filter cannot
//! express (bits are shared). A counting filter with small per-cell
//! counters supports remove; the paper's P4 implementation uses two
//! register banks, which map to exactly this structure with saturating
//! 8-bit cells. False positives behave identically to the bit variant.
//!
//! The bank count is a hardware knob (the `dse` design-space sweep
//! varies it): `k` banks split the same byte budget, so each extra hash
//! buys an independent probe at the price of fewer cells per bank and
//! one more stateful-ALU access per packet. [`CountingBloom::new`] keeps
//! the paper's two-bank shape — bank 0/1 cell positions are identical to
//! the historical two-bank implementation, so existing runs are
//! bit-for-bit unchanged.
//!
//! The byte budget is the *hardware's*: it fixes the cell count and so the
//! false-positive rate. The simulator stores only the non-zero cells, as a
//! sorted vector, so its memory follows occupancy instead — a 512-server
//! churn cell's fullest port peaks at 14 live pairs, ≤ 28 of 20 480 cells.

/// A k-bank counting Bloom filter over `u64` keys with 8-bit saturating
/// cells (paper default k = 2).
#[derive(Debug, Clone)]
pub struct CountingBloom {
    /// The non-zero cells as `(bank·cells_per_bank + position, count)`,
    /// sorted by index; a cell whose count reaches 0 leaves.
    cells: Vec<(u32, u8)>,
    banks: usize,
    cells_per_bank: usize,
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl CountingBloom {
    /// Build the paper's two-bank filter using `total_bytes` of counter
    /// memory (half per bank, one byte per cell).
    ///
    /// # Panics
    /// Panics if `total_bytes < 2`.
    pub fn new(total_bytes: usize) -> Self {
        Self::with_hashes(total_bytes, 2)
    }

    /// Build a filter with `hashes` banks sharing `total_bytes` of
    /// counter memory (`total_bytes / hashes` cells per bank). With
    /// `hashes == 2` this is byte-identical to [`CountingBloom::new`].
    ///
    /// # Panics
    /// Panics if `hashes == 0`, or the budget yields zero cells per bank
    /// or more than 2^32 cells in all.
    pub fn with_hashes(total_bytes: usize, hashes: u8) -> Self {
        assert!(hashes >= 1, "counting bloom needs at least one hash");
        let k = hashes as usize;
        let cells = total_bytes / k;
        let fits = (1..=u32::MAX as usize / k).contains(&cells);
        assert!(fits, "counting bloom needs 1 to 2^32 cells, {k} banks");
        Self {
            cells: Vec::new(),
            banks: k,
            cells_per_bank: cells,
        }
    }

    /// The two base hashes; bank 0/1 use them directly (preserving the
    /// historical two-bank layout), banks ≥ 2 derive positions by double
    /// hashing `h_a + i·h_b`.
    fn base_hashes(key: u64) -> (u64, u64) {
        (
            mix(key ^ 0xA5A5_5A5A_DEAD_BEEF),
            mix(key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1234_5678_9ABC_DEF0),
        )
    }

    fn position(&self, ha: u64, hb: u64, bank: usize) -> usize {
        let h = match bank {
            0 => ha,
            1 => hb,
            i => ha.wrapping_add((i as u64).wrapping_mul(hb)),
        };
        (h % self.cells_per_bank as u64) as usize
    }

    /// The cell of `bank` at the key's base hashes `(ha, hb)`: `Ok` with
    /// its place in `cells` if non-zero, `Err` with its index and
    /// insertion point if zero.
    fn find(&self, (ha, hb): (u64, u64), bank: usize) -> Result<usize, (u32, usize)> {
        let idx = (bank * self.cells_per_bank + self.position(ha, hb, bank)) as u32;
        let at = self.cells.binary_search_by_key(&idx, |&(i, _)| i);
        at.map_err(|at| (idx, at))
    }

    /// Insert a key; returns `true` if it already appeared present
    /// (duplicate or false positive).
    pub fn insert(&mut self, key: u64) -> bool {
        let h = Self::base_hashes(key);
        let mut was = true;
        for bank in 0..self.banks {
            match self.find(h, bank) {
                Ok(j) => self.cells[j].1 = self.cells[j].1.saturating_add(1),
                Err((idx, at)) => {
                    self.cells.insert(at, (idx, 1));
                    was = false;
                }
            }
        }
        was
    }

    /// Remove one occurrence of a key (no-op on zero cells, so a stray
    /// finish probe cannot underflow shared counters).
    pub fn remove(&mut self, key: u64) {
        let h = Self::base_hashes(key);
        for bank in 0..self.banks {
            if let Ok(j) = self.find(h, bank) {
                self.cells[j].1 -= 1;
                if self.cells[j].1 == 0 {
                    self.cells.remove(j);
                }
            }
        }
    }

    /// Membership query (with Bloom false positives, no false negatives
    /// while inserted keys stay below the 255 saturation point).
    pub fn contains(&self, key: u64) -> bool {
        let h = Self::base_hashes(key);
        (0..self.banks).all(|bank| self.find(h, bank).is_ok())
    }

    /// Reset all cells.
    pub fn clear(&mut self) {
        self.cells.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_roundtrip() {
        let mut cb = CountingBloom::new(4096);
        assert!(!cb.contains(5));
        cb.insert(5);
        assert!(cb.contains(5));
        cb.remove(5);
        assert!(!cb.contains(5));
    }

    #[test]
    fn duplicate_counting() {
        let mut cb = CountingBloom::new(4096);
        assert!(!cb.insert(9));
        assert!(cb.insert(9)); // second insert sees it present
        cb.remove(9);
        assert!(cb.contains(9)); // one occurrence left
        cb.remove(9);
        assert!(!cb.contains(9));
    }

    #[test]
    fn remove_never_underflows() {
        let mut cb = CountingBloom::new(128);
        cb.remove(1);
        cb.remove(1);
        assert!(!cb.contains(1));
        cb.insert(1);
        assert!(cb.contains(1));
    }

    #[test]
    fn no_false_negatives_at_load() {
        let mut cb = CountingBloom::new(20 * 1024);
        for k in 0..5_000u64 {
            cb.insert(k);
        }
        for k in 0..5_000u64 {
            assert!(cb.contains(k));
        }
    }

    #[test]
    fn no_false_negatives_any_bank_count() {
        for hashes in [1u8, 2, 3, 4, 8] {
            let mut cb = CountingBloom::with_hashes(20 * 1024, hashes);
            for k in 0..2_000u64 {
                cb.insert(k);
            }
            for k in 0..2_000u64 {
                assert!(cb.contains(k), "false negative at k={hashes} banks");
            }
        }
    }

    #[test]
    fn two_bank_positions_unchanged() {
        // The k-bank generalisation must keep the historical two-bank
        // cell layout: bank 0 at mix(key ^ A5A5...) % cells, bank 1 at
        // mix(key·φ64 ^ 1234...) % cells, cells = total_bytes / 2.
        let cb = CountingBloom::new(4096);
        assert_eq!(cb.cells_per_bank, 2048);
        for key in [0u64, 1, 5, 0xDEAD_BEEF, u64::MAX] {
            let ha = mix(key ^ 0xA5A5_5A5A_DEAD_BEEF);
            let hb = mix(key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1234_5678_9ABC_DEF0);
            let (base_ha, base_hb) = CountingBloom::base_hashes(key);
            assert_eq!((ha, hb), (base_ha, base_hb));
            assert_eq!(cb.position(ha, hb, 0), (ha % 2048) as usize);
            assert_eq!(cb.position(ha, hb, 1), (hb % 2048) as usize);
        }
    }

    #[test]
    fn fewer_cells_raise_false_positives() {
        // Same byte budget, same inserted set: a starved filter must show
        // (many) more false positives than the paper-sized one.
        let count_fps = |bytes: usize| {
            let mut cb = CountingBloom::new(bytes);
            for k in 0..200u64 {
                cb.insert(k);
            }
            (10_000u64..20_000).filter(|&k| cb.contains(k)).count()
        };
        let starved = count_fps(64);
        let sized = count_fps(20 * 1024);
        assert!(
            starved > 10 * (sized + 1),
            "64 B filter: {starved} FPs vs 20 KB: {sized}"
        );
    }

    #[test]
    fn single_bank_supported() {
        let mut cb = CountingBloom::with_hashes(64, 1);
        cb.insert(7);
        assert!(cb.contains(7));
        cb.remove(7);
        assert!(!cb.contains(7));
    }

    #[test]
    #[should_panic]
    fn zero_hashes_rejected() {
        CountingBloom::with_hashes(64, 0);
    }

    #[test]
    fn clear_resets() {
        let mut cb = CountingBloom::new(128);
        cb.insert(3);
        cb.clear();
        assert!(!cb.contains(3));
    }
}
