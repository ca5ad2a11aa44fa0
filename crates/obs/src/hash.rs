//! Determinism hasher: an FNV-1a fold over the event-loop history.

/// Running 64-bit FNV-1a digest.
///
/// The simulator folds every event-loop step (kind, time, node, seq)
/// into one of these; two runs with the same seed must end with equal
/// digests, so determinism regressions are an O(1) comparison instead
/// of a transcript diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetHash(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

impl DetHash {
    /// A fresh digest at the FNV offset basis.
    pub fn new() -> Self {
        DetHash(FNV_OFFSET)
    }

    /// Resume hashing from a previously captured [`DetHash::digest`]
    /// value — the snapshot/restore path for services whose digest
    /// must continue the original stream across a restart.
    pub fn resume(digest: u64) -> Self {
        DetHash(digest)
    }

    /// Fold one 64-bit word, byte by byte (FNV-1a).
    #[inline]
    pub fn fold_u64(&mut self, v: u64) {
        let mut h = self.0;
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Fold raw bytes.
    pub fn fold_bytes(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// The digest so far.
    pub fn digest(&self) -> u64 {
        self.0
    }
}

/// `write!(h, "{x}")` folds the bytes of `x.to_string()` without building it.
impl std::fmt::Write for DetHash {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.fold_bytes(s.as_bytes());
        Ok(())
    }
}

impl Default for DetHash {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_sensitive_and_deterministic() {
        let mut a = DetHash::new();
        let mut b = DetHash::new();
        for v in [1u64, 2, 3] {
            a.fold_u64(v);
        }
        for v in [1u64, 2, 3] {
            b.fold_u64(v);
        }
        assert_eq!(a.digest(), b.digest());

        let mut c = DetHash::new();
        for v in [3u64, 2, 1] {
            c.fold_u64(v);
        }
        assert_ne!(a.digest(), c.digest(), "fold must be order-sensitive");
    }

    #[test]
    fn matches_reference_fnv1a() {
        // FNV-1a of "hello" is a published vector.
        let mut h = DetHash::new();
        h.fold_bytes(b"hello");
        assert_eq!(h.digest(), 0xa430_d846_80aa_bd0b);
        // Empty input leaves the offset basis.
        assert_eq!(DetHash::new().digest(), FNV_OFFSET);
    }
}
