//! Fixed-grid rate time series.
//!
//! The rate-evolution plots of the paper (Fig 11a–c, Fig 12a, Fig 15a,
//! Fig 16a, Fig 20b) are throughput-vs-time curves sampled on a uniform
//! grid. [`RateSeries`] accumulates delivered bytes into grid bins and
//! converts them to Gbps on export; [`SeriesSet`] keys one series per entity
//! (VF, VM-pair, port…).

use crate::{bps, Nanos};
use std::collections::BTreeMap;

/// Accumulates byte deltas into fixed-width time bins.
#[derive(Debug, Clone)]
pub struct RateSeries {
    bin_ns: Nanos,
    bins: Vec<u64>,
}

impl RateSeries {
    /// Create a series with the given bin width in nanoseconds.
    ///
    /// # Panics
    /// Panics if `bin_ns == 0`.
    pub fn new(bin_ns: Nanos) -> Self {
        assert!(bin_ns > 0, "bin width must be positive");
        Self {
            bin_ns,
            bins: Vec::new(),
        }
    }

    /// Record `bytes` delivered at absolute time `now`.
    pub fn add(&mut self, now: Nanos, bytes: u64) {
        let idx = (now / self.bin_ns) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0);
        }
        self.bins[idx] += bytes;
    }

    /// Bin width in nanoseconds.
    pub fn bin_ns(&self) -> Nanos {
        self.bin_ns
    }

    /// Number of bins currently materialised.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True when no bytes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.bins.iter().all(|&b| b == 0)
    }

    /// Total bytes across all bins.
    pub fn total_bytes(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Rate (bits/sec) of bin `i` (0.0 past the end).
    pub fn rate_at(&self, i: usize) -> f64 {
        bps(self.bins.get(i).copied().unwrap_or(0), self.bin_ns)
    }

    /// Export `(bin_start_ns, rate_bps)` points for all bins up to `until`
    /// (exclusive), including trailing zero bins so plots show silence.
    pub fn points(&self, until: Nanos) -> Vec<(Nanos, f64)> {
        let n = (until / self.bin_ns) as usize;
        (0..n)
            .map(|i| (i as Nanos * self.bin_ns, self.rate_at(i)))
            .collect()
    }

    /// Average rate (bits/sec) over `[from, to)`.
    pub fn avg_rate(&self, from: Nanos, to: Nanos) -> f64 {
        if to <= from {
            return 0.0;
        }
        let b0 = (from / self.bin_ns) as usize;
        let b1 = ((to + self.bin_ns - 1) / self.bin_ns) as usize;
        let bytes: u64 = (b0..b1)
            .map(|i| self.bins.get(i).copied().unwrap_or(0))
            .sum();
        bps(bytes, to - from)
    }
}

/// A keyed collection of [`RateSeries`] sharing one bin width.
#[derive(Debug, Clone)]
pub struct SeriesSet<K: Ord + Clone> {
    bin_ns: Nanos,
    series: BTreeMap<K, RateSeries>,
}

impl<K: Ord + Clone> SeriesSet<K> {
    /// Create an empty set with the given bin width.
    pub fn new(bin_ns: Nanos) -> Self {
        Self {
            bin_ns,
            series: BTreeMap::new(),
        }
    }

    /// Record `bytes` for entity `key` at time `now`.
    pub fn add(&mut self, key: K, now: Nanos, bytes: u64) {
        self.series
            .entry(key)
            .or_insert_with(|| RateSeries::new(self.bin_ns))
            .add(now, bytes);
    }

    /// The series for `key`, if any bytes were recorded for it.
    pub fn get(&self, key: &K) -> Option<&RateSeries> {
        self.series.get(key)
    }

    /// Iterate over `(key, series)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &RateSeries)> {
        self.series.iter()
    }

    /// All keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.series.keys()
    }

    /// Number of entities tracked.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when no entity has been recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MS;

    #[test]
    fn bins_accumulate() {
        let mut s = RateSeries::new(MS);
        s.add(0, 1000);
        s.add(MS - 1, 1000);
        s.add(MS, 500);
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_bytes(), 2500);
        // 2000 bytes in 1 ms = 16 Mbps.
        assert!((s.rate_at(0) - 16e6).abs() < 1.0);
        assert!((s.rate_at(1) - 4e6).abs() < 1.0);
        assert_eq!(s.rate_at(99), 0.0);
    }

    #[test]
    fn points_include_trailing_zeros() {
        let mut s = RateSeries::new(MS);
        s.add(0, 100);
        let pts = s.points(5 * MS);
        assert_eq!(pts.len(), 5);
        assert!(pts[4].1 == 0.0);
        assert_eq!(pts[3].0, 3 * MS);
    }

    #[test]
    fn avg_rate_window() {
        let mut s = RateSeries::new(MS);
        for i in 0..10u64 {
            s.add(i * MS, 125_000); // 1 Gbps per bin
        }
        let r = s.avg_rate(0, 10 * MS);
        assert!((r - 1e9).abs() / 1e9 < 1e-9);
        assert_eq!(s.avg_rate(5 * MS, 5 * MS), 0.0);
    }

    #[test]
    fn series_set_keys() {
        let mut set: SeriesSet<u32> = SeriesSet::new(MS);
        set.add(2, 0, 10);
        set.add(1, 0, 20);
        set.add(2, MS, 30);
        let keys: Vec<_> = set.keys().copied().collect();
        assert_eq!(keys, vec![1, 2]);
        assert_eq!(set.get(&2).unwrap().total_bytes(), 40);
        assert!(set.get(&3).is_none());
    }
}
