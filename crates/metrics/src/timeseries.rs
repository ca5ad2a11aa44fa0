//! Fixed-grid rate time series.
//!
//! The rate-evolution plots of the paper (Fig 11a–c, Fig 12a, Fig 15a,
//! Fig 16a, Fig 20b) are throughput-vs-time curves sampled on a uniform
//! grid. [`RateSeries`] accumulates delivered bytes into grid bins and
//! converts them to Gbps on export; [`SeriesSet`] keys one series per entity
//! (VF, VM-pair, port…).

use crate::{bps, Nanos};
use std::collections::BTreeMap;

/// Accumulates byte deltas into fixed-width time bins. Only the series'
/// own span is stored — `bins[k]` is bin `first + k` — so a pair that
/// lived 5 ms late in a run holds 5 bins; bins outside it read as zero.
#[derive(Debug, Clone)]
pub struct RateSeries {
    bin_ns: Nanos,
    first: usize,
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
            first: 0,
            bins: Vec::new(),
        }
    }

    /// Record `bytes` delivered at absolute time `now`.
    pub fn add(&mut self, now: Nanos, bytes: u64) {
        let idx = (now / self.bin_ns) as usize;
        if self.bins.is_empty() {
            self.first = idx;
        } else if idx < self.first {
            let pad = self.first - idx;
            self.bins.splice(0..0, std::iter::repeat_n(0, pad));
            self.first = idx;
        }
        let k = idx - self.first;
        if k >= self.bins.len() {
            self.bins.resize(k + 1, 0);
        }
        self.bins[k] += bytes;
    }

    /// Bytes of bin `i` (0 outside the span).
    fn bin(&self, i: usize) -> u64 {
        i.checked_sub(self.first)
            .and_then(|k| self.bins.get(k))
            .copied()
            .unwrap_or(0)
    }

    /// Total bytes across all bins.
    pub fn total_bytes(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Rate (bits/sec) of bin `i` (0.0 outside the span).
    pub fn rate_at(&self, i: usize) -> f64 {
        bps(self.bin(i), self.bin_ns)
    }

    /// Average rate (bits/sec) over `[from, to)`.
    pub fn avg_rate(&self, from: Nanos, to: Nanos) -> f64 {
        if to <= from {
            return 0.0;
        }
        let b0 = (from / self.bin_ns) as usize;
        let b1 = ((to + self.bin_ns - 1) / self.bin_ns) as usize;
        let bytes: u64 = (b0..b1).map(|i| self.bin(i)).sum();
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
    pub(crate) fn new(bin_ns: Nanos) -> Self {
        Self {
            bin_ns,
            series: BTreeMap::new(),
        }
    }

    /// Record `bytes` for entity `key` at time `now`.
    pub(crate) fn add(&mut self, key: K, now: Nanos, bytes: u64) {
        self.series
            .entry(key)
            .or_insert_with(|| RateSeries::new(self.bin_ns))
            .add(now, bytes);
    }

    /// The series for `key`, if any bytes were recorded for it.
    pub fn get(&self, key: &K) -> Option<&RateSeries> {
        self.series.get(key)
    }

    /// Rate (bits/sec) of `key` in bin `i`; 0 for a key with no series.
    pub fn rate_at(&self, key: &K, i: usize) -> f64 {
        self.get(key).map_or(0.0, |s| s.rate_at(i))
    }

    /// Average rate (bits/sec) of `key` over `[from, to)`; 0 for a key
    /// with no series.
    pub fn avg_rate(&self, key: &K, from: Nanos, to: Nanos) -> f64 {
        self.get(key).map_or(0.0, |s| s.avg_rate(from, to))
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
        assert_eq!((s.first, s.bins.len()), (0, 2));
        assert_eq!(s.total_bytes(), 2500);
        // 2000 bytes in 1 ms = 16 Mbps.
        assert!((s.rate_at(0) - 16e6).abs() < 1.0);
        assert!((s.rate_at(1) - 4e6).abs() < 1.0);
        assert_eq!(s.rate_at(99), 0.0);
    }

    #[test]
    fn a_late_series_holds_only_its_span() {
        let mut s = RateSeries::new(MS);
        s.add(60 * MS, 1000);
        s.add(64 * MS, 1000);
        assert_eq!((s.first, s.bins.len()), (60, 5));
        s.add(58 * MS, 500);
        assert_eq!((s.first, s.bins.len()), (58, 7));
        assert_eq!(s.rate_at(57), 0.0);
        assert!((s.rate_at(58) - 4e6).abs() < 1.0);
        assert_eq!(s.total_bytes(), 2500);
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
        let keys: Vec<_> = set.series.keys().copied().collect();
        assert_eq!(keys, vec![1, 2]);
        assert_eq!(set.get(&2).unwrap().total_bytes(), 40);
        assert!(set.get(&3).is_none());
        assert_eq!(set.rate_at(&2, 1), set.get(&2).unwrap().rate_at(1));
        assert_eq!(
            set.avg_rate(&1, 0, MS),
            set.get(&1).unwrap().avg_rate(0, MS)
        );
        assert_eq!((set.rate_at(&3, 0), set.avg_rate(&3, 0, MS)), (0.0, 0.0));
    }
}
