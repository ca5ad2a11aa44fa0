//! Streaming statistics and exact percentiles.
//!
//! [`Percentiles`] keeps every sample, but integer samples as counts per
//! distinct value, so its memory follows the value range rather than the
//! sample count, and is never more than a plain list's.

use std::iter;

/// Streaming first/second-moment accumulator (Welford's algorithm).
///
/// Used wherever the paper reports mean ± stddev (e.g. Fig 17c FCT slowdown
/// with standard deviation) without storing every sample.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 when fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Consecutive values one page of counts covers.
const PAGE: usize = 1024;

/// Exact percentile calculator over every sample.
///
/// The evaluation cares about extreme tails (P99, P99.9 in Fig 1b, Fig 4,
/// Fig 12b), so no sample is sketched away. A store starts as the raw list
/// of samples. While every sample is a non-negative integer below 2^53
/// (RTTs and completion times in ns, queue depths in bytes), it folds, at
/// a doubling of the list, into pages of `PAGE` consecutive values with a
/// `u32` count each, a page allocated on first touch behind a directory
/// indexed by `v / PAGE` — but only if directory and pages are smaller
/// than the list would be, and a page that would break that sends the
/// store back to a list. So no store is larger than the `Vec<f64>` of its samples, and the
/// 1.9 M RTT samples of a 512-server churn cell (16 733 distinct values)
/// take 28 pages, 112 KB, instead of 16 MB. Queries walk `(value, count)`
/// in value order, over the pages or a sorted copy of the list, and give
/// the same bits a sorted list of every sample would.
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    /// Every sample, while the store is a list (`pages` empty).
    raw: Vec<f64>,
    /// The count of value `i·PAGE + j` at `pages[i][j]`, once folded.
    pages: Vec<Option<Box<[u32; PAGE]>>>,
    /// Pages allocated.
    live: usize,
    n: usize,
    /// The samples summed in arrival order.
    sum: f64,
    /// A sample was not a non-negative integer below 2^53: a list for good.
    mixed: bool,
}

impl Percentiles {
    /// Create an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one sample.
    pub fn add(&mut self, x: f64) {
        // The arrival-order sum `Iterator::sum` gives: it starts from -0.0,
        // and -0.0 + x == x.
        self.sum = if self.n == 0 { x } else { self.sum + x };
        self.n += 1;
        let v = x as u64;
        self.mixed |= !(x.is_sign_positive() && x < 9_007_199_254_740_992.0 && v as f64 == x);
        if !self.pages.is_empty() {
            if !self.mixed && self.bump(v, 8 * self.n.next_power_of_two()) {
                return;
            }
            self.unfold();
        } else if !self.mixed && self.raw.len() == self.raw.capacity() && self.fold(v) {
            return;
        }
        self.raw.push(x);
    }

    /// Count one `v`. A missing page (and directory slots up to it) is
    /// allocated only if directory and pages then stay below `limit`
    /// bytes; `false`, with nothing changed, if not.
    fn bump(&mut self, v: u64, limit: usize) -> bool {
        let i = (v / PAGE as u64) as usize;
        if let Some(Some(page)) = self.pages.get_mut(i) {
            let c = &mut page[v as usize % PAGE];
            *c = c.checked_add(1).expect("Percentiles: count overflow");
            return true;
        }
        let dir = self.pages.len().max(i + 1);
        if 8 * dir + 4 * PAGE * (self.live + 1) >= limit {
            return false;
        }
        self.pages.reserve_exact(dir - self.pages.len());
        self.pages.resize_with(dir, || None);
        self.pages[i] = Some(Box::new([0; PAGE]));
        self.live += 1;
        self.bump(v, limit)
    }

    /// Count the full list and `v` into pages if they stay smaller than
    /// the list's next doubling; leave the list as it is if not.
    fn fold(&mut self, v: u64) -> bool {
        let raw = std::mem::take(&mut self.raw);
        let limit = 16 * raw.len();
        if raw.iter().all(|&s| self.bump(s as u64, limit)) && self.bump(v, limit) {
            return true;
        }
        (self.raw, self.pages, self.live) = (raw, Vec::new(), 0);
        false
    }

    /// Back to a list, in value order, with the capacity a list of `n`
    /// pushed samples has.
    fn unfold(&mut self) {
        let mut raw = Vec::with_capacity(self.n.next_power_of_two());
        raw.extend(self.counts().flat_map(|(v, c)| iter::repeat_n(v, c)));
        (self.raw, self.pages, self.live) = (raw, Vec::new(), 0);
    }

    /// `(value, count)` in ascending value order. A list is walked as a
    /// stably sorted copy, so equal values (±0) keep their arrival order.
    fn counts(&self) -> Box<dyn Iterator<Item = (f64, usize)> + '_> {
        if self.pages.is_empty() {
            let mut raw = self.raw.clone();
            raw.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            return Box::new(raw.into_iter().map(|x| (x, 1)));
        }
        let pages = self.pages.iter().enumerate();
        let all = pages.flat_map(|(i, p)| p.iter().flat_map(move |p| (i * PAGE..).zip(p.iter())));
        Box::new(all.filter_map(|(v, &c)| (c > 0).then_some((v as f64, c as usize))))
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.n
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The `p`-th percentile with `p` in `[0, 100]` using nearest-rank
    /// interpolation. Returns `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.n <= 1 {
            return self.min();
        }
        let rank = (p.clamp(0.0, 100.0) / 100.0) * (self.n - 1) as f64;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        let frac = rank - lo as f64;
        let mut walk = self.counts().scan(0, |seen, (v, c)| {
            *seen += c;
            Some((v, *seen))
        });
        let at_lo = walk.find(|&(_, end)| end > lo)?;
        let (b, _) = iter::once(at_lo).chain(walk).find(|&(_, end)| end > hi)?;
        Some(at_lo.0 * (1.0 - frac) + b * frac)
    }

    /// Median (P50).
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.counts().last().map(|(v, _)| v)
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.counts().next().map(|(v, _)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_exact() {
        let mut p = Percentiles::new();
        for i in 1..=100 {
            p.add(i as f64);
        }
        assert_eq!(p.percentile(0.0), Some(1.0));
        assert_eq!(p.percentile(100.0), Some(100.0));
        let med = p.median().unwrap();
        assert!((med - 50.5).abs() < 1e-9);
        let p99 = p.percentile(99.0).unwrap();
        assert!((p99 - 99.01).abs() < 0.02, "p99={p99}");
    }

    #[test]
    fn percentiles_single_and_empty() {
        let mut p = Percentiles::new();
        assert_eq!(p.percentile(50.0), None);
        p.add(7.5);
        assert_eq!(p.percentile(10.0), Some(7.5));
        assert_eq!(p.percentile(99.9), Some(7.5));
    }

    #[test]
    fn mean_sums_as_iterator_sum_does() {
        // `Iterator::sum` starts from -0.0, so a store of -0.0s has mean -0.0.
        let mut p = Percentiles::new();
        p.add(-0.0);
        p.add(-0.0);
        assert_eq!(p.mean().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    #[should_panic(expected = "count overflow")]
    fn page_count_never_wraps() {
        let mut p = Percentiles::new();
        for _ in 0..1024 {
            p.add(3.0);
        }
        p.pages[0].as_mut().expect("folded at 512 samples")[3] = u32::MAX;
        p.add(3.0);
    }
}
