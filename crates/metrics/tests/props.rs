//! Property-based tests for the statistics primitives.

use metrics::{DissatisfactionMeter, OnlineStats, Percentiles, RateSeries};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the heap bytes each thread holds, so a
/// test reads what a store holds as the sum of the changes across its own
/// calls.
struct Counting;

thread_local!(static HELD: Cell<isize> = const { Cell::new(0) });

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// without a destructor, so touching it never allocates or fails.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HELD.with(|h| h.set(h.get() + layout.size() as isize));
        // SAFETY: the caller's guarantees for `layout` pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        HELD.with(|h| h.set(h.get() - layout.size() as isize));
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// One sample of any kind a store must take: 0, −0, integers on one page,
/// on hundreds of pages and above 2^32, and non-integers.
fn any_sample() -> impl Strategy<Value = f64> {
    let far = (1u64 << 32)..(1 << 40);
    (0u8..6, 0u64..300_000, far, -1e6f64..1e6).prop_map(|(kind, v, far, x)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => (v % 1024) as f64,
        3 => v as f64,
        4 => far as f64,
        _ => x,
    })
}

/// A run of `len` integers from `0..span`, long enough to fold (or, at
/// 511 and 512, just not: a store folds when a full list would double),
/// then a tail of any samples, so a non-integer or a far value can arrive
/// after the fold.
fn sample_runs() -> impl Strategy<Value = Vec<f64>> {
    let lens = prop::sample::select(vec![0usize, 1, 511, 512, 513, 1024, 1025, 8200]);
    let spans = prop::sample::select(vec![1u64, 1024, 2048, 16_384, 300_000]);
    let tail = prop::collection::vec(any_sample(), 0..40);
    (lens, spans, any::<u64>(), tail).prop_map(|(len, span, mut x, tail)| {
        let mut run: Vec<f64> = (0..len)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                ((x >> 20) % span) as f64
            })
            .collect();
        run.extend(tail);
        run
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every query answers with the bits of the store it replaced — all
    /// samples in a list, stably sorted — and no store ever holds more
    /// heap than that list's `Vec<f64>` did at the same count.
    #[test]
    fn percentiles_match_sort_every_sample(samples in sample_runs(), p in -10.0f64..110.0) {
        let mut store = Percentiles::new();
        let mut held = 0isize;
        for (n, &x) in (1usize..).zip(&samples) {
            let before = HELD.with(Cell::get);
            store.add(x);
            held += HELD.with(Cell::get) - before;
            let list = 8 * n.next_power_of_two().max(4);
            prop_assert!(held as usize <= list, "{held} B at {n} samples, list {list} B");
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let at = |q: f64| {
            let n = sorted.len();
            if n <= 1 {
                return sorted.first().copied();
            }
            let rank = (q.clamp(0.0, 100.0) / 100.0) * (n - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            let frac = rank - lo as f64;
            Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
        };
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        for q in [0.0, 50.0, 99.0, 99.9, 100.0, p] {
            prop_assert_eq!(bits(store.percentile(q)), bits(at(q)), "p{}", q);
        }
        prop_assert_eq!(bits(store.median()), bits(at(50.0)));
        prop_assert_eq!(bits(store.min()), bits(sorted.first().copied()));
        prop_assert_eq!(bits(store.max()), bits(sorted.last().copied()));
        let mean = if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<f64>() / samples.len() as f64
        };
        prop_assert_eq!(store.mean().to_bits(), mean.to_bits());
        prop_assert_eq!(store.count(), samples.len());
    }
}

proptest! {
    /// Percentiles are monotone in p and bounded by min/max.
    #[test]
    fn percentile_monotone(samples in prop::collection::vec(-1e9f64..1e9, 1..300)) {
        let mut p = Percentiles::new();
        for &s in &samples {
            p.add(s);
        }
        let lo = p.min().unwrap();
        let hi = p.max().unwrap();
        let mut prev = lo;
        for q in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = p.percentile(q).unwrap();
            prop_assert!(v >= prev - 1e-9, "p{q} went down");
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            prev = v;
        }
    }

    /// Welford mean/stddev agree with the naive two-pass computation.
    #[test]
    fn online_stats_match_naive(samples in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut s = OnlineStats::new();
        for &x in &samples {
            s.add(x);
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() < 1e-4 * (1.0 + var));
    }

    /// A rate series preserves total bytes regardless of arrival pattern.
    #[test]
    fn rate_series_conserves_bytes(
        events in prop::collection::vec((0u64..1_000_000_000, 1u64..1_000_000), 1..200),
    ) {
        let mut s = RateSeries::new(1_000_000);
        let mut total = 0u64;
        for &(t, b) in &events {
            s.add(t, b);
            total += b;
        }
        prop_assert_eq!(s.total_bytes(), total);
        // Average over the full span equals total/span.
        let span = 1_000_000_000u64;
        let avg = s.avg_rate(0, span);
        let expect = total as f64 * 8.0 * 1e9 / span as f64;
        prop_assert!((avg - expect).abs() / expect.max(1.0) < 1e-9);
    }

    /// A series that stores only its own span answers every query as a
    /// grid zero-padded from t = 0 does, bit for bit — adds landing
    /// before its first bin included.
    #[test]
    fn rate_series_span_equals_a_dense_grid(
        events in prop::collection::vec((0u64..200, 0u64..1_000_000), 1..100),
        queries in prop::collection::vec((0u64..660, 0u64..660), 1..20),
    ) {
        let bin = 1_000_000u64;
        let mut s = RateSeries::new(bin);
        let mut dense = vec![0u64; 220];
        for &(t, b) in &events {
            // Times within a bin vary too: 1/7 of a bin per step of `b`.
            let now = t * bin + (b % 7) * bin / 7;
            s.add(now, b);
            dense[t as usize] += b;
        }
        let rate = |bytes: u64, ns: u64| bytes as f64 * 8.0 * 1e9 / ns as f64;
        prop_assert_eq!(s.total_bytes(), dense.iter().sum::<u64>());
        for (i, &d) in dense.iter().enumerate() {
            prop_assert_eq!(s.rate_at(i).to_bits(), rate(d, bin).to_bits(), "bin {}", i);
        }
        for &(a, b) in &queries {
            let (from, to) = (a * bin / 3, b * bin / 3);
            let want = if to <= from {
                0.0
            } else {
                let b1 = ((to + bin - 1) / bin) as usize;
                rate(dense[(from / bin) as usize..b1].iter().sum(), to - from)
            };
            prop_assert_eq!(s.avg_rate(from, to).to_bits(), want.to_bits());
        }
    }

    /// The dissatisfaction ratio always lands in [0, 1].
    #[test]
    fn dissatisfaction_in_unit_range(
        obs in prop::collection::vec((0.0f64..20e9, 0.0f64..10e9, 0.0f64..20e9), 1..100),
    ) {
        let mut m = DissatisfactionMeter::new();
        for &(rate, guar, demand) in obs.iter() {
            m.observe(1_000_000, &[(rate, guar, demand)]);
        }
        prop_assert!(m.ratio() >= 0.0);
        prop_assert!(m.ratio() <= 1.0 + 1e-9);
    }
}
