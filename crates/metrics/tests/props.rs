//! Property-based tests for the statistics primitives.

use metrics::{DissatisfactionMeter, OnlineStats, Percentiles, RateSeries};
use proptest::prelude::*;

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

    /// The dissatisfaction ratio always lands in [0, 1].
    #[test]
    fn dissatisfaction_in_unit_range(
        obs in prop::collection::vec((0.0f64..20e9, 0.0f64..10e9, 0.0f64..20e9), 1..100),
    ) {
        let mut m = DissatisfactionMeter::new();
        for (i, &(rate, guar, demand)) in obs.iter().enumerate() {
            m.observe(i as u64 * 1_000_000, 1_000_000, &[(rate, guar, demand)]);
        }
        prop_assert!(m.ratio() >= 0.0);
        prop_assert!(m.ratio() <= 1.0 + 1e-9);
    }
}
