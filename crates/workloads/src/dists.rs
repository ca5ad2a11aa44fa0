//! Empirical distributions used by the evaluation workloads.

use rand::Rng;

/// A piecewise-linear empirical distribution defined by `(value, cdf)`
/// knots with `cdf` ascending to 1.0.
#[derive(Debug, Clone)]
pub struct Empirical {
    points: Vec<(f64, f64)>,
}

impl Empirical {
    /// Build from knots.
    ///
    /// # Panics
    /// Panics if the knots are empty, unsorted, or the last cdf ≠ 1.0.
    pub(crate) fn new(points: Vec<(f64, f64)>) -> Self {
        assert!(!points.is_empty());
        for w in points.windows(2) {
            assert!(w[0].1 <= w[1].1, "CDF must be non-decreasing");
            assert!(w[0].0 <= w[1].0, "values must be non-decreasing");
        }
        assert!(
            (points.last().unwrap().1 - 1.0).abs() < 1e-9,
            "CDF must end at 1.0"
        );
        Self { points }
    }

    /// Sample one value with linear interpolation between knots.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        self.quantile(u)
    }

    /// The value at cumulative probability `u`.
    pub(crate) fn quantile(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        let mut prev = (0.0f64, 0.0f64);
        for &(v, c) in &self.points {
            if u <= c {
                if c - prev.1 < 1e-12 {
                    return v;
                }
                let f = (u - prev.1) / (c - prev.1);
                return prev.0 + f * (v - prev.0);
            }
            prev = (v, c);
        }
        self.points.last().unwrap().0
    }

    /// Analytic mean of the piecewise-linear distribution.
    pub fn mean(&self) -> f64 {
        let mut m = 0.0;
        let mut prev = (0.0f64, 0.0f64);
        for &(v, c) in &self.points {
            let w = c - prev.1;
            m += w * (prev.0 + v) / 2.0;
            prev = (v, c);
        }
        m
    }
}

/// The web-search flow-size distribution (DCTCP/CONGA lineage, the
/// paper's [7]) — heavy-tailed: >50 % of flows under 100 KB, a few
/// multi-MB elephants carrying most bytes. Values in bytes.
pub fn websearch_flow_sizes() -> Empirical {
    Empirical::new(vec![
        (6_000.0, 0.15),
        (13_000.0, 0.20),
        (19_000.0, 0.30),
        (33_000.0, 0.40),
        (53_000.0, 0.53),
        (133_000.0, 0.60),
        (667_000.0, 0.70),
        (1_333_000.0, 0.80),
        (3_333_000.0, 0.90),
        (6_667_000.0, 0.95),
        (20_000_000.0, 0.98),
        (30_000_000.0, 1.0),
    ])
}

/// Key-value object sizes for the Memcached model (the paper's [10],
/// Atikoglu et al.: small objects dominate, mean ≈ 2 KB). Values in bytes.
pub fn kv_object_sizes() -> Empirical {
    Empirical::new(vec![
        (64.0, 0.20),
        (128.0, 0.35),
        (256.0, 0.50),
        (512.0, 0.62),
        (1_024.0, 0.72),
        (2_048.0, 0.82),
        (4_096.0, 0.90),
        (8_192.0, 0.955),
        (16_384.0, 0.985),
        (65_536.0, 0.998),
        (131_072.0, 1.0),
    ])
}

/// Exponential inter-arrival with the given mean (ns) — Poisson arrivals.
pub fn exp_interarrival<R: Rng>(rng: &mut R, mean_ns: f64) -> u64 {
    let u: f64 = rng.gen_range(1e-12..1.0);
    (-mean_ns * u.ln()).max(1.0) as u64
}

/// One lognormal sample with parameters `mu`/`sigma` of the underlying
/// normal (Box–Muller; used for tenant lifetimes in the churn model).
pub(crate) fn lognormal<R: Rng>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (mu + sigma * z).exp()
}

/// The `mu` that gives a lognormal the target `mean` at shape `sigma`
/// (mean = exp(μ + σ²/2), so μ = ln(mean) − σ²/2).
pub(crate) fn lognormal_mu_for_mean(mean: f64, sigma: f64) -> f64 {
    mean.ln() - sigma * sigma / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn quantiles_interpolate() {
        let d = Empirical::new(vec![(10.0, 0.5), (20.0, 1.0)]);
        assert!((d.quantile(0.25) - 5.0).abs() < 1e-9);
        assert!((d.quantile(0.75) - 15.0).abs() < 1e-9);
        assert_eq!(d.quantile(1.0), 20.0);
        assert_eq!(d.quantile(2.0), 20.0);
    }

    #[test]
    fn sample_mean_matches_analytic() {
        let d = websearch_flow_sizes();
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 200_000;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += d.sample(&mut rng);
        }
        let emp = sum / n as f64;
        let ana = d.mean();
        assert!(
            (emp - ana).abs() / ana < 0.05,
            "empirical {emp:.0} vs analytic {ana:.0}"
        );
        // Heavy-tailed sanity: mean well above the median.
        assert!(ana > 2.0 * d.quantile(0.5));
    }

    #[test]
    fn kv_mean_is_about_2kb() {
        let m = kv_object_sizes().mean();
        assert!(
            (1_000.0..4_000.0).contains(&m),
            "KV mean {m:.0} should be ≈2 KB"
        );
    }

    #[test]
    fn poisson_interarrival_mean() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mean = 50_000.0;
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| exp_interarrival(&mut rng, mean)).sum();
        let emp = sum as f64 / n as f64;
        assert!((emp - mean).abs() / mean < 0.03, "mean {emp}");
    }

    #[test]
    #[should_panic(expected = "CDF must end at 1.0")]
    fn bad_cdf_rejected() {
        Empirical::new(vec![(1.0, 0.4)]);
    }

    /// Fixed-seed mean/p50/p99 of each paper-CDF sampler, pinned against
    /// the analytic values so churn demand mixes can't drift silently.
    fn sampled_stats(d: &Empirical, seed: u64, n: usize) -> (f64, f64, f64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = xs.iter().sum::<f64>() / n as f64;
        (mean, xs[n / 2], xs[n * 99 / 100])
    }

    #[test]
    fn websearch_stats_are_pinned() {
        let d = websearch_flow_sizes();
        let (mean, p50, p99) = sampled_stats(&d, 7, 200_000);
        assert!((mean - d.mean()).abs() / d.mean() < 0.05, "mean {mean:.0}");
        let a50 = d.quantile(0.5);
        let a99 = d.quantile(0.99);
        assert!((p50 - a50).abs() / a50 < 0.05, "p50 {p50:.0} vs {a50:.0}");
        assert!((p99 - a99).abs() / a99 < 0.07, "p99 {p99:.0} vs {a99:.0}");
    }

    #[test]
    fn kv_stats_are_pinned() {
        let d = kv_object_sizes();
        let (mean, p50, p99) = sampled_stats(&d, 7, 200_000);
        assert!((mean - d.mean()).abs() / d.mean() < 0.05, "mean {mean:.0}");
        let a50 = d.quantile(0.5);
        let a99 = d.quantile(0.99);
        assert!((p50 - a50).abs() / a50 < 0.05, "p50 {p50:.0} vs {a50:.0}");
        assert!((p99 - a99).abs() / a99 < 0.07, "p99 {p99:.0} vs {a99:.0}");
    }

    #[test]
    fn lognormal_mean_and_median_match_analytic() {
        let mut rng = SmallRng::seed_from_u64(11);
        let (mean_target, sigma) = (5.0e6, 0.8);
        let mu = lognormal_mu_for_mean(mean_target, sigma);
        let n = 200_000;
        let mut xs: Vec<f64> = (0..n).map(|_| lognormal(&mut rng, mu, sigma)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!(
            (mean - mean_target).abs() / mean_target < 0.03,
            "mean {mean:.0}"
        );
        // Median of a lognormal is exp(μ).
        let med = xs[n / 2];
        assert!((med - mu.exp()).abs() / mu.exp() < 0.03, "median {med:.0}");
        assert!(xs[0] > 0.0);
    }
}
