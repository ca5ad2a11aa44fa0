//! Order statistics for rep samples.
//!
//! Quartiles follow Python's `statistics.quantiles(v, n=4)` (the
//! exclusive method), because that is what the acceptance procedure for
//! this benchmark computes over its runs: the numbers printed here and
//! the numbers a reviewer derives from the result files agree.

use crate::json::Json;

/// Median of `v` (mean of the two middle values for even `n`).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `(p25, p50, p75)`. A single sample is its own quartiles.
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        // Signed: for n < 3 the clamp pushes `j` past `i·m/4` and the
        // interpolation extrapolates, exactly as Python's does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

fn sorted(v: &[f64]) -> Vec<f64> {
    assert!(!v.is_empty(), "no samples");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    s
}

/// What the report prints for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub min: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(v: &[f64]) -> Self {
        let (p25, median, p75) = quartiles(v);
        Self {
            median,
            p25,
            p75,
            min: v.iter().copied().fold(f64::INFINITY, f64::min),
            n: v.len(),
        }
    }

    pub fn to_json(self, unit: &str) -> Json {
        Json::obj([
            ("unit", Json::from(unit)),
            ("median", Json::Num(self.median)),
            ("p25", Json::Num(self.p25)),
            ("p75", Json::Num(self.p75)),
            ("min", Json::Num(self.min)),
            ("n", Json::Num(self.n as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    /// Reference values from CPython 3.11 `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 4.0, 12.0));
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0, 3.0));
    }

    #[test]
    fn summary_fields() {
        let s = Summary::of(&[1.2, 1.0, 1.1, 1.3, 1.15]);
        assert_eq!(s.n, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 1.15);
        assert!(s.p25 < s.median && s.median < s.p75);
    }
}
