//! Jain's fairness index.

/// Jain's fairness index over raw rates: `(Σx)² / (n·Σx²)`.
///
/// 1.0 means perfectly equal; `1/n` means one entity has everything.
/// Returns 1.0 for empty or all-zero input (vacuously fair).
pub fn jain_index(rates: &[f64]) -> f64 {
    let n = rates.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = rates.iter().sum();
    let sq: f64 = rates.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (n as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_equal_is_one() {
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_single_hog() {
        let idx = jain_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!((idx - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_degenerate() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }
}
