//! Shared helpers for the figure/table harnesses.

use autarky::prelude::CLOCK_HZ;

/// Convert a cycle count into seconds at the simulated clock rate.
pub fn secs(cycles: u64) -> f64 {
    cycles as f64 / CLOCK_HZ as f64
}

/// Operations per second given total cycles.
pub fn ops_per_sec(ops: u64, cycles: u64) -> f64 {
    if cycles == 0 {
        return 0.0;
    }
    ops as f64 / secs(cycles)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Pearson correlation of two equally long series (0.0 when either is
/// constant).
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len()) as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_equal_values() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_mixed() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ops_per_sec_matches_clock() {
        assert!((ops_per_sec(3_000_000_000, CLOCK_HZ) - 3_000_000_000.0).abs() < 1.0);
        assert_eq!(ops_per_sec(5, 0), 0.0);
    }

    #[test]
    fn pearson_sees_the_sign_and_a_constant_series() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]), 0.0);
    }
}
