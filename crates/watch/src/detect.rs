//! SLO burn-rate math in integer milli fixed-point.
//!
//! The detector works in **milli-units** (`x_milli = x × 1000`) with
//! pure integer arithmetic — no floating point anywhere on the alerting
//! path. That is the teeth behind the watchtower's determinism
//! contract: alert logs and trace artifacts must be byte-identical
//! across reruns, `--jobs` levels, and platforms, and integer math
//! cannot pick up libm or rounding-mode skew. The math saturates
//! instead of wrapping, so a hostile counter degrades a score rather
//! than corrupting state.

/// SLO burn rate in milli-units.
///
/// `bad` of `total` requests in the window blew the latency budget;
/// the SLO allows `error_budget_milli`/1000 of them to. The burn rate
/// is the ratio of observed bad fraction to allowed bad fraction — a
/// burn of 1000 means "consuming the error budget exactly as fast as
/// allowed", 4000 means "4× too fast". Returns 0 for an empty window.
pub fn burn_rate_milli(bad: u64, total: u64, error_budget_milli: u64) -> u64 {
    if total == 0 || error_budget_milli == 0 {
        return 0;
    }
    let bad_milli = (bad as u128).saturating_mul(1000) / total as u128;
    u64::try_from(bad_milli.saturating_mul(1000) / error_budget_milli as u128).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burn_rate_empty_window_is_zero() {
        assert_eq!(burn_rate_milli(0, 0, 10), 0);
    }

    #[test]
    fn burn_rate_at_budget_is_exactly_1000() {
        // 1% bad with a 1% budget: burning exactly at the allowed rate.
        assert_eq!(burn_rate_milli(1, 100, 10), 1000);
        // 4% bad with a 1% budget: 4× burn.
        assert_eq!(burn_rate_milli(4, 100, 10), 4000);
    }

    #[test]
    fn burn_rate_saturates() {
        assert!(burn_rate_milli(u64::MAX, 1, 1) >= 1_000_000);
    }
}
