//! Order statistics used by every metric the benchmark reports.

use std::collections::BTreeMap;

use autarky_telemetry::{Histogram, HIST_BUCKETS};

/// An exact value→count map: quantiles read from it are real recorded
/// values, not bucket floors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExactQuantiles {
    counts: BTreeMap<u64, u64>,
    n: u64,
    sum: u128,
}

impl ExactQuantiles {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.n += 1;
        self.sum += value as u128;
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// Nearest-rank quantile: the smallest recorded value with at least
    /// `ceil(q * n)` values at or below it (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        let rank = ((q.clamp(0.0, 1.0) * self.n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (&value, &count) in &self.counts {
            seen += count;
            if seen >= rank {
                return value;
            }
        }
        0
    }
}

/// Median of `values` (0 when empty). Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads printed here match the ones an outside script computes from
/// the same numbers. Fewer than two values give that value three times.
pub fn quartiles(values: &mut [f64]) -> (f64, f64, f64) {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match values {
        [] => (0.0, 0.0, 0.0),
        [v] => (*v, *v, *v),
        _ => {
            // Python: j = i*m // 4 clamped to [1, n-1], delta = i*m - 4j
            // (negative deltas extrapolate, as Python's do).
            let m = n as i64 + 1;
            let at = |i: i64| {
                let j = (i * m / 4).clamp(1, n as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0
            };
            let mid = if n % 2 == 1 {
                values[n / 2]
            } else {
                (values[n / 2 - 1] + values[n / 2]) / 2.0
            };
            (at(1), mid, at(3))
        }
    }
}

/// `(q3 - q1) / median`: the spread the benchmark's bounds are judged
/// against (0 when the median is 0).
pub fn relative_iqr(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let (q1, med, q3) = quartiles(&mut v);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Throughput of one measured window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Operations completed in the window.
    pub ops: u64,
    /// Host seconds the window took.
    pub secs: f64,
}

/// Host throughput of a measured phase that several reps ran op for op:
/// each window's time is its fastest over the reps, and the phase rate
/// is its ops over the sum of those times. Host noise only ever slows a
/// window down, so the fastest of a few reps is the least disturbed
/// estimate; on a shared host it halved the seed-to-seed spread of the
/// median. Windows hold equal op counts but not equal work (a seed's
/// fault-heavy stretch is slow in every rep), which is why windows are
/// matched by position rather than pooled.
pub fn phase_throughput(reps: &[Vec<Window>]) -> f64 {
    let windows = reps.iter().map(Vec::len).min().unwrap_or(0);
    let (mut ops, mut secs) = (0, 0.0);
    for w in 0..windows {
        secs += reps.iter().map(|r| r[w].secs).fold(f64::INFINITY, f64::min);
        ops += reps[0][w].ops;
    }
    if secs > 0.0 {
        ops as f64 / secs
    } else {
        0.0
    }
}

/// Quantile of a telemetry histogram, interpolated linearly inside the
/// bucket that holds the rank. The histogram's own
/// [`Histogram::quantile`] returns the bucket floor, which moves in
/// 25% steps; interpolation keeps a small shift in the distribution a
/// small shift in the reported value.
pub fn hist_quantile(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let mut encoded = Vec::with_capacity(Histogram::ENCODED_LEN);
    h.encode_into(&mut encoded);
    // Layout: count, sum, min, max, then one u64 per bucket.
    let bucket = |i: usize| {
        let at = (4 + i) * 8;
        u64::from_le_bytes(encoded[at..at + 8].try_into().expect("8-byte bucket"))
    };
    let rank = (q.clamp(0.0, 1.0) * n as f64).max(1.0);
    let mut seen = 0.0;
    for i in 0..HIST_BUCKETS {
        let c = bucket(i) as f64;
        if c > 0.0 && seen + c >= rank {
            let lo = Histogram::bucket_floor(i) as f64;
            let hi = if i + 1 < HIST_BUCKETS {
                Histogram::bucket_floor(i + 1) as f64
            } else {
                h.max() as f64
            };
            let within = (rank - seen) / c;
            return (lo + (hi - lo) * within).clamp(h.min() as f64, h.max() as f64);
        }
        seen += c;
    }
    h.max() as f64
}

/// Find the smallest mean inter-arrival gap in `[lo, hi]` (simulated
/// cycles) at which `meets_slo` holds, to a relative `resolution`
/// (0.01 = 1%), assuming it holds for every gap above the answer.
/// Returns `None` when even `hi` misses the SLO.
pub fn bisect_capacity<E>(
    lo: u64,
    hi: u64,
    resolution: f64,
    mut meets_slo: impl FnMut(u64) -> Result<bool, E>,
) -> Result<Option<u64>, E> {
    if !meets_slo(hi)? {
        return Ok(None);
    }
    if meets_slo(lo)? {
        return Ok(Some(lo));
    }
    // Invariant: `lo` misses, `hi` meets. Bisect geometrically: the gap
    // range spans 16x, and capacity is a rate.
    let (mut lo, mut hi) = (lo, hi);
    while hi as f64 > lo as f64 * (1.0 + resolution) {
        let mid = ((lo as f64 * hi as f64).sqrt().round() as u64).clamp(lo + 1, hi - 1);
        if meets_slo(mid)? {
            hi = mid;
        } else {
            lo = mid;
        }
        if hi - lo <= 1 {
            break;
        }
    }
    Ok(Some(hi))
}
