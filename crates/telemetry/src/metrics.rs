//! Metric types: log-linear histograms and gauges, each a fixed-size
//! value with a canonical little-endian encoding.
//!
//! A metric is a typed field of whatever records it (see
//! [`crate::Telemetry`]), so recording is a field update and the
//! encoding order is the declaration order.

/// Log-linear histogram: one octave per power of two, four linear
/// sub-buckets per octave (~25% relative resolution), fixed storage.
///
/// Values 0..8 get exact buckets; the largest `u64` lands in bucket 251.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Number of buckets in every [`Histogram`].
pub const HIST_BUCKETS: usize = 252;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Encoded size: buckets plus count/sum/min/max.
    pub const ENCODED_LEN: usize = (HIST_BUCKETS + 4) * 8;

    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a value.
    pub fn bucket_index(value: u64) -> usize {
        if value < 8 {
            return value as usize;
        }
        let octave = 63 - value.leading_zeros() as usize;
        let sub = ((value >> (octave - 2)) & 3) as usize;
        (octave - 1) * 4 + sub
    }

    /// Inclusive lower bound of a bucket (for percentile reporting).
    pub fn bucket_floor(index: usize) -> u64 {
        if index < 8 {
            return index as u64;
        }
        let octave = index / 4 + 1;
        let sub = (index % 4) as u64;
        (1u64 << octave) + (sub << (octave - 2))
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Lower bound of the bucket containing the `q`-quantile
    /// (`0.0 <= q <= 1.0`); 0 if empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_floor(i);
            }
        }
        Self::bucket_floor(HIST_BUCKETS - 1)
    }

    /// Digest the distribution into the standard latency summary
    /// (p50/p99/p999 + mean). This is the single quantile surface the
    /// whole workspace reports through — fleet and profiler percentiles
    /// are this method, not parallel re-implementations of the bucket
    /// walk.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            mean: self.mean(),
        }
    }

    /// Merge another histogram into this one.
    pub fn absorb(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Append the canonical little-endian encoding.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.sum.to_le_bytes());
        out.extend_from_slice(&self.min().to_le_bytes());
        out.extend_from_slice(&self.max.to_le_bytes());
        for b in &self.buckets {
            out.extend_from_slice(&b.to_le_bytes());
        }
    }

    /// Rebuild a histogram from its canonical encoding (the inverse of
    /// [`Histogram::encode_into`]), consuming from `input`. The encoding
    /// stores `min()` (0 when empty), so an empty histogram decodes back
    /// to the internal `u64::MAX` sentinel and keeps recording correctly.
    /// Returns `None` on truncation.
    pub fn decode_from(input: &mut &[u8]) -> Option<Histogram> {
        let count = take_u64(input)?;
        let sum = take_u64(input)?;
        let min = take_u64(input)?;
        let max = take_u64(input)?;
        let mut buckets = [0u64; HIST_BUCKETS];
        for b in &mut buckets {
            *b = take_u64(input)?;
        }
        Some(Histogram {
            buckets,
            count,
            sum,
            min: if count == 0 { u64::MAX } else { min },
            max,
        })
    }
}

/// The standard latency digest derived from a [`Histogram`]: the
/// percentile set every report in the workspace prints. Values are
/// bucket floors (the same ~25% relative resolution as the histogram
/// itself), so two digests of byte-identical histograms are equal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of recorded values.
    pub count: u64,
    /// Median, cycles (bucket floor).
    pub p50: u64,
    /// 99th percentile, cycles (bucket floor).
    pub p99: u64,
    /// 99.9th percentile, cycles (bucket floor).
    pub p999: u64,
    /// Mean, cycles.
    pub mean: f64,
}

/// Consume a little-endian `u64` from the front of `input`.
pub(crate) fn take_u64(input: &mut &[u8]) -> Option<u64> {
    if input.len() < 8 {
        return None;
    }
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&input[..8]);
    *input = &input[8..];
    Some(u64::from_le_bytes(bytes))
}

/// Consume a little-endian `u32` from the front of `input`.
pub(crate) fn take_u32(input: &mut &[u8]) -> Option<u32> {
    if input.len() < 4 {
        return None;
    }
    let mut bytes = [0u8; 4];
    bytes.copy_from_slice(&input[..4]);
    *input = &input[4..];
    Some(u32::from_le_bytes(bytes))
}

/// A sampled level: the last sample, its high-water mark and the number
/// of samples taken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    last: u64,
    max: u64,
    samples: u64,
}

impl Gauge {
    /// Encoded size: last, max and samples.
    pub const ENCODED_LEN: usize = 3 * 8;

    /// Take one sample.
    pub fn set(&mut self, value: u64) {
        self.last = value;
        self.max = self.max.max(value);
        self.samples += 1;
    }

    /// Last sampled value.
    pub fn last(&self) -> u64 {
        self.last
    }

    /// High-water mark.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Append the canonical little-endian encoding.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        for v in [self.last, self.max, self.samples] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Rebuild a gauge from its canonical encoding (the inverse of
    /// [`Gauge::encode_into`]), consuming from `input`. Returns `None` on
    /// truncation.
    pub fn decode_from(input: &mut &[u8]) -> Option<Gauge> {
        Some(Gauge {
            last: take_u64(input)?,
            max: take_u64(input)?,
            samples: take_u64(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_monotone_and_in_range() {
        let mut prev = 0;
        for shift in 0..64 {
            let v = 1u64 << shift;
            for v in [v, v + v / 4, v + v / 2] {
                let i = Histogram::bucket_index(v);
                assert!(i < HIST_BUCKETS, "{v} -> {i}");
                assert!(i >= prev, "bucket index must not decrease at {v}");
                prev = i;
                assert!(
                    Histogram::bucket_floor(i) <= v,
                    "floor({i}) = {} > {v}",
                    Histogram::bucket_floor(i)
                );
            }
        }
        assert_eq!(Histogram::bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..8u64 {
            assert_eq!(Histogram::bucket_index(v), v as usize);
            assert_eq!(Histogram::bucket_floor(v as usize), v);
        }
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        for v in [1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 26.5).abs() < 1e-9);
        assert_eq!(h.quantile(0.5), 2);
        assert!(h.quantile(1.0) >= 96, "p100 bucket floor near max");
    }

    #[test]
    fn summary_matches_direct_quantiles() {
        let mut h = Histogram::new();
        for i in 0..1000u64 {
            h.record(1000 + i * 10);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, h.quantile(0.50));
        assert_eq!(s.p99, h.quantile(0.99));
        assert_eq!(s.p999, h.quantile(0.999));
        assert!((s.mean - h.mean()).abs() < 1e-9);
        assert!(s.p50 <= s.p99 && s.p99 <= s.p999);
        assert_eq!(Histogram::new().summary().count, 0);
    }

    #[test]
    fn absorb_merges() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(50);
        a.absorb(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 50);
    }

    #[test]
    fn gauge_tracks_last_and_max() {
        let mut g = Gauge::default();
        g.set(10);
        g.set(4);
        assert_eq!(g.last(), 4);
        assert_eq!(g.max(), 10);
        let mut buf = Vec::new();
        g.encode_into(&mut buf);
        assert_eq!(buf.len(), Gauge::ENCODED_LEN);
        assert_eq!(buf[16..], 2u64.to_le_bytes(), "two samples");
        assert_eq!(Gauge::decode_from(&mut &buf[..]), Some(g));
        assert_eq!(Gauge::decode_from(&mut &buf[..buf.len() - 1]), None);
    }
}
