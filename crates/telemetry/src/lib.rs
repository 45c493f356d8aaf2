//! Enclave-side telemetry for the Autarky runtime.
//!
//! Observability inside an enclave is security-sensitive: any signal the
//! enclave emits about its own paging behaviour can itself become a
//! controlled channel (cf. the Heisenberg defense and the pigeonhole
//! attacks). This crate therefore keeps only *aggregates*:
//!
//! * **In-enclave** — per-kind span aggregates, counters, gauges, and
//!   log-linear [`Histogram`]s. All timing is in *simulated cycles*
//!   supplied by the caller (the `sgx-sim` clock), so records are
//!   deterministic and host wall time never leaks in. Individual span
//!   closures are not kept here: the runtime records each one as a
//!   `SpanClose` event in the flight recorder, when that is armed.
//! * **Exported** — [`Telemetry::snapshot_bytes`] encodes the aggregates
//!   into a canonical, **fixed-size** little-endian blob. Because the
//!   size and layout depend only on the registered schema — not on what
//!   the enclave did — a sealed snapshot exported once per epoch is
//!   indistinguishable across secrets by construction. The leakage audit
//!   verifies this.
//!
//! The crate is dependency-free so that even the pure `oram` crate can
//! build its statistics on top of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod span;

pub use metrics::{CounterSet, GaugeSet, HistSet, Histogram, LatencySummary, HIST_BUCKETS};
pub use span::{SpanGuard, SpanKind, SpanRecord, SPAN_KINDS};

/// Per-span-kind running aggregate (what the export path sees).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanAgg {
    /// Completed spans of this kind.
    pub count: u64,
    /// Total simulated cycles spent inside this kind.
    pub total_cycles: u64,
    /// Latency distribution (cycles per span).
    pub hist: Histogram,
}

/// The enclave's telemetry instance: span aggregates + metrics.
///
/// The metric *schema* (counter/gauge/histogram names) is fixed at
/// construction so the snapshot encoding has a static layout; recording
/// against an unregistered name panics (a schema bug, not a data bug).
#[derive(Debug, Clone, PartialEq)]
pub struct Telemetry {
    spans: [SpanAgg; SPAN_KINDS],
    counters: CounterSet,
    gauges: GaugeSet,
    hists: HistSet,
    epoch: u64,
}

impl Telemetry {
    /// Build a telemetry instance with the given metric schema.
    pub fn new(counters: &[&'static str], gauges: &[&'static str], hists: &[&'static str]) -> Self {
        Self {
            spans: core::array::from_fn(|_| SpanAgg::default()),
            counters: CounterSet::new(counters),
            gauges: GaugeSet::new(gauges),
            hists: HistSet::new(hists),
            epoch: 0,
        }
    }

    /// Open a span; `now_cycles` comes from the simulated clock.
    pub fn enter(&self, kind: SpanKind, now_cycles: u64) -> SpanGuard {
        SpanGuard::new(kind, now_cycles)
    }

    /// Close a span opened with [`Telemetry::enter`].
    pub fn exit(&mut self, guard: SpanGuard, now_cycles: u64) {
        self.span(guard.kind(), guard.start_cycles(), now_cycles);
    }

    /// Record a completed span in one call (enter + exit).
    pub fn span(&mut self, kind: SpanKind, start_cycles: u64, end_cycles: u64) {
        let record = SpanRecord {
            kind,
            start_cycles,
            end_cycles,
        };
        let agg = &mut self.spans[kind as usize];
        agg.count += 1;
        agg.total_cycles += record.duration();
        agg.hist.record(record.duration());
    }

    /// Aggregate for one span kind.
    pub fn span_agg(&self, kind: SpanKind) -> &SpanAgg {
        &self.spans[kind as usize]
    }

    /// Increment a registered counter.
    pub fn incr(&mut self, name: &'static str) {
        self.counters.add(name, 1);
    }

    /// Add to a registered counter.
    pub fn add(&mut self, name: &'static str, n: u64) {
        self.counters.add(name, n);
    }

    /// Read a registered counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name)
    }

    /// Sample a registered gauge.
    pub fn gauge_set(&mut self, name: &'static str, value: u64) {
        self.gauges.set(name, value);
    }

    /// Last sampled value of a registered gauge.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.last(name)
    }

    /// High-water mark of a registered gauge.
    pub fn gauge_max(&self, name: &str) -> u64 {
        self.gauges.max(name)
    }

    /// Record a value into a registered named histogram.
    pub fn hist_record(&mut self, name: &'static str, value: u64) {
        self.hists.record(name, value);
    }

    /// A registered named histogram.
    pub fn hist(&self, name: &str) -> &Histogram {
        self.hists.get(name)
    }

    /// Current epoch number (bumped by [`Telemetry::end_epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Close the current epoch by advancing the epoch counter. Aggregates
    /// are *cumulative* (they are not reset), so every export has the
    /// same fixed size and consecutive exports differ only in content.
    pub fn end_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Canonical little-endian encoding of the whole telemetry state: the
    /// telemetry half of every sealed export, and the form a checkpoint
    /// carries ([`Telemetry::restore_state`] reads it back).
    ///
    /// The layout (and therefore the byte length) depends only on the
    /// registered schema: magic, version, epoch, the per-kind span
    /// aggregates (count, total, full latency histogram), then counters,
    /// gauges, and named histograms in registration order. Identical runs
    /// produce byte-identical snapshots; runs on different secrets produce
    /// same-sized snapshots.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.snapshot_len());
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        for agg in &self.spans {
            out.extend_from_slice(&agg.count.to_le_bytes());
            out.extend_from_slice(&agg.total_cycles.to_le_bytes());
            agg.hist.encode_into(&mut out);
        }
        self.counters.encode_into(&mut out);
        self.gauges.encode_into(&mut out);
        self.hists.encode_into(&mut out);
        out
    }

    /// Exact byte length of [`Telemetry::snapshot_bytes`] for this schema.
    pub fn snapshot_len(&self) -> usize {
        4 + 4
            + 8
            + SPAN_KINDS * (8 + 8 + Histogram::ENCODED_LEN)
            + self.counters.encoded_len()
            + self.gauges.encoded_len()
            + self.hists.encoded_len()
    }

    /// Restore the full state from [`Telemetry::snapshot_bytes`] output,
    /// so a restored enclave continues with telemetry byte-identical to
    /// an uninterrupted run.
    ///
    /// `self` must have been constructed with the same metric schema as
    /// the instance that produced the blob. On error, `self` is left
    /// unchanged — the decode completes into temporaries before anything
    /// is committed.
    pub fn restore_state(&mut self, blob: &[u8]) -> Result<(), StateError> {
        let mut input = blob;
        if input.len() < 8 {
            return Err(StateError::Malformed);
        }
        if &input[..4] != SNAPSHOT_MAGIC {
            return Err(StateError::BadMagic);
        }
        input = &input[4..];
        let version = metrics::take_u32(&mut input).ok_or(StateError::Malformed)?;
        if version != SNAPSHOT_VERSION {
            return Err(StateError::BadVersion(version));
        }
        let epoch = metrics::take_u64(&mut input).ok_or(StateError::Malformed)?;
        let mut spans: [SpanAgg; SPAN_KINDS] = core::array::from_fn(|_| SpanAgg::default());
        for agg in &mut spans {
            agg.count = metrics::take_u64(&mut input).ok_or(StateError::Malformed)?;
            agg.total_cycles = metrics::take_u64(&mut input).ok_or(StateError::Malformed)?;
            agg.hist = Histogram::decode_from(&mut input).ok_or(StateError::Malformed)?;
        }
        // A short tail is truncation; a full-length section that still
        // fails to decode means the blob was written under a different
        // metric schema.
        let metrics_len =
            self.counters.encoded_len() + self.gauges.encoded_len() + self.hists.encoded_len();
        if input.len() < metrics_len {
            return Err(StateError::Malformed);
        }
        let mut counters = self.counters.clone();
        counters
            .restore_from(&mut input)
            .ok_or(StateError::SchemaMismatch)?;
        let mut gauges = self.gauges.clone();
        gauges
            .restore_from(&mut input)
            .ok_or(StateError::SchemaMismatch)?;
        let mut hists = self.hists.clone();
        hists
            .restore_from(&mut input)
            .ok_or(StateError::SchemaMismatch)?;
        if !input.is_empty() {
            return Err(StateError::Malformed);
        }
        self.epoch = epoch;
        self.spans = spans;
        self.counters = counters;
        self.gauges = gauges;
        self.hists = hists;
        Ok(())
    }
}

/// Leading magic of [`Telemetry::snapshot_bytes`].
const SNAPSHOT_MAGIC: &[u8; 4] = b"AYTL";

/// Format version of [`Telemetry::snapshot_bytes`].
const SNAPSHOT_VERSION: u32 = 2;

/// Errors from [`Telemetry::restore_state`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// Blob does not start with the `AYTL` magic.
    BadMagic,
    /// Unknown state-format version.
    BadVersion(u32),
    /// Blob truncated or structurally malformed.
    Malformed,
    /// Blob was produced under a different metric schema.
    SchemaMismatch,
}

impl core::fmt::Display for StateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StateError::BadMagic => write!(f, "telemetry state blob has bad magic"),
            StateError::BadVersion(v) => write!(f, "unknown telemetry state version {v}"),
            StateError::Malformed => write!(f, "telemetry state blob is malformed"),
            StateError::SchemaMismatch => {
                write!(
                    f,
                    "telemetry state blob does not match the registered schema"
                )
            }
        }
    }
}

impl std::error::Error for StateError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Telemetry {
        Telemetry::new(&["faults", "retries"], &["stash"], &["batch"])
    }

    #[test]
    fn span_aggregates_accumulate() {
        let mut t = schema();
        let g = t.enter(SpanKind::FaultHandler, 100);
        t.exit(g, 150);
        t.span(SpanKind::FaultHandler, 200, 300);
        let agg = t.span_agg(SpanKind::FaultHandler);
        assert_eq!(agg.count, 2);
        assert_eq!(agg.total_cycles, 150);
        assert_eq!(agg.hist.count(), 2);
        assert_eq!(t.span_agg(SpanKind::OramAccess).count, 0);
    }

    #[test]
    fn counters_gauges_hists() {
        let mut t = schema();
        t.incr("faults");
        t.add("faults", 4);
        t.gauge_set("stash", 7);
        t.gauge_set("stash", 3);
        t.hist_record("batch", 16);
        assert_eq!(t.counter("faults"), 5);
        assert_eq!(t.gauge("stash"), 3);
        assert_eq!(t.gauge_max("stash"), 7);
        assert_eq!(t.hist("batch").count(), 1);
    }

    #[test]
    fn snapshot_is_fixed_size_and_deterministic() {
        let mut a = schema();
        let mut b = schema();
        for t in [&mut a, &mut b] {
            t.span(SpanKind::Seal, 0, 10);
            t.add("retries", 2);
            t.gauge_set("stash", 9);
            t.hist_record("batch", 3);
        }
        assert_eq!(a.snapshot_bytes(), b.snapshot_bytes());
        assert_eq!(a.snapshot_bytes().len(), a.snapshot_len());

        // Different *content*, same size: that is the export contract.
        let mut c = schema();
        for _ in 0..1000 {
            c.span(SpanKind::FaultHandler, 0, 12345);
            c.add("faults", 17);
        }
        assert_eq!(c.snapshot_bytes().len(), a.snapshot_len());
        assert_ne!(c.snapshot_bytes(), a.snapshot_bytes());
    }

    #[test]
    fn end_epoch_advances_counter() {
        let mut t = schema();
        assert_eq!(t.epoch(), 0);
        let s0 = t.snapshot_bytes();
        t.end_epoch();
        assert_eq!(t.epoch(), 1);
        let s1 = t.snapshot_bytes();
        assert_eq!(s0.len(), s1.len());
        assert_ne!(s0, s1, "epoch counter is part of the snapshot");
    }

    #[test]
    fn state_round_trip_is_exact() {
        let mut t = schema();
        t.span(SpanKind::FaultHandler, 100, 150);
        t.span(SpanKind::Seal, 200, 260);
        t.incr("faults");
        t.add("retries", 3);
        t.gauge_set("stash", 11);
        t.hist_record("batch", 42);
        t.end_epoch();

        let blob = t.snapshot_bytes();
        let mut restored = schema();
        restored.restore_state(&blob).expect("restore");
        assert_eq!(restored, t, "full state including the epoch");

        // The restored instance continues identically.
        for x in [&mut t, &mut restored] {
            x.span(SpanKind::Open, 300, 310);
            x.incr("faults");
        }
        assert_eq!(restored.snapshot_bytes(), t.snapshot_bytes());
    }

    #[test]
    fn state_restore_rejects_bad_blobs() {
        let t = schema();
        let blob = t.snapshot_bytes();

        let mut other_schema = Telemetry::new(&["faults"], &["stash"], &["batch"]);
        assert_eq!(
            other_schema.restore_state(&blob),
            Err(StateError::SchemaMismatch)
        );

        let mut fresh = schema();
        assert_eq!(
            fresh.restore_state(&blob[..blob.len() - 1]),
            Err(StateError::Malformed)
        );
        let mut bad_magic = blob.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(fresh.restore_state(&bad_magic), Err(StateError::BadMagic));
        let mut old_version = blob.clone();
        old_version[4] = 1;
        assert_eq!(
            fresh.restore_state(&old_version),
            Err(StateError::BadVersion(1))
        );
        assert_eq!(fresh, schema(), "failed restores leave state untouched");
    }
}
