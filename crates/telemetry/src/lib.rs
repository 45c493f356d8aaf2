//! Enclave-side telemetry for the Autarky runtime.
//!
//! Observability inside an enclave is security-sensitive: any signal the
//! enclave emits about its own paging behaviour can itself become a
//! controlled channel (cf. the Heisenberg defense and the pigeonhole
//! attacks). This crate therefore keeps only *aggregates*:
//!
//! * **In-enclave** — per-kind span aggregates plus one typed field per
//!   runtime metric: two [`Gauge`]s and three log-linear [`Histogram`]s.
//!   All timing is in *simulated cycles* supplied by the caller (the
//!   `sgx-sim` clock), so records are deterministic and host wall time
//!   never leaks in. Individual span closures are not kept here: the
//!   runtime records each one as a `SpanClose` event in the flight
//!   recorder, when that is armed.
//! * **Exported** — [`Telemetry::snapshot_bytes`] encodes the aggregates
//!   into a canonical, **fixed-size** little-endian blob of
//!   [`Telemetry::SNAPSHOT_LEN`] bytes. Because the size and layout are
//!   constants — not a function of what the enclave did — a sealed
//!   snapshot exported once per epoch is indistinguishable across secrets
//!   by construction. The leakage audit verifies this.
//!
//! [`codec`] holds the one byte reader every binary decoder of sealed
//! state uses, this crate's snapshot decoder included.
//!
//! The crate is dependency-free so that even the pure `oram` crate can
//! build its statistics on top of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod metrics;
pub mod span;

pub use codec::{DecodeError, Reader};
pub use metrics::{Gauge, Histogram, LatencySummary, HIST_BUCKETS};
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

/// The enclave's telemetry instance: span aggregates plus one field per
/// metric the runtime exports. Recording a metric is an update of its
/// field. The snapshot encodes the epoch, the span aggregates, then the
/// metric fields in declaration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    spans: [SpanAgg; SPAN_KINDS],
    /// Resident enclave-managed pages, sampled after every fetch and
    /// eviction.
    pub resident_pages: Gauge,
    /// ORAM stash occupancy, sampled after every ORAM-backed heap access.
    pub stash_occupancy: Gauge,
    /// Pages per fetch batch.
    pub fetch_batch_pages: Histogram,
    /// Pages per eviction batch.
    pub evict_batch_pages: Histogram,
    /// Attempt number of every retry of a failed driver call.
    pub retry_attempt: Histogram,
    epoch: u64,
}

/// Section counts of the snapshot: no counters (the runtime keeps its
/// counts in `RtStats`), the two gauges, the three histograms.
const COUNTERS: u32 = 0;
const GAUGES: u32 = 2;
const HISTS: u32 = 3;

impl Telemetry {
    /// Exact byte length of every [`Telemetry::snapshot_bytes`]: magic,
    /// version, epoch, the span aggregates, then the counter, gauge and
    /// histogram sections, each led by its `u32` count.
    pub const SNAPSHOT_LEN: usize = 4
        + 4
        + 8
        + SPAN_KINDS * (8 + 8 + Histogram::ENCODED_LEN)
        + 4
        + 4
        + GAUGES as usize * Gauge::ENCODED_LEN
        + 4
        + HISTS as usize * Histogram::ENCODED_LEN;

    /// An empty telemetry instance at epoch 0.
    pub fn new() -> Self {
        Self::default()
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
    /// The layout is fixed ([`Telemetry::SNAPSHOT_LEN`] bytes): magic,
    /// version, epoch, the per-kind span aggregates (count, total, full
    /// latency histogram), then the counter, gauge and histogram
    /// sections in field order. Identical runs produce byte-identical
    /// snapshots; runs on different secrets produce same-sized snapshots.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::SNAPSHOT_LEN);
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        for agg in &self.spans {
            out.extend_from_slice(&agg.count.to_le_bytes());
            out.extend_from_slice(&agg.total_cycles.to_le_bytes());
            agg.hist.encode_into(&mut out);
        }
        out.extend_from_slice(&COUNTERS.to_le_bytes());
        out.extend_from_slice(&GAUGES.to_le_bytes());
        self.resident_pages.encode_into(&mut out);
        self.stash_occupancy.encode_into(&mut out);
        out.extend_from_slice(&HISTS.to_le_bytes());
        self.fetch_batch_pages.encode_into(&mut out);
        self.evict_batch_pages.encode_into(&mut out);
        self.retry_attempt.encode_into(&mut out);
        out
    }

    /// Restore the full state from [`Telemetry::snapshot_bytes`] output,
    /// so a restored enclave continues with telemetry byte-identical to
    /// an uninterrupted run.
    ///
    /// On error, `self` is left unchanged — the decode completes into a
    /// temporary before anything is committed.
    pub fn restore_state(&mut self, blob: &[u8]) -> Result<(), DecodeError> {
        let mut r = Reader::new(blob);
        if r.array()? != *SNAPSHOT_MAGIC || r.u32()? != SNAPSHOT_VERSION {
            return Err(DecodeError::BadTag);
        }
        let mut next = Telemetry {
            epoch: r.u64()?,
            ..Telemetry::new()
        };
        for agg in &mut next.spans {
            agg.count = r.u64()?;
            agg.total_cycles = r.u64()?;
            agg.hist = Histogram::decode_from(&mut r)?;
        }
        if r.u32()? != COUNTERS || r.u32()? != GAUGES {
            return Err(DecodeError::BadTag);
        }
        next.resident_pages = Gauge::decode_from(&mut r)?;
        next.stash_occupancy = Gauge::decode_from(&mut r)?;
        if r.u32()? != HISTS {
            return Err(DecodeError::BadTag);
        }
        next.fetch_batch_pages = Histogram::decode_from(&mut r)?;
        next.evict_batch_pages = Histogram::decode_from(&mut r)?;
        next.retry_attempt = Histogram::decode_from(&mut r)?;
        r.finish()?;
        *self = next;
        Ok(())
    }
}

/// Leading magic of [`Telemetry::snapshot_bytes`].
const SNAPSHOT_MAGIC: &[u8; 4] = b"AYTL";

/// Format version of [`Telemetry::snapshot_bytes`].
const SNAPSHOT_VERSION: u32 = 2;

#[cfg(test)]
mod tests {
    use super::*;

    /// Offset of the counter section's count: after magic, version,
    /// epoch and the span aggregates.
    const COUNTERS_AT: usize = 16 + SPAN_KINDS * (16 + Histogram::ENCODED_LEN);

    #[test]
    fn span_aggregates_accumulate() {
        let mut t = Telemetry::new();
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
        let mut t = Telemetry::new();
        t.stash_occupancy.set(7);
        t.stash_occupancy.set(3);
        t.evict_batch_pages.record(16);
        assert_eq!(t.stash_occupancy.last(), 3);
        assert_eq!(t.stash_occupancy.max(), 7);
        assert_eq!(t.evict_batch_pages.count(), 1);
        assert_eq!(t.resident_pages, Gauge::default());

        // Sections in field order: no counters, two gauges, three
        // histograms.
        let snap = t.snapshot_bytes();
        let word = |at: usize| u32::from_le_bytes(snap[at..at + 4].try_into().expect("4 bytes"));
        let gauges_at = COUNTERS_AT + 4;
        let hists_at = gauges_at + 4 + 2 * Gauge::ENCODED_LEN;
        assert_eq!(
            [word(COUNTERS_AT), word(gauges_at), word(hists_at)],
            [0, 2, 3]
        );
        let stash_at = gauges_at + 4 + Gauge::ENCODED_LEN;
        let stash = Gauge::decode_from(&mut Reader::new(&snap[stash_at..])).expect("gauge");
        assert_eq!(stash, t.stash_occupancy);
        let evict_at = hists_at + 4 + Histogram::ENCODED_LEN;
        let evict = Histogram::decode_from(&mut Reader::new(&snap[evict_at..])).expect("histogram");
        assert_eq!(evict, t.evict_batch_pages);
    }

    #[test]
    fn snapshot_is_fixed_size_and_deterministic() {
        let mut a = Telemetry::new();
        let mut b = Telemetry::new();
        for t in [&mut a, &mut b] {
            t.span(SpanKind::Seal, 0, 10);
            t.retry_attempt.record(2);
            t.stash_occupancy.set(9);
            t.fetch_batch_pages.record(3);
        }
        assert_eq!(a.snapshot_bytes(), b.snapshot_bytes());
        assert_eq!(a.snapshot_bytes().len(), Telemetry::SNAPSHOT_LEN);

        // Different *content*, same size: that is the export contract.
        let mut c = Telemetry::new();
        for _ in 0..1000 {
            c.span(SpanKind::FaultHandler, 0, 12345);
            c.evict_batch_pages.record(17);
        }
        assert_eq!(c.snapshot_bytes().len(), Telemetry::SNAPSHOT_LEN);
        assert_ne!(c.snapshot_bytes(), a.snapshot_bytes());
    }

    #[test]
    fn end_epoch_advances_counter() {
        let mut t = Telemetry::new();
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
        let mut t = Telemetry::new();
        t.span(SpanKind::FaultHandler, 100, 150);
        t.span(SpanKind::Seal, 200, 260);
        t.resident_pages.set(24);
        t.stash_occupancy.set(11);
        t.fetch_batch_pages.record(42);
        t.evict_batch_pages.record(8);
        t.retry_attempt.record(3);
        t.end_epoch();

        let blob = t.snapshot_bytes();
        let mut restored = Telemetry::new();
        restored.restore_state(&blob).expect("restore");
        assert_eq!(restored, t, "full state including the epoch");

        // The restored instance continues identically.
        for x in [&mut t, &mut restored] {
            x.span(SpanKind::Open, 300, 310);
            x.resident_pages.set(23);
        }
        assert_eq!(restored.snapshot_bytes(), t.snapshot_bytes());
    }

    #[test]
    fn state_restore_rejects_bad_blobs() {
        let mut t = Telemetry::new();
        t.resident_pages.set(5);
        let blob = t.snapshot_bytes();

        let mut fresh = Telemetry::new();
        // A section count other than 0 counters, 2 gauges, 3 histograms.
        for at in [COUNTERS_AT, COUNTERS_AT + 4, COUNTERS_AT + 56] {
            let mut other_count = blob.clone();
            other_count[at] += 1;
            assert_eq!(fresh.restore_state(&other_count), Err(DecodeError::BadTag));
        }
        assert_eq!(
            fresh.restore_state(&blob[..blob.len() - 1]),
            Err(DecodeError::Truncated)
        );
        let mut trailing = blob.clone();
        trailing.push(0);
        assert_eq!(fresh.restore_state(&trailing), Err(DecodeError::Trailing));
        let mut bad_magic = blob.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(fresh.restore_state(&bad_magic), Err(DecodeError::BadTag));
        let mut old_version = blob.clone();
        old_version[4] = 1;
        assert_eq!(fresh.restore_state(&old_version), Err(DecodeError::BadTag));
        assert_eq!(
            fresh,
            Telemetry::new(),
            "failed restores leave state untouched"
        );
    }
}
