//! Tracing spans: a static registry of instrumented operations and the
//! allocation-free record of one completed span.
//!
//! Span timing is in *simulated cycles* — callers pass timestamps read
//! from the `sgx-sim` cost clock, so spans measure exactly what the cost
//! model charges and nothing about the host machine.

/// Static registry of instrumented operations.
///
/// The discriminants are stable: they index per-kind aggregate arrays and
/// appear in the canonical snapshot encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// The runtime's page-fault handler, end to end.
    FaultHandler = 0,
    /// The `ay_fetch_pages` driver call (enclave-side view).
    AyFetchPages = 1,
    /// The `ay_evict_pages` driver call (enclave-side view).
    AyEvictPages = 2,
    /// One ORAM access through the enclave data path.
    OramAccess = 3,
    /// Software page sealing (`sw_seal`) on the SGXv2 evict path.
    Seal = 4,
    /// Software page authentication (`sw_open`) on the SGXv2 fetch path.
    Open = 5,
    /// The fault-rate limiter's admit/kill decision.
    RatelimitDecision = 6,
    /// Exponential backoff inside the transient-failure retry loop.
    RetryBackoff = 7,
    /// Demand allocation of a fresh heap page (`ay_alloc_pages` +
    /// `EACCEPT`), the non-swap branch of the fault path.
    HeapAlloc = 8,
}

/// Number of span kinds in the registry.
pub const SPAN_KINDS: usize = 9;

impl SpanKind {
    /// All kinds, in discriminant order.
    pub const ALL: [SpanKind; SPAN_KINDS] = [
        SpanKind::FaultHandler,
        SpanKind::AyFetchPages,
        SpanKind::AyEvictPages,
        SpanKind::OramAccess,
        SpanKind::Seal,
        SpanKind::Open,
        SpanKind::RatelimitDecision,
        SpanKind::RetryBackoff,
        SpanKind::HeapAlloc,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::FaultHandler => "fault_handler",
            SpanKind::AyFetchPages => "ay_fetch_pages",
            SpanKind::AyEvictPages => "ay_evict_pages",
            SpanKind::OramAccess => "oram_access",
            SpanKind::Seal => "seal",
            SpanKind::Open => "open",
            SpanKind::RatelimitDecision => "ratelimit_decision",
            SpanKind::RetryBackoff => "retry_backoff",
            SpanKind::HeapAlloc => "heap_alloc",
        }
    }
}

/// One completed span: `Copy` and fixed-size, so recording it allocates
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Which operation this span covers.
    pub kind: SpanKind,
    /// Simulated-cycle timestamp at entry.
    pub start_cycles: u64,
    /// Simulated-cycle timestamp at exit.
    pub end_cycles: u64,
}

impl SpanRecord {
    /// Span duration in simulated cycles.
    pub fn duration(&self) -> u64 {
        self.end_cycles.saturating_sub(self.start_cycles)
    }
}

/// An open span handle returned by `Telemetry::enter`.
///
/// Dropping a guard without closing it simply loses the span (there is no
/// global state to corrupt); the `#[must_use]` lint catches the common
/// mistake.
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span with Telemetry::exit"]
pub struct SpanGuard {
    kind: SpanKind,
    start_cycles: u64,
}

impl SpanGuard {
    pub(crate) fn new(kind: SpanKind, start_cycles: u64) -> Self {
        Self { kind, start_cycles }
    }

    /// Which operation the open span covers.
    pub fn kind(&self) -> SpanKind {
        self.kind
    }

    /// Simulated-cycle timestamp at entry.
    pub fn start_cycles(&self) -> u64 {
        self.start_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_ordered() {
        for (i, kind) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i);
        }
        let names: std::collections::BTreeSet<&str> =
            SpanKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), SPAN_KINDS);
    }

    #[test]
    fn duration_saturates() {
        let r = SpanRecord {
            kind: SpanKind::Open,
            start_cycles: 50,
            end_cycles: 40,
        };
        assert_eq!(r.duration(), 0);
    }
}
