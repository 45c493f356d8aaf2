//! The traced run's span recorder.
//!
//! Spans are taken around the benchmark's own calls into the crates'
//! public functions — nothing inside `crates/` is instrumented. Each
//! span carries a name, host start and end, its parent span and, for
//! workload operations, the op id plus the simulated cycles and layer
//! counter deltas the op caused. Spans stay in memory and are written
//! as one Chrome trace-event file when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use autarky_telemetry::Histogram;

use crate::probe::Probe;
use crate::stats::hist_quantile;

/// Spans kept for the trace file; later ones still feed the aggregates
/// but are counted as dropped instead of stored.
pub const MAX_SPANS: usize = 50_000;

/// Id of a span (0 = no parent).
pub type SpanId = u64;

/// A span that has started but not yet ended.
#[derive(Debug)]
pub struct Open {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// This span's id, for use as a parent.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

#[derive(Debug, Clone)]
struct Span {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    op: Option<u64>,
    start_ns: u64,
    end_ns: u64,
    args: Vec<(&'static str, f64)>,
}

/// In-memory span store plus per-op aggregates.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: SpanId,
    spans: Vec<Span>,
    dropped: u64,
    op_ns: Histogram,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
            dropped: 0,
            op_ns: Histogram::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, span: Span) {
        if self.spans.len() < MAX_SPANS {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Start a span under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// End a span, attaching `args`.
    pub fn end(&mut self, open: Open, args: Vec<(&'static str, f64)>) {
        let end = Instant::now();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            op: None,
            start_ns: self.ns(open.start),
            end_ns: self.ns(end),
            args,
        };
        self.push(span);
    }

    /// Record one workload operation that ran from `start` to `end` on
    /// the host, advanced the simulated clock by `delta.cycles`, and
    /// moved the layer counters by `delta`.
    pub fn op(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        start: Instant,
        end: Instant,
        delta: &Probe,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.op_ns.record(end_ns - start_ns);
        let id = self.next_id;
        self.next_id += 1;
        // Checked before building the span: past the cap, the fast
        // workloads would otherwise allocate args for every dropped op.
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            id,
            parent,
            name,
            op: Some(op),
            start_ns,
            end_ns,
            args: vec![
                ("sim_cycles", delta.cycles as f64),
                ("faults", delta.faults as f64),
                ("ewb", delta.ewbs as f64),
                ("eldu", delta.eldus as f64),
                ("tlb_fills", delta.tlb_fills as f64),
                ("oram_accesses", delta.oram_accesses as f64),
            ],
        });
    }

    /// Charge `ops` operations that ran inside one call (the fleet
    /// supervisor serves requests internally) the call's mean host time
    /// each, so op-level quantiles stay weighted by operations.
    pub fn ops_in_call(&mut self, ops: u64, secs: f64) {
        if ops == 0 {
            return;
        }
        let each = (secs * 1e9 / ops as f64) as u64;
        for _ in 0..ops {
            self.op_ns.record(each);
        }
    }

    /// Host ns per op at quantile `q`, over every traced op.
    pub fn op_ns_quantile(&self, q: f64) -> f64 {
        hist_quantile(&self.op_ns, q)
    }

    /// Mean host ns per traced op.
    pub fn op_ns_mean(&self) -> f64 {
        self.op_ns.mean()
    }

    /// Spans stored and spans dropped past [`MAX_SPANS`].
    pub fn counts(&self) -> (usize, u64) {
        (self.spans.len(), self.dropped)
    }

    /// The Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    /// Times are host microseconds since the tracer started.
    pub fn chrome_json(&self, process: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"{process}\"}}}}"
        );
        for s in &self.spans {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
            );
            if let Some(op) = s.op {
                let _ = write!(out, ",\"op\":{op}");
            }
            for (k, v) in &s.args {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"spans_dropped\":{}}}}}\n",
            self.dropped
        );
        out
    }
}
