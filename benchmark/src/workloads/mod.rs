//! The five workloads and the closed-loop runner four of them share.
//!
//! A *rep* is one complete, deterministic pass of a workload: generate
//! its inputs from the seed, build a fresh world, preload it (together
//! the timed set-up), run the warm-up ops, then the measured ops in
//! [`WINDOWS`] equal windows. Every rep of a seed produces bit-identical
//! simulated metrics; the runner repeats reps to fill the host-time
//! budget and checks that they do.

use std::time::Instant;

use autarky_sgx_sim::CLOCK_HZ;
use autarky_workloads::{EncHeap, World};

use crate::host;
use crate::metrics::Metrics;
use crate::probe::Probe;
use crate::stats::{ExactQuantiles, Window};
use crate::trace::{SpanId, Tracer};

pub mod fleet;
pub mod font;
pub mod kv;
pub mod spell;

/// Workload names, in suite order.
pub const WORKLOADS: [&str; 5] = ["spell", "kv-read", "kv-update", "font", "fleet"];

/// Equal windows the measured phase is split into for host throughput.
pub const WINDOWS: usize = 10;

/// Failure messages kept per rep (the count is always exact).
const KEPT_FAILURES: usize = 5;

/// Failed operations of one rep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Failures {
    /// Failed operations and failed checks.
    pub count: u64,
    /// The first few messages.
    pub first: Vec<String>,
}

impl Failures {
    /// Count one failure.
    pub fn note(&mut self, message: String) {
        self.count += 1;
        if self.first.len() < KEPT_FAILURES {
            self.first.push(message);
        }
    }

    /// Add another rep's failures.
    pub fn absorb(&mut self, other: &Failures) {
        self.count += other.count;
        let room = KEPT_FAILURES.saturating_sub(self.first.len());
        self.first.extend(other.first.iter().take(room).cloned());
    }
}

/// Outcome of one rep.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds from input generation to the end of preload.
    pub setup_s: f64,
    /// Host throughput of each measured window.
    pub windows: Vec<Window>,
    /// Calibration-loop time after each window (see [`crate::host`]).
    pub calibration: Vec<f64>,
    /// Simulated metrics: the end-to-end ones and every simulated
    /// per-layer counter.
    pub sim: Metrics,
    /// Operations behind the simulated percentiles.
    pub sim_ops: u64,
    /// Layer counters accumulated over the measured windows.
    pub delta: Probe,
    /// Operations attempted (warm-up included).
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failures: Failures,
}

/// Run one rep of workload `name` at `seed`, traced when `tracer` is set.
pub fn run_rep(name: &str, seed: u64, tracer: Option<&mut Tracer>) -> Result<Rep, String> {
    match name {
        "spell" => closed_loop(&spell::SHAPE, tracer, || spell::Spell::setup(seed)),
        "kv-read" => closed_loop(&kv::READ, tracer, || kv::Kv::setup(seed, &kv::READ)),
        "kv-update" => closed_loop(&kv::UPDATE, tracer, || kv::Kv::setup(seed, &kv::UPDATE)),
        "font" => closed_loop(&font::SHAPE, tracer, || font::Font::setup(seed)),
        "fleet" => fleet::rep(seed, &fleet::SHAPE, tracer),
        _ => Err(format!("unknown workload '{name}'")),
    }
}

/// Simulated metrics a workload computes once per run instead of once
/// per rep: deterministic per seed, and too costly to repeat.
pub fn run_once(
    name: &str,
    seed: u64,
    tracer: Option<&mut Tracer>,
) -> Result<(Metrics, Failures), String> {
    match name {
        "fleet" => fleet::capacity(seed, &fleet::SHAPE, tracer),
        _ => Ok((Metrics::new(), Failures::default())),
    }
}

/// Op counts of a closed-loop workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Span name of one op.
    pub op: &'static str,
    /// Ops run before measuring (fill the budget or the ORAM cache).
    pub warmup: usize,
    /// Ops measured; a multiple of [`WINDOWS`].
    pub measured: usize,
    /// Fraction of ops that write (kv) or are expected to miss (spell).
    pub mix: f64,
}

/// A built workload, ready to serve ops: one client, each op issued
/// after the previous one completes.
pub trait Session {
    /// The world the ops run in.
    fn world(&self) -> &World;
    /// The heap the ops use.
    fn heap(&self) -> &EncHeap;
    /// Run op `i` and check its answer.
    fn op(&mut self, i: usize) -> Result<(), String>;
    /// Check state no single op returns (run between windows, outside
    /// both clocks' measurements).
    fn check(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// One closed-loop rep of `shape` over the session `setup` builds.
pub fn closed_loop<S: Session>(
    shape: &Shape,
    mut tracer: Option<&mut Tracer>,
    setup: impl FnOnce() -> Result<S, String>,
) -> Result<Rep, String> {
    let root = tracer.as_deref_mut().map(|t| t.begin("rep", 0));
    let root_id = root.as_ref().map_or(0, |o| o.id());

    let span = tracer.as_deref_mut().map(|t| t.begin("setup", root_id));
    let started = Instant::now();
    let mut s = setup()?;
    let setup_s = started.elapsed().as_secs_f64();
    end_span(&mut tracer, span);

    let mut failures = Failures::default();
    let span = tracer.as_deref_mut().map(|t| t.begin("warmup", root_id));
    let parent = span.as_ref().map_or(0, |o| o.id());
    for i in 0..shape.warmup {
        run_op(&mut s, shape.op, i, &mut tracer, parent, &mut failures);
    }
    end_span(&mut tracer, span);

    let span = tracer.as_deref_mut().map(|t| t.begin("measure", root_id));
    let parent = span.as_ref().map_or(0, |o| o.id());
    let per_window = shape.measured / WINDOWS;
    let mut latency = ExactQuantiles::new();
    let mut windows = Vec::with_capacity(WINDOWS);
    let mut calibration = Vec::with_capacity(WINDOWS);
    let mut delta = Probe::default();
    for w in 0..WINDOWS {
        let before = Probe::world(s.world(), s.heap());
        let first = shape.warmup + w * per_window;
        let started = Instant::now();
        for i in first..first + per_window {
            let c0 = s.world().now();
            run_op(&mut s, shape.op, i, &mut tracer, parent, &mut failures);
            latency.record(s.world().now() - c0);
        }
        windows.push(Window {
            ops: per_window as u64,
            secs: started.elapsed().as_secs_f64(),
        });
        delta = delta.plus(&Probe::world(s.world(), s.heap()).since(&before));
        if let Err(e) = s.check() {
            failures.note(e);
        }
        calibration.push(host::calibrate());
    }
    end_span(&mut tracer, span);
    end_span(&mut tracer, root);

    let mut sim = closed_loop_sim(&latency);
    delta.layer_metrics(latency.count(), &mut sim);
    fleet::no_fleet(&mut sim);
    Ok(Rep {
        setup_s,
        windows,
        calibration,
        sim,
        sim_ops: latency.count(),
        delta,
        attempted: (shape.warmup + WINDOWS * per_window) as u64,
        failures,
    })
}

/// End-to-end simulated metrics of a closed loop with one client: per-op
/// latency is the service time, so capacity is its reciprocal.
fn closed_loop_sim(latency: &ExactQuantiles) -> Metrics {
    let mean = latency.mean();
    Metrics::from([
        ("sim_cycles_per_op", mean),
        ("sim_op_p50_cycles", latency.quantile(0.50) as f64),
        ("sim_op_p99_cycles", latency.quantile(0.99) as f64),
        (
            "capacity_rps",
            if mean > 0.0 {
                CLOCK_HZ as f64 / mean
            } else {
                0.0
            },
        ),
    ])
}

fn run_op<S: Session>(
    s: &mut S,
    name: &'static str,
    i: usize,
    tracer: &mut Option<&mut Tracer>,
    parent: SpanId,
    failures: &mut Failures,
) {
    let result = match tracer.as_deref_mut() {
        None => s.op(i),
        Some(t) => {
            let before = Probe::world(s.world(), s.heap());
            let start = Instant::now();
            let result = s.op(i);
            let end = Instant::now();
            let delta = Probe::world(s.world(), s.heap()).since(&before);
            t.op(name, parent, i as u64, start, end, &delta);
            result
        }
    };
    if let Err(e) = result {
        failures.note(e);
    }
}

/// End `span` with `args` when the rep is traced.
fn end_span_with(
    tracer: &mut Option<&mut Tracer>,
    span: Option<crate::trace::Open>,
    args: Vec<(&'static str, f64)>,
) {
    if let (Some(t), Some(open)) = (tracer.as_deref_mut(), span) {
        t.end(open, args);
    }
}

fn end_span(tracer: &mut Option<&mut Tracer>, span: Option<crate::trace::Open>) {
    end_span_with(tracer, span, Vec::new());
}

/// A 64-bit mix of `seed` and a stream label, so each generated input
/// stream of a workload draws from its own sequence.
pub fn stream_seed(seed: u64, label: u64) -> u64 {
    autarky_workloads::uthash::hash64(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}
