//! One workload run: repeat reps until the host-time budget is spent,
//! check them, and reduce them to the catalogue's metrics.

use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::{self, Metrics, END_TO_END, PER_LAYER};
use crate::probe::Probe;
use crate::stats::{median, phase_throughput, Window};
use crate::trace::Tracer;
use crate::workloads::{run_once, run_rep, Failures, Rep};
use crate::{host, ladder};

/// Reps of an untraced run, at least; more while the budget lasts.
const MIN_REPS: usize = 3;
/// Reps of a traced run, at least: two untraced and two traced.
const MIN_TRACED_REPS: usize = 4;
/// A run stops starting reps after this long whatever its budget, so a
/// slow host still finishes well inside three minutes.
const HARD_STOP: Duration = Duration::from_secs(120);

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Host-time budget in seconds.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

/// Everything one workload run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Reps run.
    pub reps: u64,
    /// Operations attempted over all reps.
    pub attempted: u64,
    /// Operations failed, wrong answers and failed checks.
    pub failed: u64,
    /// Operations behind the simulated percentiles.
    pub sim_ops: u64,
    /// Digest of every simulated metric (see [`metrics::sim_digest`]).
    pub sim_digest: String,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

/// Run `spec`, returning the result and the tracer (empty when untraced).
pub fn run_workload(spec: &RunSpec) -> (WorkloadResult, Tracer) {
    let started = Instant::now();
    let budget = Duration::from_secs(spec.seconds);
    let min_reps = if spec.trace {
        MIN_TRACED_REPS
    } else {
        MIN_REPS
    };
    let mut tracer = Tracer::new();
    let (mut plain, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    let mut failures = Failures::default();
    let mut attempted = 0;
    // Read after the first rep: later reps reuse freed memory unevenly,
    // and how many run depends on host speed.
    let mut peak_rss = None;
    let once = match run_once(&spec.workload, spec.seed, spec.trace.then_some(&mut tracer)) {
        Ok((metrics, f)) => {
            failures.absorb(&f);
            metrics
        }
        Err(e) => {
            failures.note(e);
            Metrics::new()
        }
    };
    while (plain.len() + traced.len() < min_reps || started.elapsed() < budget)
        && started.elapsed() < HARD_STOP
    {
        // A traced run alternates untraced and traced reps, so its
        // overhead is measured against reps taken under the same load.
        let trace_this = spec.trace && plain.len() > traced.len();
        match run_rep(&spec.workload, spec.seed, trace_this.then_some(&mut tracer)) {
            Ok(rep) => {
                peak_rss = peak_rss.or_else(host::peak_rss_mib);
                attempted += rep.attempted;
                failures.absorb(&rep.failures);
                if trace_this { &mut traced } else { &mut plain }.push(rep);
            }
            Err(e) => {
                attempted += 1;
                failures.note(e);
                break;
            }
        }
    }

    let reps: Vec<&Rep> = plain.iter().chain(&traced).collect();
    let mut sim = reps.first().map(|r| r.sim.clone()).unwrap_or_default();
    if reps.iter().any(|r| !same_bits(&r.sim, &sim)) {
        failures.note("simulated metrics differ between reps of one seed".into());
    }
    sim.extend(once);
    let throughput = |reps: &[Rep]| {
        let windows: Vec<Vec<Window>> = reps.iter().map(|r| r.windows.clone()).collect();
        phase_throughput(&windows)
    };
    let calibration: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.calibration.iter().copied())
        .collect();
    let speed = host::speed_index(&calibration);
    let raw = throughput(&plain);
    let mut metrics = Metrics::from([("host.raw_ops_per_s", raw), ("host.speed_index", speed)]);
    if spec.trace {
        match ladder::run() {
            Ok(l) => metrics.extend(l),
            Err(e) => failures.note(format!("ladder: {e}")),
        }
        let under_trace = throughput(&traced);
        metrics.insert(
            "trace.overhead_pct",
            if under_trace > 0.0 {
                (raw / under_trace - 1.0) * 100.0
            } else {
                0.0
            },
        );
        metrics.insert("trace.op_host_ns_p50", tracer.op_ns_quantile(0.50));
        metrics.insert("trace.op_host_ns_p99", tracer.op_ns_quantile(0.99));
        if let Some(rep) = traced.first() {
            let ops = rep.windows.iter().map(|w| w.ops).sum();
            metrics.extend(host_share(&metrics, &rep.delta, ops, tracer.op_ns_mean()));
        }
        for d in PER_LAYER {
            if let Some(&v) = sim.get(d.name) {
                metrics.insert(d.name, v);
            }
        }
    } else {
        // Host times at the reference host's speed (see `host`).
        let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
        metrics.insert("host_ops_per_s", raw / speed);
        metrics.insert("setup_s", median(&mut setups) * speed);
        metrics.insert("peak_rss_mib", peak_rss.unwrap_or(0.0));
        for d in END_TO_END {
            if let Some(&v) = sim.get(d.name) {
                metrics.insert(d.name, v);
            }
        }
    }
    let result = WorkloadResult {
        workload: spec.workload.clone(),
        seed: spec.seed,
        traced: spec.trace,
        reps: reps.len() as u64,
        attempted,
        failed: failures.count,
        sim_ops: reps.first().map_or(0, |r| r.sim_ops),
        sim_digest: metrics::sim_digest(&sim),
        metrics,
        failures: failures.first,
    };
    (result, tracer)
}

fn same_bits(a: &Metrics, b: &Metrics) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}

/// Host share of each layer in a traced op: the layer's calls per op
/// (from the simulated counters) times its self time (from the ladder),
/// over the op's mean host time. What the ladder does not cover — the
/// workload's own code, hashing, the benchmark — is the residual.
pub fn host_share(ladder: &Metrics, d: &Probe, ops: u64, op_ns: f64) -> Metrics {
    let l = |k: &str| ladder.get(k).copied().unwrap_or(0.0);
    let per = |v: u64| if ops == 0 { 0.0 } else { v as f64 / ops as f64 };
    let (ewb, eldu) = (per(d.ewbs), per(d.eldus));
    let layers = [
        (
            "host_share.crypto",
            ewb * l("crypto.host_seal_4k_ns") + eldu * l("crypto.host_open_4k_ns"),
        ),
        (
            "host_share.sgx",
            ewb * l("sgx.self_ewb_ns")
                + eldu * l("sgx.self_eldu_ns")
                + per(d.tlb_hits + d.tlb_fills) * l("sgx.host_exec_ns"),
        ),
        (
            "host_share.os",
            ewb * l("os.self_evict_ns") + eldu * l("os.self_fetch_ns"),
        ),
        (
            "host_share.rt",
            per(d.rt_evicted) * l("rt.self_evict_ns")
                + per(d.rt_fetched) * l("rt.self_fetch_ns")
                + per(d.rt_faults) * l("rt.self_fault_ns"),
        ),
        (
            "host_share.oram",
            per(d.oram_accesses) * (l("oram.host_read_ns") + l("oram.host_write_ns")) / 2.0,
        ),
    ];
    let pct = |ns: f64| if op_ns > 0.0 { 100.0 * ns / op_ns } else { 0.0 };
    let mut out: Metrics = layers.iter().map(|&(k, ns)| (k, pct(ns))).collect();
    let covered: f64 = out.values().sum();
    out.insert("host_share.residual", 100.0 - covered);
    out
}

/// Metrics reported with the count of values behind them.
fn sample_count(result: &WorkloadResult, name: &str) -> Option<u64> {
    match name {
        "sim_op_p50_cycles" | "sim_op_p99_cycles" | "fleet.p999_cycles" => Some(result.sim_ops),
        _ => None,
    }
}

impl WorkloadResult {
    /// Whether every op and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.metrics.is_empty()
    }

    /// The catalogue this result reports from.
    fn catalogue(&self) -> &'static [metrics::MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// One line per metric: `workload metric value unit clock`, with the
    /// op count beside every percentile. An untraced run also prints the
    /// per-layer values it has (raw throughput and host speed).
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        let extra = PER_LAYER
            .iter()
            .filter(|d| !self.traced && self.metrics.contains_key(d.name));
        for d in self.catalogue().iter().chain(extra) {
            let value = self.metrics.get(d.name).copied().unwrap_or(0.0);
            let mut line = format!(
                "{} {} {} {} {}",
                self.workload,
                d.name,
                value,
                d.unit,
                d.clock.label()
            );
            if let Some(n) = sample_count(self, d.name) {
                line.push_str(&format!(" n={n}"));
            }
            out.push(line);
        }
        out.push(format!(
            "{} sim_ops {} ops sim",
            self.workload, self.sim_ops
        ));
        out.push(format!("{} sim_digest {}", self.workload, self.sim_digest));
        if self.workload == "fleet" {
            out.push(format!(
                "{} note open loop: arrivals are fixed in simulated time, so the generator is never late",
                self.workload
            ));
        }
        out
    }

    /// The last line of a `--workload` run: `correct`, `attempted`, `failed`
    /// and every catalogued metric of this run's kind.
    pub fn summary_json(&self) -> Json {
        let metrics = self
            .catalogue()
            .iter()
            .map(|d| {
                let value = self.metrics.get(d.name).copied().unwrap_or(0.0);
                (
                    d.name.to_owned(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(d.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// Full form, as written to results files.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(&name, &value)| {
                let d = metrics::def(name).expect("catalogued metric");
                (
                    name.to_owned(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(d.unit.into())),
                        ("clock".into(), Json::Str(d.clock.label().into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("traced".into(), Json::Bool(self.traced)),
            ("reps".into(), Json::Num(self.reps as f64)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("sim_ops".into(), Json::Num(self.sim_ops as f64)),
            ("sim_digest".into(), Json::Str(self.sim_digest.clone())),
            ("metrics".into(), Json::Obj(metrics)),
            (
                "failures".into(),
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }

    /// Inverse of [`WorkloadResult::to_json`].
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("missing number '{k}'"))
        };
        let text = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or(format!("missing string '{k}'"))
        };
        let mut metrics = Metrics::new();
        for (name, m) in j
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("missing 'metrics'")?
        {
            let d = metrics::def(name).ok_or(format!("unknown metric '{name}'"))?;
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("'{name}' has no value"))?;
            metrics.insert(d.name, value);
        }
        let failures = j
            .get("failures")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|f| f.as_str().map(str::to_owned))
            .collect();
        Ok(Self {
            workload: text("workload")?,
            seed: num("seed")? as u64,
            traced: j.get("traced") == Some(&Json::Bool(true)),
            reps: num("reps")? as u64,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            sim_ops: num("sim_ops")? as u64,
            sim_digest: text("sim_digest")?,
            metrics,
            failures,
        })
    }
}
