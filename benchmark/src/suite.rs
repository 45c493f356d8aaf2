//! The suite: every workload in its own single-threaded child process,
//! optionally repeated with the workload order rotated to measure the
//! run-to-run spread each bound must cover.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use autarky_crypto::sha256;

use crate::json::Json;
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::run::WorkloadResult;
use crate::stats::{quartiles, relative_iqr};
use crate::workloads::WORKLOADS;

/// What the suite runs.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteSpec {
    /// Input seed.
    pub seed: u64,
    /// Host-time budget per workload run, seconds.
    pub seconds: u64,
    /// Traced runs (per-layer metrics) instead of untraced.
    pub trace: bool,
    /// Suite repetitions (1 = a plain run).
    pub repeat: usize,
    /// Where results, traces and tables go.
    pub out: PathBuf,
}

/// The host the numbers were taken on.
fn machine() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        ("cpu".into(), Json::Str(cpu)),
        ("os".into(), Json::Str(std::env::consts::OS.into())),
        ("arch".into(), Json::Str(std::env::consts::ARCH.into())),
    ])
}

fn run_child(spec: &SuiteSpec, workload: &str, index: usize) -> Result<WorkloadResult, String> {
    let kind = if spec.trace { "trace" } else { "plain" };
    let path = spec
        .out
        .join("runs")
        .join(format!("{workload}-seed{}-{kind}-{index}.json", spec.seed));
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--seconds", &spec.seconds.to_string()])
        .args(["--trace", if spec.trace { "1" } else { "0" }])
        .arg("--results")
        .arg(&path);
    if spec.trace {
        cmd.arg("--out").arg(&spec.out);
    }
    let status = cmd
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("{workload}: spawn: {e}"))?;
    if !status.success() {
        return Err(format!("{workload}: child exited with {status}"));
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    WorkloadResult::from_json(&Json::parse(&text)?)
}

/// Digest over the per-workload digests, in suite order.
fn suite_digest(results: &[&WorkloadResult]) -> String {
    let text: String = results
        .iter()
        .map(|r| format!("{}={}\n", r.workload, r.sim_digest))
        .collect();
    sha256(text.as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run the suite; `Ok(false)` when any workload failed a check or a
/// repeat changed a simulated metric.
pub fn run_suite(spec: &SuiteSpec) -> Result<bool, String> {
    std::fs::create_dir_all(spec.out.join("runs"))
        .map_err(|e| format!("{}: {e}", spec.out.display()))?;
    let mut runs: Vec<Vec<WorkloadResult>> = vec![Vec::new(); WORKLOADS.len()];
    for r in 0..spec.repeat {
        for k in 0..WORKLOADS.len() {
            let w = (k + r) % WORKLOADS.len();
            eprintln!("benchmark: run {}/{} {}", r + 1, spec.repeat, WORKLOADS[w]);
            runs[w].push(run_child(spec, WORKLOADS[w], r)?);
        }
    }
    let mut ok = true;
    for result in runs.iter().flatten() {
        if !result.correct() {
            ok = false;
            eprintln!(
                "benchmark: {} failed {} of {} ops: {:?}",
                result.workload, result.failed, result.attempted, result.failures
            );
        }
    }
    if spec.repeat == 1 {
        let results: Vec<&WorkloadResult> = runs.iter().flatten().collect();
        for r in &results {
            for line in r.lines() {
                println!("{line}");
            }
        }
        let digest = suite_digest(&results);
        println!("suite sim_digest {digest}");
        let doc = Json::Obj(vec![
            ("seed".into(), Json::Num(spec.seed as f64)),
            ("seconds".into(), Json::Num(spec.seconds as f64)),
            ("traced".into(), Json::Bool(spec.trace)),
            ("machine".into(), machine()),
            ("sim_digest".into(), Json::Str(digest)),
            (
                "workloads".into(),
                Json::Arr(results.iter().map(|r| r.to_json()).collect()),
            ),
        ]);
        let stem = if spec.trace { "layers" } else { "results" };
        let path = spec.out.join(format!("{stem}-seed-{}.json", spec.seed));
        write(&path, &doc.to_pretty())?;
        if spec.trace {
            let table = spec.out.join(format!("layers-seed-{}.md", spec.seed));
            write(&table, &layer_table(spec.seed, &results))?;
            eprintln!(
                "benchmark: wrote {} and {}",
                path.display(),
                table.display()
            );
        } else {
            eprintln!("benchmark: wrote {}", path.display());
        }
    } else {
        ok &= spread_report(spec, &runs)?;
    }
    Ok(ok)
}

/// Print each metric's median and quartiles over the repeats, flag
/// end-to-end metrics whose spread exceeds their bound, and check that
/// no repeat changed a simulated metric.
fn spread_report(spec: &SuiteSpec, runs: &[Vec<WorkloadResult>]) -> Result<bool, String> {
    let catalogue = if spec.trace { PER_LAYER } else { END_TO_END };
    let mut ok = true;
    let mut doc = Vec::new();
    println!("workload metric median q1 q3 iqr/median bound");
    for (w, results) in runs.iter().enumerate() {
        let mut spread = Vec::new();
        for d in catalogue {
            let mut values: Vec<f64> = results
                .iter()
                .map(|r| r.metrics.get(d.name).copied().unwrap_or(0.0))
                .collect();
            let rel = relative_iqr(&values);
            let (q1, med, q3) = quartiles(&mut values);
            let wide = !spec.trace && rel > d.bound;
            println!(
                "{} {} {} {} {} {:.4} {}{}",
                WORKLOADS[w],
                d.name,
                med,
                q1,
                q3,
                rel,
                d.bound,
                if wide { " WIDE" } else { "" }
            );
            spread.push((
                d.name.to_owned(),
                Json::Obj(vec![
                    ("median".into(), Json::Num(med)),
                    ("q1".into(), Json::Num(q1)),
                    ("q3".into(), Json::Num(q3)),
                    ("iqr_over_median".into(), Json::Num(rel)),
                    ("wide".into(), Json::Bool(wide)),
                    (
                        "values".into(),
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            ));
        }
        let identical = results
            .iter()
            .all(|r| r.sim_digest == results[0].sim_digest && same_sim(r, &results[0]));
        println!(
            "{} sim_digest {} identical across {} runs: {}",
            WORKLOADS[w],
            results[0].sim_digest,
            results.len(),
            if identical { "yes" } else { "NO" }
        );
        ok &= identical;
        doc.push(Json::Obj(vec![
            ("workload".into(), Json::Str(WORKLOADS[w].into())),
            (
                "sim_digest".into(),
                Json::Str(results[0].sim_digest.clone()),
            ),
            ("sim_identical".into(), Json::Bool(identical)),
            ("spread".into(), Json::Obj(spread)),
        ]));
    }
    let kind = if spec.trace { "-trace" } else { "" };
    let path = spec
        .out
        .join(format!("repeat-seed-{}{kind}.json", spec.seed));
    let doc = Json::Obj(vec![
        ("seed".into(), Json::Num(spec.seed as f64)),
        ("repeat".into(), Json::Num(spec.repeat as f64)),
        ("seconds".into(), Json::Num(spec.seconds as f64)),
        ("machine".into(), machine()),
        ("workloads".into(), Json::Arr(doc)),
    ]);
    write(&path, &doc.to_pretty())?;
    eprintln!("benchmark: wrote {}", path.display());
    Ok(ok)
}

/// Whether two results agree bit for bit on every simulated metric they
/// both report.
fn same_sim(a: &WorkloadResult, b: &WorkloadResult) -> bool {
    a.metrics.iter().all(|(name, v)| {
        metrics::def(name).is_some_and(|d| d.clock != metrics::Clock::Sim)
            || b.metrics
                .get(name)
                .is_some_and(|w| w.to_bits() == v.to_bits())
    })
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 || v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// The per-layer table of a traced suite: one row per metric, one
/// column per workload.
fn layer_table(seed: u64, results: &[&WorkloadResult]) -> String {
    let mut out = format!("# Per-layer metrics, traced run, seed {seed}\n\n");
    let _ = writeln!(out, "Machine: `{}`\n", machine().to_compact());
    out.push_str(
        "Host rungs (`*.host_*_ns`) time one public call on a fresh world; self times \
         are a rung minus the rung it calls into. `host_share.*` is calls per op times \
         self time over the traced op's mean host time. Simulated counters are per \
         measured op (or per fault).\n\n",
    );
    out.push_str("| metric | unit | clock |");
    for r in results {
        let _ = write!(out, " {} |", r.workload);
    }
    out.push_str("\n|---|---|---|");
    out.push_str(&"---:|".repeat(results.len()));
    out.push('\n');
    for d in PER_LAYER {
        let _ = write!(out, "| {} | {} | {} |", d.name, d.unit, d.clock.label());
        for r in results {
            let _ = write!(
                out,
                " {} |",
                fmt_value(r.metrics.get(d.name).copied().unwrap_or(0.0))
            );
        }
        out.push('\n');
    }
    out
}
