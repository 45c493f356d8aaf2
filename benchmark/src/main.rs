//! Command line of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- [options]
//!
//!   --workload NAME   run one workload in this process and end with a
//!                     JSON line (spell, kv-read, kv-update, font, fleet);
//!                     without it, run the whole suite, one child per
//!                     workload
//!   --seed N          input seed (default 1; seed 2 is held out)
//!   --seconds S       host-time budget per workload run (default 10)
//!   --trace 0|1       1 = traced run: per-layer metrics, ladder, spans
//!   --repeat N        run the suite N times, order rotated, and report
//!                     each metric's median and quartiles
//!   --out DIR         results, traces and tables (default benchmark/out)
//!   --results FILE    with --workload: also write the full result here
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use autarky_benchmark::run::{run_workload, RunSpec};
use autarky_benchmark::suite::{run_suite, SuiteSpec};
use autarky_benchmark::workloads::WORKLOADS;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
    out: Option<PathBuf>,
    results: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        repeat: 1,
        out: None,
        results: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload '{name}' (one of {WORKLOADS:?})"));
                }
                cli.workload = Some(name.clone());
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&cli.seconds) {
                    return Err("--seconds must be 1..=600".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--repeat" => {
                cli.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=100).contains(&cli.repeat) {
                    return Err("--repeat must be 1..=100".into());
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--results" => cli.results = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = cli.workload else {
        let spec = SuiteSpec {
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
            repeat: cli.repeat,
            out: cli
                .out
                .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")),
        };
        return match run_suite(&spec) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    };

    let spec = RunSpec {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
    };
    let (result, tracer) = run_workload(&spec);
    for line in result.lines() {
        println!("{line}");
    }
    for f in &result.failures {
        eprintln!("benchmark: {} failure: {f}", spec.workload);
    }
    let mut io_error = false;
    if let Some(path) = &cli.results {
        if let Err(e) = std::fs::write(path, result.to_json().to_pretty()) {
            eprintln!("benchmark: {}: {e}", path.display());
            io_error = true;
        }
    }
    if let (true, Some(dir)) = (spec.trace, &cli.out) {
        let path = dir.join(format!("trace-{}-seed-{}.json", spec.workload, spec.seed));
        let name = format!("{} seed {}", spec.workload, spec.seed);
        if let Err(e) = std::fs::write(&path, tracer.chrome_json(&name)) {
            eprintln!("benchmark: {}: {e}", path.display());
            io_error = true;
        }
    }
    println!("{}", result.summary_json().to_compact());
    if io_error {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
