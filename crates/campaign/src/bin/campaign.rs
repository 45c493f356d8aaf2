//! Run a declarative experiment campaign.
//!
//! ```text
//! campaign --config PATH [--out DIR] [--jobs N] [--bench-history PATH]
//!          [--dry-run] [--fresh] [--quiet]
//! ```
//!
//! Expands the config's matrix into content-addressed cells, executes
//! them in parallel, writes each cell's artifacts into `DIR/cells/<id>/`,
//! journals every completion into `DIR/journal.log` (so a killed
//! campaign resumes where it stopped), and writes `DIR/report.json` +
//! `DIR/report.md`.
//!
//! `--bench-history PATH` appends one JSONL line per invocation —
//! this campaign's bench cycles/op keyed by workload — to `PATH`, and
//! renders the accumulated trajectory as a "Cycles/op trend" section
//! in `report.md`. Without the flag nothing is appended and the report
//! bytes are a pure function of the cell outcomes (the resume
//! byte-identity checks rely on that).
//!
//! Exit code: `0` when every gated cell passed, `1` when any gate
//! failed, `2` on usage/config errors. `--dry-run` prints the expanded
//! cell list and exits 0 without running anything. `--fresh` deletes an
//! existing journal first, forcing every cell to re-run.

use std::path::PathBuf;
use std::process::ExitCode;

use autarky_campaign::{
    execute_cell, render_bench_trend, run_cells, CampaignConfig, CampaignReport, Journal,
};

fn die(msg: &str) -> ! {
    eprintln!("campaign: {msg}");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config_path: Option<String> = None;
    let mut out_dir: Option<String> = None;
    let mut jobs: usize = std::thread::available_parallelism().map_or(2, |n| n.get());
    let mut bench_history: Option<String> = None;
    let mut dry_run = false;
    let mut fresh = false;
    let mut quiet = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--config" => {
                i += 1;
                config_path = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--config needs a path")),
                );
            }
            "--out" => {
                i += 1;
                out_dir = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--out needs a directory")),
                );
            }
            "--jobs" => {
                i += 1;
                jobs = args
                    .get(i)
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--jobs needs a positive integer"));
            }
            "--bench-history" => {
                i += 1;
                bench_history = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--bench-history needs a path")),
                );
            }
            "--dry-run" => dry_run = true,
            "--fresh" => fresh = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!(
                    "usage: campaign --config PATH [--out DIR] [--jobs N] \
                     [--bench-history PATH] [--dry-run] [--fresh] [--quiet]"
                );
                return ExitCode::SUCCESS;
            }
            other => die(&format!("unknown argument: {other}")),
        }
        i += 1;
    }
    let Some(config_path) = config_path else {
        die("--config is required");
    };

    let text = std::fs::read_to_string(&config_path)
        .unwrap_or_else(|e| die(&format!("read {config_path}: {e}")));
    let config = CampaignConfig::from_toml(&text).unwrap_or_else(|e| die(&e.to_string()));
    let cells = config.expand();

    if dry_run {
        println!(
            "campaign {:?}: {} cells from {} suite(s)",
            config.name,
            cells.len(),
            config.suites.len()
        );
        for cell in &cells {
            println!("{cell}");
        }
        return ExitCode::SUCCESS;
    }

    let out_dir =
        PathBuf::from(out_dir.unwrap_or_else(|| format!("campaign-runs/{}", config.name)));
    std::fs::create_dir_all(&out_dir)
        .unwrap_or_else(|e| die(&format!("create {}: {e}", out_dir.display())));
    let journal_path = out_dir.join("journal.log");
    if fresh {
        match std::fs::remove_file(&journal_path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => die(&format!("remove {}: {e}", journal_path.display())),
        }
    }
    let mut journal = Journal::open(&journal_path)
        .unwrap_or_else(|e| die(&format!("open {}: {e}", journal_path.display())));
    let already = cells
        .iter()
        .filter(|c| journal.get(&c.id).is_some())
        .count();
    if !quiet {
        eprintln!(
            "campaign {:?}: {} cells, {} journaled, {} to run ({} jobs)",
            config.name,
            cells.len(),
            already,
            cells.len() - already,
            jobs
        );
    }

    let runs = run_cells(&cells, jobs, &mut journal, &execute_cell, quiet);
    let report = CampaignReport {
        name: config.name.clone(),
        runs,
    };

    let json_path = out_dir.join("report.json");
    let md_path = out_dir.join("report.md");
    std::fs::write(&json_path, report.to_json())
        .unwrap_or_else(|e| die(&format!("write {}: {e}", json_path.display())));
    let mut markdown = report.to_markdown();
    if let Some(history_path) = &bench_history {
        // Append this run's bench line first, then render the whole
        // accumulated trajectory (including the new point).
        if let Some(line) = report.bench_history_line() {
            let mut contents = match std::fs::read_to_string(history_path) {
                Ok(contents) => contents,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
                Err(e) => die(&format!("read {history_path}: {e}")),
            };
            if !contents.is_empty() && !contents.ends_with('\n') {
                contents.push('\n');
            }
            contents.push_str(&line);
            contents.push('\n');
            std::fs::write(history_path, &contents)
                .unwrap_or_else(|e| die(&format!("write {history_path}: {e}")));
            markdown.push_str(&render_bench_trend(&contents));
        }
    }
    std::fs::write(&md_path, markdown)
        .unwrap_or_else(|e| die(&format!("write {}: {e}", md_path.display())));

    println!(
        "campaign {:?}: {} cells — {} passed, {} failed, {} info — {}",
        config.name,
        report.runs.len(),
        report.passed(),
        report.failed(),
        report.info(),
        if report.pass() { "PASS" } else { "FAIL" }
    );
    println!("report: {}", json_path.display());
    if report.pass() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
