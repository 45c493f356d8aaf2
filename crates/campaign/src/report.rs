//! The campaign report: one JSON document plus one markdown summary
//! covering every cell.
//!
//! The report is a pure function of the cell specs and their journaled
//! outcomes — no wall-clock, no hostnames, no resumed-vs-fresh marks —
//! so a campaign interrupted and resumed produces a report
//! byte-identical to an uninterrupted run (the resume property test
//! pins this).

use crate::cell::{json_f64, CellKind, GateOutcome};
use crate::runner::CellRun;

/// A finished campaign, ready to render.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign name from the config.
    pub name: String,
    /// Every cell, in expansion order.
    pub runs: Vec<CellRun>,
}

impl CampaignReport {
    /// Cells whose gate passed.
    pub fn passed(&self) -> usize {
        self.count(GateOutcome::Pass)
    }

    /// Cells whose gate failed.
    pub fn failed(&self) -> usize {
        self.count(GateOutcome::Fail)
    }

    /// Ungated (informational) cells.
    pub fn info(&self) -> usize {
        self.count(GateOutcome::Info)
    }

    fn count(&self, gate: GateOutcome) -> usize {
        self.runs.iter().filter(|r| r.outcome.gate == gate).count()
    }

    /// The campaign verdict: true iff no gate failed.
    pub fn pass(&self) -> bool {
        self.failed() == 0
    }

    /// Serialize as JSON (stable key order, hand-rolled like every
    /// codec in this workspace).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"campaign\": \"{}\",\n", esc(&self.name)));
        out.push_str(&format!("  \"cells\": {},\n", self.runs.len()));
        out.push_str(&format!("  \"passed\": {},\n", self.passed()));
        out.push_str(&format!("  \"failed\": {},\n", self.failed()));
        out.push_str(&format!("  \"info\": {},\n", self.info()));
        out.push_str(&format!("  \"pass\": {},\n", self.pass()));
        out.push_str("  \"results\": [\n");
        for (i, run) in self.runs.iter().enumerate() {
            let spec = &run.spec;
            out.push_str("    {\n");
            out.push_str(&format!("      \"id\": \"{}\",\n", esc(&spec.id)));
            out.push_str(&format!("      \"kind\": \"{}\",\n", spec.kind.name()));
            out.push_str(&format!(
                "      \"policy\": {},\n",
                opt_str(spec.policy.as_deref())
            ));
            out.push_str(&format!(
                "      \"workload\": \"{}\",\n",
                esc(&spec.workload)
            ));
            out.push_str(&format!(
                "      \"enclave_size\": {},\n",
                opt_u64(spec.enclave_size)
            ));
            out.push_str(&format!(
                "      \"fault_plan\": {},\n",
                opt_str(spec.fault_plan.as_deref())
            ));
            out.push_str(&format!(
                "      \"traffic_shape\": {},\n",
                opt_str(spec.traffic_shape.as_deref())
            ));
            out.push_str(&format!("      \"seed\": {},\n", opt_u64(spec.seed)));
            out.push_str(&format!(
                "      \"gate\": \"{}\",\n",
                run.outcome.gate.name()
            ));
            out.push_str("      \"metrics\": {");
            for (j, (key, value)) in run.outcome.metrics.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": {}", esc(key), json_f64(*value)));
            }
            out.push_str("},\n");
            out.push_str(&format!(
                "      \"reason\": \"{}\"\n",
                esc(&run.outcome.reason)
            ));
            out.push_str(if i + 1 < self.runs.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Render as a markdown summary (the CI artifact).
    pub fn to_markdown(&self) -> String {
        let mut out = format!("# Campaign report: {}\n\n", self.name);
        out.push_str(&format!(
            "{} cells — {} passed, {} failed, {} informational — verdict **{}**\n\n",
            self.runs.len(),
            self.passed(),
            self.failed(),
            self.info(),
            if self.pass() { "PASS" } else { "FAIL" }
        ));
        out.push_str("| cell | kind | coordinates | gate | reason |\n");
        out.push_str("|------|------|-------------|------|--------|\n");
        for run in &self.runs {
            let spec = &run.spec;
            let coords = [
                spec.policy.as_deref(),
                Some(spec.workload.as_str()),
                spec.fault_plan.as_deref(),
                spec.traffic_shape.as_deref(),
            ]
            .into_iter()
            .flatten()
            .collect::<Vec<_>>()
            .join(" × ");
            let mut coords = coords;
            if let Some(size) = spec.enclave_size {
                coords.push_str(&format!(" × {size}p"));
            }
            if let Some(seed) = spec.seed {
                coords.push_str(&format!(" × s{seed}"));
            }
            out.push_str(&format!(
                "| `{}` | {} | {} | {} | {} |\n",
                spec.id,
                spec.kind.name(),
                coords,
                run.outcome.gate.name(),
                run.outcome.reason.replace('|', "\\|").replace('\n', " ")
            ));
        }
        // Failures get their metrics spelled out; passing cells stay
        // one-line so big sweeps remain skimmable.
        let failures: Vec<&CellRun> = self
            .runs
            .iter()
            .filter(|r| r.outcome.gate == GateOutcome::Fail)
            .collect();
        if !failures.is_empty() {
            out.push_str("\n## Failed cells\n\n");
            for run in failures {
                out.push_str(&format!("### `{}` {}\n\n", run.spec.id, run.spec.coords()));
                out.push_str(&format!("{}\n\n", run.outcome.reason));
                for (key, value) in &run.outcome.metrics {
                    out.push_str(&format!("- {key}: {}\n", json_f64(*value)));
                }
                out.push('\n');
            }
        }
        out
    }

    /// One bench-trajectory line for `baselines/BENCH_HISTORY.jsonl`:
    /// the cycles/op of every `clusters`-policy bench cell in this
    /// campaign, keyed by the bare workload name so the trend stays one
    /// series per workload whatever other policies the campaign also
    /// profiles. `None` when the campaign ran no such cells, so
    /// non-perf campaigns never pollute the trajectory. Deliberately
    /// timestamp-free — the file's line order *is* the trajectory, and
    /// a wall-clock stamp would break the report's determinism
    /// contract.
    pub fn bench_history_line(&self) -> Option<String> {
        let mut entries: Vec<(String, f64)> = Vec::new();
        for run in &self.runs {
            let spec = &run.spec;
            if spec.kind != CellKind::Bench
                || spec.policy.as_deref().unwrap_or("clusters") != "clusters"
            {
                continue;
            }
            if entries.iter().any(|(w, _)| *w == spec.workload) {
                continue;
            }
            if let Some((_, v)) = run
                .outcome
                .metrics
                .iter()
                .find(|(k, _)| k == "cycles_per_op")
            {
                entries.push((spec.workload.clone(), *v));
            }
        }
        if entries.is_empty() {
            return None;
        }
        let mut out = format!("{{\"campaign\": \"{}\", \"bench\": {{", esc(&self.name));
        for (i, (workload, cycles)) in entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", esc(workload), json_f64(*cycles)));
        }
        out.push_str("}}");
        Some(out)
    }
}

/// Render the bench trajectory (the accumulated
/// `BENCH_HISTORY.jsonl` contents) as a markdown section: one row per
/// recorded run, one column per workload, cycles/op in the cells, and
/// a closing first→latest delta line per workload. Unparseable lines
/// are skipped rather than failing the report — the history file is
/// append-only across many CI runs and must never brick a campaign.
pub fn render_bench_trend(history: &str) -> String {
    let runs: Vec<Vec<(String, f64)>> = history
        .lines()
        .filter_map(parse_history_line)
        .filter(|entries| !entries.is_empty())
        .collect();
    if runs.is_empty() {
        return String::new();
    }
    // Column order: first appearance across the whole history.
    let mut workloads: Vec<String> = Vec::new();
    for entries in &runs {
        for (w, _) in entries {
            if !workloads.contains(w) {
                workloads.push(w.clone());
            }
        }
    }
    let mut out = String::from("\n## Cycles/op trend\n\n");
    out.push_str(&format!("{} recorded runs (oldest first):\n\n", runs.len()));
    out.push_str("| run |");
    for w in &workloads {
        out.push_str(&format!(" {w} |"));
    }
    out.push_str("\n|-----|");
    for _ in &workloads {
        out.push_str("------|");
    }
    out.push('\n');
    for (i, entries) in runs.iter().enumerate() {
        out.push_str(&format!("| {} |", i + 1));
        for w in &workloads {
            match entries.iter().find(|(k, _)| k == w) {
                Some((_, v)) => out.push_str(&format!(" {:.1} |", v)),
                None => out.push_str(" — |"),
            }
        }
        out.push('\n');
    }
    out.push('\n');
    for w in &workloads {
        let series: Vec<f64> = runs
            .iter()
            .filter_map(|entries| entries.iter().find(|(k, _)| k == w).map(|(_, v)| *v))
            .collect();
        if let (Some(first), Some(last)) = (series.first(), series.last()) {
            if *first > 0.0 && series.len() > 1 {
                out.push_str(&format!(
                    "- {w}: {:.1} → {:.1} cycles/op ({:+.1}% over {} runs)\n",
                    first,
                    last,
                    (last / first - 1.0) * 100.0,
                    series.len()
                ));
            }
        }
    }
    out
}

/// Extract the `"bench": {"workload": cycles, ...}` map from one
/// history line. Hand-rolled like every codec in this workspace; the
/// emitter is [`CampaignReport::bench_history_line`], so the grammar
/// is narrow: flat string→number pairs, no nesting, no escapes inside
/// workload names.
fn parse_history_line(line: &str) -> Option<Vec<(String, f64)>> {
    let start = line.find("\"bench\"")?;
    let rest = &line[start..];
    let open = rest.find('{')?;
    let close = rest[open..].find('}')? + open;
    let body = &rest[open + 1..close];
    let mut out = Vec::new();
    for pair in body.split(',') {
        let (key, value) = pair.split_once(':')?;
        let key = key.trim().trim_matches('"');
        let value: f64 = value.trim().parse().ok()?;
        if key.is_empty() {
            return None;
        }
        out.push((key.to_owned(), value));
    }
    Some(out)
}

/// Minimal JSON string escape (quotes, backslashes, control chars).
fn esc(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn opt_str(value: Option<&str>) -> String {
    match value {
        Some(s) => format!("\"{}\"", esc(s)),
        None => "null".to_owned(),
    }
}

fn opt_u64(value: Option<u64>) -> String {
    match value {
        Some(v) => v.to_string(),
        None => "null".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellOutcome, CellSpec, SuiteParams};

    fn run(gate: GateOutcome, reason: &str) -> CellRun {
        CellRun {
            spec: CellSpec::new(
                CellKind::Replay,
                Some("clusters".into()),
                "spell".into(),
                None,
                Some("quiet".into()),
                None,
                Some(1),
                SuiteParams::default(),
            ),
            outcome: CellOutcome {
                gate,
                metrics: vec![("events".into(), 42.0)],
                reason: reason.into(),
            },
            resumed: false,
        }
    }

    #[test]
    fn verdict_is_conjunction_of_gates() {
        let report = CampaignReport {
            name: "t".into(),
            runs: vec![run(GateOutcome::Pass, "ok"), run(GateOutcome::Info, "fyi")],
        };
        assert!(report.pass());
        let report = CampaignReport {
            name: "t".into(),
            runs: vec![run(GateOutcome::Pass, "ok"), run(GateOutcome::Fail, "no")],
        };
        assert!(!report.pass());
        assert_eq!(report.failed(), 1);
    }

    #[test]
    fn report_ignores_the_resumed_flag() {
        let mut a = CampaignReport {
            name: "t".into(),
            runs: vec![run(GateOutcome::Pass, "ok")],
        };
        let json_fresh = a.to_json();
        let md_fresh = a.to_markdown();
        a.runs[0].resumed = true;
        assert_eq!(
            a.to_json(),
            json_fresh,
            "resume must not perturb the report"
        );
        assert_eq!(a.to_markdown(), md_fresh);
    }

    #[test]
    fn json_escapes_quotes_and_reason_text() {
        let report = CampaignReport {
            name: "t".into(),
            runs: vec![run(GateOutcome::Fail, "said \"no\"\nline two")],
        };
        let json = report.to_json();
        assert!(json.contains("said \\\"no\\\"\\nline two"));
        assert!(json.contains("\"pass\": false"));
    }

    fn bench_run(workload: &str, cycles_per_op: f64) -> CellRun {
        policy_bench_run(None, workload, cycles_per_op)
    }

    fn policy_bench_run(policy: Option<&str>, workload: &str, cycles_per_op: f64) -> CellRun {
        CellRun {
            spec: CellSpec::new(
                CellKind::Bench,
                policy.map(Into::into),
                workload.into(),
                None,
                None,
                None,
                None,
                SuiteParams::default(),
            ),
            outcome: CellOutcome {
                gate: GateOutcome::Pass,
                metrics: vec![("cycles_per_op".into(), cycles_per_op)],
                reason: "ok".into(),
            },
            resumed: false,
        }
    }

    #[test]
    fn history_line_covers_bench_cells_only() {
        let report = CampaignReport {
            name: "bench-smoke".into(),
            runs: vec![
                bench_run("spell", 1234.5),
                bench_run("font", 42.0),
                run(GateOutcome::Pass, "not a bench cell"),
            ],
        };
        let line = report.bench_history_line().expect("has bench cells");
        assert_eq!(
            line,
            "{\"campaign\": \"bench-smoke\", \"bench\": \
             {\"spell\": 1234.5, \"font\": 42}}"
        );
        // And the emitted line round-trips through the trend parser.
        let parsed = parse_history_line(&line).expect("parses");
        assert_eq!(
            parsed,
            vec![("spell".into(), 1234.5), ("font".into(), 42.0)]
        );

        let no_bench = CampaignReport {
            name: "fleet-only".into(),
            runs: vec![run(GateOutcome::Pass, "ok")],
        };
        assert!(no_bench.bench_history_line().is_none());
    }

    #[test]
    fn history_line_logs_the_clusters_policy_only() {
        // Spell profiled under two policies, the other one first: the
        // trajectory must carry the clusters number, keyed by workload.
        let report = CampaignReport {
            name: "bench-smoke".into(),
            runs: vec![
                policy_bench_run(Some("single"), "spell", 999.0),
                policy_bench_run(Some("clusters"), "spell", 1234.5),
                policy_bench_run(Some("elided"), "font", 7.0),
            ],
        };
        assert_eq!(
            report.bench_history_line().expect("has a clusters cell"),
            "{\"campaign\": \"bench-smoke\", \"bench\": {\"spell\": 1234.5}}"
        );
    }

    #[test]
    fn trend_renders_rows_per_run_and_deltas() {
        let history = "\
{\"campaign\": \"bench-smoke\", \"bench\": {\"spell\": 1000, \"font\": 50}}\n\
not json at all\n\
{\"campaign\": \"bench-smoke\", \"bench\": {\"spell\": 1100, \"font\": 45}}\n";
        let md = render_bench_trend(history);
        assert!(md.contains("## Cycles/op trend"));
        assert!(md.contains("2 recorded runs"), "bad line skipped:\n{md}");
        assert!(md.contains("| 1 | 1000.0 | 50.0 |"));
        assert!(md.contains("| 2 | 1100.0 | 45.0 |"));
        assert!(md.contains("- spell: 1000.0 → 1100.0 cycles/op (+10.0% over 2 runs)"));
        assert!(md.contains("- font: 50.0 → 45.0 cycles/op (-10.0% over 2 runs)"));
        assert_eq!(render_bench_trend(""), "");
    }

    #[test]
    fn markdown_lists_failures_with_metrics() {
        let report = CampaignReport {
            name: "t".into(),
            runs: vec![run(GateOutcome::Fail, "broke")],
        };
        let md = report.to_markdown();
        assert!(md.contains("## Failed cells"));
        assert!(md.contains("- events: 42"));
        assert!(md.contains("verdict **FAIL**"));
    }
}
