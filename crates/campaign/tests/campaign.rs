//! Campaign integration and property tests.
//!
//! Two properties anchor the subsystem:
//!
//! 1. **Expansion** — a suite expands to exactly the product of its
//!    consumed axes, with content-addressed IDs that are stable across
//!    re-expansions and distinct across axis values.
//! 2. **Resume** — a campaign killed mid-run (journal cut to an
//!    arbitrary prefix, tail line torn mid-write) re-runs only the
//!    missing cells and produces a report byte-identical to the
//!    uninterrupted run, at any `--jobs` level; the same holds for the
//!    artifacts cells leave under `cells/<id>/`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use autarky_campaign::{
    execute_cell, run_cells, Artifacts, CampaignConfig, CampaignReport, CellKind, CellOutcome,
    CellSpec, GateOutcome, Journal,
};

/// A deterministic fake executor: outcome derived from the spec alone,
/// so reports are comparable across runs without real subsystem cost.
fn fake_execute(spec: &CellSpec) -> (CellOutcome, Artifacts) {
    let outcome = CellOutcome {
        gate: if spec.seed == Some(13) {
            GateOutcome::Fail
        } else {
            GateOutcome::Pass
        },
        metrics: vec![("derived_seed".to_owned(), spec.derived_seed() as f64)],
        reason: format!("fake outcome for {}", spec.coords()),
    };
    (outcome, Artifacts::new())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ay-campaign-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

const SWEEP: &str = r#"
[campaign]
name = "it-sweep"

[matrix]
seed = [1, 2, 3]

[[suite]]
kind = "bench"
workload = ["paging", "spell", "kvstore", "font"]

[[suite]]
kind = "leakage"
policy = ["baseline", "clusters", "cached-oram"]
workload = ["jpeg", "spell"]

[[suite]]
kind = "replay"
policy = ["clusters", "rate-limit"]
workload = ["spell", "kvstore"]
fault_plan = ["quiet", "transient"]

[[suite]]
kind = "fleet"
workload = ["kvstore", "mixed"]
traffic_shape = ["steady", "bursty"]
fault_plan = ["quiet"]
enclave_size = [128, 192]

[[suite]]
kind = "profile"
policy = ["clusters", "elided"]
workload = ["paging", "spell"]

[[suite]]
kind = "figure"
workload = ["fig5"]
policy = ["sgx1", "sgx2"]
"#;

/// Consumed-axis products: bench 4 (seed unconsumed), leakage 3×2,
/// replay 2×2×2×3, fleet 2×2×1×2×3, profile 2×2, figure 1×2.
const SWEEP_CELLS: usize = 4 + 6 + 24 + 24 + 4 + 2;

#[test]
fn expansion_matches_the_axis_product_with_stable_distinct_ids() {
    let config = CampaignConfig::from_toml(SWEEP).expect("parses");
    let cells = config.expand();
    assert_eq!(cells.len(), SWEEP_CELLS);

    let ids: BTreeSet<&str> = cells.iter().map(|c| c.id.as_str()).collect();
    assert_eq!(ids.len(), cells.len(), "content addresses are distinct");

    // Re-expansion (fresh parse included) reproduces the same IDs in
    // the same order: the address depends only on cell content.
    let again = CampaignConfig::from_toml(SWEEP).expect("parses").expand();
    let id_pairs: Vec<(&str, &str)> = cells
        .iter()
        .zip(&again)
        .map(|(a, b)| (a.id.as_str(), b.id.as_str()))
        .collect();
    assert!(id_pairs.iter().all(|(a, b)| a == b), "IDs are stable");
}

#[test]
fn report_is_independent_of_parallelism() {
    let cells = CampaignConfig::from_toml(SWEEP).expect("parses").expand();
    let reports: Vec<String> = [1usize, 4, 16]
        .into_iter()
        .map(|jobs| {
            let mut journal = Journal::ephemeral();
            let runs = run_cells(&cells, jobs, &mut journal, &fake_execute, true);
            CampaignReport {
                name: "it-sweep".into(),
                runs,
            }
            .to_json()
        })
        .collect();
    assert_eq!(reports[0], reports[1]);
    assert_eq!(reports[1], reports[2]);
}

#[test]
fn resume_after_a_torn_journal_skips_done_cells_and_reproduces_the_report() {
    let cells = CampaignConfig::from_toml(SWEEP).expect("parses").expand();
    let dir = temp_dir("resume");
    let full_path = dir.join("full.log");

    // Uninterrupted reference run.
    let reference = {
        let mut journal = Journal::open(&full_path).expect("opens");
        let runs = run_cells(&cells, 4, &mut journal, &fake_execute, true);
        CampaignReport {
            name: "it-sweep".into(),
            runs,
        }
        .to_json()
    };

    let full_text = std::fs::read_to_string(&full_path).expect("journal readable");
    let lines: Vec<&str> = full_text.lines().collect();
    assert_eq!(lines.len(), SWEEP_CELLS + 1, "header + one line per cell");

    // Kill the campaign at several points: keep `k` completed lines,
    // then tear the next line in half as an in-flight append would.
    for keep in [0usize, 1, SWEEP_CELLS / 3, SWEEP_CELLS - 1] {
        let torn_path = dir.join(format!("torn-{keep}.log"));
        let mut torn = lines[..=keep].join("\n");
        torn.push('\n');
        let half = lines[keep + 1];
        torn.push_str(&half[..half.len() / 2]);
        std::fs::write(&torn_path, &torn).expect("write torn journal");

        let executed = AtomicUsize::new(0);
        let counting = |spec: &CellSpec| {
            executed.fetch_add(1, Ordering::Relaxed);
            fake_execute(spec)
        };
        let mut journal = Journal::open(&torn_path).expect("opens torn journal");
        assert_eq!(journal.len(), keep, "torn tail line must not count");
        let runs = run_cells(&cells, 4, &mut journal, &counting, true);

        assert_eq!(
            executed.load(Ordering::Relaxed),
            SWEEP_CELLS - keep,
            "only unjournaled cells re-run (keep={keep})"
        );
        assert_eq!(
            runs.iter().filter(|r| r.resumed).count(),
            keep,
            "journaled cells are resumed (keep={keep})"
        );
        let report = CampaignReport {
            name: "it-sweep".into(),
            runs,
        }
        .to_json();
        assert_eq!(
            report, reference,
            "resumed report byte-identical (keep={keep})"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn real_cells_of_every_kind_run_and_gate() {
    let config = CampaignConfig::from_toml(
        r#"
[campaign]
name = "it-real"

[[suite]]
kind = "bench"
workload = "spell"

[[suite]]
kind = "leakage"
policy = "baseline"
workload = "jpeg"

[[suite]]
kind = "replay"
policy = "clusters"
workload = "spell"
fault_plan = "quiet"
seed = 1

[[suite]]
kind = "snapshot"
policy = "clusters"
workload = "spell"
fault_plan = "quiet"

[[suite]]
kind = "fleet"
workload = "kvstore"
traffic_shape = "steady"
fault_plan = "quiet"
enclave_size = 192
requests = 30
seed = 1

[[suite]]
kind = "profile"
policy = "clusters"
workload = "spell"

[[suite]]
kind = "figure"
workload = "fig5"
policy = "sgx1"

[[suite]]
kind = "watch"
workload = "kvstore"
fault_plan = "quiet"
requests = 50
seed = 1
"#,
    )
    .expect("parses");
    let cells = config.expand();
    assert_eq!(cells.len(), CellKind::ALL.len());
    let mut journal = Journal::ephemeral();
    let runs = run_cells(&cells, 2, &mut journal, &execute_cell, true);
    let report = CampaignReport {
        name: config.name.clone(),
        runs,
    };
    // Bench has no baseline configured → info; every other kind passes.
    assert!(report.pass(), "markdown:\n{}", report.to_markdown());
    assert_eq!(report.failed(), 0);
    assert_eq!(report.info(), 1);
    assert_eq!(report.passed(), CellKind::ALL.len() - 1);
    let json = report.to_json();
    assert!(json.contains("\"campaign\": \"it-real\""));
    assert!(json.contains("\"pass\": true"));
}

#[test]
fn real_profile_and_figure_cells_are_parallelism_invariant() {
    // Unlike the fake-executor sweep above, this runs the *real*
    // profiler: the collected profile (and thus every journaled metric)
    // must be bit-identical no matter how cells are scheduled.
    let config = CampaignConfig::from_toml(
        r#"
[campaign]
name = "it-profile-jobs"

[[suite]]
kind = "profile"
policy = ["clusters", "single"]
workload = "spell"

[[suite]]
kind = "figure"
workload = "fig5"
policy = "sgx1"
"#,
    )
    .expect("parses");
    let cells = config.expand();
    assert_eq!(cells.len(), 3);
    let reports: Vec<String> = [1usize, 2]
        .into_iter()
        .map(|jobs| {
            let mut journal = Journal::ephemeral();
            let runs = run_cells(&cells, jobs, &mut journal, &execute_cell, true);
            CampaignReport {
                name: config.name.clone(),
                runs,
            }
            .to_json()
        })
        .collect();
    assert_eq!(
        reports[0], reports[1],
        "profile metrics depend on jobs level"
    );
    assert!(reports[0].contains("hot_path_cycles_per_fault"));
}

#[test]
fn shipped_configs_parse_and_smoke_covers_every_kind() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/campaigns");
    let mut configs = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/campaigns readable") {
        let path = entry.expect("dir entry").path();
        let text = std::fs::read_to_string(&path).expect("config readable");
        let config =
            CampaignConfig::from_toml(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        configs += 1;
        if config.name == "smoke" {
            let cells = config.expand();
            for kind in CellKind::ALL {
                assert!(
                    cells.iter().any(|c| c.kind == kind),
                    "smoke.toml has no {} cell",
                    kind.name()
                );
            }
        }
    }
    assert!(configs >= 2, "no configs found in {}", dir.display());
}

/// Cells that leave artifacts on every run: a fleet cell (latency
/// report + forensics) and a profile cell (folded stacks, SVG, JSON).
const ARTIFACT_CELLS: &str = r#"
[campaign]
name = "it-artifacts"

[[suite]]
kind = "fleet"
workload = "kvstore"
traffic_shape = "steady"
fault_plan = "quiet"
enclave_size = 192
requests = 30
seed = 1

[[suite]]
kind = "profile"
policy = "clusters"
workload = "spell"
"#;

/// Every file under `out/cells/`, as sorted `(cell/file, bytes)` pairs.
fn artifact_tree(out: &Path) -> Vec<(String, Vec<u8>)> {
    let cells = out.join("cells");
    let mut files = Vec::new();
    for cell in std::fs::read_dir(&cells).expect("cells dir") {
        for file in std::fs::read_dir(cell.expect("cell entry").path()).expect("cell dir") {
            let path = file.expect("file entry").path();
            let rel = path.strip_prefix(&cells).expect("under cells/");
            files.push((
                rel.display().to_string(),
                std::fs::read(&path).expect("artifact readable"),
            ));
        }
    }
    files.sort();
    files
}

/// Run `cells` into a fresh `out/` with a persistent journal.
fn run_into(out: &Path, cells: &[CellSpec], jobs: usize) -> Vec<autarky_campaign::CellRun> {
    let mut journal = Journal::open(&out.join("journal.log")).expect("journal opens");
    run_cells(cells, jobs, &mut journal, &execute_cell, true)
}

#[test]
fn cell_artifacts_are_byte_identical_across_jobs_levels() {
    let cells = CampaignConfig::from_toml(ARTIFACT_CELLS)
        .expect("parses")
        .expand();
    let trees: Vec<_> = [1usize, 2]
        .into_iter()
        .map(|jobs| {
            let out = temp_dir(&format!("artifacts-j{jobs}"));
            run_into(&out, &cells, jobs);
            let tree = artifact_tree(&out);
            let _ = std::fs::remove_dir_all(&out);
            tree
        })
        .collect();
    let names: Vec<&str> = trees[0].iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names.len(), 5, "fleet 2 + profile 3 artifacts: {names:?}");
    assert!(names
        .iter()
        .all(|n| cells.iter().any(|c| n.starts_with(&c.id))));
    assert!(
        trees[0] == trees[1],
        "artifacts differ between --jobs 1 and 2"
    );
}

#[test]
fn resumed_cells_leave_existing_artifacts_untouched() {
    let cells = CampaignConfig::from_toml(ARTIFACT_CELLS)
        .expect("parses")
        .expand();
    let fleet: Vec<CellSpec> = cells
        .into_iter()
        .filter(|c| c.kind == CellKind::Fleet)
        .collect();
    let out = temp_dir("artifacts-resume");
    run_into(&out, &fleet, 1);
    let before = artifact_tree(&out);
    assert_eq!(before.len(), 2);
    // Mark one artifact: a resumed cell must not rewrite it.
    let marked = out.join("cells").join(&before[0].0);
    std::fs::write(&marked, "marker").expect("mark artifact");

    let runs = run_into(&out, &fleet, 2);
    assert!(
        runs.iter().all(|r| r.resumed),
        "every cell came from the journal"
    );
    let after = artifact_tree(&out);
    assert_eq!(
        after[0].1, b"marker",
        "resume rewrote a journaled cell's artifact"
    );
    assert_eq!(after[1..], before[1..], "resume changed an artifact");
    let _ = std::fs::remove_dir_all(&out);
}
