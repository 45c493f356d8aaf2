//! The parallel cell executor with journaled resume.
//!
//! Cells are independent simulated experiments, so the runner is a
//! plain work-stealing pool over `std::thread`: one shared cursor, N
//! workers, each executing cells to completion and appending to the
//! journal under a mutex. Determinism does not depend on scheduling —
//! every cell derives its own seed from its content address — so the
//! final report is identical at any `--jobs` level, and identical
//! across an interrupt/resume boundary (the resume property tests pin
//! both).
//!
//! A finished cell's artifacts are written into `cells/<id>/` beside
//! the journal before its line is appended, so a journaled cell always
//! has its artifacts on disk and a resumed cell never rewrites them.
//!
//! A panicking cell is caught and converted into a failing outcome
//! rather than tearing down the campaign: one broken experiment must
//! not cost the other cores their finished work.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::cell::{Artifacts, CellOutcome, CellSpec};
use crate::journal::Journal;

/// One cell's result within a finished campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRun {
    /// The spec that ran.
    pub spec: CellSpec,
    /// Its outcome (fresh or journaled).
    pub outcome: CellOutcome,
    /// Whether the outcome came from the journal (skipped execution).
    pub resumed: bool,
}

/// Execute `cells` with up to `jobs` worker threads, skipping cells the
/// journal already holds. Results come back in `cells` order regardless
/// of completion order. `quiet` suppresses the per-cell progress lines.
/// A cell whose artifacts or journal line cannot be written fails, so
/// a passing campaign never lacks evidence.
pub fn run_cells(
    cells: &[CellSpec],
    jobs: usize,
    journal: &mut Journal,
    exec: &(dyn Fn(&CellSpec) -> (CellOutcome, Artifacts) + Sync),
    quiet: bool,
) -> Vec<CellRun> {
    // Resolve resumed cells up front; queue the rest.
    let mut results: Vec<Option<CellRun>> = Vec::with_capacity(cells.len());
    let mut pending: Vec<usize> = Vec::new();
    for (i, spec) in cells.iter().enumerate() {
        match journal.get(&spec.id) {
            Some(outcome) => {
                if !quiet {
                    eprintln!("campaign: [journal] {spec} -> {}", outcome.gate.name());
                }
                results.push(Some(CellRun {
                    spec: spec.clone(),
                    outcome: outcome.clone(),
                    resumed: true,
                }));
            }
            None => {
                results.push(None);
                pending.push(i);
            }
        }
    }

    let workers = jobs.max(1).min(pending.len().max(1));
    let cursor = AtomicUsize::new(0);
    // Block scope: `shared` must die before `results` can be consumed.
    {
        let shared = Mutex::new((journal, &mut results));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let slot = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&index) = pending.get(slot) else {
                        return;
                    };
                    let spec = &cells[index];
                    let (mut outcome, artifacts) = execute_guarded(spec, exec);
                    let mut guard = match shared.lock() {
                        Ok(guard) => guard,
                        // A worker panicked between lock and unlock; the
                        // journal is still append-consistent, so keep going.
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    let (journal, results) = &mut *guard;
                    if let Err(e) = journal.record(&spec.id, &outcome, &artifacts) {
                        outcome = CellOutcome::fail(format!("journal write failed: {e}"));
                    }
                    if !quiet {
                        eprintln!("campaign: [run] {spec} -> {}", outcome.gate.name());
                    }
                    results[index] = Some(CellRun {
                        spec: spec.clone(),
                        outcome,
                        resumed: false,
                    });
                });
            }
        });
    }

    results
        .into_iter()
        .map(|r| r.unwrap_or_else(|| unreachable!("every cell resolved by the pool")))
        .collect()
}

/// Run one cell, converting a panic into a failing outcome.
fn execute_guarded(
    spec: &CellSpec,
    exec: &(dyn Fn(&CellSpec) -> (CellOutcome, Artifacts) + Sync),
) -> (CellOutcome, Artifacts) {
    match std::panic::catch_unwind(AssertUnwindSafe(|| exec(spec))) {
        Ok(done) => done,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic payload");
            (
                CellOutcome::fail(format!("cell panicked: {msg}")),
                Artifacts::new(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellKind, GateOutcome, SuiteParams};

    fn spec(workload: &str) -> CellSpec {
        CellSpec::new(
            CellKind::Bench,
            None,
            workload.into(),
            None,
            None,
            None,
            None,
            SuiteParams::default(),
        )
    }

    fn pass(reason: &str) -> CellOutcome {
        CellOutcome::gated(vec![], vec![], reason.to_owned())
    }

    #[test]
    fn pool_runs_everything_and_preserves_order() {
        let cells: Vec<CellSpec> = ["paging", "spell", "kvstore", "font"]
            .iter()
            .map(|w| spec(w))
            .collect();
        let mut journal = Journal::ephemeral();
        let runs = run_cells(
            &cells,
            3,
            &mut journal,
            &|c| (pass(&format!("ran {}", c.workload)), Artifacts::new()),
            true,
        );
        assert_eq!(runs.len(), 4);
        for (run, cell) in runs.iter().zip(&cells) {
            assert_eq!(run.spec.id, cell.id, "order preserved");
            assert_eq!(run.outcome.reason, format!("ran {}", cell.workload));
            assert!(!run.resumed);
        }
        assert_eq!(journal.len(), 4, "every completion journaled");
    }

    #[test]
    fn journaled_cells_are_skipped() {
        let cells = vec![spec("paging"), spec("font")];
        let mut journal = Journal::ephemeral();
        journal
            .record(
                &cells[0].id,
                &CellOutcome {
                    gate: GateOutcome::Info,
                    metrics: vec![],
                    reason: "from journal".into(),
                },
                &[],
            )
            .expect("ephemeral record");
        let executed = Mutex::new(Vec::new());
        let runs = run_cells(
            &cells,
            2,
            &mut journal,
            &|c| {
                executed.lock().expect("lock").push(c.workload.clone());
                (pass("fresh"), Artifacts::new())
            },
            true,
        );
        assert_eq!(
            *executed.lock().expect("lock"),
            vec!["font".to_owned()],
            "only the unjournaled cell executed"
        );
        assert!(runs[0].resumed);
        assert_eq!(runs[0].outcome.reason, "from journal");
        assert!(!runs[1].resumed);
    }

    #[test]
    fn a_panicking_cell_fails_without_killing_the_pool() {
        let cells = vec![spec("paging"), spec("font")];
        let mut journal = Journal::ephemeral();
        let runs = run_cells(
            &cells,
            2,
            &mut journal,
            &|c| {
                if c.workload == "paging" {
                    panic!("synthetic cell failure");
                }
                (pass("ok"), Artifacts::new())
            },
            true,
        );
        assert_eq!(runs[0].outcome.gate, GateOutcome::Fail);
        assert!(runs[0].outcome.reason.contains("synthetic cell failure"));
        assert_eq!(runs[1].outcome.gate, GateOutcome::Pass);
    }
}
