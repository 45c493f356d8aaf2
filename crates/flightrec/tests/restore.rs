//! Acceptance tests for checkpoint/restore determinism and rollback
//! detection: a mid-run snapshot → crash → failover-restore cycle must
//! be invisible in the artifacts, staged rollback attacks must be
//! detected and attributed, and a saturated flight ring must drop
//! deterministically.

use autarky_flightrec::{
    record_run, record_run_with_capacity, rollback_attack_run, verify_restore_replay,
    RollbackScenario, Schedule, SchedulePolicy, Victim,
};

#[test]
fn mid_run_restore_is_artifact_invisible() {
    // The `snapshot` campaign covers the full matrix; here one
    // self-paging cell and the ORAM cell keep the suite fast while
    // exercising both paging shapes.
    for schedule in [
        Schedule::quiet(SchedulePolicy::Clusters, Victim::Spell, 1),
        Schedule::quiet(SchedulePolicy::CachedOram, Victim::Kvstore, 1),
    ] {
        let label = format!("{}/{}", schedule.policy.name(), schedule.workload.name());
        let verdict = verify_restore_replay(&schedule);
        assert!(
            verdict.divergence.is_none(),
            "{label}: restore perturbed the flight log"
        );
        assert!(
            verdict.telemetry_identical,
            "{label}: restore perturbed telemetry"
        );
        assert!(verdict.outcome_identical, "{label}: outcomes diverged");
        assert_eq!(verdict.record.outcome, "ok", "{label}");
    }
}

#[test]
fn every_rollback_scenario_is_detected_and_attributed() {
    for (i, scenario) in RollbackScenario::ALL.into_iter().enumerate() {
        let outcome = rollback_attack_run(100 + i as u64, scenario);
        assert!(
            outcome.restore_failed,
            "{}: hostile restore succeeded",
            scenario.name()
        );
        assert!(
            outcome.refused_as_expected,
            "{}: refused by the wrong check ({})",
            scenario.name(),
            outcome.error
        );
        assert!(
            outcome.attack_recorded,
            "{}: no AttackDetected verdict in the flight ring",
            scenario.name()
        );
        assert!(
            outcome.root_names_injection,
            "{}: forensics failed to attribute the verdict (error: {})",
            scenario.name(),
            outcome.error
        );
    }
}

#[test]
fn saturated_ring_drops_oldest_deterministically() {
    let schedule = Schedule::quiet(SchedulePolicy::RateLimit, Victim::Kvstore, 1);
    let full = record_run(&schedule);
    assert_eq!(full.dropped, 0, "reference run must not wrap");

    const CAPACITY: usize = 32;
    let saturated = record_run_with_capacity(&schedule, CAPACITY);
    assert!(
        full.records.len() > CAPACITY,
        "schedule too small to saturate a {CAPACITY}-record ring"
    );
    // Overwrite-oldest: the retained window is exactly the tail of the
    // full log, and the drop count accounts for the rest.
    assert_eq!(saturated.records.len(), CAPACITY);
    assert_eq!(
        saturated.dropped,
        (full.records.len() - CAPACITY) as u64,
        "drop count mismatch"
    );
    assert_eq!(
        saturated.records,
        full.records[full.records.len() - CAPACITY..],
        "retained window is not the tail of the full log"
    );

    // And the saturated recording itself replays bit-identically.
    let again = record_run_with_capacity(&schedule, CAPACITY);
    assert_eq!(saturated.records, again.records);
    assert_eq!(saturated.telemetry_snapshot, again.telemetry_snapshot);
    assert_eq!(saturated.dropped, again.dropped);
}
