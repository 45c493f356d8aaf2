//! Acceptance tests for deterministic record/replay: for every paging
//! policy in the CI matrix, recording and replaying the same (seed,
//! fault plan, workload) coordinates must yield identical flight
//! records and bit-identical export plaintexts, with every runtime
//! decision in the tail resolved to its provoking observation.

use autarky_flightrec::{record_run, verify_replay, Schedule};
use autarky_os_sim::flight::{causal_root_of_attack, decisions_resolved, render_timeline};
use autarky_os_sim::{FaultPlan, FlightEvent};

#[test]
fn replay_is_bit_identical_for_every_policy() {
    for schedule in Schedule::ci_matrix() {
        let label = format!("{}/{}", schedule.policy.name(), schedule.workload.name());
        let verdict = verify_replay(&schedule);
        assert!(
            verdict.divergence.is_none(),
            "{label}: flight logs diverged"
        );
        assert!(
            verdict.telemetry_identical,
            "{label}: export plaintexts diverged"
        );
        assert!(verdict.outcome_identical, "{label}: outcomes diverged");
        assert_eq!(verdict.record.outcome, "ok", "{label}");
        assert_eq!(verdict.record.dropped, 0, "{label}: ring wrapped");
        assert!(
            !verdict.record.records.is_empty(),
            "{label}: nothing recorded"
        );
    }
}

#[test]
fn every_decision_in_the_tail_resolves_to_its_provocation() {
    for schedule in Schedule::ci_matrix() {
        let label = format!("{}/{}", schedule.policy.name(), schedule.workload.name());
        let run = record_run(&schedule);
        assert!(
            decisions_resolved(&run.records, 50),
            "{label}: unresolved decision in the last 50 events\n{}",
            render_timeline(&run.records, 50)
        );
    }
}

#[test]
fn recording_spans_both_trust_domains() {
    let run = record_run(&Schedule::ci_matrix()[0]);
    let mut domains = [false, false, false];
    for r in &run.records {
        match r.event.domain() {
            "hw" => domains[0] = true,
            "os" => domains[1] = true,
            "enclave" => domains[2] = true,
            other => panic!("unknown domain {other}"),
        }
    }
    assert_eq!(
        domains,
        [true, true, true],
        "log must carry hardware transitions, kernel observations, and runtime events"
    );
}

#[test]
fn hostile_replay_is_deterministic_and_names_the_injected_root() {
    // A certain spurious eviction under clusters: the runtime's next
    // touch of the evicted page faults, the handler sees a fault on a
    // page it believes resident... but self-paging treats that as a
    // legitimate refetch only when tracking was reconciled; the verdict
    // depends on the workload. Either way the *determinism* contract
    // must hold, and any attack verdict must trace back to the
    // injection.
    let schedule = Schedule {
        fault_plan: Some(FaultPlan {
            spurious_evict: 1.0,
            max_injections: Some(4),
            ..FaultPlan::quiescent(11)
        }),
        ..Schedule::ci_matrix()[0].clone()
    };
    let verdict = verify_replay(&schedule);
    assert!(
        verdict.divergence.is_none(),
        "hostile run must still replay"
    );
    assert!(verdict.telemetry_identical);
    assert!(verdict.outcome_identical);
    let has_injection = verdict.record.records.iter().any(|r| {
        matches!(
            &r.event,
            FlightEvent::Kernel(autarky_os_sim::Observation::FaultInjected { .. })
        )
    });
    assert!(has_injection, "the plan fired at least once");
    if verdict.record.outcome.contains("attack detected") {
        let (attack, inj) =
            causal_root_of_attack(&verdict.record.records).expect("verdict has a causal root");
        assert!(matches!(attack.event, FlightEvent::AttackDetected { .. }));
        assert!(matches!(inj.event, FlightEvent::Kernel(_)));
    }
}
