//! Fleet supervisor integration tests: failover, admission control,
//! degradation, and the seeded replacement property.

use autarky_fleet::{
    kv_stream, Arrivals, Fleet, FleetConfig, FleetReport, LoadConfig, MemberConfig, StagedCrash,
    TimedRequest, WorkloadKind,
};
use autarky_os_sim::{FaultPlan, FlightEvent};
use autarky_runtime::RuntimeConfig;

const ITEMS: u64 = 64;

fn kv_member(name: &str, budget: usize) -> MemberConfig {
    MemberConfig {
        name: name.into(),
        workload: WorkloadKind::Kv {
            items: ITEMS,
            // Two items per page: enough item pages that a small budget
            // keeps the member faulting (and thus injectable) all run.
            value_size: 2048,
        },
        heap_pages: 192,
        epc_quota: 0,
        runtime: RuntimeConfig {
            budget,
            ..Default::default()
        },
        pin_kv_metadata: false,
    }
}

fn fleet_cfg(members: Vec<MemberConfig>) -> FleetConfig {
    FleetConfig {
        epc_frames: 2048,
        members,
        queue_cap: 256,
        watchdog_cycles: 20_000_000,
        // One egregious overrun is enough: injected stalls can land
        // multiple syscall delays inside a single request, so a strike
        // threshold > 1 could let a wedge hide inside one serve call.
        max_watchdog_strikes: 1,
        snapshot_every: 32,
        epc_reserve_frames: 0,
        // Large enough that early supervisor events survive the
        // thousands of paging records a full run appends after them.
        flight_capacity: 1 << 18,
        staged_crash: None,
        watch: false,
    }
}

fn kv_traffic(seed: u64, requests: usize) -> Vec<TimedRequest> {
    kv_stream(
        LoadConfig {
            seed,
            requests,
            arrivals: Arrivals::Poisson {
                mean_gap_cycles: 300_000,
            },
            start_cycles: 1_000,
        },
        ITEMS,
        // Near-uniform skew keeps the working set larger than the
        // budget, so fetch syscalls (the injection surface) never dry up.
        0.2,
    )
}

/// A plan whose single injection corrupts a sealed backing blob at the
/// next fetch. The MAC failure surfaces as a (persistent) OS error, so
/// this exercises the *retry ladder*: every retry re-reads the same
/// corrupted blob, the ladder exhausts, and the member is restarted.
fn corruption_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        corrupt_backing: 1.0,
        max_injections: Some(1),
        ..FaultPlan::quiescent(seed)
    }
}

/// A plan that spuriously evicts pinned pages behind the runtime's
/// back: the next touch of a victim page is an unexpected fault on a
/// supposedly-resident page, which trips `AttackDetected` and
/// terminates the enclave (the paper's controlled-channel response).
fn attack_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        spurious_evict: 1.0,
        // Unbounded: a capped burst can evaporate without detection
        // when the runtime's own eviction policy (which also prefers
        // cold pages) reclaims every ghost page before it is touched.
        // Continuous eviction drains the believed-resident set until a
        // touch MUST land on a ghost; the supervisor disarms the plan
        // at the first failover, so exactly one incarnation is hit.
        max_injections: None,
        ..FaultPlan::quiescent(seed)
    }
}

/// A plan that wedges the member: each injection stalls one syscall far
/// past the per-request watchdog budget.
fn wedge_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        delay: 1.0,
        delay_cycles: 100_000_000,
        max_injections: Some(2),
        ..FaultPlan::quiescent(seed)
    }
}

#[test]
fn healthy_fleet_serves_every_request() {
    let cfg = fleet_cfg(vec![kv_member("kv-a", 24), kv_member("kv-b", 24)]);
    let mut fleet = Fleet::new(cfg).expect("fleet boots");
    let stats = fleet
        .run(vec![kv_traffic(1, 80), kv_traffic(2, 80)])
        .expect("run");
    let report = FleetReport::from_stats(&stats, fleet.now());
    assert!(report.all_accounted(), "no silent drops");
    for s in &stats {
        assert_eq!(s.offered, 80);
        assert_eq!(s.served, 80, "{}: healthy member serves everything", s.name);
        assert_eq!(s.restarts, 0);
        assert!(!s.evicted);
        assert!(s.latency.count() == 80);
    }
}

#[test]
fn staged_corruption_restarts_victim_byte_identically() {
    let mut cfg = fleet_cfg(vec![kv_member("kv-a", 16), kv_member("kv-b", 16)]);
    cfg.staged_crash = Some(StagedCrash {
        after_total_served: 10,
        member: 0,
        plan: corruption_plan(77),
    });
    let mut fleet = Fleet::new(cfg).expect("fleet boots");
    let stats = fleet
        .run(vec![kv_traffic(3, 100), kv_traffic(4, 100)])
        .expect("run");
    let report = FleetReport::from_stats(&stats, fleet.now());
    assert!(report.all_accounted(), "no silent drops");
    assert!(report.all_byte_identical(), "restores are byte-identical");
    assert!(
        stats[0].restarts >= 1,
        "the attacked member was restarted (restarts={})",
        stats[0].restarts
    );
    assert_eq!(stats[1].restarts, 0, "the neighbor was not disturbed");
    assert_eq!(stats[0].served, 100, "victim caught up after failover");
    assert_eq!(stats[1].served, 100);
    assert!(
        stats[0].max_recovery_cycles <= 500_000_000,
        "recovery within budget, took {}",
        stats[0].max_recovery_cycles
    );

    // Forensics: the flight recorder names the restart and its cause.
    let eid = fleet.member_eid(0);
    let records = fleet.flight_log();
    let restart = records.iter().find_map(|r| match &r.event {
        FlightEvent::Supervisor {
            eid: e,
            action,
            why,
        } if *e == eid && *action == "restart" => Some(why.clone()),
        _ => None,
    });
    let why = restart.expect("supervisor restart event recorded");
    assert!(
        why.contains("byte-identical: true"),
        "restart event records the byte-identical verdict: {why}"
    );
}

#[test]
fn attack_detected_member_fails_over() {
    let mut cfg = fleet_cfg(vec![kv_member("kv-a", 16), kv_member("kv-b", 16)]);
    cfg.staged_crash = Some(StagedCrash {
        after_total_served: 10,
        member: 0,
        plan: attack_plan(55),
    });
    let mut fleet = Fleet::new(cfg).expect("fleet boots");
    let stats = fleet
        .run(vec![kv_traffic(15, 100), kv_traffic(16, 100)])
        .expect("run");
    let report = FleetReport::from_stats(&stats, fleet.now());
    assert!(report.all_accounted());
    assert!(report.all_byte_identical());
    assert!(stats[0].restarts >= 1, "terminated member was replaced");
    assert!(!stats[0].evicted);
    assert_eq!(stats[0].served, 100, "victim caught up after failover");

    // The supervisor's quarantine decision names the termination cause.
    let eid = fleet.member_eid(0);
    let records = fleet.flight_log();
    assert!(
        records.iter().any(|r| matches!(
            &r.event,
            FlightEvent::Supervisor { eid: e, action, why }
                if *e == eid && *action == "quarantine" && why.contains("attack detected")
        )),
        "quarantine event records the attack-detected cause"
    );
}

#[test]
fn wedged_member_trips_watchdog_and_restarts() {
    let mut cfg = fleet_cfg(vec![kv_member("kv-a", 16), kv_member("kv-b", 16)]);
    cfg.staged_crash = Some(StagedCrash {
        after_total_served: 8,
        member: 0,
        plan: wedge_plan(5),
    });
    let mut fleet = Fleet::new(cfg).expect("fleet boots");
    let stats = fleet
        .run(vec![kv_traffic(5, 100), kv_traffic(6, 100)])
        .expect("run");
    let report = FleetReport::from_stats(&stats, fleet.now());
    assert!(report.all_accounted());
    assert!(
        stats[0].watchdog_strikes >= 1,
        "stalled requests strike the watchdog (strikes={})",
        stats[0].watchdog_strikes
    );
    assert!(stats[0].restarts >= 1, "strikes escalate to a restart");
    assert!(report.all_byte_identical());
    assert_eq!(stats[0].served, 100, "wedged member still serves its queue");
}

#[test]
fn queue_overflow_sheds_load_explicitly() {
    let mut cfg = fleet_cfg(vec![kv_member("kv-a", 24)]);
    cfg.queue_cap = 4;
    let traffic = kv_stream(
        LoadConfig {
            seed: 9,
            requests: 120,
            arrivals: Arrivals::Bursty {
                burst_gap_cycles: 10,
                burst_len: 40,
                idle_gap_cycles: 50_000_000,
            },
            start_cycles: 1_000,
        },
        ITEMS,
        0.2,
    );
    let mut fleet = Fleet::new(cfg).expect("fleet boots");
    let stats = fleet.run(vec![traffic]).expect("run");
    let report = FleetReport::from_stats(&stats, fleet.now());
    assert!(report.all_accounted(), "sheds are explicit rejections");
    assert!(
        stats[0].rejected_queue_full > 0,
        "a 40-deep burst against a 4-slot queue must shed"
    );
    assert_eq!(
        stats[0].offered,
        stats[0].served + stats[0].rejected_queue_full,
        "offered = served + shed"
    );
}

#[test]
fn exhausted_restart_budget_evicts_and_rejects_remainder() {
    // kv-a pages under its 16-page budget, so some of its requests take
    // several faults; kv-b holds its whole store resident and never
    // faults (about 125k cycles a request). A 300k-cycle watchdog
    // strikes kv-a again after each restart, until the supervisor's
    // restart budget is spent and the next strike evicts it.
    let mut cfg = fleet_cfg(vec![kv_member("kv-a", 16), kv_member("kv-b", 0)]);
    cfg.watchdog_cycles = 300_000;
    let mut fleet = Fleet::new(cfg).expect("fleet boots");
    let stats = fleet
        .run(vec![kv_traffic(7, 80), kv_traffic(8, 80)])
        .expect("run");
    let report = FleetReport::from_stats(&stats, fleet.now());
    assert!(report.all_accounted(), "eviction never drops silently");
    assert!(stats[0].evicted, "a spent restart budget means eviction");
    assert_eq!(
        stats[0].restarts, 3,
        "evicted on the failure after the last restart"
    );
    assert!(
        stats[0].rejected_evicted > 0,
        "requests after eviction are explicitly rejected"
    );
    assert_eq!(stats[1].served, 80, "the survivor is unaffected");
    assert_eq!(stats[1].watchdog_strikes, 0);
    assert!(!stats[1].evicted);
}

/// Satellite 3 — the replacement property, over 100 seeds: a wedged or
/// `AttackDetected` member is always replaced within its restart budget,
/// the replacement resumes byte-identically from its snapshot, and no
/// accepted request is silently dropped.
#[test]
fn property_replacement_within_budget_over_seeds() {
    for seed in 0..100u64 {
        // Rotate through the three failure modes: AttackDetected
        // termination, a wedge past the watchdog budget, and a
        // persistent fetch failure that exhausts the retry ladder.
        let plan = match seed % 3 {
            0 => attack_plan(seed),
            1 => wedge_plan(seed),
            _ => corruption_plan(seed),
        };
        let wedge = seed % 3 == 1;
        let mut cfg = fleet_cfg(vec![kv_member("kv-a", 16), kv_member("kv-b", 16)]);
        cfg.staged_crash = Some(StagedCrash {
            after_total_served: 4 + seed % 7,
            member: (seed % 2) as usize,
            plan,
        });
        let victim = (seed % 2) as usize;
        let mut fleet = Fleet::new(cfg).expect("fleet boots");
        let stats = fleet
            .run(vec![
                kv_traffic(seed.wrapping_mul(31).wrapping_add(1), 60),
                kv_traffic(seed.wrapping_mul(37).wrapping_add(2), 60),
            ])
            .expect("run");
        let report = FleetReport::from_stats(&stats, fleet.now());
        assert!(report.all_accounted(), "seed {seed}: silent drop");
        assert!(
            report.all_byte_identical(),
            "seed {seed}: restore diverged from checkpoint"
        );
        assert!(
            stats[victim].restarts >= 1,
            "seed {seed}: victim was never replaced (wedge={wedge})"
        );
        assert!(
            stats[victim].max_recovery_cycles <= 500_000_000,
            "seed {seed}: recovery took {} cycles",
            stats[victim].max_recovery_cycles
        );
        assert!(!stats[victim].evicted, "seed {seed}: replacement succeeded");
        assert_eq!(
            stats[1 - victim].restarts,
            0,
            "seed {seed}: the targeted plan must not touch the neighbor"
        );
        for s in &stats {
            assert_eq!(
                s.offered,
                s.served + s.rejected_queue_full + s.rejected_evicted,
                "seed {seed}: {} accounting",
                s.name
            );
        }
    }
}

/// Degradation order: when free EPC is below the configured reserve at
/// restart time, healthy members are shrunk (cooperative `ay_shrink`)
/// before the victim is torn down — and keep serving afterwards.
#[test]
fn restart_shrinks_healthy_neighbors_first() {
    let mut cfg = fleet_cfg(vec![kv_member("kv-a", 32), kv_member("kv-b", 32)]);
    // A reserve no fleet this size can satisfy forces the degradation
    // path on every restart.
    cfg.epc_reserve_frames = cfg.epc_frames;
    cfg.staged_crash = Some(StagedCrash {
        after_total_served: 10,
        member: 0,
        plan: corruption_plan(33),
    });
    let mut fleet = Fleet::new(cfg).expect("fleet boots");
    let stats = fleet
        .run(vec![kv_traffic(13, 80), kv_traffic(14, 80)])
        .expect("run");
    let report = FleetReport::from_stats(&stats, fleet.now());
    assert!(report.all_accounted());
    assert!(stats[0].restarts >= 1, "victim restarted");
    assert!(
        stats[1].shrinks >= 1,
        "the healthy neighbor was asked to shrink before the kill"
    );
    assert_eq!(stats[1].served, 80, "shrunk neighbor keeps serving");
    assert!(report.all_byte_identical());
}

/// Satellite 4 — EPC contention fairness: under sustained two-enclave
/// pressure (per-enclave quotas tighter than the working sets) neither
/// member is starved, and their legitimate fault rates stay within a
/// bounded ratio of each other.
#[test]
fn epc_contention_is_fair_between_members() {
    let mut a = kv_member("kv-a", 0);
    let mut b = kv_member("kv-b", 0);
    // No self-imposed budget; pressure comes from the OS-side quota, so
    // both members lean on the ballooning/shrink path under contention.
    a.epc_quota = 40;
    b.epc_quota = 40;
    let cfg = fleet_cfg(vec![a, b]);
    let mut fleet = Fleet::new(cfg).expect("fleet boots under quota");
    let stats = fleet
        .run(vec![kv_traffic(11, 120), kv_traffic(12, 120)])
        .expect("run");
    let report = FleetReport::from_stats(&stats, fleet.now());
    assert!(report.all_accounted());
    for s in &stats {
        assert!(
            s.served >= s.offered * 8 / 10,
            "{} starved: served {}/{}",
            s.name,
            s.served,
            s.offered
        );
        assert!(
            s.fault_count > 0,
            "{} must actually page under quota pressure",
            s.name
        );
    }
    let (fa, fb) = (stats[0].fault_count, stats[1].fault_count);
    let (hi, lo) = (fa.max(fb), fa.min(fb).max(1));
    assert!(
        hi / lo <= 8,
        "fault-rate ratio {fa}:{fb} exceeds the fairness bound"
    );
}
