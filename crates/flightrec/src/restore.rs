//! Staged rollback attacks against sealed checkpoint/restore.
//!
//! The hostile OS transports every sealed snapshot and can present any
//! of them (or a mangled one) at restore time. This module stages the
//! four rollback-family attacks end to end — run a real workload,
//! snapshot it, crash the host, then offer the failover host a bad blob
//! — and reports whether the restore path (a) refused, (b) recorded an
//! `AttackDetected` verdict in the flight ring, and (c) let forensics
//! resolve that verdict back to the staged injection. The `snapshot`
//! campaign cells require all three across many seeds.

use autarky_os_sim::flight::causal_root_of_attack;
use autarky_os_sim::{FlightEvent, FlightRecord, InjectedFault, Observation, Os};
use autarky_sgx_sim::machine::MachineConfig;
use autarky_sgx_sim::MonotonicCounter;
use autarky_snapshot::{restore, snapshot};
use autarky_workloads::spell;

use crate::replay::build_world;
use crate::schedule::{Schedule, SchedulePolicy, ScheduleWorkload};

/// The rollback-family attack being staged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollbackScenario {
    /// Offer an old snapshot after a newer one superseded it.
    Stale,
    /// Offer the same snapshot twice (restore on two hosts).
    Fork,
    /// Offer a truncated blob.
    Truncate,
    /// Roll the platform counter back so a stale blob looks fresh.
    CounterRollback,
}

impl RollbackScenario {
    /// Every staged scenario, in the order the CI gate cycles them.
    pub const ALL: [RollbackScenario; 4] = [
        RollbackScenario::Stale,
        RollbackScenario::Fork,
        RollbackScenario::Truncate,
        RollbackScenario::CounterRollback,
    ];

    /// Stable label for reports.
    pub fn name(self) -> &'static str {
        match self {
            RollbackScenario::Stale => "stale",
            RollbackScenario::Fork => "fork",
            RollbackScenario::Truncate => "truncate",
            RollbackScenario::CounterRollback => "counter-rollback",
        }
    }
}

/// What one staged attack produced.
#[derive(Debug, Clone)]
pub struct RollbackOutcome {
    /// The staged scenario.
    pub scenario: RollbackScenario,
    /// World seed the run used.
    pub seed: u64,
    /// The restore call refused the blob.
    pub restore_failed: bool,
    /// An `AttackDetected` verdict landed in the flight ring.
    pub attack_recorded: bool,
    /// `causal_root_of_attack` resolved the verdict to the staged
    /// injection (not some unrelated event).
    pub root_names_injection: bool,
    /// Display of the restore error (`"ok"` if it wrongly succeeded).
    pub error: String,
    /// The failover host's flight log, for post-mortem rendering.
    pub records: Vec<FlightRecord>,
}

impl RollbackOutcome {
    /// The gate's pass condition: refused, recorded, and attributed.
    pub fn detected(&self) -> bool {
        self.restore_failed && self.attack_recorded && self.root_names_injection
    }
}

/// Stage one rollback attack end to end on a spell-checker world.
///
/// The happy-path half (workload, snapshot, failover adoption) must
/// succeed — failures there panic, because they are harness bugs. Only
/// the final hostile restore is allowed to fail, and its outcome is
/// what the caller grades.
pub fn rollback_attack_run(seed: u64, scenario: RollbackScenario) -> RollbackOutcome {
    const DICT_WORDS: usize = 100;
    let schedule = Schedule::quiet(SchedulePolicy::Clusters, ScheduleWorkload::Spell, 0, seed);
    let (mut world, mut heap) = build_world(&schedule);
    let dictionary =
        spell::Dictionary::load(&mut world, &mut heap, "en", DICT_WORDS).expect("dictionary");
    let (text, _) = spell::secret_pair("en", DICT_WORDS, 8);
    for word in &text[..4] {
        dictionary
            .check(&mut world, &mut heap, word)
            .expect("check");
    }
    let eid = world.eid;
    let mut counter = MonotonicCounter::new(world.os.machine.platform_key(), eid);
    let first = snapshot(&world.os, &world.rt, &mut counter).expect("snapshot v1");
    // More work: state the stale blob is missing.
    for word in &text[4..] {
        dictionary
            .check(&mut world, &mut heap, word)
            .expect("check");
    }

    let (blob, injected) = match scenario {
        RollbackScenario::Stale => {
            let _fresh = snapshot(&world.os, &world.rt, &mut counter).expect("snapshot v2");
            (first, InjectedFault::StaleSnapshot { counter: 1 })
        }
        RollbackScenario::Fork => {
            // The first host legitimately restores the blob, consuming
            // its counter value; the attacker then replays it elsewhere.
            let mut mid = Os::new(MachineConfig::default());
            mid.adopt_untrusted_state(&mut world.os, eid)
                .expect("adopt");
            let rt = restore(&mut mid, &mut counter, &first).expect("legitimate restore");
            world.os = mid;
            world.rt = rt;
            (first, InjectedFault::ForkedSnapshot { counter: 1 })
        }
        RollbackScenario::Truncate => {
            let len = first.len() - 7;
            let _fresh = snapshot(&world.os, &world.rt, &mut counter).expect("snapshot v2");
            (
                first[..len].to_vec(),
                InjectedFault::TruncatedSnapshot { len },
            )
        }
        RollbackScenario::CounterRollback => {
            let _fresh = snapshot(&world.os, &world.rt, &mut counter).expect("snapshot v2");
            // Overwrite the counter so the stale blob's sealed value
            // matches again — detectable because the MAC can't be forged.
            counter.hostile_overwrite(1);
            (first, InjectedFault::CounterRollback { to: 1 })
        }
    };

    let mut host = Os::new(MachineConfig::default());
    host.adopt_untrusted_state(&mut world.os, eid)
        .expect("failover host adopts OS-side state");
    host.arm_flight_recorder(512);
    host.record_snapshot_attack(eid, injected);
    let result = restore(&mut host, &mut counter, &blob);
    let (restore_failed, error) = match &result {
        Ok(_) => (false, "ok".to_owned()),
        Err(e) => (true, e.to_string()),
    };
    let records = host.flight_snapshot();
    let attack_recorded = records
        .iter()
        .any(|r| matches!(r.event, FlightEvent::AttackDetected { .. }));
    let root_names_injection = causal_root_of_attack(&records)
        .map(|(_, root)| {
            matches!(
                &root.event,
                FlightEvent::Kernel(Observation::FaultInjected { fault, .. })
                    if *fault == injected
            )
        })
        .unwrap_or(false);
    RollbackOutcome {
        scenario,
        seed,
        restore_failed,
        attack_recorded,
        root_names_injection,
        error,
        records,
    }
}
