//! The replay engine: drive a [`Schedule`] through a freshly built
//! world with the flight recorder armed, then drive it *again* and
//! require the two runs to be indistinguishable artifacts.
//!
//! Determinism here is end-to-end: the comparison is on the typed flight
//! records (every event, cycle stamp, and correlation id) and on the
//! fixed-size telemetry aggregate snapshot. The recorder's observer
//! effect — `RECORD_COST_CYCLES` charged per record under
//! `CostTag::Recorder` — is identical in both runs because both arm the
//! recorder the same way; a recorded run is never compared against a
//! silent one.

use autarky_os_sim::flight::decisions_resolved;
use autarky_os_sim::FlightRecord;
use autarky_runtime::RtError;
use autarky_workloads::{EncHeap, World};

use crate::diff::{first_divergence, Divergence};
use crate::schedule::{Schedule, SchedulePolicy};
use crate::victim::{build_world, crash_and_restore};

/// Flight-ring capacity for recorded runs: comfortably larger than any
/// CI schedule produces, so recordings never wrap (a wrapped recording
/// still replays identically, but the post-mortem would lose its head).
pub const RECORDER_CAPACITY: usize = 1 << 16;

/// Self-paging resident budget of a scheduled run. It does not make
/// every victim page; [`build_world`] records which runs do.
const BUDGET_PAGES: usize = 32;

/// Everything one recorded run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArtifacts {
    /// The flight log.
    pub records: Vec<FlightRecord>,
    /// The fixed-size export plaintext: telemetry aggregates plus the
    /// runtime's counters ([`autarky_runtime::Runtime::export_plaintext`]).
    pub telemetry_snapshot: Vec<u8>,
    /// `"ok"`, or the runtime error display when the run terminated.
    pub outcome: String,
    /// Events the ring dropped (0 for every CI schedule).
    pub dropped: u64,
}

/// The record → replay comparison for one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayVerdict {
    /// The schedule that was run twice.
    pub schedule: Schedule,
    /// Whether the export plaintexts were byte-identical.
    pub telemetry_identical: bool,
    /// Whether both runs ended the same way.
    pub outcome_identical: bool,
    /// Whether every runtime decision in the last 50 recorded events
    /// resolves to its provoking chain root.
    pub decisions_resolved: bool,
    /// First record where the two flight logs differ; `None` when they
    /// are identical.
    pub divergence: Option<Divergence>,
    /// The recording.
    pub record: RunArtifacts,
    /// The replay.
    pub replay: RunArtifacts,
}

impl ReplayVerdict {
    /// The determinism gate: identical flight records, bit-identical
    /// export plaintexts, equal outcomes and a fully resolved decision
    /// window.
    pub fn deterministic(&self) -> bool {
        self.divergence.is_none()
            && self.telemetry_identical
            && self.outcome_identical
            && self.decisions_resolved
    }
}

/// Record one run of `schedule`: build the world, arm the recorder, run
/// the victim (arming the fault plan after setup), and capture the
/// artifacts.
pub fn record_run(schedule: &Schedule) -> RunArtifacts {
    record_run_inner(schedule, RECORDER_CAPACITY, false)
}

/// [`record_run`] with an explicit flight-ring capacity, for exercising
/// the ring's overwrite-oldest overflow path: a saturated ring must drop
/// deterministically (same `dropped` count, same surviving suffix) so
/// post-mortems of long runs stay replayable.
pub fn record_run_with_capacity(schedule: &Schedule, capacity: usize) -> RunArtifacts {
    record_run_inner(schedule, capacity, false)
}

/// Record one run of `schedule`, interrupting the secret phase at the
/// victim's failover point with a sealed snapshot, a host crash, and a
/// restore onto a freshly booted machine. The determinism claim: the returned
/// artifacts are byte-identical to an uninterrupted [`record_run`],
/// because a successful snapshot/restore cycle records nothing and
/// charges no cycles — the machine was simply off.
pub fn record_run_with_restore(schedule: &Schedule) -> RunArtifacts {
    record_run_inner(schedule, RECORDER_CAPACITY, true)
}

fn record_run_inner(schedule: &Schedule, capacity: usize, restore_midway: bool) -> RunArtifacts {
    let (mut world, mut heap) = schedule_world(schedule);
    world.os.arm_flight_recorder(capacity);
    let outcome = match run_schedule(schedule, &mut world, &mut heap, restore_midway) {
        Ok(()) => "ok".to_owned(),
        Err(e) => format!("err: {e}"),
    };
    let recorder = world
        .os
        .disarm_flight_recorder()
        .expect("recorder was armed for the whole run");
    RunArtifacts {
        records: recorder.snapshot(),
        telemetry_snapshot: world.rt.export_plaintext(),
        outcome,
        dropped: recorder.dropped(),
    }
}

/// Run `schedule` twice from scratch and compare the artifacts.
pub fn verify_replay(schedule: &Schedule) -> ReplayVerdict {
    let record = record_run(schedule);
    let replay = record_run(schedule);
    compare_runs(schedule, record, replay)
}

/// Run `schedule` uninterrupted, then again with a mid-run snapshot →
/// crash → failover-restore cycle, and require the two runs to be
/// indistinguishable artifacts (the `replay` side is the restored run).
pub fn verify_restore_replay(schedule: &Schedule) -> ReplayVerdict {
    let record = record_run(schedule);
    let restored = record_run_with_restore(schedule);
    compare_runs(schedule, record, restored)
}

fn compare_runs(schedule: &Schedule, record: RunArtifacts, replay: RunArtifacts) -> ReplayVerdict {
    ReplayVerdict {
        schedule: schedule.clone(),
        divergence: first_divergence(&record.records, &replay.records),
        telemetry_identical: record.telemetry_snapshot == replay.telemetry_snapshot,
        outcome_identical: record.outcome == replay.outcome,
        decisions_resolved: decisions_resolved(&record.records, 50),
        record,
        replay,
    }
}

/// Build the world a schedule runs in.
pub(crate) fn schedule_world(schedule: &Schedule) -> (World, EncHeap) {
    build_world(
        Some(schedule.policy),
        BUDGET_PAGES,
        0xF11_6000 + schedule.seed * 7919,
    )
}

/// Drive the schedule's victim: after setup, page the enclave out and
/// arm the fault plan so the secret phase runs under fire; export
/// telemetry on the victim's period; when `restore_midway`, run one
/// failover cycle at the victim's failover point.
fn run_schedule(
    schedule: &Schedule,
    world: &mut World,
    heap: &mut EncHeap,
    restore_midway: bool,
) -> Result<(), RtError> {
    let victim = schedule.workload;
    let phase = victim.setup(world, heap, 0).expect("victim setup");
    phase.run(world, heap, |world, _, done| {
        if done == 0 {
            begin_secret_phase(schedule, world)?;
        }
        if victim.exports_at(done) {
            world.rt.export_epoch(&mut world.os)?;
        }
        if restore_midway && done == victim.failover_point() {
            crash_and_restore(world);
        }
        Ok(())
    })
}

/// Transition from setup to the secret-dependent phase: page the
/// enclave out (self-paging policies only — under PinAll that would
/// manufacture attack verdicts), so the phase re-faults its working set
/// and the log carries the full fault → decision → fetch surface; then
/// arm the schedule's fault plan.
fn begin_secret_phase(schedule: &Schedule, world: &mut World) -> Result<(), RtError> {
    if schedule.policy != SchedulePolicy::CachedOram {
        let resident: Vec<_> = world
            .image
            .code_range()
            .chain(world.image.heap_range())
            .filter(|&p| world.rt.residency(p) == Some(true))
            .collect();
        world.rt.evict_pages(&mut world.os, &resident)?;
    }
    if let Some(plan) = &schedule.fault_plan {
        world.os.arm_fault_plan(plan.clone());
    }
    Ok(())
}
