//! The replay engine: drive a [`Schedule`] through a freshly built
//! world with the flight recorder armed, then drive it *again* and
//! require the two runs to be indistinguishable artifacts.
//!
//! Determinism here is end-to-end: the comparison is on the wire-encoded
//! flight log (every event, cycle stamp, and correlation id) and on the
//! fixed-size telemetry aggregate snapshot. The recorder's observer
//! effect — `RECORD_COST_CYCLES` charged per record under
//! `CostTag::Recorder` — is identical in both runs because both arm the
//! recorder the same way; a recorded run is never compared against a
//! silent one.

use autarky::{Profile, SystemBuilder};
use autarky_os_sim::flight::decisions_resolved;
use autarky_os_sim::wire::encode_flight_log;
use autarky_os_sim::{FlightRecord, Os};
use autarky_runtime::RtError;
use autarky_sgx_sim::machine::MachineConfig;
use autarky_sgx_sim::MonotonicCounter;
use autarky_workloads::{font, jpeg, kvstore, spell, EncHeap, World};

use crate::diff::{first_divergence, Divergence};
use crate::schedule::{Schedule, SchedulePolicy, ScheduleWorkload};

/// Flight-ring capacity for recorded runs: comfortably larger than any
/// CI schedule produces, so recordings never wrap (a wrapped recording
/// still replays identically, but the post-mortem would lose its head).
pub const RECORDER_CAPACITY: usize = 1 << 16;

/// Self-paging resident budget. Deliberately tighter than the leakage
/// audit's 48: the determinism gate wants the full decision surface in
/// the log (faults, cluster fetches, evictions, rate-limit admissions),
/// so the working set must not fit.
const BUDGET_PAGES: usize = 32;

/// Everything one recorded run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArtifacts {
    /// The decoded flight log.
    pub records: Vec<FlightRecord>,
    /// The same log, wire-encoded (the comparison surface).
    pub log_text: String,
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
    /// Whether the wire-encoded flight logs were byte-identical.
    pub log_identical: bool,
    /// Whether the export plaintexts were byte-identical.
    pub telemetry_identical: bool,
    /// Whether both runs ended the same way.
    pub outcome_identical: bool,
    /// Whether every runtime decision in the last 50 recorded events
    /// resolves to its provoking chain root.
    pub decisions_resolved: bool,
    /// First causal divergence between the two logs, when any.
    pub divergence: Option<Divergence>,
    /// The recording.
    pub record: RunArtifacts,
    /// The replay.
    pub replay: RunArtifacts,
}

impl ReplayVerdict {
    /// The determinism gate: bit-identical artifacts and a fully
    /// resolved decision window.
    pub fn deterministic(&self) -> bool {
        self.log_identical
            && self.telemetry_identical
            && self.outcome_identical
            && self.decisions_resolved
    }
}

/// Record one run of `schedule`: build the world, arm the recorder, run
/// the workload (arming the fault plan after setup), and capture the
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

/// Record one run of `schedule`, interrupting the secret phase at its
/// midpoint with a sealed snapshot, a host crash, and a restore onto a
/// freshly booted machine. The tentpole determinism claim: the returned
/// artifacts are byte-identical to an uninterrupted [`record_run`],
/// because a successful snapshot/restore cycle records nothing and
/// charges no cycles — the machine was simply off.
pub fn record_run_with_restore(schedule: &Schedule) -> RunArtifacts {
    record_run_inner(schedule, RECORDER_CAPACITY, true)
}

fn record_run_inner(schedule: &Schedule, capacity: usize, restore_midway: bool) -> RunArtifacts {
    let (mut world, mut heap) = build_world(schedule);
    world.os.arm_flight_recorder(capacity);
    let mut hook: Option<MidHook> = restore_midway.then_some(crash_and_restore as MidHook);
    let outcome = match run_workload_hooked(schedule, &mut world, &mut heap, &mut hook) {
        Ok(()) => "ok".to_owned(),
        Err(e) => format!("err: {e}"),
    };
    let recorder = world
        .os
        .disarm_flight_recorder()
        .expect("recorder was armed for the whole run");
    let records = recorder.snapshot();
    let log_text = encode_flight_log(&records);
    RunArtifacts {
        log_text,
        telemetry_snapshot: world.rt.export_plaintext(),
        outcome,
        dropped: recorder.dropped(),
        records,
    }
}

/// A mid-workload interruption: called once, at the midpoint of the
/// secret phase, between operations (so correlation chains are closed
/// and machine transitions drained).
type MidHook = fn(&mut World);

/// Snapshot the enclave, crash the host, boot a failover host that
/// adopts the enclave's untrusted OS-side state (backing store, fault
/// injector, flight recorder), and restore from the sealed blob.
///
/// Panics on any failure: in the replay harness the snapshot cycle is
/// the happy path, and a failure here is a harness or codec bug, not a
/// simulated attack.
pub fn crash_and_restore(world: &mut World) {
    let mut counter = MonotonicCounter::new(world.os.machine.platform_key(), world.eid);
    let blob =
        autarky_snapshot::snapshot(&world.os, &world.rt, &mut counter).expect("mid-run snapshot");
    // `build_world` uses the default machine geometry; the failover host
    // must match it (a failover to different hardware is out of scope).
    let mut host = Os::new(MachineConfig::default());
    host.adopt_untrusted_state(&mut world.os, world.eid)
        .expect("failover host adopts OS-side state");
    world.os = host;
    world.rt = autarky_snapshot::restore(&mut world.os, &mut counter, &blob)
        .expect("restore on failover host");
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
    let divergence = first_divergence(&record.log_text, &replay.log_text);
    ReplayVerdict {
        schedule: schedule.clone(),
        log_identical: record.log_text == replay.log_text,
        telemetry_identical: record.telemetry_snapshot == replay.telemetry_snapshot,
        outcome_identical: record.outcome == replay.outcome,
        decisions_resolved: decisions_resolved(&record.records, 50),
        divergence,
        record,
        replay,
    }
}

/// Build the world for a schedule, mirroring the leakage audit's
/// geometry so runs page under pressure.
pub(crate) fn build_world(schedule: &Schedule) -> (World, EncHeap) {
    let (profile, budget) = match schedule.policy {
        SchedulePolicy::Clusters => (
            Profile::Clusters {
                pages_per_cluster: 10,
            },
            BUDGET_PAGES,
        ),
        SchedulePolicy::RateLimit => (
            Profile::RateLimited {
                max_faults_per_progress: 64.0,
                burst: 4096,
            },
            BUDGET_PAGES,
        ),
        SchedulePolicy::CachedOram => (
            Profile::CachedOram {
                capacity_pages: 512,
                cache_pages: 24,
            },
            0,
        ),
    };
    let (world, heap) = SystemBuilder::new("flightrec", profile)
        .epc_pages(4096)
        .heap_pages(1024)
        .code_pages(24)
        .budget_pages(budget)
        .seed(0xF11_6000 + schedule.seed * 7919)
        .build()
        .expect("flightrec world builds");
    (world, heap)
}

/// Arm the schedule's fault plan (after setup, so the secret phase runs
/// under fire) and drive the workload. When `hook` is set, fire it once
/// at the midpoint of the secret phase (for [`record_run_with_restore`]);
/// the hook point is between operations, where no correlation chain is
/// open and the machine's transition log has drained.
fn run_workload_hooked(
    schedule: &Schedule,
    world: &mut World,
    heap: &mut EncHeap,
    hook: &mut Option<MidHook>,
) -> Result<(), RtError> {
    match schedule.workload {
        ScheduleWorkload::Jpeg => {
            const SIDE: usize = 32;
            let (img_a, img_b) = jpeg::secret_pair(SIDE);
            let image = if schedule.secret == 0 { img_a } else { img_b };
            let compressed = jpeg::encode(SIDE, SIDE, &image);
            let mut decoder = jpeg::Decoder::new(world, heap, SIDE, SIDE).expect("decoder");
            begin_secret_phase(schedule, world)?;
            // The decode is one opaque operation; interrupt before it.
            fire_hook(hook, world);
            decoder.decode(world, heap, &compressed)?;
        }
        ScheduleWorkload::Font => {
            const LEN: usize = 16;
            let (text_a, text_b) = font::secret_pair(LEN);
            let text = if schedule.secret == 0 { text_a } else { text_b };
            let mut renderer = font::FontRenderer::new(world, heap, LEN).expect("renderer");
            begin_secret_phase(schedule, world)?;
            fire_hook(hook, world);
            renderer.render_text(world, heap, &text)?;
        }
        ScheduleWorkload::Spell => {
            const DICT_WORDS: usize = 300;
            const QUERY_WORDS: usize = 24;
            let dictionary = spell::Dictionary::load(world, heap, "en", DICT_WORDS).expect("dict");
            let (text_a, text_b) = spell::secret_pair("en", DICT_WORDS, QUERY_WORDS);
            let text = if schedule.secret == 0 { text_a } else { text_b };
            begin_secret_phase(schedule, world)?;
            for (i, word) in text.iter().enumerate() {
                if i == QUERY_WORDS / 2 {
                    fire_hook(hook, world);
                }
                dictionary.check(world, heap, word)?;
                if (i + 1) % 8 == 0 {
                    world.rt.export_epoch(&mut world.os)?;
                }
            }
        }
        ScheduleWorkload::Kvstore => {
            const ITEMS: u64 = 128;
            const VALUE_SIZE: usize = 512;
            const GETS: usize = 48;
            let mut store = kvstore::KvStore::new(
                world,
                heap,
                ITEMS,
                VALUE_SIZE,
                kvstore::ItemClustering::None,
            )
            .expect("store");
            store.load(world, heap, ITEMS).expect("load");
            let (keys_a, keys_b) = kvstore::secret_pair(ITEMS, GETS);
            let keys = if schedule.secret == 0 { keys_a } else { keys_b };
            begin_secret_phase(schedule, world)?;
            for (i, &key) in keys.iter().enumerate() {
                if i == GETS / 2 {
                    fire_hook(hook, world);
                }
                store.get(world, heap, key)?;
                if (i + 1) % 16 == 0 {
                    world.rt.export_epoch(&mut world.os)?;
                }
            }
        }
    }
    Ok(())
}

/// Fire the mid-run hook at most once.
fn fire_hook(hook: &mut Option<MidHook>, world: &mut World) {
    if let Some(h) = hook.take() {
        h(world);
    }
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
