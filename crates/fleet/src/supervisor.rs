//! The fleet supervisor: deterministic scheduling, health-checked
//! failover, admission control, and graceful degradation.
//!
//! N runtime instances share one simulated machine's EPC behind a
//! round-robin request scheduler. The supervisor watches each member's
//! health and walks a fixed escalation ladder when one misbehaves:
//!
//! 1. **retry with backoff** — transient driver failures (including an
//!    injected whole-enclave suspend the OS later resumes) are retried
//!    a bounded number of times, with exponentially growing backoff
//!    charged to the simulated clock;
//! 2. **quarantine** — a member that exhausts its retries (or trips
//!    `AttackDetected`) is pulled from the rotation;
//! 3. **snapshot restart** — the member is torn down and rebuilt from
//!    its latest sealed checkpoint under the monotonic-counter
//!    freshness discipline of `autarky-snapshot`; the restored runtime
//!    must be byte-identical to the checkpointed one;
//! 4. **permanent eviction** — after too many restarts the member
//!    leaves the fleet for good and its remaining requests are
//!    *explicitly rejected*, never silently dropped.
//!
//! Degradation order under EPC pressure: healthy members are asked to
//! shrink their resident sets (`ay_shrink` via
//! [`Runtime::shrink_budget`]) *before* any victim is killed — the
//! self-paging contract means the supervisor can reclaim frames
//! cooperatively instead of evicting behind an enclave's back.
//!
//! Every supervisor decision is recorded as a
//! [`FlightEvent::Supervisor`] causal event so a forensics pass can
//! name *why* an enclave was restarted.
//!
//! [`Runtime::shrink_budget`]: autarky_runtime::Runtime::shrink_budget

use std::collections::VecDeque;

use autarky_os_sim::{
    EnclaveImage, FaultPlan, FlightEvent, FlightRecord, Os, OsError, UntrustedEnclaveState,
};
use autarky_runtime::{RtError, RuntimeConfig};
use autarky_sgx_sim::machine::MachineConfig;
use autarky_sgx_sim::{EnclaveId, MonotonicCounter, Vpn};
use autarky_snapshot::{self as snapshot, SnapError};
use autarky_telemetry::{Histogram, SpanKind};
use autarky_watch::{Alert, Watchtower};
use autarky_workloads::kvstore::{ItemClustering, KvStore};
use autarky_workloads::request::{Request, Response, Service};
use autarky_workloads::spell::SpellServer;
use autarky_workloads::{EncHeap, EnclaveHandle, World};

use crate::loadgen::TimedRequest;

/// Errors from fleet assembly or supervision.
#[derive(Debug)]
pub enum FleetError {
    /// Runtime-layer failure during boot or data load.
    Rt(RtError),
    /// OS-layer failure.
    Os(OsError),
    /// Snapshot capture/restore failure.
    Snap(SnapError),
    /// Supervisor invariant violated (a bug, not a simulated fault).
    Internal(&'static str),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Rt(e) => write!(f, "runtime: {e}"),
            FleetError::Os(e) => write!(f, "os: {e}"),
            FleetError::Snap(e) => write!(f, "snapshot: {e}"),
            FleetError::Internal(what) => write!(f, "internal: {what}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<RtError> for FleetError {
    fn from(e: RtError) -> Self {
        FleetError::Rt(e)
    }
}

impl From<OsError> for FleetError {
    fn from(e: OsError) -> Self {
        FleetError::Os(e)
    }
}

impl From<SnapError> for FleetError {
    fn from(e: SnapError) -> Self {
        FleetError::Snap(e)
    }
}

/// The workload an individual fleet member serves.
#[derive(Debug, Clone)]
pub enum WorkloadKind {
    /// A key-value store preloaded with `items` values of `value_size`
    /// bytes (GET-only traffic keeps host-side indexes static across a
    /// snapshot restart).
    Kv {
        /// Items preloaded.
        items: u64,
        /// Value size in bytes.
        value_size: usize,
    },
    /// A single-dictionary ("en") spell server of `dict_words` words.
    Spell {
        /// Dictionary size in words.
        dict_words: usize,
    },
}

/// Configuration of one fleet member.
#[derive(Debug, Clone)]
pub struct MemberConfig {
    /// Human-readable name (also the enclave image name).
    pub name: String,
    /// The service this member runs.
    pub workload: WorkloadKind,
    /// Heap pages reserved in the enclave image.
    pub heap_pages: usize,
    /// Per-enclave EPC quota in frames (0 = unlimited).
    pub epc_quota: usize,
    /// Runtime policy for this member.
    pub runtime: RuntimeConfig,
    /// For [`WorkloadKind::Kv`] members: hand the store's allocator
    /// metadata (the bucket array, allocated before any item) back to OS
    /// management after boot — the paper's Memcached-patch shape, where
    /// only *item* pages are registered for self-paging. Ignored for
    /// other workloads.
    pub pin_kv_metadata: bool,
}

/// A fault campaign staged to start mid-run (the CI crash scenario).
///
/// The window opens once the fleet-wide served count crosses
/// `after_total_served` and closes at the first successful failover:
/// the supervisor disarms the injector before restoring the victim, so
/// an unbounded plan (`max_injections: None`) assaults exactly one
/// incarnation rather than every one the supervisor brings back.
#[derive(Debug, Clone)]
pub struct StagedCrash {
    /// Arm the plan once this many requests have been served fleet-wide.
    pub after_total_served: u64,
    /// Index of the member the campaign targets.
    pub member: usize,
    /// The plan; the supervisor adds `.targeting(<member's eid>)`.
    pub plan: FaultPlan,
}

/// Cycles charged to the shared clock per snapshot restart (models
/// teardown, reload, and sealed-blob decryption, so a restart is not a
/// free host-side action: it counts toward the member's
/// `max_recovery_cycles`, which the campaign's fleet gate holds to its
/// restart budget).
const RESTART_COST_CYCLES: u64 = 5_000_000;
/// Snapshot restarts tolerated before permanent eviction.
const MAX_RESTARTS: u32 = 3;
/// Resident-page budget healthy members are shrunk to under pressure.
const SHRINK_FLOOR_PAGES: usize = 16;
/// Retry ladder depth before quarantine.
const MAX_RETRIES: u32 = 3;
/// Base backoff charged before retry k is `RETRY_BACKOFF_CYCLES << (k-1)`.
const RETRY_BACKOFF_CYCLES: u64 = 100_000;

/// Fleet-wide supervisor configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// EPC frames shared by every member.
    pub epc_frames: usize,
    /// The members, in boot order.
    pub members: Vec<MemberConfig>,
    /// Per-member admission queue bound; arrivals past it are rejected.
    pub queue_cap: usize,
    /// Per-request watchdog budget in simulated cycles; a slower
    /// request is a health strike.
    pub watchdog_cycles: u64,
    /// Watchdog strikes tolerated before a restart.
    pub max_watchdog_strikes: u32,
    /// Healthy-member checkpoint cadence, in served requests
    /// (0 = only the boot checkpoint).
    pub snapshot_every: u64,
    /// Free-frame floor under which the supervisor asks healthy members
    /// to shrink before restarting a victim.
    pub epc_reserve_frames: usize,
    /// Flight-recorder ring capacity (0 = recorder off).
    pub flight_capacity: usize,
    /// Optional staged mid-run fault campaign.
    pub staged_crash: Option<StagedCrash>,
    /// Run the streaming watchtower. When set, the supervisor hands it
    /// every request's dispatch service time, closes its windows each
    /// scheduling step, records firings as [`FlightEvent::WatchAlert`]
    /// causal events, and escalates the alerted member *immediately* —
    /// ahead of the watchdog budget.
    pub watch: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            epc_frames: 4096,
            members: Vec::new(),
            queue_cap: 64,
            watchdog_cycles: 50_000_000,
            max_watchdog_strikes: 2,
            snapshot_every: 64,
            epc_reserve_frames: 32,
            flight_capacity: 4096,
            staged_crash: None,
            watch: false,
        }
    }
}

/// Why a request was rejected instead of served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The member's admission queue was full (backpressure shed).
    QueueFull,
    /// The member was permanently evicted from the rotation.
    MemberEvicted,
}

enum ServiceKind {
    Kv(KvStore),
    Spell(SpellServer),
}

impl ServiceKind {
    fn serve(
        &mut self,
        world: &mut World,
        heap: &mut EncHeap,
        request: &Request,
    ) -> Result<Response, RtError> {
        match self {
            ServiceKind::Kv(s) => s.serve(world, heap, request),
            ServiceKind::Spell(s) => s.serve(world, heap, request),
        }
    }
}

/// Rotation state of a member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// In the rotation and serving.
    Healthy,
    /// Permanently out of the rotation; its requests are rejected.
    Evicted,
}

/// A sealed checkpoint plus everything needed to restart from it on the
/// live shared host.
struct SnapshotBundle {
    /// The sealed blob (consumed by a successful restore).
    blob: Vec<u8>,
    /// The plaintext runtime bytes at capture time — retained by the
    /// harness so a restore can be asserted byte-identical.
    runtime_bytes: Vec<u8>,
    /// The member's untrusted host state at the same pause point.
    untrusted: UntrustedEnclaveState,
}

/// Per-member accounting the report is built from.
#[derive(Debug, Clone)]
pub struct MemberStats {
    /// Member name.
    pub name: String,
    /// Enclave id.
    pub eid: EnclaveId,
    /// Requests offered by the load generator.
    pub offered: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed at admission (queue full).
    pub rejected_queue_full: u64,
    /// Requests rejected because the member was evicted.
    pub rejected_evicted: u64,
    /// Retry attempts charged.
    pub retries: u64,
    /// Watchdog (per-request budget) strikes.
    pub watchdog_strikes: u64,
    /// Snapshot restarts performed.
    pub restarts: u32,
    /// Times this member shrank its resident set for a neighbor.
    pub shrinks: u64,
    /// Whether the member ended the run evicted.
    pub evicted: bool,
    /// Whether every restore was byte-identical to its checkpoint.
    pub byte_identical: bool,
    /// Worst detection-to-restored latency over all restarts, cycles.
    pub max_recovery_cycles: u64,
    /// End-to-end request latency histogram (arrival to completion).
    pub latency: Histogram,
    /// Runtime fault count at end of run (fairness probe).
    pub fault_count: u64,
    /// Watchtower alerts attributed to this member.
    pub watch_alerts: u64,
    /// Simulated-cycle timestamp of the member's first watch alert
    /// (0 = never alerted).
    pub first_alert_cycles: u64,
    /// Simulated-cycle timestamp of the member's first failover
    /// (quarantine/restart/evict escalation; 0 = never failed over).
    pub first_failover_cycles: u64,
    /// Per-span-kind cycle totals from the member's in-enclave
    /// telemetry aggregates (kinds with zero spans omitted). The fleet
    /// report merges these across members into one coarse profile; the
    /// fine-grained causal profile lives in `autarky-profile`.
    pub span_profile: Vec<SpanProfileLine>,
}

/// One span kind's aggregate contribution to a member's cycle profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanProfileLine {
    /// Stable span-kind name (e.g. `fault_handler`).
    pub kind: &'static str,
    /// Completed spans of this kind.
    pub count: u64,
    /// Total simulated cycles spent inside this kind.
    pub cycles: u64,
}

struct Member {
    handle: Option<EnclaveHandle>,
    service: ServiceKind,
    heap: EncHeap,
    state: MemberState,
    queue: VecDeque<(u64, Request)>,
    counter: MonotonicCounter,
    snapshot: Option<SnapshotBundle>,
    served_since_snapshot: u64,
    watchdog_strikes: u32,
    stats: MemberStats,
}

/// The assembled fleet: one shared host, N members, and the supervisor
/// state machine.
pub struct Fleet {
    os: Option<Os>,
    members: Vec<Member>,
    cfg: FleetConfig,
    rr_cursor: usize,
    total_served: u64,
    crash_armed: bool,
    tower: Option<Watchtower>,
    alert_history: Vec<Alert>,
}

impl Fleet {
    /// Boot the shared host, load every member, preload its workload
    /// data, and take each member's boot checkpoint.
    pub fn new(cfg: FleetConfig) -> Result<Self, FleetError> {
        let mut os = Os::new(MachineConfig {
            epc_frames: cfg.epc_frames,
            ..Default::default()
        });
        if cfg.flight_capacity > 0 {
            os.arm_flight_recorder(cfg.flight_capacity);
        }
        let mut os_slot = Some(os);
        let mut members = Vec::with_capacity(cfg.members.len());
        for mc in &cfg.members {
            let mut os = os_slot
                .take()
                .ok_or(FleetError::Internal("os slot empty"))?;
            let mut image = EnclaveImage::named(&mc.name);
            image.heap_pages = mc.heap_pages;
            let handle = World::attach_to(&mut os, image, mc.runtime.clone())?;
            let eid = handle.eid;
            if mc.epc_quota > 0 {
                os.set_epc_quota(eid, mc.epc_quota)?;
            }
            let mut heap = EncHeap::direct();
            let mut world = World::join(os, handle);
            let service = match mc.workload {
                WorkloadKind::Kv { items, value_size } => {
                    let mut store = KvStore::new(
                        &mut world,
                        &mut heap,
                        items,
                        value_size,
                        ItemClustering::None,
                    )?;
                    if mc.pin_kv_metadata {
                        // The store's first allocation is its bucket
                        // array; everything backed before the first item
                        // insert is allocator metadata. Hand it back to
                        // OS management (the paper's Memcached patch:
                        // only item pages self-page) so the hot index is
                        // never an eviction candidate.
                        let meta: Vec<Vpn> = (world.image.heap_start().0
                            ..world.rt.heap_frontier().0)
                            .map(Vpn)
                            .collect();
                        let World { os, rt, .. } = &mut world;
                        rt.pin_os_managed(os, &meta)?;
                    }
                    store.load(&mut world, &mut heap, items)?;
                    ServiceKind::Kv(store)
                }
                WorkloadKind::Spell { dict_words } => {
                    let server =
                        SpellServer::start(&mut world, &mut heap, &["en"], dict_words, false)?;
                    ServiceKind::Spell(server)
                }
            };
            let (os, handle) = world.split();
            let mut counter = MonotonicCounter::new(os.machine.platform_key(), eid);
            let bundle = Self::snapshot_member(&os, &handle, &mut counter)?;
            members.push(Member {
                handle: Some(handle),
                service,
                heap,
                state: MemberState::Healthy,
                queue: VecDeque::new(),
                counter,
                snapshot: Some(bundle),
                served_since_snapshot: 0,
                watchdog_strikes: 0,
                stats: MemberStats {
                    name: mc.name.clone(),
                    eid,
                    offered: 0,
                    served: 0,
                    rejected_queue_full: 0,
                    rejected_evicted: 0,
                    retries: 0,
                    watchdog_strikes: 0,
                    restarts: 0,
                    shrinks: 0,
                    evicted: false,
                    byte_identical: true,
                    max_recovery_cycles: 0,
                    latency: Histogram::new(),
                    fault_count: 0,
                    watch_alerts: 0,
                    first_alert_cycles: 0,
                    first_failover_cycles: 0,
                    span_profile: Vec::new(),
                },
            });
            os_slot = Some(os);
        }
        let tower = cfg.watch.then(|| {
            let start = os_slot
                .as_ref()
                .map(|os| os.machine.clock.now())
                .unwrap_or(0);
            let mut tower = Watchtower::new(start);
            for member in &members {
                tower.add_member(member.stats.eid);
            }
            tower
        });
        // Fold the load phase's pending transitions into the ring now, so
        // their recorder cost is charged before any arrival is scheduled.
        if let Some(os) = os_slot.as_mut() {
            os.flight_sync();
        }
        Ok(Self {
            os: os_slot,
            members,
            cfg,
            rr_cursor: 0,
            total_served: 0,
            crash_armed: false,
            tower,
            alert_history: Vec::new(),
        })
    }

    fn snapshot_member(
        os: &Os,
        handle: &EnclaveHandle,
        counter: &mut MonotonicCounter,
    ) -> Result<SnapshotBundle, FleetError> {
        let checkpoint = snapshot::capture_checkpoint(os, &handle.rt)?;
        let blob = snapshot::seal_checkpoint(os, counter, &checkpoint)?;
        let untrusted = os.capture_untrusted_state(handle.eid)?;
        Ok(SnapshotBundle {
            blob,
            runtime_bytes: checkpoint.runtime,
            untrusted,
        })
    }

    /// The shared host (reads for tests and audits).
    pub fn os(&self) -> &Os {
        match &self.os {
            Some(os) => os,
            // The slot is only empty inside `dispatch`, which never
            // re-enters the supervisor.
            None => unreachable!("os slot is populated between dispatches"),
        }
    }

    fn os_mut(&mut self) -> &mut Os {
        match &mut self.os {
            Some(os) => os,
            None => unreachable!("os slot is populated between dispatches"),
        }
    }

    /// Enclave id of member `index`.
    pub fn member_eid(&self, index: usize) -> EnclaveId {
        self.members[index].stats.eid
    }

    /// Simulated cycles elapsed on the shared clock.
    pub fn now(&self) -> u64 {
        self.os().machine.clock.now()
    }

    fn flight_supervisor(&mut self, eid: EnclaveId, action: &'static str, why: String) {
        let os = self.os_mut();
        if !os.flight_armed() {
            return;
        }
        let opened = os.flight_begin_chain_if_idle();
        os.flight_record(FlightEvent::Supervisor { eid, action, why });
        if opened {
            os.flight_end_chain();
        }
    }

    /// Run one request through member `index`'s service, returning the
    /// result and the cycles the attempt consumed.
    fn dispatch(
        &mut self,
        index: usize,
        request: &Request,
    ) -> Result<(Result<Response, RtError>, u64), FleetError> {
        let os = self
            .os
            .take()
            .ok_or(FleetError::Internal("os slot empty in dispatch"))?;
        let member = &mut self.members[index];
        let handle = match member.handle.take() {
            Some(h) => h,
            None => {
                self.os = Some(os);
                return Err(FleetError::Internal("member handle missing"));
            }
        };
        let mut world = World::join(os, handle);
        let t0 = world.now();
        let result = member.service.serve(&mut world, &mut member.heap, request);
        let elapsed = world.now() - t0;
        let (os, handle) = world.split();
        member.handle = Some(handle);
        self.os = Some(os);
        Ok((result, elapsed))
    }

    fn member_terminated(&self, index: usize) -> bool {
        self.members[index]
            .handle
            .as_ref()
            .map(|h| h.rt.is_terminated())
            .unwrap_or(false)
    }

    /// Ask healthy neighbors of `victim` to shrink their resident sets
    /// (the cooperative `ay_shrink` path) when free EPC is below the
    /// reserve. This is the first step of the degradation order: nobody
    /// is killed while a cooperative reclaim can free frames.
    fn degrade_neighbors(&mut self, victim: usize) -> Result<(), FleetError> {
        if self.os().machine.epc_free_frames() >= self.cfg.epc_reserve_frames {
            return Ok(());
        }
        let floor = SHRINK_FLOOR_PAGES;
        for index in 0..self.members.len() {
            if index == victim || self.members[index].state != MemberState::Healthy {
                continue;
            }
            let resident = self.members[index]
                .handle
                .as_ref()
                .map(|h| h.rt.resident_pages())
                .unwrap_or(0);
            if resident <= floor {
                continue;
            }
            let os = self
                .os
                .take()
                .ok_or(FleetError::Internal("os slot empty in degrade"))?;
            let member = &mut self.members[index];
            let handle = match member.handle.take() {
                Some(h) => h,
                None => {
                    self.os = Some(os);
                    continue;
                }
            };
            let mut world = World::join(os, handle);
            let shrink = world.rt.shrink_budget(&mut world.os, floor);
            let (os, handle) = world.split();
            member.handle = Some(handle);
            self.os = Some(os);
            shrink?;
            let eid = self.members[index].stats.eid;
            self.members[index].stats.shrinks += 1;
            self.flight_supervisor(
                eid,
                "shrink",
                format!("cooperative reclaim to {floor} pages for a neighbor restart"),
            );
        }
        Ok(())
    }

    /// Snapshot-based restart: retire the wedged incarnation, reinstate
    /// its untrusted state, restore the sealed checkpoint in place, and
    /// immediately re-checkpoint (a restore consumes its blob).
    fn restart_member(&mut self, index: usize, why: &str) -> Result<(), FleetError> {
        let eid = self.members[index].stats.eid;
        self.flight_supervisor(eid, "quarantine", why.to_owned());
        let detection = self.now();
        self.degrade_neighbors(index)?;

        let bundle = self.members[index]
            .snapshot
            .take()
            .ok_or(FleetError::Internal("member has no checkpoint"))?;
        let image = self.members[index]
            .handle
            .take()
            .ok_or(FleetError::Internal("member handle missing in restart"))?
            .image;

        let crash_armed = self.crash_armed;
        let os = self.os_mut();
        // The staged fault window closes at the first failover: the
        // injector must not keep assaulting the fresh incarnation (or
        // corrupt the restore path itself), so disarm it before the
        // restore touches any page.
        if crash_armed {
            os.disarm_fault_plan();
        }
        os.machine.clock.charge(RESTART_COST_CYCLES);
        os.retire_enclave(eid)?;
        os.reinstate_untrusted_state(&bundle.untrusted)?;
        let member = &mut self.members[index];
        let os = match &mut self.os {
            Some(os) => os,
            None => return Err(FleetError::Internal("os slot empty in restart")),
        };
        let rt = snapshot::restore_in_place(os, &mut member.counter, &bundle.blob)?;
        let byte_identical = rt.capture_bytes() == bundle.runtime_bytes;
        member.stats.byte_identical &= byte_identical;
        member.handle = Some(EnclaveHandle { rt, eid, image });
        member.watchdog_strikes = 0;
        member.stats.restarts += 1;
        member.served_since_snapshot = 0;
        // The consumed blob cannot restore twice (fork defense), so the
        // member is re-checkpointed before it serves anything.
        self.checkpoint_member(index)?;
        let recovery = self.now() - detection;
        let member = &mut self.members[index];
        member.stats.max_recovery_cycles = member.stats.max_recovery_cycles.max(recovery);
        self.flight_supervisor(
            eid,
            "restart",
            format!(
                "restored from sealed snapshot in {recovery} cycles (byte-identical: {byte_identical}); cause: {why}"
            ),
        );
        // A fresh incarnation warms up again instead of being judged on
        // the traffic the restart is expected to change.
        if let Some(tower) = self.tower.as_mut() {
            tower.reset_member(index);
        }
        Ok(())
    }

    /// Permanent eviction: the member leaves the rotation and every
    /// queued request is explicitly rejected.
    fn evict_member(&mut self, index: usize, why: &str) {
        let eid = self.members[index].stats.eid;
        self.flight_supervisor(eid, "evict", why.to_owned());
        let member = &mut self.members[index];
        member.state = MemberState::Evicted;
        member.stats.evicted = true;
        let drained = member.queue.len() as u64;
        member.queue.clear();
        member.stats.rejected_evicted += drained;
        member.handle = None;
        // Free the EPC frames for the survivors; failure here means the
        // enclave was already gone (e.g. a failed restore), which is fine.
        let _ = self.os_mut().retire_enclave(eid);
    }

    /// Serve the front request of member `index`'s queue, walking the
    /// escalation ladder on failure.
    fn serve_one(&mut self, index: usize) -> Result<(), FleetError> {
        let (arrival, request) = match self.members[index].queue.pop_front() {
            Some(front) => front,
            None => return Ok(()),
        };
        let mut attempts: u32 = 0;
        loop {
            let (result, elapsed) = self.dispatch(index, &request)?;
            match result {
                Ok(_) => {
                    let now = self.now();
                    let member = &mut self.members[index];
                    member.stats.served += 1;
                    member.stats.latency.record(now.saturating_sub(arrival));
                    member.served_since_snapshot += 1;
                    self.total_served += 1;
                    if let Some(tower) = self.tower.as_mut() {
                        // Feed the tower dispatch *service* time — the
                        // same measure the watchdog judges — so the SLO
                        // burn detector races the watchdog on equal
                        // terms rather than on queue-inflated latency.
                        tower.observe_request(index, elapsed, now);
                    }
                    if elapsed > self.cfg.watchdog_cycles {
                        let eid = self.members[index].stats.eid;
                        self.members[index].watchdog_strikes += 1;
                        self.members[index].stats.watchdog_strikes += 1;
                        self.flight_supervisor(
                            eid,
                            "watchdog",
                            format!(
                                "request took {elapsed} cycles against a budget of {}",
                                self.cfg.watchdog_cycles
                            ),
                        );
                        if self.members[index].watchdog_strikes >= self.cfg.max_watchdog_strikes {
                            self.escalate(index, "repeated watchdog-budget violations")?;
                        }
                    } else if self.cfg.snapshot_every > 0
                        && self.members[index].served_since_snapshot >= self.cfg.snapshot_every
                    {
                        self.checkpoint_member(index)?;
                    }
                    return Ok(());
                }
                Err(err) => {
                    if self.member_terminated(index) {
                        // AttackDetected: no point retrying a terminated
                        // runtime — straight to the restart rung.
                        self.members[index].queue.push_front((arrival, request));
                        return self.escalate(index, "runtime terminated (attack detected)");
                    }
                    if attempts >= MAX_RETRIES {
                        self.members[index].queue.push_front((arrival, request));
                        return self.escalate(index, "request failed after retry ladder");
                    }
                    attempts += 1;
                    self.members[index].stats.retries += 1;
                    let eid = self.members[index].stats.eid;
                    let backoff = RETRY_BACKOFF_CYCLES << (attempts - 1);
                    self.flight_supervisor(
                        eid,
                        "retry",
                        format!("attempt {attempts} after {err}; backoff {backoff} cycles"),
                    );
                    let os = self.os_mut();
                    if os.has_pending_injected_resume() {
                        // The OS suspended the enclave out from under us;
                        // model it bringing the enclave back before the
                        // retry (the syscall-entry hook would otherwise).
                        // A failed resume just leaves the marker pending.
                        let _ = os.resume_injected_suspend();
                    }
                    self.os_mut().machine.clock.charge(backoff);
                }
            }
        }
    }

    /// Take a fresh sealed checkpoint of member `index` (boot, healthy
    /// cadence, and post-restore all funnel through here).
    fn checkpoint_member(&mut self, index: usize) -> Result<(), FleetError> {
        let os = match &self.os {
            Some(os) => os,
            None => return Err(FleetError::Internal("os slot empty in checkpoint")),
        };
        let member = &mut self.members[index];
        let handle = member
            .handle
            .as_ref()
            .ok_or(FleetError::Internal("handle missing in checkpoint"))?;
        let bundle = Self::snapshot_member(os, handle, &mut member.counter)?;
        member.snapshot = Some(bundle);
        member.served_since_snapshot = 0;
        Ok(())
    }

    /// Quarantine → restart → eviction, depending on `MAX_RESTARTS`.
    fn escalate(&mut self, index: usize, why: &str) -> Result<(), FleetError> {
        if self.members[index].stats.first_failover_cycles == 0 {
            self.members[index].stats.first_failover_cycles = self.now();
        }
        if self.members[index].stats.restarts >= MAX_RESTARTS {
            self.evict_member(index, why);
            return Ok(());
        }
        match self.restart_member(index, why) {
            Ok(()) => Ok(()),
            Err(FleetError::Snap(e)) => {
                // The checkpoint itself failed to restore (e.g. a staged
                // rollback attack): the member cannot come back.
                let msg = format!("{why}; restore failed: {e}");
                self.evict_member(index, &msg);
                Ok(())
            }
            Err(other) => Err(other),
        }
    }

    /// One watchtower step: close any elapsed windows and act on
    /// firings. Alerts land in the flight ring as causal events *before*
    /// the resulting escalation records, so forensics reads detector →
    /// supervisor in order.
    fn watch_tick(&mut self) -> Result<(), FleetError> {
        let now = self.now();
        let alerts = match self.tower.as_mut() {
            Some(tower) => {
                tower.advance(now);
                tower.take_alerts()
            }
            None => return Ok(()),
        };
        for alert in alerts {
            let index = alert.member;
            {
                let os = self.os_mut();
                if os.flight_armed() {
                    let opened = os.flight_begin_chain_if_idle();
                    os.flight_record(alert.to_flight_event());
                    if opened {
                        os.flight_end_chain();
                    }
                }
            }
            if let Some(member) = self.members.get_mut(index) {
                member.stats.watch_alerts += 1;
                if member.stats.first_alert_cycles == 0 {
                    member.stats.first_alert_cycles = alert.cycles;
                }
            }
            let actionable = self
                .members
                .get(index)
                .map(|m| m.state == MemberState::Healthy)
                .unwrap_or(false);
            if actionable {
                let why = format!("watch alert: {} ({})", alert.detector, alert.why);
                self.escalate(index, &why)?;
            }
            self.alert_history.push(alert);
        }
        Ok(())
    }

    /// Every watchtower alert of the run, in firing order.
    pub fn watch_alerts(&self) -> &[Alert] {
        &self.alert_history
    }

    /// Member display names in boot order (trace/alert-log labels).
    pub fn member_names(&self) -> Vec<String> {
        self.members.iter().map(|m| m.stats.name.clone()).collect()
    }

    /// Drive `traffic` (one stream per member, arrival-sorted) to
    /// completion: every offered request ends served or explicitly
    /// rejected. Returns the per-member accounting.
    pub fn run(&mut self, traffic: Vec<Vec<TimedRequest>>) -> Result<Vec<MemberStats>, FleetError> {
        if traffic.len() != self.members.len() {
            return Err(FleetError::Internal("one traffic stream per member"));
        }
        let mut next = vec![0usize; traffic.len()];
        loop {
            // Stage a mid-run fault campaign once the threshold passes.
            if !self.crash_armed {
                if let Some(staged) = self.cfg.staged_crash.clone() {
                    if self.total_served >= staged.after_total_served {
                        let eid = self.member_eid(staged.member);
                        self.os_mut().arm_fault_plan(staged.plan.targeting(eid));
                        self.crash_armed = true;
                    }
                }
            }
            let now = self.now();
            // Admission: accept every due arrival or shed it explicitly.
            for (i, stream) in traffic.iter().enumerate() {
                while next[i] < stream.len() && stream[next[i]].arrival_cycles <= now {
                    let timed = &stream[next[i]];
                    next[i] += 1;
                    let member = &mut self.members[i];
                    member.stats.offered += 1;
                    if member.state == MemberState::Evicted {
                        member.stats.rejected_evicted += 1;
                    } else if member.queue.len() >= self.cfg.queue_cap {
                        member.stats.rejected_queue_full += 1;
                    } else {
                        member
                            .queue
                            .push_back((timed.arrival_cycles, timed.request.clone()));
                    }
                }
            }
            // Deterministic round-robin over members with queued work.
            let n = self.members.len();
            let candidate = (0..n).map(|k| (self.rr_cursor + k) % n).find(|&i| {
                self.members[i].state == MemberState::Healthy && !self.members[i].queue.is_empty()
            });
            match candidate {
                Some(i) => {
                    self.rr_cursor = (i + 1) % n;
                    self.serve_one(i)?;
                    self.watch_tick()?;
                }
                None => {
                    // Idle: fast-forward to the next arrival, or finish.
                    let upcoming = traffic
                        .iter()
                        .enumerate()
                        .filter(|(i, stream)| next[*i] < stream.len())
                        .map(|(i, stream)| stream[next[i]].arrival_cycles)
                        .min();
                    match upcoming {
                        Some(at) => {
                            let now = self.now();
                            if at > now {
                                self.os_mut().machine.clock.charge(at - now);
                            }
                            // Idle gaps still close watch windows (a
                            // member going quiet is itself a signal).
                            self.watch_tick()?;
                        }
                        None => break,
                    }
                }
            }
        }
        // Flush the trailing partial window into the detectors.
        self.watch_tick()?;
        // Record final runtime health into the stats.
        for member in &mut self.members {
            if let Some(h) = member.handle.as_ref() {
                member.stats.fault_count = h.rt.fault_count();
                member.stats.span_profile = SpanKind::ALL
                    .iter()
                    .filter_map(|&kind| {
                        let agg = h.rt.telemetry.span_agg(kind);
                        (agg.count > 0).then(|| SpanProfileLine {
                            kind: kind.name(),
                            count: agg.count,
                            cycles: agg.total_cycles,
                        })
                    })
                    .collect();
            }
            if !member.queue.is_empty() {
                return Err(FleetError::Internal("run ended with queued requests"));
            }
        }
        Ok(self.members.iter().map(|m| m.stats.clone()).collect())
    }

    /// Snapshot of the flight recorder's ring (forensics artifact).
    pub fn flight_log(&mut self) -> Vec<FlightRecord> {
        self.os_mut().flight_snapshot()
    }
}
