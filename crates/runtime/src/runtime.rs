//! The trusted self-paging runtime (the paper's library-OS layer).
//!
//! A [`Runtime`] owns an enclave's paging *policy*:
//!
//! * it claims sensitive pages as **enclave-managed** through the driver
//!   interface, pinning them in EPC;
//! * its **fault handler** is guaranteed to run on every page fault
//!   (Autarky's pending-exception flag makes silent OS resolution
//!   impossible) and classifies each fault as: legitimate self-paging,
//!   a forwardable fault on an insensitive OS-managed page, or an attack
//!   — in which case it terminates the enclave;
//! * it fetches and evicts in **cluster** units, maintaining the paper's
//!   residency invariant, with FIFO victim selection (no A/D bits exist
//!   for the OS — or the runtime — to build a clock policy from);
//! * it optionally enforces a **fault-rate bound** for unmodified
//!   binaries (§5.2.4).
//!
//! Both paging mechanisms of §6 are implemented: SGXv1 `EWB`/`ELDU`
//! through driver syscalls, and SGXv2 software sealing with
//! `EAUG`/`EACCEPTCOPY`/`EMODT`.

use std::collections::VecDeque;

use autarky_crypto::aead::{self, NONCE_LEN, TAG_LEN};
use autarky_os_sim::{FaultDisposition, FlightEvent, Os, OsError};
use autarky_prng::SimMap;
use autarky_sgx_sim::{
    AccessError, CostTag, EnclaveId, FaultCause, Perms, SgxError, Va, Vpn, PAGE_SIZE,
};
use autarky_telemetry::{DecodeError, Reader, SpanGuard, SpanKind, SpanRecord, Telemetry};

use crate::cluster::{ClusterCapture, ClusterId, ClusterMap};
use crate::error::RtError;
use crate::paging::{blob_key, sw_nonce_fits, sw_open, sw_seal};
use crate::ratelimit::{RateLimit, RateLimiter};

/// Which mechanism moves page contents in and out of EPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagingMechanism {
    /// Privileged `EWB`/`ELDU` via driver syscalls (faster; hardware
    /// sealing).
    Sgx1,
    /// SGXv2 dynamic memory: the runtime seals pages in software and uses
    /// `EAUG`/`EACCEPTCOPY`/`EMODPR`/`EMODT` (more flexible; extra
    /// crossings and in-enclave crypto).
    Sgx2,
}

/// How the fault handler treats enclave-managed pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyMode {
    /// Everything pinned; *any* fault on an enclave-managed page is an
    /// attack. The strongest setting when the working set fits in EPC
    /// (libjpeg/Hunspell/FreeType in Table 2).
    PinAll,
    /// Secure self-paging with clusters; faults on evicted pages trigger
    /// cluster-granular fetches.
    SelfPaging,
}

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Fault-handling policy.
    pub mode: PolicyMode,
    /// Optional fault-rate bound (§5.2.4).
    pub rate_limit: Option<RateLimit>,
    /// Paging mechanism.
    pub mechanism: PagingMechanism,
    /// Maximum resident enclave-managed pages (0 = unlimited). The
    /// runtime evicts before fetching when at budget.
    pub budget: usize,
    /// Automatic data-page cluster size for the allocator (0 = off).
    pub auto_cluster_size: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            mode: PolicyMode::SelfPaging,
            rate_limit: None,
            mechanism: PagingMechanism::Sgx1,
            budget: 0,
            auto_cluster_size: 0,
        }
    }
}

// How the runtime survives an OS that fails, lies, or stalls (see
// DESIGN.md, "Threat model under OS misbehavior & fault injection").
//
// Driver errors are split into two classes. *Transient* errors
// (`NoMemory`, `Suspended`) are what an honest OS produces under memory
// pressure or scheduling; the runtime absorbs them with bounded,
// backoff-charged retries and — under sustained pressure — by shrinking
// its own resident budget (the ballooning path, §5.4). *Hostile*
// evidence (wrong answers, silently dropped pages, diverging batches) is
// counted against a misbehaviour budget; exceeding it escalates to
// `AttackDetected` and termination, exactly like a controlled-channel
// signal. Every fetch-style call is re-verified against architectural
// residency, catching an OS that claims success without doing the work.
//
// The thresholds are part of the runtime's measured code, not of its
// configuration, so no checkpoint can carry other ones.

/// Transient driver failures tolerated per operation before the (typed)
/// error propagates to the caller.
const MAX_RETRIES: u32 = 6;
/// Base of the exponential backoff charged to the simulated clock
/// between retries; doubles with each attempt.
const BACKOFF_BASE_CYCLES: u64 = 2_000;
/// Anomalies (lies, dropped pages, diverged batches) tolerated over the
/// enclave's lifetime before the runtime terminates it with
/// `AttackDetected`.
pub const MISBEHAVIOR_BUDGET: u32 = 8;
/// Floor below which degradation under sustained `NoMemory` never
/// shrinks the resident budget.
const DEGRADE_FLOOR: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageState {
    Resident,
    Evicted,
}

/// Runtime event counters: the runtime's only record of its counts
/// (telemetry keeps no counters).
#[derive(Debug, Default, Clone)]
pub struct RtStats {
    /// Faults observed by the trusted handler.
    pub faults_handled: u64,
    /// Faults on OS-managed pages forwarded back to the OS.
    pub forwarded: u64,
    /// Pages fetched by self-paging.
    pub pages_fetched: u64,
    /// Pages evicted by self-paging.
    pub pages_evicted: u64,
    /// Heap pages allocated lazily.
    pub pages_allocated: u64,
    /// Allocations served.
    pub allocs: u64,
    /// Transient driver errors absorbed by bounded retry.
    pub retries: u64,
    /// OS-misbehaviour anomalies recorded (each is one step toward the
    /// misbehaviour budget and `AttackDetected`).
    pub misbehavior: u64,
    /// Times the runtime shrank its own budget under sustained pressure.
    pub degradations: u64,
}

impl RtStats {
    /// Append every counter, little-endian, in declaration order.
    fn encode_into(&self, out: &mut Vec<u8>) {
        for v in [
            self.faults_handled,
            self.forwarded,
            self.pages_fetched,
            self.pages_evicted,
            self.pages_allocated,
            self.allocs,
            self.retries,
            self.misbehavior,
            self.degradations,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Decode what [`RtStats::encode_into`] wrote.
    fn decode(r: &mut Reader<'_>) -> Result<RtStats, DecodeError> {
        Ok(RtStats {
            faults_handled: r.u64()?,
            forwarded: r.u64()?,
            pages_fetched: r.u64()?,
            pages_evicted: r.u64()?,
            pages_allocated: r.u64()?,
            allocs: r.u64()?,
            retries: r.u64()?,
            misbehavior: r.u64()?,
            degradations: r.u64()?,
        })
    }
}

/// The trusted runtime instance for one enclave.
pub struct Runtime {
    /// Enclave this runtime manages.
    pub eid: EnclaveId,
    /// TCS used for execution.
    pub tcs: usize,
    config: RuntimeConfig,
    tracked: SimMap<Vpn, PageState>,
    /// Page clusters (public: applications call the Table 1 API on it).
    pub clusters: ClusterMap,
    self_paging: bool,
    /// FIFO of resident enclave-managed pages in fetch order.
    fifo: VecDeque<Vpn>,
    resident_count: usize,
    limiter: RateLimiter,
    sealing_key: [u8; 32],
    sw_versions: SimMap<Vpn, u64>,
    /// Original EPCM permissions of pages evicted via the SGXv2 software
    /// path, restored at `EACCEPTCOPY` time (the hardware path carries
    /// them in the sealed blob instead).
    sw_perms: SimMap<Vpn, Perms>,
    /// Trusted mirror of the hardware anti-replay versions for pages the
    /// runtime evicted via `EWB` (seal-freshness enforcement): the sealed
    /// blob authenticates any self-consistent `(vpn, version)` pair, so
    /// only this mirror can tell that the version the hardware is willing
    /// to accept has moved *backwards* — the signature of restored-stale
    /// state. Forward movement is benign OS churn (suspend/resume).
    hw_versions: SimMap<Vpn, u64>,
    /// Heap bump/free-list allocator state.
    heap: Heap,
    /// Event counters.
    pub stats: RtStats,
    /// Enclave-side telemetry: span aggregates, paging gauges and
    /// histograms, and the export epoch. [`Runtime::export_epoch`] seals
    /// it together with [`RtStats`].
    ///
    /// Boxed: a fleet moves each member's `Runtime` by value on every
    /// request, and inline the telemetry would be most of its size.
    pub telemetry: Box<Telemetry>,
    /// AEAD key for sealed telemetry exports (domain-separated from the
    /// page sealing key).
    export_key: [u8; 32],
    terminated: bool,
}

struct Heap {
    start: Va,
    pages: usize,
    bump: u64,
    free_lists: SimMap<usize, Vec<Va>>,
    /// One-past-the-highest page already backed by EPC.
    allocated_until: u64,
}

impl Runtime {
    /// Attach a runtime to a loaded enclave: claim its code/data/stack
    /// pages as enclave-managed (self-paging enclaves only) and set up
    /// clusters per the configuration.
    pub fn attach(os: &mut Os, eid: EnclaveId, config: RuntimeConfig) -> Result<Self, RtError> {
        let image = os.image(eid)?.clone();
        let self_paging = image.self_paging;
        let mut rt = Self {
            eid,
            tcs: 0,
            self_paging,
            tracked: SimMap::default(),
            clusters: ClusterMap::default(),
            fifo: VecDeque::new(),
            resident_count: 0,
            limiter: RateLimiter::new(config.rate_limit),
            sealing_key: derive_sealing_key(eid),
            sw_versions: SimMap::default(),
            sw_perms: SimMap::default(),
            hw_versions: SimMap::default(),
            heap: Heap {
                start: image.heap_start().base(),
                pages: image.heap_pages,
                bump: 0,
                free_lists: SimMap::default(),
                allocated_until: image.heap_start().0,
            },
            stats: RtStats::default(),
            telemetry: Box::default(),
            export_key: derive_export_key(eid),
            config,
            terminated: false,
        };
        if rt.config.auto_cluster_size > 0 {
            rt.clusters.ay_init_clusters(0, rt.config.auto_cluster_size);
        }
        if self_paging {
            // Claim the measured image (code, data, stack) as
            // enclave-managed; the runtime's own state rides along.
            let pages: Vec<Vpn> = (image.code_start().0..image.heap_start().0)
                .map(Vpn)
                .collect();
            let status =
                rt.with_retries(os, false, |os, eid| os.ay_set_enclave_managed(eid, &pages))?;
            for (vpn, reported) in status {
                // The reply travels through untrusted memory; never seed
                // the tracking (which decides attack-vs-legitimate for
                // every future fault) from an unverified answer.
                let resident = os.machine.is_resident(eid, vpn);
                if reported != resident {
                    rt.note_misbehavior(os, vpn, "driver lied about residence at attach")?;
                }
                let state = if resident {
                    PageState::Resident
                } else {
                    PageState::Evicted
                };
                if resident {
                    rt.fifo.push_back(vpn);
                    rt.resident_count += 1;
                }
                rt.tracked.insert(vpn, state);
            }
            // One cluster per library (§5.2.3, "Clusters for code
            // pages"), created automatically by the trusted loader. A
            // library's cluster also covers the code of libraries it
            // calls into, so control flow across the dependency edge
            // never faults separately — and dependents of a shared
            // library end up sharing pages, which the transitive
            // fetch-set rule then keeps consistent.
            if image.libraries.is_empty() {
                let lib = rt.clusters.new_cluster();
                for vpn in image.code_range() {
                    rt.clusters.ay_add_page(lib, vpn)?;
                }
            } else {
                for (index, library) in image.libraries.iter().enumerate() {
                    let cluster = rt.clusters.new_cluster();
                    for vpn in image.library_pages(index) {
                        rt.clusters.ay_add_page(cluster, vpn)?;
                    }
                    for &dep in &library.uses {
                        for vpn in image.library_pages(dep) {
                            rt.clusters.ay_add_page(cluster, vpn)?;
                        }
                    }
                }
                // Code pages outside any declared library form one
                // residual cluster.
                let declared: usize = image.libraries.iter().map(|l| l.pages).sum();
                if declared < image.code_pages {
                    let rest = rt.clusters.new_cluster();
                    for vpn in image.code_range().skip(declared) {
                        rt.clusters.ay_add_page(rest, vpn)?;
                    }
                }
            }
        }
        Ok(rt)
    }

    /// Whether the runtime terminated the enclave (attack response).
    pub fn is_terminated(&self) -> bool {
        self.terminated
    }

    /// The configured budget (0 = unlimited).
    pub fn budget(&self) -> usize {
        self.config.budget
    }

    /// Cooperatively shrink to `new_budget` resident pages, evicting down
    /// immediately (the enclave side of a memory-ballooning upcall, §5.2.1
    /// / §5.4 — the paper defers the upcall protocol; this is the enclave
    /// mechanism it would invoke).
    pub fn shrink_budget(&mut self, os: &mut Os, new_budget: usize) -> Result<(), RtError> {
        self.config.budget = new_budget;
        self.make_room(os, 0)
    }

    /// Resident enclave-managed pages.
    pub fn resident_pages(&self) -> usize {
        self.resident_count
    }

    /// Whether a tracked page is currently resident (`None` when the page
    /// is not enclave-managed).
    pub fn residency(&self, vpn: Vpn) -> Option<bool> {
        self.tracked.get(&vpn).map(|s| *s == PageState::Resident)
    }

    /// Record forward progress for the rate limiter (I/O, syscalls,
    /// allocations — called by the libOS layers above).
    pub fn progress(&mut self, amount: u64) {
        self.limiter.progress(amount);
    }

    /// Faults counted by the rate limiter so far.
    pub fn fault_count(&self) -> u64 {
        self.limiter.faults()
    }

    /// Forward progress recorded so far (rate-limit denominator).
    pub fn progress_total(&self) -> u64 {
        self.limiter.progress_total()
    }

    /// Pages under runtime management: the set a page-granular
    /// adversary could hope to distinguish between.
    pub fn tracked_pages(&self) -> usize {
        self.tracked.len()
    }

    /// The enforced fault-rate bound, if any (§5.2.4).
    pub fn rate_limit(&self) -> Option<RateLimit> {
        self.config.rate_limit
    }

    // ----------------------------------------------------------------
    // Memory operations with full fault resolution.
    // ----------------------------------------------------------------

    /// Read enclave memory at `va`, resolving faults per policy.
    pub fn read(&mut self, os: &mut Os, va: Va, buf: &mut [u8]) -> Result<(), RtError> {
        loop {
            match os.machine.read_bytes(self.eid, self.tcs, va, buf) {
                Ok(()) => return Ok(()),
                Err(e) => self.resolve(os, e)?,
            }
        }
    }

    /// Write enclave memory at `va`, resolving faults per policy.
    pub fn write(&mut self, os: &mut Os, va: Va, buf: &[u8]) -> Result<(), RtError> {
        loop {
            match os.machine.write_bytes(self.eid, self.tcs, va, buf) {
                Ok(()) => return Ok(()),
                Err(e) => self.resolve(os, e)?,
            }
        }
    }

    /// Simulate executing code at `va` (instruction fetch), resolving
    /// faults per policy.
    pub fn exec(&mut self, os: &mut Os, va: Va) -> Result<(), RtError> {
        loop {
            match os.machine.fetch_code(self.eid, self.tcs, va) {
                Ok(()) => return Ok(()),
                Err(e) => self.resolve(os, e)?,
            }
        }
    }

    fn resolve(&mut self, os: &mut Os, err: AccessError) -> Result<(), RtError> {
        if self.terminated {
            return Err(RtError::Terminated);
        }
        match err {
            AccessError::Fatal(SgxError::Terminated) => Err(RtError::Terminated),
            AccessError::Fatal(e) => Err(RtError::Sgx(e)),
            AccessError::Fault(ev) if ev.elided => {
                // Proposed hardware optimization: we are already "in" the
                // handler; no AEX, no OS, no transitions. The kernel never
                // sees this fault, so open the correlation chain here.
                let began = os.flight_begin_chain_if_idle();
                let outcome = self.handle_fault(os);
                let popped = os.machine.pop_ssa(self.eid, self.tcs);
                if began {
                    os.flight_end_chain();
                }
                popped?;
                outcome
            }
            AccessError::Fault(ev) => {
                // `on_fault` opens the correlation chain before it records
                // the masked observation; close it once the full handler
                // round trip (including the resuming transitions) is done.
                let result = match os.on_fault(ev) {
                    Err(OsError::Suspended(_)) if os.has_pending_injected_resume() => {
                        // An injected whole-enclave suspend landed between
                        // the access and the fault report. The OS resumes
                        // suspended enclaves at its next convenience (the
                        // driver does so on syscall entry); model that
                        // resume here and let the access loop retry.
                        os.resume_injected_suspend().map_err(RtError::from)
                    }
                    Err(e) => Err(e.into()),
                    Ok(FaultDisposition::Resumed) => Ok(()), // legacy silent path
                    Ok(FaultDisposition::HandlerRequired) => {
                        let mut outcome = self.handle_fault(os);
                        if outcome.is_ok() {
                            let hop = if os.machine.elide_handler_invocation() {
                                // "No upcall" variant (Table 2): in-enclave
                                // resume pops the SSA without EEXIT+ERESUME.
                                os.machine.pop_ssa(self.eid, self.tcs)
                            } else {
                                os.machine
                                    .eexit(self.eid, self.tcs)
                                    .and_then(|()| os.machine.eresume(self.eid, self.tcs))
                            };
                            if let Err(e) = hop {
                                outcome = Err(e.into());
                            }
                        }
                        outcome
                    }
                };
                os.flight_end_chain();
                result
            }
        }
    }

    // ----------------------------------------------------------------
    // The fault handler (the heart of the defense).
    // ----------------------------------------------------------------

    /// The trusted page-fault handler. Runs with the real fault
    /// information from the SSA frame; the OS saw only a masked report.
    pub fn handle_fault(&mut self, os: &mut Os) -> Result<(), RtError> {
        let guard = self
            .telemetry
            .enter(SpanKind::FaultHandler, os.machine.clock.now());
        let outcome = self.handle_fault_inner(os);
        self.span_close(os, guard);
        outcome
    }

    fn handle_fault_inner(&mut self, os: &mut Os) -> Result<(), RtError> {
        self.stats.faults_handled += 1;
        os.machine
            .clock
            .charge_tagged(CostTag::Runtime, os.machine.costs.runtime_handler);
        let info = match os.machine.ssa_exinfo(self.eid, self.tcs)? {
            Some(info) => info,
            None => {
                // Handler invoked with no pending exception: re-entrancy
                // games by the OS (§5.3).
                return self.attack(os, Vpn(0), "handler entered with empty SSA");
            }
        };
        let vpn = info.va.vpn();
        if os.flight_armed() {
            os.flight_record(FlightEvent::HandlerEntry { eid: self.eid, vpn });
        }

        // Cleared accessed/dirty bits can only come from the OS: benign
        // mappings are always installed with them preset.
        if info.cause == FaultCause::AdBitsClear {
            return self.attack(os, vpn, "PTE accessed/dirty bits cleared by OS");
        }

        match self.tracked.get(&vpn).copied() {
            None => {
                // OS-managed page: insensitive by declaration. Forward the
                // fault so the OS can demand-page it (§7.3's libjpeg flow).
                if !self.ratelimit_admit(os) {
                    return self.kill_rate_limited(os);
                }
                if os.flight_armed() {
                    os.flight_record(FlightEvent::DecisionForward { vpn });
                }
                // A silently dropped fetch would otherwise spin
                // fault→fetch→fault forever, so verify the result.
                let mut rounds = 0u32;
                loop {
                    let guard = self
                        .telemetry
                        .enter(SpanKind::AyFetchPages, os.machine.clock.now());
                    let fetched =
                        self.with_retries(os, true, |os, eid| os.ay_fetch_pages(eid, &[vpn]));
                    self.span_close(os, guard);
                    self.telemetry.fetch_batch_pages.record(1);
                    fetched?;
                    if os.machine.is_resident(self.eid, vpn) {
                        break;
                    }
                    rounds += 1;
                    if rounds > MAX_RETRIES {
                        return Err(RtError::Os(OsError::BadRequest(
                            "forwarded fetch never became resident",
                        )));
                    }
                    self.note_misbehavior(os, vpn, "forwarded fetch silently dropped")?;
                }
                self.stats.forwarded += 1;
                Ok(())
            }
            Some(PageState::Resident) => {
                // The page should be mapped and accessible — the OS (or
                // an attacker) broke the mapping. This is the detection
                // path for the controlled channel.
                self.attack(os, vpn, "unexpected fault on resident enclave-managed page")
            }
            Some(PageState::Evicted) => {
                if self.config.mode == PolicyMode::PinAll {
                    return self.attack(os, vpn, "fault on pinned page under PinAll policy");
                }
                if !self.ratelimit_admit(os) {
                    return self.kill_rate_limited(os);
                }
                // Legitimate self-paging: fetch the transitive cluster set.
                let fetch: Vec<Vpn> = self
                    .clusters
                    .fetch_set(vpn)
                    .into_iter()
                    .filter(|p| self.tracked.get(p) == Some(&PageState::Evicted))
                    .collect();
                if os.flight_armed() {
                    os.flight_record(FlightEvent::DecisionClusterFetch {
                        vpn,
                        pages: fetch.clone(),
                    });
                }
                self.make_room(os, fetch.len())?;
                self.fetch_pages(os, &fetch)?;
                Ok(())
            }
        }
    }

    /// Consult the fault-rate limiter under a `ratelimit_decision` span.
    fn ratelimit_admit(&mut self, os: &mut Os) -> bool {
        let guard = self
            .telemetry
            .enter(SpanKind::RatelimitDecision, os.machine.clock.now());
        let admitted = self.limiter.on_fault();
        self.span_close(os, guard);
        admitted
    }

    /// Close a span opened on [`Runtime::telemetry`]: fold it into the
    /// per-kind aggregate and, when the flight recorder is armed, record
    /// it there as a [`FlightEvent::SpanClose`] — the only record of the
    /// individual span. Allocates nothing.
    pub fn span_close(&mut self, os: &mut Os, guard: SpanGuard) {
        let now = os.machine.clock.now();
        if os.flight_armed() {
            os.flight_record(FlightEvent::SpanClose(SpanRecord {
                kind: guard.kind(),
                start_cycles: guard.start_cycles(),
                end_cycles: now,
            }));
        }
        self.telemetry.exit(guard, now);
    }

    fn attack(&mut self, os: &mut Os, vpn: Vpn, why: &'static str) -> Result<(), RtError> {
        if os.flight_armed() {
            os.flight_record(FlightEvent::AttackDetected { vpn, why });
        }
        self.terminated = true;
        os.machine.terminate(self.eid)?;
        Err(RtError::AttackDetected { vpn, why })
    }

    fn kill_rate_limited(&mut self, os: &mut Os) -> Result<(), RtError> {
        if os.flight_armed() {
            os.flight_record(FlightEvent::RateLimitKill);
        }
        self.terminated = true;
        os.machine.terminate(self.eid)?;
        Err(RtError::RateLimitExceeded)
    }

    // ----------------------------------------------------------------
    // Self-paging mechanics.
    // ----------------------------------------------------------------

    fn make_room(&mut self, os: &mut Os, incoming: usize) -> Result<(), RtError> {
        let budget = self.config.budget;
        if budget == 0 {
            return Ok(());
        }
        if incoming > budget {
            return Err(RtError::OutOfBudget {
                needed: incoming,
                budget,
            });
        }
        while self.resident_count + incoming > budget {
            let victim = loop {
                let Some(v) = self.fifo.pop_front() else {
                    return Err(RtError::OutOfBudget {
                        needed: incoming,
                        budget,
                    });
                };
                if self.tracked.get(&v) == Some(&PageState::Resident) {
                    break v;
                }
            };
            // Evict the victim's whole cluster (safe even when shared).
            let evict: Vec<Vpn> = self
                .clusters
                .evict_set(victim)
                .into_iter()
                .filter(|p| self.tracked.get(p) == Some(&PageState::Resident))
                .collect();
            self.evict_pages(os, &evict)?;
        }
        Ok(())
    }

    /// Evict `pages` now (used by the policy and exposed for the paging
    /// microbenchmarks).
    ///
    /// Tracking is reconciled against architectural residency afterwards
    /// even on failure, so a partially-completed batch never leaves the
    /// runtime believing an evicted page is resident (which would turn
    /// the next legitimate fault on it into a false `AttackDetected`).
    pub fn evict_pages(&mut self, os: &mut Os, pages: &[Vpn]) -> Result<(), RtError> {
        if pages.is_empty() {
            return Ok(());
        }
        // Direct callers (microbenchmarks) enter outside any fault chain;
        // open one so the eviction's records still correlate.
        let began = os.flight_begin_chain_if_idle();
        if os.flight_armed() {
            os.flight_record(FlightEvent::DecisionEvict {
                pages: pages.to_vec(),
            });
        }
        let guard = self
            .telemetry
            .enter(SpanKind::AyEvictPages, os.machine.clock.now());
        let result = match self.config.mechanism {
            PagingMechanism::Sgx1 => self.hw_evict(os, pages),
            PagingMechanism::Sgx2 => self.sw_evict(os, pages),
        };
        self.span_close(os, guard);
        self.telemetry.evict_batch_pages.record(pages.len() as u64);
        self.sync_tracking(os, pages);
        if began {
            os.flight_end_chain();
        }
        result?;
        self.stats.pages_evicted += pages.len() as u64;
        self.telemetry
            .resident_pages
            .set(self.resident_count as u64);
        Ok(())
    }

    /// Fetch `pages` now (used by the policy and exposed for the paging
    /// microbenchmarks). Like [`Runtime::evict_pages`], tracking is
    /// reconciled against architectural residency on both success and
    /// failure.
    pub fn fetch_pages(&mut self, os: &mut Os, pages: &[Vpn]) -> Result<(), RtError> {
        if pages.is_empty() {
            return Ok(());
        }
        let began = os.flight_begin_chain_if_idle();
        let guard = self
            .telemetry
            .enter(SpanKind::AyFetchPages, os.machine.clock.now());
        let result = match self.config.mechanism {
            PagingMechanism::Sgx1 => self.hw_fetch(os, pages),
            PagingMechanism::Sgx2 => self.sw_fetch(os, pages),
        };
        self.span_close(os, guard);
        self.telemetry.fetch_batch_pages.record(pages.len() as u64);
        self.sync_tracking(os, pages);
        if began {
            os.flight_end_chain();
        }
        result?;
        self.stats.pages_fetched += pages.len() as u64;
        self.telemetry
            .resident_pages
            .set(self.resident_count as u64);
        Ok(())
    }

    /// SGXv1 eviction (driver `EWB` batch), hardened against prefix
    /// failures: the driver may evict only part of the batch before
    /// erroring, and an injected suspend/resume can bring evicted pages
    /// *back*, so the request is re-derived from architectural residency
    /// before every attempt. Retrying a stale list verbatim would hit
    /// `BadRequest` on its already-evicted prefix.
    fn hw_evict(&mut self, os: &mut Os, pages: &[Vpn]) -> Result<(), RtError> {
        let mut attempts = 0u32;
        loop {
            let remaining: Vec<Vpn> = pages
                .iter()
                .copied()
                .filter(|&v| os.machine.is_resident(self.eid, v))
                .collect();
            if remaining.is_empty() {
                // Record the version the hardware sealed each page under,
                // so the fetch path can detect a later downgrade.
                for &vpn in pages {
                    if let Some(version) = os.machine.outstanding_version(self.eid, vpn)? {
                        self.hw_versions.insert(vpn, version);
                    }
                }
                return Ok(());
            }
            match os.ay_evict_pages(self.eid, &remaining) {
                Ok(()) => continue, // re-check: a resume may reload pages
                Err(e @ (OsError::NoMemory | OsError::Suspended(_))) if attempts < MAX_RETRIES => {
                    let _ = e;
                    attempts += 1;
                    self.charge_backoff(os, attempts);
                }
                Err(OsError::BadRequest(_)) if attempts < MAX_RETRIES => {
                    // A page vanished between our residency check and the
                    // OS processing the batch: something is evicting our
                    // pinned pages under our feet.
                    attempts += 1;
                    self.note_misbehavior(os, remaining[0], "evict batch diverged from residency")?;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// SGXv1 fetch (driver `ELDU` batch) with transient retry and result
    /// verification: the fetch list is re-derived from architectural
    /// residency each round (fetch of a resident page is an idempotent
    /// remap, so bounded retry inside a round is safe), and after an `Ok`
    /// the runtime confirms the pages actually arrived — an OS that
    /// silently drops pages is counted against the misbehaviour budget.
    fn hw_fetch(&mut self, os: &mut Os, pages: &[Vpn]) -> Result<(), RtError> {
        let mut rounds = 0u32;
        loop {
            let missing: Vec<Vpn> = pages
                .iter()
                .copied()
                .filter(|&v| !os.machine.is_resident(self.eid, v))
                .collect();
            if missing.is_empty() {
                for &vpn in pages {
                    self.hw_versions.remove(&vpn);
                }
                return Ok(());
            }
            self.check_hw_freshness(os, &missing)?;
            if rounds > MAX_RETRIES {
                return Err(RtError::Os(OsError::BadRequest(
                    "fetched pages never became resident",
                )));
            }
            if rounds > 0 {
                self.note_misbehavior(os, missing[0], "fetch completed but pages not resident")?;
            }
            rounds += 1;
            self.with_retries(os, true, |os, eid| os.ay_fetch_pages(eid, &missing))?;
        }
    }

    /// SGXv2 software eviction: seal in-enclave, write the blob to
    /// untrusted memory, trim the page. A page whose number the nonce
    /// cannot hold is refused before anything changes, so it stays
    /// resident.
    fn sw_evict(&mut self, os: &mut Os, pages: &[Vpn]) -> Result<(), RtError> {
        for &vpn in pages {
            if !os.machine.is_resident(self.eid, vpn) {
                // Already out (e.g. a hostile eviction beat us to it);
                // the caller's tracking sync will record it as evicted.
                continue;
            }
            if !sw_nonce_fits(vpn) {
                return Err(RtError::Sgx(SgxError::NonceExhausted(vpn)));
            }
            // Remember the page's permissions so the refetch can
            // restore them (code pages must come back executable).
            let original = os
                .machine
                .page_table(self.eid)?
                .get(vpn)
                .map(|pte| pte.perms)
                .unwrap_or(Perms::RW);
            self.sw_perms.insert(vpn, original);
            // Restrict to read-only so concurrent writes cannot race
            // the copy-out, per §6.
            os.machine.emodpr(self.eid, vpn, Perms::R)?;
            os.machine.eaccept(self.eid, vpn)?;
            let contents = os.machine.read_own_page(self.eid, vpn)?;
            let version = {
                let v = self.sw_versions.entry(vpn).or_insert(0);
                *v += 1;
                *v
            };
            let guard = self.telemetry.enter(SpanKind::Seal, os.machine.clock.now());
            os.machine.clock.charge_tagged(
                CostTag::Crypto,
                os.machine.costs.sw_crypto_per_byte * PAGE_SIZE as u64,
            );
            let blob = sw_seal(&self.sealing_key, vpn, version, &contents);
            self.span_close(os, guard);
            os.sys_untrusted_write(blob_key(self.eid.0, vpn), blob);
            os.machine.emodt_trim(self.eid, vpn)?;
            os.machine.eaccept(self.eid, vpn)?;
            os.ay_remove_pages(self.eid, &[vpn])?;
        }
        Ok(())
    }

    /// SGXv2 software fetch: read the sealed blob from untrusted memory,
    /// authenticate it in-enclave (version-bound, so replay of an older
    /// blob fails), `EAUG` a fresh page and `EACCEPTCOPY` the contents
    /// in. The allocation syscall is retried through the transient path
    /// with a residency guard, since a retried `ay_alloc_pages` of an
    /// already-allocated page is refused with `BadRequest`.
    fn sw_fetch(&mut self, os: &mut Os, pages: &[Vpn]) -> Result<(), RtError> {
        for &vpn in pages {
            if os.machine.is_resident(self.eid, vpn) {
                continue; // reconcile: e.g. a suspend/resume reloaded it
            }
            let key = blob_key(self.eid.0, vpn);
            let blob = os.sys_untrusted_read(key).ok_or(RtError::SealBroken(vpn))?;
            let version = *self.sw_versions.get(&vpn).unwrap_or(&0);
            let guard = self.telemetry.enter(SpanKind::Open, os.machine.clock.now());
            os.machine.clock.charge_tagged(
                CostTag::Crypto,
                os.machine.costs.sw_crypto_per_byte * PAGE_SIZE as u64,
            );
            let contents = sw_open(&self.sealing_key, vpn, version, &blob);
            self.span_close(os, guard);
            let contents = contents.ok_or(RtError::SealBroken(vpn))?;
            self.with_retries(os, true, |os, eid| {
                if os.machine.is_resident(eid, vpn) {
                    return Ok(());
                }
                os.ay_alloc_pages(eid, &[vpn])
            })?;
            let perms = self.sw_perms.get(&vpn).copied().unwrap_or(Perms::RW);
            os.machine.eacceptcopy(self.eid, vpn, &contents, perms)?;
            if perms != Perms::RW {
                // Restore the original mapping permissions (code
                // pages must come back executable).
                os.ay_protect_pages(self.eid, &[vpn], perms)?;
            }
        }
        Ok(())
    }

    // ----------------------------------------------------------------
    // Hostile-OS hardening: retry, verification, degradation.
    // ----------------------------------------------------------------

    /// Run a driver call, absorbing *transient* failures (`NoMemory`,
    /// `Suspended`) with bounded exponential backoff charged to the
    /// simulated clock. With `allow_degrade`, sustained `NoMemory` also
    /// triggers cooperative budget shrinking (never on eviction paths,
    /// which degradation itself uses). Any other error — and a transient
    /// one that outlives the retry budget — propagates typed.
    fn with_retries<T>(
        &mut self,
        os: &mut Os,
        allow_degrade: bool,
        mut op: impl FnMut(&mut Os, EnclaveId) -> Result<T, OsError>,
    ) -> Result<T, RtError> {
        let mut attempt = 0u32;
        loop {
            match op(os, self.eid) {
                Ok(v) => return Ok(v),
                Err(e @ (OsError::NoMemory | OsError::Suspended(_))) if attempt < MAX_RETRIES => {
                    attempt += 1;
                    self.charge_backoff(os, attempt);
                    if allow_degrade && matches!(e, OsError::NoMemory) && attempt >= 2 {
                        self.degrade(os)?;
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Count one retry and charge its exponential backoff to the
    /// simulated clock under a `retry_backoff` span (both retry loops
    /// route through here).
    fn charge_backoff(&mut self, os: &mut Os, attempt: u32) {
        self.stats.retries += 1;
        let guard = self
            .telemetry
            .enter(SpanKind::RetryBackoff, os.machine.clock.now());
        let shift = (attempt - 1).min(10);
        os.machine
            .clock
            .charge_tagged(CostTag::Runtime, BACKOFF_BASE_CYCLES << shift);
        self.span_close(os, guard);
        if os.flight_armed() {
            os.flight_record(FlightEvent::Retry {
                attempt: u64::from(attempt),
                backoff_cycles: BACKOFF_BASE_CYCLES << shift,
            });
        }
        self.telemetry.retry_attempt.record(attempt as u64);
    }

    /// The degradation ladder: under sustained EPC pressure, shrink our
    /// own resident budget by a quarter (down to `DEGRADE_FLOOR`)
    /// and evict down to it immediately through the ballooning path
    /// (§5.4), freeing pinned frames for whoever needs them. Disabled
    /// under `PinAll`, where evicting would make later legitimate faults
    /// indistinguishable from attacks.
    fn degrade(&mut self, os: &mut Os) -> Result<(), RtError> {
        if self.config.mode == PolicyMode::PinAll {
            return Ok(());
        }
        let current = if self.config.budget == 0 {
            self.resident_count
        } else {
            self.config.budget
        };
        let target = current
            .saturating_sub((current / 4).max(1))
            .max(DEGRADE_FLOOR);
        if current == 0 || target >= current {
            return Ok(());
        }
        self.stats.degradations += 1;
        if os.flight_armed() {
            os.flight_record(FlightEvent::Degrade {
                from: current as u64,
                to: target as u64,
            });
        }
        self.shrink_budget(os, target)
    }

    /// Record one piece of evidence of OS misbehaviour (a lie, a dropped
    /// page, a diverged batch). Within the budget the runtime heals and
    /// continues; past it, the accumulated pattern is treated exactly
    /// like a controlled-channel signal: terminate with `AttackDetected`.
    fn note_misbehavior(
        &mut self,
        os: &mut Os,
        vpn: Vpn,
        why: &'static str,
    ) -> Result<(), RtError> {
        self.stats.misbehavior += 1;
        let budget = u64::from(MISBEHAVIOR_BUDGET);
        if os.flight_armed() {
            os.flight_record(FlightEvent::Misbehavior {
                vpn,
                used: self.stats.misbehavior,
                budget,
                why,
            });
        }
        if self.stats.misbehavior > budget {
            return self.attack(os, vpn, why);
        }
        Ok(())
    }

    /// Seal-freshness enforcement (the gap `ELDU` alone leaves open): the
    /// hardware accepts any sealed blob whose version matches its
    /// outstanding slot, but only the runtime knows which version it
    /// *last sealed*. If the hardware's outstanding version has moved
    /// backwards relative to the mirror, the machine state itself was
    /// rolled back (a stale snapshot restored under us) — terminate.
    /// Forward movement is benign: an injected suspend/resume or spurious
    /// evict legitimately re-evicts pages and bumps their versions.
    fn check_hw_freshness(&mut self, os: &mut Os, pages: &[Vpn]) -> Result<(), RtError> {
        for &vpn in pages {
            let Some(&recorded) = self.hw_versions.get(&vpn) else {
                continue;
            };
            match os.machine.outstanding_version(self.eid, vpn)? {
                Some(current) if current < recorded => {
                    return self.attack(os, vpn, "sealed page version downgraded");
                }
                Some(current) if current > recorded => {
                    self.hw_versions.insert(vpn, current);
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Post-restore re-verification: after the runtime's sealed state is
    /// reattached to a restored machine, confirm the two halves describe
    /// the same world. Residency tracking is checked against the
    /// architectural ground truth, and every mirrored anti-replay version
    /// is re-checked for downgrades. A hostile restore that splices stale
    /// machine state under fresh runtime state (or vice versa) trips
    /// `AttackDetected` here instead of corrupting the enclave later.
    pub fn verify_restore(&mut self, os: &mut Os) -> Result<(), RtError> {
        let mut tracked: Vec<(Vpn, bool)> = self
            .tracked
            .iter()
            .map(|(&vpn, &state)| (vpn, state == PageState::Resident))
            .collect();
        tracked.sort_by_key(|&(vpn, _)| vpn.0);
        for (vpn, resident) in tracked {
            if os.machine.is_resident(self.eid, vpn) != resident {
                return self.attack(os, vpn, "restored machine diverges from runtime tracking");
            }
        }
        let mut mirrored: Vec<Vpn> = self.hw_versions.keys().copied().collect();
        mirrored.sort_by_key(|vpn| vpn.0);
        self.check_hw_freshness(os, &mirrored)
    }

    /// Reconcile tracking for `pages` against architectural residency
    /// (the ground truth the OS cannot fake). Called after every batch
    /// operation, including failed ones, so partial completion never
    /// strands the tracking in a state where a legitimate fault looks
    /// like an attack — or an attack like a legitimate fault.
    fn sync_tracking(&mut self, os: &Os, pages: &[Vpn]) {
        for &vpn in pages {
            let actual = os.machine.is_resident(self.eid, vpn);
            if let Some(state) = self.tracked.get_mut(&vpn) {
                match (*state, actual) {
                    (PageState::Evicted, true) => {
                        *state = PageState::Resident;
                        self.resident_count += 1;
                        self.fifo.push_back(vpn);
                    }
                    (PageState::Resident, false) => {
                        *state = PageState::Evicted;
                        self.resident_count -= 1;
                        // Lazy FIFO: the stale entry is skipped at pop time.
                    }
                    _ => {}
                }
            }
        }
    }

    /// Hand pages back to OS management (the §7.3 libjpeg flow: buffers
    /// whose access pattern is insensitive can use flexible OS paging).
    /// The pages leave the runtime's tracking and any clusters.
    pub fn release_to_os(&mut self, os: &mut Os, pages: &[Vpn]) -> Result<(), RtError> {
        self.with_retries(os, false, |os, eid| os.ay_set_os_managed(eid, pages))?;
        for &vpn in pages {
            if self.tracked.remove(&vpn) == Some(PageState::Resident) {
                self.resident_count -= 1;
            }
            for id in self.clusters.ay_get_cluster_ids(vpn) {
                let _ = self.clusters.ay_remove_page(id, vpn);
            }
        }
        Ok(())
    }

    /// Verify the cluster residency invariant (§5.2.3) — used by tests.
    pub fn cluster_invariant_holds(&self) -> bool {
        self.clusters
            .invariant_holds(|vpn| self.tracked.get(&vpn) != Some(&PageState::Evicted))
    }

    // ----------------------------------------------------------------
    // Heap allocator (libOS allocator with automatic clustering, §5.2.3).
    // ----------------------------------------------------------------

    /// Allocate `size` bytes from the enclave heap (16-byte aligned).
    ///
    /// Backing pages are allocated lazily with `EAUG`+`EACCEPT`, become
    /// enclave-managed, and join the automatic data clusters when
    /// configured.
    pub fn malloc(&mut self, os: &mut Os, size: usize) -> Result<Va, RtError> {
        if self.terminated {
            return Err(RtError::Terminated);
        }
        self.stats.allocs += 1;
        let size = size.max(1).next_multiple_of(16);
        if let Some(list) = self.heap.free_lists.get_mut(&size) {
            if let Some(va) = list.pop() {
                return Ok(va);
            }
        }
        let offset = self.heap.bump;
        let end = offset + size as u64;
        if end > (self.heap.pages * PAGE_SIZE) as u64 {
            return Err(RtError::OutOfMemory);
        }
        self.heap.bump = end;
        let va = Va(self.heap.start.0 + offset);
        // Ensure every page covered by the allocation is backed.
        let first = va.vpn().0;
        let last = Va(self.heap.start.0 + end - 1).vpn().0;
        for n in first..=last {
            self.ensure_heap_page(os, Vpn(n))?;
        }
        Ok(va)
    }

    /// Eagerly back the first `n` heap pages (models statically allocated
    /// datasets, so timed regions exclude allocation costs).
    pub fn prealloc_heap_pages(&mut self, os: &mut Os, n: usize) -> Result<(), RtError> {
        let last = Vpn(self.heap.start.vpn().0 + (n.min(self.heap.pages)) as u64 - 1);
        self.ensure_heap_page(os, last)
    }

    /// One past the highest heap page the bump allocator has backed
    /// (useful for carving already-allocated structures out of the
    /// self-paging set — see [`Runtime::pin_os_managed`]).
    pub fn heap_frontier(&self) -> Vpn {
        Vpn(self.heap.allocated_until)
    }

    /// Hand `pages` back to OS management and drop them from self-paging
    /// tracking. This is the paper's Memcached-patch shape (§6): only
    /// *item* pages are registered for self-paging, while hot allocator
    /// metadata (the bucket array) stays OS-managed — it no longer
    /// occupies self-paging budget, is never an eviction candidate when
    /// the runtime makes room under its budget, and a fault on it takes
    /// the forwarding path instead of being judged against the pin
    /// contract.
    pub fn pin_os_managed(&mut self, os: &mut Os, pages: &[Vpn]) -> Result<(), RtError> {
        if pages.is_empty() {
            return Ok(());
        }
        self.with_retries(os, false, |os, eid| os.ay_set_os_managed(eid, pages))?;
        for &vpn in pages {
            // Stale FIFO entries are fine: make_room skips any popped
            // page that is no longer tracked as Resident.
            if self.tracked.remove(&vpn) == Some(PageState::Resident) {
                self.resident_count -= 1;
            }
        }
        self.telemetry
            .resident_pages
            .set(self.resident_count as u64);
        Ok(())
    }

    /// Return an allocation of `size` bytes at `va` to the free list.
    pub fn free(&mut self, va: Va, size: usize) {
        let size = size.max(1).next_multiple_of(16);
        self.heap.free_lists.entry(size).or_default().push(va);
    }

    fn ensure_heap_page(&mut self, os: &mut Os, vpn: Vpn) -> Result<(), RtError> {
        if vpn.0 < self.heap.allocated_until {
            return Ok(());
        }
        // Allocation happens outside any fault chain; correlate the
        // make-room evictions and retries it triggers under one chain.
        let began = os.flight_begin_chain_if_idle();
        let guard = self
            .telemetry
            .enter(SpanKind::HeapAlloc, os.machine.clock.now());
        let result = self.ensure_heap_page_inner(os, vpn);
        self.span_close(os, guard);
        if began {
            os.flight_end_chain();
        }
        result
    }

    fn ensure_heap_page_inner(&mut self, os: &mut Os, vpn: Vpn) -> Result<(), RtError> {
        // Lazy allocation: EAUG + EACCEPT, under the budget. Legacy
        // enclaves allocate the same way (Graphene-on-SGXv2 behaviour)
        // but their pages stay OS-managed and untracked.
        for n in self.heap.allocated_until..=vpn.0 {
            let page = Vpn(n);
            if self.self_paging {
                self.make_room(os, 1)?;
            }
            // Retried with a residency guard: a retry after a transient
            // failure must skip the page if the first attempt allocated
            // it (`ay_alloc_pages` refuses resident pages).
            self.with_retries(os, self.self_paging, |os, eid| {
                if os.machine.is_resident(eid, page) {
                    return Ok(());
                }
                os.ay_alloc_pages(eid, &[page])
            })?;
            os.machine.eaccept(self.eid, page)?;
            if self.self_paging {
                self.tracked.insert(page, PageState::Resident);
                self.resident_count += 1;
                self.fifo.push_back(page);
                self.clusters.auto_assign(page)?;
            }
            self.stats.pages_allocated += 1;
        }
        self.heap.allocated_until = vpn.0 + 1;
        Ok(())
    }

    // ----------------------------------------------------------------
    // Sealed telemetry export (epoch-granular, leak-audited).
    // ----------------------------------------------------------------

    /// The plaintext of every sealed export: the telemetry snapshot
    /// followed by [`RtStats`], one record per runtime fact. Its length
    /// is a constant, whatever the enclave did. A checkpoint embeds the
    /// same bytes, and record/replay compares them across runs.
    pub fn export_plaintext(&self) -> Vec<u8> {
        let mut out = self.telemetry.snapshot_bytes();
        self.stats.encode_into(&mut out);
        out
    }

    /// Close the current telemetry epoch and publish its sealed
    /// [`Runtime::export_plaintext`] to untrusted memory. A terminated
    /// enclave runs no code, so it exports nothing and returns
    /// [`RtError::Terminated`].
    ///
    /// The export path is designed to be indistinguishable across secrets
    /// (the leakage audit's `telemetry` case enforces this):
    ///
    /// * the plaintext is *fixed-size* aggregates — individual span
    ///   records never leave the enclave;
    /// * it is sealed with AEAD under a key domain-separated from the
    ///   page sealing key, binding the epoch number as nonce/AAD;
    /// * the untrusted-store key depends only on public values (enclave
    ///   id, epoch counter) — see [`telemetry_export_key`].
    ///
    /// The OS therefore observes only *that* an export of constant size
    /// happened at an epoch boundary the application fixes at
    /// deterministic points in its own progress.
    pub fn export_epoch(&mut self, os: &mut Os) -> Result<(), RtError> {
        if self.terminated {
            return Err(RtError::Terminated);
        }
        let epoch = self.telemetry.epoch();
        let plaintext = self.export_plaintext();
        self.telemetry.end_epoch();
        let guard = self.telemetry.enter(SpanKind::Seal, os.machine.clock.now());
        os.machine.clock.charge_tagged(
            CostTag::Crypto,
            os.machine.costs.sw_crypto_per_byte * plaintext.len() as u64,
        );
        let blob = seal_snapshot(&self.export_key, epoch, &plaintext);
        self.span_close(os, guard);
        os.sys_untrusted_write(telemetry_export_key(self.eid.0, epoch), blob);
        Ok(())
    }

    /// Read back and authenticate a previously exported epoch snapshot
    /// (models the trusted consumer of the telemetry stream; tests use it
    /// to verify the export round-trips and that tampering is caught).
    pub fn open_exported_epoch(&self, os: &mut Os, epoch: u64) -> Option<Vec<u8>> {
        let blob = os.sys_untrusted_read(telemetry_export_key(self.eid.0, epoch))?;
        open_snapshot(&self.export_key, epoch, &blob)
    }

    // ----------------------------------------------------------------
    // Checkpoint/restore (sealed by the snapshot subsystem).
    // ----------------------------------------------------------------

    /// Serialize the runtime's complete state into a canonical
    /// little-endian blob for checkpointing.
    ///
    /// Everything rides along: configuration, page tracking and FIFO
    /// order, the rate limiter's fault/progress history, anti-replay
    /// version mirrors, the heap allocator, the cluster registry, and —
    /// last — the [`Runtime::export_plaintext`], which carries the
    /// statistics (misbehaviour count included) and the telemetry state.
    /// Carrying the *hardening* state is deliberate — a restore that
    /// reset retry counters, misbehaviour debits, or the leakage budget
    /// would let the OS launder an attack by snapshotting before each
    /// probe. The thresholds those debits count against are constants
    /// of the runtime's code ([`MISBEHAVIOR_BUDGET`] among them), so no
    /// blob can carry other ones. Hash-map sections are emitted sorted, so identical runtimes
    /// always produce identical blobs. The blob holds secret-dependent
    /// state (which pages are resident, in what order) and must only
    /// leave the enclave sealed.
    pub fn capture_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"AYRT");
        out.extend_from_slice(&CAPTURE_VERSION.to_le_bytes());
        out.extend_from_slice(&self.eid.0.to_le_bytes());
        out.extend_from_slice(&(self.tcs as u64).to_le_bytes());
        out.push(u8::from(self.self_paging));
        out.push(u8::from(self.terminated));
        out.push(match self.config.mode {
            PolicyMode::PinAll => 0,
            PolicyMode::SelfPaging => 1,
        });
        out.push(match self.config.mechanism {
            PagingMechanism::Sgx1 => 0,
            PagingMechanism::Sgx2 => 1,
        });
        out.extend_from_slice(&(self.config.budget as u64).to_le_bytes());
        out.extend_from_slice(&(self.config.auto_cluster_size as u64).to_le_bytes());
        match self.config.rate_limit {
            Some(limit) => {
                out.push(1);
                out.extend_from_slice(&limit.max_faults_per_progress.to_bits().to_le_bytes());
                out.extend_from_slice(&limit.burst.to_le_bytes());
            }
            None => out.push(0),
        }
        out.extend_from_slice(&self.limiter.faults().to_le_bytes());
        out.extend_from_slice(&self.limiter.progress_total().to_le_bytes());
        let mut tracked: Vec<(Vpn, PageState)> =
            self.tracked.iter().map(|(&v, &s)| (v, s)).collect();
        tracked.sort_by_key(|&(v, _)| v.0);
        out.extend_from_slice(&(tracked.len() as u64).to_le_bytes());
        for (vpn, state) in tracked {
            out.extend_from_slice(&vpn.0.to_le_bytes());
            out.push(match state {
                PageState::Resident => 0,
                PageState::Evicted => 1,
            });
        }
        out.extend_from_slice(&(self.fifo.len() as u64).to_le_bytes());
        for &vpn in &self.fifo {
            out.extend_from_slice(&vpn.0.to_le_bytes());
        }
        out.extend_from_slice(&(self.resident_count as u64).to_le_bytes());
        encode_vpn_u64_map(&mut out, &self.sw_versions);
        let mut perms: Vec<(Vpn, Perms)> = self.sw_perms.iter().map(|(&v, &p)| (v, p)).collect();
        perms.sort_by_key(|&(v, _)| v.0);
        out.extend_from_slice(&(perms.len() as u64).to_le_bytes());
        for (vpn, p) in perms {
            out.extend_from_slice(&vpn.0.to_le_bytes());
            out.push(p.bits());
        }
        encode_vpn_u64_map(&mut out, &self.hw_versions);
        out.extend_from_slice(&self.heap.start.0.to_le_bytes());
        out.extend_from_slice(&(self.heap.pages as u64).to_le_bytes());
        out.extend_from_slice(&self.heap.bump.to_le_bytes());
        out.extend_from_slice(&self.heap.allocated_until.to_le_bytes());
        let mut lists: Vec<(usize, &Vec<Va>)> = self
            .heap
            .free_lists
            .iter()
            .map(|(&size, list)| (size, list))
            .collect();
        lists.sort_by_key(|&(size, _)| size);
        out.extend_from_slice(&(lists.len() as u64).to_le_bytes());
        for (size, list) in lists {
            out.extend_from_slice(&(size as u64).to_le_bytes());
            out.extend_from_slice(&(list.len() as u64).to_le_bytes());
            for va in list {
                out.extend_from_slice(&va.0.to_le_bytes());
            }
        }
        let clusters = self.clusters.capture();
        out.extend_from_slice(&(clusters.clusters.len() as u64).to_le_bytes());
        for (id, pages) in &clusters.clusters {
            out.extend_from_slice(&id.0.to_le_bytes());
            out.extend_from_slice(&(pages.len() as u64).to_le_bytes());
            for vpn in pages {
                out.extend_from_slice(&vpn.0.to_le_bytes());
            }
        }
        out.extend_from_slice(&clusters.next_id.to_le_bytes());
        out.extend_from_slice(&(clusters.auto_size as u64).to_le_bytes());
        match clusters.auto_current {
            Some(id) => {
                out.push(1);
                out.extend_from_slice(&id.0.to_le_bytes());
            }
            None => out.push(0),
        }
        let export = self.export_plaintext();
        out.extend_from_slice(&(export.len() as u64).to_le_bytes());
        out.extend_from_slice(&export);
        out
    }

    /// Rebuild a runtime from [`Runtime::capture_bytes`] output (after
    /// the snapshot subsystem has unsealed and freshness-checked it).
    ///
    /// Keys are re-derived from the enclave id, never stored. Any
    /// structural problem is a [`DecodeError`]; freshness and consistency
    /// against the restored machine are checked separately by
    /// [`Runtime::verify_restore`].
    pub fn restore_from_bytes(blob: &[u8]) -> Result<Runtime, DecodeError> {
        let mut r = Reader::new(blob);
        if r.array()? != *b"AYRT" || r.u32()? != CAPTURE_VERSION {
            return Err(DecodeError::BadTag);
        }
        let eid = EnclaveId(r.u32()?);
        let tcs = r.usize()?;
        let self_paging = r.bool()?;
        let terminated = r.bool()?;
        let mode = match r.u8()? {
            0 => PolicyMode::PinAll,
            1 => PolicyMode::SelfPaging,
            _ => return Err(DecodeError::BadTag),
        };
        let mechanism = match r.u8()? {
            0 => PagingMechanism::Sgx1,
            1 => PagingMechanism::Sgx2,
            _ => return Err(DecodeError::BadTag),
        };
        let budget = r.usize()?;
        let auto_cluster_size = r.usize()?;
        let rate_limit = match r.u8()? {
            0 => None,
            1 => Some(RateLimit {
                max_faults_per_progress: f64::from_bits(r.u64()?),
                burst: r.u64()?,
            }),
            _ => return Err(DecodeError::BadTag),
        };
        let limiter_faults = r.u64()?;
        let limiter_progress = r.u64()?;
        let tracked = r
            .list(9, |r| {
                let vpn = Vpn(r.u64()?);
                let state = match r.u8()? {
                    0 => PageState::Resident,
                    1 => PageState::Evicted,
                    _ => return Err(DecodeError::BadTag),
                };
                Ok((vpn, state))
            })?
            .into_iter()
            .collect();
        let fifo = r.list(8, |r| Ok(Vpn(r.u64()?)))?.into();
        let resident_count = r.usize()?;
        let sw_versions = decode_vpn_u64_map(&mut r)?;
        let sw_perms = r
            .list(9, |r| {
                let vpn = Vpn(r.u64()?);
                let perms = Perms::from_bits(r.u8()?).ok_or(DecodeError::BadTag)?;
                Ok((vpn, perms))
            })?
            .into_iter()
            .collect();
        let hw_versions = decode_vpn_u64_map(&mut r)?;
        let heap_start = Va(r.u64()?);
        let heap_pages = r.usize()?;
        let bump = r.u64()?;
        let allocated_until = r.u64()?;
        let free_lists = r
            .list(16, |r| {
                let size = r.usize()?;
                Ok((size, r.list(8, |r| Ok(Va(r.u64()?)))?))
            })?
            .into_iter()
            .collect();
        let cluster_list = r.list(12, |r| {
            let id = ClusterId(r.u32()?);
            Ok((id, r.list(8, |r| Ok(Vpn(r.u64()?)))?))
        })?;
        let next_id = r.u32()?;
        let auto_size = r.usize()?;
        let auto_current = match r.u8()? {
            0 => None,
            1 => Some(ClusterId(r.u32()?)),
            _ => return Err(DecodeError::BadTag),
        };
        let clusters = ClusterMap::restore(&ClusterCapture {
            clusters: cluster_list,
            next_id,
            auto_size,
            auto_current,
        });
        let export_len = r.usize()?;
        let mut export = Reader::new(r.bytes(export_len)?);
        r.finish()?;
        let mut telemetry = Box::<Telemetry>::default();
        telemetry.restore_state(export.bytes(Telemetry::SNAPSHOT_LEN)?)?;
        let stats = RtStats::decode(&mut export)?;
        export.finish()?;
        Ok(Runtime {
            eid,
            tcs,
            config: RuntimeConfig {
                mode,
                rate_limit,
                mechanism,
                budget,
                auto_cluster_size,
            },
            tracked,
            clusters,
            self_paging,
            fifo,
            resident_count,
            limiter: RateLimiter::from_parts(rate_limit, limiter_faults, limiter_progress),
            sealing_key: derive_sealing_key(eid),
            sw_versions,
            sw_perms,
            hw_versions,
            heap: Heap {
                start: heap_start,
                pages: heap_pages,
                bump,
                free_lists,
                allocated_until,
            },
            stats,
            telemetry,
            export_key: derive_export_key(eid),
            terminated,
        })
    }
}

/// Format version of [`Runtime::capture_bytes`].
const CAPTURE_VERSION: u32 = 3;

fn derive_sealing_key(eid: EnclaveId) -> [u8; 32] {
    // Stand-in for EGETKEY: a per-enclave sealing key.
    autarky_crypto::hmac_sha256(b"autarky-runtime-sealing", &eid.0.to_le_bytes())
}

fn derive_export_key(eid: EnclaveId) -> [u8; 32] {
    // Domain-separated from the page sealing key so an export blob can
    // never be replayed as a sealed page (or vice versa).
    autarky_crypto::hmac_sha256(b"autarky-telemetry-export", &eid.0.to_le_bytes())
}

/// High bit marking an untrusted-store key as a telemetry export. Page
/// blobs use [`blob_key`] = `eid << 40 | vpn`, which never sets it, so the
/// two key spaces are disjoint by construction.
pub const TELEMETRY_EXPORT_KEY_BIT: u64 = 1 << 63;

/// Untrusted-store key for one enclave's sealed telemetry export of one
/// epoch. Both inputs are public, so the key sequence an adversary
/// observes is independent of enclave secrets.
pub fn telemetry_export_key(eid_raw: u32, epoch: u64) -> u64 {
    TELEMETRY_EXPORT_KEY_BIT | ((eid_raw as u64) << 40) | (epoch & 0xFF_FFFF_FFFF)
}

/// Whether an untrusted-store key names a telemetry export blob (used by
/// the leakage audit to isolate the export channel).
pub fn is_telemetry_export_key(key: u64) -> bool {
    key & TELEMETRY_EXPORT_KEY_BIT != 0
}

fn export_nonce(epoch: u64) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[..8].copy_from_slice(&epoch.to_le_bytes());
    nonce
}

/// Sealed export blob: `epoch (8) || tag (16) || ciphertext`.
fn seal_snapshot(key: &[u8; 32], epoch: u64, snapshot: &[u8]) -> Vec<u8> {
    let mut ciphertext = snapshot.to_vec();
    let tag = aead::seal(
        key,
        &export_nonce(epoch),
        &epoch.to_le_bytes(),
        &mut ciphertext,
    );
    let mut out = Vec::with_capacity(8 + TAG_LEN + ciphertext.len());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&tag);
    out.extend_from_slice(&ciphertext);
    out
}

/// Verify and decrypt a blob produced by [`seal_snapshot`].
fn open_snapshot(key: &[u8; 32], expected_epoch: u64, blob: &[u8]) -> Option<Vec<u8>> {
    if blob.len() < 8 + TAG_LEN {
        return None;
    }
    let epoch = u64::from_le_bytes(blob[..8].try_into().ok()?);
    if epoch != expected_epoch {
        return None;
    }
    let tag: [u8; TAG_LEN] = blob[8..8 + TAG_LEN].try_into().ok()?;
    let mut ciphertext = blob[8 + TAG_LEN..].to_vec();
    aead::open(
        key,
        &export_nonce(epoch),
        &epoch.to_le_bytes(),
        &mut ciphertext,
        &tag,
    )
    .ok()?;
    Some(ciphertext)
}

// ------------------------------------------------------------------
// Checkpoint codec helpers.
// ------------------------------------------------------------------

/// Encode a vpn→u64 map sorted by vpn so identical maps always produce
/// identical bytes regardless of hash-map iteration order.
fn encode_vpn_u64_map(out: &mut Vec<u8>, map: &SimMap<Vpn, u64>) {
    let mut entries: Vec<(Vpn, u64)> = map.iter().map(|(&vpn, &value)| (vpn, value)).collect();
    entries.sort_by_key(|&(vpn, _)| vpn.0);
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (vpn, value) in entries {
        out.extend_from_slice(&vpn.0.to_le_bytes());
        out.extend_from_slice(&value.to_le_bytes());
    }
}

fn decode_vpn_u64_map(r: &mut Reader<'_>) -> Result<SimMap<Vpn, u64>, DecodeError> {
    Ok(r.list(16, |r| Ok((Vpn(r.u64()?), r.u64()?)))?
        .into_iter()
        .collect())
}
