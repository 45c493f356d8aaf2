//! The untrusted OS kernel: enclave loading, EPC accounting, demand paging
//! of OS-managed pages, fault entry, and whole-enclave swap.
//!
//! Everything in this module runs *outside* the trust boundary. It is both
//! the resource manager the enclave depends on and — via
//! [`crate::attack`] — the adversary of the paper's threat model (§3).

use std::collections::BTreeSet;

use autarky_prng::SimMap;
use autarky_sgx_sim::machine::MachineConfig;
use autarky_sgx_sim::pagetable::Pte;
use autarky_sgx_sim::{
    AccessKind, Attributes, CostTag, EnclaveId, FaultEvent, Machine, PageType, Perms, SgxError, Va,
    Vpn,
};

use crate::attack::Attacker;
use crate::backing::BackingStore;
use crate::eviction::{EvictionPolicy, EvictionState};
use crate::fault::{FaultInjector, FaultKind, FaultPlan, InjectedFault, SyscallKind};
use crate::flight::{FlightEvent, FlightRecord, FlightRecorder, CORR_NONE};
use crate::image::EnclaveImage;

/// Errors surfaced by OS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OsError {
    /// EPC exhausted and nothing evictable: the caller must free memory.
    NoMemory,
    /// The enclave id is unknown to the OS.
    NotLoaded(EnclaveId),
    /// The enclave is suspended (whole-enclave swap) and cannot run.
    Suspended(EnclaveId),
    /// Underlying architectural failure.
    Sgx(SgxError),
    /// The OS refused a nonsensical request (e.g. fetching a page that has
    /// no backing copy and was never allocated).
    BadRequest(&'static str),
}

impl From<SgxError> for OsError {
    fn from(err: SgxError) -> Self {
        OsError::Sgx(err)
    }
}

impl core::fmt::Display for OsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OsError::NoMemory => write!(f, "out of EPC memory"),
            OsError::NotLoaded(eid) => write!(f, "{eid} not loaded"),
            OsError::Suspended(eid) => write!(f, "{eid} is suspended"),
            OsError::Sgx(e) => write!(f, "SGX error: {e}"),
            OsError::BadRequest(what) => write!(f, "bad request: {what}"),
        }
    }
}

impl std::error::Error for OsError {
    /// The architectural error that caused this one, when there is one.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OsError::Sgx(e) => Some(e),
            _ => None,
        }
    }
}

/// One adversary-visible event. The attack oracles consume only this
/// stream (plus direct page-table inspection) — never enclave-internal
/// state — so a verdict of "nothing leaked" is meaningful.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Observation {
    /// A fault was delivered to the OS with this (possibly masked) report.
    Fault {
        /// Faulting enclave.
        eid: EnclaveId,
        /// Reported address (enclave base when masked).
        va: Va,
        /// Reported access kind (`Read` when masked).
        kind: AccessKind,
    },
    /// The enclave runtime asked to fetch these pages (demand-paging side
    /// channel — visible by design, clusters widen the anonymity set).
    FetchSyscall {
        /// Requesting enclave.
        eid: EnclaveId,
        /// Pages requested, in request order.
        pages: Vec<Vpn>,
    },
    /// The enclave runtime asked to evict these pages.
    EvictSyscall {
        /// Requesting enclave.
        eid: EnclaveId,
        /// Pages evicted.
        pages: Vec<Vpn>,
    },
    /// The enclave runtime asked for fresh (zeroed) pages.
    AllocSyscall {
        /// Requesting enclave.
        eid: EnclaveId,
        /// Pages allocated.
        pages: Vec<Vpn>,
    },
    /// Pages were handed to enclave management.
    SetEnclaveManaged {
        /// Requesting enclave.
        eid: EnclaveId,
        /// Pages transferred.
        pages: Vec<Vpn>,
    },
    /// Pages were handed (back) to OS management.
    SetOsManaged {
        /// Requesting enclave.
        eid: EnclaveId,
        /// Pages transferred.
        pages: Vec<Vpn>,
    },
    /// An untrusted-memory buffer was read or written by the enclave.
    UntrustedAccess {
        /// Buffer key.
        key: u64,
        /// True for writes.
        write: bool,
    },
    /// The OS performed legacy demand paging for this page.
    DemandPaging {
        /// Enclave.
        eid: EnclaveId,
        /// Page paged in.
        vpn: Vpn,
    },
    /// An attacker poll found a PTE accessed/dirty bit newly set.
    AdBitObserved {
        /// Enclave.
        eid: EnclaveId,
        /// Page observed.
        vpn: Vpn,
        /// Whether the dirty bit (vs just accessed) was set.
        dirty: bool,
    },
    /// The fault injector perturbed a driver call (robustness harness).
    FaultInjected {
        /// Enclave whose call was perturbed.
        eid: EnclaveId,
        /// What was injected, as applied.
        fault: InjectedFault,
    },
}

/// What `Os::on_fault` decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDisposition {
    /// Legacy flow: the OS resolved the fault and silently resumed the
    /// enclave; the access should simply be replayed.
    Resumed,
    /// Autarky flow: `ERESUME` is blocked by the pending-exception flag;
    /// the OS re-entered the enclave so the trusted handler can run.
    HandlerRequired,
}

#[derive(Clone)]
pub(crate) struct Proc {
    pub image: EnclaveImage,
    /// Pages the OS may page at will.
    pub os_managed: BTreeSet<Vpn>,
    /// Pages pinned under the Autarky contract while the enclave runs.
    pub enclave_managed: BTreeSet<Vpn>,
    pub eviction: EvictionState,
    /// Maximum EPC frames this enclave may occupy.
    pub quota: usize,
    pub suspended: bool,
}

/// The untrusted operating system.
pub struct Os {
    /// The hardware. Public so trusted-runtime code can execute its
    /// (unprivileged) instructions on it, exactly as real enclave code
    /// shares the CPU with the kernel.
    pub machine: Machine,
    pub(crate) procs: SimMap<EnclaveId, Proc>,
    /// Untrusted swap space.
    pub backing: BackingStore,
    /// The currently armed attacker (part of the OS).
    pub attacker: Attacker,
    /// The all-time adversary-visible event stream. Append-only: events
    /// are never drained, so a [`Os::observation_mark`] cursor is a plain
    /// index into this vector and stays valid for the OS's lifetime.
    observations: Vec<Observation>,
    /// Use exitless calls for enclave syscalls (Graphene/Eleos style).
    pub exitless: bool,
    /// Armed fault injector (robustness harness), if any.
    pub(crate) injector: Option<FaultInjector>,
    /// Armed causal flight recorder (off by default), if any.
    flight: Option<FlightRecorder>,
}

impl Os {
    /// Boot an OS on a machine built from `config`.
    pub fn new(config: MachineConfig) -> Self {
        Self {
            machine: Machine::new(config),
            procs: SimMap::default(),
            backing: BackingStore::new(),
            attacker: Attacker::None,
            observations: Vec::new(),
            exitless: true,
            injector: None,
            flight: None,
        }
    }

    // ----------------------------------------------------------------
    // Fault injection (robustness harness).
    // ----------------------------------------------------------------

    /// Arm the hostile-OS fault injector with `plan`. Subsequent driver
    /// calls are perturbed per the plan's seeded schedule; every injected
    /// fault is recorded as [`Observation::FaultInjected`].
    pub fn arm_fault_plan(&mut self, plan: FaultPlan) {
        self.injector = Some(FaultInjector::new(plan));
    }

    /// Disarm the injector, returning how many faults it injected.
    pub fn disarm_fault_plan(&mut self) -> u64 {
        self.injector.take().map(|i| i.injected()).unwrap_or(0)
    }

    /// Whether an injected suspend is awaiting its transparent resume
    /// (exposed so the fault path can model the OS resuming the enclave
    /// before the next entry, as the syscall-entry hook would).
    pub fn has_pending_injected_resume(&self) -> bool {
        self.injector
            .as_ref()
            .and_then(|inj| inj.peek_pending_resume())
            .is_some()
    }

    /// Syscall-entry hook: transparently resume an enclave that an
    /// injected [`FaultKind::Suspend`] put to sleep. The OS decided to
    /// swap the enclave out; by the time the runtime retries, it has
    /// decided to bring it back. The pending marker is only cleared once
    /// resumption succeeds, so a transient resume failure (EPC pressure)
    /// is retried at the next syscall entry.
    pub fn resume_injected_suspend(&mut self) -> Result<(), OsError> {
        let pending = self
            .injector
            .as_ref()
            .and_then(|inj| inj.peek_pending_resume());
        if let Some(suspended) = pending {
            if self.is_suspended(suspended) {
                self.resume_enclave(suspended)?;
            }
            if let Some(inj) = self.injector.as_mut() {
                inj.take_pending_resume();
            }
        }
        Ok(())
    }

    /// Draw the fault decision for one driver call issued by `eid` (one
    /// RNG draw for untargeted plans; targeted plans skip other enclaves
    /// without a draw — see [`FaultPlan::target`]).
    pub(crate) fn inject_decide(
        &mut self,
        eid: EnclaveId,
        syscall: SyscallKind,
        batch_len: usize,
    ) -> Option<FaultKind> {
        self.injector
            .as_mut()
            .and_then(|inj| inj.decide(eid, syscall, batch_len))
    }

    /// Record an applied fault in the log and the injector's count.
    pub(crate) fn record_injection(&mut self, eid: EnclaveId, fault: InjectedFault) {
        if let Some(inj) = self.injector.as_mut() {
            inj.record();
        }
        self.observe(Observation::FaultInjected { eid, fault });
    }

    /// Apply an injected whole-enclave suspension after `completed` batch
    /// entries: evict everything, remember to resume at the next syscall
    /// entry, and return the error the current call must fail with.
    pub(crate) fn apply_injected_suspend(&mut self, eid: EnclaveId, completed: usize) -> OsError {
        if let Err(e) = self.suspend_enclave(eid) {
            return e;
        }
        if let Some(inj) = self.injector.as_mut() {
            inj.set_pending_resume(eid);
        }
        self.record_injection(eid, InjectedFault::Suspend { completed });
        OsError::Suspended(eid)
    }

    /// Apply an injected delay: charge the cycle model and log it.
    pub(crate) fn apply_injected_delay(&mut self, eid: EnclaveId) {
        let cycles = self
            .injector
            .as_ref()
            .map(|inj| inj.delay_cycles())
            .unwrap_or(0);
        self.machine.clock.charge_tagged(CostTag::Injected, cycles);
        self.record_injection(eid, InjectedFault::Delay { cycles });
    }

    /// Pick a batch index for a batch-shaping fault.
    pub(crate) fn inject_pick_index(&mut self, len: usize) -> usize {
        self.injector
            .as_mut()
            .map(|inj| inj.pick_index(len))
            .unwrap_or(0)
    }

    /// Apply an injected spurious eviction: evict the lowest-numbered
    /// pinned (enclave-managed, resident) page, violating the pin
    /// contract. Returns whether a victim existed.
    pub(crate) fn apply_spurious_evict(&mut self, eid: EnclaveId) -> Result<bool, OsError> {
        let victim = self
            .proc(eid)?
            .enclave_managed
            .iter()
            .copied()
            .find(|&vpn| self.machine.is_resident(eid, vpn));
        match victim {
            Some(vpn) => {
                self.evict_page_ewb(eid, vpn)?;
                self.record_injection(eid, InjectedFault::SpuriousEvict { vpn });
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// The adversary-visible event log.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// A cursor into the all-time observation stream. Pair with
    /// [`Os::observations_since`] to read events non-destructively, so
    /// several consumers (attack oracles, leakage capture) can share the
    /// stream without stealing each other's events.
    ///
    /// The stream is append-only, so a mark is simply the stream length
    /// at the moment it was taken and never expires.
    pub fn observation_mark(&self) -> u64 {
        self.observations.len() as u64
    }

    /// Events recorded at or after `mark` (from [`Os::observation_mark`]).
    /// Reads are non-draining and repeatable: the same mark always yields
    /// the same prefix-stable slice, however many consumers share it.
    pub fn observations_since(&self, mark: u64) -> &[Observation] {
        let start = (mark as usize).min(self.observations.len());
        &self.observations[start..]
    }

    pub(crate) fn observe(&mut self, obs: Observation) {
        if self.flight.is_some() {
            self.flight_record(FlightEvent::Kernel(obs.clone()));
        }
        self.observations.push(obs);
    }

    // ----------------------------------------------------------------
    // Causal flight recorder.
    // ----------------------------------------------------------------

    /// Arm the causal flight recorder with a ring of `capacity` records.
    /// Also arms the machine's enclave-transition log so hardware events
    /// (AEX, `EENTER`, blocked resumes, ...) interleave into the stream.
    /// While armed, every recorded event charges
    /// [`autarky_sgx_sim::CostTag::Recorder`] cycles — the recorder's
    /// observer effect is measured, not hidden.
    pub fn arm_flight_recorder(&mut self, capacity: usize) {
        self.flight = Some(FlightRecorder::new(capacity));
        self.machine.set_transition_recording(true);
    }

    /// Disarm the recorder and return it (with any still-undrained
    /// machine transitions folded in), or `None` if it was not armed.
    pub fn disarm_flight_recorder(&mut self) -> Option<FlightRecorder> {
        self.flight_sync();
        self.machine.set_transition_recording(false);
        self.flight.take()
    }

    /// Whether the flight recorder is armed.
    pub fn flight_armed(&self) -> bool {
        self.flight.is_some()
    }

    /// Fold machine transitions recorded since the last drain into the
    /// flight log (stamped with their captured cycle times and the
    /// currently open correlation chain). Each folded record charges its
    /// cost to the clock now, so a caller that must fix *when* that cost
    /// lands (e.g. before traffic is scheduled) folds explicitly.
    pub fn flight_sync(&mut self) {
        let Some(rec) = self.flight.as_mut() else {
            return;
        };
        for t in self.machine.take_transitions() {
            let (tag, cost) = rec.record_cost();
            self.machine.clock.charge_tagged(tag, cost);
            rec.record(
                t.cycles,
                FlightEvent::Transition {
                    kind: t.kind,
                    eid: t.eid,
                    tcs: t.tcs,
                },
            );
        }
    }

    /// Record one event in the flight log (no-op while disarmed). Any
    /// pending machine transitions are folded in first so the log stays
    /// causally ordered, and each record charges its simulated cost.
    pub fn flight_record(&mut self, event: FlightEvent) {
        if self.flight.is_none() {
            return;
        }
        self.flight_sync();
        if let Some(rec) = self.flight.as_mut() {
            let (tag, cost) = rec.record_cost();
            self.machine.clock.charge_tagged(tag, cost);
            let now = self.machine.clock.now();
            rec.record(now, event);
        }
    }

    /// Open a new correlation chain: events recorded from here until
    /// [`Os::flight_end_chain`] share one chain id. Returns the id
    /// ([`CORR_NONE`] while disarmed).
    pub fn flight_begin_chain(&mut self) -> u64 {
        self.flight_sync();
        self.flight
            .as_mut()
            .map(|rec| rec.begin_chain())
            .unwrap_or(CORR_NONE)
    }

    /// Open a chain only if none is active. Returns `true` if this call
    /// opened one (the caller then owns closing it).
    pub fn flight_begin_chain_if_idle(&mut self) -> bool {
        let idle = matches!(self.flight.as_ref(), Some(rec) if !rec.chain_active());
        if idle {
            self.flight_begin_chain();
        }
        idle
    }

    /// Close the open correlation chain, first folding in any pending
    /// machine transitions (e.g. the closing `EEXIT`/`ERESUME`) so they
    /// stay attributed to the chain.
    pub fn flight_end_chain(&mut self) {
        self.flight_sync();
        if let Some(rec) = self.flight.as_mut() {
            rec.end_chain();
        }
    }

    /// Snapshot of the retained flight records, oldest first (pending
    /// machine transitions folded in).
    pub fn flight_snapshot(&mut self) -> Vec<FlightRecord> {
        self.flight_sync();
        self.flight
            .as_ref()
            .map(|rec| rec.snapshot())
            .unwrap_or_default()
    }

    /// Flight records lost to ring overflow.
    pub fn flight_dropped(&self) -> u64 {
        self.flight.as_ref().map(|rec| rec.dropped()).unwrap_or(0)
    }

    pub(crate) fn proc(&self, eid: EnclaveId) -> Result<&Proc, OsError> {
        self.procs.get(&eid).ok_or(OsError::NotLoaded(eid))
    }

    pub(crate) fn proc_mut(&mut self, eid: EnclaveId) -> Result<&mut Proc, OsError> {
        self.procs.get_mut(&eid).ok_or(OsError::NotLoaded(eid))
    }

    /// The image an enclave was loaded from.
    pub fn image(&self, eid: EnclaveId) -> Result<&EnclaveImage, OsError> {
        Ok(&self.proc(eid)?.image)
    }

    /// Charge one syscall (exitless handoff or ring switch).
    pub(crate) fn charge_syscall(&mut self) {
        let cost = if self.exitless {
            self.machine.costs.exitless_call
        } else {
            self.machine.costs.syscall
        };
        self.machine.clock.charge_tagged(CostTag::Syscall, cost);
    }

    // ----------------------------------------------------------------
    // Loading.
    // ----------------------------------------------------------------

    /// Load an enclave: `ECREATE`, `EADD`+measure the initial pages, map
    /// them (A/D preset), `EINIT`, and `EENTER` on TCS 0.
    ///
    /// If the initial image exceeds EPC (or the enclave's quota), the
    /// loader pages out already-loaded pages as it goes, so images larger
    /// than EPC load fine — they just start partially swapped.
    pub fn load_enclave(&mut self, image: &EnclaveImage) -> Result<EnclaveId, OsError> {
        let attributes = Attributes {
            self_paging: image.self_paging,
            debug: false,
        };
        let eid = self
            .machine
            .ecreate(image.base, image.size_bytes(), attributes);
        let policy = if image.self_paging {
            EvictionPolicy::Fifo
        } else {
            EvictionPolicy::Clock
        };
        self.procs.insert(
            eid,
            Proc {
                image: image.clone(),
                os_managed: BTreeSet::new(),
                enclave_managed: BTreeSet::new(),
                eviction: EvictionState::new(policy),
                quota: self.machine.epc_total_frames(),
                suspended: false,
            },
        );

        // TCS pages.
        for i in 0..image.tcs_count {
            let vpn = Vpn(image.tcs_start().0 + i as u64);
            self.add_initial_page(eid, vpn, PageType::Tcs, Perms::RW, image)?;
        }
        // Code (RX, measured contents).
        for vpn in image.code_range() {
            self.add_initial_page(eid, vpn, PageType::Reg, Perms::RX, image)?;
        }
        // Data and stack (RW).
        let data_start = image.data_start().0;
        let stack_end = image.heap_start().0;
        for n in data_start..stack_end {
            self.add_initial_page(eid, Vpn(n), PageType::Reg, Perms::RW, image)?;
        }
        // The heap region is reserved but not backed: the runtime
        // allocates it lazily with `EAUG` (SGXv2 dynamic memory), for
        // legacy and self-paging enclaves alike — as Graphene-SGX does on
        // SGXv2 hardware.
        self.machine.einit(eid)?;
        self.machine.eenter(eid, 0)?;
        Ok(eid)
    }

    fn add_initial_page(
        &mut self,
        eid: EnclaveId,
        vpn: Vpn,
        page_type: PageType,
        perms: Perms,
        image: &EnclaveImage,
    ) -> Result<(), OsError> {
        self.make_room(eid)?;
        // Code pages carry (measured) synthetic contents; data, stack and
        // heap start zeroed, like BSS.
        let contents = if perms.x {
            Some(image.page_contents(vpn))
        } else {
            None
        };
        let frame = self
            .machine
            .eadd(eid, vpn, page_type, perms, contents.as_ref())?;
        self.machine.page_table_mut(eid)?.map(
            vpn,
            Pte {
                present: true,
                frame,
                perms,
                accessed: true,
                dirty: true,
            },
        );
        let proc = self.proc_mut(eid)?;
        proc.os_managed.insert(vpn);
        proc.eviction.on_resident(vpn);
        Ok(())
    }

    // ----------------------------------------------------------------
    // EPC accounting and OS-driven eviction.
    // ----------------------------------------------------------------

    /// Set the EPC quota (in frames) for an enclave, immediately evicting
    /// OS-managed pages down to the new limit (kernel reclaim). Pinned
    /// enclave-managed pages are never touched, so the effective floor is
    /// the enclave's pinned working set.
    pub fn set_epc_quota(&mut self, eid: EnclaveId, frames: usize) -> Result<(), OsError> {
        self.proc_mut(eid)?.quota = frames;
        while self.machine.epc_frames_of(eid) > frames {
            match self.evict_one_os_managed(eid) {
                Ok(_) => {}
                Err(OsError::NoMemory) => break, // only pinned pages remain
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The enclave's EPC quota in frames.
    pub fn epc_quota(&self, eid: EnclaveId) -> Result<usize, OsError> {
        Ok(self.proc(eid)?.quota)
    }

    /// EPC frames the enclave currently occupies.
    pub fn resident_frames(&self, eid: EnclaveId) -> usize {
        self.machine.epc_frames_of(eid)
    }

    /// Ensure at least one frame is available for `eid` without exceeding
    /// its quota, evicting OS-managed pages if necessary.
    pub(crate) fn make_room(&mut self, eid: EnclaveId) -> Result<(), OsError> {
        loop {
            let over_quota = {
                let quota = self.proc(eid)?.quota;
                self.machine.epc_frames_of(eid) >= quota
            };
            let epc_full = self.machine.epc_free_frames() == 0;
            if !over_quota && !epc_full {
                return Ok(());
            }
            // Victim enclave: ourselves when over quota, else whoever has
            // the most evictable pages. Ties go to the highest id, not to
            // the map's iteration order, which differs between hosts.
            let victim_eid = if over_quota {
                eid
            } else {
                self.procs
                    .iter()
                    .filter(|(_, p)| !p.eviction.is_empty())
                    .map(|(e, _)| (self.machine.epc_frames_of(*e), *e))
                    .max()
                    .map(|(_, e)| e)
                    .ok_or(OsError::NoMemory)?
            };
            self.evict_one_os_managed(victim_eid)?;
        }
    }

    /// Evict a single OS-managed page of `eid`, chosen by its policy
    /// (used by quota reclaim and by the hypervisor's balloon).
    ///
    /// Stale queue entries (pages that already left EPC by another path,
    /// e.g. whole-enclave suspension) are skipped and dropped.
    pub fn evict_one_os_managed(&mut self, eid: EnclaveId) -> Result<Vpn, OsError> {
        loop {
            let victim = self.pick_os_victim(eid)?;
            if self.machine.is_resident(eid, victim) {
                self.evict_page_ewb(eid, victim)?;
                return Ok(victim);
            }
        }
    }

    fn pick_os_victim(&mut self, eid: EnclaveId) -> Result<Vpn, OsError> {
        // Victim selection may consult/clear PTE accessed bits (clock).
        let victim = {
            let machine = &mut self.machine;
            let proc = self.procs.get_mut(&eid).ok_or(OsError::NotLoaded(eid))?;
            let mut clear_list = Vec::new();
            let victim = proc.eviction.pick_victim(
                |vpn| {
                    machine
                        .page_table(eid)
                        .ok()
                        .and_then(|pt| pt.get(vpn))
                        .map(|pte| pte.accessed)
                        .unwrap_or(false)
                },
                |vpn| clear_list.push(vpn),
            );
            let flush_needed = !clear_list.is_empty();
            for vpn in clear_list {
                if let Ok(pt) = machine.page_table_mut(eid) {
                    pt.clear_accessed_dirty(vpn);
                }
            }
            if flush_needed {
                // One batched IPI flush for the whole second-chance lap,
                // as real kernels do — not one shootdown per PTE.
                let _ = machine.etrack(eid);
            }
            victim.ok_or(OsError::NoMemory)?
        };
        Ok(victim)
    }

    /// OS-initiated eviction of one OS-managed page at an arbitrary
    /// moment — the flexibility the two-level contract grants the OS for
    /// insensitive pages (§5.2.1).
    pub fn evict_os_page(&mut self, eid: EnclaveId, vpn: Vpn) -> Result<(), OsError> {
        if !self.proc(eid)?.os_managed.contains(&vpn) {
            return Err(OsError::BadRequest("page is enclave-managed (pinned)"));
        }
        self.evict_page_ewb(eid, vpn)?;
        self.proc_mut(eid)?.eviction.forget(vpn);
        Ok(())
    }

    /// Low-level `EBLOCK`/`ETRACK`/`EWB` eviction of one page.
    pub(crate) fn evict_page_ewb(&mut self, eid: EnclaveId, vpn: Vpn) -> Result<(), OsError> {
        self.machine.eblock(eid, vpn)?;
        self.machine.etrack(eid)?;
        let sealed = self.machine.ewb(eid, vpn)?;
        self.backing.put_sealed(sealed);
        self.machine.page_table_mut(eid)?.unmap(vpn);
        Ok(())
    }

    /// Low-level `ELDU` + map of one page. A/D bits are preset, as the
    /// Autarky driver contract requires.
    pub(crate) fn fetch_page_eldu(&mut self, eid: EnclaveId, vpn: Vpn) -> Result<(), OsError> {
        let sealed = self
            .backing
            .take_sealed(eid, vpn)
            .ok_or(OsError::BadRequest("no backing copy"))?;
        let perms = sealed.perms;
        let frame = match self.machine.eldu(eid, &sealed) {
            Ok(frame) => frame,
            Err(e) => {
                // Put the blob back so the page is not lost.
                self.backing.put_sealed(sealed);
                return Err(e.into());
            }
        };
        self.machine.page_table_mut(eid)?.map(
            vpn,
            Pte {
                present: true,
                frame,
                perms,
                accessed: true,
                dirty: true,
            },
        );
        Ok(())
    }

    // ----------------------------------------------------------------
    // Fault entry.
    // ----------------------------------------------------------------

    /// OS page-fault handler entry: log, run the attacker hook, then
    /// resolve benignly (legacy) or bounce to the enclave handler
    /// (Autarky).
    pub fn on_fault(&mut self, ev: FaultEvent) -> Result<FaultDisposition, OsError> {
        debug_assert!(!ev.elided, "elided faults never reach the OS");
        // A delivered fault opens a fresh correlation chain; the Fault
        // observation recorded next becomes the chain's root, and every
        // transition/decision until the handler round trip completes
        // inherits the chain id.
        self.flight_begin_chain();
        self.observe(Observation::Fault {
            eid: ev.eid,
            va: ev.reported_va,
            kind: ev.reported_kind,
        });
        if self.proc(ev.eid)?.suspended {
            return Err(OsError::Suspended(ev.eid));
        }

        // The adversary sees the fault first (it owns the kernel).
        self.run_attacker_on_fault(ev);

        // Benign resolution for legacy enclaves: demand paging on the
        // reported page.
        let self_paging = self.machine.secs(ev.eid)?.attributes.self_paging;
        if !self_paging {
            let vpn = ev.reported_va.vpn();
            self.legacy_resolve(ev.eid, vpn)?;
            // Silent resume: the enclave never observes the fault.
            match self.machine.eresume(ev.eid, ev.tcs) {
                Ok(()) => {
                    self.flight_end_chain();
                    return Ok(FaultDisposition::Resumed);
                }
                Err(SgxError::ResumeBlocked) => unreachable!("legacy TCS never blocks resume"),
                Err(e) => return Err(e.into()),
            }
        }

        // Autarky: ERESUME is blocked; the OS is forced to re-enter the
        // enclave so the trusted handler runs (§5.1.3).
        match self.machine.eresume(ev.eid, ev.tcs) {
            Err(SgxError::ResumeBlocked) => {
                self.machine.eenter(ev.eid, ev.tcs)?;
                Ok(FaultDisposition::HandlerRequired)
            }
            Ok(()) => unreachable!("self-paging fault must set the pending flag"),
            Err(e) => Err(e.into()),
        }
    }

    /// Legacy (vanilla SGX) demand paging: make the reported page
    /// accessible again.
    fn legacy_resolve(&mut self, eid: EnclaveId, vpn: Vpn) -> Result<(), OsError> {
        if self.machine.is_resident(eid, vpn) {
            // Frame still in EPC: the PTE was non-present (attacker or
            // transient) — restore mapping and bits.
            let pt = self.machine.page_table_mut(eid)?;
            if let Some(pte) = pt.get_mut(vpn) {
                pte.present = true;
                pte.accessed = true;
                pte.dirty = true;
            } else {
                // Mapping removed entirely: rebuild it from the EPCM.
                let frame = self.machine.frame_of(eid, vpn)?;
                let perms = Perms::RW;
                self.machine.page_table_mut(eid)?.map(
                    vpn,
                    Pte {
                        present: true,
                        frame,
                        perms,
                        accessed: true,
                        dirty: true,
                    },
                );
            }
            return Ok(());
        }
        if self.backing.has_sealed(eid, vpn) {
            self.observe(Observation::DemandPaging { eid, vpn });
            self.make_room(eid)?;
            self.fetch_page_eldu(eid, vpn)?;
            let proc = self.proc_mut(eid)?;
            proc.eviction.on_resident(vpn);
            return Ok(());
        }
        Err(OsError::BadRequest(
            "fault on page with no frame and no backing",
        ))
    }

    // ----------------------------------------------------------------
    // Whole-enclave swap (§5.2.1: the OS's last-resort reclamation).
    // ----------------------------------------------------------------

    /// Suspend an enclave and evict *all* of its pages, including
    /// enclave-managed ones — legal because the enclave is not runnable
    /// while suspended.
    pub fn suspend_enclave(&mut self, eid: EnclaveId) -> Result<usize, OsError> {
        self.proc(eid)?;
        let pages: Vec<Vpn> = self
            .machine
            .page_table(eid)?
            .iter()
            .map(|(vpn, _)| vpn)
            .filter(|&vpn| self.machine.is_resident(eid, vpn))
            .collect();
        let count = pages.len();
        for vpn in pages {
            self.evict_page_ewb(eid, vpn)?;
        }
        let proc = self.proc_mut(eid)?;
        proc.suspended = true;
        Ok(count)
    }

    /// Restore every page evicted during suspension and make the enclave
    /// runnable again. The contract requires *all* enclave-managed pages
    /// back in EPC before resumption.
    pub fn resume_enclave(&mut self, eid: EnclaveId) -> Result<usize, OsError> {
        if !self.proc(eid)?.suspended {
            return Err(OsError::BadRequest("enclave not suspended"));
        }
        let pages: Vec<Vpn> = self
            .proc(eid)?
            .os_managed
            .iter()
            .chain(self.proc(eid)?.enclave_managed.iter())
            .copied()
            .filter(|&vpn| self.backing.has_sealed(eid, vpn))
            .collect();
        let count = pages.len();
        for vpn in pages {
            self.make_room(eid)?;
            self.fetch_page_eldu(eid, vpn)?;
            let proc = self.proc_mut(eid)?;
            if proc.os_managed.contains(&vpn) {
                proc.eviction.forget(vpn);
                proc.eviction.on_resident(vpn);
            }
        }
        let proc = self.proc_mut(eid)?;
        proc.suspended = false;
        Ok(count)
    }

    /// Whether the enclave is suspended.
    pub fn is_suspended(&self, eid: EnclaveId) -> bool {
        self.procs.get(&eid).map(|p| p.suspended).unwrap_or(false)
    }

    // ----------------------------------------------------------------
    // Checkpoint/restore support (failover host).
    // ----------------------------------------------------------------

    /// Record one explicitly mounted snapshot attack (stale, forked,
    /// truncated, or counter-rollback restore) in the adversary-visible
    /// observation log. Unlike the probability-driven kinds, these are
    /// staged deliberately by the rollback harness — so they go through
    /// this public hook rather than the per-syscall injector draw, which
    /// keeps the one-RNG-draw-per-syscall schedule untouched.
    pub fn record_snapshot_attack(&mut self, eid: EnclaveId, fault: InjectedFault) {
        self.record_injection(eid, fault);
    }

    /// Adopt the *untrusted* host state of `donor` for enclave `eid`:
    /// process bookkeeping, the entire backing store (sealed pages, raw
    /// blobs, and the snapshot vault), the observation log, the armed
    /// attacker/injector, and the flight recorder.
    ///
    /// This models failover to a fresh machine: the new host's kernel
    /// inherits everything that lives in ordinary host memory or on disk,
    /// while EPC contents and runtime state arrive only through the
    /// sealed-snapshot restore path. The donor is left without the
    /// enclave and must be discarded.
    pub fn adopt_untrusted_state(&mut self, donor: &mut Os, eid: EnclaveId) -> Result<(), OsError> {
        let proc = donor.procs.remove(&eid).ok_or(OsError::NotLoaded(eid))?;
        self.procs.insert(eid, proc);
        self.backing = std::mem::take(&mut donor.backing);
        self.observations = std::mem::take(&mut donor.observations);
        self.attacker = std::mem::replace(&mut donor.attacker, Attacker::None);
        self.exitless = donor.exitless;
        self.injector = donor.injector.take();
        if let Some(flight) = donor.flight.take() {
            donor.machine.set_transition_recording(false);
            self.machine.set_transition_recording(true);
            self.flight = Some(flight);
        }
        Ok(())
    }

    // ----------------------------------------------------------------
    // Fleet support: per-enclave retire/reinstate on a *shared* host.
    // ----------------------------------------------------------------

    /// Capture one enclave's untrusted host state — process bookkeeping
    /// plus its slice of the backing store (sealed pages, stale copies,
    /// software-sealing blobs) — without disturbing the live kernel.
    ///
    /// Unlike [`Os::adopt_untrusted_state`], which moves a whole host's
    /// worth of state to a fresh machine, this clones exactly one fleet
    /// member's share so a supervisor can later tear that member down
    /// ([`Os::retire_enclave`]) and reinstate it
    /// ([`Os::reinstate_untrusted_state`]) while its neighbors keep
    /// running. Capture it at the same pause point as the sealed runtime
    /// checkpoint so the two stay consistent.
    pub fn capture_untrusted_state(
        &self,
        eid: EnclaveId,
    ) -> Result<UntrustedEnclaveState, OsError> {
        let proc = self.procs.get(&eid).ok_or(OsError::NotLoaded(eid))?;
        let (sealed, stale) = self.backing.clone_enclave_sealed(eid);
        let blobs = self.backing.clone_enclave_blobs(eid);
        Ok(UntrustedEnclaveState {
            eid,
            proc: proc.clone(),
            sealed,
            stale,
            blobs,
        })
    }

    /// Reinstate a captured bundle for an enclave that has been retired
    /// (or crashed): process bookkeeping and backing-store slice return
    /// exactly as captured. EPC contents and runtime state do NOT come
    /// back this way — they arrive only through the sealed-snapshot
    /// restore path, which verifies freshness against the monotonic
    /// counter.
    pub fn reinstate_untrusted_state(
        &mut self,
        state: &UntrustedEnclaveState,
    ) -> Result<(), OsError> {
        if self.procs.contains_key(&state.eid) {
            return Err(OsError::BadRequest("enclave still loaded; retire it first"));
        }
        self.procs.insert(state.eid, state.proc.clone());
        self.backing
            .reinstate_enclave_sealed(state.sealed.clone(), state.stale.clone());
        for (key, data) in &state.blobs {
            self.backing.put_blob(*key, data.clone());
        }
        Ok(())
    }

    /// Tear one fleet member down completely: destroy its machine-side
    /// enclave (freeing every EPC frame for the survivors), drop its
    /// process bookkeeping, and purge its backing-store residue. The
    /// observation log and snapshot vault are untouched — both are
    /// adversary-visible history, not per-enclave state.
    pub fn retire_enclave(&mut self, eid: EnclaveId) -> Result<(), OsError> {
        self.procs.remove(&eid).ok_or(OsError::NotLoaded(eid))?;
        self.machine.destroy_enclave(eid)?;
        self.backing.purge_enclave(eid);
        Ok(())
    }
}

/// Opaque per-enclave bundle captured by [`Os::capture_untrusted_state`].
///
/// Everything inside is untrusted host state (the adversary can read all
/// of it); holding it in the supervisor merely models an honest host
/// keeping the enclave's swap residue around for a restart.
#[derive(Clone)]
pub struct UntrustedEnclaveState {
    eid: EnclaveId,
    proc: Proc,
    sealed: Vec<autarky_sgx_sim::SealedPage>,
    stale: Vec<autarky_sgx_sim::SealedPage>,
    blobs: Vec<(u64, Vec<u8>)>,
}

impl UntrustedEnclaveState {
    /// Enclave this bundle belongs to.
    pub fn eid(&self) -> EnclaveId {
        self.eid
    }
}
