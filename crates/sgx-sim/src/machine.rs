//! The SGX machine: EPC, EPCM, page tables, TLB, enclaves, and the
//! instruction set — including Autarky's ISA extensions.
//!
//! The [`Machine`] is shared by three distinct callers with different trust:
//!
//! * the **untrusted OS** (`autarky-os-sim`) calls the privileged
//!   instructions (`ECREATE`/`EADD`/`EINIT`/`EBLOCK`/`EWB`/`ELDU`/`EAUG`/
//!   `EMODT`/`EMODPR`/`EREMOVE`), manipulates page tables via
//!   [`Machine::page_table_mut`], and enters/resumes enclaves;
//! * the **trusted runtime** (`autarky-runtime`) calls the unprivileged
//!   enclave instructions (`EACCEPT`/`EACCEPTCOPY`), inspects SSA frames,
//!   and may terminate its enclave;
//! * the **workload layer** issues memory accesses on behalf of code
//!   "executing inside" an enclave via [`Machine::read_bytes`] /
//!   [`Machine::write_bytes`] / [`Machine::fetch_code`].
//!
//! The module enforces the architectural contract between them; policy
//! lives in the higher crates.

use autarky_prng::SimMap;

use crate::addr::{pages_covering, EnclaveId, Frame, Va, Vpn, PAGE_SIZE};
use crate::attest::{make_report, Measurement, Report};
use crate::cost::{Clock, CostModel, CostTag, COST_TAGS};
use crate::enclave::{Attributes, Secs, SsaExInfo, SsaFrame, Tcs};
use crate::epc::{Epc, EpcmEntry, PageType, Perms};
use crate::error::{AccessKind, FaultCause, FaultEvent, SgxError};
use crate::pagetable::{PageTable, Pte};
use crate::seal::{nonce_fits, open_page, seal_page, SealedPage, PLATFORM_KEY};
use crate::tlb::{Tlb, TlbEntry};

/// Outcome of a memory access that did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessError {
    /// A page fault was raised and (unless elided) delivered to the OS;
    /// the access should be replayed after resolution.
    Fault(FaultEvent),
    /// A fatal machine error (misuse, terminated enclave, SSA overflow).
    Fatal(SgxError),
}

impl From<SgxError> for AccessError {
    fn from(err: SgxError) -> Self {
        AccessError::Fatal(err)
    }
}

/// Kind of enclave transition captured by the (opt-in) transition log.
///
/// Flight-recorder material: when transition recording is armed (see
/// [`Machine::set_transition_recording`]), every enclave entry/exit event
/// appends a [`TransitionEvent`] that higher layers drain into their
/// causal event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitionKind {
    /// `EENTER`: host-to-enclave entry (handler invocation).
    Eenter,
    /// `EEXIT`: enclave-to-host exit.
    Eexit,
    /// Asynchronous enclave exit (fault delivery to the OS).
    Aex,
    /// `ERESUME`: successful resume from the saved SSA context.
    Eresume,
    /// `ERESUME` refused because the Autarky pending-exception flag was
    /// still set (§5.1.3) — the observable edge that forces the OS to
    /// re-enter through the fault handler.
    ResumeBlocked,
    /// SSA frame popped in-enclave without `ERESUME` (elided-AEX path).
    PopSsa,
}

impl TransitionKind {
    /// Stable display name (the flight timeline prints it).
    pub fn name(self) -> &'static str {
        match self {
            TransitionKind::Eenter => "eenter",
            TransitionKind::Eexit => "eexit",
            TransitionKind::Aex => "aex",
            TransitionKind::Eresume => "eresume",
            TransitionKind::ResumeBlocked => "blocked",
            TransitionKind::PopSsa => "popssa",
        }
    }
}

/// One recorded enclave transition (see [`TransitionKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionEvent {
    /// What happened.
    pub kind: TransitionKind,
    /// Enclave the transition belongs to.
    pub eid: EnclaveId,
    /// TCS slot involved.
    pub tcs: usize,
    /// Simulated-cycle timestamp when the transition was recorded.
    pub cycles: u64,
}

/// Aggregate event counters, used by the evaluation harness.
#[derive(Debug, Default, Clone)]
pub struct MachineStats {
    /// Page faults raised in enclave mode.
    pub faults: u64,
    /// Asynchronous enclave exits performed.
    pub aexs: u64,
    /// `EENTER` count.
    pub eenters: u64,
    /// `ERESUME` count.
    pub eresumes: u64,
    /// `EWB` page evictions.
    pub ewbs: u64,
    /// `ELDU` page reloads.
    pub eldus: u64,
    /// SGXv2 `EAUG` additions.
    pub eaugs: u64,
    /// `EACCEPT`/`EACCEPTCOPY` operations.
    pub eaccepts: u64,
}

/// Captured state of one TCS slot ([`Tcs`] is deliberately not `Clone`,
/// so checkpointing goes through this explicit mirror).
#[derive(Debug, Clone)]
pub struct TcsCapture {
    /// Saved SSA stack (including any pending exception frames).
    pub ssa: Vec<SsaFrame>,
    /// Provisioned SSA depth.
    pub nssa: usize,
    /// Autarky pending-exception flag at capture time.
    pub pending_exception: bool,
    /// Whether a logical core was executing on this TCS.
    pub active: bool,
}

/// Captured state of one resident EPC page: EPCM metadata plus contents.
#[derive(Debug, Clone)]
pub struct PageCapture {
    /// Linear page this frame backed.
    pub vpn: Vpn,
    /// EPCM page type.
    pub page_type: PageType,
    /// EPCM permissions.
    pub perms: Perms,
    /// EBLOCK state.
    pub blocked: bool,
    /// SGXv2 pending (`EAUG` not yet accepted) state.
    pub pending: bool,
    /// SGXv2 modified (`EMODPR`/`EMODT` not yet accepted) state.
    pub modified: bool,
    /// Page contents (exactly [`PAGE_SIZE`] bytes).
    pub contents: Vec<u8>,
}

/// A pause-time capture of one enclave plus the machine timing state its
/// continuation depends on.
///
/// This is the plaintext the snapshot subsystem seals. Frame numbers are
/// deliberately absent from page captures: EPC frames die with the
/// machine, so [`Machine::restore_enclave`] re-allocates frames and
/// rewrites the captured PTEs/TLB entries to the fresh allocation.
/// Machine-global timing state (clock, stats, TLB warmth and counters)
/// rides along because a byte-identical continuation needs it; restore
/// therefore targets a *fresh* machine dedicated to this enclave.
///
/// All fields are public so tamper-style regression tests can corrupt a
/// capture before sealing and assert the restore path rejects it.
#[derive(Debug, Clone)]
pub struct EnclaveCapture {
    /// Enclave identity (preserved across restore).
    pub eid: EnclaveId,
    /// SECS at capture time.
    pub secs: Secs,
    /// Per-TCS state.
    pub tcs: Vec<TcsCapture>,
    /// Next anti-replay version per page, sorted by page.
    pub next_version: Vec<(Vpn, u64)>,
    /// Outstanding evicted-blob versions (the Version Array), sorted by
    /// page.
    pub outstanding: Vec<(Vpn, u64)>,
    /// Resident pages, sorted by page.
    pub pages: Vec<PageCapture>,
    /// Page-table entries (including non-present ones), sorted by page.
    pub ptes: Vec<(Vpn, Pte)>,
    /// Cached TLB translations for this enclave, sorted by page.
    pub tlb: Vec<(Vpn, TlbEntry)>,
    /// Global clock at capture time.
    pub clock_cycles: u64,
    /// Per-tag clock decomposition at capture time.
    pub clock_tagged: [u64; COST_TAGS],
    /// Machine event counters at capture time.
    pub stats: MachineStats,
    /// TLB fill counter at capture time.
    pub tlb_fills: u64,
    /// TLB hit counter at capture time.
    pub tlb_hits: u64,
    /// TLB flush counter at capture time.
    pub tlb_flushes: u64,
}

struct EnclaveState {
    secs: Secs,
    tcs: Vec<Tcs>,
    building: Option<Measurement>,
    /// Next anti-replay version per page.
    next_version: SimMap<Vpn, u64>,
    /// Version of the currently outstanding evicted blob, if the page is
    /// swapped out (models the Version Array slot).
    outstanding: SimMap<Vpn, u64>,
}

/// Configuration for building a [`Machine`].
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of EPC frames available to all enclaves.
    pub epc_frames: usize,
    /// Enable the paper's proposed AEX-elision optimization: page faults in
    /// self-paging enclaves vector directly to the in-enclave handler
    /// without an AEX/OS round trip (§5.1.3, "Eliding AEX").
    pub elide_aex: bool,
    /// Model the "no upcall" variant (Table 2): the OS resumes via an
    /// in-enclave `ERESUME` shim, eliding the `EENTER`+`EEXIT` handler
    /// invocation hop. Only consumed by the runtime's cost accounting.
    pub elide_handler_invocation: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            epc_frames: 4096, // 16 MiB of EPC by default
            elide_aex: false,
            elide_handler_invocation: false,
        }
    }
}

/// The simulated SGX platform.
pub struct Machine {
    /// Cost model (public: the harness reads component costs for
    /// breakdowns like Figure 5).
    pub costs: CostModel,
    /// Global cycle counter.
    pub clock: Clock,
    epc: Epc,
    enclaves: SimMap<EnclaveId, EnclaveState>,
    page_tables: SimMap<EnclaveId, PageTable>,
    tlb: Tlb,
    next_eid: u32,
    stats: MachineStats,
    /// O(1) reverse map from (enclave, vpn) to the backing EPC frame,
    /// mirroring the EPCM (a real EPCM lookup is indexed by physical
    /// address; this index keeps `frame_of` constant-time).
    frame_index: SimMap<(EnclaveId, Vpn), Frame>,
    elide_aex: bool,
    elide_handler_invocation: bool,
    /// Opt-in transition log (flight-recorder feed); empty and free when
    /// recording is off.
    transitions: Vec<TransitionEvent>,
    record_transitions: bool,
    /// `ELDU`s that copied out the page of an unwritten blob instead of
    /// opening it.
    #[cfg(test)]
    unopened_eldus: u64,
}

impl Machine {
    /// Build a machine from `config`.
    pub fn new(config: MachineConfig) -> Self {
        Self {
            costs: CostModel::default(),
            clock: Clock::new(),
            epc: Epc::new(config.epc_frames),
            enclaves: SimMap::default(),
            page_tables: SimMap::default(),
            tlb: Tlb::new(),
            next_eid: 1,
            stats: MachineStats::default(),
            frame_index: SimMap::default(),
            elide_aex: config.elide_aex,
            elide_handler_invocation: config.elide_handler_invocation,
            transitions: Vec::new(),
            record_transitions: false,
            #[cfg(test)]
            unopened_eldus: 0,
        }
    }

    /// Arm or disarm the enclave-transition log. While armed, every
    /// `EENTER`/`EEXIT`/`ERESUME`/AEX/blocked-resume/SSA-pop appends a
    /// [`TransitionEvent`] for the flight recorder to drain.
    pub fn set_transition_recording(&mut self, on: bool) {
        self.record_transitions = on;
        if !on {
            self.transitions.clear();
        }
    }

    /// Drain all transitions recorded since the last drain.
    pub fn take_transitions(&mut self) -> Vec<TransitionEvent> {
        std::mem::take(&mut self.transitions)
    }

    fn note_transition(&mut self, kind: TransitionKind, eid: EnclaveId, tcs: usize) {
        if self.record_transitions {
            self.transitions.push(TransitionEvent {
                kind,
                eid,
                tcs,
                cycles: self.clock.now(),
            });
        }
    }

    /// Whether the AEX-elision optimization is active.
    pub fn elide_aex(&self) -> bool {
        self.elide_aex
    }

    /// Whether the no-upcall (in-enclave resume) variant is active.
    pub fn elide_handler_invocation(&self) -> bool {
        self.elide_handler_invocation
    }

    /// Event counters.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// TLB statistics (fills drive the Autarky check-overhead analysis).
    pub fn tlb_stats(&self) -> (u64, u64, u64) {
        (self.tlb.fills(), self.tlb.hits(), self.tlb.flushes())
    }

    /// Free EPC frames remaining.
    pub fn epc_free_frames(&self) -> usize {
        self.epc.free_frames()
    }

    /// Total EPC frames.
    pub fn epc_total_frames(&self) -> usize {
        self.epc.total_frames()
    }

    /// EPC frames currently held by `eid`.
    pub fn epc_frames_of(&self, eid: EnclaveId) -> usize {
        self.epc.frames_of(eid)
    }

    fn enclave(&self, eid: EnclaveId) -> Result<&EnclaveState, SgxError> {
        self.enclaves.get(&eid).ok_or(SgxError::NoSuchEnclave(eid))
    }

    fn enclave_mut(&mut self, eid: EnclaveId) -> Result<&mut EnclaveState, SgxError> {
        self.enclaves
            .get_mut(&eid)
            .ok_or(SgxError::NoSuchEnclave(eid))
    }

    /// The enclave's SECS, as visible to trusted code.
    pub fn secs(&self, eid: EnclaveId) -> Result<&Secs, SgxError> {
        Ok(&self.enclave(eid)?.secs)
    }

    /// OS access to the address space's page table.
    ///
    /// This is deliberately unguarded: the page table is *untrusted* state
    /// the OS fully controls, which is what makes the controlled channel
    /// possible in the first place.
    pub fn page_table_mut(&mut self, eid: EnclaveId) -> Result<&mut PageTable, SgxError> {
        self.page_tables
            .get_mut(&eid)
            .ok_or(SgxError::NoSuchEnclave(eid))
    }

    /// OS read-only view of the page table.
    pub fn page_table(&self, eid: EnclaveId) -> Result<&PageTable, SgxError> {
        self.page_tables
            .get(&eid)
            .ok_or(SgxError::NoSuchEnclave(eid))
    }

    /// OS-initiated single-page TLB shootdown (IPI).
    pub fn tlb_shootdown(&mut self, eid: EnclaveId, vpn: Vpn) {
        self.clock
            .charge_tagged(CostTag::Paging, self.costs.shootdown_page);
        self.tlb.shootdown(eid, vpn);
    }

    // ----------------------------------------------------------------
    // Enclave lifecycle (privileged instructions).
    // ----------------------------------------------------------------

    /// `ECREATE`: allocate an enclave with the given linear range and
    /// attributes; begins the measurement.
    pub fn ecreate(&mut self, base: Va, size: u64, attributes: Attributes) -> EnclaveId {
        let eid = EnclaveId(self.next_eid);
        self.next_eid += 1;
        let secs = Secs {
            base,
            size,
            attributes,
            measurement: [0; 32],
            initialized: false,
            terminated: false,
        };
        self.enclaves.insert(
            eid,
            EnclaveState {
                building: Some(Measurement::start(base.0, size, attributes)),
                secs,
                tcs: Vec::new(),
                next_version: SimMap::default(),
                outstanding: SimMap::default(),
            },
        );
        self.page_tables.insert(eid, PageTable::new());
        eid
    }

    /// `EADD` + `EEXTEND`: add and measure an initial page. Returns the
    /// EPC frame; the OS still has to map it in the page table.
    pub fn eadd(
        &mut self,
        eid: EnclaveId,
        vpn: Vpn,
        page_type: PageType,
        perms: Perms,
        contents: Option<&[u8; PAGE_SIZE]>,
    ) -> Result<Frame, SgxError> {
        let state = self
            .enclaves
            .get_mut(&eid)
            .ok_or(SgxError::NoSuchEnclave(eid))?;
        if state.secs.initialized {
            return Err(SgxError::LifecycleViolation);
        }
        if !state.secs.contains_page(vpn) {
            return Err(SgxError::OutOfRange(vpn.base()));
        }
        let frame = self.epc.alloc(EpcmEntry {
            valid: true,
            eid,
            vpn,
            page_type,
            perms,
            blocked: false,
            pending: false,
            modified: false,
        })?;
        self.frame_index.insert((eid, vpn), frame);
        if let Some(contents) = contents {
            self.epc.page_mut(frame)?.copy_from_slice(contents);
        }
        let measurement = state
            .building
            .as_mut()
            .ok_or(SgxError::LifecycleViolation)?;
        measurement.add_page(vpn, page_type, perms);
        if let Some(contents) = contents {
            measurement.extend(contents);
        }
        if page_type == PageType::Tcs {
            state.tcs.push(Tcs::new(8));
        }
        Ok(frame)
    }

    /// `EINIT`: finalize the measurement; the enclave becomes runnable.
    pub fn einit(&mut self, eid: EnclaveId) -> Result<(), SgxError> {
        let state = self.enclave_mut(eid)?;
        if state.secs.initialized {
            return Err(SgxError::LifecycleViolation);
        }
        let measurement = state.building.take().ok_or(SgxError::LifecycleViolation)?;
        state.secs.measurement = measurement.finalize();
        state.secs.initialized = true;
        if state.tcs.is_empty() {
            // Provide one implicit TCS so minimal tests can run.
            state.tcs.push(Tcs::new(8));
        }
        Ok(())
    }

    /// `EREPORT`: produce an attestation report with `report_data`.
    pub fn ereport(&self, eid: EnclaveId, report_data: [u8; 64]) -> Result<Report, SgxError> {
        let state = self.enclave(eid)?;
        if !state.secs.initialized {
            return Err(SgxError::LifecycleViolation);
        }
        Ok(make_report(
            &PLATFORM_KEY,
            state.secs.measurement,
            state.secs.attributes,
            report_data,
        ))
    }

    /// The platform key, the same on every machine: `EREPORT` signs and
    /// `EWB` seals under it, and monotonic counters and snapshot seal
    /// keys derive from it.
    pub fn platform_key(&self) -> &[u8; 32] {
        &PLATFORM_KEY
    }

    /// Trusted-runtime request: terminate the enclave (attack response).
    pub fn terminate(&mut self, eid: EnclaveId) -> Result<(), SgxError> {
        self.enclave_mut(eid)?.secs.terminated = true;
        Ok(())
    }

    /// Whether the enclave has been terminated.
    pub fn is_terminated(&self, eid: EnclaveId) -> bool {
        self.enclaves
            .get(&eid)
            .map(|s| s.secs.terminated)
            .unwrap_or(true)
    }

    // ----------------------------------------------------------------
    // Entry and exit.
    // ----------------------------------------------------------------

    /// `EENTER`: enter the enclave on `tcs`. Clears the Autarky
    /// pending-exception flag (§5.1.3).
    pub fn eenter(&mut self, eid: EnclaveId, tcs: usize) -> Result<(), SgxError> {
        let cost = self.costs.eenter;
        let state = self.enclave_mut(eid)?;
        if !state.secs.initialized {
            return Err(SgxError::LifecycleViolation);
        }
        if state.secs.terminated {
            return Err(SgxError::Terminated);
        }
        let t = state.tcs.get_mut(tcs).ok_or(SgxError::BadTcs(tcs))?;
        t.pending_exception = false;
        t.active = true;
        self.stats.eenters += 1;
        self.clock.charge_tagged(CostTag::HandlerInvocation, cost);
        self.tlb.flush_all();
        self.note_transition(TransitionKind::Eenter, eid, tcs);
        Ok(())
    }

    /// `EEXIT`: leave the enclave.
    pub fn eexit(&mut self, eid: EnclaveId, tcs: usize) -> Result<(), SgxError> {
        let cost = self.costs.eexit;
        let state = self.enclave_mut(eid)?;
        let t = state.tcs.get_mut(tcs).ok_or(SgxError::BadTcs(tcs))?;
        t.active = false;
        self.clock.charge_tagged(CostTag::HandlerInvocation, cost);
        self.tlb.flush_all();
        self.note_transition(TransitionKind::Eexit, eid, tcs);
        Ok(())
    }

    /// `ERESUME`: resume after an AEX, restoring the saved context.
    ///
    /// Under Autarky this *fails* while the pending-exception flag is set,
    /// which is the change that forces the OS to re-enter the enclave
    /// through its (fault-aware) entry point instead of silently resuming.
    pub fn eresume(&mut self, eid: EnclaveId, tcs: usize) -> Result<(), SgxError> {
        let cost = self.costs.eresume;
        let state = self.enclave_mut(eid)?;
        if state.secs.terminated {
            return Err(SgxError::Terminated);
        }
        let t = state.tcs.get_mut(tcs).ok_or(SgxError::BadTcs(tcs))?;
        if t.pending_exception {
            self.note_transition(TransitionKind::ResumeBlocked, eid, tcs);
            return Err(SgxError::ResumeBlocked);
        }
        if t.ssa.pop().is_none() {
            return Err(SgxError::LifecycleViolation);
        }
        t.active = true;
        self.stats.eresumes += 1;
        self.clock.charge_tagged(CostTag::Preemption, cost);
        self.tlb.flush_all();
        self.note_transition(TransitionKind::Eresume, eid, tcs);
        Ok(())
    }

    /// Trusted runtime: peek at the top SSA frame's exception info.
    pub fn ssa_exinfo(&self, eid: EnclaveId, tcs: usize) -> Result<Option<SsaExInfo>, SgxError> {
        let state = self.enclave(eid)?;
        let t = state.tcs.get(tcs).ok_or(SgxError::BadTcs(tcs))?;
        Ok(t.ssa.last().and_then(|f| f.exinfo))
    }

    /// Trusted runtime: current SSA stack depth (re-entrancy detection).
    pub fn ssa_depth(&self, eid: EnclaveId, tcs: usize) -> Result<usize, SgxError> {
        let state = self.enclave(eid)?;
        Ok(state.tcs.get(tcs).ok_or(SgxError::BadTcs(tcs))?.ssa_depth())
    }

    /// Whether the pending-exception flag is set (OS can probe this only
    /// indirectly, via `ERESUME` failing).
    pub fn pending_exception(&self, eid: EnclaveId, tcs: usize) -> Result<bool, SgxError> {
        let state = self.enclave(eid)?;
        Ok(state
            .tcs
            .get(tcs)
            .ok_or(SgxError::BadTcs(tcs))?
            .pending_exception)
    }

    // ----------------------------------------------------------------
    // Demand paging: SGXv1 privileged instructions.
    // ----------------------------------------------------------------

    /// `EBLOCK`: mark a page blocked in preparation for eviction. Further
    /// TLB fills for it fault.
    pub fn eblock(&mut self, eid: EnclaveId, vpn: Vpn) -> Result<(), SgxError> {
        let frame = self.frame_of(eid, vpn)?;
        self.epc.entry_mut(frame)?.blocked = true;
        Ok(())
    }

    /// `ETRACK` + IPIs: flush all of the enclave's cached translations so
    /// blocked pages cannot be accessed through stale TLB entries.
    pub fn etrack(&mut self, eid: EnclaveId) -> Result<(), SgxError> {
        self.enclave(eid)?;
        self.clock
            .charge_tagged(CostTag::Paging, self.costs.shootdown_page);
        self.tlb.shootdown_enclave(eid);
        Ok(())
    }

    /// `EWB`: evict a blocked page, returning the sealed blob that the OS
    /// stores in untrusted memory. Frees the EPC frame and moves its page
    /// buffer into the blob, which seals it when someone first reads its
    /// bytes (see [`crate::seal`]); on the honest path no one does, so
    /// nothing is copied or encrypted here. Refuses with
    /// [`SgxError::NonceExhausted`], leaving the page resident and its
    /// bytes untouched, when the page number or its next version does not
    /// fit the sealing nonce.
    pub fn ewb(&mut self, eid: EnclaveId, vpn: Vpn) -> Result<SealedPage, SgxError> {
        let frame = self.frame_of(eid, vpn)?;
        let entry = self.epc.entry(frame)?.clone();
        if !entry.blocked {
            return Err(SgxError::NotBlocked(vpn));
        }
        let state = self
            .enclaves
            .get_mut(&eid)
            .ok_or(SgxError::NoSuchEnclave(eid))?;
        let next = state
            .next_version
            .get(&vpn)
            .map_or(Some(1), |v| v.checked_add(1));
        let version = match next {
            Some(version) if nonce_fits(vpn, version) => version,
            _ => return Err(SgxError::NonceExhausted(vpn)),
        };
        state.next_version.insert(vpn, version);
        state.outstanding.insert(vpn, version);
        // Every refusal is behind us, so the frame's buffer can go.
        let sealed = seal_page(eid, vpn, version, entry.perms, self.epc.free(frame)?);
        self.frame_index.remove(&(eid, vpn));
        self.stats.ewbs += 1;
        self.clock
            .charge_tagged(CostTag::Paging, self.costs.ewb_page);
        Ok(sealed)
    }

    /// `ELDU`: reload a sealed page into a fresh EPC frame, verifying
    /// authenticity and anti-replay freshness. When no one wrote the
    /// blob's bytes and its labels are the ones `EWB` sealed it under,
    /// the frame gets a copy of the page the blob holds, which is exactly
    /// what opening it would return; any other blob is decrypted into the
    /// frame's buffer. A blob that fails either check changes nothing.
    /// The OS must then remap the page table entry.
    pub fn eldu(&mut self, eid: EnclaveId, sealed: &SealedPage) -> Result<Frame, SgxError> {
        if sealed.eid != eid {
            return Err(SgxError::SealBroken);
        }
        let state = self
            .enclaves
            .get_mut(&eid)
            .ok_or(SgxError::NoSuchEnclave(eid))?;
        match state.outstanding.get(&sealed.vpn) {
            Some(&v) if v == sealed.version => {}
            Some(_) => return Err(SgxError::Replay(sealed.vpn)),
            None => return Err(SgxError::Replay(sealed.vpn)),
        }
        let contents = match sealed.unwritten_page() {
            Some(page) => {
                #[cfg(test)]
                {
                    self.unopened_eldus += 1;
                }
                page.clone()
            }
            None => open_page(sealed).map_err(|_| SgxError::SealBroken)?,
        };
        let frame = self.epc.alloc_with(
            EpcmEntry {
                valid: true,
                eid,
                vpn: sealed.vpn,
                page_type: PageType::Reg,
                perms: sealed.perms,
                blocked: false,
                pending: false,
                modified: false,
            },
            contents,
        )?;
        self.frame_index.insert((eid, sealed.vpn), frame);
        state.outstanding.remove(&sealed.vpn);
        self.stats.eldus += 1;
        self.clock
            .charge_tagged(CostTag::Paging, self.costs.eldu_page);
        Ok(frame)
    }

    // ----------------------------------------------------------------
    // Dynamic memory management: SGXv2 instructions.
    // ----------------------------------------------------------------

    /// `EAUG`: OS adds a zeroed *pending* page to a running enclave.
    pub fn eaug(&mut self, eid: EnclaveId, vpn: Vpn) -> Result<Frame, SgxError> {
        let state = self.enclave(eid)?;
        if !state.secs.initialized {
            return Err(SgxError::LifecycleViolation);
        }
        if !state.secs.contains_page(vpn) {
            return Err(SgxError::OutOfRange(vpn.base()));
        }
        let frame = self.epc.alloc(EpcmEntry {
            valid: true,
            eid,
            vpn,
            page_type: PageType::Reg,
            perms: Perms::RW,
            blocked: false,
            pending: true,
            modified: false,
        })?;
        self.frame_index.insert((eid, vpn), frame);
        self.stats.eaugs += 1;
        self.clock.charge_tagged(CostTag::Paging, self.costs.eaug);
        Ok(frame)
    }

    /// `EACCEPT`: enclave confirms a pending page change (EAUG / EMODPR /
    /// EMODT).
    pub fn eaccept(&mut self, eid: EnclaveId, vpn: Vpn) -> Result<(), SgxError> {
        let frame = self.frame_of(eid, vpn)?;
        let cost = self.costs.eaccept;
        let entry = self.epc.entry_mut(frame)?;
        if !entry.pending && !entry.modified {
            return Err(SgxError::PendingStateMismatch(vpn));
        }
        entry.pending = false;
        entry.modified = false;
        self.stats.eaccepts += 1;
        self.clock.charge_tagged(CostTag::Paging, cost);
        Ok(())
    }

    /// `EACCEPTCOPY`: enclave initializes a pending `EAUG` page with
    /// `contents` and accepts it in one step.
    pub fn eacceptcopy(
        &mut self,
        eid: EnclaveId,
        vpn: Vpn,
        contents: &[u8; PAGE_SIZE],
        perms: Perms,
    ) -> Result<(), SgxError> {
        let frame = self.frame_of(eid, vpn)?;
        let cost = self.costs.eaccept;
        {
            let entry = self.epc.entry_mut(frame)?;
            if !entry.pending {
                return Err(SgxError::PendingStateMismatch(vpn));
            }
            entry.pending = false;
            entry.perms = perms;
        }
        self.epc.page_mut(frame)?.copy_from_slice(contents);
        self.stats.eaccepts += 1;
        self.clock.charge_tagged(CostTag::Paging, cost);
        Ok(())
    }

    /// `EMODPR`: OS restricts a page's EPCM permissions (requires a
    /// subsequent `EACCEPT`).
    pub fn emodpr(&mut self, eid: EnclaveId, vpn: Vpn, perms: Perms) -> Result<(), SgxError> {
        let frame = self.frame_of(eid, vpn)?;
        let cost = self.costs.emod;
        let entry = self.epc.entry_mut(frame)?;
        if !entry.perms.covers(perms) {
            // EMODPR can only reduce permissions.
            return Err(SgxError::PendingStateMismatch(vpn));
        }
        entry.perms = perms;
        entry.modified = true;
        self.clock.charge_tagged(CostTag::Paging, cost);
        Ok(())
    }

    /// `EMODT`: OS changes a page's type to TRIM in preparation for
    /// removal (requires `EACCEPT` then `EREMOVE`).
    pub fn emodt_trim(&mut self, eid: EnclaveId, vpn: Vpn) -> Result<(), SgxError> {
        let frame = self.frame_of(eid, vpn)?;
        let cost = self.costs.emod;
        let entry = self.epc.entry_mut(frame)?;
        entry.page_type = PageType::Trim;
        entry.modified = true;
        self.clock.charge_tagged(CostTag::Paging, cost);
        Ok(())
    }

    /// `EREMOVE`: OS frees a trimmed-and-accepted page (or any page of a
    /// terminated enclave).
    pub fn eremove(&mut self, eid: EnclaveId, vpn: Vpn) -> Result<(), SgxError> {
        let frame = self.frame_of(eid, vpn)?;
        let cost = self.costs.eremove;
        let terminated = self.enclave(eid)?.secs.terminated;
        let entry = self.epc.entry(frame)?;
        let trimmed = entry.page_type == PageType::Trim && !entry.modified;
        if !trimmed && !terminated {
            return Err(SgxError::PendingStateMismatch(vpn));
        }
        self.epc.free(frame)?;
        self.frame_index.remove(&(eid, vpn));
        self.tlb.shootdown(eid, vpn);
        self.clock.charge_tagged(CostTag::Paging, cost);
        Ok(())
    }

    /// Destroy a whole enclave, freeing all its EPC frames (process exit).
    pub fn destroy_enclave(&mut self, eid: EnclaveId) -> Result<(), SgxError> {
        self.enclave(eid)?;
        let frames: Vec<Frame> = self
            .epc
            .iter_valid()
            .filter(|(_, e)| e.eid == eid)
            .map(|(f, _)| f)
            .collect();
        for frame in frames {
            self.epc.free(frame)?;
        }
        self.frame_index.retain(|(e, _), _| *e != eid);
        self.tlb.shootdown_enclave(eid);
        self.enclaves.remove(&eid);
        self.page_tables.remove(&eid);
        Ok(())
    }

    /// Find the EPC frame currently backing `(eid, vpn)` via the EPCM.
    pub fn frame_of(&self, eid: EnclaveId, vpn: Vpn) -> Result<Frame, SgxError> {
        self.frame_index
            .get(&(eid, vpn))
            .copied()
            .ok_or(SgxError::NoSuchPage(vpn))
    }

    /// Whether `(eid, vpn)` is currently backed by an EPC frame.
    pub fn is_resident(&self, eid: EnclaveId, vpn: Vpn) -> bool {
        self.frame_index.contains_key(&(eid, vpn))
    }

    // ----------------------------------------------------------------
    // The access path (TLB miss handler with SGX + Autarky checks).
    // ----------------------------------------------------------------

    /// Translate one access, raising a fault (with AEX) on failure.
    ///
    /// This is the heart of the simulation: it reproduces SGX's modified
    /// TLB-miss handler (§2.1 of the paper) plus Autarky's changes (§5.1).
    pub fn touch(
        &mut self,
        eid: EnclaveId,
        tcs: usize,
        va: Va,
        kind: AccessKind,
    ) -> Result<Frame, AccessError> {
        self.clock
            .charge_tagged(CostTag::Translation, self.costs.tlb_hit);
        let vpn = va.vpn();
        if let Some(entry) = self.tlb.lookup(eid, vpn) {
            if entry.perms.allows(kind) && (!kind.is_write() || entry.dirty_ok) {
                return Ok(entry.frame);
            }
            // Insufficient cached rights: drop the entry and re-walk.
            self.tlb.shootdown(eid, vpn);
        }
        self.fill(eid, tcs, va, kind)
    }

    fn fill(
        &mut self,
        eid: EnclaveId,
        tcs: usize,
        va: Va,
        kind: AccessKind,
    ) -> Result<Frame, AccessError> {
        let vpn = va.vpn();
        let (self_paging, terminated, in_range) = {
            let state = self.enclave(eid)?;
            (
                state.secs.attributes.self_paging,
                state.secs.terminated,
                state.secs.contains(va),
            )
        };
        if terminated {
            return Err(AccessError::Fatal(SgxError::Terminated));
        }
        if !in_range {
            return Err(AccessError::Fatal(SgxError::OutOfRange(va)));
        }
        self.clock
            .charge_tagged(CostTag::Translation, self.costs.tlb_fill);
        if self_paging {
            self.clock
                .charge_tagged(CostTag::Translation, self.costs.autarky_fill_check);
        }

        let pte = self
            .page_tables
            .get(&eid)
            .ok_or(SgxError::NoSuchEnclave(eid))?
            .get(vpn);
        let pte = match pte {
            Some(pte) if pte.present => pte,
            _ => return self.fault(eid, tcs, va, kind, FaultCause::NotPresent),
        };
        if !pte.perms.allows(kind) {
            return self.fault(eid, tcs, va, kind, FaultCause::Permission);
        }

        // SGX-specific checks: the mapped frame must be an EPC page that
        // the EPCM agrees belongs to this enclave at this linear address.
        let entry = match self.epc.entry(pte.frame) {
            Ok(entry) => entry.clone(),
            Err(_) => return self.fault(eid, tcs, va, kind, FaultCause::EpcmMismatch),
        };
        if !entry.valid || entry.eid != eid || entry.vpn != vpn {
            return self.fault(eid, tcs, va, kind, FaultCause::EpcmMismatch);
        }
        if entry.blocked || entry.pending || entry.page_type == PageType::Trim {
            return self.fault(eid, tcs, va, kind, FaultCause::EpcmBlocked);
        }
        if !entry.perms.allows(kind) {
            return self.fault(eid, tcs, va, kind, FaultCause::EpcmMismatch);
        }

        if self_paging {
            // Autarky §5.1.4: the fetched PTE's accessed (and, for writes,
            // dirty) bit must already be set; otherwise treat the PTE as
            // invalid. This removes the OS's A/D-bit side channel.
            if !pte.accessed || (kind.is_write() && !pte.dirty) {
                return self.fault(eid, tcs, va, kind, FaultCause::AdBitsClear);
            }
        } else {
            // Legacy behaviour: hardware sets A/D on fill — observable by
            // the OS, which is the stealthy controlled channel.
            let pt = self
                .page_tables
                .get_mut(&eid)
                .ok_or(SgxError::NoSuchEnclave(eid))?;
            if let Some(p) = pt.get_mut(vpn) {
                p.accessed = true;
                if kind.is_write() {
                    p.dirty = true;
                }
            }
        }

        let effective = Perms {
            r: pte.perms.r && entry.perms.r,
            w: pte.perms.w && entry.perms.w,
            x: pte.perms.x && entry.perms.x,
        };
        let dirty_ok = if self_paging {
            pte.dirty
        } else {
            kind.is_write() || pte.dirty
        };
        self.tlb.fill(
            eid,
            vpn,
            TlbEntry {
                frame: pte.frame,
                perms: effective,
                dirty_ok,
            },
        );
        Ok(pte.frame)
    }

    fn fault(
        &mut self,
        eid: EnclaveId,
        tcs: usize,
        va: Va,
        kind: AccessKind,
        cause: FaultCause,
    ) -> Result<Frame, AccessError> {
        self.stats.faults += 1;
        let elide = self.elide_aex;
        let (base, self_paging) = {
            let state = self.enclave(eid)?;
            (state.secs.base, state.secs.attributes.self_paging)
        };
        {
            let state = self.enclave_mut(eid)?;
            let t = state.tcs.get_mut(tcs).ok_or(SgxError::BadTcs(tcs))?;
            if t.ssa.len() >= t.nssa {
                return Err(AccessError::Fatal(SgxError::SsaOverflow));
            }
            t.ssa.push(SsaFrame {
                exinfo: Some(SsaExInfo { va, kind, cause }),
            });
            if self_paging && !elide {
                t.pending_exception = true;
            }
        }

        if self_paging && elide {
            // Proposed optimization: stay in enclave mode; the hardware
            // simulates a nested re-entry to the handler. No AEX, no OS.
            return Err(AccessError::Fault(FaultEvent {
                eid,
                tcs,
                reported_va: base,
                reported_kind: AccessKind::Read,
                elided: true,
            }));
        }

        // AEX: save context, flush TLB, deliver (masked) fault to the OS.
        self.stats.aexs += 1;
        self.clock
            .charge_tagged(CostTag::Preemption, self.costs.aex);
        self.tlb.flush_all();
        self.clock
            .charge_tagged(CostTag::OsKernel, self.costs.os_fault_handler);
        self.note_transition(TransitionKind::Aex, eid, tcs);

        let (reported_va, reported_kind) = if self_paging {
            // §5.1.2: hide the address and access type; report a read fault
            // at the enclave base.
            (base, AccessKind::Read)
        } else {
            // Legacy SGX masks only the page offset.
            (va.page_base(), kind)
        };
        Err(AccessError::Fault(FaultEvent {
            eid,
            tcs,
            reported_va,
            reported_kind,
            elided: false,
        }))
    }

    /// Pop the top SSA frame without `ERESUME` (used by the elided-AEX
    /// handler path, which never left the enclave).
    pub fn pop_ssa(&mut self, eid: EnclaveId, tcs: usize) -> Result<(), SgxError> {
        let state = self.enclave_mut(eid)?;
        let t = state.tcs.get_mut(tcs).ok_or(SgxError::BadTcs(tcs))?;
        if t.ssa.pop().is_none() {
            return Err(SgxError::LifecycleViolation);
        }
        self.note_transition(TransitionKind::PopSsa, eid, tcs);
        Ok(())
    }

    // ----------------------------------------------------------------
    // Data plane: reads and writes by in-enclave code.
    // ----------------------------------------------------------------

    /// Translate every page covered by `[va, va+len)`, returning the
    /// backing frames in order. Replays like a real faulting instruction:
    /// the first failing translation aborts the access.
    fn translate_range(
        &mut self,
        eid: EnclaveId,
        tcs: usize,
        va: Va,
        len: usize,
        kind: AccessKind,
    ) -> Result<Vec<Frame>, AccessError> {
        let mut frames = Vec::new();
        for vpn in pages_covering(va, len) {
            let touch_at = if vpn == va.vpn() { va } else { vpn.base() };
            frames.push(self.touch(eid, tcs, touch_at, kind)?);
        }
        self.clock.charge(1 + len as u64 / 64);
        Ok(frames)
    }

    /// Read `buf.len()` bytes at `va` as the enclave.
    pub fn read_bytes(
        &mut self,
        eid: EnclaveId,
        tcs: usize,
        va: Va,
        buf: &mut [u8],
    ) -> Result<(), AccessError> {
        let frames = self.translate_range(eid, tcs, va, buf.len(), AccessKind::Read)?;
        let mut copied = 0usize;
        let mut off = va.page_offset();
        for frame in frames {
            let chunk = (PAGE_SIZE - off).min(buf.len() - copied);
            let page = self.epc.page(frame)?;
            buf[copied..copied + chunk].copy_from_slice(&page[off..off + chunk]);
            copied += chunk;
            off = 0;
            if copied == buf.len() {
                break;
            }
        }
        Ok(())
    }

    /// Write `buf` at `va` as the enclave.
    pub fn write_bytes(
        &mut self,
        eid: EnclaveId,
        tcs: usize,
        va: Va,
        buf: &[u8],
    ) -> Result<(), AccessError> {
        let frames = self.translate_range(eid, tcs, va, buf.len(), AccessKind::Write)?;
        let mut copied = 0usize;
        let mut off = va.page_offset();
        for frame in frames {
            let chunk = (PAGE_SIZE - off).min(buf.len() - copied);
            let page = self.epc.page_mut(frame)?;
            page[off..off + chunk].copy_from_slice(&buf[copied..copied + chunk]);
            copied += chunk;
            off = 0;
            if copied == buf.len() {
                break;
            }
        }
        Ok(())
    }

    /// Simulate an instruction fetch at `va` (code-page access).
    pub fn fetch_code(&mut self, eid: EnclaveId, tcs: usize, va: Va) -> Result<(), AccessError> {
        self.touch(eid, tcs, va, AccessKind::Execute).map(|_| ())
    }

    /// Trusted-runtime raw page read (for software eviction): copies the
    /// whole page backing `(eid, vpn)` without going through the TLB.
    pub fn read_own_page(&mut self, eid: EnclaveId, vpn: Vpn) -> Result<Vec<u8>, SgxError> {
        let frame = self.frame_of(eid, vpn)?;
        Ok(self.epc.page(frame)?.to_vec())
    }

    /// Trusted query of the anti-replay Version Array slot for one page:
    /// the version of the currently outstanding evicted blob, or `None`
    /// if the page has no sealed copy outstanding. The runtime uses this
    /// to enforce seal *freshness* (a sealed blob that authenticates but
    /// carries an older version is a downgrade, not a replay — `ELDU`
    /// alone cannot tell the runtime which version it was waiting for).
    pub fn outstanding_version(&self, eid: EnclaveId, vpn: Vpn) -> Result<Option<u64>, SgxError> {
        Ok(self.enclave(eid)?.outstanding.get(&vpn).copied())
    }

    /// Capture a fully-built enclave (and the machine timing state its
    /// continuation depends on) into a plaintext [`EnclaveCapture`].
    ///
    /// This models the pause side of checkpoint/restore: the machine is
    /// about to lose power, so everything the enclave needs to continue
    /// byte-identically — resident pages, EPCM metadata, page table, TLB
    /// warmth, SSA stacks, version arrays, clock and event counters — is
    /// exported in deterministic (page-sorted) order. The caller is
    /// responsible for sealing the capture before it leaves trusted
    /// hands; the machine itself never emits it to the OS.
    ///
    /// Fails with [`SgxError::LifecycleViolation`] if the enclave is not
    /// yet initialized (a half-built enclave has no meaningful
    /// continuation).
    pub fn capture_enclave(&self, eid: EnclaveId) -> Result<EnclaveCapture, SgxError> {
        let state = self.enclave(eid)?;
        if !state.secs.initialized || state.building.is_some() {
            return Err(SgxError::LifecycleViolation);
        }
        let mut pages = Vec::new();
        for (frame, entry) in self.epc.iter_valid() {
            if entry.eid != eid {
                continue;
            }
            pages.push(PageCapture {
                vpn: entry.vpn,
                page_type: entry.page_type,
                perms: entry.perms,
                blocked: entry.blocked,
                pending: entry.pending,
                modified: entry.modified,
                contents: self.epc.page(frame)?.to_vec(),
            });
        }
        pages.sort_by_key(|p| p.vpn.0);
        let mut ptes: Vec<(Vpn, Pte)> = self.page_table(eid)?.iter().collect();
        ptes.sort_by_key(|&(vpn, _)| vpn.0);
        let mut next_version: Vec<(Vpn, u64)> =
            state.next_version.iter().map(|(&v, &n)| (v, n)).collect();
        next_version.sort_by_key(|&(vpn, _)| vpn.0);
        let mut outstanding: Vec<(Vpn, u64)> =
            state.outstanding.iter().map(|(&v, &n)| (v, n)).collect();
        outstanding.sort_by_key(|&(vpn, _)| vpn.0);
        let tcs = state
            .tcs
            .iter()
            .map(|t| TcsCapture {
                ssa: t.ssa.clone(),
                nssa: t.nssa,
                pending_exception: t.pending_exception,
                active: t.active,
            })
            .collect();
        Ok(EnclaveCapture {
            eid,
            secs: state.secs.clone(),
            tcs,
            next_version,
            outstanding,
            pages,
            ptes,
            tlb: self.tlb.entries_of(eid),
            clock_cycles: self.clock.now(),
            clock_tagged: self.clock.tag_totals(),
            stats: self.stats.clone(),
            tlb_fills: self.tlb.fills(),
            tlb_hits: self.tlb.hits(),
            tlb_flushes: self.tlb.flushes(),
        })
    }

    /// Rebuild a captured enclave on this machine (the restore side of
    /// checkpoint/restore, modeling `ELDU`-style reconstruction of the
    /// whole enclave at once).
    ///
    /// EPC frames are re-allocated fresh — the captured frame numbers
    /// died with the old machine — and the present PTEs, TLB entries and
    /// frame index are rewritten consistently to the new allocation.
    /// Machine-global timing state (clock, stats, TLB counters) is
    /// overwritten from the capture so the continuation is
    /// byte-identical; restore therefore targets a *fresh* machine built
    /// with the same [`MachineConfig`]. A refused capture leaves the
    /// machine as it was.
    ///
    /// Callers are responsible for freshness: this method checks
    /// structural integrity (unseal happens upstream), not whether the
    /// capture is the *latest* one. Fails with
    /// [`SgxError::LifecycleViolation`] if the enclave id already exists,
    /// [`SgxError::SealBroken`] on a malformed page capture and
    /// [`SgxError::EpcFull`] when the free frames cannot hold its pages.
    pub fn restore_enclave(&mut self, capture: &EnclaveCapture) -> Result<(), SgxError> {
        self.restore_enclave_inner(capture, true)
    }

    /// Rebuild a captured enclave on a machine that *kept running* while
    /// the enclave was down (fleet in-place restart: neighbors sharing
    /// this EPC never stopped).
    ///
    /// Identical to [`Machine::restore_enclave`] except that
    /// machine-global timing state — the clock, event stats, and TLB
    /// counters — is left at its live values instead of being rewound to
    /// the capture's. The restored enclave's *contents* are still
    /// byte-identical to the capture; only the shared wall-clock moved
    /// on, exactly as a real restart on a busy host would see.
    pub fn restore_enclave_shared(&mut self, capture: &EnclaveCapture) -> Result<(), SgxError> {
        self.restore_enclave_inner(capture, false)
    }

    fn restore_enclave_inner(
        &mut self,
        capture: &EnclaveCapture,
        overwrite_timing: bool,
    ) -> Result<(), SgxError> {
        let eid = capture.eid;
        if self.enclaves.contains_key(&eid) {
            return Err(SgxError::LifecycleViolation);
        }
        if !capture.secs.initialized {
            return Err(SgxError::LifecycleViolation);
        }
        // Refuse before the first allocation, so a failed restore takes
        // no frame.
        if capture.pages.iter().any(|p| p.contents.len() != PAGE_SIZE) {
            return Err(SgxError::SealBroken);
        }
        if self.epc_free_frames() < capture.pages.len() {
            return Err(SgxError::EpcFull);
        }
        let mut new_frames: SimMap<Vpn, Frame> = SimMap::default();
        for page in &capture.pages {
            let frame = self.epc.alloc(EpcmEntry {
                valid: true,
                eid,
                vpn: page.vpn,
                page_type: page.page_type,
                perms: page.perms,
                blocked: page.blocked,
                pending: page.pending,
                modified: page.modified,
            })?;
            self.epc.page_mut(frame)?.copy_from_slice(&page.contents);
            self.frame_index.insert((eid, page.vpn), frame);
            new_frames.insert(page.vpn, frame);
        }
        let mut table = PageTable::new();
        for &(vpn, pte) in &capture.ptes {
            let mut pte = pte;
            if let Some(&frame) = new_frames.get(&vpn) {
                pte.frame = frame;
            }
            table.map(vpn, pte);
        }
        self.page_tables.insert(eid, table);
        for &(vpn, entry) in &capture.tlb {
            let mut entry = entry;
            if let Some(&frame) = new_frames.get(&vpn) {
                entry.frame = frame;
            }
            self.tlb.reinstall(eid, vpn, entry);
        }
        let tcs = capture
            .tcs
            .iter()
            .map(|c| {
                let mut t = Tcs::new(c.nssa);
                t.ssa = c.ssa.clone();
                t.pending_exception = c.pending_exception;
                t.active = c.active;
                t
            })
            .collect();
        self.enclaves.insert(
            eid,
            EnclaveState {
                secs: capture.secs.clone(),
                tcs,
                building: None,
                next_version: capture.next_version.iter().copied().collect(),
                outstanding: capture.outstanding.iter().copied().collect(),
            },
        );
        if overwrite_timing {
            self.clock = Clock::from_parts(capture.clock_cycles, capture.clock_tagged);
            self.stats = capture.stats.clone();
            self.tlb
                .restore_counters(capture.tlb_fills, capture.tlb_hits, capture.tlb_flushes);
        }
        self.next_eid = self.next_eid.max(eid.0 + 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagetable::Pte;

    fn build_enclave(machine: &mut Machine, self_paging: bool, pages: u64) -> EnclaveId {
        build_enclave_at(machine, Va(0x100000), self_paging, pages)
    }

    fn build_enclave_at(
        machine: &mut Machine,
        base: Va,
        self_paging: bool,
        pages: u64,
    ) -> EnclaveId {
        let eid = machine.ecreate(
            base,
            pages * PAGE_SIZE as u64,
            Attributes {
                self_paging,
                debug: false,
            },
        );
        for i in 0..pages {
            let vpn = Vpn(base.vpn().0 + i);
            let frame = machine
                .eadd(eid, vpn, PageType::Reg, Perms::RW, None)
                .expect("eadd");
            machine.page_table_mut(eid).expect("pt").map(
                vpn,
                Pte {
                    present: true,
                    frame,
                    perms: Perms::RW,
                    accessed: true,
                    dirty: true,
                },
            );
        }
        machine.einit(eid).expect("einit");
        machine.eenter(eid, 0).expect("eenter");
        eid
    }

    #[test]
    fn basic_read_write() {
        let mut machine = Machine::new(MachineConfig::default());
        let eid = build_enclave(&mut machine, false, 4);
        let va = Va(0x100010);
        machine
            .write_bytes(eid, 0, va, &[1, 2, 3, 4])
            .expect("write");
        let mut buf = [0u8; 4];
        machine.read_bytes(eid, 0, va, &mut buf).expect("read");
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn cross_page_access() {
        let mut machine = Machine::new(MachineConfig::default());
        let eid = build_enclave(&mut machine, false, 4);
        let va = Va(0x100000 + PAGE_SIZE as u64 - 2);
        let data = [9u8, 8, 7, 6];
        machine
            .write_bytes(eid, 0, va, &data)
            .expect("write spans pages");
        let mut buf = [0u8; 4];
        machine
            .read_bytes(eid, 0, va, &mut buf)
            .expect("read spans pages");
        assert_eq!(buf, [9, 8, 7, 6]);
    }

    #[test]
    fn unmapped_page_faults_with_page_granular_report() {
        let mut machine = Machine::new(MachineConfig::default());
        let eid = build_enclave(&mut machine, false, 4);
        machine
            .page_table_mut(eid)
            .expect("pt")
            .clear_present(Vpn(0x101));
        machine.tlb_shootdown(eid, Vpn(0x101));
        let err = machine
            .read_bytes(eid, 0, Va(0x101123), &mut [0u8; 1])
            .expect_err("must fault");
        match err {
            AccessError::Fault(f) => {
                // Legacy: page base reported (offset masked), true kind.
                assert_eq!(f.reported_va, Va(0x101000));
                assert_eq!(f.reported_kind, AccessKind::Read);
                assert!(!f.elided);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn self_paging_fault_fully_masked() {
        let mut machine = Machine::new(MachineConfig::default());
        let eid = build_enclave(&mut machine, true, 4);
        machine
            .page_table_mut(eid)
            .expect("pt")
            .clear_present(Vpn(0x102));
        machine.tlb_shootdown(eid, Vpn(0x102));
        let err = machine
            .write_bytes(eid, 0, Va(0x102abc), &[0u8; 1])
            .expect_err("must fault");
        match err {
            AccessError::Fault(f) => {
                assert_eq!(f.reported_va, Va(0x100000), "enclave base, not the page");
                assert_eq!(f.reported_kind, AccessKind::Read, "kind masked");
            }
            other => panic!("unexpected: {other:?}"),
        }
        // Pending-exception flag is set; ERESUME must fail.
        assert!(machine.pending_exception(eid, 0).expect("tcs"));
        assert_eq!(machine.eresume(eid, 0), Err(SgxError::ResumeBlocked));
        // EENTER clears the flag; trusted code can then see the real info.
        machine.eenter(eid, 0).expect("re-enter");
        let info = machine.ssa_exinfo(eid, 0).expect("tcs").expect("exinfo");
        assert_eq!(info.va, Va(0x102abc));
        assert_eq!(info.kind, AccessKind::Write);
        assert_eq!(info.cause, FaultCause::NotPresent);
    }

    #[test]
    fn legacy_silent_resume_works() {
        // The vanilla controlled channel: unmap, fault, remap, ERESUME —
        // the enclave never learns.
        let mut machine = Machine::new(MachineConfig::default());
        let eid = build_enclave(&mut machine, false, 4);
        machine
            .page_table_mut(eid)
            .expect("pt")
            .clear_present(Vpn(0x101));
        machine.tlb_shootdown(eid, Vpn(0x101));
        let err = machine.read_bytes(eid, 0, Va(0x101000), &mut [0u8; 1]);
        assert!(matches!(err, Err(AccessError::Fault(_))));
        machine
            .page_table_mut(eid)
            .expect("pt")
            .set_present(Vpn(0x101));
        machine
            .eresume(eid, 0)
            .expect("silent resume allowed on legacy");
        machine
            .read_bytes(eid, 0, Va(0x101000), &mut [0u8; 1])
            .expect("access retries fine");
    }

    #[test]
    fn ad_bit_precondition_faults_self_paging() {
        let mut machine = Machine::new(MachineConfig::default());
        let eid = build_enclave(&mut machine, true, 4);
        // OS clears A/D to monitor accesses.
        machine
            .page_table_mut(eid)
            .expect("pt")
            .clear_accessed_dirty(Vpn(0x101));
        machine.tlb_shootdown(eid, Vpn(0x101));
        let err = machine
            .read_bytes(eid, 0, Va(0x101000), &mut [0u8; 1])
            .expect_err("A-bit clear must fault");
        assert!(matches!(err, AccessError::Fault(_)));
        machine.eenter(eid, 0).expect("re-enter");
        let info = machine.ssa_exinfo(eid, 0).expect("tcs").expect("exinfo");
        assert_eq!(info.cause, FaultCause::AdBitsClear);
    }

    #[test]
    fn legacy_ad_bits_observable() {
        let mut machine = Machine::new(MachineConfig::default());
        let eid = build_enclave(&mut machine, false, 4);
        machine
            .page_table_mut(eid)
            .expect("pt")
            .clear_accessed_dirty(Vpn(0x101));
        machine.tlb_shootdown(eid, Vpn(0x101));
        // Enclave reads the page: hardware silently sets A.
        machine
            .read_bytes(eid, 0, Va(0x101000), &mut [0u8; 1])
            .expect("read succeeds on legacy");
        let pte = machine
            .page_table(eid)
            .expect("pt")
            .get(Vpn(0x101))
            .expect("pte");
        assert!(pte.accessed, "leak: OS observes the accessed bit");
        assert!(!pte.dirty);
    }

    #[test]
    fn ewb_eldu_roundtrip() {
        let mut machine = Machine::new(MachineConfig::default());
        let eid = build_enclave(&mut machine, true, 4);
        let va = Va(0x101008);
        machine.write_bytes(eid, 0, va, &[0xCC; 8]).expect("write");
        // Evict.
        machine.eblock(eid, Vpn(0x101)).expect("eblock");
        machine.etrack(eid).expect("etrack");
        let sealed = machine.ewb(eid, Vpn(0x101)).expect("ewb");
        machine.page_table_mut(eid).expect("pt").unmap(Vpn(0x101));
        let free_before = machine.epc_free_frames();
        // Reload.
        let frame = machine.eldu(eid, &sealed).expect("eldu");
        assert_eq!(machine.epc_free_frames(), free_before - 1);
        machine.page_table_mut(eid).expect("pt").map(
            Vpn(0x101),
            Pte {
                present: true,
                frame,
                perms: Perms::RW,
                accessed: true,
                dirty: true,
            },
        );
        let mut buf = [0u8; 8];
        machine.read_bytes(eid, 0, va, &mut buf).expect("read");
        assert_eq!(buf, [0xCC; 8]);
    }

    #[test]
    fn eldu_replay_rejected() {
        let mut machine = Machine::new(MachineConfig::default());
        let eid = build_enclave(&mut machine, true, 4);
        machine.eblock(eid, Vpn(0x101)).expect("eblock");
        machine.etrack(eid).expect("etrack");
        let sealed = machine.ewb(eid, Vpn(0x101)).expect("ewb");
        machine.eldu(eid, &sealed).expect("first load ok");
        assert!(matches!(
            machine.eldu(eid, &sealed),
            Err(SgxError::Replay(_)) | Err(SgxError::EpcFull)
        ));
    }

    #[test]
    fn ewb_requires_block() {
        let mut machine = Machine::new(MachineConfig::default());
        let eid = build_enclave(&mut machine, true, 4);
        assert!(matches!(
            machine.ewb(eid, Vpn(0x101)),
            Err(SgxError::NotBlocked(Vpn(0x101)))
        ));
    }

    /// A page of bytes that differ from their neighbours and from zero.
    fn page_pattern() -> Vec<u8> {
        (0..PAGE_SIZE).map(|i| (i * 7 + 3) as u8).collect()
    }

    /// The bytes in the EPC frame backing `vpn`, read past the page table
    /// (a blocked page faults on access).
    fn frame_bytes(machine: &Machine, eid: EnclaveId, vpn: Vpn) -> Vec<u8> {
        let frame = machine.frame_of(eid, vpn).expect("resident");
        machine.epc.page(frame).expect("allocated frame").to_vec()
    }

    #[test]
    fn ewb_refuses_a_page_number_beyond_the_nonce() {
        // Page 2^32 would share page 0's nonce, and so its keystream.
        let mut machine = Machine::new(MachineConfig::default());
        let base = Va(1 << 44);
        let eid = build_enclave_at(&mut machine, base, true, 2);
        let vpn = base.vpn();
        machine
            .write_bytes(eid, 0, base, &page_pattern())
            .expect("write");
        let free = machine.epc_free_frames();
        machine.eblock(eid, vpn).expect("eblock");
        machine.etrack(eid).expect("etrack");
        let err = machine.ewb(eid, vpn).expect_err("EWB must refuse");
        assert_eq!(err, SgxError::NonceExhausted(vpn));
        assert!(machine.is_resident(eid, vpn), "the page stays in EPC");
        assert_eq!(frame_bytes(&machine, eid, vpn), page_pattern());
        assert_eq!(machine.epc_free_frames(), free);
        assert_eq!(machine.stats().ewbs, 0);
    }

    #[test]
    fn ewb_refuses_a_version_beyond_the_nonce() {
        let mut machine = Machine::new(MachineConfig::default());
        let eid = build_enclave(&mut machine, true, 4);
        let vpn = Vpn(0x101);
        machine
            .write_bytes(eid, 0, vpn.base(), &page_pattern())
            .expect("write");
        let mut capture = machine.capture_enclave(eid).expect("capture");
        capture.next_version = vec![(vpn, u64::from(u32::MAX))];
        let mut fresh = Machine::new(MachineConfig::default());
        fresh.restore_enclave(&capture).expect("restore");
        fresh.eblock(eid, vpn).expect("eblock");
        fresh.etrack(eid).expect("etrack");
        let err = fresh.ewb(eid, vpn).expect_err("EWB must refuse");
        assert_eq!(err, SgxError::NonceExhausted(vpn));
        assert!(fresh.is_resident(eid, vpn), "the page stays in EPC");
        assert_eq!(frame_bytes(&fresh, eid, vpn), page_pattern());
        let after = fresh.capture_enclave(eid).expect("capture");
        assert_eq!(after.next_version, capture.next_version, "not bumped");
        assert!(after.outstanding.is_empty());
    }

    #[test]
    fn eldu_refuses_a_tampered_blob_and_changes_nothing() {
        let mut machine = Machine::new(MachineConfig::default());
        let eid = build_enclave(&mut machine, true, 4);
        let vpn = Vpn(0x101);
        machine
            .write_bytes(eid, 0, vpn.base(), &page_pattern())
            .expect("write");
        machine.eblock(eid, vpn).expect("eblock");
        machine.etrack(eid).expect("etrack");
        let sealed = machine.ewb(eid, vpn).expect("ewb");
        let free = machine.epc_free_frames();
        let eldus = machine.stats().eldus;
        let version = machine.outstanding_version(eid, vpn).expect("query");
        assert_eq!(version, Some(sealed.version));
        let mut bad_ciphertext = sealed.clone();
        bad_ciphertext.bytes_mut().ciphertext[1234] ^= 0x01;
        let mut bad_tag = sealed.clone();
        bad_tag.bytes_mut().tag[7] ^= 0x80;
        for (what, blob) in [("ciphertext", &bad_ciphertext), ("tag", &bad_tag)] {
            assert_eq!(machine.eldu(eid, blob), Err(SgxError::SealBroken), "{what}");
            assert!(!machine.is_resident(eid, vpn), "{what}");
            assert_eq!(machine.epc_free_frames(), free, "{what}");
            assert_eq!(machine.stats().eldus, eldus, "{what}");
            let outstanding = machine.outstanding_version(eid, vpn).expect("query");
            assert_eq!(outstanding, version, "{what}");
        }
        machine
            .eldu(eid, &sealed)
            .expect("the genuine blob still loads");
        assert_eq!(frame_bytes(&machine, eid, vpn), page_pattern());
        assert_eq!(machine.stats().eldus, eldus + 1);
    }

    /// `EBLOCK`, `ETRACK`, `EWB` and unmap `vpn`.
    fn evict(machine: &mut Machine, eid: EnclaveId, vpn: Vpn) -> SealedPage {
        machine.eblock(eid, vpn).expect("eblock");
        machine.etrack(eid).expect("etrack");
        let blob = machine.ewb(eid, vpn).expect("ewb");
        machine.page_table_mut(eid).expect("pt").unmap(vpn);
        blob
    }

    /// Map the resident `vpn` again and fill it with `byte`.
    fn remap_and_fill(machine: &mut Machine, eid: EnclaveId, vpn: Vpn, byte: u8) {
        let frame = machine.frame_of(eid, vpn).expect("resident");
        machine.page_table_mut(eid).expect("pt").map(
            vpn,
            Pte {
                present: true,
                frame,
                perms: Perms::RW,
                accessed: true,
                dirty: true,
            },
        );
        machine
            .write_bytes(eid, 0, vpn.base(), &[byte; PAGE_SIZE])
            .expect("write");
    }

    /// `ELDU` of `blob`, which must end as a full open of the blob would:
    /// the same refusal, or a frame holding the bytes `open_page` returns.
    /// Returns whether it copied out the page of an unwritten blob.
    fn eldu_like_open(machine: &mut Machine, eid: EnclaveId, blob: &SealedPage) -> bool {
        let expected = if blob.eid != eid {
            Err(SgxError::SealBroken)
        } else if machine.outstanding_version(eid, blob.vpn) != Ok(Some(blob.version)) {
            Err(SgxError::Replay(blob.vpn))
        } else {
            open_page(blob)
                .map(|page| page.to_vec())
                .map_err(|_| SgxError::SealBroken)
        };
        let hits = machine.unopened_eldus;
        let got = machine
            .eldu(eid, blob)
            .map(|_| frame_bytes(machine, eid, blob.vpn));
        let label = (blob.eid, blob.vpn, blob.version, blob.perms);
        assert_eq!(got, expected, "ELDU of the blob labelled {label:?}");
        machine.unopened_eldus > hits
    }

    #[test]
    fn eldu_of_an_unwritten_blob_ends_as_a_full_open() {
        let mut machine = Machine::new(MachineConfig::default());
        let eid = build_enclave(&mut machine, true, 4);
        let (x, y) = (Vpn(0x101), Vpn(0x102));
        machine
            .write_bytes(eid, 0, x.base(), &page_pattern())
            .expect("write");

        // The honest round trip, and a clone sharing its body.
        let blob = evict(&mut machine, eid, x);
        assert!(eldu_like_open(&mut machine, eid, &blob), "honest");
        remap_and_fill(&mut machine, eid, x, 0x11);
        let blob = evict(&mut machine, eid, x);
        assert!(eldu_like_open(&mut machine, eid, &blob.clone()), "clone");

        // A flipped ciphertext byte moves the clone onto bytes of its
        // own; flipping it back gives the sealed bytes, which are opened.
        remap_and_fill(&mut machine, eid, x, 0x22);
        let blob = evict(&mut machine, eid, x);
        let mut flipped = blob.clone();
        flipped.bytes_mut().ciphertext[9] ^= 0x01;
        assert!(!eldu_like_open(&mut machine, eid, &flipped), "flipped");
        flipped.bytes_mut().ciphertext[9] ^= 0x01;
        assert_eq!(flipped.ciphertext(), blob.ciphertext());
        assert!(!eldu_like_open(&mut machine, eid, &flipped), "flipped back");

        // Tag and labels: each relabelled blob is refused, and the blob
        // as sealed still loads without an open afterwards.
        remap_and_fill(&mut machine, eid, x, 0x33);
        let blob = evict(&mut machine, eid, x);
        machine
            .write_bytes(eid, 0, y.base(), &[0x44; 8])
            .expect("write");
        let other_page = evict(&mut machine, eid, y);
        let relabelled = |edit: &dyn Fn(&mut SealedPage)| {
            let mut bad = blob.clone();
            edit(&mut bad);
            bad
        };
        let bad_blobs = [
            relabelled(&|bad| bad.bytes_mut().tag[0] ^= 0x80),
            relabelled(&|bad| bad.version -= 1),
            relabelled(&|bad| bad.version += 1),
            relabelled(&|bad| bad.perms = Perms::RX),
            relabelled(&|bad| {
                bad.vpn = y;
                bad.version = other_page.version;
            }),
        ];
        for bad in &bad_blobs {
            assert!(!eldu_like_open(&mut machine, eid, bad), "{bad:?}");
        }
        assert!(eldu_like_open(&mut machine, eid, &blob), "x as sealed");
        assert!(eldu_like_open(&mut machine, eid, &other_page), "y");

        // A stale blob is a replay, resident or not.
        remap_and_fill(&mut machine, eid, x, 0x55);
        assert!(!eldu_like_open(&mut machine, eid, &blob), "resident");
        let fresh = evict(&mut machine, eid, x);
        assert!(!eldu_like_open(&mut machine, eid, &blob), "stale");

        // Another enclave at the same pages: neither the blob nor a copy
        // relabelled to it loads there.
        let other = build_enclave(&mut machine, true, 4);
        let theirs = evict(&mut machine, other, x);
        assert!(!eldu_like_open(&mut machine, other, &fresh), "foreign");
        let mut moved = fresh.clone();
        moved.eid = other;
        moved.version = theirs.version;
        assert!(!eldu_like_open(&mut machine, other, &moved), "moved");
        assert!(eldu_like_open(&mut machine, other, &theirs), "theirs");
        assert!(eldu_like_open(&mut machine, eid, &fresh), "ours");

        // A restored machine loads the blob sealed before the restore and
        // the pre-crash blob without an open either: every machine seals
        // under one key. The pre-crash blob loads because the restore
        // rewinds `next_version` (ROADMAP item 5).
        remap_and_fill(&mut machine, eid, x, 0x66);
        let before = evict(&mut machine, eid, x);
        let capture = machine.capture_enclave(eid).expect("capture");
        assert!(eldu_like_open(&mut machine, eid, &before), "before");
        remap_and_fill(&mut machine, eid, x, 0xAA);
        let pre_crash = evict(&mut machine, eid, x);
        let mut restored = Machine::new(MachineConfig::default());
        restored.restore_enclave(&capture).expect("restore");
        assert!(eldu_like_open(&mut restored, eid, &before), "restored");
        remap_and_fill(&mut restored, eid, x, 0x55);
        let after = evict(&mut restored, eid, x);
        assert_eq!(after.version, pre_crash.version, "the version rewinds");
        assert!(eldu_like_open(&mut restored, eid, &pre_crash), "pre-crash");
        assert!(!eldu_like_open(&mut restored, eid, &after), "after");
        assert_eq!(machine.unopened_eldus, 7);
        assert_eq!(restored.unopened_eldus, 2);
    }

    #[test]
    fn blocked_page_faults_on_access() {
        let mut machine = Machine::new(MachineConfig::default());
        let eid = build_enclave(&mut machine, false, 4);
        machine.eblock(eid, Vpn(0x101)).expect("eblock");
        machine.etrack(eid).expect("etrack");
        let err = machine.read_bytes(eid, 0, Va(0x101000), &mut [0u8; 1]);
        assert!(matches!(err, Err(AccessError::Fault(_))));
    }

    #[test]
    fn sgx2_aug_accept_flow() {
        let mut machine = Machine::new(MachineConfig::default());
        let eid = build_enclave(&mut machine, true, 8);
        // Trim page 4 (it was EADDed by the builder): emulate dealloc.
        let vpn = Vpn(0x104);
        machine.emodt_trim(eid, vpn).expect("emodt");
        machine.eaccept(eid, vpn).expect("eaccept");
        machine.eremove(eid, vpn).expect("eremove");
        machine.page_table_mut(eid).expect("pt").unmap(vpn);
        // Re-add dynamically.
        let frame = machine.eaug(eid, vpn).expect("eaug");
        let contents = [0x5Au8; PAGE_SIZE];
        machine
            .eacceptcopy(eid, vpn, &contents, Perms::RW)
            .expect("acceptcopy");
        machine.page_table_mut(eid).expect("pt").map(
            vpn,
            Pte {
                present: true,
                frame,
                perms: Perms::RW,
                accessed: true,
                dirty: true,
            },
        );
        let mut buf = [0u8; 2];
        machine
            .read_bytes(eid, 0, Va(vpn.base().0), &mut buf)
            .expect("read");
        assert_eq!(buf, [0x5A, 0x5A]);
    }

    #[test]
    fn pending_page_not_accessible_before_accept() {
        let mut machine = Machine::new(MachineConfig::default());
        let eid = build_enclave(&mut machine, true, 8);
        let vpn = Vpn(0x105);
        machine.emodt_trim(eid, vpn).expect("emodt");
        machine.eaccept(eid, vpn).expect("eaccept");
        machine.eremove(eid, vpn).expect("eremove");
        let frame = machine.eaug(eid, vpn).expect("eaug");
        machine.page_table_mut(eid).expect("pt").map(
            vpn,
            Pte {
                present: true,
                frame,
                perms: Perms::RW,
                accessed: true,
                dirty: true,
            },
        );
        let err = machine.read_bytes(eid, 0, Va(vpn.base().0), &mut [0u8; 1]);
        assert!(
            matches!(err, Err(AccessError::Fault(_))),
            "pending page must fault"
        );
    }

    #[test]
    fn wrong_mapping_caught_by_epcm() {
        let mut machine = Machine::new(MachineConfig::default());
        let eid = build_enclave(&mut machine, false, 4);
        // OS remaps page 0x101 to the frame backing 0x102.
        let frame_102 = machine.frame_of(eid, Vpn(0x102)).expect("frame");
        machine.page_table_mut(eid).expect("pt").map(
            Vpn(0x101),
            Pte {
                present: true,
                frame: frame_102,
                perms: Perms::RW,
                accessed: true,
                dirty: true,
            },
        );
        machine.tlb_shootdown(eid, Vpn(0x101));
        let err = machine.read_bytes(eid, 0, Va(0x101000), &mut [0u8; 1]);
        assert!(
            matches!(err, Err(AccessError::Fault(_))),
            "EPCM must veto remap"
        );
    }

    #[test]
    fn terminated_enclave_rejects_entry_and_access() {
        let mut machine = Machine::new(MachineConfig::default());
        let eid = build_enclave(&mut machine, true, 4);
        machine.terminate(eid).expect("terminate");
        assert_eq!(machine.eenter(eid, 0), Err(SgxError::Terminated));
        let err = machine.read_bytes(eid, 0, Va(0x100000), &mut [0u8; 1]);
        assert!(matches!(err, Err(AccessError::Fatal(SgxError::Terminated))));
    }

    #[test]
    fn measurement_attests_self_paging() {
        let mut machine = Machine::new(MachineConfig::default());
        let eid = build_enclave(&mut machine, true, 2);
        let report = machine.ereport(eid, [0; 64]).expect("report");
        assert!(report.attributes.self_paging);
        assert!(crate::attest::verify_report(
            machine.platform_key(),
            &report
        ));
    }

    #[test]
    fn elide_aex_skips_os() {
        let mut machine = Machine::new(MachineConfig {
            elide_aex: true,
            ..Default::default()
        });
        let eid = build_enclave(&mut machine, true, 4);
        machine
            .page_table_mut(eid)
            .expect("pt")
            .clear_present(Vpn(0x101));
        machine.tlb_shootdown(eid, Vpn(0x101));
        let before_aex = machine.stats().aexs;
        let err = machine
            .read_bytes(eid, 0, Va(0x101000), &mut [0u8; 1])
            .expect_err("faults");
        match err {
            AccessError::Fault(f) => assert!(f.elided),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(machine.stats().aexs, before_aex, "no AEX performed");
        // The handler (in-enclave) resolves and pops SSA without ERESUME.
        machine
            .page_table_mut(eid)
            .expect("pt")
            .set_present(Vpn(0x101));
        machine.pop_ssa(eid, 0).expect("pop");
        machine
            .read_bytes(eid, 0, Va(0x101000), &mut [0u8; 1])
            .expect("replay succeeds");
    }

    #[test]
    fn ssa_overflow_detected() {
        let mut machine = Machine::new(MachineConfig::default());
        let eid = build_enclave(&mut machine, true, 4);
        machine
            .page_table_mut(eid)
            .expect("pt")
            .clear_present(Vpn(0x101));
        machine.tlb_shootdown(eid, Vpn(0x101));
        let mut overflowed = false;
        for _ in 0..20 {
            match machine.read_bytes(eid, 0, Va(0x101000), &mut [0u8; 1]) {
                Err(AccessError::Fault(_)) => {
                    machine.eenter(eid, 0).expect("enter handler");
                    // Handler does not resolve; access replayed (nested).
                }
                Err(AccessError::Fatal(SgxError::SsaOverflow)) => {
                    overflowed = true;
                    break;
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
        assert!(overflowed, "repeated unresolved faults must exhaust SSA");
    }

    #[test]
    fn epc_exhaustion_reported() {
        let mut machine = Machine::new(MachineConfig {
            epc_frames: 2,
            ..Default::default()
        });
        let base = Va(0x100000);
        let eid = machine.ecreate(base, 16 * PAGE_SIZE as u64, Attributes::default());
        machine
            .eadd(eid, Vpn(0x100), PageType::Reg, Perms::RW, None)
            .expect("first");
        machine
            .eadd(eid, Vpn(0x101), PageType::Reg, Perms::RW, None)
            .expect("second");
        assert_eq!(
            machine.eadd(eid, Vpn(0x102), PageType::Reg, Perms::RW, None),
            Err(SgxError::EpcFull)
        );
    }

    #[test]
    fn destroy_frees_frames() {
        let mut machine = Machine::new(MachineConfig::default());
        let free0 = machine.epc_free_frames();
        let eid = build_enclave(&mut machine, false, 4);
        assert_eq!(machine.epc_free_frames(), free0 - 4);
        machine.destroy_enclave(eid).expect("destroy");
        assert_eq!(machine.epc_free_frames(), free0);
    }

    #[test]
    fn tlb_fill_counter_counts_unique_pages() {
        let mut machine = Machine::new(MachineConfig::default());
        let eid = build_enclave(&mut machine, false, 4);
        let (fills0, _, _) = machine.tlb_stats();
        for _ in 0..10 {
            machine
                .read_bytes(eid, 0, Va(0x100000), &mut [0u8; 1])
                .expect("read");
        }
        let (fills1, hits1, _) = machine.tlb_stats();
        assert_eq!(fills1 - fills0, 1, "one fill, then hits");
        assert!(hits1 >= 9);
    }

    #[test]
    fn capture_restore_round_trip_continues_byte_identically() {
        let mut machine = Machine::new(MachineConfig::default());
        let eid = build_enclave(&mut machine, true, 4);
        machine
            .write_bytes(eid, 0, Va(0x100010), &[0xCA, 0xFE])
            .expect("write");
        let capture = machine.capture_enclave(eid).expect("capture");

        // The old machine dies; a fresh one with the same config takes over.
        let mut fresh = Machine::new(MachineConfig::default());
        fresh.restore_enclave(&capture).expect("restore");

        // Contents, identity and timing state all carried across.
        let mut buf = [0u8; 2];
        fresh
            .read_bytes(eid, 0, Va(0x100010), &mut buf)
            .expect("read after restore");
        assert_eq!(buf, [0xCA, 0xFE]);
        assert_eq!(
            fresh.capture_enclave(eid).expect("recapture").secs.base,
            capture.secs.base
        );
        assert_eq!(fresh.stats().eenters, capture.stats.eenters);

        // Clock and TLB warmth match the donor at capture time, plus
        // exactly what the post-restore accesses added: the same access
        // on the donor and on the restored machine must cost the same.
        let mut donor = Machine::new(MachineConfig::default());
        let donor_eid = build_enclave(&mut donor, true, 4);
        donor
            .write_bytes(donor_eid, 0, Va(0x100010), &[0xCA, 0xFE])
            .expect("write");
        let mut donor_buf = [0u8; 2];
        donor
            .read_bytes(donor_eid, 0, Va(0x100010), &mut donor_buf)
            .expect("read");
        assert_eq!(fresh.clock.now(), donor.clock.now());
        assert_eq!(fresh.tlb_stats(), donor.tlb_stats());
    }

    #[test]
    fn restore_rejects_existing_enclave_and_preserves_versions() {
        let mut machine = Machine::new(MachineConfig::default());
        let eid = build_enclave(&mut machine, true, 4);
        let capture = machine.capture_enclave(eid).expect("capture");
        // Restoring over a live enclave with the same id must fail.
        assert_eq!(
            machine.restore_enclave(&capture),
            Err(SgxError::LifecycleViolation),
        );

        let mut fresh = Machine::new(MachineConfig::default());
        fresh.restore_enclave(&capture).expect("restore");
        // Version-array state survives: no page had been evicted, so no
        // outstanding versions, and new ids don't collide with the
        // restored one.
        assert_eq!(
            fresh.outstanding_version(eid, Vpn(0x100)).expect("query"),
            None
        );
        let other = fresh.ecreate(Va(0x900000), 4 * PAGE_SIZE as u64, Attributes::default());
        assert_ne!(other, eid);
    }

    #[test]
    fn capture_requires_initialized_enclave() {
        let mut machine = Machine::new(MachineConfig::default());
        let eid = machine.ecreate(Va(0x100000), 4 * PAGE_SIZE as u64, Attributes::default());
        assert!(matches!(
            machine.capture_enclave(eid),
            Err(SgxError::LifecycleViolation)
        ));
    }
}
