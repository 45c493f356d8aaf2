//! The controlled-channel adversary.
//!
//! Implements the published attack variants as OS-resident machinery:
//!
//! * [`FaultTracer`] — Xu et al.'s original attack: unmap target pages,
//!   intercept the induced faults, restore the mapping, and record the
//!   page-granular access trace. Against a legacy enclave this yields a
//!   noise-free, deterministic trace; against an Autarky enclave every
//!   fault report is masked to the enclave base, so the trace is
//!   degenerate (and the enclave's handler detects the attack).
//! * [`AdMonitor`] — Wang et al. / Van Bulck et al.'s stealthy variant:
//!   clear PTE accessed/dirty bits, shoot down the TLB, and poll for bits
//!   the hardware sets back. Needs no faults at all on legacy SGX; under
//!   Autarky the A/D-bit precondition turns the cleared bit itself into a
//!   detectable fault.
//!
//! The attacker is part of [`Os`]; it has exactly the powers the threat
//! model grants (page tables, fault reports, IPIs) and nothing more.

use std::collections::BTreeSet;

use autarky_sgx_sim::{AccessKind, EnclaveId, FaultEvent, Vpn};

use crate::kernel::{Observation, Os};

/// How the fault tracer induces its faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Clear the present bit (Xu et al.'s original attack \[76\]).
    Unmap,
    /// Strip a permission instead — e.g. write-protect data pages or make
    /// code pages non-executable (the AsyncShock-style variant \[74\]).
    /// Stealthier on real systems because the page stays mapped.
    StripPermission {
        /// Remove write permission.
        write: bool,
        /// Remove execute permission.
        execute: bool,
    },
}

/// Fault-tracing attack state (Xu et al. \[76\] and permission variants).
#[derive(Debug, Clone)]
pub struct FaultTracer {
    /// Victim enclave.
    pub eid: EnclaveId,
    /// Pages whose accesses the attacker wants to trace.
    pub targets: BTreeSet<Vpn>,
    /// How faults are induced.
    pub mode: TraceMode,
    /// Recovered page-granular access trace (legacy victims only).
    pub trace: Vec<Vpn>,
    /// Faults that arrived masked (self-paging victims): the attacker
    /// learns only that *some* fault happened.
    pub masked_faults: u64,
    /// The target page currently left accessible (at most one, so every
    /// transition between target pages faults).
    current: Option<Vpn>,
    /// The target page most recently re-protected (straddle detection:
    /// an access spanning two armed pages re-faults here immediately).
    last_protected: Option<Vpn>,
    /// An adjacent pair both left open so a straddling access can replay
    /// through; re-protected when the next unrelated fault arrives.
    open_pair: Option<(Vpn, Vpn)>,
}

impl FaultTracer {
    /// Create a tracer for `targets` of `eid`.
    pub fn new(eid: EnclaveId, targets: impl IntoIterator<Item = Vpn>) -> Self {
        Self::with_mode(eid, targets, TraceMode::Unmap)
    }

    /// Create a tracer using a specific fault-induction mode.
    pub fn with_mode(
        eid: EnclaveId,
        targets: impl IntoIterator<Item = Vpn>,
        mode: TraceMode,
    ) -> Self {
        Self {
            eid,
            targets: targets.into_iter().collect(),
            mode,
            trace: Vec::new(),
            masked_faults: 0,
            current: None,
            last_protected: None,
            open_pair: None,
        }
    }
}

/// Accessed/dirty-bit monitoring attack state (Wang et al. \[72\]).
#[derive(Debug, Clone)]
pub struct AdMonitor {
    /// Victim enclave.
    pub eid: EnclaveId,
    /// Pages monitored.
    pub targets: BTreeSet<Vpn>,
    /// Recovered access trace with a dirty flag per hit.
    pub trace: Vec<(Vpn, bool)>,
}

impl AdMonitor {
    /// Create a monitor for `targets` of `eid`.
    pub fn new(eid: EnclaveId, targets: impl IntoIterator<Item = Vpn>) -> Self {
        Self {
            eid,
            targets: targets.into_iter().collect(),
            trace: Vec::new(),
        }
    }
}

/// The OS's attack personality.
#[derive(Debug, Clone)]
pub enum Attacker {
    /// Benign OS (no attack armed).
    None,
    /// Page-fault tracing attack.
    FaultTracer(FaultTracer),
    /// A/D-bit monitoring attack.
    AdMonitor(AdMonitor),
}

impl Attacker {
    /// Whether an attack is armed.
    pub fn is_armed(&self) -> bool {
        !matches!(self, Attacker::None)
    }
}

fn protect(os: &mut Os, eid: EnclaveId, vpn: Vpn, mode: TraceMode) {
    if let Ok(pt) = os.machine.page_table_mut(eid) {
        match mode {
            TraceMode::Unmap => {
                pt.clear_present(vpn);
            }
            TraceMode::StripPermission { write, execute } => {
                if let Some(pte) = pt.get_mut(vpn) {
                    if write {
                        pte.perms.w = false;
                    }
                    if execute {
                        pte.perms.x = false;
                    }
                }
            }
        }
    }
    os.machine.tlb_shootdown(eid, vpn);
}

fn unprotect(os: &mut Os, eid: EnclaveId, vpn: Vpn, mode: TraceMode) {
    if let Ok(pt) = os.machine.page_table_mut(eid) {
        match mode {
            TraceMode::Unmap => {
                pt.set_present(vpn);
            }
            TraceMode::StripPermission { write, execute } => {
                if let Some(pte) = pt.get_mut(vpn) {
                    if write {
                        pte.perms.w = true;
                    }
                    if execute {
                        pte.perms.x = true;
                    }
                }
            }
        }
    }
}

impl Os {
    /// Arm a fault-tracing attack: unmap all target pages so the next
    /// access to each faults.
    ///
    /// The tracer is transition-granular: on a fault it restores the
    /// faulting page and re-protects the previously restored one. A data
    /// access that *straddles* two armed pages would make the replayed
    /// access ping-pong between the pair forever (the simulator replays
    /// whole accesses where real attacks single-step across the straddle,
    /// Xu et al., S&P 2015). The tracer detects that pattern — the
    /// faulting page is the one it just re-protected and the open page is
    /// its neighbour — and models the single-stepped outcome: both pages
    /// stay open until the next unrelated fault re-arms them, and no
    /// spurious transition enters the trace. Targets may therefore be
    /// armed at full density, data and code alike. Execute faults are
    /// exempt (an instruction fetch touches exactly one page), so code
    /// ping-pong traces at full fidelity. Tradeoff: a genuine immediate
    /// *data* ping-pong between two adjacent armed pages is
    /// indistinguishable from a straddle and collapses to one recorded
    /// transition.
    pub fn arm_fault_tracer(
        &mut self,
        eid: EnclaveId,
        targets: impl IntoIterator<Item = Vpn>,
    ) -> Result<(), crate::kernel::OsError> {
        self.arm_fault_tracer_mode(eid, targets, TraceMode::Unmap)
    }

    /// Arm a fault tracer with an explicit induction mode (unmap or
    /// permission stripping).
    pub fn arm_fault_tracer_mode(
        &mut self,
        eid: EnclaveId,
        targets: impl IntoIterator<Item = Vpn>,
        mode: TraceMode,
    ) -> Result<(), crate::kernel::OsError> {
        let tracer = FaultTracer::with_mode(eid, targets, mode);
        for &vpn in &tracer.targets {
            protect(self, eid, vpn, mode);
        }
        self.attacker = Attacker::FaultTracer(tracer);
        Ok(())
    }

    /// Arm an A/D-bit monitoring attack: clear the bits on all targets.
    pub fn arm_ad_monitor(
        &mut self,
        eid: EnclaveId,
        targets: impl IntoIterator<Item = Vpn>,
    ) -> Result<(), crate::kernel::OsError> {
        let monitor = AdMonitor::new(eid, targets);
        for &vpn in &monitor.targets {
            self.machine.page_table_mut(eid)?.clear_accessed_dirty(vpn);
            self.machine.tlb_shootdown(eid, vpn);
        }
        self.attacker = Attacker::AdMonitor(monitor);
        Ok(())
    }

    /// Disarm any attack, restoring target mappings so the victim can
    /// continue (used when a test wants the trace without a kill).
    pub fn disarm_attacker(&mut self) -> Attacker {
        let attacker = std::mem::replace(&mut self.attacker, Attacker::None);
        match &attacker {
            Attacker::FaultTracer(t) => {
                for &vpn in &t.targets {
                    unprotect(self, t.eid, vpn, t.mode);
                }
            }
            Attacker::AdMonitor(m) => {
                for &vpn in &m.targets {
                    if let Ok(pt) = self.machine.page_table_mut(m.eid) {
                        if let Some(pte) = pt.get_mut(vpn) {
                            pte.accessed = true;
                            pte.dirty = true;
                        }
                    }
                }
            }
            Attacker::None => {}
        }
        attacker
    }

    /// Attacker hook run on every fault delivered to the OS (called from
    /// `on_fault`, before benign handling).
    pub(crate) fn run_attacker_on_fault(&mut self, ev: FaultEvent) {
        let mut attacker = std::mem::replace(&mut self.attacker, Attacker::None);
        if let Attacker::FaultTracer(tracer) = &mut attacker {
            if tracer.eid == ev.eid {
                let vpn = ev.reported_va.vpn();
                let self_paging = self
                    .machine
                    .secs(ev.eid)
                    .map(|s| s.attributes.self_paging)
                    .unwrap_or(false);
                if self_paging {
                    // Masked report: the attacker cannot tell which page
                    // faulted, so the trace gains nothing.
                    tracer.masked_faults += 1;
                } else if tracer.targets.contains(&vpn) {
                    let mode = tracer.mode;
                    // Instruction fetches touch exactly one page, so an
                    // execute fault is always a genuine transition; only
                    // data accesses can straddle an adjacent pair.
                    let straddle = ev.reported_kind != AccessKind::Execute
                        && tracer.last_protected == Some(vpn)
                        && tracer.current.is_some_and(|cur| cur.0.abs_diff(vpn.0) == 1);
                    if straddle {
                        // One access is straddling an adjacent armed pair:
                        // we just re-protected this page and its neighbour
                        // is the open one. Leave both open so the replay
                        // completes (the single-stepped resolution), and
                        // record no spurious transition — the pair already
                        // entered the trace when it first faulted.
                        unprotect(self, ev.eid, vpn, mode);
                        if let Some(cur) = tracer.current {
                            tracer.open_pair = Some((vpn, cur));
                        }
                        tracer.last_protected = None;
                    } else {
                        tracer.trace.push(vpn);
                        // Restore the faulting page, re-protect the
                        // previously restored target(s) so the next
                        // transition faults too.
                        unprotect(self, ev.eid, vpn, mode);
                        if let Some((a, b)) = tracer.open_pair.take() {
                            for p in [a, b] {
                                if p != vpn {
                                    protect(self, ev.eid, p, mode);
                                    tracer.last_protected = Some(p);
                                }
                            }
                            tracer.current = Some(vpn);
                        } else if let Some(prev) = tracer.current.replace(vpn) {
                            if prev != vpn {
                                protect(self, ev.eid, prev, mode);
                                tracer.last_protected = Some(prev);
                            }
                        }
                    }
                }
            }
        }
        self.attacker = attacker;
    }

    /// Attacker poll (models the sibling-thread scanning PTEs): harvest
    /// freshly set A/D bits and re-clear them.
    ///
    /// Against an Autarky victim the bits never become set (the hardware
    /// faults instead of setting them), so the poll harvests nothing.
    pub fn attacker_poll(&mut self) {
        let mut attacker = std::mem::replace(&mut self.attacker, Attacker::None);
        if let Attacker::AdMonitor(monitor) = &mut attacker {
            let eid = monitor.eid;
            for &vpn in &monitor.targets {
                let hit = self
                    .machine
                    .page_table(eid)
                    .ok()
                    .and_then(|pt| pt.get(vpn))
                    .filter(|pte| pte.accessed || pte.dirty)
                    .map(|pte| pte.dirty);
                if let Some(dirty) = hit {
                    monitor.trace.push((vpn, dirty));
                    self.observe(Observation::AdBitObserved { eid, vpn, dirty });
                    if let Ok(pt) = self.machine.page_table_mut(eid) {
                        pt.clear_accessed_dirty(vpn);
                    }
                    self.machine.tlb_shootdown(eid, vpn);
                }
            }
        }
        self.attacker = attacker;
    }
}
