//! Cycle cost model and global cycle counter.
//!
//! Autarky's evaluation is expressed in CPU cycles (Figure 5) and in
//! throughput derived from run time. Because the simulator executes
//! functionally, all timing comes from this module: every architectural
//! event charges a fixed number of cycles taken from a [`CostModel`].
//!
//! The default constants are calibrated so that the *composition* of costs
//! reproduces the shapes reported in the paper:
//!
//! * enclave transitions dominate paging latency (40–50%, §7.1);
//! * SGXv2 software paging is more expensive than SGXv1 `EWB`/`ELDU`
//!   (Figure 5), because it performs in-enclave crypto plus extra
//!   `EACCEPT` round trips;
//! * the proposed AEX-elision optimization removes the preemption
//!   (`AEX`+`ERESUME`) and handler-invocation (`EENTER`+`EEXIT`) terms,
//!   making secure paging faster than unprotected paging (§7.1);
//! * the added Autarky hardware checks cost ~10 cycles per TLB fill and
//!   nothing elsewhere (§7, architecture-changes overhead).

/// Clock frequency used to convert cycles to seconds for throughput
/// reporting (3 GHz, a typical server/laptop turbo clock).
pub const CLOCK_HZ: u64 = 3_000_000_000;

/// Cycle costs of architectural events.
///
/// All values are in CPU cycles. The defaults approximate published SGX
/// microbenchmarks (enclave transitions of a few thousand cycles,
/// ~40k-cycle paging operations) and the paper's Figure 5 breakdown.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// `EENTER`: host-to-enclave transition.
    pub eenter: u64,
    /// `EEXIT`: enclave-to-host transition.
    pub eexit: u64,
    /// Asynchronous enclave exit: context save, TLB/L1 flush, exception
    /// delivery to the OS.
    pub aex: u64,
    /// `ERESUME`: restore the SSA context.
    pub eresume: u64,
    /// TLB hit (charged on every memory access).
    pub tlb_hit: u64,
    /// TLB miss: page-table walk plus EPCM check.
    pub tlb_fill: u64,
    /// Extra per-fill check added by Autarky (accessed/dirty-bit
    /// precondition), only charged for self-paging enclaves. The paper
    /// pessimistically assumes 10 cycles (§7).
    pub autarky_fill_check: u64,
    /// OS page-fault handler path (ring switch, handler dispatch).
    pub os_fault_handler: u64,
    /// OS system-call entry/exit (ring switch) for a synchronous syscall.
    pub syscall: u64,
    /// Exitless host call: spinlock handoff to an untrusted helper thread
    /// (no enclave transition), as in Eleos/SCONE/Graphene exitless mode.
    pub exitless_call: u64,
    /// `EWB`: evict one EPC page (includes hardware en/crypt + VA update).
    pub ewb_page: u64,
    /// `ELDU`: reload one EPC page (includes decrypt + verification).
    pub eldu_page: u64,
    /// `EAUG`: add a pending page (SGXv2).
    pub eaug: u64,
    /// `EACCEPT` / `EACCEPTCOPY`: in-enclave page-change confirmation.
    pub eaccept: u64,
    /// `EMODPR` / `EMODT`: permission / type modification.
    pub emod: u64,
    /// `EREMOVE`: free an EPC page.
    pub eremove: u64,
    /// `EBLOCK` + `ETRACK` + IPI/TLB-shootdown, amortized per evicted page.
    pub shootdown_page: u64,
    /// Software crypto cost per byte (SGXv2 path encrypts/decrypts page
    /// contents inside the enclave with AES-NI; we charge ~1 cycle/byte).
    pub sw_crypto_per_byte: u64,
    /// Per-page bookkeeping in the Autarky runtime fault handler.
    pub runtime_handler: u64,
    /// Cost charged per byte for an oblivious (CMOV-based) copy.
    pub oblivious_copy_per_byte: u64,
    /// Plain in-enclave memory copy cost per byte.
    pub memcpy_per_byte: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            eenter: 3_500,
            eexit: 3_300,
            aex: 4_200,
            eresume: 3_800,
            tlb_hit: 1,
            tlb_fill: 40,
            autarky_fill_check: 10,
            os_fault_handler: 1_500,
            syscall: 1_200,
            exitless_call: 600,
            ewb_page: 10_000,
            eldu_page: 10_000,
            eaug: 1_800,
            eaccept: 1_500,
            emod: 1_200,
            eremove: 900,
            shootdown_page: 500,
            sw_crypto_per_byte: 2,
            runtime_handler: 700,
            oblivious_copy_per_byte: 4,
            memcpy_per_byte: 1,
        }
    }
}

impl CostModel {
    /// *Analytical* cost of the handler-invocation hop (`EENTER`+`EEXIT`)
    /// that the OS performs to upcall the enclave's fault handler.
    ///
    /// This is a reference sum, not a charge site: the actual charges
    /// happen once each inside `Machine::eenter`/`Machine::eexit`, tagged
    /// [`CostTag::HandlerInvocation`]. Measurement code should read
    /// [`Clock::tag_total`] so reported breakdowns can never drift from
    /// what was actually charged.
    pub fn handler_invocation(&self) -> u64 {
        self.eenter + self.eexit
    }

    /// *Analytical* cost of enclave preemption (`AEX` + `ERESUME`).
    ///
    /// Like [`CostModel::handler_invocation`], a reference sum only; the
    /// single charge sites live in `Machine::fault`/`Machine::eresume`
    /// under [`CostTag::Preemption`].
    pub fn preemption(&self) -> u64 {
        self.aex + self.eresume
    }
}

/// Category a cycle charge is attributed to.
///
/// Every [`Clock::charge_tagged`] call site picks exactly one tag, and
/// each architectural event has exactly one charge site, so per-tag
/// totals are a complete, non-overlapping decomposition of
/// [`Clock::now`]. Latency breakdowns (Figure 5, the telemetry report)
/// are *derived* from these totals instead of re-multiplying `CostModel`
/// constants — one source of truth, no possibility of drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum CostTag {
    /// `AEX` + `ERESUME`: enclave preemption.
    Preemption = 0,
    /// `EENTER` + `EEXIT`: fault-handler invocation hop.
    HandlerInvocation = 1,
    /// Autarky runtime bookkeeping (handler work, retry backoff).
    Runtime = 2,
    /// OS kernel work (fault dispatch, ring switches outside syscalls).
    OsKernel = 3,
    /// Syscall / exitless-call transitions into the OS.
    Syscall = 4,
    /// SGX paging instructions (`EWB`, `ELDU`, `EAUG`, `EACCEPT*`,
    /// `EMOD*`, `EREMOVE`, shootdowns).
    Paging = 5,
    /// Address translation (TLB hits, fills, Autarky's fill check).
    Translation = 6,
    /// Software crypto on the SGXv2 seal/open path.
    Crypto = 7,
    /// ORAM data-path work (bucket I/O, oblivious scans).
    Oram = 8,
    /// Delays injected by the hostile-OS fault injector.
    Injected = 9,
    /// Uncategorized (plain `Clock::charge`, data copies).
    Other = 10,
    /// Flight-recorder event capture: the recorder's own observer effect,
    /// charged per recorded event so record/replay artifacts account for
    /// the cycles the instrumentation itself consumed.
    Recorder = 11,
}

/// Number of [`CostTag`] categories.
pub const COST_TAGS: usize = 12;

impl CostTag {
    /// All tags, in discriminant order.
    pub const ALL: [CostTag; COST_TAGS] = [
        CostTag::Preemption,
        CostTag::HandlerInvocation,
        CostTag::Runtime,
        CostTag::OsKernel,
        CostTag::Syscall,
        CostTag::Paging,
        CostTag::Translation,
        CostTag::Crypto,
        CostTag::Oram,
        CostTag::Injected,
        CostTag::Other,
        CostTag::Recorder,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            CostTag::Preemption => "preemption",
            CostTag::HandlerInvocation => "handler_invocation",
            CostTag::Runtime => "runtime",
            CostTag::OsKernel => "os_kernel",
            CostTag::Syscall => "syscall",
            CostTag::Paging => "paging",
            CostTag::Translation => "translation",
            CostTag::Crypto => "crypto",
            CostTag::Oram => "oram",
            CostTag::Injected => "injected",
            CostTag::Other => "other",
            CostTag::Recorder => "recorder",
        }
    }
}

/// One journaled cycle charge: the clock value *after* the charge
/// landed, the tag it was attributed to, and the amount.
///
/// The half-open interval `(at - amount, at]` is exactly the stretch of
/// simulated time this charge advanced the clock through, which is what
/// lets a profiler place a charge inside (or outside) a span or
/// correlation-chain window without ambiguity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChargeRecord {
    /// Clock value immediately after the charge.
    pub at: u64,
    /// Attribution tag.
    pub tag: CostTag,
    /// Cycles charged.
    pub amount: u64,
}

/// Bounded per-charge journal (armed only while a host-side profiler is
/// collecting). New records are dropped once `capacity` is reached —
/// the same drop-new policy as the telemetry span ring — and counted,
/// so a profiler can refuse to attribute from a truncated journal
/// instead of silently under-reporting.
#[derive(Debug, Clone, Default)]
struct ChargeJournal {
    entries: Vec<ChargeRecord>,
    capacity: usize,
    dropped: u64,
}

impl ChargeJournal {
    fn push(&mut self, record: ChargeRecord) {
        if self.entries.len() < self.capacity {
            self.entries.push(record);
        } else {
            self.dropped += 1;
        }
    }
}

/// A monotonically increasing cycle counter shared by the whole machine,
/// with per-[`CostTag`] attribution.
#[derive(Debug, Default, Clone)]
pub struct Clock {
    cycles: u64,
    tagged: [u64; COST_TAGS],
    journal: Option<ChargeJournal>,
}

impl Clock {
    /// Create a clock at cycle zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reconstruct a clock from previously captured totals (checkpoint
    /// restore). The per-tag totals must partition `cycles` exactly, as
    /// produced by [`Clock::now`] + [`Clock::tag_totals`].
    pub fn from_parts(cycles: u64, tagged: [u64; COST_TAGS]) -> Self {
        Self {
            cycles,
            tagged,
            journal: None,
        }
    }

    /// Charge `cycles` cycles, attributed to [`CostTag::Other`].
    pub fn charge(&mut self, cycles: u64) {
        self.charge_tagged(CostTag::Other, cycles);
    }

    /// Charge `cycles` cycles attributed to `tag`.
    pub fn charge_tagged(&mut self, tag: CostTag, cycles: u64) {
        self.cycles = self.cycles.wrapping_add(cycles);
        self.tagged[tag as usize] = self.tagged[tag as usize].wrapping_add(cycles);
        if cycles > 0 {
            if let Some(journal) = self.journal.as_mut() {
                journal.push(ChargeRecord {
                    at: self.cycles,
                    tag,
                    amount: cycles,
                });
            }
        }
    }

    /// Arm the per-charge journal with room for `capacity` records.
    ///
    /// This is the profiler's cost-ledger export hook: while armed,
    /// every non-zero [`Clock::charge_tagged`] appends one
    /// [`ChargeRecord`], so a host-side observer can reconstruct *when*
    /// each tagged cycle landed, not just the per-tag totals. Zero-cycle
    /// charges are skipped — they advance nothing and would only consume
    /// journal slots. Re-arming discards any previously journaled
    /// records.
    pub fn arm_charge_journal(&mut self, capacity: usize) {
        self.journal = Some(ChargeJournal {
            entries: Vec::new(),
            capacity,
            dropped: 0,
        });
    }

    /// Whether the charge journal is armed.
    pub fn charge_journal_armed(&self) -> bool {
        self.journal.is_some()
    }

    /// Disarm the journal and return `(records, dropped)`: everything
    /// journaled since arming plus the count of records lost to the
    /// capacity bound. Returns `None` if the journal was never armed.
    pub fn disarm_charge_journal(&mut self) -> Option<(Vec<ChargeRecord>, u64)> {
        self.journal.take().map(|j| (j.entries, j.dropped))
    }

    /// Total cycles attributed to `tag` so far.
    pub fn tag_total(&self, tag: CostTag) -> u64 {
        self.tagged[tag as usize]
    }

    /// All per-tag totals, indexed by discriminant.
    pub fn tag_totals(&self) -> [u64; COST_TAGS] {
        self.tagged
    }

    /// Current cycle count.
    pub fn now(&self) -> u64 {
        self.cycles
    }

    /// Elapsed cycles since `start`.
    pub fn since(&self, start: u64) -> u64 {
        self.cycles.wrapping_sub(start)
    }

    /// Convert a cycle count to seconds at [`CLOCK_HZ`].
    pub fn cycles_to_secs(cycles: u64) -> f64 {
        cycles as f64 / CLOCK_HZ as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_accumulates() {
        let mut clock = Clock::new();
        assert_eq!(clock.now(), 0);
        clock.charge(10);
        clock.charge(5);
        assert_eq!(clock.now(), 15);
        assert_eq!(clock.since(10), 5);
    }

    #[test]
    fn tagged_charges_decompose_the_total() {
        let mut clock = Clock::new();
        clock.charge_tagged(CostTag::Preemption, 100);
        clock.charge_tagged(CostTag::Paging, 40);
        clock.charge(3); // Other
        assert_eq!(clock.now(), 143);
        assert_eq!(clock.tag_total(CostTag::Preemption), 100);
        assert_eq!(clock.tag_total(CostTag::Paging), 40);
        assert_eq!(clock.tag_total(CostTag::Other), 3);
        let sum: u64 = clock.tag_totals().iter().sum();
        assert_eq!(sum, clock.now(), "tags partition the clock exactly");
    }

    #[test]
    fn tag_names_are_unique() {
        let names: autarky_prng::SimSet<&str> = CostTag::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(names.len(), COST_TAGS);
        for (i, tag) in CostTag::ALL.iter().enumerate() {
            assert_eq!(*tag as usize, i);
        }
    }

    #[test]
    fn default_costs_have_paper_shape() {
        let costs = CostModel::default();
        // Transitions must account for roughly 40-50% of a ~20-30k cycle
        // paging operation (Figure 5).
        let transitions = costs.preemption() + costs.handler_invocation();
        let sgx1_fault = transitions + costs.runtime_handler + costs.eldu_page + costs.syscall;
        let frac = transitions as f64 / sgx1_fault as f64;
        assert!(
            (0.4..=0.9).contains(&frac),
            "transition fraction {frac} out of expected range"
        );
        // Autarky's fill check must be tiny relative to a fill.
        assert!(costs.autarky_fill_check <= costs.tlb_fill);
    }

    #[test]
    fn cycles_to_secs() {
        assert!((Clock::cycles_to_secs(CLOCK_HZ) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn charge_journal_records_every_nonzero_charge() {
        let mut clock = Clock::new();
        clock.charge_tagged(CostTag::Paging, 7); // before arming: not journaled
        clock.arm_charge_journal(16);
        assert!(clock.charge_journal_armed());
        clock.charge_tagged(CostTag::Preemption, 100);
        clock.charge_tagged(CostTag::Translation, 0); // zero: skipped
        clock.charge(3);
        let (records, dropped) = clock.disarm_charge_journal().expect("armed");
        assert_eq!(dropped, 0);
        assert_eq!(
            records,
            vec![
                ChargeRecord {
                    at: 107,
                    tag: CostTag::Preemption,
                    amount: 100
                },
                ChargeRecord {
                    at: 110,
                    tag: CostTag::Other,
                    amount: 3
                },
            ]
        );
        assert!(!clock.charge_journal_armed());
        assert!(clock.disarm_charge_journal().is_none());
    }

    #[test]
    fn charge_journal_drops_new_records_when_full() {
        let mut clock = Clock::new();
        clock.arm_charge_journal(2);
        for _ in 0..5 {
            clock.charge_tagged(CostTag::Oram, 10);
        }
        let (records, dropped) = clock.disarm_charge_journal().expect("armed");
        assert_eq!(records.len(), 2, "retained prefix is deterministic");
        assert_eq!(dropped, 3);
        // The ledger totals are unaffected by journaling.
        assert_eq!(clock.tag_total(CostTag::Oram), 50);
        assert_eq!(clock.now(), 50);
    }
}
