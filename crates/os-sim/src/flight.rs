//! Causal flight recorder: one event log spanning both trust domains.
//!
//! The paper's security argument (§5, §6) is about *sequences* of
//! enclave↔OS interactions — an AEX, the blocked `ERESUME`, the re-entry
//! through the trusted handler, the batched driver call it issues, the
//! injected fault that perturbed it. Telemetry aggregates (per-epoch
//! counters) and the adversary's flat observation stream each see only
//! one endpoint of those interactions. The flight recorder stitches them
//! together:
//!
//! * **untrusted-side events** — enclave transitions drained from the
//!   `sgx-sim` machine ([`FlightEvent::Transition`]) and every kernel
//!   observation ([`FlightEvent::Kernel`]), injected faults included;
//! * **trusted-side events** — fault-handler entry, paging-policy
//!   decisions, retry/backoff, misbehavior-budget debits, degradation
//!   steps, `AttackDetected` verdicts, and telemetry span closures
//!   emitted by the runtime.
//!
//! Every record carries a **correlation id** (`corr`): the kernel fault
//! path opens a chain before it logs the provoking observation, the
//! runtime closes it once the handler round trip completes, and every
//! event recorded in between — hardware transitions, syscalls, decisions,
//! span closures — inherits the chain id. Reconstruction
//! ([`chain_root`], [`render_timeline`], [`causal_root_of_attack`]) then
//! resolves each runtime decision back to the kernel observation that
//! provoked it.
//!
//! Recording is **off by default** and charged when armed: each record
//! debits [`CostTag::Recorder`] cycles on the machine clock, so the
//! recorder's own observer effect is measured instead of silently
//! perturbing the timeline. Because record and replay arm identically,
//! the charge is deterministic and bit-identical replays still hold.

use std::collections::VecDeque;

use autarky_sgx_sim::machine::TransitionKind;
use autarky_sgx_sim::{CostTag, EnclaveId, Vpn};
use autarky_telemetry::SpanRecord;

use crate::kernel::Observation;

/// Simulated cycles charged (as [`CostTag::Recorder`]) per recorded
/// event: a store to a preallocated ring plus a sequence-number bump.
pub const RECORD_COST_CYCLES: u64 = 25;

/// Correlation id meaning "not part of any chain".
pub const CORR_NONE: u64 = 0;

/// One event in the unified log.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightEvent {
    /// Hardware enclave transition (drained from the machine's log).
    Transition {
        /// What happened (`EENTER`, AEX, blocked resume, ...).
        kind: TransitionKind,
        /// Enclave involved.
        eid: EnclaveId,
        /// TCS slot involved.
        tcs: usize,
    },
    /// An adversary-visible kernel observation, verbatim (faults, driver
    /// syscalls, injected faults, A/D-bit polls, ...).
    Kernel(Observation),
    /// The trusted fault handler took control for this (true) faulting
    /// page — the unmasked address only the enclave knows.
    HandlerEntry {
        /// Enclave whose handler ran.
        eid: EnclaveId,
        /// True faulting page (pre-masking).
        vpn: Vpn,
    },
    /// Policy decision: fetch exactly the faulting page (no cluster).
    DecisionForward {
        /// Page being fetched.
        vpn: Vpn,
    },
    /// Policy decision: fetch the faulting page's whole cluster / ORAM
    /// fetch set (the anonymity set widening of §5.2.2).
    DecisionClusterFetch {
        /// Faulting page that triggered the fetch.
        vpn: Vpn,
        /// Full fetch set handed to the driver.
        pages: Vec<Vpn>,
    },
    /// Policy decision: evict these pages to make room.
    DecisionEvict {
        /// Victim set handed to the driver.
        pages: Vec<Vpn>,
    },
    /// A transient driver failure triggered a retry with backoff.
    Retry {
        /// 1-based retry attempt.
        attempt: u64,
        /// Backoff charged before the retry, in cycles.
        backoff_cycles: u64,
    },
    /// A misbehavior-budget debit (suspected OS contract violation).
    Misbehavior {
        /// Page implicated in the violation.
        vpn: Vpn,
        /// Debits consumed so far (including this one).
        used: u64,
        /// Total budget before termination.
        budget: u64,
        /// Why the runtime grew suspicious.
        why: &'static str,
    },
    /// Self-defense degradation: the runtime shrank its paging appetite.
    Degrade {
        /// Budget (pages) before the step.
        from: u64,
        /// Budget (pages) after the step.
        to: u64,
    },
    /// The runtime concluded it is under attack and terminated.
    AttackDetected {
        /// Page implicated in the verdict.
        vpn: Vpn,
        /// The verdict's reason string.
        why: &'static str,
    },
    /// The fault-rate limiter tripped and killed the enclave.
    RateLimitKill,
    /// A sealed checkpoint of the enclave was captured (the platform
    /// monotonic counter was bumped to this value as part of sealing).
    SnapshotCapture {
        /// Counter value sealed into the snapshot.
        counter: u64,
    },
    /// A sealed checkpoint was presented for restore. Only recorded when
    /// the restore *fails* (freshness or integrity violation): a
    /// successful restore is architecturally invisible — the machine was
    /// simply off — and recording it would break byte-identical
    /// continuation.
    SnapshotRestore {
        /// Counter value sealed inside the presented snapshot.
        counter: u64,
    },
    /// A fleet-supervisor decision about one enclave of a rotation
    /// (escalation-ladder step, admission-control shed, degradation
    /// order). Recorded in the same causal log as runtime decisions so a
    /// forensics pass can name *why* an enclave was restarted, but it is
    /// NOT a trusted-runtime decision: the supervisor lives in the
    /// untrusted host, so `is_runtime_decision()` excludes it and the
    /// decisions-resolved forensics gate is unaffected.
    Supervisor {
        /// Fleet member the decision is about.
        eid: EnclaveId,
        /// Ladder step or control action, as a single lowercase token
        /// (e.g. `retry`, `quarantine`, `restart`, `evict`, `shed`,
        /// `shrink`).
        action: &'static str,
        /// Free-text reason (health verdict, budget numbers, ...).
        why: String,
    },
    /// A telemetry span closed: its kind and exact cycle bracket. This
    /// is the only record of individual spans (the telemetry keeps only
    /// per-kind aggregates), so timelines, traces, and the profiler all
    /// read spans from here.
    SpanClose(SpanRecord),
    /// An online detector in the watchtower fired. Like [`Supervisor`],
    /// this is an *untrusted host-side* event — the watchtower observes
    /// only adversary-visible signals (request service times) — so
    /// `is_runtime_decision()` excludes it. It is a first-class verdict
    /// for causal forensics, though: [`causal_root_of_attack`] resolves
    /// the latest alert to the injected fault that provoked it, as it
    /// does for the runtime's own `AttackDetected`.
    ///
    /// [`Supervisor`]: FlightEvent::Supervisor
    WatchAlert {
        /// Fleet member the detector fired for.
        eid: EnclaveId,
        /// Detector name, a single lowercase token (`slo_burn`).
        detector: &'static str,
        /// Index of the epoch window that tripped the detector.
        window: u64,
        /// Detector score at firing, in milli-units (integer so alert
        /// artifacts stay byte-stable across platforms).
        score_milli: u64,
        /// Human-readable firing reason (thresholds and observed value).
        why: String,
    },
}

impl FlightEvent {
    /// Trust domain the event originates from: `"hw"` (architectural
    /// transitions), `"os"` (kernel observations), `"fleet"` (untrusted
    /// supervisor decisions), `"watch"` (untrusted streaming-detector
    /// alerts), or `"enclave"` (trusted-runtime decisions).
    pub fn domain(&self) -> &'static str {
        match self {
            FlightEvent::Transition { .. } => "hw",
            FlightEvent::Kernel(_) => "os",
            FlightEvent::Supervisor { .. } => "fleet",
            FlightEvent::WatchAlert { .. } => "watch",
            _ => "enclave",
        }
    }

    /// Whether this is a trusted-runtime decision (the events the
    /// forensics timeline must resolve to a provoking observation).
    pub fn is_runtime_decision(&self) -> bool {
        matches!(
            self,
            FlightEvent::DecisionForward { .. }
                | FlightEvent::DecisionClusterFetch { .. }
                | FlightEvent::DecisionEvict { .. }
                | FlightEvent::Retry { .. }
                | FlightEvent::Misbehavior { .. }
                | FlightEvent::Degrade { .. }
                | FlightEvent::AttackDetected { .. }
                | FlightEvent::RateLimitKill
        )
    }

    /// One-line human description (forensics timeline cell).
    pub fn describe(&self) -> String {
        match self {
            FlightEvent::Transition { kind, eid, tcs } => {
                format!("{} eid={} tcs={}", kind.name(), eid.0, tcs)
            }
            FlightEvent::Kernel(obs) => describe_observation(obs),
            FlightEvent::HandlerEntry { eid, vpn } => {
                format!("handler entry eid={} true-vpn={}", eid.0, vpn.0)
            }
            FlightEvent::DecisionForward { vpn } => {
                format!("decision: forward-fetch vpn={}", vpn.0)
            }
            FlightEvent::DecisionClusterFetch { vpn, pages } => format!(
                "decision: cluster-fetch vpn={} set={{{} pages}}",
                vpn.0,
                pages.len()
            ),
            FlightEvent::DecisionEvict { pages } => {
                format!("decision: evict {{{} pages}}", pages.len())
            }
            FlightEvent::Retry {
                attempt,
                backoff_cycles,
            } => format!("retry attempt={attempt} backoff={backoff_cycles}cy"),
            FlightEvent::Misbehavior {
                vpn,
                used,
                budget,
                why,
            } => format!("misbehavior debit {used}/{budget} vpn={} ({why})", vpn.0),
            FlightEvent::Degrade { from, to } => {
                format!("degrade paging budget {from} -> {to} pages")
            }
            FlightEvent::AttackDetected { vpn, why } => {
                format!("ATTACK DETECTED vpn={} ({why})", vpn.0)
            }
            FlightEvent::RateLimitKill => "rate limiter tripped: enclave killed".to_owned(),
            FlightEvent::SnapshotCapture { counter } => {
                format!("snapshot captured (counter bumped to {counter})")
            }
            FlightEvent::SnapshotRestore { counter } => {
                format!("snapshot restore attempted (sealed counter {counter})")
            }
            FlightEvent::Supervisor { eid, action, why } => {
                format!("supervisor: {action} eid={} ({why})", eid.0)
            }
            FlightEvent::SpanClose(span) => {
                format!(
                    "span {} closed ({} cycles)",
                    span.kind.name(),
                    span.duration()
                )
            }
            FlightEvent::WatchAlert {
                eid,
                detector,
                window,
                score_milli,
                why,
            } => format!(
                "WATCH ALERT {detector} eid={} window={window} score={score_milli}m ({why})",
                eid.0
            ),
        }
    }
}

fn describe_observation(obs: &Observation) -> String {
    match obs {
        Observation::Fault { eid, va, kind } => {
            format!("kernel: fault eid={} va={:#x} kind={kind:?}", eid.0, va.0)
        }
        Observation::FetchSyscall { eid, pages } => {
            format!("kernel: ay_fetch eid={} {{{} pages}}", eid.0, pages.len())
        }
        Observation::EvictSyscall { eid, pages } => {
            format!("kernel: ay_evict eid={} {{{} pages}}", eid.0, pages.len())
        }
        Observation::AllocSyscall { eid, pages } => {
            format!("kernel: ay_alloc eid={} {{{} pages}}", eid.0, pages.len())
        }
        Observation::SetEnclaveManaged { eid, pages } => format!(
            "kernel: set-enclave-managed eid={} {{{} pages}}",
            eid.0,
            pages.len()
        ),
        Observation::SetOsManaged { eid, pages } => format!(
            "kernel: set-os-managed eid={} {{{} pages}}",
            eid.0,
            pages.len()
        ),
        Observation::UntrustedAccess { key, write } => format!(
            "kernel: untrusted {} key={key}",
            if *write { "write" } else { "read" }
        ),
        Observation::DemandPaging { eid, vpn } => {
            format!("kernel: demand-paging eid={} vpn={}", eid.0, vpn.0)
        }
        Observation::AdBitObserved { eid, vpn, dirty } => format!(
            "kernel: a/d-bit poll eid={} vpn={} dirty={dirty}",
            eid.0, vpn.0
        ),
        Observation::FaultInjected { eid, fault } => {
            format!("kernel: INJECTED FAULT eid={} {fault:?}", eid.0)
        }
    }
}

/// One record in the causally-ordered log.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Monotonic sequence number (never reused, survives ring overflow).
    pub seq: u64,
    /// Simulated-cycle timestamp when the event was recorded.
    pub cycles: u64,
    /// Correlation chain id ([`CORR_NONE`] when outside any chain).
    pub corr: u64,
    /// The event itself.
    pub event: FlightEvent,
}

/// Bounded, overwrite-oldest event ring plus the correlation-chain state.
///
/// A flight recorder exists for post-mortems: the *latest* events before
/// a crash or verdict matter, so on overflow the oldest record is dropped
/// and counted.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    records: VecDeque<FlightRecord>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    current_corr: u64,
    next_corr: u64,
}

impl FlightRecorder {
    /// Create a recorder retaining up to `capacity` records.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            records: VecDeque::with_capacity(capacity),
            capacity,
            next_seq: 0,
            dropped: 0,
            current_corr: CORR_NONE,
            next_corr: 1,
        }
    }

    /// Append an event at simulated time `cycles`, stamping it with the
    /// next sequence number and the active correlation chain.
    pub fn record(&mut self, cycles: u64, event: FlightEvent) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(FlightRecord {
            seq: self.next_seq,
            cycles,
            corr: self.current_corr,
            event,
        });
        self.next_seq += 1;
    }

    /// Open a new correlation chain (replacing any active one) and return
    /// its id. The caller records the provoking event *after* this, so
    /// the chain root is the provocation itself.
    pub fn begin_chain(&mut self) -> u64 {
        self.current_corr = self.next_corr;
        self.next_corr += 1;
        self.current_corr
    }

    /// Close the active chain; subsequent records are uncorrelated.
    pub fn end_chain(&mut self) {
        self.current_corr = CORR_NONE;
    }

    /// Whether a chain is currently open.
    pub fn chain_active(&self) -> bool {
        self.current_corr != CORR_NONE
    }

    /// The active chain id ([`CORR_NONE`] when idle).
    pub fn current_corr(&self) -> u64 {
        self.current_corr
    }

    /// Retained records, oldest first.
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        self.records.iter().cloned().collect()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records lost to ring overflow (oldest-dropped).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Cycle cost to charge per recorded event.
    pub fn record_cost(&self) -> (CostTag, u64) {
        (CostTag::Recorder, RECORD_COST_CYCLES)
    }
}

// ----------------------------------------------------------------
// Reconstruction: chains, causal roots, and the forensics timeline.
// ----------------------------------------------------------------

/// All records belonging to chain `corr`, in log order.
pub fn chain_records(records: &[FlightRecord], corr: u64) -> Vec<&FlightRecord> {
    if corr == CORR_NONE {
        return Vec::new();
    }
    records.iter().filter(|r| r.corr == corr).collect()
}

/// The chain's root: the first *kernel observation* recorded under
/// `corr` (the provocation), falling back to the chain's first record
/// when the chain was opened by a direct runtime entry point with no
/// kernel provocation.
pub fn chain_root(records: &[FlightRecord], corr: u64) -> Option<&FlightRecord> {
    let chain = chain_records(records, corr);
    chain
        .iter()
        .find(|r| matches!(r.event, FlightEvent::Kernel(_)))
        .copied()
        .or(chain.first().copied())
}

fn injected_vpn(fault: &crate::fault::InjectedFault) -> Option<Vpn> {
    use crate::fault::InjectedFault;
    match fault {
        InjectedFault::SpuriousEvict { vpn }
        | InjectedFault::CorruptBacking { vpn }
        | InjectedFault::ReplayBacking { vpn } => Some(*vpn),
        _ => None,
    }
}

fn is_injection(record: &FlightRecord) -> bool {
    matches!(
        record.event,
        FlightEvent::Kernel(Observation::FaultInjected { .. })
    )
}

/// For the last attack verdict in the log — the runtime's own
/// `AttackDetected` or a watchtower `WatchAlert` — find the injected
/// fault that caused it: first an injection inside the verdict's own
/// correlation chain, else the most recent prior injection — for an
/// `AttackDetected`, preferring one that names the same page (a
/// spurious eviction surfaces as a fault only when the page is next
/// touched, typically in a *later* chain).
///
/// Returns `(verdict_record, injection_record)`; `None` when the log
/// holds no verdict or no injection preceding it.
pub fn causal_root_of_attack(records: &[FlightRecord]) -> Option<(&FlightRecord, &FlightRecord)> {
    let (attack_idx, attack) = records.iter().enumerate().rev().find(|(_, r)| {
        matches!(
            r.event,
            FlightEvent::AttackDetected { .. } | FlightEvent::WatchAlert { .. }
        )
    })?;
    let attack_vpn = match &attack.event {
        FlightEvent::AttackDetected { vpn, .. } => Some(*vpn),
        FlightEvent::WatchAlert { .. } => None,
        _ => return None,
    };
    // Inside the verdict's own chain first.
    if attack.corr != CORR_NONE {
        if let Some(inj) = records[..attack_idx]
            .iter()
            .rev()
            .find(|r| r.corr == attack.corr && is_injection(r))
        {
            return Some((attack, inj));
        }
    }
    // Else the latest prior injection naming the same page, else the
    // latest prior injection of any kind.
    let prior: Vec<&FlightRecord> = records[..attack_idx]
        .iter()
        .filter(|r| is_injection(r))
        .collect();
    let same_page = prior.iter().rev().find(|r| match &r.event {
        FlightEvent::Kernel(Observation::FaultInjected { fault, .. }) => {
            attack_vpn.is_some() && injected_vpn(fault) == attack_vpn
        }
        _ => false,
    });
    same_page.or(prior.last()).map(|inj| (attack, *inj))
}

/// Render a markdown post-mortem: the last `last_n` events as a table,
/// every runtime decision in the window resolved to its chain root, and
/// — when the log ends in an `AttackDetected` verdict — the injected
/// fault identified as the causal root.
pub fn render_timeline(records: &[FlightRecord], last_n: usize) -> String {
    let window_start = records.len().saturating_sub(last_n);
    let window = &records[window_start..];
    let mut out = String::new();
    out.push_str("# Flight-recorder post-mortem\n\n");
    out.push_str(&format!(
        "{} events total, showing the last {}.\n\n",
        records.len(),
        window.len()
    ));
    out.push_str(&timeline_table(window));

    out.push_str("\n## Correlation chains\n\n");
    let mut any = false;
    for r in window.iter().filter(|r| r.event.is_runtime_decision()) {
        any = true;
        match chain_root(records, r.corr) {
            Some(root) if root.seq != r.seq => out.push_str(&format!(
                "- seq {} ({}) ← provoked by seq {} ({})\n",
                r.seq,
                r.event.describe(),
                root.seq,
                root.event.describe()
            )),
            Some(_) => out.push_str(&format!(
                "- seq {} ({}) ← chain root itself (direct runtime entry)\n",
                r.seq,
                r.event.describe()
            )),
            None => out.push_str(&format!(
                "- seq {} ({}) ← UNRESOLVED (no correlation chain)\n",
                r.seq,
                r.event.describe()
            )),
        }
    }
    if !any {
        out.push_str("(no runtime decisions in the window)\n");
    }

    if let Some((attack, inj)) = causal_root_of_attack(records) {
        out.push_str("\n## Causal root of the attack verdict\n\n");
        out.push_str(&format!(
            "- verdict: seq {} ({})\n- causal root: seq {} ({})\n",
            attack.seq,
            attack.event.describe(),
            inj.seq,
            inj.event.describe()
        ));
    }
    out
}

/// `records` as a markdown table, one `| seq | cycles | corr | domain |
/// event |` row each (the post-mortem timeline's shape).
pub fn timeline_table<'a>(records: impl IntoIterator<Item = &'a FlightRecord>) -> String {
    let mut out = String::from("| seq | cycles | corr | domain | event |\n");
    out.push_str("|----:|-------:|-----:|:------|:------|\n");
    for r in records {
        let corr = if r.corr == CORR_NONE {
            "-".to_owned()
        } else {
            r.corr.to_string()
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            r.seq,
            r.cycles,
            corr,
            r.event.domain(),
            r.event.describe()
        ));
    }
    out
}

/// Whether every runtime decision in the last `last_n` events resolves
/// to a chain root (used by the forensics acceptance check).
pub fn decisions_resolved(records: &[FlightRecord], last_n: usize) -> bool {
    let window_start = records.len().saturating_sub(last_n);
    records[window_start..]
        .iter()
        .filter(|r| r.event.is_runtime_decision())
        .all(|r| chain_root(records, r.corr).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use autarky_sgx_sim::{AccessKind, Va};

    fn kernel_fault(eid: u32) -> FlightEvent {
        FlightEvent::Kernel(Observation::Fault {
            eid: EnclaveId(eid),
            va: Va(0),
            kind: AccessKind::Read,
        })
    }

    #[test]
    fn seq_and_corr_stamping() {
        let mut rec = FlightRecorder::new(16);
        rec.record(10, FlightEvent::RateLimitKill);
        let c = rec.begin_chain();
        assert_ne!(c, CORR_NONE);
        rec.record(20, kernel_fault(1));
        rec.record(30, FlightEvent::DecisionForward { vpn: Vpn(5) });
        rec.end_chain();
        rec.record(40, FlightEvent::RateLimitKill);
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap[0].corr, CORR_NONE);
        assert_eq!(snap[1].corr, c);
        assert_eq!(snap[2].corr, c);
        assert_eq!(snap[3].corr, CORR_NONE);
        assert_eq!(
            snap.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut rec = FlightRecorder::new(2);
        for i in 0..5 {
            rec.record(i, FlightEvent::RateLimitKill);
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 3);
        let snap = rec.snapshot();
        // The latest records are retained (post-mortem semantics).
        assert_eq!(snap[0].seq, 3);
        assert_eq!(snap[1].seq, 4);
    }

    #[test]
    fn chain_root_prefers_kernel_event() {
        let mut rec = FlightRecorder::new(16);
        let c = rec.begin_chain();
        rec.record(
            5,
            FlightEvent::Transition {
                kind: TransitionKind::Aex,
                eid: EnclaveId(1),
                tcs: 0,
            },
        );
        rec.record(10, kernel_fault(1));
        rec.record(20, FlightEvent::DecisionForward { vpn: Vpn(7) });
        let snap = rec.snapshot();
        let root = chain_root(&snap, c).expect("root");
        assert!(matches!(root.event, FlightEvent::Kernel(_)));
        assert!(decisions_resolved(&snap, 50));
    }

    #[test]
    fn attack_causal_root_finds_same_page_injection() {
        let mut rec = FlightRecorder::new(64);
        // Chain 1: an injected spurious eviction of page 9.
        rec.begin_chain();
        rec.record(
            10,
            FlightEvent::Kernel(Observation::FaultInjected {
                eid: EnclaveId(1),
                fault: crate::fault::InjectedFault::SpuriousEvict { vpn: Vpn(9) },
            }),
        );
        rec.end_chain();
        // Chain 2: an unrelated injection, then the verdict on page 9.
        rec.begin_chain();
        rec.record(
            20,
            FlightEvent::Kernel(Observation::FaultInjected {
                eid: EnclaveId(1),
                fault: crate::fault::InjectedFault::TransientNoMemory,
            }),
        );
        rec.end_chain();
        rec.begin_chain();
        rec.record(30, kernel_fault(1));
        rec.record(
            40,
            FlightEvent::AttackDetected {
                vpn: Vpn(9),
                why: "unexpected fault on resident enclave-managed page",
            },
        );
        let snap = rec.snapshot();
        let (attack, inj) = causal_root_of_attack(&snap).expect("root");
        assert!(matches!(attack.event, FlightEvent::AttackDetected { .. }));
        match &inj.event {
            FlightEvent::Kernel(Observation::FaultInjected { fault, .. }) => {
                assert_eq!(
                    *fault,
                    crate::fault::InjectedFault::SpuriousEvict { vpn: Vpn(9) }
                );
            }
            other => panic!("wrong root: {other:?}"),
        }
    }

    #[test]
    fn watch_alert_without_vpn_falls_back_to_latest_injection() {
        let mut rec = FlightRecorder::new(64);
        rec.record(
            5,
            FlightEvent::Kernel(Observation::FaultInjected {
                eid: EnclaveId(1),
                fault: crate::fault::InjectedFault::TransientNoMemory,
            }),
        );
        rec.record(
            9,
            FlightEvent::WatchAlert {
                eid: EnclaveId(1),
                detector: "slo_burn",
                window: 2,
                score_milli: 1500,
                why: "p99 budget burn".to_owned(),
            },
        );
        let snap = rec.snapshot();
        let (verdict, inj) = causal_root_of_attack(&snap).expect("root");
        assert!(matches!(verdict.event, FlightEvent::WatchAlert { .. }));
        assert!(is_injection(inj));
        assert_eq!(verdict.event.domain(), "watch");
        assert!(!verdict.event.is_runtime_decision());
    }

    #[test]
    fn timeline_renders_markdown() {
        let mut rec = FlightRecorder::new(16);
        let _ = rec.begin_chain();
        rec.record(10, kernel_fault(3));
        rec.record(20, FlightEvent::DecisionForward { vpn: Vpn(2) });
        rec.end_chain();
        let md = render_timeline(&rec.snapshot(), 50);
        assert!(md.contains("# Flight-recorder post-mortem"));
        assert!(md.contains("| seq | cycles | corr | domain | event |"));
        assert!(md.contains("provoked by"));
    }
}
