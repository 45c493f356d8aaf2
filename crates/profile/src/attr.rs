//! The causal join: one harvest window's charge journal and flight
//! records — correlation chains plus the `SpanClose` span records —
//! merged into call paths.
//!
//! Attribution rules, in order:
//!
//! 1. Every journaled charge `(at, tag, amount)` covers the half-open
//!    interval `(at - amount, at]`; it is attributed at the instant
//!    `at`.
//! 2. The charge's *chain frame* is the correlation chain whose
//!    inclusive cycle window `[min, max]` contains `at`. Crossing
//!    charges (`preemption`, `handler_invocation`, `os_kernel`) that
//!    land *between* chains attach to the next chain — an AEX or EENTER
//!    belongs to the round trip it sets up.
//! 3. The charge's *span frames* are the spans containing `at`
//!    (`start < at <= end`), outermost first. Spans measure the same
//!    simulated clock the ledger charges, so containment is exact.
//! 4. The leaf frame is the cost tag itself.
//!
//! A charge inside a chain with **no** covering span whose tag is
//! enclave-side work (`runtime`, `crypto`, `oram`) is *orphaned*:
//! instrumentation lost its causal parent. Orphans count toward the
//! residual the profile gate enforces.

use std::collections::BTreeMap;

use autarky_os_sim::{FlightEvent, FlightRecord, CORR_NONE};
use autarky_sgx_sim::{ChargeRecord, CostTag};
use autarky_telemetry::{Histogram, SpanKind, SpanRecord};

use crate::tree::ProfileNode;

/// One correlation chain's reconstructed window.
#[derive(Debug, Clone)]
struct Chain {
    /// Earliest record cycle stamp in the chain (folded AEX transitions
    /// carry pre-chain stamps, so this covers the whole round trip).
    start: u64,
    /// Latest record cycle stamp in the chain.
    end: u64,
    /// Chain frame name (e.g. `fault_round_trip`).
    label: &'static str,
    /// Page-cluster key: min fetched vpn, falling back to the fault vpn.
    cluster_key: Option<u64>,
    /// Whether the chain contains a handler entry (a real fault).
    is_fault: bool,
}

/// Tags charged by world transitions that legitimately happen outside
/// any span or chain window and belong to the *next* round trip.
fn is_crossing(tag: CostTag) -> bool {
    matches!(
        tag,
        CostTag::Preemption | CostTag::HandlerInvocation | CostTag::OsKernel
    )
}

/// Enclave-side work that must always run under a telemetry span when it
/// happens inside a fault chain.
fn expects_span(tag: CostTag) -> bool {
    matches!(tag, CostTag::Runtime | CostTag::Crypto | CostTag::Oram)
}

/// Streaming attribution state across harvest windows.
#[derive(Debug)]
pub(crate) struct Attributor {
    /// The call-path tree (below the workload root frame).
    pub root: ProfileNode,
    /// Per-fault round-trip latency (chain window widths).
    pub fault_hist: Histogram,
    /// Fault round trips seen.
    pub faults: u64,
    /// Per-cluster-key `(faults, round-trip cycles)`.
    pub clusters: BTreeMap<u64, (u64, u64)>,
    /// In-chain, span-less enclave-work cycles (lost instrumentation).
    pub orphan_cycles: u64,
    /// Sum of all journaled charge amounts.
    pub journaled_cycles: u64,
}

impl Attributor {
    pub(crate) fn new() -> Self {
        Self {
            root: ProfileNode::new(),
            fault_hist: Histogram::new(),
            faults: 0,
            clusters: BTreeMap::new(),
            orphan_cycles: 0,
            journaled_cycles: 0,
        }
    }

    /// Attribute one harvest window. `spans` are the window's
    /// `SpanClose` records, taken out of `flights` by the caller.
    /// Windows are independent: every chain and span closes between
    /// operations, so per-window joins lose nothing at the seams.
    pub(crate) fn ingest(
        &mut self,
        spans: &[SpanRecord],
        flights: &[FlightRecord],
        charges: &[ChargeRecord],
    ) {
        let chains = build_chains(flights);
        for chain in &chains {
            if chain.is_fault {
                self.faults += 1;
                let cycles = chain.end - chain.start;
                self.fault_hist.record(cycles);
                if let Some(key) = chain.cluster_key {
                    let entry = self.clusters.entry(key).or_insert((0, 0));
                    entry.0 += 1;
                    entry.1 += cycles;
                }
            }
        }

        // Both sweeps ride on sorted orders: spans by (start asc, end
        // desc) so outer frames precede the inner frames they contain,
        // charges by time. Proper nesting then makes the active-span
        // stack maintainable with pushes and pops only.
        let mut spans: Vec<&SpanRecord> = spans.iter().collect();
        spans.sort_by(|a, b| {
            a.start_cycles
                .cmp(&b.start_cycles)
                .then(b.end_cycles.cmp(&a.end_cycles))
        });
        let mut charges: Vec<&ChargeRecord> = charges.iter().collect();
        charges.sort_by_key(|c| c.at);

        let mut span_i = 0;
        let mut stack: Vec<&SpanRecord> = Vec::new();
        let mut chain_i = 0;
        for charge in charges {
            self.journaled_cycles += charge.amount;
            while span_i < spans.len() && spans[span_i].start_cycles < charge.at {
                let next = spans[span_i];
                while let Some(top) = stack.last() {
                    if top.end_cycles <= next.start_cycles {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                stack.push(next);
                span_i += 1;
            }
            while let Some(top) = stack.last() {
                if top.end_cycles < charge.at {
                    stack.pop();
                } else {
                    break;
                }
            }

            while chain_i < chains.len() && chains[chain_i].end < charge.at {
                chain_i += 1;
            }
            let in_chain = chain_i < chains.len() && chains[chain_i].start <= charge.at;
            let chain = if in_chain || (is_crossing(charge.tag) && chain_i < chains.len()) {
                Some(&chains[chain_i])
            } else {
                None
            };

            let mut path: Vec<&str> = Vec::with_capacity(2 + stack.len());
            if let Some(chain) = chain {
                path.push(chain.label);
            }
            for span in &stack {
                path.push(span.kind.name());
            }
            path.push(charge.tag.name());
            self.root.add(&path, charge.amount);

            if in_chain && stack.is_empty() && expects_span(charge.tag) {
                self.orphan_cycles += charge.amount;
            }
        }
    }
}

/// Group flight records into chain windows, classify each chain by its
/// events, and return them sorted by start.
fn build_chains(flights: &[FlightRecord]) -> Vec<Chain> {
    #[derive(Default)]
    struct Acc {
        start: u64,
        end: u64,
        fault_vpn: Option<u64>,
        cluster: Option<u64>,
        evict: bool,
        fetch: bool,
        heap: bool,
    }
    let mut map: BTreeMap<u64, Acc> = BTreeMap::new();
    for record in flights {
        if record.corr == CORR_NONE {
            continue;
        }
        let acc = map.entry(record.corr).or_insert_with(|| Acc {
            start: record.cycles,
            end: record.cycles,
            ..Acc::default()
        });
        acc.start = acc.start.min(record.cycles);
        acc.end = acc.end.max(record.cycles);
        match &record.event {
            FlightEvent::HandlerEntry { vpn, .. } => {
                acc.fault_vpn.get_or_insert(vpn.0);
            }
            FlightEvent::DecisionClusterFetch { pages, .. } => {
                acc.fetch = true;
                if acc.cluster.is_none() {
                    acc.cluster = pages.iter().map(|p| p.0).min();
                }
            }
            FlightEvent::DecisionForward { .. } => acc.fetch = true,
            FlightEvent::DecisionEvict { .. } => acc.evict = true,
            FlightEvent::SpanClose(span) => match span.kind {
                SpanKind::AyEvictPages => acc.evict = true,
                SpanKind::AyFetchPages => acc.fetch = true,
                SpanKind::HeapAlloc => acc.heap = true,
                _ => {}
            },
            _ => {}
        }
    }
    let mut chains: Vec<Chain> = map
        .into_values()
        .map(|acc| Chain {
            start: acc.start,
            end: acc.end,
            label: if acc.fault_vpn.is_some() {
                "fault_round_trip"
            } else if acc.evict {
                "evict_batch"
            } else if acc.fetch {
                "fetch_batch"
            } else if acc.heap {
                "heap_grow"
            } else {
                "host_chain"
            },
            cluster_key: acc.cluster.or(acc.fault_vpn),
            is_fault: acc.fault_vpn.is_some(),
        })
        .collect();
    chains.sort_by_key(|c| (c.start, c.end));
    chains
}

#[cfg(test)]
mod tests {
    use super::*;
    use autarky_sgx_sim::{EnclaveId, Vpn};

    fn span(kind: SpanKind, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            kind,
            start_cycles: start,
            end_cycles: end,
        }
    }

    fn charge(at: u64, tag: CostTag, amount: u64) -> ChargeRecord {
        ChargeRecord { at, tag, amount }
    }

    fn flight(seq: u64, cycles: u64, corr: u64, event: FlightEvent) -> FlightRecord {
        FlightRecord {
            seq,
            cycles,
            corr,
            event,
        }
    }

    fn fault_window() -> (Vec<SpanRecord>, Vec<FlightRecord>, Vec<ChargeRecord>) {
        let spans = vec![
            span(SpanKind::FaultHandler, 110, 190),
            span(SpanKind::AyFetchPages, 120, 160),
            span(SpanKind::OramAccess, 240, 260),
        ];
        let flights = vec![
            flight(
                0,
                100,
                7,
                FlightEvent::HandlerEntry {
                    eid: EnclaveId(1),
                    vpn: Vpn(5),
                },
            ),
            flight(
                1,
                150,
                7,
                FlightEvent::DecisionClusterFetch {
                    vpn: Vpn(5),
                    pages: vec![Vpn(5), Vpn(4)],
                },
            ),
            flight(2, 200, 7, FlightEvent::RateLimitKill),
        ];
        let charges = vec![
            charge(90, CostTag::HandlerInvocation, 12), // crossing, pre-chain
            charge(105, CostTag::Preemption, 10),       // in chain, pre-span
            charge(130, CostTag::Paging, 50),           // inside both spans
            charge(185, CostTag::Runtime, 20),          // handler only
            charge(195, CostTag::Runtime, 5),           // in chain, span-less: orphan
            charge(250, CostTag::Oram, 30),             // outside chain, in oram span
            charge(300, CostTag::Other, 3),             // bare
        ];
        (spans, flights, charges)
    }

    fn path_cycles(root: &ProfileNode, path: &[&str]) -> u64 {
        let mut node = root;
        for seg in path {
            match node.child(seg) {
                Some(child) => node = child,
                None => return 0,
            }
        }
        node.self_cycles
    }

    #[test]
    fn charges_land_on_their_causal_paths() {
        let (spans, flights, charges) = fault_window();
        let mut attr = Attributor::new();
        attr.ingest(&spans, &flights, &charges);

        let root = &attr.root;
        assert_eq!(
            path_cycles(root, &["fault_round_trip", "handler_invocation"]),
            12,
            "crossing charge attaches to the next chain"
        );
        assert_eq!(path_cycles(root, &["fault_round_trip", "preemption"]), 10);
        assert_eq!(
            path_cycles(
                root,
                &[
                    "fault_round_trip",
                    "fault_handler",
                    "ay_fetch_pages",
                    "paging"
                ]
            ),
            50
        );
        assert_eq!(
            path_cycles(root, &["fault_round_trip", "fault_handler", "runtime"]),
            20
        );
        assert_eq!(
            path_cycles(root, &["fault_round_trip", "runtime"]),
            5,
            "span-less in-chain runtime work stays visible"
        );
        assert_eq!(path_cycles(root, &["oram_access", "oram"]), 30);
        assert_eq!(path_cycles(root, &["other"]), 3);
        assert_eq!(root.total(), 130, "every journaled cycle lands somewhere");
        assert_eq!(attr.journaled_cycles, 130);
        assert_eq!(attr.orphan_cycles, 5, "only the span-less runtime charge");
    }

    #[test]
    fn fault_chains_feed_latency_and_cluster_stats() {
        let (spans, flights, charges) = fault_window();
        let mut attr = Attributor::new();
        attr.ingest(&spans, &flights, &charges);
        assert_eq!(attr.faults, 1);
        assert_eq!(attr.fault_hist.summary().count, 1);
        // Chain window is [100, 200] -> 100 cycles; cluster key is the
        // min fetched page (4), not the fault page.
        assert_eq!(attr.clusters.get(&4), Some(&(1, 100)));
    }

    #[test]
    fn non_fault_chains_are_classified_by_their_events() {
        let flights = vec![
            flight(
                0,
                10,
                1,
                FlightEvent::DecisionEvict {
                    pages: vec![Vpn(9)],
                },
            ),
            flight(
                1,
                50,
                2,
                FlightEvent::SpanClose(span(SpanKind::HeapAlloc, 40, 50)),
            ),
        ];
        let chains = build_chains(&flights);
        assert_eq!(chains.len(), 2);
        assert_eq!(chains[0].label, "evict_batch");
        assert!(!chains[0].is_fault);
        assert_eq!(chains[1].label, "heap_grow");
    }

    #[test]
    fn sibling_spans_do_not_shadow_each_other() {
        // A charge after an earlier sibling span closed must see only
        // the live span, even though the dead sibling started earlier.
        let spans = vec![span(SpanKind::Seal, 10, 20), span(SpanKind::Open, 30, 40)];
        let charges = vec![charge(35, CostTag::Crypto, 7)];
        let mut attr = Attributor::new();
        attr.ingest(&spans, &[], &charges);
        assert_eq!(path_cycles(&attr.root, &["open", "crypto"]), 7);
        assert_eq!(path_cycles(&attr.root, &["seal", "crypto"]), 0);
    }
}
