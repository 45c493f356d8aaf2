//! Ablations of Autarky's design choices (DESIGN.md §4):
//!
//! * **batched driver calls** — `ay_fetch_pages`/`ay_evict_pages` take
//!   page arrays "to minimize system calls and enclave crossing overhead"
//!   (§5.2.1); how much does batching buy?
//! * **exitless host calls** — the prototype uses exitless calls for all
//!   driver syscalls (§6); what would ring-switch syscalls cost?
//! * **FIFO vs clock eviction** — blocking A/D bits forces the runtime to
//!   FIFO (§5.1.4); how many extra faults does losing the clock policy
//!   cost on a skewed workload?

use autarky::prelude::*;
use autarky::workloads::uthash::hash64;
use autarky::{Profile, SystemBuilder};

use crate::Figure;

/// Per-page cycles of a fetch+evict round as a function of batch size.
pub fn batching(batch_sizes: &[usize], rounds: u64) -> Vec<(usize, u64)> {
    let mut out = Vec::new();
    for &batch in batch_sizes {
        let (mut world, mut heap) = SystemBuilder::new(
            "abl-batch",
            Profile::Clusters {
                pages_per_cluster: batch,
            },
        )
        .epc_pages(2048)
        .heap_pages(256)
        .build()
        .expect("system");
        let ptr = heap.alloc(&mut world, batch * PAGE_SIZE).expect("alloc");
        let pages: Vec<Vpn> = (0..batch as u64).map(|i| Vpn((ptr.0 >> 12) + i)).collect();
        heap.write_u64(&mut world, ptr, 1).expect("touch");
        // Warm.
        world.rt.evict_pages(&mut world.os, &pages).expect("evict");
        heap.read_u64(&mut world, ptr).expect("fetch");
        let t0 = world.now();
        for _ in 0..rounds {
            world.rt.evict_pages(&mut world.os, &pages).expect("evict");
            heap.read_u64(&mut world, ptr).expect("fetch whole cluster");
        }
        out.push((batch, (world.now() - t0) / (rounds * batch as u64)));
    }
    out
}

/// Total cycles of a paging-heavy run with exitless calls vs ring-switch
/// syscalls.
pub fn exitless_vs_syscall(rounds: u64) -> (u64, u64) {
    let run = |exitless: bool| {
        let (mut world, mut heap) = SystemBuilder::new(
            "abl-exitless",
            Profile::Clusters {
                pages_per_cluster: 1,
            },
        )
        .epc_pages(2048)
        .heap_pages(64)
        .build()
        .expect("system");
        world.os.exitless = exitless;
        let ptr = heap.alloc(&mut world, 16 * PAGE_SIZE).expect("alloc");
        let pages: Vec<Vpn> = (0..16u64).map(|i| Vpn((ptr.0 >> 12) + i)).collect();
        heap.write_u64(&mut world, ptr, 1).expect("touch");
        let t0 = world.now();
        for _ in 0..rounds {
            world.rt.evict_pages(&mut world.os, &pages).expect("evict");
            for &vpn in &pages {
                heap.read_u64(&mut world, Ptr(vpn.0 << 12)).expect("fetch");
            }
        }
        world.now() - t0
    };
    (run(true), run(false))
}

/// Fault counts of the same skewed access sequence under the baseline's
/// clock eviction (OS-managed, uses A bits) and Autarky's FIFO
/// (self-paging, A bits unavailable). Returns `(clock_faults,
/// fifo_faults)` — the cost of §5.1.4's A/D-bit blocking.
pub fn fifo_vs_clock(accesses: u64) -> (u64, u64) {
    let data_pages = 128u64;
    let budget = 96usize;
    // 80% of accesses hit a 32-page hot set; clock should learn it.
    let page_for = |i: u64| -> u64 {
        let h = hash64(i);
        if h % 10 < 8 {
            h % 32
        } else {
            32 + h % (data_pages - 32)
        }
    };

    // Baseline: OS-managed pages, clock eviction over A bits.
    let (mut world, mut heap) = SystemBuilder::new("abl-clock", Profile::Unprotected)
        .epc_pages(2048)
        .heap_pages(data_pages as usize + 16)
        .build()
        .expect("system");
    let ptr = heap
        .alloc(&mut world, data_pages as usize * PAGE_SIZE)
        .expect("alloc");
    for i in 0..data_pages {
        heap.write_u64(&mut world, ptr.offset(i * PAGE_SIZE as u64), i)
            .expect("touch");
    }
    world.os.set_epc_quota(world.eid, budget).expect("quota");
    let base_faults = world.os.machine.stats().faults;
    for i in 0..accesses {
        heap.read_u64(&mut world, ptr.offset(page_for(i) * PAGE_SIZE as u64))
            .expect("read");
    }
    let clock_faults = world.os.machine.stats().faults - base_faults;

    // Autarky: enclave-managed pages, FIFO.
    let (mut world, mut heap) = SystemBuilder::new(
        "abl-fifo",
        Profile::Clusters {
            pages_per_cluster: 1,
        },
    )
    .epc_pages(2048)
    .heap_pages(data_pages as usize + 16)
    .budget_pages(budget)
    .build()
    .expect("system");
    let ptr = heap
        .alloc(&mut world, data_pages as usize * PAGE_SIZE)
        .expect("alloc");
    for i in 0..data_pages {
        heap.write_u64(&mut world, ptr.offset(i * PAGE_SIZE as u64), i)
            .expect("touch");
    }
    let base_faults = world.os.machine.stats().faults;
    for i in 0..accesses {
        heap.read_u64(&mut world, ptr.offset(page_for(i) * PAGE_SIZE as u64))
            .expect("read");
    }
    let fifo_faults = world.os.machine.stats().faults - base_faults;
    (clock_faults, fifo_faults)
}

/// The three ablations at `scale`, gated on each design choice paying
/// off in the direction the paper argues.
pub fn figure(scale: u32) -> Figure {
    let s = scale as u64;
    let batches = batching(&[1, 2, 4, 8, 16, 32, 64], 20 * s);
    let (exitless, syscall) = exitless_vs_syscall(50 * s);
    let (clock, fifo) = fifo_vs_clock(5_000 * s);
    let syscall_pct = (syscall as f64 / exitless as f64 - 1.0) * 100.0;

    let mut fig = Figure::new(
        "Ablation: Autarky design choices",
        "Per-page fetch+evict cycles by driver-call batch size; exitless host calls \
         against ring-switch syscalls, and FIFO against clock eviction on an 80/20 skew \
         (A/D bits blocked, §5.1.4), are in the numbers below.",
    );
    fig.table(
        "batch size | cycles/page",
        batches
            .iter()
            .map(|(batch, cycles)| vec![batch.to_string(), cycles.to_string()]),
    );
    for (batch, cycles) in &batches {
        fig.metric(format!("batch_{batch}_cycles_per_page"), *cycles as f64);
    }
    fig.metric("exitless_cycles", exitless as f64);
    fig.metric("syscall_cycles", syscall as f64);
    fig.metric("syscall_overhead_pct", syscall_pct);
    fig.metric("clock_faults", clock as f64);
    fig.metric("fifo_faults", fifo as f64);
    let never_more = batches.windows(2).all(|w| w[1].1 <= w[0].1);
    fig.claim("batching_never_costs_more", never_more);
    fig.claim("exitless_cheaper_than_syscalls", exitless < syscall);
    fig.claim("fifo_faults_at_least_clock", fifo >= clock);
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_amortizes_per_page_cost() {
        let results = batching(&[1, 16], 8);
        let (_, single) = results[0];
        let (_, batched) = results[1];
        assert!(
            batched < single,
            "batch-16 per-page {batched} must beat single-page {single}"
        );
    }

    #[test]
    fn exitless_calls_are_cheaper() {
        let (exitless, syscall) = exitless_vs_syscall(8);
        assert!(
            exitless < syscall,
            "exitless {exitless} vs syscall {syscall}"
        );
    }

    #[test]
    fn clock_beats_fifo_on_skewed_access() {
        let (clock, fifo) = fifo_vs_clock(2000);
        assert!(
            fifo >= clock,
            "losing A/D bits cannot *reduce* faults: clock {clock}, fifo {fifo}"
        );
    }
}
