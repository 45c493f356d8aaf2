//! §7 "Overhead from SGX architecture changes": the nbench suite with
//! datasets that fit in EPC (no paging), measuring the cost of Autarky's
//! accessed/dirty-bit check on every TLB fill.
//!
//! The paper pessimistically assumes 10 cycles per fill and reports a
//! 0.07% geometric-mean slowdown across the ten kernels; the
//! pending-exception-flag accesses are free (same cache lines as existing
//! flows). Both the analytical bound (fills × 10 cycles) and the measured
//! protected-vs-legacy ratio are reported.

use autarky::prelude::*;
use autarky::workloads::nbench::all_kernels;
use autarky::{Profile, SystemBuilder};

use crate::util::geomean;
use crate::Figure;

/// The paper's geomean slowdown from the TLB-fill check: 0.07%.
pub const PAPER_GEOMEAN_OVERHEAD: f64 = 0.0007;

/// One kernel's overhead measurement.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel name.
    pub name: &'static str,
    /// Cycles in legacy (no check) mode.
    pub base_cycles: u64,
    /// Cycles in self-paging (checked) mode.
    pub protected_cycles: u64,
    /// TLB fills during the protected run.
    pub tlb_fills: u64,
    /// Measured slowdown (protected / base).
    pub slowdown: f64,
    /// Analytical overhead bound: fills × check cost / base cycles.
    pub analytical_overhead: f64,
}

fn run_kernel(
    run: fn(&mut World, &mut EncHeap, u32) -> Result<u64, autarky::rt::RtError>,
    protected: bool,
    scale: u32,
) -> (u64, u64, u64) {
    let profile = if protected {
        Profile::PinAll
    } else {
        Profile::Unprotected
    };
    let (mut world, mut heap) = SystemBuilder::new("nbench", profile)
        .epc_pages(32_768) // plenty: no paging by design
        .heap_pages(16_384)
        .build()
        .expect("system");
    // nbench datasets are statically allocated: back the heap up front so
    // the timed region contains only the kernel (no allocation syscalls).
    world
        .rt
        .prealloc_heap_pages(&mut world.os, 16_384)
        .expect("prealloc");
    let t0 = world.now();
    let checksum = run(&mut world, &mut heap, scale).expect("kernel");
    let cycles = world.now() - t0;
    let (fills, _, _) = world.os.machine.tlb_stats();
    (checksum, cycles, fills)
}

/// Measure every kernel at `scale`.
pub fn run_all(scale: u32) -> Vec<KernelRow> {
    let check_cost = CostModel::default().autarky_fill_check;
    all_kernels()
        .iter()
        .map(|kernel| {
            let (sum_base, base_cycles, _) = run_kernel(kernel.run, false, scale);
            let (sum_prot, protected_cycles, fills) = run_kernel(kernel.run, true, scale);
            assert_eq!(
                sum_base, sum_prot,
                "{}: result must not change",
                kernel.name
            );
            KernelRow {
                name: kernel.name,
                base_cycles,
                protected_cycles,
                tlb_fills: fills,
                slowdown: protected_cycles as f64 / base_cycles as f64,
                analytical_overhead: (fills * check_cost) as f64 / base_cycles as f64,
            }
        })
        .collect()
}

/// The nbench analysis at `scale`, gated on the geomean overhead
/// staying within the paper's.
pub fn figure(scale: u32) -> Figure {
    let rows = run_all(scale);
    let mut fig = Figure::new(
        "nbench: overhead from the SGX architecture changes (no paging)",
        "10-cycle accessed/dirty check per TLB fill, pessimistic.",
    );
    fig.table(
        "kernel | base cycles | autarky cycles | TLB fills | measured | analytical",
        rows.iter().map(|row| {
            vec![
                row.name.to_string(),
                row.base_cycles.to_string(),
                row.protected_cycles.to_string(),
                row.tlb_fills.to_string(),
                format!("{:+.3}%", (row.slowdown - 1.0) * 100.0),
                format!("{:.4}%", row.analytical_overhead * 100.0),
            ]
        }),
    );
    let overhead = geomean(&rows.iter().map(|r| r.slowdown).collect::<Vec<_>>()) - 1.0;
    for row in &rows {
        let name = row.name.replace(' ', "_");
        fig.metric(format!("{name}_overhead_pct"), (row.slowdown - 1.0) * 100.0);
    }
    fig.metric("geomean_overhead_pct", overhead * 100.0);
    let within = overhead <= PAPER_GEOMEAN_OVERHEAD;
    fig.claim("geomean_overhead_within_paper", within);
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_negligible_without_paging() {
        let rows = run_all(1);
        assert_eq!(rows.len(), 10);
        let slowdowns: Vec<f64> = rows.iter().map(|r| r.slowdown).collect();
        let mean = geomean(&slowdowns);
        // Paper: 0.07% geomean. Allow up to 2% in the simulator.
        assert!(
            mean < 1.02,
            "geomean slowdown {mean} must be negligible without paging"
        );
        for row in &rows {
            assert!(
                row.analytical_overhead < 0.02,
                "{}: analytical overhead {} too high",
                row.name,
                row.analytical_overhead
            );
            assert!(row.tlb_fills > 0, "{}: kernels must touch memory", row.name);
        }
    }
}
