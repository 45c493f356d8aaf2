//! Figure 7: rate-limited demand paging on 14 Phoenix + PARSEC
//! applications.
//!
//! The paper reduces EPC to ~100 MB so the applications page, enables the
//! bounded-leakage policy with a limit tuned to avoid false positives,
//! and reports per-app slowdown relative to the vanilla-SGX baseline plus
//! the page-fault rate. Expected shape: ~6% mean slowdown, strongly
//! correlated with fault rate (canneal/dedup/x264 highest); ~2% with the
//! AEX-elision hardware variant.

use autarky::workloads::apps::{fig7_apps, App};
use autarky::{Profile, SystemBuilder};

use crate::util::{geomean, pearson, secs};
use crate::Figure;

/// Least Pearson correlation of per-app slowdown with page-fault rate
/// (the paper: slowdown "strongly correlated" with the fault rate).
pub const MIN_PF_CORRELATION: f64 = 0.5;

/// One application's measurement.
#[derive(Debug, Clone)]
pub struct AppRow {
    /// Application name.
    pub name: &'static str,
    /// Protected-over-baseline run-time ratio.
    pub slowdown: f64,
    /// Page faults per simulated second under the protected run.
    pub pf_rate: f64,
    /// Checksum equality between runs (sanity).
    pub checksums_match: bool,
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Fig7Params {
    /// Pages of EPC available to the app's data ("~100 MB", scaled).
    pub epc_budget_pages: usize,
    /// App data footprint in pages (sized to exceed the budget).
    pub footprint_pages: usize,
}

impl Fig7Params {
    /// Scale 1 ≈ 1/64 of the paper's sizes.
    pub fn scaled(scale: u32) -> Self {
        let s = scale as usize;
        Self {
            epc_budget_pages: 400 * s,
            footprint_pages: 520 * s,
        }
    }
}

fn run_once(app: &App, params: &Fig7Params, protected: bool, elide_aex: bool) -> (u64, u64, u64) {
    let profile = if protected {
        Profile::RateLimited {
            max_faults_per_progress: 1e6,
            burst: 1 << 40,
        }
    } else {
        Profile::Unprotected
    };
    let (mut world, mut heap) = SystemBuilder::new("fig7", profile)
        .epc_pages(params.footprint_pages * 2 + 4096)
        .heap_pages(params.footprint_pages * 2)
        .budget_pages(params.epc_budget_pages)
        .elide_aex(elide_aex)
        .build()
        .expect("system");
    if !protected {
        // Baseline: cap the OS quota to the same EPC share the protected
        // run's self-paging budget grants, so both configurations page
        // the same working set.
        world
            .os
            .set_epc_quota(world.eid, params.epc_budget_pages)
            .expect("quota");
    }
    let t0 = world.now();
    let checksum = (app.run)(&mut world, &mut heap, params.footprint_pages)
        .unwrap_or_else(|e| panic!("{}: {e}", app.name));
    let cycles = world.now() - t0;
    let faults = world.os.machine.stats().faults;
    (checksum, cycles, faults)
}

/// Measure one app.
pub fn measure_app(app: &App, params: &Fig7Params, elide_aex: bool) -> AppRow {
    let (sum_base, cycles_base, _) = run_once(app, params, false, false);
    let (sum_prot, cycles_prot, faults) = run_once(app, params, true, elide_aex);
    AppRow {
        name: app.name,
        slowdown: cycles_prot as f64 / cycles_base as f64,
        pf_rate: faults as f64 / secs(cycles_prot),
        checksums_match: sum_base == sum_prot,
    }
}

/// Measure all 14 applications.
pub fn run_all(params: &Fig7Params, elide_aex: bool) -> Vec<AppRow> {
    fig7_apps()
        .iter()
        .map(|app| measure_app(app, params, elide_aex))
        .collect()
}

/// Figure 7 at `scale`: every app with the AEX and with it elided,
/// gated on identical results, elision never costing, and slowdown
/// tracking the fault rate. The geomeans are reported beside the
/// paper's, not gated: the simulator's elision over-recovers.
pub fn figure(scale: u32) -> Figure {
    let params = Fig7Params::scaled(scale);
    let with_aex = run_all(&params, false);
    let elided = run_all(&params, true);
    let apps = || with_aex.iter().zip(&elided);
    let slowdowns: Vec<f64> = with_aex.iter().map(|r| r.slowdown).collect();
    let pf_rates: Vec<f64> = with_aex.iter().map(|r| r.pf_rate).collect();
    let mean = geomean(&slowdowns);
    let mean_elided = geomean(&elided.iter().map(|r| r.slowdown).collect::<Vec<_>>());
    let correlation = pearson(&slowdowns, &pf_rates);

    let mut fig = Figure::new(
        "Figure 7: rate-limited paging for Phoenix and PARSEC",
        &format!(
            "EPC budget {} pages, footprints ~{} pages.",
            params.epc_budget_pages, params.footprint_pages
        ),
    );
    fig.table(
        "app | slowdown | slowdown (elide AEX) | PF rate (faults/s) | result",
        apps().map(|(row, erow)| {
            let ok = row.checksums_match && erow.checksums_match;
            vec![
                row.name.to_string(),
                format!("{:.3}", row.slowdown),
                format!("{:.3}", erow.slowdown),
                format!("{:.0}", row.pf_rate),
                if ok { "ok" } else { "MISMATCH" }.to_string(),
            ]
        }),
    );
    for (row, erow) in apps() {
        fig.metric(format!("{}_slowdown", row.name), row.slowdown);
        fig.metric(format!("{}_elided_slowdown", row.name), erow.slowdown);
        fig.metric(format!("{}_pf_rate", row.name), row.pf_rate);
    }
    fig.metric("geomean_slowdown", mean);
    fig.metric("paper_geomean_slowdown", 1.06);
    fig.metric("geomean_elided_slowdown", mean_elided);
    fig.metric("paper_geomean_elided_slowdown", 1.02);
    fig.metric("pf_correlation", correlation);
    let identical = apps().all(|(row, erow)| row.checksums_match && erow.checksums_match);
    fig.claim("results_bit_identical", identical);
    let never_slower = apps().all(|(row, erow)| erow.slowdown <= row.slowdown);
    fig.claim("elision_never_slower", never_slower);
    let tracks = correlation >= MIN_PF_CORRELATION;
    fig.claim("slowdown_tracks_fault_rate", tracks);
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fig7Params {
        Fig7Params {
            epc_budget_pages: 96,
            footprint_pages: 128,
        }
    }

    #[test]
    fn slowdowns_are_modest_and_results_match() {
        let params = tiny();
        let apps = fig7_apps();
        // A representative subset keeps the test fast.
        let subset: Vec<&App> = apps
            .iter()
            .filter(|a| ["linreg", "canneal", "bscholes"].contains(&a.name))
            .collect();
        let rows: Vec<AppRow> = subset
            .iter()
            .map(|app| measure_app(app, &params, false))
            .collect();
        for row in &rows {
            assert!(
                row.checksums_match,
                "{}: protected run changed the result",
                row.name
            );
            assert!(
                row.slowdown < 2.0,
                "{}: slowdown {} out of range",
                row.name,
                row.slowdown
            );
        }
        let mean = geomean(&rows.iter().map(|r| r.slowdown).collect::<Vec<_>>());
        assert!(mean < 1.6, "geomean slowdown {mean}");
    }

    #[test]
    fn canneal_pages_more_than_bscholes() {
        // The paper's fault-rate ordering: random-access canneal far above
        // streaming/compute-bound blackscholes.
        let params = tiny();
        let apps = fig7_apps();
        let canneal = apps.iter().find(|a| a.name == "canneal").expect("app");
        let bscholes = apps.iter().find(|a| a.name == "bscholes").expect("app");
        let row_c = measure_app(canneal, &params, false);
        let row_b = measure_app(bscholes, &params, false);
        assert!(
            row_c.pf_rate > row_b.pf_rate,
            "canneal {} vs bscholes {}",
            row_c.pf_rate,
            row_b.pf_rate
        );
    }
}
