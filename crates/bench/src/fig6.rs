//! Figure 6: effect of cluster size on hash-table performance, vs cached
//! and uncached ORAM.
//!
//! The paper populates a uthash table (431 MB of 256-byte items, ≤10 per
//! bucket), then measures random-read throughput as a function of pages
//! per cluster (1–100), before and after rehashing, and compares against
//! the cached-ORAM paging scheme (128 MB EPC cache) and the pre-Autarky
//! uncached ORAM (232× slower; did not finish the full run in 24 h, so
//! the paper measured 100 random entries — we do the same).
//!
//! Shapes to reproduce: throughput inversely proportional to cluster
//! size; clusters and cached ORAM break even around 10 pages/cluster;
//! rehashing improves cluster throughput ≈1.5×; 1-page clusters ≈1.9×
//! slower than unprotected.

use autarky::prelude::*;
use autarky::workloads::uthash::EncHashTable;
use autarky::workloads::ycsb::{Distribution, KeyGenerator};
use autarky::{Profile, SystemBuilder};

use crate::util::ops_per_sec;
use crate::Figure;

/// Least throughput gain rehashing must give at every cluster size
/// (paper: ≈1.5×).
pub const MIN_REHASH_GAIN: f64 = 1.3;

/// Least cached-over-uncached ORAM throughput ratio. The paper measures
/// 232×; the gap grows with the position map, so at scale 1 it is far
/// smaller.
pub const MIN_UNCACHED_GAP: f64 = 20.0;

/// Scaled experiment parameters.
#[derive(Debug, Clone)]
pub struct Fig6Params {
    /// Items loaded into the table.
    pub items: u64,
    /// Item payload size (paper: 256 B).
    pub item_size: usize,
    /// Max items per bucket before rehash (paper: 10).
    pub max_chain: u64,
    /// Resident-page budget for self-paging (the scaled "EPC share").
    pub budget_pages: usize,
    /// Random reads measured per configuration.
    pub reads: u64,
    /// Reads for the uncached-ORAM point (the paper used 100).
    pub uncached_reads: u64,
}

impl Fig6Params {
    /// Parameters scaled by `scale` (scale 1 ≈ 1/64 of the paper's sizes).
    pub fn scaled(scale: u32) -> Self {
        let s = scale as u64;
        Self {
            items: 12_000 * s,
            item_size: 256,
            max_chain: 10,
            // ~30% of the data fits, like the paper's 128 MB cache / 431 MB
            // table configuration.
            budget_pages: (280 * s) as usize,
            reads: 1_500 * s,
            uncached_reads: 100,
        }
    }

    /// Pages the table data will roughly occupy.
    pub fn data_pages(&self) -> usize {
        ((self.items * (16 + self.item_size as u64)) as usize / PAGE_SIZE) * 2
    }
}

/// One measured series point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Series label.
    pub series: String,
    /// Pages per cluster (0 for non-cluster series).
    pub cluster_pages: usize,
    /// Requests per (simulated) second.
    pub throughput: f64,
}

fn populate(world: &mut World, heap: &mut EncHeap, params: &Fig6Params) -> EncHashTable {
    let nbuckets = (params.items / params.max_chain)
        .next_power_of_two()
        .max(64);
    let mut table = EncHashTable::new(world, heap, nbuckets, params.item_size, params.max_chain)
        .expect("table");
    let value = vec![0x5Au8; params.item_size];
    for key in 0..params.items {
        table.insert(world, heap, key, &value).expect("insert");
    }
    table
}

fn measure_reads(
    world: &mut World,
    heap: &mut EncHeap,
    table: &EncHashTable,
    params: &Fig6Params,
    reads: u64,
) -> f64 {
    let mut generator = KeyGenerator::new(params.items, Distribution::Uniform, 7);
    let t0 = world.now();
    for _ in 0..reads {
        let key = generator.next_key();
        let hit = table.get(world, heap, key).expect("get");
        assert!(hit.is_some(), "loaded key must be present");
        world.progress(1);
    }
    ops_per_sec(reads, world.now() - t0)
}

/// Cluster-size series (optionally measuring again after a rehash).
pub fn run_clusters(params: &Fig6Params, cluster_sizes: &[usize]) -> Vec<(Point, Point)> {
    let mut out = Vec::new();
    for &pages in cluster_sizes {
        let (mut world, mut heap) = SystemBuilder::new(
            "fig6-clusters",
            Profile::Clusters {
                pages_per_cluster: pages,
            },
        )
        .epc_pages(params.data_pages() * 2 + 4096)
        .heap_pages(params.data_pages() * 3)
        .budget_pages(params.budget_pages)
        .build()
        .expect("system");
        let mut table = populate(&mut world, &mut heap, params);
        let before = Point {
            series: "clusters".into(),
            cluster_pages: pages,
            throughput: measure_reads(&mut world, &mut heap, &table, params, params.reads),
        };
        // Rehash shortens chains; throughput should improve ≈1.5×.
        table.rehash(&mut world, &mut heap).expect("rehash");
        let after = Point {
            series: "clusters-rehashed".into(),
            cluster_pages: pages,
            throughput: measure_reads(&mut world, &mut heap, &table, params, params.reads),
        };
        out.push((before, after));
    }
    out
}

/// Cached-ORAM point (constant across the cluster-size axis).
pub fn run_cached_oram(params: &Fig6Params) -> Point {
    let capacity = (params.data_pages() * 4) as u64;
    let (mut world, mut heap) = SystemBuilder::new(
        "fig6-oram",
        Profile::CachedOram {
            capacity_pages: capacity,
            cache_pages: params.budget_pages,
        },
    )
    .epc_pages(params.budget_pages + 4096)
    .heap_pages(64)
    .build()
    .expect("system");
    let table = populate(&mut world, &mut heap, params);
    Point {
        series: "cached-oram".into(),
        cluster_pages: 0,
        throughput: measure_reads(&mut world, &mut heap, &table, params, params.reads),
    }
}

/// Uncached-ORAM point (the pre-Autarky best case: few random reads on a
/// pre-populated, contention-free table).
pub fn run_uncached_oram(params: &Fig6Params) -> Point {
    let capacity = (params.data_pages() * 4) as u64;
    let (mut world, mut heap) = SystemBuilder::new(
        "fig6-uncached",
        Profile::UncachedOram {
            capacity_pages: capacity,
        },
    )
    .epc_pages(params.budget_pages + 4096)
    .heap_pages(64)
    .build()
    .expect("system");
    let table = populate(&mut world, &mut heap, params);
    Point {
        series: "uncached-oram".into(),
        cluster_pages: 0,
        throughput: measure_reads(&mut world, &mut heap, &table, params, params.uncached_reads),
    }
}

/// Unprotected baseline (for the 1.9× comparison against 1-page clusters).
pub fn run_unprotected(params: &Fig6Params) -> Point {
    let (mut world, mut heap) = SystemBuilder::new("fig6-base", Profile::Unprotected)
        .epc_pages(params.data_pages() * 2 + 4096)
        .heap_pages(params.data_pages() * 3)
        .build()
        .expect("system");
    world
        .os
        .set_epc_quota(world.eid, params.budget_pages + 64)
        .expect("quota");
    let table = populate(&mut world, &mut heap, params);
    Point {
        series: "unprotected".into(),
        cluster_pages: 0,
        throughput: measure_reads(&mut world, &mut heap, &table, params, params.reads),
    }
}

/// Figure 6 at `scale`: the cluster-size series before and after a
/// rehash against cached ORAM, plus the uncached-ORAM and unprotected
/// points, gated on the paper's shapes. The crossing (paper: ≈10 pages)
/// and the uncached gap (paper: 232×) are reported beside the paper's.
pub fn figure(scale: u32) -> Figure {
    let params = Fig6Params::scaled(scale);
    let series = run_clusters(&params, &[1, 2, 5, 10, 20, 50, 100]);
    let cached = run_cached_oram(&params).throughput;
    let uncached = run_uncached_oram(&params).throughput;
    let unprotected = run_unprotected(&params).throughput;

    let mut fig = Figure::new(
        "Figure 6: effect of cluster size on hash table performance",
        &format!(
            "uthash, {} items x {} B, budget {} pages, {} random reads.",
            params.items, params.item_size, params.budget_pages, params.reads
        ),
    );
    fig.table(
        "pages/cluster | clusters (req/s) | after rehash (req/s) | cached ORAM (req/s)",
        series.iter().map(|(b, a)| {
            let mut row = vec![b.cluster_pages.to_string()];
            row.extend([b.throughput, a.throughput, cached].map(|v| format!("{v:.0}")));
            row
        }),
    );
    let mut gain = f64::INFINITY;
    // The first size whose clusters fall below cached ORAM.
    let mut crossing = 0;
    for (b, a) in &series {
        fig.metric(format!("clusters_{}", b.cluster_pages), b.throughput);
        fig.metric(format!("rehashed_{}", b.cluster_pages), a.throughput);
        gain = gain.min(a.throughput / b.throughput);
        if crossing == 0 && b.throughput < cached {
            crossing = b.cluster_pages;
        }
    }
    let before: Vec<f64> = series.iter().map(|(b, _)| b.throughput).collect();
    let (one, last) = (before[0], before[before.len() - 1]);
    let gap = cached / uncached;
    fig.metric("cached_oram", cached);
    fig.metric("uncached_oram", uncached);
    fig.metric("unprotected", unprotected);
    fig.metric("min_rehash_gain", gain);
    fig.metric("unprotected_over_one_page", unprotected / one);
    fig.metric("crossing_pages", crossing as f64);
    fig.metric("paper_crossing_pages", 10.0);
    fig.metric("cached_over_uncached", gap);
    fig.metric("paper_cached_over_uncached", 232.0);
    let falls = before.windows(2).all(|w| w[1] < w[0]);
    fig.claim("throughput_falls_with_cluster_size", falls);
    fig.claim("rehash_gain", gain >= MIN_REHASH_GAIN);
    fig.claim("unprotected_beats_one_page_clusters", unprotected > one);
    fig.claim("clusters_cross_cached_oram", one > cached && last < cached);
    fig.claim("uncached_oram_far_slower", gap >= MIN_UNCACHED_GAP);
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fig6Params {
        Fig6Params {
            items: 1500,
            item_size: 256,
            max_chain: 10,
            budget_pages: 64,
            reads: 200,
            uncached_reads: 10,
        }
    }

    #[test]
    fn throughput_decreases_with_cluster_size() {
        let params = tiny();
        let series = run_clusters(&params, &[1, 20]);
        assert!(
            series[0].0.throughput > series[1].0.throughput,
            "1-page clusters {} must beat 20-page clusters {}",
            series[0].0.throughput,
            series[1].0.throughput
        );
    }

    #[test]
    fn rehash_improves_throughput() {
        let params = tiny();
        let series = run_clusters(&params, &[10]);
        let (before, after) = &series[0];
        assert!(
            after.throughput > before.throughput,
            "rehash {} must beat pre-rehash {}",
            after.throughput,
            before.throughput
        );
    }

    #[test]
    fn uncached_oram_is_far_slower_than_cached() {
        let params = tiny();
        let cached = run_cached_oram(&params);
        let uncached = run_uncached_oram(&params);
        assert!(
            cached.throughput > uncached.throughput * MIN_UNCACHED_GAP,
            "cached {} vs uncached {} (paper: 232×)",
            cached.throughput,
            uncached.throughput
        );
    }

    #[test]
    fn unprotected_beats_one_page_clusters() {
        let params = tiny();
        let base = run_unprotected(&params);
        let clusters = run_clusters(&params, &[1]);
        assert!(
            base.throughput > clusters[0].0.throughput,
            "unprotected {} vs 1-page clusters {}",
            base.throughput,
            clusters[0].0.throughput
        );
    }
}
