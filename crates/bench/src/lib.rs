//! Benchmark harness regenerating every table and figure of the Autarky
//! paper's evaluation (§7).
//!
//! Each experiment is a library module (so unit tests can pin the shapes)
//! whose `figure(scale)` runs the artifact and returns a [`Figure`]: the
//! table as markdown, its numbers, and the paper's claims about it, each
//! checked against what was measured. [`FIGURES`] names them; the
//! campaign's `figure` cells are the one entry point
//! (`examples/campaigns/claims.toml` runs all seven and fails on any
//! claim that does not hold).
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig5`] | Figure 5 — paging latency breakdown, SGXv1 vs SGXv2 |
//! | [`fig6`] | Figure 6 — cluster size vs ORAM on uthash |
//! | [`fig7`] | Figure 7 — rate-limited paging, 14 Phoenix/PARSEC apps |
//! | [`fig8`] | Figure 8 — Memcached under four paging policies |
//! | [`table2`] | Table 2 — libjpeg / Hunspell / FreeType end-to-end |
//! | [`nbench_ov`] | §7 — TLB-fill check overhead on nbench |
//! | [`ablation`] | Design ablations — batched driver calls, exitless host calls, FIFO vs clock eviction |
//!
//! Scale 1 is ≈1/64 of the paper's data sizes; larger scales run
//! bigger workloads closer to the paper's. The perf scenarios the CI
//! gates hold to a baseline are not here: the profiler
//! (`autarky-profile`) runs them and `bench` campaign cells read
//! cycles/op off its profile. Host time is measured by `benchmark/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod nbench_ov;
pub mod table2;
pub mod util;

/// One paper artifact, measured: what its `figure(scale)` returns.
#[derive(Debug, Default)]
pub struct Figure {
    /// The artifact's table(s) as markdown.
    pub table: String,
    /// Its numbers by name: every value a claim rests on is one. A
    /// `paper_` prefix marks the paper's value for a number the
    /// reproduction is known to miss (reported, not gated).
    pub metrics: Vec<(String, f64)>,
    /// The paper's claims about the artifact, by name, and whether each
    /// holds at this run.
    pub claims: Vec<(&'static str, bool)>,
}

impl Figure {
    /// A figure whose markdown opens with `title` and `caption`.
    pub fn new(title: &str, caption: &str) -> Self {
        Self {
            table: format!("# {title}\n\n{caption}\n\n"),
            ..Self::default()
        }
    }

    /// Append a markdown table: `header` holds the column names joined
    /// by `" | "`, and each row one cell per column.
    pub fn table(&mut self, header: &str, rows: impl IntoIterator<Item = Vec<String>>) {
        let columns = header.split(" | ").count();
        self.table
            .push_str(&format!("| {header} |\n{}|\n", "|---".repeat(columns)));
        for row in rows {
            self.table.push_str(&format!("| {} |\n", row.join(" | ")));
        }
    }

    /// Report `value` as the metric `name`.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Record the claim `name`, holding iff `holds`.
    pub fn claim(&mut self, name: &'static str, holds: bool) {
        self.claims.push((name, holds));
    }
}

/// Runs one artifact at a scale: an entry of [`FIGURES`].
pub type FigureFn = fn(u32) -> Figure;

/// Every paper artifact by name: the vocabulary of `figure` cells.
pub const FIGURES: [(&str, FigureFn); 7] = [
    ("fig5", fig5::figure),
    ("fig6", fig6::figure),
    ("fig7", fig7::figure),
    ("fig8", fig8::figure),
    ("table2", table2::figure),
    ("nbench", nbench_ov::figure),
    ("ablation", ablation::figure),
];
