//! Benchmark harness regenerating every table and figure of the Autarky
//! paper's evaluation (§7).
//!
//! Each experiment is a library module (so unit tests can pin the shapes)
//! plus a binary that prints the paper-style rows:
//!
//! | Module / binary | Paper artifact |
//! |---|---|
//! | [`fig5`] / `fig5` | Figure 5 — paging latency breakdown, SGXv1 vs SGXv2 |
//! | [`fig6`] / `fig6` | Figure 6 — cluster size vs ORAM on uthash |
//! | [`fig7`] / `fig7` | Figure 7 — rate-limited paging, 14 Phoenix/PARSEC apps |
//! | [`fig8`] / `fig8` | Figure 8 — Memcached under four paging policies |
//! | [`table2`] / `table2` | Table 2 — libjpeg / Hunspell / FreeType end-to-end |
//! | [`nbench_ov`] / `nbench_overhead` | §7 — TLB-fill check overhead on nbench |
//! | [`ablation`] / `ablation` | Design ablations — batched driver calls, exitless host calls, FIFO vs clock eviction |
//!
//! All binaries accept `--scale N` to run sizes closer to the paper's.
//! The perf scenarios the CI gates hold to a baseline are not here: the
//! profiler (`autarky-profile`) runs them and `bench` campaign cells read
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
