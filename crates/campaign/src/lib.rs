//! Config-driven experiment campaign runner.
//!
//! The evaluation of a self-paging-enclave system is a *matrix*, not a
//! script: policy × workload × enclave size × fault plan × traffic
//! shape × seed, sliced differently for each experiment family. Before
//! this crate, every CI gate and EXPERIMENTS.md recipe hand-rolled its
//! own slice with bespoke flags. `autarky-campaign` replaces that with
//! one declarative TOML config:
//!
//! * [`toml`] parses the offline TOML subset the configs use;
//! * [`config`] expands `[matrix]` axes × `[[suite]]` overrides into
//!   [`cell::CellSpec`]s, each content-addressed by a hash of
//!   everything that affects its outcome;
//! * [`runner`] executes cells on a thread pool, journaling every
//!   completion through [`journal`] so an interrupted campaign resumes
//!   without re-running finished cells;
//! * [`kinds`] maps each cell onto its subsystem (bench / leakage /
//!   replay / snapshot / fleet / watch / profile / figure) as a library
//!   call, returning its artifacts (reports, forensics, traces,
//!   flamegraphs) for the journal to write into `cells/<id>/`;
//! * [`report`] renders one JSON + markdown report whose bytes are
//!   identical whether or not the run was interrupted.
//!
//! The `campaign` binary wires these together behind `--config`,
//! `--out`, `--jobs`, `--dry-run`, and `--fresh`. It is the only gate
//! driver: every CI gate is one config under `examples/campaigns/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cell;
pub mod config;
pub mod journal;
pub mod kinds;
pub mod report;
pub mod runner;
pub mod toml;

pub use cell::{Artifacts, CellKind, CellOutcome, CellSpec, GateOutcome, SuiteParams};
pub use config::{CampaignConfig, ConfigError};
pub use journal::Journal;
pub use kinds::execute_cell;
pub use report::{render_bench_trend, CampaignReport};
pub use runner::{run_cells, CellRun};
