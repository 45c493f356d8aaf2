//! Causal cycle-attribution profiler for the Autarky simulator.
//!
//! Joins three existing observability streams — the tagged cost ledger
//! in `sgx-sim` (via its charge journal), the telemetry span ring, and
//! the flight recorder's correlation chains — into one hierarchical
//! attribution: every simulated cycle of a measured phase lands on a
//! `workload → chain → span… → tag` path, with per-fault latency
//! histograms, per-page-cluster breakdowns, and a gated unattributed
//! residual.
//!
//! Outputs are deterministic byte-for-byte: collapsed-stack folded
//! text, a self-contained SVG flamegraph, and a line-oriented JSON
//! profile with a differential mode (`profile-diff a.json b.json`).
//! `profile` campaign cells write all three as artifacts and gate the
//! residual and the hot path.
//!
//! The profiler is strictly **host-side** tooling: it reads only
//! simulator state the host already owns (the simulated clock, the OS
//! flight recorder, the runtime telemetry it instruments) and never
//! widens the enclave's sealed export surface. Host wall-clock numbers
//! exist only in [`collect::Collected::wall`] — never in the
//! byte-compared artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod attr;
pub mod collect;
pub mod diff;
pub mod flame;
pub mod profile;
pub mod tree;

pub use collect::{collect, CollectSpec, Collected, PROFILE_POLICIES, PROFILE_WORKLOADS};
pub use diff::ProfileDiff;
pub use flame::{diff_flamegraph, flamegraph};
pub use profile::{baseline_hot_path, ClusterRow, CycleProfile};
pub use tree::ProfileNode;
