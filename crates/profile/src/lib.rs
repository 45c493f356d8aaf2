//! Causal cycle-attribution profiler for the Autarky simulator.
//!
//! Joins two existing observability streams — the tagged cost ledger
//! in `sgx-sim` (via its charge journal) and the flight recorder, whose
//! correlation chains and `SpanClose` records give the causal episodes
//! and the spans — into one hierarchical attribution: every simulated
//! cycle of a measured phase lands on a
//! `workload → chain → span… → tag` path, with per-fault latency
//! histograms, per-page-cluster breakdowns, and a gated unattributed
//! residual.
//!
//! Outputs are deterministic byte-for-byte: collapsed-stack folded
//! text, a self-contained SVG flamegraph, and a line-oriented JSON
//! profile with a differential mode (`profile-diff a.json b.json`).
//! [`collect`] is the only runner of the perf scenarios: `bench`
//! campaign cells write all three outputs as artifacts, read cycles/op
//! off the profile, and gate it together with the residual and the hot
//! path against one baseline file ([`baseline_value`]).
//!
//! The profiler is strictly **host-side** tooling: it reads only
//! simulator state the host already owns (the simulated clock and the OS
//! flight recorder) and never widens the enclave's sealed export
//! surface. It reads no host clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod attr;
pub mod collect;
pub mod diff;
pub mod flame;
pub mod profile;
pub mod tree;

pub use collect::{collect, CollectSpec, Observe, PROFILE_POLICIES, PROFILE_WORKLOADS};
pub use diff::ProfileDiff;
pub use flame::{diff_flamegraph, flamegraph};
pub use profile::{baseline_value, ClusterRow, CycleProfile};
pub use tree::ProfileNode;
