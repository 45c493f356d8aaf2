//! The trusted self-paging enclave runtime — Autarky's software half
//! (paper §5.2).
//!
//! Autarky's ISA changes guarantee that every enclave page fault reaches
//! trusted code; this crate is that trusted code. It implements:
//!
//! * [`runtime`] — the [`Runtime`]: enclave-managed page tracking, the
//!   fault handler with attack detection, budgeted FIFO self-paging over
//!   both SGXv1 (`EWB`/`ELDU`) and SGXv2 (software-sealed) mechanisms,
//!   and the lazy heap allocator with automatic data clustering;
//! * [`cluster`] — the page-cluster abstraction (§5.2.3, Table 1) with
//!   the residency invariant and transitive fetch sets;
//! * [`ratelimit`] — the bounded-leakage fault-rate policy for
//!   unmodified binaries (§5.2.4);
//! * [`paging`] — software page sealing with anti-replay versions;
//! * [`error`] — policy-level errors, including
//!   [`RtError::AttackDetected`].
//!
//! The third paging scheme of the paper — cached ORAM (§5.2.2) — composes
//! this runtime (which pins the cache pages) with the `autarky-oram`
//! crate; the glue lives in `autarky-workloads::encmem`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Trusted code must degrade gracefully, never abort: every fallible path
// returns a typed `RtError` (see DESIGN.md, "Threat model under OS
// misbehavior").
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cluster;
pub mod error;
pub mod paging;
pub mod ratelimit;
pub mod runtime;

pub use cluster::{ClusterCapture, ClusterId, ClusterMap};
pub use error::RtError;
pub use ratelimit::{RateLimit, RateLimiter};
pub use runtime::{
    is_telemetry_export_key, telemetry_export_key, HardenConfig, PagingMechanism, PolicyMeta,
    PolicyMode, RtStats, Runtime, RuntimeConfig, TELEMETRY_EXPORT_KEY_BIT,
};
