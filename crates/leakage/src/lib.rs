//! Quantitative side-channel audit for the Autarky reproduction.
//!
//! The paper's security argument (§5.2) is qualitative: masked fault
//! reports close the page-fault channel, clusters coarsen the residual
//! self-paging channel to anonymity sets, the rate limit bounds it to ε
//! bits per unit of progress, and ORAM paging eliminates it. This crate
//! turns that argument into *numbers* and into a regression gate:
//!
//! * [`trace`] — a compact serializable trace of everything the
//!   adversary observed during a run, built on the `os-sim` wire format,
//!   with a deterministic replay loader;
//! * [`capture`] — the capture hook: a cursor pair over the OS
//!   observation stream and the ORAM bucket log, so a workload phase can
//!   be bracketed and its adversary view extracted without draining
//!   events other consumers need;
//! * [`metrics`] — distinguishability analysis over paired runs:
//!   per-symbol histograms, total-variation distance, a capped
//!   edit-distance diagnostic, leave-one-out nearest-centroid
//!   classification, and the Fano bound converting classifier accuracy
//!   into empirical mutual information (bits);
//! * [`audit`] — the audit harness: K=2 secret classes × N seeds per
//!   (workload × policy) cell, sweeping the unprotected baseline against
//!   rate-limited, clustered, and cached-ORAM self-paging, with
//!   pass/fail thresholds (baseline must be distinguishable, ORAM must
//!   not be, the rate limit must hold its ε budget).
//!
//! CI runs the full matrix as `leakage` campaign cells, one per
//! (policy × workload) audit cell (`examples/campaigns/leakage.toml`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod capture;
pub mod metrics;
pub mod trace;

pub use audit::{
    policy_names, run_audit, run_audit_filtered, workload_names, AuditConfig, AuditReport,
    CellResult, Gate, RateGate,
};
pub use capture::Capture;
pub use metrics::{
    distinguishability, edit_distance_normalized, normalized_histogram, tv_distance,
    Distinguishability,
};
pub use trace::{Trace, TraceMeta};
