//! Live fleet watchtower: deterministic streaming detectors over the
//! telemetry/flight stream, causal alerts, and a unified Perfetto
//! trace export.
//!
//! The watchtower consumes the same adversary-visible signals the
//! untrusted host already sees — per-enclave fault counters, request
//! latencies, EPC occupancy, and the causal flight ring — in
//! epoch-sized windows, and runs online detectors over them:
//!
//! * **`fault_cusum`** — EWMA-baselined CUSUM on the per-enclave
//!   fault rate (a `SpuriousEvict` storm shifts it upward long before
//!   a watchdog budget runs dry);
//! * **`entropy_cusum`** — two-sided CUSUM on the Shannon entropy of
//!   fault page addresses (a single-page probe collapses entropy; a
//!   scan inflates it);
//! * **`slo_burn`** — error-budget burn rate against a p99 latency
//!   budget;
//! * **`epc_skew`** — cross-member EPC-pressure skew naming the hog.
//!
//! Everything on the alerting path is integer milli fixed-point
//! ([`detect`]), all timing is simulated cycles, and alert/trace
//! artifacts are pure functions of the window stream — byte-identical
//! across reruns, `--jobs` levels, and host platforms. Detector
//! firings are recorded into the flight ring as
//! `FlightEvent::WatchAlert`, so `causal_root_of_attack` can name the
//! injected fault that provoked an alert, and the fleet supervisor
//! can escalate on them ahead of its watchdog.
//!
//! [`trace::export_trace`] renders the merged flight log as
//! Chrome-trace-event JSON for `ui.perfetto.dev`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod detect;
pub mod tower;
pub mod trace;

pub use detect::{burn_rate_milli, entropy_milli_bits, epc_skew_milli, Cusum, Ewma, MILLI};
pub use tower::{render_alert_log, Alert, WatchConfig, Watchtower};
pub use trace::export_trace;
