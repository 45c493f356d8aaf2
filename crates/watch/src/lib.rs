//! Live fleet watchtower: a deterministic streaming SLO-burn detector,
//! causal alerts, and a unified Perfetto trace export.
//!
//! The watchtower consumes a signal the untrusted host already sees —
//! each member's dispatch service times, handed over by the fleet
//! supervisor — in epoch-sized windows, and judges every window by
//! **`slo_burn`**: the error-budget burn rate against a p99 latency
//! budget.
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

pub use detect::burn_rate_milli;
pub use tower::{render_alert_log, Alert, Watchtower};
pub use trace::export_trace;
