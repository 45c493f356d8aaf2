//! Multi-enclave fleet supervisor over one shared (simulated) EPC.
//!
//! Autarky's §6 extends self-paging to multi-process hosts: several
//! enclaves share one machine's EPC, each self-paging against its own
//! budget. This crate builds the missing management layer for that
//! regime:
//!
//! * [`loadgen`] — seeded open-loop load generation (Poisson/bursty
//!   arrivals, Zipfian key skew) in simulated cycles;
//! * [`supervisor`] — N fleet members behind a deterministic
//!   round-robin scheduler, with per-enclave health checks, an
//!   escalation ladder (retry → quarantine → sealed-snapshot restart →
//!   permanent eviction), admission control that sheds load with
//!   explicit rejections, and cooperative shrink-before-kill
//!   degradation under EPC pressure;
//! * [`report`] — per-enclave p50/p99/p999 latency + throughput
//!   digest and the zero-silent-drop accounting verdict.
//!
//! Everything is deterministic: a scenario is a pure function of its
//! [`FleetConfig`] and load seeds, so failover behavior is replayable
//! and supervisor decisions land in the flight recorder as causal
//! events ([`autarky_os_sim::FlightEvent::Supervisor`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod loadgen;
pub mod report;
pub mod supervisor;

pub use autarky_telemetry::LatencySummary;
pub use autarky_watch::{export_trace, render_alert_log, Alert, Watchtower};
pub use autarky_workloads::request::Request;
pub use loadgen::{kv_stream, spell_stream, Arrivals, LoadConfig, TimedRequest};
pub use report::{FleetReport, MemberReport};
pub use supervisor::{
    Fleet, FleetConfig, FleetError, MemberConfig, MemberState, MemberStats, RejectReason,
    SpanProfileLine, StagedCrash, WorkloadKind,
};
