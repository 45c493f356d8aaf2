//! Deterministic record/replay and attack forensics on top of the
//! causal flight recorder (`autarky_os_sim::flight`).
//!
//! The recorder gives one causally-ordered event log spanning both trust
//! domains. This crate turns that log into an *artifact* with three
//! consumers:
//!
//! * [`schedule`] — a recorded schedule: the `(policy, workload, secret,
//!   seed, fault plan)` coordinates that fully determine a simulated
//!   run, serialized in the hand-rolled `os-sim::wire` grammar so a
//!   failed CI run can be re-driven locally from a few text lines;
//! * [`replay`] — the replay engine: re-run a schedule from scratch and
//!   assert the flight log and the telemetry snapshot are *bit-identical*
//!   to the recording. The recorder's own observer effect (cycles charged
//!   per record) is part of the replayed state, so a run that records is
//!   compared against a replay that records — never against a silent run;
//! * [`diff`] — the trace-diff: the first line where two flight logs
//!   diverge, with the diverging correlation chains resolved on both
//!   sides so the report names the *causal* split, not just the textual
//!   one.
//!
//! [`restore`] stages the rollback-family attacks against sealed
//! checkpoint/restore. CI drives all of it as campaign cells:
//! [`verify_replay`] behind `replay` cells,
//! [`verify_restore_replay`] and [`rollback_attack_run`] behind
//! `snapshot` cells; a failing cell writes its post-mortem timeline as
//! a `forensics.md` artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod replay;
pub mod restore;
pub mod schedule;

pub use diff::{first_divergence, render_divergence, Divergence};
pub use replay::{
    crash_and_restore, record_run, record_run_with_capacity, record_run_with_restore,
    verify_replay, verify_restore_replay, ReplayVerdict, RunArtifacts, RECORDER_CAPACITY,
};
pub use restore::{rollback_attack_run, RollbackOutcome, RollbackScenario};
pub use schedule::{Schedule, SchedulePolicy, ScheduleWorkload};
