//! Deterministic record/replay and attack forensics on top of the
//! causal flight recorder (`autarky_os_sim::flight`).
//!
//! The recorder gives one causally-ordered event log spanning both trust
//! domains. This crate turns that log into an *artifact* with three
//! consumers:
//!
//! * [`schedule`] — a recorded schedule: the `(policy, workload, seed,
//!   fault plan)` coordinates that fully determine a simulated run,
//!   printed in full in a failed cell's forensics so the run can be
//!   re-driven locally;
//! * [`replay`] — the replay engine: re-run a schedule from scratch and
//!   assert the flight records equal the recording's and the export
//!   plaintext (telemetry snapshot plus the runtime's counters) is
//!   *bit-identical* to it. The recorder's own observer effect (cycles
//!   charged per record) is part of the replayed state, so a run that
//!   records is compared against a replay that records — never against a
//!   silent run;
//! * [`diff`] — the trace-diff: the first record where two flight logs
//!   diverge, printed in full on both sides with its correlation chain
//!   resolved, so the report names the *causal* split, not just the
//!   differing record.
//!
//! [`victim`] is the program a schedule runs: the four secret-pair
//! victims, their world builder, and the failover cycle. The leakage
//! audit drives the same module, so its bits/run and the determinism
//! checked here describe one program. [`restore`] stages the
//! rollback-family attacks against sealed checkpoint/restore. CI drives all of it as campaign cells:
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
pub mod victim;

pub use diff::{first_divergence, render_divergence, Divergence};
pub use replay::{
    record_run, record_run_with_capacity, record_run_with_restore, verify_replay,
    verify_restore_replay, ReplayVerdict, RunArtifacts, RECORDER_CAPACITY,
};
pub use restore::{rollback_attack_run, RollbackOutcome, RollbackScenario};
pub use schedule::{Schedule, SchedulePolicy};
pub use victim::{build_world, crash_and_restore, Victim};
