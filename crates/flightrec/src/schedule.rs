//! Recorded schedules: the coordinates that fully determine a run.
//!
//! A schedule is everything the replay engine needs to re-drive os-sim
//! and the runtime into the exact same sequence of decisions: the paging
//! policy, the workload, the build seed, and (when the run was
//! adversarial) the injected fault plan. The workload always runs its
//! secret class 0. A failing cell's
//! forensics prints it in its `Debug` form, which names every field (each
//! fault-plan rate in Rust's shortest round-trip `f64` form), so the
//! report holds all it takes to rebuild the run.

use autarky_os_sim::FaultPlan;

use crate::victim::Victim;

/// The paging policies the determinism gate covers (the three protected
/// configurations with distinct decision surfaces: cluster choice,
/// rate-limit admission, ORAM access).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Self-paging with automatic page clusters.
    Clusters,
    /// Rate-limited demand paging.
    RateLimit,
    /// Cached-ORAM data path (everything pinned).
    CachedOram,
}

impl SchedulePolicy {
    /// Every policy the gate runs.
    pub const ALL: [SchedulePolicy; 3] = [
        SchedulePolicy::Clusters,
        SchedulePolicy::RateLimit,
        SchedulePolicy::CachedOram,
    ];

    /// Stable name: the value of a campaign cell's `policy` axis.
    pub fn name(self) -> &'static str {
        match self {
            SchedulePolicy::Clusters => "clusters",
            SchedulePolicy::RateLimit => "rate-limit",
            SchedulePolicy::CachedOram => "cached-oram",
        }
    }

    /// Resolve a [`SchedulePolicy::name`] back to a policy (campaign
    /// cells name their policy by it).
    pub fn from_name(tag: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == tag)
    }
}

/// A recorded schedule: replaying it reproduces the flight log bit for
/// bit (see [`crate::replay::verify_replay`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Paging policy under test.
    pub policy: SchedulePolicy,
    /// Victim to drive.
    pub workload: Victim,
    /// Build seed (ORAM randomness; also offsets the world seed).
    pub seed: u64,
    /// Injected fault plan for adversarial runs, armed after workload
    /// setup so the secret-dependent phase runs under fire.
    pub fault_plan: Option<FaultPlan>,
}

impl Schedule {
    /// A quiescent (no injected faults) schedule.
    pub fn quiet(policy: SchedulePolicy, workload: Victim, seed: u64) -> Self {
        Self {
            policy,
            workload,
            seed,
            fault_plan: None,
        }
    }

    /// The CI determinism matrix: one short run per paging policy, each
    /// on the workload that exercises that policy's decision surface.
    pub fn ci_matrix() -> Vec<Schedule> {
        vec![
            Schedule::quiet(SchedulePolicy::Clusters, Victim::Spell, 1),
            Schedule::quiet(SchedulePolicy::RateLimit, Victim::Font, 1),
            Schedule::quiet(SchedulePolicy::CachedOram, Victim::Kvstore, 1),
        ]
    }

    /// The restore-determinism matrix: every policy × the two
    /// incremental workloads (spell, kvstore) whose operation loops have
    /// a natural mid-run interruption point for the snapshot → crash →
    /// restore cycle.
    pub fn restore_matrix() -> Vec<Schedule> {
        let mut out = Vec::new();
        for policy in SchedulePolicy::ALL {
            for workload in [Victim::Spell, Victim::Kvstore] {
                out.push(Schedule::quiet(policy, workload, 1));
            }
        }
        out
    }
}
