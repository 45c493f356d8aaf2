//! Recorded schedules: the coordinates that fully determine a run.
//!
//! A schedule is everything the replay engine needs to re-drive os-sim
//! and the runtime into the exact same sequence of decisions: the paging
//! policy, the workload, the secret class, the build seed, and (when the
//! run was adversarial) the injected fault plan. It serializes to a few
//! text lines in the `os-sim::wire` idiom — line-oriented, serde-free,
//! exactly round-trippable:
//!
//! ```text
//! # autarky flightrec schedule v1
//! run policy=clusters workload=spell secret=0 seed=1
//! plan seed=9 nomem=0000000000000000 ...        (optional)
//! ```

use autarky_os_sim::wire::{decode_fault_plan, encode_fault_plan, WireError};
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

    /// Stable wire tag.
    pub fn name(self) -> &'static str {
        match self {
            SchedulePolicy::Clusters => "clusters",
            SchedulePolicy::RateLimit => "rate-limit",
            SchedulePolicy::CachedOram => "cached-oram",
        }
    }

    /// Resolve a wire tag back to a policy (external matrix drivers
    /// name cells by these tags).
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
    /// Secret class (selects one side of the workload's secret pair).
    pub secret: u32,
    /// Build seed (ORAM randomness; also offsets the world seed).
    pub seed: u64,
    /// Injected fault plan for adversarial runs, armed after workload
    /// setup so the secret-dependent phase runs under fire.
    pub fault_plan: Option<FaultPlan>,
}

impl Schedule {
    /// A quiescent (no injected faults) schedule.
    pub fn quiet(policy: SchedulePolicy, workload: Victim, secret: u32, seed: u64) -> Self {
        Self {
            policy,
            workload,
            secret,
            seed,
            fault_plan: None,
        }
    }

    /// The CI determinism matrix: one short run per paging policy, each
    /// on the workload that exercises that policy's decision surface.
    pub fn ci_matrix() -> Vec<Schedule> {
        vec![
            Schedule::quiet(SchedulePolicy::Clusters, Victim::Spell, 0, 1),
            Schedule::quiet(SchedulePolicy::RateLimit, Victim::Font, 0, 1),
            Schedule::quiet(SchedulePolicy::CachedOram, Victim::Kvstore, 0, 1),
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
                out.push(Schedule::quiet(policy, workload, 0, 1));
            }
        }
        out
    }

    /// Serialize in the wire grammar (round-trips via [`Schedule::from_text`]).
    pub fn to_text(&self) -> String {
        let mut out = String::from("# autarky flightrec schedule v1\n");
        out.push_str(&format!(
            "run policy={} workload={} secret={} seed={}\n",
            self.policy.name(),
            self.workload.name(),
            self.secret,
            self.seed
        ));
        if let Some(plan) = &self.fault_plan {
            out.push_str(&encode_fault_plan(plan));
            out.push('\n');
        }
        out
    }

    /// Parse a schedule produced by [`Schedule::to_text`]. Comments and
    /// blank lines are skipped, matching the rest of the wire grammar.
    pub fn from_text(text: &str) -> Result<Schedule, WireError> {
        let mut run: Option<Schedule> = None;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("run ") {
                run = Some(parse_run_line(rest, line)?);
            } else if line.starts_with("plan ") {
                let schedule = run.as_mut().ok_or(WireError {
                    what: "plan before run line",
                    line: line.to_owned(),
                })?;
                schedule.fault_plan = Some(decode_fault_plan(line)?);
            } else {
                return Err(WireError {
                    what: "schedule line",
                    line: line.to_owned(),
                });
            }
        }
        run.ok_or(WireError {
            what: "missing run line",
            line: text.lines().next().unwrap_or("").to_owned(),
        })
    }
}

fn parse_run_line(rest: &str, line: &str) -> Result<Schedule, WireError> {
    let mut policy = None;
    let mut workload = None;
    let mut secret = None;
    let mut seed = None;
    for field in rest.split_whitespace() {
        let (key, value) = field.split_once('=').ok_or(WireError {
            what: "key=value",
            line: line.to_owned(),
        })?;
        let bad = |what| WireError {
            what,
            line: line.to_owned(),
        };
        match key {
            "policy" => {
                policy = Some(SchedulePolicy::from_name(value).ok_or(bad("policy tag"))?);
            }
            "workload" => {
                workload = Some(Victim::from_name(value).ok_or(bad("workload tag"))?);
            }
            "secret" => secret = Some(value.parse().map_err(|_| bad("secret"))?),
            "seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            _ => return Err(bad("run key")),
        }
    }
    let missing = |what| WireError {
        what,
        line: line.to_owned(),
    };
    Ok(Schedule {
        policy: policy.ok_or(missing("missing policy"))?,
        workload: workload.ok_or(missing("missing workload"))?,
        secret: secret.ok_or(missing("missing secret"))?,
        seed: seed.ok_or(missing("missing seed"))?,
        fault_plan: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_without_plan() {
        for schedule in Schedule::ci_matrix() {
            let text = schedule.to_text();
            assert_eq!(Schedule::from_text(&text).expect("parses"), schedule);
        }
    }

    #[test]
    fn roundtrip_with_plan() {
        let schedule = Schedule {
            fault_plan: Some(FaultPlan {
                spurious_evict: 1.0,
                ..FaultPlan::transient_only(9, 0.125)
            }),
            ..Schedule::quiet(SchedulePolicy::Clusters, Victim::Kvstore, 1, 7)
        };
        let text = schedule.to_text();
        assert_eq!(Schedule::from_text(&text).expect("parses"), schedule);
    }

    #[test]
    fn malformed_schedules_are_rejected() {
        for bad in [
            "",
            "run policy=clusters workload=spell secret=0",
            "run policy=nope workload=spell secret=0 seed=1",
            "plan seed=1\nrun policy=clusters workload=spell secret=0 seed=1",
            "run policy=clusters workload=spell secret=0 seed=1\nwhat is this",
        ] {
            assert!(Schedule::from_text(bad).is_err(), "{bad:?}");
        }
    }
}
