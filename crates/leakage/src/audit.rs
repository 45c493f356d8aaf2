//! The leakage audit harness: paired secret runs across the policy ×
//! workload matrix, distinguishability per cell, and the CI gates.
//!
//! For every cell the harness runs K=2 secret classes × N seeds, captures
//! the adversary view of the secret-dependent phase only (setup —
//! loading dictionaries, populating stores — is public), and feeds the
//! traces to [`distinguishability`]. The gates encode the paper's
//! claims:
//!
//! * **baseline** (vanilla SGX + fault tracer): the adversary *must*
//!   distinguish the secrets — if it can't, the audit itself is broken
//!   (sanity gate, MI ≥ threshold);
//! * **cached-oram** (§5.2.2): bucket traffic must be independent of the
//!   secret (MI ≤ threshold);
//! * **rate-limit** (§5.2.4): observed faults must stay within the
//!   configured bound, i.e. measured bits/progress ≤ the ε budget;
//! * **clusters** (§5.2.3): informational — the report shows how much
//!   the anonymity sets coarsen the channel, but cluster sizing is a
//!   policy choice, not a pass/fail;
//! * **restore** (sealed checkpoint/restore): the secret phase is
//!   interrupted by a snapshot → host crash → failover-restore cycle,
//!   and the audit isolates what that cycle itself hands the OS — the
//!   sealed blob's transport chunks. The chunk sequence must be
//!   independent of the secret (MI ≤ threshold): this is the size
//!   channel the snapshot payload padding exists to close.
//! * **fleet** (multi-tenant EPC): two enclaves share one machine's
//!   EPC; the *secret tenant* processes the cell workload's secret
//!   phase while a neighbor serves a fixed public request sequence.
//!   The adversary view is every kernel event attributable to the
//!   *neighbor* — the gate asks whether the co-tenant's secret
//!   modulates the neighbor's paging trace through the shared machine
//!   (MI ≤ threshold), i.e. whether self-paging budgets actually
//!   isolate tenants from each other's access patterns.

use autarky_flightrec::{build_world, crash_and_restore, SchedulePolicy, Victim};
use autarky_os_sim::{EnclaveImage, Observation};
use autarky_runtime::{is_telemetry_export_key, RateLimit, RuntimeConfig};
use autarky_sgx_sim::EnclaveId;
use autarky_workloads::{kvstore, EncHeap, World};

use crate::capture::Capture;
use crate::metrics::{distinguishability, Distinguishability};
use crate::trace::Trace;

/// The baseline sanity gate: minimum MI (bits/run) the unprotected
/// configuration must leak.
pub const BASELINE_MIN_MI: f64 = 0.9;
/// The ORAM gate: maximum MI (bits/run) the cached-ORAM configuration
/// may leak. The telemetry, restore and fleet cells hold their isolated
/// channels to the same bound.
pub const ORAM_MAX_MI: f64 = 0.25;

/// The audited protection policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    Baseline,
    RateLimit,
    Clusters,
    CachedOram,
    /// Self-paging with periodic sealed telemetry exports; the audit
    /// isolates the export channel and gates its distinguishability.
    Telemetry,
    /// Self-paging with a mid-phase sealed snapshot → crash → failover
    /// restore; the audit isolates the snapshot transport channel and
    /// gates its distinguishability.
    Restore,
    /// Two self-paging tenants on one shared EPC; the audit isolates
    /// the *neighbor's* trace and gates whether the co-tenant's secret
    /// bleeds into it.
    Fleet,
}

impl Policy {
    const ALL: [Policy; 7] = [
        Policy::Baseline,
        Policy::RateLimit,
        Policy::Clusters,
        Policy::CachedOram,
        Policy::Telemetry,
        Policy::Restore,
        Policy::Fleet,
    ];

    fn name(self) -> &'static str {
        match self {
            Policy::Baseline => "baseline",
            Policy::RateLimit => "rate-limit",
            Policy::Clusters => "clusters",
            Policy::CachedOram => "cached-oram",
            Policy::Telemetry => "telemetry",
            Policy::Restore => "restore",
            Policy::Fleet => "fleet",
        }
    }

    /// The paging protection the cell's victim runs under (`None`:
    /// vanilla SGX). The telemetry, restore and fleet cells run
    /// ordinary self-paging; what they audit is the traffic layered on
    /// top (exports, snapshot transport, the neighbor's paging).
    fn protection(self) -> Option<SchedulePolicy> {
        match self {
            Policy::Baseline => None,
            Policy::RateLimit => Some(SchedulePolicy::RateLimit),
            Policy::CachedOram => Some(SchedulePolicy::CachedOram),
            Policy::Clusters | Policy::Telemetry | Policy::Restore | Policy::Fleet => {
                Some(SchedulePolicy::Clusters)
            }
        }
    }
}

/// Per-run bookkeeping the rate gate needs.
#[derive(Debug, Clone, Copy, Default)]
struct RunStats {
    faults: u64,
    progress: u64,
    tracked_pages: usize,
    rate_limit: Option<RateLimit>,
    terminated: bool,
}

/// The rate-limit gate evidence for one cell (worst run shown).
#[derive(Debug, Clone, PartialEq)]
pub struct RateGate {
    /// Faults the runtime handled in the worst run.
    pub faults: u64,
    /// Forward progress in that run.
    pub progress: u64,
    /// Faults the policy would have tolerated at that progress.
    pub allowed: f64,
    /// Measured leakage rate: post-burst faults × log2(tracked pages) /
    /// progress, in bits per unit of progress.
    pub measured_bits_per_progress: f64,
    /// The configured ε budget in bits per unit of progress.
    pub budget_bits_per_progress: f64,
}

/// Gate outcome for one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Threshold held.
    Pass,
    /// Threshold violated (fails the audit).
    Fail,
    /// No threshold applies to this cell.
    Info,
}

/// One (policy × workload) cell of the audit matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Policy label.
    pub policy: &'static str,
    /// Workload label.
    pub workload: &'static str,
    /// Distinguishability summary over the captured traces.
    pub dist: Distinguishability,
    /// Rate-limit evidence (rate-limit cells only).
    pub rate: Option<RateGate>,
    /// Gate outcome.
    pub gate: Gate,
    /// Human-readable gate explanation.
    pub reason: String,
}

/// The full audit result.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Seeds per class the audit ran with.
    pub seeds: usize,
    /// All cells, policy-major order.
    pub cells: Vec<CellResult>,
    /// Conjunction of every gated cell.
    pub pass: bool,
}

/// Stable policy labels of the audit matrix, in report order (the
/// vocabulary external matrix drivers select cells by).
pub fn policy_names() -> [&'static str; 7] {
    Policy::ALL.map(Policy::name)
}

/// Run a subset of the matrix with `seeds` runs (≥ 2) per secret class
/// per cell: `only` holds `policy/workload` labels (e.g.
/// `cached-oram/spell`); empty runs everything.
pub fn run_audit_filtered(seeds: usize, only: &[String]) -> AuditReport {
    assert!(seeds >= 2, "need ≥2 seeds per class");
    let mut cells = Vec::new();
    for policy in Policy::ALL {
        for workload in Victim::ALL {
            let label = format!("{}/{}", policy.name(), workload.name());
            if only.is_empty() || only.iter().any(|o| o == &label) {
                cells.push(audit_cell(seeds, policy, workload));
            }
        }
    }
    let pass = cells.iter().all(|c| c.gate != Gate::Fail);
    AuditReport { seeds, cells, pass }
}

fn audit_cell(seeds: usize, policy: Policy, workload: Victim) -> CellResult {
    let mut classes: [Vec<Vec<u64>>; 2] = [Vec::new(), Vec::new()];
    let mut worst_rate: Option<RateGate> = None;
    for secret in 0..2u32 {
        for seed in 0..seeds as u64 {
            let (trace, stats) = run_one(policy, workload, secret, seed);
            assert!(
                !stats.terminated,
                "{}/{} secret {secret} seed {seed}: enclave terminated under audit load",
                policy.name(),
                workload.name()
            );
            classes[secret as usize].push(trace.symbols());
            if let Some(limit) = stats.rate_limit {
                let gate = rate_gate(&stats, limit);
                let is_worse = worst_rate
                    .as_ref()
                    .map(|w| gate.measured_bits_per_progress > w.measured_bits_per_progress)
                    .unwrap_or(true);
                if is_worse {
                    worst_rate = Some(gate);
                }
            }
        }
    }
    let dist = distinguishability(&classes[0], &classes[1]);

    let (gate, reason) = match policy {
        Policy::Baseline => {
            if dist.mi_bits >= BASELINE_MIN_MI {
                (
                    Gate::Pass,
                    format!(
                        "sanity: baseline leaks {:.2} ≥ {:.2} bits/run",
                        dist.mi_bits, BASELINE_MIN_MI
                    ),
                )
            } else {
                (
                    Gate::Fail,
                    format!(
                        "audit broken: baseline leaks only {:.2} < {:.2} bits/run",
                        dist.mi_bits, BASELINE_MIN_MI
                    ),
                )
            }
        }
        Policy::CachedOram => {
            if dist.mi_bits <= ORAM_MAX_MI {
                (
                    Gate::Pass,
                    format!(
                        "ORAM indistinguishable: {:.2} ≤ {:.2} bits/run",
                        dist.mi_bits, ORAM_MAX_MI
                    ),
                )
            } else {
                (
                    Gate::Fail,
                    format!(
                        "ORAM leaks {:.2} > {:.2} bits/run",
                        dist.mi_bits, ORAM_MAX_MI
                    ),
                )
            }
        }
        Policy::RateLimit => match &worst_rate {
            Some(rate) if (rate.faults as f64) <= rate.allowed => (
                Gate::Pass,
                format!(
                    "within budget: {:.3} ≤ {:.3} bits/progress ({} faults / {} progress)",
                    rate.measured_bits_per_progress,
                    rate.budget_bits_per_progress,
                    rate.faults,
                    rate.progress
                ),
            ),
            Some(rate) => (
                Gate::Fail,
                format!(
                    "over budget: {} faults > {:.1} allowed at progress {}",
                    rate.faults, rate.allowed, rate.progress
                ),
            ),
            None => (Gate::Fail, "rate-limit run recorded no policy".to_owned()),
        },
        Policy::Clusters => (
            Gate::Info,
            format!(
                "anonymity sets: cross-class TV {:.2}, MI {:.2} bits/run",
                dist.mean_cross_tv, dist.mi_bits
            ),
        ),
        Policy::Telemetry => {
            if dist.mean_symbols[0] == 0.0 && dist.mean_symbols[1] == 0.0 {
                (
                    Gate::Fail,
                    "telemetry cell captured no export traffic".to_owned(),
                )
            } else if dist.mi_bits <= ORAM_MAX_MI {
                (
                    Gate::Pass,
                    format!(
                        "telemetry export indistinguishable: {:.2} ≤ {:.2} bits/run",
                        dist.mi_bits, ORAM_MAX_MI
                    ),
                )
            } else {
                (
                    Gate::Fail,
                    format!(
                        "telemetry export leaks {:.2} > {:.2} bits/run",
                        dist.mi_bits, ORAM_MAX_MI
                    ),
                )
            }
        }
        Policy::Restore => {
            if dist.mean_symbols[0] == 0.0 && dist.mean_symbols[1] == 0.0 {
                (
                    Gate::Fail,
                    "restore cell captured no snapshot transport".to_owned(),
                )
            } else if dist.mi_bits <= ORAM_MAX_MI {
                (
                    Gate::Pass,
                    format!(
                        "sealed snapshot transport indistinguishable: {:.2} ≤ {:.2} bits/run",
                        dist.mi_bits, ORAM_MAX_MI
                    ),
                )
            } else {
                (
                    Gate::Fail,
                    format!(
                        "sealed snapshot transport leaks {:.2} > {:.2} bits/run \
                         (blob size channel open?)",
                        dist.mi_bits, ORAM_MAX_MI
                    ),
                )
            }
        }
        Policy::Fleet => {
            if dist.mean_symbols[0] == 0.0 && dist.mean_symbols[1] == 0.0 {
                (
                    Gate::Fail,
                    "fleet cell captured no neighbor traffic".to_owned(),
                )
            } else if dist.mi_bits <= ORAM_MAX_MI {
                (
                    Gate::Pass,
                    format!(
                        "cross-tenant isolation holds: neighbor trace leaks \
                         {:.2} ≤ {:.2} bits/run",
                        dist.mi_bits, ORAM_MAX_MI
                    ),
                )
            } else {
                (
                    Gate::Fail,
                    format!(
                        "neighbor trace leaks {:.2} > {:.2} bits/run of the \
                         co-tenant's secret",
                        dist.mi_bits, ORAM_MAX_MI
                    ),
                )
            }
        }
    };

    CellResult {
        policy: policy.name(),
        workload: workload.name(),
        dist,
        rate: worst_rate,
        gate,
        reason,
    }
}

fn rate_gate(stats: &RunStats, limit: RateLimit) -> RateGate {
    let bits_per_fault = (stats.tracked_pages.max(2) as f64).log2();
    let billable = stats.faults.saturating_sub(limit.burst) as f64;
    let measured = if stats.progress == 0 {
        // No progress: only the burst allowance applies; any billable
        // fault is an infinite rate. Surface it as such.
        if billable > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        billable * bits_per_fault / stats.progress as f64
    };
    RateGate {
        faults: stats.faults,
        progress: stats.progress,
        allowed: limit.allowed_faults(stats.progress),
        measured_bits_per_progress: measured,
        budget_bits_per_progress: limit.budget_bits_per_progress(stats.tracked_pages),
    }
}

// ----------------------------------------------------------------------
// Per-run execution.
// ----------------------------------------------------------------------

/// Self-paging resident budget of an audited world. It does not make
/// every victim page; [`build_world`] records which runs do.
const BUDGET_PAGES: usize = 48;

/// Build the world for one audited run. Only the ORAM profile consumes
/// the seed (position-map randomness); deterministic profiles produce
/// identical traces across seeds, which the analysis handles (zero
/// within-class variance).
fn audit_world(policy: Policy, seed: u64) -> (World, EncHeap) {
    build_world(policy.protection(), BUDGET_PAGES, 0xA0D1_7000 + seed * 7919)
}

/// The adversary's view of one failover cycle: one [`UntrustedAccess`]
/// event per page-sized chunk of the `len`-byte sealed blob the OS
/// transported.
///
/// [`UntrustedAccess`]: autarky_os_sim::Observation::UntrustedAccess
fn transport_observations(len: usize) -> Vec<Observation> {
    (0..autarky_snapshot::transport_chunks(len))
        .map(|chunk| Observation::UntrustedAccess {
            key: autarky_snapshot::snapshot_transport_key(chunk),
            write: true,
        })
        .collect()
}

fn run_one(policy: Policy, victim: Victim, secret: u32, seed: u64) -> (Trace, RunStats) {
    if policy == Policy::Fleet {
        return run_fleet_cell(victim, secret, seed);
    }
    let (mut world, mut heap) = audit_world(policy, seed);
    let phase = victim
        .setup(&mut world, &mut heap, secret)
        .expect("victim setup");
    let ops = phase.ops();
    let targets = phase.targets.clone();
    let mut capture = None;
    let mut transport = Vec::new();
    phase
        .run(&mut world, &mut heap, |world, heap, done| {
            if done == 0 {
                if policy == Policy::Baseline {
                    // The legacy fault-tracing attacker: every first touch
                    // of a target (and every page transition) faults with
                    // an unmasked address. Targets are armed at full
                    // density — the tracer resolves accesses that
                    // straddle two adjacent armed pages itself (see
                    // `Os::arm_fault_tracer`).
                    world
                        .os
                        .arm_fault_tracer(world.eid, targets.iter().copied())
                        .expect("tracer arms");
                }
                capture = Some(Capture::begin(&world.os, heap));
            }
            // The one-op victims export once, after their operation.
            if policy == Policy::Telemetry && (victim.exports_at(done) || done == ops) {
                world.rt.export_epoch(&mut world.os)?;
            }
            // The checkpoint's resident set reflects the secret-dependent
            // operations processed so far.
            if policy == Policy::Restore && done == victim.failover_point() {
                transport = transport_observations(crash_and_restore(world));
            }
            Ok(())
        })
        .expect("secret phase");
    let mut events = capture.expect("phase ran").finish(&world.os, &heap);
    events.extend(transport);
    if policy == Policy::Telemetry {
        // The telemetry cell isolates the export channel: paging traffic
        // is already audited by the other cells, so the adversary view
        // here is exactly the sealed-snapshot writes.
        events.retain(|ev| {
            matches!(ev, Observation::UntrustedAccess { key, .. }
                if is_telemetry_export_key(*key))
        });
    }
    if policy == Policy::Restore {
        // Likewise the restore cell isolates the snapshot transport:
        // the paging traffic around it is the clusters cell's job.
        events.retain(|ev| {
            matches!(ev, Observation::UntrustedAccess { key, .. }
                if autarky_snapshot::is_snapshot_transport_key(*key))
        });
    }
    let stats = RunStats {
        faults: world.rt.fault_count(),
        progress: world.rt.progress_total(),
        tracked_pages: world.rt.tracked_pages(),
        rate_limit: world.rt.rate_limit(),
        terminated: world.rt.is_terminated(),
    };
    (Trace { events }, stats)
}

// ----------------------------------------------------------------------
// The fleet cell: two tenants on one shared EPC.
// ----------------------------------------------------------------------

/// Fleet-cell sizing for the observed neighbor: 128 items at two per
/// page is a 64-page value working set, wider than [`BUDGET_PAGES`].
const FLEET_NEIGHBOR_ITEMS: u64 = 128;
const FLEET_NEIGHBOR_VALUE: usize = 2048;

/// The enclave an observation is attributable to, if any (untrusted
/// buffer accesses carry no enclave identity).
fn observation_eid(ev: &Observation) -> Option<EnclaveId> {
    match ev {
        Observation::Fault { eid, .. }
        | Observation::FetchSyscall { eid, .. }
        | Observation::EvictSyscall { eid, .. }
        | Observation::AllocSyscall { eid, .. }
        | Observation::SetEnclaveManaged { eid, .. }
        | Observation::SetOsManaged { eid, .. }
        | Observation::DemandPaging { eid, .. }
        | Observation::AdBitObserved { eid, .. }
        | Observation::FaultInjected { eid, .. } => Some(*eid),
        Observation::UntrustedAccess { .. } => None,
    }
}

/// Whether the neighbor serves a chunk after operation `done` of an
/// `ops`-operation phase: four times across a multi-op phase, before
/// and after a one-op phase.
fn neighbor_turn(ops: usize, done: usize) -> bool {
    ops == 1 || (done > 0 && done.is_multiple_of(ops / 4))
}

/// One run of the fleet cell: tenant B processes the victim's secret
/// phase while neighbor A serves fixed public kvstore GETs, interleaved
/// so both tenants page against the shared EPC at once. The trace keeps
/// only events attributable to A — what an adversary colocated with the
/// *neighbor* learns about B's secret.
fn run_fleet_cell(victim: Victim, secret: u32, seed: u64) -> (Trace, RunStats) {
    // Neighbor A (the observed tenant) comes up through the ordinary
    // builder path.
    let (mut world, mut heap_a) = audit_world(Policy::Fleet, seed);
    let eid_a = world.eid;
    let mut store_a = kvstore::KvStore::new(
        &mut world,
        &mut heap_a,
        FLEET_NEIGHBOR_ITEMS,
        FLEET_NEIGHBOR_VALUE,
        kvstore::ItemClustering::None,
    )
    .expect("neighbor store");
    store_a
        .load(&mut world, &mut heap_a, FLEET_NEIGHBOR_ITEMS)
        .expect("neighbor load");

    // Tenant B (the secret tenant) attaches to the same host, sharing
    // its EPC, and takes the world over; A waits in `neighbor`.
    // Everything before the mark — including B's victim setup, which is
    // secret-independent — is public; the A-filtered capture only sees
    // what A does afterwards anyway.
    let mut image = EnclaveImage::named("fleet-secret-tenant");
    image.heap_pages = 1024;
    let mut neighbor = World::attach_to(
        &mut world.os,
        image,
        RuntimeConfig {
            budget: BUDGET_PAGES,
            ..Default::default()
        },
    )
    .expect("secret tenant attaches");
    world.swap_enclave(&mut neighbor);
    let mut heap_b = EncHeap::direct();
    let mut cursor = 0u64;
    let mark = world.os.observation_mark();

    let phase = victim
        .setup(&mut world, &mut heap_b, secret)
        .expect("victim setup");
    let ops = phase.ops();
    phase
        .run(&mut world, &mut heap_b, |world, _, done| {
            if neighbor_turn(ops, done) {
                // Four fixed public GETs on A. The stride walk is
                // deterministic and secret-independent.
                world.swap_enclave(&mut neighbor);
                for _ in 0..4 {
                    let key = cursor.wrapping_mul(29) % FLEET_NEIGHBOR_ITEMS;
                    cursor += 1;
                    store_a
                        .get(world, &mut heap_a, key)?
                        .expect("neighbor key present");
                }
                world.swap_enclave(&mut neighbor);
            }
            Ok(())
        })
        .expect("secret phase");

    let events: Vec<Observation> = world
        .os
        .observations_since(mark)
        .iter()
        .filter(|ev| observation_eid(ev) == Some(eid_a))
        .cloned()
        .collect();
    let stats = RunStats {
        faults: neighbor.rt.fault_count(),
        progress: neighbor.rt.progress_total(),
        tracked_pages: neighbor.rt.tracked_pages(),
        rate_limit: neighbor.rt.rate_limit(),
        terminated: neighbor.rt.is_terminated() || world.rt.is_terminated(),
    };
    (Trace { events }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs per secret class in each unit-tested cell.
    const SEEDS: usize = 3;

    #[test]
    fn baseline_spell_is_distinguishable() {
        let cell = audit_cell(SEEDS, Policy::Baseline, Victim::Spell);
        assert_eq!(cell.gate, Gate::Pass, "{}", cell.reason);
        assert!(cell.dist.mi_bits >= 0.9, "MI {:.3}", cell.dist.mi_bits);
        assert!(cell.dist.mean_cross_tv > 0.0);
    }

    #[test]
    fn cached_oram_kvstore_is_indistinguishable() {
        let cell = audit_cell(SEEDS, Policy::CachedOram, Victim::Kvstore);
        assert_eq!(cell.gate, Gate::Pass, "{}", cell.reason);
        assert!(cell.dist.mi_bits <= 0.25, "MI {:.3}", cell.dist.mi_bits);
    }

    #[test]
    fn rate_limited_font_stays_under_budget() {
        let cell = audit_cell(SEEDS, Policy::RateLimit, Victim::Font);
        assert_eq!(cell.gate, Gate::Pass, "{}", cell.reason);
        let rate = cell.rate.expect("rate evidence recorded");
        assert!((rate.faults as f64) <= rate.allowed);
    }

    #[test]
    fn telemetry_export_is_indistinguishable() {
        let cell = audit_cell(SEEDS, Policy::Telemetry, Victim::Spell);
        assert_eq!(cell.gate, Gate::Pass, "{}", cell.reason);
        assert!(
            cell.dist.mean_symbols[0] > 0.0,
            "export traffic was captured"
        );
        assert!(cell.dist.mi_bits <= 0.25, "MI {:.3}", cell.dist.mi_bits);
    }

    #[test]
    fn restore_transport_is_indistinguishable() {
        for workload in [Victim::Spell, Victim::Kvstore] {
            let cell = audit_cell(SEEDS, Policy::Restore, workload);
            assert_eq!(
                cell.gate,
                Gate::Pass,
                "{}: {}",
                workload.name(),
                cell.reason
            );
            assert!(
                cell.dist.mean_symbols[0] > 0.0,
                "{}: snapshot transport was captured",
                workload.name()
            );
            assert!(
                cell.dist.mi_bits <= 0.25,
                "{}: MI {:.3}",
                workload.name(),
                cell.dist.mi_bits
            );
        }
    }

    #[test]
    fn fleet_neighbor_trace_is_secret_independent() {
        for workload in [Victim::Kvstore, Victim::Spell] {
            let cell = audit_cell(SEEDS, Policy::Fleet, workload);
            assert_eq!(
                cell.gate,
                Gate::Pass,
                "{}: {}",
                workload.name(),
                cell.reason
            );
            assert!(
                cell.dist.mean_symbols[0] > 0.0,
                "{}: neighbor traffic was captured",
                workload.name()
            );
            assert!(
                cell.dist.mi_bits <= 0.25,
                "{}: MI {:.3}",
                workload.name(),
                cell.dist.mi_bits
            );
        }
    }
}
