//! Cell executors: the bridge from a [`CellSpec`] to the subsystem it
//! exercises.
//!
//! Each kind wraps an existing crate as a *library call* — no
//! subprocesses, no re-parsing of CLI output — so a campaign cell sees
//! exactly what the subsystem's own tests see:
//!
//! * `bench` → [`autarky_profile::collect`](fn@autarky_profile::collect) cycle-attribution profile of
//!   one perf scenario under one paging policy, gated on the
//!   unattributed residual and, against the baseline, on cycles/op (the
//!   profile minus its observer effect) and hot-path cycles/fault;
//! * `leakage` → [`autarky_leakage::run_audit_filtered`] on one
//!   (policy × workload) audit cell;
//! * `replay` → [`autarky_flightrec::verify_replay`] record → replay →
//!   diff determinism check;
//! * `snapshot` → [`autarky_flightrec::verify_restore_replay`] restore
//!   determinism on one restore-matrix pair (`quiet`), or
//!   [`autarky_flightrec::rollback_attack_run`] staging one rollback
//!   attack (`stale`, `fork`, `truncate`, `counter-rollback`);
//! * `fleet` → [`autarky_fleet::Fleet`] load-generated run with latency
//!   percentiles, the zero-silent-drop accounting gate, and the staged
//!   crash's failover gates;
//! * `watch` → the watchtower raced against the three-strike watchdog;
//! * `figure` → one paper artifact from [`autarky_bench::FIGURES`]: its
//!   table as `<figure>.md`, its numbers as metrics, and a failure for
//!   each of the paper's claims about it that does not hold.
//!
//! Executors are pure functions of the spec (plus, for bench, the
//! baseline file named in it), so a cell's outcome is
//! reproducible from its content address alone. Alongside the outcome
//! each executor returns its [`Artifacts`] — latency reports, forensics,
//! alert logs, Perfetto traces, flamegraphs — which the journal writes
//! into `cells/<id>/` before the outcome is journaled. Artifacts are
//! simulated-clock data only, so they too are byte-identical across
//! reruns and `--jobs` levels.

use autarky_fleet::Request;
use autarky_fleet::{
    export_trace, kv_stream, render_alert_log, spell_stream, Arrivals, Fleet, FleetConfig,
    FleetReport, LoadConfig, MemberConfig, MemberStats, StagedCrash, TimedRequest, WorkloadKind,
};
use autarky_flightrec::{
    render_divergence, rollback_attack_run, verify_replay, verify_restore_replay, ReplayVerdict,
    RollbackScenario, Schedule, SchedulePolicy, Victim,
};
use autarky_leakage::{run_audit_filtered, Gate};
use autarky_os_sim::flight::{causal_root_of_attack, render_timeline};
use autarky_os_sim::{FaultPlan, FlightEvent, FlightRecord, Observation};
use autarky_profile::CycleProfile;
use autarky_runtime::RuntimeConfig;

use crate::cell::{Artifacts, CellKind, CellOutcome, CellSpec, GateOutcome};

/// Execute one cell against its subsystem: its outcome plus the
/// artifact files it leaves behind.
pub fn execute_cell(spec: &CellSpec) -> (CellOutcome, Artifacts) {
    let mut artifacts = Artifacts::new();
    let outcome = match spec.kind {
        CellKind::Bench => run_bench(spec, &mut artifacts),
        CellKind::Leakage => run_leakage(spec),
        CellKind::Replay => run_replay(spec, &mut artifacts),
        CellKind::Snapshot => run_snapshot(spec, &mut artifacts),
        CellKind::Fleet => run_fleet(spec, &mut artifacts),
        CellKind::Figure => run_figure(spec, &mut artifacts),
        CellKind::Watch => run_watch(spec, &mut artifacts),
    };
    (outcome, artifacts)
}

/// Events of the flight log shown in a forensics timeline.
const TIMELINE_EVENTS: usize = 50;

// ---------------------------------------------------------------- bench

/// Max tolerated growth against the baseline, percent, of both
/// cycles/op and (where baselined) hot-path cycles/fault.
pub(crate) const MAX_GROWTH_PCT: f64 = 10.0;
/// Max unattributed-cycle share of a profile, percent.
pub(crate) const RESIDUAL_MAX_PCT: f64 = 5.0;

fn run_bench(spec: &CellSpec, artifacts: &mut Artifacts) -> CellOutcome {
    let policy = spec.policy.as_deref().unwrap_or("clusters");
    let collect_spec = autarky_profile::CollectSpec {
        workload: spec.workload.clone(),
        policy: policy.to_owned(),
        scale: spec.params.scale,
    };
    let p = match autarky_profile::collect(&collect_spec) {
        Ok(p) => p,
        Err(e) => return CellOutcome::fail(format!("profile collection failed: {e}")),
    };
    let stem = format!("profile-{}-{policy}", spec.workload);
    artifacts.push((format!("{stem}.folded"), p.folded()));
    artifacts.push((format!("{stem}.svg"), autarky_profile::flamegraph(&p)));
    artifacts.push((format!("{stem}.json"), p.to_json()));
    bench_outcome(&p, spec.params.baseline.as_deref())
}

/// Gate one profile: on its residual and, against `baseline`, on
/// cycles/op and hot-path cycles/fault.
fn bench_outcome(p: &CycleProfile, baseline: Option<&str>) -> CellOutcome {
    let cycles_per_op = p.cycles_per_op();
    let mut metrics = vec![
        ("ops".to_owned(), p.ops as f64),
        ("cycles".to_owned(), p.workload_cycles() as f64),
        ("cycles_per_op".to_owned(), cycles_per_op),
        (
            "observer_cycles_per_op".to_owned(),
            p.observer_cycles_per_op(),
        ),
        ("faults".to_owned(), p.faults as f64),
        ("total_cycles".to_owned(), p.total_cycles as f64),
        ("attributed_pct".to_owned(), p.attributed_pct()),
        ("residual_pct".to_owned(), p.residual_pct()),
        ("orphan_cycles".to_owned(), p.orphan_cycles as f64),
        ("fault_p50_cycles".to_owned(), p.fault_latency.p50 as f64),
        ("fault_p99_cycles".to_owned(), p.fault_latency.p99 as f64),
        (
            "hot_path_cycles_per_fault".to_owned(),
            p.hot_path_cycles_per_fault(),
        ),
    ];
    let mut failures = Vec::new();
    if !p.passes_residual_gate(RESIDUAL_MAX_PCT) {
        failures.push(format!(
            "residual {:.2}% > {RESIDUAL_MAX_PCT:.2}% allowed",
            p.residual_pct(),
        ));
    }
    let mut summary = format!(
        "{cycles_per_op:.1} cycles/op, {:.2}% of {} cycles attributed across {} faults",
        p.attributed_pct(),
        p.total_cycles,
        p.faults
    );
    let Some(path) = baseline else {
        if failures.is_empty() {
            return CellOutcome {
                gate: GateOutcome::Info,
                metrics,
                reason: format!("{summary} (no baseline configured)"),
            };
        }
        return CellOutcome::gated(metrics, failures, summary);
    };
    let json = match std::fs::read_to_string(path) {
        Ok(json) => json,
        Err(e) => {
            failures.push(format!("baseline {path} unreadable: {e}"));
            return CellOutcome::gated(metrics, failures, summary);
        }
    };
    // Cycles/op is gated for every entry; the hot path only where the
    // baseline records a positive one (fault-free scenarios have none).
    let name = p.name();
    let hot_path = p.hot_path_cycles_per_fault();
    for (key, delta_key, cur, required) in [
        ("cycles_per_op", "delta_pct", cycles_per_op, true),
        (
            "hot_path_cycles_per_fault",
            "hot_path_delta_pct",
            hot_path,
            false,
        ),
    ] {
        let base = match (autarky_profile::baseline_value(&json, &name, key), required) {
            (Some(base), _) if base > 0.0 => base,
            (_, false) => continue,
            (Some(_), true) => {
                failures.push(format!("baseline {key} for {name:?} is not positive"));
                continue;
            }
            (None, true) => {
                failures.push(format!("{name:?} missing from baseline {path}"));
                continue;
            }
        };
        let delta_pct = (cur / base - 1.0) * 100.0;
        let limit = MAX_GROWTH_PCT;
        metrics.push((format!("baseline_{key}"), base));
        metrics.push((delta_key.to_owned(), delta_pct));
        summary.push_str(&format!(
            "; {key} {cur:.1} vs baseline {base:.1} ({delta_pct:+.1}%, limit +{limit:.1}%)"
        ));
        if delta_pct > limit {
            failures.push(format!("{key} {delta_pct:+.1}% > +{limit:.1}% allowed"));
        }
    }
    CellOutcome::gated(metrics, failures, summary)
}

// -------------------------------------------------------------- leakage

fn run_leakage(spec: &CellSpec) -> CellOutcome {
    let Some(policy) = &spec.policy else {
        return CellOutcome::fail("leakage cell without a policy axis");
    };
    let label = format!("{policy}/{}", spec.workload);
    let report = run_audit_filtered(spec.params.samples, std::slice::from_ref(&label));
    let Some(cell) = report.cells.first() else {
        return CellOutcome::fail(format!("audit matrix has no cell {label}"));
    };
    let mut metrics = vec![
        ("mi_bits".to_owned(), cell.dist.mi_bits),
        ("accuracy".to_owned(), cell.dist.accuracy),
        ("mean_cross_tv".to_owned(), cell.dist.mean_cross_tv),
        ("mean_within_tv".to_owned(), cell.dist.mean_within_tv),
        ("mean_symbols_0".to_owned(), cell.dist.mean_symbols[0]),
        ("mean_symbols_1".to_owned(), cell.dist.mean_symbols[1]),
    ];
    if let Some(rate) = &cell.rate {
        metrics.push(("rate_faults".to_owned(), rate.faults as f64));
        metrics.push((
            "rate_bits_per_progress".to_owned(),
            rate.measured_bits_per_progress,
        ));
    }
    let gate = match cell.gate {
        Gate::Pass => GateOutcome::Pass,
        Gate::Fail => GateOutcome::Fail,
        Gate::Info => GateOutcome::Info,
    };
    CellOutcome {
        gate,
        metrics,
        reason: cell.reason.clone(),
    }
}

// --------------------------------------------------------------- replay

/// Injection rate for the named replay fault plans. Matches the
/// moderate rates the flight-recorder tests drive: high enough that
/// injections actually land, low enough that hostile runs usually
/// terminate with a detection rather than an early wedge.
const REPLAY_TRANSIENT_RATE: f64 = 0.0625;
const REPLAY_HOSTILE_RATE: f64 = 0.03;

fn run_replay(spec: &CellSpec, artifacts: &mut Artifacts) -> CellOutcome {
    let (Some(policy), Some(plan_name), Some(seed)) = (&spec.policy, &spec.fault_plan, spec.seed)
    else {
        return CellOutcome::fail("replay cell missing policy/fault_plan/seed axis");
    };
    let Some(policy) = SchedulePolicy::from_name(policy) else {
        return CellOutcome::fail(format!("unknown replay policy {policy:?}"));
    };
    let Some(workload) = Victim::from_name(&spec.workload) else {
        return CellOutcome::fail(format!("unknown replay workload {:?}", spec.workload));
    };
    // The plan RNG seed is derived from the cell's content address, so
    // two cells differing only in their seed axis inject differently —
    // while record and replay of the *same* cell share one plan.
    let plan_seed = spec.derived_seed();
    let fault_plan = match plan_name.as_str() {
        "quiet" => None,
        "transient" => Some(FaultPlan::transient_only(plan_seed, REPLAY_TRANSIENT_RATE)),
        "hostile" => Some(FaultPlan::hostile(plan_seed, REPLAY_HOSTILE_RATE)),
        other => return CellOutcome::fail(format!("unknown replay fault plan {other:?}")),
    };
    let schedule = Schedule {
        policy,
        workload,
        seed,
        fault_plan,
    };
    determinism_outcome(
        "Replay determinism failure",
        &verify_replay(&schedule),
        artifacts,
    )
}

/// Gate a record-vs-rerun verdict (replay and restore determinism share
/// it). A failing verdict leaves `forensics.md`: the schedule, the
/// causal divergence report, and the recording's timeline.
fn determinism_outcome(
    title: &str,
    verdict: &ReplayVerdict,
    artifacts: &mut Artifacts,
) -> CellOutcome {
    let metrics = vec![
        ("events".to_owned(), verdict.record.records.len() as f64),
        (
            "telemetry_bytes".to_owned(),
            verdict.record.telemetry_snapshot.len() as f64,
        ),
        ("dropped".to_owned(), verdict.record.dropped as f64),
        (
            "outcome_ok".to_owned(),
            f64::from(u8::from(verdict.record.outcome == "ok")),
        ),
    ];
    // The gate is `deterministic()`; these clauses explain a failure.
    let mut why = Vec::new();
    if let Some(div) = &verdict.divergence {
        // One side holds a record at the index, or the logs would agree.
        if let Some(r) = div.left.as_ref().or(div.right.as_ref()) {
            why.push(format!(
                "log diverged at record {} (seq {}: {})",
                div.index,
                r.seq,
                r.event.describe()
            ));
        }
    }
    if !verdict.telemetry_identical {
        why.push("telemetry diverged".to_owned());
    }
    if !verdict.outcome_identical {
        why.push(format!(
            "outcome {:?} vs {:?}",
            verdict.record.outcome, verdict.replay.outcome
        ));
    }
    if !verdict.decisions_resolved {
        why.push("unresolved decision chain".to_owned());
    }
    let mut failures = Vec::new();
    if !verdict.deterministic() {
        failures.push(format!("not deterministic: {}", why.join("; ")));
        let schedule = &verdict.schedule;
        let mut report = format!(
            "# {title}: {}/{}\n\nSchedule:\n\n```\n{schedule:?}\n```\n\n",
            schedule.policy.name(),
            schedule.workload.name(),
        );
        if let Some(div) = &verdict.divergence {
            report.push_str(&render_divergence(
                div,
                &verdict.record.records,
                &verdict.replay.records,
            ));
            report.push('\n');
        }
        report.push_str(&render_timeline(&verdict.record.records, TIMELINE_EVENTS));
        artifacts.push(("forensics.md".to_owned(), report));
    }
    CellOutcome::gated(
        metrics,
        failures,
        format!(
            "deterministic ({} events, outcome {})",
            verdict.record.records.len(),
            verdict.record.outcome
        ),
    )
}

// ------------------------------------------------------------- snapshot

fn run_snapshot(spec: &CellSpec, artifacts: &mut Artifacts) -> CellOutcome {
    let Some(plan) = spec.fault_plan.as_deref() else {
        return CellOutcome::fail("snapshot cell missing fault_plan");
    };
    if plan == "quiet" {
        // Restore determinism: uninterrupted run vs snapshot → host
        // crash → failover restore must be architecturally identical.
        let Some(schedule) = Schedule::restore_matrix().into_iter().find(|s| {
            Some(s.policy.name()) == spec.policy.as_deref() && s.workload.name() == spec.workload
        }) else {
            return CellOutcome::fail(format!(
                "{}/{} is not in the restore matrix",
                spec.policy.as_deref().unwrap_or("-"),
                spec.workload
            ));
        };
        return determinism_outcome(
            "Restore determinism failure",
            &verify_restore_replay(&schedule),
            artifacts,
        );
    }
    let Some(scenario) = RollbackScenario::ALL.into_iter().find(|s| s.name() == plan) else {
        return CellOutcome::fail(format!("unknown snapshot fault plan {plan:?}"));
    };
    let Some(seed) = spec.seed else {
        return CellOutcome::fail("snapshot rollback cell missing seed");
    };
    let run = rollback_attack_run(seed, scenario);
    let flag = |b: bool| f64::from(u8::from(b));
    let metrics = vec![
        ("refused".to_owned(), flag(run.restore_failed)),
        ("attack_recorded".to_owned(), flag(run.attack_recorded)),
        ("root_attributed".to_owned(), flag(run.root_names_injection)),
        ("events".to_owned(), run.records.len() as f64),
    ];
    let mut failures = Vec::new();
    if !run.restore_failed {
        failures.push(format!("restore accepted the {plan} blob"));
    } else if !run.refused_as_expected {
        failures.push(format!("the {plan} blob was refused by the wrong check"));
    }
    if !run.attack_recorded {
        failures.push("no AttackDetected verdict recorded".to_owned());
    }
    if !run.root_names_injection {
        failures.push("forensics did not attribute the verdict to the staged injection".to_owned());
    }
    if !failures.is_empty() {
        let mut report = format!(
            "# Rollback attack not detected: seed {seed}, scenario {plan}\n\n\
             refused: {}, verdict recorded: {}, root attributed: {}, error: `{}`\n\n",
            run.restore_failed, run.attack_recorded, run.root_names_injection, run.error
        );
        report.push_str(&render_timeline(&run.records, TIMELINE_EVENTS));
        artifacts.push(("forensics.md".to_owned(), report));
    }
    CellOutcome::gated(
        metrics,
        failures,
        format!("{plan} blob refused, recorded, attributed ({})", run.error),
    )
}

// ---------------------------------------------------------------- fleet

/// KV members preload this many items; with 2 KiB values that is two
/// items per page, so a small paging budget keeps members faulting.
const FLEET_KV_ITEMS: u64 = 64;
const FLEET_KV_VALUE_SIZE: usize = 2048;
const FLEET_SPELL_DICT_WORDS: usize = 600;
const FLEET_SPELL_WORDS_PER_REQ: usize = 12;
/// Near-uniform key skew: working set stays larger than the budget.
const FLEET_KV_THETA: f64 = 0.2;
/// Recovery deadline for a failed-over member, in cycles.
const FLEET_RESTART_BUDGET_CYCLES: u64 = 500_000_000;
/// EPC frames the members of a fleet or watch cell share.
pub(crate) const FLEET_EPC_FRAMES: usize = 2048;

fn run_fleet(spec: &CellSpec, artifacts: &mut Artifacts) -> CellOutcome {
    let (Some(shape), Some(plan_name), Some(enclave_size), Some(_seed)) = (
        &spec.traffic_shape,
        &spec.fault_plan,
        spec.enclave_size,
        spec.seed,
    ) else {
        return CellOutcome::fail("fleet cell missing traffic_shape/fault_plan/enclave_size/seed");
    };
    let heap_pages = enclave_size as usize;
    // Budget scales with the enclave so bigger cells are not trivially
    // all-resident; the floor keeps tiny cells making progress.
    let budget = (heap_pages / 12).clamp(12, 48);
    let member = |name: &str, workload: WorkloadKind| MemberConfig {
        name: name.into(),
        workload,
        heap_pages,
        epc_quota: 0,
        runtime: RuntimeConfig {
            budget,
            ..Default::default()
        },
        pin_kv_metadata: false,
    };
    let kv = || WorkloadKind::Kv {
        items: FLEET_KV_ITEMS,
        value_size: FLEET_KV_VALUE_SIZE,
    };
    let spell = || WorkloadKind::Spell {
        dict_words: FLEET_SPELL_DICT_WORDS,
    };
    let members = match spec.workload.as_str() {
        "kvstore" => vec![
            member("kv-a", kv()),
            member("kv-b", kv()),
            member("kv-c", kv()),
        ],
        "spell" => vec![
            member("spell-a", spell()),
            member("spell-b", spell()),
            member("spell-c", spell()),
        ],
        "mixed" => vec![
            member("kv-a", kv()),
            member("kv-b", kv()),
            member("spell-a", spell()),
        ],
        other => return CellOutcome::fail(format!("unknown fleet workload {other:?}")),
    };
    let member_count = members.len();
    let requests = spec.params.requests;
    let plan_seed = spec.derived_seed();
    let staged_crash = match plan_name.as_str() {
        "quiet" => None,
        "transient" => Some(StagedCrash {
            after_total_served: (requests as u64 / 6).max(5),
            member: 0,
            plan: FaultPlan::transient_only(plan_seed, 0.05),
        }),
        "staged-evict" => Some(StagedCrash {
            after_total_served: (requests as u64 / 6).max(5),
            member: 0,
            plan: FaultPlan {
                // Unbounded continuous eviction: guarantees detection
                // (see the fleet tests' attack_plan rationale); the
                // supervisor disarms it at the first failover.
                spurious_evict: 1.0,
                max_injections: None,
                ..FaultPlan::quiescent(plan_seed)
            },
        }),
        other => return CellOutcome::fail(format!("unknown fleet fault plan {other:?}")),
    };
    let cfg = FleetConfig {
        epc_frames: FLEET_EPC_FRAMES,
        members,
        queue_cap: 256,
        watchdog_cycles: 50_000_000,
        max_watchdog_strikes: 1,
        snapshot_every: 32,
        epc_reserve_frames: 0,
        flight_capacity: 1 << 18,
        staged_crash,
        watch: false,
    };
    let traffic: Vec<Vec<TimedRequest>> = (0..member_count)
        .map(|i| {
            let load = LoadConfig {
                seed: plan_seed.wrapping_add(0x9e37_79b9 * (i as u64 + 1)),
                requests,
                arrivals: arrivals_for(shape),
                start_cycles: 1_000,
            };
            match spec.workload.as_str() {
                "spell" => spell_stream(
                    load,
                    "en",
                    FLEET_SPELL_DICT_WORDS,
                    FLEET_SPELL_WORDS_PER_REQ,
                ),
                "mixed" if i == member_count - 1 => spell_stream(
                    load,
                    "en",
                    FLEET_SPELL_DICT_WORDS,
                    FLEET_SPELL_WORDS_PER_REQ,
                ),
                _ => kv_stream(load, FLEET_KV_ITEMS, FLEET_KV_THETA),
            }
        })
        .collect();
    let mut fleet = match Fleet::new(cfg) {
        Ok(fleet) => fleet,
        Err(e) => return CellOutcome::fail(format!("fleet boot failed: {e}")),
    };
    let stats = match fleet.run(traffic) {
        Ok(stats) => stats,
        Err(e) => return CellOutcome::fail(format!("fleet run failed: {e}")),
    };
    let report = FleetReport::from_stats(&stats, fleet.now());
    let records = fleet.flight_log();
    let causal_root = causal_root_of_attack(&records);

    let mut forensics = render_timeline(&records, 60);
    forensics.push('\n');
    match causal_root {
        Some((verdict, injection)) => forensics.push_str(&format!(
            "causal root of staged attack:\n  verdict:   {}\n  caused by: {}\n",
            verdict.event.describe(),
            injection.event.describe()
        )),
        None => forensics.push_str("causal root of staged attack: none found\n"),
    }
    artifacts.push(("fleet-latency-report.md".to_owned(), report.render()));
    artifacts.push(("fleet-forensics.txt".to_owned(), forensics));

    let offered: u64 = report.members.iter().map(|m| m.offered).sum();
    let served: u64 = report.members.iter().map(|m| m.served).sum();
    let rejected: u64 = report.members.iter().map(|m| m.rejected).sum();
    let restarts: u32 = report.members.iter().map(|m| m.restarts).sum();
    let worst = |f: &dyn Fn(&autarky_fleet::MemberReport) -> u64| {
        report.members.iter().map(f).max().unwrap_or(0)
    };
    let metrics = vec![
        ("offered".to_owned(), offered as f64),
        ("served".to_owned(), served as f64),
        ("rejected".to_owned(), rejected as f64),
        ("restarts".to_owned(), f64::from(restarts)),
        (
            "p50_worst_cycles".to_owned(),
            worst(&|m| m.p50_cycles) as f64,
        ),
        (
            "p99_worst_cycles".to_owned(),
            worst(&|m| m.p99_cycles) as f64,
        ),
        (
            "p999_worst_cycles".to_owned(),
            worst(&|m| m.p999_cycles) as f64,
        ),
        ("run_cycles".to_owned(), report.run_cycles as f64),
    ];

    let mut failures = Vec::new();
    if !report.all_accounted() {
        failures.push("silent request drop (offered != served + rejected)".to_owned());
    }
    if plan_name == "staged-evict" {
        let victim = &stats[0];
        if !report.all_byte_identical() {
            failures.push("a restore was not byte-identical".to_owned());
        }
        if victim.restarts == 0 {
            failures.push("victim was never failed over".to_owned());
        }
        if victim.evicted {
            failures.push("victim was evicted instead of recovered".to_owned());
        }
        failures.extend(bystander_restarts(&stats));
        if victim.max_recovery_cycles > FLEET_RESTART_BUDGET_CYCLES {
            failures.push(format!(
                "recovery exceeded the restart budget ({} > {FLEET_RESTART_BUDGET_CYCLES} cycles)",
                victim.max_recovery_cycles
            ));
        }
        if causal_root.is_none() {
            failures.push("forensics could not name the attack's causal root".to_owned());
        }
    }
    CellOutcome::gated(
        metrics,
        failures,
        format!(
            "accounted: {served} served + {rejected} rejected of {offered}, {restarts} restarts"
        ),
    )
}

/// The staged-crash gates' isolation check: only the victim (member 0)
/// may restart.
fn bystander_restarts(stats: &[MemberStats]) -> Vec<String> {
    stats[1..]
        .iter()
        .filter(|s| s.restarts != 0)
        .map(|s| format!("{} restarted despite not being targeted", s.name))
        .collect()
}

// ---------------------------------------------------------------- watch

/// Keys the victim's stream cycles through, ascending. At two 2 KiB
/// items a page this spans 24 item pages against a 16-page budget, so
/// the FIFO always misses and the oldest pages — the injector's
/// victims — go untouched for a full key cycle.
const WATCH_COLD_KEYS: u64 = 48;
/// Arrival grid shared by every member's stream.
const WATCH_BURST_GAP_CYCLES: u64 = 20_000;
const WATCH_BURST_LEN: usize = 25;
const WATCH_IDLE_GAP_CYCLES: u64 = 30_000_000;
const WATCH_START_CYCLES: u64 = 1_000;
/// Storm shape: delays are the limp (each stormed request overruns the
/// 2M-cycle watchdog budget), spurious evicts are the probe.
const WATCH_STORM_DELAY_CYCLES: u64 = 1_500_000;
/// The storm's injector seed, fixed rather than derived from the cell:
/// with it every shipped member mix keeps the probe below the
/// resident-fault tripwire, in the unwatched baseline run too.
const WATCH_STORM_SEED: u64 = 424242;
/// Strikes before the watchdog fails a member over.
const WATCH_WATCHDOG_STRIKES: u32 = 3;
/// Minimum alerts a staged storm cell must fire.
pub(crate) const WATCH_MIN_ALERTS: u64 = 1;
/// Maximum alerts a quiet (no-injection) cell may fire: the
/// false-positive gate.
pub(crate) const WATCH_MAX_FALSE_ALERTS: u64 = 0;

fn watch_bursty(seed: u64, requests: usize) -> LoadConfig {
    LoadConfig {
        seed,
        requests,
        arrivals: Arrivals::Bursty {
            burst_gap_cycles: WATCH_BURST_GAP_CYCLES,
            burst_len: WATCH_BURST_LEN as u32,
            idle_gap_cycles: WATCH_IDLE_GAP_CYCLES,
        },
        start_cycles: WATCH_START_CYCLES,
    }
}

/// The victim's stream: GETs cycling `0..WATCH_COLD_KEYS` ascending on
/// the shared bursty grid. Deterministic by construction (no RNG).
fn watch_victim_stream(requests: usize) -> Vec<TimedRequest> {
    let mut at = WATCH_START_CYCLES;
    let mut out = Vec::with_capacity(requests);
    for i in 0..requests {
        out.push(TimedRequest {
            arrival_cycles: at,
            request: Request::Get {
                key: (i as u64) % WATCH_COLD_KEYS,
            },
        });
        at += if (i + 1) % WATCH_BURST_LEN == 0 {
            WATCH_IDLE_GAP_CYCLES
        } else {
            WATCH_BURST_GAP_CYCLES
        };
    }
    out
}

struct WatchRun {
    stats: Vec<MemberStats>,
    report: FleetReport,
    alert_log: String,
    trace: String,
    records: Vec<FlightRecord>,
}

impl WatchRun {
    fn attacks(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.event, FlightEvent::AttackDetected { .. }))
            .count()
    }
}

fn watch_scenario(
    spec: &CellSpec,
    watch: bool,
) -> Result<(FleetConfig, Vec<Vec<TimedRequest>>), String> {
    let requests = spec.params.requests;
    let plan_seed = spec.derived_seed();
    let victim = MemberConfig {
        name: "kv-a".into(),
        workload: WorkloadKind::Kv {
            items: FLEET_KV_ITEMS,
            value_size: FLEET_KV_VALUE_SIZE,
        },
        heap_pages: 192,
        epc_quota: 0,
        runtime: RuntimeConfig {
            budget: 16,
            ..Default::default()
        },
        // Keep the hot bucket array out of the self-paging set so a
        // spurious evict always lands on a cold item page.
        pin_kv_metadata: true,
    };
    let peer_kv = MemberConfig {
        name: "kv-b".into(),
        pin_kv_metadata: false,
        ..victim.clone()
    };
    let spell = MemberConfig {
        name: "spell-a".into(),
        workload: WorkloadKind::Spell {
            dict_words: FLEET_SPELL_DICT_WORDS,
        },
        heap_pages: 256,
        epc_quota: 0,
        runtime: RuntimeConfig {
            budget: 24,
            ..Default::default()
        },
        pin_kv_metadata: false,
    };
    let (members, traffic) = match spec.workload.as_str() {
        "kvstore" => (
            vec![victim, peer_kv],
            vec![
                watch_victim_stream(requests),
                kv_stream(
                    watch_bursty(plan_seed.wrapping_add(0x9e37_79b9), requests),
                    FLEET_KV_ITEMS,
                    0.99,
                ),
            ],
        ),
        "mixed" => (
            vec![victim, peer_kv, spell],
            vec![
                watch_victim_stream(requests),
                kv_stream(
                    watch_bursty(plan_seed.wrapping_add(0x9e37_79b9), requests),
                    FLEET_KV_ITEMS,
                    0.99,
                ),
                spell_stream(
                    watch_bursty(plan_seed.wrapping_add(2 * 0x9e37_79b9), requests),
                    "en",
                    FLEET_SPELL_DICT_WORDS,
                    FLEET_SPELL_WORDS_PER_REQ,
                ),
            ],
        ),
        other => return Err(format!("unknown watch workload {other:?}")),
    };
    let member_count = members.len();
    let staged_crash = match spec.fault_plan.as_deref() {
        Some("quiet") => None,
        // Arm as the first fleet-wide burst finishes draining: the
        // detectors complete warmup on healthy traffic and the storm
        // lands on the burst's tail.
        Some("storm") => Some(StagedCrash {
            after_total_served: (member_count * WATCH_BURST_LEN - member_count - 2) as u64,
            member: 0,
            plan: FaultPlan {
                spurious_evict: 0.2,
                delay: 0.75,
                delay_cycles: WATCH_STORM_DELAY_CYCLES,
                max_injections: None,
                ..FaultPlan::quiescent(WATCH_STORM_SEED)
            },
        }),
        other => return Err(format!("unknown watch fault plan {other:?}")),
    };
    let cfg = FleetConfig {
        epc_frames: FLEET_EPC_FRAMES,
        members,
        queue_cap: 64,
        watchdog_cycles: 2_000_000,
        max_watchdog_strikes: WATCH_WATCHDOG_STRIKES,
        snapshot_every: 32,
        epc_reserve_frames: 32,
        flight_capacity: 1 << 18,
        staged_crash,
        watch,
    };
    Ok((cfg, traffic))
}

fn watch_run_once(spec: &CellSpec, watch: bool) -> Result<WatchRun, String> {
    let (cfg, traffic) = watch_scenario(spec, watch)?;
    let mut fleet = Fleet::new(cfg).map_err(|e| format!("watch fleet boot failed: {e}"))?;
    let stats = fleet
        .run(traffic)
        .map_err(|e| format!("watch fleet run failed: {e}"))?;
    let report = FleetReport::from_stats(&stats, fleet.now());
    let member_names = fleet.member_names();
    let members: Vec<_> = stats.iter().map(|s| (s.eid, s.name.clone())).collect();
    let alert_log = render_alert_log(fleet.watch_alerts(), &member_names);
    let records = fleet.flight_log();
    let trace = export_trace(&records, &members);
    Ok(WatchRun {
        stats,
        report,
        alert_log,
        trace,
        records,
    })
}

fn run_watch(spec: &CellSpec, artifacts: &mut Artifacts) -> CellOutcome {
    let (Some(plan), Some(_seed)) = (spec.fault_plan.as_deref(), spec.seed) else {
        return CellOutcome::fail("watch cell missing fault_plan/seed");
    };
    // Watched twice: the alert log and merged Perfetto trace must come
    // back byte-identical, or the observability layer itself perturbs
    // the run. A storm also runs unwatched once: the watchdog-driven
    // failover the alert has to beat.
    let runs = (|| {
        let run = watch_run_once(spec, true)?;
        let rerun = watch_run_once(spec, true)?;
        let unwatched = match plan {
            "storm" => Some(watch_run_once(spec, false)?),
            _ => None,
        };
        Ok::<_, String>((run, rerun, unwatched))
    })();
    let (run, rerun, unwatched) = match runs {
        Ok(runs) => runs,
        Err(e) => return CellOutcome::fail(e),
    };

    let victim = &run.stats[0];
    let alerts: u64 = run.stats.iter().map(|s| s.watch_alerts).sum();
    let first_alert = victim.first_alert_cycles;
    let first_failover = victim.first_failover_cycles;
    let offered: u64 = run.report.members.iter().map(|m| m.offered).sum();
    let served: u64 = run.report.members.iter().map(|m| m.served).sum();
    let restarts: u32 = run.report.members.iter().map(|m| m.restarts).sum();
    let mut metrics = vec![
        ("alerts".to_owned(), alerts as f64),
        ("first_alert_cycles".to_owned(), first_alert as f64),
        ("first_failover_cycles".to_owned(), first_failover as f64),
        ("restarts".to_owned(), f64::from(restarts)),
        ("offered".to_owned(), offered as f64),
        ("served".to_owned(), served as f64),
        ("run_cycles".to_owned(), run.report.run_cycles as f64),
    ];

    let mut report_md = run.report.render();
    if let Some(unwatched) = &unwatched {
        let baseline = &unwatched.stats[0];
        report_md.push_str("\n## Alert vs. watchdog timing\n\n");
        report_md.push_str(&format!(
            "- watched: first alert at cycle {first_alert}, failover at cycle {first_failover}\n"
        ));
        metrics.push((
            "watchdog_failover_cycles".to_owned(),
            baseline.first_failover_cycles as f64,
        ));
        report_md.push_str(&format!(
            "- unwatched baseline: watchdog-driven failover at cycle {} after {} strikes\n",
            baseline.first_failover_cycles, baseline.watchdog_strikes
        ));
        if first_alert > 0 && baseline.first_failover_cycles > first_alert {
            report_md.push_str(&format!(
                "- the alert led the watchdog by {} cycles\n",
                baseline.first_failover_cycles - first_alert
            ));
        }
    }
    artifacts.push(("watch-alerts.log".to_owned(), run.alert_log.clone()));
    artifacts.push(("merged-trace.json".to_owned(), run.trace.clone()));
    artifacts.push(("watch-report.md".to_owned(), report_md));

    let mut failures = Vec::new();
    if !run.report.all_accounted() {
        failures.push("silent request drop (offered != served + rejected)".to_owned());
    }
    if run.alert_log != rerun.alert_log {
        failures.push("alert log differs across reruns".to_owned());
    }
    if run.trace != rerun.trace {
        failures.push("merged trace differs across reruns".to_owned());
    }
    match &unwatched {
        None => {
            if alerts > WATCH_MAX_FALSE_ALERTS {
                failures.push(format!(
                    "false positives: {alerts} alerts on quiescent traffic \
                     (budget {WATCH_MAX_FALSE_ALERTS})"
                ));
            }
            if restarts > 0 {
                failures.push(format!("{restarts} restarts on quiescent traffic"));
            }
        }
        Some(unwatched) => {
            if victim.watch_alerts < WATCH_MIN_ALERTS {
                failures.push(format!(
                    "victim raised {} alerts, expected at least {WATCH_MIN_ALERTS}",
                    victim.watch_alerts
                ));
            }
            if first_alert == 0 || (first_failover > 0 && first_alert > first_failover) {
                failures.push(format!(
                    "alert (cycle {first_alert}) did not lead failover \
                     (cycle {first_failover})"
                ));
            }
            if victim.restarts == 0 {
                failures.push("victim was never failed over".to_owned());
            }
            if victim.evicted {
                failures.push("victim was evicted instead of recovered".to_owned());
            }
            failures.extend(bystander_restarts(&run.stats));
            if !run.report.all_byte_identical() {
                failures.push("a restore was not byte-identical".to_owned());
            }
            if !unwatched.report.all_accounted() {
                failures.push("unwatched run silently dropped a request".to_owned());
            }
            // The race is watchdog vs. watchtower: the storm must stay
            // below the runtime's own resident-fault tripwire in both.
            for (label, r) in [("watched", &run), ("unwatched", unwatched)] {
                let attacks = r.attacks();
                if attacks > 0 {
                    failures.push(format!(
                        "{label} run tripped AttackDetected {attacks} time(s): the probe \
                         tripped the resident-fault tripwire instead of the watchtower"
                    ));
                }
            }
            let baseline = &unwatched.stats[0];
            let watchdog_failover = baseline.first_failover_cycles;
            if watchdog_failover == 0 {
                failures.push("unwatched baseline never failed over".to_owned());
            } else if baseline.watchdog_strikes < u64::from(WATCH_WATCHDOG_STRIKES) {
                failures.push(format!(
                    "unwatched failover was not watchdog-driven (only {} strikes)",
                    baseline.watchdog_strikes
                ));
            } else if first_alert == 0 || first_alert >= watchdog_failover {
                failures.push(format!(
                    "alert (cycle {first_alert}) did not beat the watchdog failover \
                     (cycle {watchdog_failover})"
                ));
            }
            match causal_root_of_attack(&run.records) {
                Some((verdict, root)) => {
                    if !matches!(verdict.event, FlightEvent::WatchAlert { .. }) {
                        failures.push(format!(
                            "forensics verdict is not the watch alert: {}",
                            verdict.event.describe()
                        ));
                    }
                    if !matches!(
                        root.event,
                        FlightEvent::Kernel(Observation::FaultInjected { .. })
                    ) {
                        failures.push(format!(
                            "causal root is not an injected fault: {}",
                            root.event.describe()
                        ));
                    }
                }
                None => {
                    failures.push("forensics could not name the alert's causal root".to_owned())
                }
            }
        }
    }
    CellOutcome::gated(
        metrics,
        failures,
        format!(
            "{alerts} alerts, first at cycle {first_alert} vs failover at \
             {first_failover}; artifacts byte-identical"
        ),
    )
}

// --------------------------------------------------------------- figure

fn run_figure(spec: &CellSpec, artifacts: &mut Artifacts) -> CellOutcome {
    match autarky_bench::FIGURES
        .iter()
        .find(|(name, _)| *name == spec.workload)
    {
        Some((name, figure)) => gate_figure(name, figure(spec.params.scale), artifacts),
        None => CellOutcome::fail(format!("unknown figure {:?}", spec.workload)),
    }
}

/// Write the figure's table, numbers and claim verdicts to `<name>.md`
/// and fail the cell on every claim that does not hold.
fn gate_figure(
    name: &str,
    figure: autarky_bench::Figure,
    artifacts: &mut Artifacts,
) -> CellOutcome {
    let mut md = figure.table + "\n## Numbers\n\n";
    for (key, value) in &figure.metrics {
        md.push_str(&format!("- `{key}`: {value}\n"));
    }
    md.push_str("\n## Claims\n\n");
    let mut failures = Vec::new();
    for &(claim, holds) in &figure.claims {
        md.push_str(&format!(
            "- `{claim}` {}\n",
            if holds { "holds" } else { "FAILS" }
        ));
        if !holds {
            failures.push(format!("claim {claim} fails"));
        }
    }
    artifacts.push((format!("{name}.md"), md));
    let names: Vec<&str> = figure.claims.iter().map(|(claim, _)| *claim).collect();
    let held = format!("{} claims hold: {}", names.len(), names.join(", "));
    CellOutcome::gated(figure.metrics, failures, held)
}

fn arrivals_for(shape: &str) -> Arrivals {
    match shape {
        // A burst longer than any cell's request count degenerates to a
        // fixed inter-arrival gap: steady, clocklike load.
        "steady" => Arrivals::Bursty {
            burst_gap_cycles: 200_000,
            burst_len: u32::MAX,
            idle_gap_cycles: 0,
        },
        "poisson" => Arrivals::Poisson {
            mean_gap_cycles: 200_000,
        },
        // The watch scenario's grid: tight bursts, long idles.
        _ => Arrivals::Bursty {
            burst_gap_cycles: WATCH_BURST_GAP_CYCLES,
            burst_len: WATCH_BURST_LEN as u32,
            idle_gap_cycles: WATCH_IDLE_GAP_CYCLES,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::SuiteParams;

    fn cell(
        kind: CellKind,
        policy: Option<&str>,
        workload: &str,
        fault_plan: Option<&str>,
        seed: Option<u64>,
        params: SuiteParams,
    ) -> CellSpec {
        CellSpec::new(
            kind,
            policy.map(Into::into),
            workload.into(),
            None,
            fault_plan.map(Into::into),
            None,
            seed,
            params,
        )
    }

    fn artifact_names(artifacts: &Artifacts) -> Vec<&str> {
        artifacts.iter().map(|(name, _)| name.as_str()).collect()
    }

    #[test]
    fn bench_cell_without_baseline_is_informational() {
        let spec = cell(
            CellKind::Bench,
            None,
            "spell",
            None,
            None,
            SuiteParams::default(),
        );
        let (out, _) = execute_cell(&spec);
        assert_eq!(out.gate, GateOutcome::Info);
        assert!(out.metrics.iter().any(|(k, _)| k == "cycles_per_op"));
    }

    #[test]
    fn bench_cell_fails_on_unreadable_baseline() {
        let spec = cell(
            CellKind::Bench,
            None,
            "spell",
            None,
            None,
            SuiteParams {
                baseline: Some("/nonexistent/baseline.json".into()),
                ..SuiteParams::default()
            },
        );
        let (out, _) = execute_cell(&spec);
        assert_eq!(out.gate, GateOutcome::Fail);
        assert!(out.reason.contains("unreadable"));
    }

    #[test]
    fn replay_quiet_cell_is_deterministic() {
        let spec = cell(
            CellKind::Replay,
            Some("clusters"),
            "spell",
            Some("quiet"),
            Some(1),
            SuiteParams::default(),
        );
        let (out, artifacts) = execute_cell(&spec);
        assert_eq!(out.gate, GateOutcome::Pass, "reason: {}", out.reason);
        assert!(out.reason.contains("deterministic"));
        assert!(
            artifacts.is_empty(),
            "forensics are written on failure only"
        );
    }

    #[test]
    fn a_diverging_replay_fails_and_its_forensics_show_both_records() {
        let schedule = Schedule::ci_matrix()[0].clone();
        let record = autarky_flightrec::record_run(&schedule);
        let mut replay = record.clone();
        let index = replay
            .records
            .iter()
            .position(|r| matches!(r.event, FlightEvent::DecisionClusterFetch { .. }))
            .expect("the clusters/spell run fetches a cluster");
        if let FlightEvent::DecisionClusterFetch { pages, .. } = &mut replay.records[index].event {
            pages[0].0 += 1 << 20;
        }
        // The one-line description prints only the set's size.
        let (original, changed) = (&record.records[index], &replay.records[index]);
        assert_eq!(original.event.describe(), changed.event.describe());
        let (original, changed) = (format!("{original:?}"), format!("{changed:?}"));
        let verdict = ReplayVerdict {
            schedule: schedule.clone(),
            telemetry_identical: true,
            outcome_identical: true,
            decisions_resolved: true,
            divergence: autarky_flightrec::first_divergence(&record.records, &replay.records),
            record,
            replay,
        };
        let mut artifacts = Artifacts::new();
        let out = determinism_outcome("Replay determinism failure", &verdict, &mut artifacts);
        assert_eq!(out.gate, GateOutcome::Fail);
        assert!(
            out.reason
                .contains(&format!("log diverged at record {index} ")),
            "{}",
            out.reason
        );
        assert_eq!(artifact_names(&artifacts), ["forensics.md"]);
        let forensics = &artifacts[0].1;
        for shown in [format!("{schedule:?}"), original, changed] {
            assert!(forensics.contains(&shown), "{shown} missing:\n{forensics}");
        }
        assert_eq!(
            forensics.matches("Diverging correlation chain").count(),
            2,
            "{forensics}"
        );
    }

    #[test]
    fn snapshot_quiet_cell_is_restore_deterministic() {
        let spec = cell(
            CellKind::Snapshot,
            Some("clusters"),
            "spell",
            Some("quiet"),
            None,
            SuiteParams::default(),
        );
        let (out, artifacts) = execute_cell(&spec);
        assert_eq!(out.gate, GateOutcome::Pass, "reason: {}", out.reason);
        assert!(out.reason.contains("deterministic"));
        assert!(artifacts.is_empty());
    }

    #[test]
    fn snapshot_rollback_cell_passes_for_every_scenario() {
        for scenario in RollbackScenario::ALL {
            let spec = cell(
                CellKind::Snapshot,
                None,
                "spell",
                Some(scenario.name()),
                Some(3),
                SuiteParams::default(),
            );
            let (out, artifacts) = execute_cell(&spec);
            assert_eq!(
                out.gate,
                GateOutcome::Pass,
                "{}: {}",
                scenario.name(),
                out.reason
            );
            for key in ["refused", "attack_recorded", "root_attributed"] {
                assert!(
                    out.metrics.contains(&(key.to_owned(), 1.0)),
                    "{}: {key} not set in {:?}",
                    scenario.name(),
                    out.metrics
                );
            }
            assert!(artifacts.is_empty());
        }
    }

    #[test]
    fn snapshot_cell_with_unknown_scenario_fails_cleanly() {
        let spec = cell(
            CellKind::Snapshot,
            None,
            "spell",
            Some("replay-forever"),
            Some(1),
            SuiteParams::default(),
        );
        let (out, artifacts) = execute_cell(&spec);
        assert_eq!(out.gate, GateOutcome::Fail);
        assert!(out.reason.contains("replay-forever"), "{}", out.reason);
        assert!(out.metrics.is_empty() && artifacts.is_empty());
        // Likewise a restore pair outside the restore matrix.
        let spec = cell(
            CellKind::Snapshot,
            Some("clusters"),
            "font",
            Some("quiet"),
            None,
            SuiteParams::default(),
        );
        let (out, _) = execute_cell(&spec);
        assert_eq!(out.gate, GateOutcome::Fail);
        assert!(out.reason.contains("restore matrix"), "{}", out.reason);
    }

    #[test]
    fn leakage_cell_reports_mi() {
        let spec = cell(
            CellKind::Leakage,
            Some("baseline"),
            "jpeg",
            None,
            None,
            SuiteParams::default(),
        );
        let (out, _) = execute_cell(&spec);
        // The unprotected baseline must leak, so this cell gates Pass.
        assert_eq!(out.gate, GateOutcome::Pass, "reason: {}", out.reason);
        assert!(out.metrics.iter().any(|(k, _)| k == "mi_bits"));
    }

    #[test]
    fn bench_cell_gates_on_residual_and_reports_hot_path() {
        let spec = cell(
            CellKind::Bench,
            Some("single"),
            "spell",
            None,
            None,
            SuiteParams::default(),
        );
        let (out, artifacts) = execute_cell(&spec);
        assert_eq!(out.gate, GateOutcome::Info, "reason: {}", out.reason);
        for key in [
            "cycles_per_op",
            "observer_cycles_per_op",
            "attributed_pct",
            "residual_pct",
            "hot_path_cycles_per_fault",
        ] {
            assert!(
                out.metrics.iter().any(|(k, _)| k == key),
                "missing metric {key}: {:?}",
                out.metrics
            );
        }
        // No host wall-clock metric may reach the journal, and the
        // profile tree supersedes a per-span top-N.
        assert!(
            !out.metrics
                .iter()
                .any(|(k, _)| k.contains("wall") || k.starts_with("top_span")),
            "unexpected metric in {:?}",
            out.metrics
        );
        assert_eq!(
            artifact_names(&artifacts),
            [
                "profile-spell-single.folded",
                "profile-spell-single.svg",
                "profile-spell-single.json"
            ]
        );
    }

    #[test]
    fn bench_cell_fails_on_impossible_residual_gate() {
        // The clusters/paging profile with 6% of its cycles left
        // unattributed: over the 5% gate.
        let mut p = autarky_profile::collect(&autarky_profile::CollectSpec {
            workload: "paging".into(),
            policy: "clusters".into(),
            scale: 1,
        })
        .expect("profile");
        assert!(p.passes_residual_gate(RESIDUAL_MAX_PCT));
        p.residual_cycles = p.total_cycles * 6 / 100;
        let out = bench_outcome(&p, None);
        assert_eq!(out.gate, GateOutcome::Fail);
        assert_eq!(out.reason, "residual 6.00% > 5.00% allowed");
    }

    /// Runs the clusters/paging bench cell against `baseline`.
    fn bench_paging_against(baseline: &str) -> CellOutcome {
        let spec = cell(
            CellKind::Bench,
            Some("clusters"),
            "paging",
            None,
            None,
            SuiteParams {
                baseline: Some(baseline.into()),
                ..SuiteParams::default()
            },
        );
        execute_cell(&spec).0
    }

    #[test]
    fn bench_cell_self_compares_clean_against_the_committed_baseline() {
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines/bench-v2.json");
        let out = bench_paging_against(committed);
        assert_eq!(out.gate, GateOutcome::Pass, "reason: {}", out.reason);
        for (key, want) in [
            ("cycles_per_op", 38240.5),
            ("baseline_cycles_per_op", 38240.5),
            ("delta_pct", 0.0),
            ("baseline_hot_path_cycles_per_fault", 27825.0),
            ("hot_path_delta_pct", 0.0),
        ] {
            assert!(
                out.metrics.contains(&(key.to_owned(), want)),
                "{key} != {want} in {:?}",
                out.metrics
            );
        }
    }

    #[test]
    fn bench_cell_flags_hot_path_growth_and_a_missing_baseline_entry() {
        // The same MAX_GROWTH_PCT holds the hot path: a baseline whose
        // hot path is 20% cheaper fails the cell on that gate alone.
        let dir = std::env::temp_dir().join(format!("ay-bench-cell-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let tight = dir.join("tight.json");
        std::fs::write(
            &tight,
            "\"name\": \"clusters/paging\",\n\"cycles_per_op\": 38240.500,\n\
             \"hot_path_cycles_per_fault\": 22260.000\n",
        )
        .expect("write baseline");
        // And a baseline without this cell's entry fails it outright.
        let other = dir.join("other.json");
        std::fs::write(
            &other,
            "\"name\": \"clusters/spell\",\n\"cycles_per_op\": 1.0\n",
        )
        .expect("write baseline");
        let tight_out = bench_paging_against(tight.to_str().expect("utf-8 path"));
        let other_out = bench_paging_against(other.to_str().expect("utf-8 path"));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(tight_out.gate, GateOutcome::Fail);
        assert!(
            tight_out
                .reason
                .starts_with("hot_path_cycles_per_fault +25.0%"),
            "reason: {}",
            tight_out.reason
        );
        assert_eq!(other_out.gate, GateOutcome::Fail);
        assert!(
            other_out.reason.contains("missing from baseline"),
            "reason: {}",
            other_out.reason
        );
    }

    #[test]
    fn figure_cell_reports_the_fig5_breakdown() {
        let spec = cell(
            CellKind::Figure,
            None,
            "fig5",
            None,
            None,
            SuiteParams::default(),
        );
        let (out, artifacts) = execute_cell(&spec);
        assert_eq!(out.gate, GateOutcome::Pass, "reason: {}", out.reason);
        let get = |key: String| out.metrics.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
        // Components partition the totals exactly (fig5's invariant).
        let parts = ["preemption", "invocation", "runtime_overhead", "sgx_paging"];
        for op in ["sgx1_fault", "sgx2_evict"] {
            let sum: Option<f64> = parts.iter().map(|c| get(format!("{op}_{c}"))).sum();
            assert_eq!(get(format!("{op}_total")), sum, "{op}");
        }
        assert!(out.reason.contains("sgx2_slower_fetch"), "{}", out.reason);
        assert_eq!(artifact_names(&artifacts), ["fig5.md"]);
        assert!(artifacts[0].1.contains("| fault | SGX1 |"));
    }

    #[test]
    fn figure_cell_fails_on_every_claim_that_does_not_hold() {
        let figure = autarky_bench::Figure {
            table: "# t\n".to_owned(),
            metrics: vec![("x".to_owned(), 1.0)],
            claims: vec![("a", true), ("b", false), ("c", false)],
        };
        let mut artifacts = Artifacts::new();
        let out = gate_figure("fig8", figure, &mut artifacts);
        assert_eq!(out.gate, GateOutcome::Fail);
        assert_eq!(out.reason, "claim b fails; claim c fails");
        assert_eq!(out.metrics, [("x".to_owned(), 1.0)]);
        assert_eq!(artifact_names(&artifacts), ["fig8.md"]);
        assert!(artifacts[0]
            .1
            .ends_with("- `a` holds\n- `b` FAILS\n- `c` FAILS\n"));
        // A figure outside the vocabulary fails cleanly.
        let spec = cell(
            CellKind::Figure,
            None,
            "fig9",
            None,
            None,
            SuiteParams::default(),
        );
        let (out, artifacts) = execute_cell(&spec);
        assert_eq!(out.gate, GateOutcome::Fail);
        assert!(out.reason.contains("fig9") && artifacts.is_empty());
    }

    #[test]
    fn fleet_quiet_cell_accounts_every_request() {
        let spec = CellSpec::new(
            CellKind::Fleet,
            None,
            "kvstore".into(),
            Some(192),
            Some("quiet".into()),
            Some("steady".into()),
            Some(1),
            SuiteParams {
                requests: 40,
                ..SuiteParams::default()
            },
        );
        let (out, artifacts) = execute_cell(&spec);
        assert_eq!(out.gate, GateOutcome::Pass, "reason: {}", out.reason);
        assert!(out.metrics.iter().any(|(k, _)| k == "p99_worst_cycles"));
        assert_eq!(
            artifact_names(&artifacts),
            ["fleet-latency-report.md", "fleet-forensics.txt"]
        );
    }

    #[test]
    fn slo_alerts_do_not_depend_on_flight_ring_headroom() {
        // The watch-smoke kvstore storm cell.
        let spec = cell(
            CellKind::Watch,
            None,
            "kvstore",
            Some("storm"),
            Some(1),
            SuiteParams {
                requests: 150,
                ..SuiteParams::default()
            },
        );
        let victim_alerts = |flight_capacity: usize| {
            let (cfg, traffic) = watch_scenario(&spec, true).expect("scenario");
            let mut fleet = Fleet::new(FleetConfig {
                flight_capacity,
                ..cfg
            })
            .expect("boot");
            fleet.run(traffic).expect("run");
            let alerts: Vec<_> = fleet
                .watch_alerts()
                .iter()
                .filter(|a| a.member == 0)
                .cloned()
                .collect();
            (alerts, fleet.os().flight_dropped())
        };
        let (full, full_dropped) = victim_alerts(1 << 18);
        assert_eq!(full_dropped, 0);
        assert_eq!(full.len(), 1);
        assert_eq!((full[0].detector, full[0].window), ("slo_burn", 14));
        // Every record still charges its cost when the ring overflows,
        // so the timeline and the alert stay where they were.
        let (small, small_dropped) = victim_alerts(64);
        assert!(small_dropped > 0, "a 64-record ring overflows");
        assert_eq!(small, full);
    }
}
