//! `fleet`: three enclaves sharing one EPC behind the supervisor (kv
//! θ=0.99, kv θ=0.2, spell), driven open loop by seeded Poisson
//! arrivals. The only workload with the flight recorder armed, EPC
//! sharing, checkpoint sealing and queueing.
//!
//! Arrival times are fixed before the run, so the simulated generator
//! is never late: a slow request delays the ones queued behind it, and
//! their latency (arrival to completion) shows it.

use std::time::Instant;

use autarky_fleet::{
    kv_stream, spell_stream, Arrivals, Fleet, FleetConfig, LoadConfig, MemberConfig, MemberStats,
    TimedRequest, WorkloadKind,
};
use autarky_runtime::RuntimeConfig;
use autarky_sgx_sim::CLOCK_HZ;
use autarky_telemetry::{Histogram, SpanKind};

use super::{end_span, end_span_with, stream_seed, Failures, Rep, WINDOWS};
use crate::host::calibrate;
use crate::metrics::Metrics;
use crate::probe::Probe;
use crate::stats::{bisect_capacity, hist_quantile, Window};
use crate::trace::Tracer;

/// Request counts of a fleet rep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetShape {
    /// Requests per member at the fixed point.
    pub fixed_requests: usize,
    /// Requests per member in each capacity probe.
    pub probe_requests: usize,
}

/// 15,000 requests at the fixed point; 12,000 per capacity probe (the
/// p99 of fewer moves the SLO crossing by over 10% between seeds).
pub const SHAPE: FleetShape = FleetShape {
    fixed_requests: 5_000,
    probe_requests: 4_000,
};

/// Mean gap between one member's arrivals at the fixed point, cycles.
pub const FIXED_GAP: u64 = 2_000_000;
/// Capacity search range over the per-member mean gap, cycles.
pub const GAP_RANGE: (u64, u64) = (500_000, 8_000_000);
/// Capacity search resolution (relative).
pub const RESOLUTION: f64 = 0.01;
/// Latency SLO on the fleet-wide p99, cycles.
pub const P99_SLO: u64 = 1_000_000;

const KV_ITEMS: u64 = 64;
const DICT_WORDS: usize = 600;
const WORDS_PER_REQUEST: usize = 12;
const MEMBERS: usize = 3;

fn config() -> FleetConfig {
    let kv = |name: &str| MemberConfig {
        name: name.into(),
        workload: WorkloadKind::Kv {
            items: KV_ITEMS,
            value_size: 2048,
        },
        heap_pages: 192,
        epc_quota: 0,
        runtime: RuntimeConfig {
            budget: 16,
            ..Default::default()
        },
        pin_kv_metadata: false,
    };
    FleetConfig {
        members: vec![
            kv("kv-hot"),
            kv("kv-flat"),
            MemberConfig {
                name: "spell".into(),
                workload: WorkloadKind::Spell {
                    dict_words: DICT_WORDS,
                },
                heap_pages: 256,
                epc_quota: 0,
                runtime: RuntimeConfig {
                    budget: 24,
                    ..Default::default()
                },
                pin_kv_metadata: false,
            },
        ],
        ..FleetConfig::default()
    }
}

/// One stream per member: `requests` Poisson arrivals with mean gap
/// `gap`, starting at `start`.
pub fn traffic(seed: u64, gap: u64, requests: usize, start: u64) -> Vec<Vec<TimedRequest>> {
    let load = |label| LoadConfig {
        seed: stream_seed(seed, label),
        requests,
        arrivals: Arrivals::Poisson {
            mean_gap_cycles: gap,
        },
        start_cycles: start,
    };
    vec![
        kv_stream(load(7), KV_ITEMS, 0.99),
        kv_stream(load(8), KV_ITEMS, 0.2),
        spell_stream(load(9), "en", DICT_WORDS, WORDS_PER_REQUEST),
    ]
}

fn boot() -> Result<(Fleet, Vec<MemberStats>), String> {
    let mut fleet = Fleet::new(config()).map_err(|e| format!("fleet: boot: {e}"))?;
    // An empty run publishes the members' boot-time span profiles, the
    // baseline the measured phase is counted from.
    let stats = fleet
        .run(vec![Vec::new(); MEMBERS])
        .map_err(|e| format!("fleet: {e}"))?;
    Ok((fleet, stats))
}

fn merged_latency(stats: &[MemberStats]) -> Histogram {
    let mut h = Histogram::new();
    for s in stats {
        h.absorb(&s.latency);
    }
    h
}

fn span_totals(stats: &[MemberStats], kind: SpanKind) -> (u64, u64) {
    stats
        .iter()
        .flat_map(|s| &s.span_profile)
        .filter(|l| l.kind == kind.name())
        .fold((0, 0), |(n, c), l| (n + l.count, c + l.cycles))
}

/// Runtime counters of the whole fleet, from the supervisor's merged
/// span profiles (member runtimes are private to the supervisor). Every
/// member pages with `EWB`/`ELDU`, so pages moved are the machine's.
fn fleet_probe(fleet: &Fleet, stats: &[MemberStats]) -> Probe {
    let (faults, handler) = span_totals(stats, SpanKind::FaultHandler);
    let mut p = Probe::os(fleet.os());
    p.rt_faults = faults;
    p.handler_cycles = handler;
    p.fetch_cycles = span_totals(stats, SpanKind::AyFetchPages).1;
    p.evict_cycles = span_totals(stats, SpanKind::AyEvictPages).1;
    p.rt_fetched = p.eldus;
    p.rt_evicted = p.ewbs;
    p
}

/// The `fleet.*` metrics of a closed-loop workload: there is no fleet.
pub fn no_fleet(sim: &mut Metrics) {
    for name in [
        "fleet.served_ratio",
        "fleet.shed",
        "fleet.retries",
        "fleet.restarts",
        "fleet.shrinks",
        "fleet.watchdog_strikes",
        "fleet.p999_cycles",
    ] {
        sim.insert(name, 0.0);
    }
}

/// Whether one capacity probe at mean gap `gap` meets the SLO with no
/// request shed. A fresh fleet per probe keeps probes independent; the
/// same seed at every gap keeps the p99-versus-gap curve smooth.
fn meets_slo(
    seed: u64,
    gap: u64,
    requests: usize,
    tracer: &mut Option<&mut Tracer>,
    parent: u64,
) -> Result<bool, String> {
    let span = tracer
        .as_deref_mut()
        .map(|t| t.begin("fleet.probe", parent));
    let (mut fleet, _) = boot()?;
    let start = fleet.now() + 1_000;
    let stats = fleet
        .run(traffic(seed, gap, requests, start))
        .map_err(|e| format!("fleet: probe at gap {gap}: {e}"))?;
    let p99 = hist_quantile(&merged_latency(&stats), 0.99);
    let shed: u64 = stats
        .iter()
        .map(|s| s.rejected_queue_full + s.rejected_evicted)
        .sum();
    let ok = p99 <= P99_SLO as f64 && shed == 0;
    let args = vec![("gap", gap as f64), ("p99", p99), ("shed", shed as f64)];
    end_span_with(tracer, span, args);
    Ok(ok)
}

/// The highest offered load, in simulated requests per simulated second
/// over all members, at which the fleet-wide p99 stays within
/// [`P99_SLO`] with nothing shed: a bisection over the mean arrival gap.
/// Deterministic per seed, so a run computes it once, not per rep.
pub fn capacity(
    seed: u64,
    shape: &FleetShape,
    mut tracer: Option<&mut Tracer>,
) -> Result<(Metrics, Failures), String> {
    let span = tracer.as_deref_mut().map(|t| t.begin("fleet.capacity", 0));
    let parent = span.as_ref().map_or(0, |o| o.id());
    let (lo, hi) = GAP_RANGE;
    let gap = bisect_capacity(lo, hi, RESOLUTION, |gap| {
        meets_slo(seed, gap, shape.probe_requests, &mut tracer, parent)
    })?;
    end_span(&mut tracer, span);
    let mut failures = Failures::default();
    let gap = gap.unwrap_or_else(|| {
        failures.note(format!(
            "fleet: p99 exceeds {P99_SLO} cycles even at gap {hi}"
        ));
        hi
    });
    let rate = (MEMBERS as u64 * CLOCK_HZ) as f64 / gap as f64;
    Ok((Metrics::from([("capacity_rps", rate)]), failures))
}

/// One fleet rep: boot, then serve the fixed point in [`WINDOWS`]
/// chunks.
pub fn rep(seed: u64, shape: &FleetShape, mut tracer: Option<&mut Tracer>) -> Result<Rep, String> {
    let root = tracer.as_deref_mut().map(|t| t.begin("rep", 0));
    let root_id = root.as_ref().map_or(0, |o| o.id());

    let span = tracer.as_deref_mut().map(|t| t.begin("setup", root_id));
    let started = Instant::now();
    let (mut fleet, boot_stats) = boot()?;
    let streams = traffic(seed, FIXED_GAP, shape.fixed_requests, fleet.now() + 1_000);
    let setup_s = started.elapsed().as_secs_f64();
    end_span(&mut tracer, span);

    // Windows cut the arrival timeline at equal simulated-time
    // boundaries, so every member's chunk ends near the same instant and
    // little of the next chunk arrives while one drains. What does is
    // admitted when the next chunk starts, stamped with its true arrival.
    let first = streams
        .iter()
        .filter_map(|s| s.first())
        .map(|t| t.arrival_cycles)
        .min()
        .unwrap_or(0);
    let last = streams
        .iter()
        .filter_map(|s| s.last())
        .map(|t| t.arrival_cycles)
        .max()
        .unwrap_or(0);
    let step = (last - first) / WINDOWS as u64 + 1;
    let before = fleet_probe(&fleet, &boot_stats);
    let mut stats = boot_stats;
    let mut windows = Vec::with_capacity(WINDOWS);
    let mut calibration = Vec::with_capacity(WINDOWS);
    let mut served = 0u64;
    for w in 0..WINDOWS as u64 {
        let window = first + w * step..first + (w + 1) * step;
        let chunk: Vec<Vec<TimedRequest>> = streams
            .iter()
            .map(|s| {
                s.iter()
                    .filter(|t| window.contains(&t.arrival_cycles))
                    .cloned()
                    .collect()
            })
            .collect();
        let span = tracer
            .as_deref_mut()
            .map(|t| t.begin("fleet.window", root_id));
        let c0 = fleet.now();
        let started = Instant::now();
        stats = fleet
            .run(chunk)
            .map_err(|e| format!("fleet: window {w}: {e}"))?;
        let secs = started.elapsed().as_secs_f64();
        let now_served: u64 = stats.iter().map(|s| s.served).sum();
        let ops = now_served - served;
        served = now_served;
        windows.push(Window { ops, secs });
        if let (Some(t), Some(open)) = (tracer.as_deref_mut(), span) {
            t.ops_in_call(ops, secs);
            t.end(
                open,
                vec![
                    ("served", ops as f64),
                    ("sim_cycles", (fleet.now() - c0) as f64),
                ],
            );
        }
        calibration.push(calibrate());
    }
    let delta = fleet_probe(&fleet, &stats).since(&before);

    let mut failures = Failures::default();
    let offered: u64 = stats.iter().map(|s| s.offered).sum();
    let shed: u64 = stats.iter().map(|s| s.rejected_queue_full).sum();
    for s in &stats {
        if s.offered != s.served + s.rejected_queue_full + s.rejected_evicted {
            failures.note(format!("fleet: {} dropped a request silently", s.name));
        }
        if !s.byte_identical {
            failures.note(format!("fleet: {} restored a diverged snapshot", s.name));
        }
        for _ in 0..s.rejected_queue_full + s.rejected_evicted {
            failures.note(format!(
                "fleet: {} rejected a request at the fixed point",
                s.name
            ));
        }
        if s.restarts > 0 {
            failures.note(format!(
                "fleet: {} restarted without an injected fault",
                s.name
            ));
        }
    }

    let latency = merged_latency(&stats);
    let sum = |f: fn(&MemberStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let mut sim = Metrics::from([
        // The histogram keeps an exact sum, so the mean is exact; its
        // quantiles come from 25%-wide buckets, interpolated.
        ("sim_cycles_per_op", latency.mean()),
        ("sim_op_p50_cycles", hist_quantile(&latency, 0.50)),
        ("sim_op_p99_cycles", hist_quantile(&latency, 0.99)),
        (
            "fleet.served_ratio",
            if offered == 0 {
                0.0
            } else {
                served as f64 / offered as f64
            },
        ),
        ("fleet.shed", shed as f64),
        ("fleet.retries", sum(|s| s.retries)),
        ("fleet.restarts", sum(|s| s.restarts as u64)),
        ("fleet.shrinks", sum(|s| s.shrinks)),
        ("fleet.watchdog_strikes", sum(|s| s.watchdog_strikes)),
        ("fleet.p999_cycles", hist_quantile(&latency, 0.999)),
    ]);
    delta.layer_metrics(served, &mut sim);
    end_span(&mut tracer, root);

    Ok(Rep {
        setup_s,
        windows,
        calibration,
        sim,
        sim_ops: latency.count(),
        delta,
        attempted: offered,
        failures,
    })
}
