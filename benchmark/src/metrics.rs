//! The metric catalogue: every number the benchmark reports, with its
//! unit, direction, clock and (end-to-end only) regression bound.
//! `BENCHMARK.json` must list exactly these; a test checks that it does.

use std::collections::BTreeMap;

use autarky_crypto::sha256;

/// Which clock a number is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated cycles (or counts of simulated events): bit-exact for a
    /// given seed, on any host.
    Sim,
    /// The host's wall clock or memory: subject to host noise.
    Host,
}

impl Clock {
    /// Label printed beside every value.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Host => "host",
        }
    }
}

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Stable name (`[A-Za-z0-9_.-]`).
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Clock the value is measured on.
    pub clock: Clock,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (0 for per-layer
    /// metrics, which carry no bound).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};
use Clock::{Host, Sim};

/// End-to-end metrics, reported by every workload of an untraced run.
///
/// Bounds cover the spread between seeds (the simulated inputs differ by
/// seed) and, for host metrics, between runs on a shared host; see
/// `README.md` for the spreads they were set from.
pub const END_TO_END: &[MetricDef] = &[
    e2e("host_ops_per_s", "1/s", Higher, Host, 0.25),
    e2e("setup_s", "s", Lower, Host, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, Host, 0.10),
    e2e("sim_cycles_per_op", "cycles", Lower, Sim, 0.10),
    e2e("sim_op_p50_cycles", "cycles", Lower, Sim, 0.10),
    e2e("sim_op_p99_cycles", "cycles", Lower, Sim, 0.15),
    e2e("capacity_rps", "1/s", Higher, Sim, 0.20),
];

/// Per-layer metrics, reported by every workload of a traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // Host layer ladder: one public call per rung, on a fresh world.
    layer("crypto.host_seal_4k_ns", "ns", Lower, Host),
    layer("crypto.host_open_4k_ns", "ns", Lower, Host),
    layer("sgx.host_ewb_ns", "ns", Lower, Host),
    layer("sgx.host_eldu_ns", "ns", Lower, Host),
    layer("sgx.self_ewb_ns", "ns", Lower, Host),
    layer("sgx.self_eldu_ns", "ns", Lower, Host),
    layer("sgx.host_read8_ns", "ns", Lower, Host),
    layer("sgx.host_read4k_ns", "ns", Lower, Host),
    layer("sgx.host_exec_ns", "ns", Lower, Host),
    layer("os.host_evict_page_ns", "ns", Lower, Host),
    layer("os.host_fetch_page_ns", "ns", Lower, Host),
    layer("os.self_evict_ns", "ns", Lower, Host),
    layer("os.self_fetch_ns", "ns", Lower, Host),
    layer("rt.host_evict_page_ns", "ns", Lower, Host),
    layer("rt.host_fetch_page_ns", "ns", Lower, Host),
    layer("rt.self_evict_ns", "ns", Lower, Host),
    layer("rt.self_fetch_ns", "ns", Lower, Host),
    layer("rt.host_fault_roundtrip_ns", "ns", Lower, Host),
    layer("rt.self_fault_ns", "ns", Lower, Host),
    layer("oram.host_read_ns", "ns", Lower, Host),
    layer("oram.host_write_ns", "ns", Lower, Host),
    layer("os.flight_host_ns_per_event", "ns", Lower, Host),
    layer("os.flight_sim_cycles_per_event", "cycles", Lower, Sim),
    // Unscaled throughput and the host speed that scales it.
    layer("host.raw_ops_per_s", "1/s", Higher, Host),
    layer("host.speed_index", "ratio", Higher, Host),
    // The traced run itself.
    layer("trace.overhead_pct", "%", Lower, Host),
    layer("trace.op_host_ns_p50", "ns", Lower, Host),
    layer("trace.op_host_ns_p99", "ns", Lower, Host),
    layer("host_share.crypto", "%", Lower, Host),
    layer("host_share.sgx", "%", Lower, Host),
    layer("host_share.os", "%", Lower, Host),
    layer("host_share.rt", "%", Lower, Host),
    layer("host_share.oram", "%", Lower, Host),
    layer("host_share.residual", "%", Lower, Host),
    // Simulated layer counters over the measured phase.
    layer("sgx.faults_per_op", "count", Lower, Sim),
    layer("sgx.aex_per_op", "count", Lower, Sim),
    layer("sgx.ewb_per_op", "count", Lower, Sim),
    layer("sgx.eldu_per_op", "count", Lower, Sim),
    layer("sgx.eenter_per_op", "count", Lower, Sim),
    layer("sgx.eresume_per_op", "count", Lower, Sim),
    layer("sgx.tlb_fills_per_op", "count", Lower, Sim),
    layer("sgx.tlb_hits_per_op", "count", Lower, Sim),
    layer("sgx.tlb_flushes_per_op", "count", Lower, Sim),
    layer("sgx.tlb_fill_ratio", "ratio", Lower, Sim),
    layer("sgx.sim_preemption_cycles_per_op", "cycles", Lower, Sim),
    layer(
        "sgx.sim_handler_invocation_cycles_per_op",
        "cycles",
        Lower,
        Sim,
    ),
    layer("sgx.sim_paging_cycles_per_op", "cycles", Lower, Sim),
    layer("sgx.sim_translation_cycles_per_op", "cycles", Lower, Sim),
    layer("rt.sim_runtime_cycles_per_op", "cycles", Lower, Sim),
    layer("os.sim_kernel_cycles_per_op", "cycles", Lower, Sim),
    layer("os.sim_syscall_cycles_per_op", "cycles", Lower, Sim),
    layer("os.sim_injected_cycles_per_op", "cycles", Lower, Sim),
    layer("os.sim_recorder_cycles_per_op", "cycles", Lower, Sim),
    layer("crypto.sim_sw_crypto_cycles_per_op", "cycles", Lower, Sim),
    layer("oram.sim_cycles_per_op", "cycles", Lower, Sim),
    layer("workload.sim_other_cycles_per_op", "cycles", Lower, Sim),
    layer("rt.faults_handled_per_op", "count", Lower, Sim),
    layer("rt.pages_fetched_per_fault", "count", Lower, Sim),
    layer("rt.pages_evicted_per_fault", "count", Lower, Sim),
    layer("rt.forwarded_per_op", "count", Lower, Sim),
    layer("rt.retries", "count", Lower, Sim),
    layer("rt.misbehavior", "count", Lower, Sim),
    layer("rt.sim_handler_cycles_per_fault", "cycles", Lower, Sim),
    layer("rt.sim_fetch_cycles_per_fault", "cycles", Lower, Sim),
    layer("rt.sim_evict_cycles_per_fault", "cycles", Lower, Sim),
    layer("oram.accesses_per_op", "count", Lower, Sim),
    layer("oram.bucket_reads_per_op", "count", Lower, Sim),
    layer("oram.bucket_writes_per_op", "count", Lower, Sim),
    layer("oram.crypto_bytes_per_op", "bytes", Lower, Sim),
    layer("oram.cache_hit_ratio", "ratio", Higher, Sim),
    layer("oram.cache_misses_per_op", "count", Lower, Sim),
    layer("oram.stash_peak", "blocks", Lower, Sim),
    layer("os.flight_events_per_op", "count", Lower, Sim),
    layer("os.flight_dropped", "count", Lower, Sim),
    layer("fleet.served_ratio", "ratio", Higher, Sim),
    layer("fleet.shed", "count", Lower, Sim),
    layer("fleet.retries", "count", Lower, Sim),
    layer("fleet.restarts", "count", Lower, Sim),
    layer("fleet.shrinks", "count", Lower, Sim),
    layer("fleet.watchdog_strikes", "count", Lower, Sim),
    layer("fleet.p999_cycles", "cycles", Lower, Sim),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Look a metric up in either catalogue.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// SHA-256 over every simulated metric in `metrics`, in catalogue
/// order, as exact bit patterns. Equal digests mean the model produced
/// the same numbers; a host-only change must leave it unchanged.
pub fn sim_digest(metrics: &Metrics) -> String {
    let mut text = String::new();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        if d.clock == Clock::Sim {
            if let Some(v) = metrics.get(d.name) {
                text.push_str(&format!("{}={:016x}\n", d.name, v.to_bits()));
            }
        }
    }
    sha256(text.as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}
