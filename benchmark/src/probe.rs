//! Simulated layer counters, read through each crate's public accessors
//! before and after a measured phase.

use autarky_os_sim::flight::RECORD_COST_CYCLES;
use autarky_os_sim::Os;
use autarky_sgx_sim::{CostTag, COST_TAGS};
use autarky_telemetry::SpanKind;
use autarky_workloads::{EncHeap, World};

use crate::metrics::Metrics;

/// One snapshot of every simulated counter the benchmark reports.
/// Fields are cumulative; [`Probe::since`] turns two snapshots into the
/// counts of the interval between them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Probe {
    /// Machine clock.
    pub cycles: u64,
    /// Machine clock split by cost tag.
    pub tags: [u64; COST_TAGS],
    /// Page faults raised in enclave mode.
    pub faults: u64,
    /// Asynchronous enclave exits.
    pub aexs: u64,
    /// `EENTER`s.
    pub eenters: u64,
    /// `ERESUME`s.
    pub eresumes: u64,
    /// `EWB` page evictions.
    pub ewbs: u64,
    /// `ELDU` page reloads.
    pub eldus: u64,
    /// TLB fills.
    pub tlb_fills: u64,
    /// TLB hits.
    pub tlb_hits: u64,
    /// TLB flushes.
    pub tlb_flushes: u64,
    /// Faults seen by the trusted handler.
    pub rt_faults: u64,
    /// Pages the runtime fetched.
    pub rt_fetched: u64,
    /// Pages the runtime evicted.
    pub rt_evicted: u64,
    /// Faults forwarded to the OS (OS-managed pages).
    pub rt_forwarded: u64,
    /// Transient driver errors the runtime retried.
    pub rt_retries: u64,
    /// OS-misbehaviour anomalies the runtime recorded.
    pub rt_misbehavior: u64,
    /// Simulated cycles inside `fault_handler` spans.
    pub handler_cycles: u64,
    /// Simulated cycles inside `ay_fetch_pages` spans.
    pub fetch_cycles: u64,
    /// Simulated cycles inside `ay_evict_pages` spans.
    pub evict_cycles: u64,
    /// Logical ORAM accesses.
    pub oram_accesses: u64,
    /// ORAM buckets read from untrusted storage.
    pub bucket_reads: u64,
    /// ORAM buckets written to untrusted storage.
    pub bucket_writes: u64,
    /// Bytes through ORAM bucket crypto.
    pub crypto_bytes: u64,
    /// ORAM cache hits.
    pub cache_hits: u64,
    /// ORAM cache misses.
    pub cache_misses: u64,
    /// Largest stash occupancy seen since boot (not a delta).
    pub stash_peak: u64,
    /// Flight records lost to ring overflow.
    pub flight_dropped: u64,
}

impl Probe {
    /// Machine- and OS-level counters of a host (any number of enclaves).
    pub fn os(os: &Os) -> Self {
        let m = &os.machine;
        let s = m.stats();
        let (tlb_fills, tlb_hits, tlb_flushes) = m.tlb_stats();
        Probe {
            cycles: m.clock.now(),
            tags: m.clock.tag_totals(),
            faults: s.faults,
            aexs: s.aexs,
            eenters: s.eenters,
            eresumes: s.eresumes,
            ewbs: s.ewbs,
            eldus: s.eldus,
            tlb_fills,
            tlb_hits,
            tlb_flushes,
            flight_dropped: os.flight_dropped(),
            ..Probe::default()
        }
    }

    /// Every counter of a single-enclave world and its heap.
    pub fn world(world: &World, heap: &EncHeap) -> Self {
        let rt = &world.rt;
        let span = |kind| rt.telemetry.span_agg(kind).total_cycles;
        let mut p = Probe {
            rt_faults: rt.stats.faults_handled,
            rt_fetched: rt.stats.pages_fetched,
            rt_evicted: rt.stats.pages_evicted,
            rt_forwarded: rt.stats.forwarded,
            rt_retries: rt.stats.retries,
            rt_misbehavior: rt.stats.misbehavior,
            handler_cycles: span(SpanKind::FaultHandler),
            fetch_cycles: span(SpanKind::AyFetchPages),
            evict_cycles: span(SpanKind::AyEvictPages),
            ..Probe::os(&world.os)
        };
        // A direct heap has no ORAM; skip the stats clone on the
        // per-op traced path of the fast workloads.
        if heap.is_oram() {
            let o = heap.oram_stats();
            p.oram_accesses = o.accesses();
            p.bucket_reads = o.bucket_reads();
            p.bucket_writes = o.bucket_writes();
            p.crypto_bytes = o.crypto_bytes();
            p.cache_hits = o.cache_hits();
            p.cache_misses = o.cache_misses();
            p.stash_peak = o.stash_hist().max();
        }
        p
    }

    /// Counts accumulated between `before` and `self`.
    pub fn since(&self, before: &Probe) -> Probe {
        self.zip(before, u64::wrapping_sub)
    }

    /// Sum of two intervals' counts.
    pub fn plus(&self, other: &Probe) -> Probe {
        self.zip(other, u64::wrapping_add)
    }

    fn zip(&self, o: &Probe, f: fn(u64, u64) -> u64) -> Probe {
        let mut tags = [0; COST_TAGS];
        for (i, t) in tags.iter_mut().enumerate() {
            *t = f(self.tags[i], o.tags[i]);
        }
        Probe {
            cycles: f(self.cycles, o.cycles),
            tags,
            faults: f(self.faults, o.faults),
            aexs: f(self.aexs, o.aexs),
            eenters: f(self.eenters, o.eenters),
            eresumes: f(self.eresumes, o.eresumes),
            ewbs: f(self.ewbs, o.ewbs),
            eldus: f(self.eldus, o.eldus),
            tlb_fills: f(self.tlb_fills, o.tlb_fills),
            tlb_hits: f(self.tlb_hits, o.tlb_hits),
            tlb_flushes: f(self.tlb_flushes, o.tlb_flushes),
            rt_faults: f(self.rt_faults, o.rt_faults),
            rt_fetched: f(self.rt_fetched, o.rt_fetched),
            rt_evicted: f(self.rt_evicted, o.rt_evicted),
            rt_forwarded: f(self.rt_forwarded, o.rt_forwarded),
            rt_retries: f(self.rt_retries, o.rt_retries),
            rt_misbehavior: f(self.rt_misbehavior, o.rt_misbehavior),
            handler_cycles: f(self.handler_cycles, o.handler_cycles),
            fetch_cycles: f(self.fetch_cycles, o.fetch_cycles),
            evict_cycles: f(self.evict_cycles, o.evict_cycles),
            oram_accesses: f(self.oram_accesses, o.oram_accesses),
            bucket_reads: f(self.bucket_reads, o.bucket_reads),
            bucket_writes: f(self.bucket_writes, o.bucket_writes),
            crypto_bytes: f(self.crypto_bytes, o.crypto_bytes),
            cache_hits: f(self.cache_hits, o.cache_hits),
            cache_misses: f(self.cache_misses, o.cache_misses),
            stash_peak: self.stash_peak.max(o.stash_peak),
            flight_dropped: f(self.flight_dropped, o.flight_dropped),
        }
    }

    /// Flight-recorder events in this interval: every recorded event
    /// charges exactly [`RECORD_COST_CYCLES`] to the recorder tag.
    pub fn flight_events(&self) -> u64 {
        self.tags[CostTag::Recorder as usize] / RECORD_COST_CYCLES
    }

    /// The simulated per-layer metrics of an interval holding `ops`
    /// workload operations.
    pub fn layer_metrics(&self, ops: u64, out: &mut Metrics) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let per_op = |v: u64| ratio(v, ops);
        let per_fault = |v: u64| ratio(v, self.rt_faults);
        let tag = |t: CostTag| per_op(self.tags[t as usize]);
        let values = [
            ("sgx.faults_per_op", per_op(self.faults)),
            ("sgx.aex_per_op", per_op(self.aexs)),
            ("sgx.ewb_per_op", per_op(self.ewbs)),
            ("sgx.eldu_per_op", per_op(self.eldus)),
            ("sgx.eenter_per_op", per_op(self.eenters)),
            ("sgx.eresume_per_op", per_op(self.eresumes)),
            ("sgx.tlb_fills_per_op", per_op(self.tlb_fills)),
            ("sgx.tlb_hits_per_op", per_op(self.tlb_hits)),
            ("sgx.tlb_flushes_per_op", per_op(self.tlb_flushes)),
            (
                "sgx.tlb_fill_ratio",
                ratio(self.tlb_fills, self.tlb_fills + self.tlb_hits),
            ),
            ("sgx.sim_preemption_cycles_per_op", tag(CostTag::Preemption)),
            (
                "sgx.sim_handler_invocation_cycles_per_op",
                tag(CostTag::HandlerInvocation),
            ),
            ("sgx.sim_paging_cycles_per_op", tag(CostTag::Paging)),
            (
                "sgx.sim_translation_cycles_per_op",
                tag(CostTag::Translation),
            ),
            ("rt.sim_runtime_cycles_per_op", tag(CostTag::Runtime)),
            ("os.sim_kernel_cycles_per_op", tag(CostTag::OsKernel)),
            ("os.sim_syscall_cycles_per_op", tag(CostTag::Syscall)),
            ("os.sim_injected_cycles_per_op", tag(CostTag::Injected)),
            ("os.sim_recorder_cycles_per_op", tag(CostTag::Recorder)),
            ("crypto.sim_sw_crypto_cycles_per_op", tag(CostTag::Crypto)),
            ("oram.sim_cycles_per_op", tag(CostTag::Oram)),
            ("workload.sim_other_cycles_per_op", tag(CostTag::Other)),
            ("rt.faults_handled_per_op", per_op(self.rt_faults)),
            ("rt.pages_fetched_per_fault", per_fault(self.rt_fetched)),
            ("rt.pages_evicted_per_fault", per_fault(self.rt_evicted)),
            ("rt.forwarded_per_op", per_op(self.rt_forwarded)),
            ("rt.retries", self.rt_retries as f64),
            ("rt.misbehavior", self.rt_misbehavior as f64),
            (
                "rt.sim_handler_cycles_per_fault",
                per_fault(self.handler_cycles),
            ),
            (
                "rt.sim_fetch_cycles_per_fault",
                per_fault(self.fetch_cycles),
            ),
            (
                "rt.sim_evict_cycles_per_fault",
                per_fault(self.evict_cycles),
            ),
            ("oram.accesses_per_op", per_op(self.oram_accesses)),
            ("oram.bucket_reads_per_op", per_op(self.bucket_reads)),
            ("oram.bucket_writes_per_op", per_op(self.bucket_writes)),
            ("oram.crypto_bytes_per_op", per_op(self.crypto_bytes)),
            (
                "oram.cache_hit_ratio",
                ratio(self.cache_hits, self.cache_hits + self.cache_misses),
            ),
            ("oram.cache_misses_per_op", per_op(self.cache_misses)),
            ("oram.stash_peak", self.stash_peak as f64),
            ("os.flight_events_per_op", per_op(self.flight_events())),
            ("os.flight_dropped", self.flight_dropped as f64),
        ];
        out.extend(values);
    }
}
