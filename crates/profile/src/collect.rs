//! Profile collection: run a policy × workload cell with the charge
//! journal and flight recorder armed, and attribute every simulated
//! cycle of the measured phase.
//!
//! These are the only builders of the perf scenarios — the Fig. 5 fault
//! round trip, Table 2's Hunspell, Fig. 8's cached-ORAM GETs, and pinned
//! FreeType. A `bench` campaign cell's cycles/op is a view of the
//! profile: the armed run's total minus the flight recorder's own
//! `recorder` tag, which equals an unarmed run's cycles exactly (see
//! [`Observe::Unarmed`] and the observer-effect test).
//!
//! Collection is *harvest-batched*: every few operations the two
//! streams are drained and joined ([`crate::attr`]), then re-armed. A
//! window's spans are its flight `SpanClose` records. Harvest windows
//! are independent — every correlation chain and span closes between
//! operations — so batching bounds buffer sizes without losing
//! attribution at the seams.
//!
//! The workload setup phase (allocation, dictionary/store loading) runs
//! *before* arming: the profile covers exactly the measured phase.

use autarky::prelude::*;
use autarky::workloads::font::FontRenderer;
use autarky::workloads::kvstore::{ItemClustering, KvStore};
use autarky::workloads::spell::{synth_wordlist, Dictionary};
use autarky::{Profile, SystemBuilder};
use autarky_bench::fig5::BATCH;
use autarky_os_sim::FlightEvent;
use autarky_sgx_sim::CostTag;
use autarky_telemetry::{SpanKind, SpanRecord};

use crate::attr::Attributor;
use crate::profile::{ClusterRow, CycleProfile, CLUSTER_ROWS};

/// The perf scenarios, in suite order (the campaign `bench` kind's
/// workload vocabulary).
pub const PROFILE_WORKLOADS: [&str; 4] = ["paging", "spell", "kvstore", "font"];

/// Paging-policy variants, the profile diff axis:
/// `clusters` = the perf-suite defaults, `single` = degraded to
/// single-page fetching (smaller clusters / colder cache), `elided` =
/// defaults plus AEX elision. The pinned font scenario has no cluster or
/// cache to shrink, so `single` runs it as `clusters` does.
pub const PROFILE_POLICIES: [&str; 3] = ["clusters", "single", "elided"];

/// Operations per harvest window.
const HARVEST_EVERY: u64 = 8;
/// Charge-journal capacity per window.
const JOURNAL_CAP: usize = 1 << 18;
/// Flight-recorder capacity per window.
const FLIGHT_CAP: usize = 1 << 15;

/// One profile request: which cell to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectSpec {
    /// Workload name (see [`PROFILE_WORKLOADS`]).
    pub workload: String,
    /// Policy variant (see [`PROFILE_POLICIES`]).
    pub policy: String,
    /// Scale factor (multiplies operation counts).
    pub scale: u32,
}

/// How a collection run observes its measured phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    /// Journal and flight recorder armed (what [`collect`] does).
    Armed,
    /// Armed, but `fault_handler` spans are left out of the span list
    /// before attribution (chains still see every flight record),
    /// simulating lost instrumentation — the residual-gate tests use it
    /// to prove orphaned cycles are detected rather than silently
    /// re-attributed.
    DropFaultSpans,
    /// Nothing armed: the profile carries the clock delta and tag totals
    /// but no tree. The observer-effect test compares it against an
    /// armed run.
    Unarmed,
}

/// Run one profile cell.
pub fn collect(spec: &CollectSpec) -> Result<CycleProfile, String> {
    collect_impl(spec, Observe::Armed)
}

/// Collection seam: [`collect`] with an explicit [`Observe`] mode. Not
/// for production callers.
pub fn collect_impl(spec: &CollectSpec, observe: Observe) -> Result<CycleProfile, String> {
    if !PROFILE_POLICIES.contains(&spec.policy.as_str()) {
        return Err(format!(
            "unknown policy {:?} (valid: {})",
            spec.policy,
            PROFILE_POLICIES.join(", ")
        ));
    }
    let scale = spec.scale.max(1);
    let (ops, mut profile) = match spec.workload.as_str() {
        "paging" => collect_paging(&spec.policy, scale, observe)?,
        "spell" => collect_spell(&spec.policy, scale, observe)?,
        "kvstore" => collect_kvstore(&spec.policy, scale, observe)?,
        "font" => collect_font(&spec.policy, scale, observe)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (valid: {})",
                PROFILE_WORKLOADS.join(", ")
            ))
        }
    };
    profile.workload = spec.workload.clone();
    profile.policy = spec.policy.clone();
    profile.scale = scale;
    profile.ops = ops;
    Ok(profile)
}

/// Armed-collection state across one measured phase.
struct Session {
    attr: Attributor,
    observe: Observe,
    t0: u64,
    tags0: [u64; autarky_sgx_sim::COST_TAGS],
    journal_dropped: u64,
    flight_dropped: u64,
}

impl Session {
    /// Arm both streams (unless `observe` is [`Observe::Unarmed`]).
    /// Call after workload setup, immediately before the measured phase.
    fn arm(world: &mut World, observe: Observe) -> Session {
        if observe != Observe::Unarmed {
            world.os.machine.clock.arm_charge_journal(JOURNAL_CAP);
            world.os.arm_flight_recorder(FLIGHT_CAP);
        }
        Session {
            attr: Attributor::new(),
            observe,
            t0: world.os.machine.clock.now(),
            tags0: world.os.machine.clock.tag_totals(),
            journal_dropped: 0,
            flight_dropped: 0,
        }
    }

    /// Drain and attribute one harvest window; re-arm unless this is the
    /// final harvest. The flight recorder is drained *before* the charge
    /// journal so its sync-time recorder charges stay journaled.
    fn harvest(&mut self, world: &mut World, rearm: bool) {
        if self.observe == Observe::Unarmed {
            return;
        }
        let flights = match world.os.disarm_flight_recorder() {
            Some(rec) => {
                self.flight_dropped += rec.dropped();
                rec.snapshot()
            }
            None => Vec::new(),
        };
        let (charges, dropped) = world
            .os
            .machine
            .clock
            .disarm_charge_journal()
            .unwrap_or_default();
        self.journal_dropped += dropped;
        if rearm {
            world.os.machine.clock.arm_charge_journal(JOURNAL_CAP);
            world.os.arm_flight_recorder(FLIGHT_CAP);
        }
        let spans: Vec<SpanRecord> = flights
            .iter()
            .filter_map(|r| match r.event {
                FlightEvent::SpanClose(span) => Some(span),
                _ => None,
            })
            .filter(|s| self.observe != Observe::DropFaultSpans || s.kind != SpanKind::FaultHandler)
            .collect();
        self.attr.ingest(&spans, &flights, &charges);
    }

    /// Final harvest + profile assembly. Workload/policy/scale/ops are
    /// stamped by the caller.
    fn finish(mut self, world: &mut World) -> CycleProfile {
        self.harvest(world, false);
        let clock = &world.os.machine.clock;
        let total_cycles = clock.now() - self.t0;
        let tags1 = clock.tag_totals();
        let tags: Vec<(String, u64)> = CostTag::ALL
            .iter()
            .enumerate()
            .filter_map(|(i, tag)| {
                let delta = tags1[i] - self.tags0[i];
                (delta > 0).then(|| (tag.name().to_owned(), delta))
            })
            .collect();
        let unjournaled = total_cycles.saturating_sub(self.attr.journaled_cycles);
        let residual_cycles = unjournaled + self.attr.orphan_cycles;

        let mut clusters: Vec<ClusterRow> = self
            .attr
            .clusters
            .iter()
            .map(|(&page, &(faults, cycles))| ClusterRow {
                page,
                faults,
                cycles,
            })
            .collect();
        clusters.sort_by(|a, b| b.cycles.cmp(&a.cycles).then(a.page.cmp(&b.page)));
        clusters.truncate(CLUSTER_ROWS);

        CycleProfile {
            workload: String::new(),
            policy: String::new(),
            scale: 0,
            ops: 0,
            total_cycles,
            residual_cycles,
            orphan_cycles: self.attr.orphan_cycles,
            journal_dropped: self.journal_dropped,
            flight_dropped: self.flight_dropped,
            faults: self.attr.faults,
            fault_latency: self.attr.fault_hist.summary(),
            tags,
            clusters,
            root: self.attr.root,
        }
    }
}

fn build_err(workload: &str, e: impl std::fmt::Debug) -> String {
    format!("{workload}: build failed: {e:?}")
}

/// Fig-5-shaped paging cell: batch evictions, per-page fault refetches
/// (cycles per fault round trip).
fn collect_paging(
    policy: &str,
    scale: u32,
    observe: Observe,
) -> Result<(u64, CycleProfile), String> {
    let iters = 20 * scale as u64;
    let (mut world, mut heap) = SystemBuilder::new(
        "profile-paging",
        Profile::Clusters {
            pages_per_cluster: 1,
        },
    )
    .epc_pages(4096)
    .heap_pages(256)
    .elide_aex(policy == "elided")
    .build()
    .map_err(|e| build_err("paging", e))?;
    let ptr = heap
        .alloc(&mut world, (BATCH as usize) * PAGE_SIZE)
        .map_err(|e| format!("paging: alloc: {e:?}"))?;
    heap.write(&mut world, ptr, &[0xA5u8; PAGE_SIZE])
        .map_err(|e| format!("paging: touch: {e:?}"))?;
    let first = Vpn(ptr.0 >> 12);
    let pages: Vec<Vpn> = (0..BATCH).map(|i| Vpn(first.0 + i)).collect();

    let mut session = Session::arm(&mut world, observe);
    for iter in 0..iters {
        world
            .rt
            .evict_pages(&mut world.os, &pages)
            .map_err(|e| format!("paging: evict: {e:?}"))?;
        for &vpn in &pages {
            let p = autarky::workloads::Ptr(vpn.0 << 12);
            heap.read(&mut world, p, &mut [0u8; 1])
                .map_err(|e| format!("paging: fetch: {e:?}"))?;
        }
        if (iter + 1) % HARVEST_EVERY == 0 {
            session.harvest(&mut world, true);
        }
    }
    Ok((iters * BATCH, session.finish(&mut world)))
}

/// Table-2-shaped spell cell: dictionary lookups under a paging budget
/// (cycles per checked word). The dictionary overflows the budget, so
/// lookups actually page; the `single` policy degrades cluster
/// prefetching to one page per fault.
fn collect_spell(
    policy: &str,
    scale: u32,
    observe: Observe,
) -> Result<(u64, CycleProfile), String> {
    const DICT_WORDS: usize = 1500;
    let queries = 120 * scale as u64;
    let pages_per_cluster = if policy == "single" { 1 } else { 10 };
    let (mut world, mut heap) =
        SystemBuilder::new("profile-spell", Profile::Clusters { pages_per_cluster })
            .epc_pages(4096)
            .heap_pages(1024)
            .budget_pages(16)
            .elide_aex(policy == "elided")
            .build()
            .map_err(|e| build_err("spell", e))?;
    let dictionary = Dictionary::load(&mut world, &mut heap, "en", DICT_WORDS)
        .map_err(|e| format!("spell: dict: {e:?}"))?;
    let words = synth_wordlist("en", DICT_WORDS);

    let mut session = Session::arm(&mut world, observe);
    for i in 0..queries {
        let word = &words[(i as usize * 7) % words.len()];
        dictionary
            .check(&mut world, &mut heap, word)
            .map_err(|e| format!("spell: check: {e:?}"))?;
        if (i + 1) % HARVEST_EVERY == 0 {
            session.harvest(&mut world, true);
        }
    }
    Ok((queries, session.finish(&mut world)))
}

/// Fig-8-shaped kvstore cell: GETs on the cached-ORAM backend (cycles
/// per GET); the `single` policy shrinks the ORAM position cache.
fn collect_kvstore(
    policy: &str,
    scale: u32,
    observe: Observe,
) -> Result<(u64, CycleProfile), String> {
    const ITEMS: u64 = 128;
    const VALUE_SIZE: usize = 512;
    let gets = 96 * scale as u64;
    let cache_pages = if policy == "single" { 8 } else { 24 };
    let (mut world, mut heap) = SystemBuilder::new(
        "profile-kvstore",
        Profile::CachedOram {
            capacity_pages: 512,
            cache_pages,
        },
    )
    .epc_pages(4096)
    .heap_pages(1024)
    .elide_aex(policy == "elided")
    .build()
    .map_err(|e| build_err("kvstore", e))?;
    let mut store = KvStore::new(
        &mut world,
        &mut heap,
        ITEMS,
        VALUE_SIZE,
        ItemClustering::None,
    )
    .map_err(|e| format!("kvstore: new: {e:?}"))?;
    store
        .load(&mut world, &mut heap, ITEMS)
        .map_err(|e| format!("kvstore: load: {e:?}"))?;

    let mut session = Session::arm(&mut world, observe);
    for i in 0..gets {
        let key = (i * 7) % ITEMS;
        store
            .get(&mut world, &mut heap, key)
            .map_err(|e| format!("kvstore: get: {e:?}"))?
            .ok_or_else(|| format!("kvstore: key {key} missing"))?;
        if (i + 1) % HARVEST_EVERY == 0 {
            session.harvest(&mut world, true);
        }
    }
    Ok((gets, session.finish(&mut world)))
}

/// FreeType-shaped glyph rendering with everything pinned: the
/// zero-fault reference point (cycles per glyph).
fn collect_font(policy: &str, scale: u32, observe: Observe) -> Result<(u64, CycleProfile), String> {
    let glyphs = 400 * scale as u64;
    let (mut world, mut heap) = SystemBuilder::new("profile-font", Profile::PinAll)
        .epc_pages(4096)
        .heap_pages(256)
        .code_pages(24)
        .elide_aex(policy == "elided")
        .build()
        .map_err(|e| build_err("font", e))?;
    let mut font =
        FontRenderer::new(&mut world, &mut heap, 64).map_err(|e| format!("font: new: {e:?}"))?;
    let text: String = (0..glyphs)
        .map(|k| (b'a' + (k % 26) as u8) as char)
        .collect();

    let session = Session::arm(&mut world, observe);
    font.render_text(&mut world, &mut heap, &text)
        .map_err(|e| format!("font: render: {e:?}"))?;
    Ok((glyphs, session.finish(&mut world)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(workload: &str, policy: &str) -> CollectSpec {
        CollectSpec {
            workload: workload.into(),
            policy: policy.into(),
            scale: 1,
        }
    }

    #[test]
    fn unknown_axes_are_rejected() {
        assert!(collect(&spec("paging", "nope"))
            .unwrap_err()
            .contains("unknown policy"));
        assert!(collect(&spec("jpeg", "clusters"))
            .unwrap_err()
            .contains("unknown workload"));
    }

    #[test]
    fn paging_profile_accounts_for_nearly_all_cycles() {
        let p = collect(&spec("paging", "clusters")).expect("collect");
        assert_eq!(p.name(), "clusters/paging");
        assert_eq!(p.ops, 20 * BATCH);
        assert!(p.faults > 0, "the paging cell must fault");
        assert!(p.total_cycles > 0);
        assert_eq!(p.journal_dropped, 0, "journal sized for the window");
        assert_eq!(p.flight_dropped, 0, "flight ring sized for the window");
        assert!(
            p.attributed_pct() >= 95.0,
            "attributed only {:.2}% (residual {} of {})",
            p.attributed_pct(),
            p.residual_cycles,
            p.total_cycles
        );
        assert!(p.hot_path_cycles() > 0, "fault chains in the tree");
        assert_eq!(p.fault_latency.count, p.faults);
        assert!(!p.clusters.is_empty());
        // The tree carries exactly the journaled cycles.
        let journaled = p.total_cycles - (p.residual_cycles - p.orphan_cycles);
        assert_eq!(p.root.total(), journaled);
    }

    #[test]
    fn observer_effect_is_exactly_the_recorder_tag() {
        // Arming the profiler may cost simulated cycles only through the
        // flight recorder's own `recorder` tag: subtracting it from an
        // armed run must give the unarmed run's cycles bit for bit, which
        // is what makes the bench cells' cycles/op a view of the profile.
        for workload in PROFILE_WORKLOADS {
            for policy in PROFILE_POLICIES {
                let armed = collect(&spec(workload, policy)).expect("armed");
                let unarmed =
                    collect_impl(&spec(workload, policy), Observe::Unarmed).expect("unarmed");
                assert_eq!(unarmed.observer_cycles(), 0, "{workload}/{policy}");
                assert_eq!(
                    armed.workload_cycles(),
                    unarmed.total_cycles,
                    "{workload}/{policy}: armed {} - recorder {} != unarmed {}",
                    armed.total_cycles,
                    armed.observer_cycles(),
                    unarmed.total_cycles
                );
                assert_eq!(armed.cycles_per_op(), unarmed.cycles_per_op());
            }
        }
    }
}
