//! End-to-end profiler acceptance tests: determinism, attribution
//! coverage, the residual gate, differential profiles, and the
//! cross-check against the fig5 tag-ledger breakdown.

use autarky::prelude::PagingMechanism;
use autarky_bench::fig5;
use autarky_profile::collect::collect_impl;
use autarky_profile::{
    collect, diff_flamegraph, flamegraph, CollectSpec, CycleProfile, Observe, ProfileDiff,
};

fn spec(workload: &str, policy: &str) -> CollectSpec {
    CollectSpec {
        workload: workload.into(),
        policy: policy.into(),
        scale: 1,
    }
}

fn profile_of(workload: &str, policy: &str) -> CycleProfile {
    collect(&spec(workload, policy)).expect("collect")
}

#[test]
fn spell_profile_attributes_nearly_everything_and_is_byte_stable() {
    let a = profile_of("spell", "clusters");
    let b = profile_of("spell", "clusters");

    // Identical runs produce byte-identical artifacts (folded, JSON,
    // SVG) — the determinism the campaign journal and CI rely on.
    assert_eq!(a, b);
    assert_eq!(a.folded(), b.folded());
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(flamegraph(&a), flamegraph(&b));

    // ISSUE acceptance: >= 95% of spell cycles attributed.
    assert!(
        a.attributed_pct() >= 95.0,
        "attributed only {:.2}% (residual {} of {})",
        a.attributed_pct(),
        a.residual_cycles,
        a.total_cycles
    );
    assert!(a.faults > 0, "spell under a 16-page budget must fault");
    assert_eq!(a.fault_latency.count, a.faults);
    assert!(a.fault_latency.p99 >= a.fault_latency.p50);

    // The folded output names fault-path hot spots below the
    // fault_round_trip chain frame and the fault_handler span.
    let folded = a.folded();
    assert!(
        folded
            .lines()
            .any(|l| l.starts_with("spell;fault_round_trip;fault_handler;")),
        "no fault-path stacks in:\n{folded}"
    );
    assert!(a.hot_path_cycles() > 0);
    assert!(a.hot_path_cycles_per_fault() > 0.0);
    assert!(!a.clusters.is_empty(), "page-cluster breakdown present");

    // Nothing overflowed, so attribution saw every record.
    assert_eq!(a.journal_dropped, 0);
    assert_eq!(a.flight_dropped, 0);

    // JSON roundtrip is stable (the mean is serialized at 3 decimals,
    // so compare re-encodings rather than raw structs).
    let back = CycleProfile::from_json(&a.to_json()).expect("parse");
    assert_eq!(back.to_json(), a.to_json());
    assert_eq!(back.root, a.root);
    assert_eq!(back.folded(), a.folded());
}

#[test]
fn from_json_refuses_what_it_cannot_parse() {
    let json = profile_of("paging", "clusters").to_json();
    assert!(CycleProfile::from_json(&json).is_some());
    let frame = json
        .lines()
        .find(|l| l.contains("\"stack\""))
        .expect("a frame row");
    for (what, mutant) in [
        (
            "a dropped scalar",
            json.lines()
                .filter(|l| !l.contains("\"fault_p50_cycles\""))
                .map(|l| format!("{l}\n"))
                .collect(),
        ),
        (
            "a non-numeric frame count",
            json.replacen(frame, &frame.replace("\"cycles\": ", "\"cycles\": x"), 1),
        ),
        (
            "scale 2^32",
            json.replacen("\"scale\": 1,", "\"scale\": 4294967296,", 1),
        ),
    ] {
        assert_ne!(mutant, json, "{what}: the mutation did not apply");
        assert!(CycleProfile::from_json(&mutant).is_none(), "{what} decoded");
    }
}

#[test]
fn residual_gate_trips_when_instrumentation_is_lost() {
    let healthy = collect_impl(&spec("spell", "clusters"), Observe::Armed).expect("collect");
    let maimed =
        collect_impl(&spec("spell", "clusters"), Observe::DropFaultSpans).expect("collect");

    assert!(
        maimed.orphan_cycles > healthy.orphan_cycles,
        "dropping fault_handler spans must orphan enclave work \
         ({} vs {})",
        maimed.orphan_cycles,
        healthy.orphan_cycles
    );
    assert!(maimed.residual_pct() > healthy.residual_pct());

    // A gate threshold between the two discriminates: the healthy run
    // passes, the maimed run fails.
    let gate = (healthy.residual_pct() + maimed.residual_pct()) / 2.0;
    assert!(healthy.passes_residual_gate(gate));
    assert!(!maimed.passes_residual_gate(gate));
}

#[test]
fn self_diff_is_empty_and_policy_diff_is_not() {
    let clusters = profile_of("spell", "clusters");
    let clusters_again = profile_of("spell", "clusters");
    let single = profile_of("spell", "single");

    let self_diff = ProfileDiff::between(&clusters, &clusters_again);
    assert!(self_diff.is_empty(), "{:?}", self_diff.top_deltas(5));

    // Degrading cluster prefetch to single-page fetches changes where
    // the cycles go — the diff must see it.
    let policy_diff = ProfileDiff::between(&clusters, &single);
    assert!(!policy_diff.is_empty());
    assert!(!policy_diff.top_deltas(5).is_empty());
    assert_ne!(clusters.total_cycles, single.total_cycles);

    let svg = diff_flamegraph(&clusters, &single);
    assert!(svg.contains("clusters/spell"));
    assert!(svg.contains("single/spell"));
    assert_eq!(svg, diff_flamegraph(&clusters, &single), "diff SVG stable");
}

#[test]
fn paging_profile_cross_checks_against_fig5_breakdown() {
    // The profiler's paging cell and fig5 run the same batch-evict /
    // per-page-refault loop on the same default mechanism (SGX1), so
    // the profiler's per-page transition tags must agree with the
    // figure's measured components. Tolerance covers fig5's warm-up
    // round (the profiler has none) and its per-page integer division.
    let iters = 20u64;
    let (fault, evict) = fig5::measure(PagingMechanism::Sgx1, iters);
    let p = profile_of("paging", "clusters");
    assert_eq!(p.ops, iters * fig5::BATCH);

    let per_page = |tag: &str| p.tag(tag) as f64 / p.ops as f64;
    let close = |got: f64, want: f64, what: &str| {
        let rel = (got - want).abs() / want.max(1.0);
        assert!(
            rel < 0.10,
            "{what}: profiler {got:.1}/page vs fig5 {want:.1}/page ({:.1}% off)",
            rel * 100.0
        );
    };
    close(
        per_page("preemption"),
        (fault.preemption + evict.preemption) as f64,
        "preemption",
    );
    close(
        per_page("handler_invocation"),
        (fault.invocation + evict.invocation) as f64,
        "handler_invocation",
    );

    // The profiler's whole phase (minus its measured observer cost)
    // should be in the same ballpark as the figure's fault+evict total.
    let fig_total = (fault.total() + evict.total()) as f64;
    let prof_total = (p.total_cycles - p.tag("recorder")) as f64 / p.ops as f64;
    let rel = (prof_total - fig_total).abs() / fig_total;
    assert!(
        rel < 0.15,
        "totals diverge: profiler {prof_total:.1}/page vs fig5 {fig_total:.1}/page"
    );
}

#[test]
fn every_workload_and_policy_collects_cleanly() {
    for workload in autarky_profile::PROFILE_WORKLOADS {
        for policy in autarky_profile::PROFILE_POLICIES {
            let p = collect(&spec(workload, policy))
                .unwrap_or_else(|e| panic!("{workload}/{policy}: {e}"));
            assert!(p.total_cycles > 0, "{workload}/{policy}: empty phase");
            assert!(
                p.attributed_pct() >= 90.0,
                "{workload}/{policy}: attributed only {:.2}%",
                p.attributed_pct()
            );
            assert_eq!(p.journal_dropped + p.flight_dropped, 0);
        }
    }
}
