//! The results JSON and the last output line of a `--workload` run.

use autarky_benchmark::json::Json;
use autarky_benchmark::metrics::{Metrics, END_TO_END, PER_LAYER};
use autarky_benchmark::run::WorkloadResult;

fn sample(traced: bool) -> WorkloadResult {
    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    let metrics: Metrics = catalogue
        .iter()
        .enumerate()
        // Values with many digits, negatives and zero: all must survive.
        .map(|(i, d)| (d.name, (i as f64 - 3.0) * 1_234.567_890_123 / 7.0))
        .collect();
    WorkloadResult {
        workload: "kv-update".into(),
        seed: 2,
        traced,
        reps: 4,
        attempted: 8_000,
        failed: 1,
        sim_ops: 1_500,
        sim_digest: "ab".repeat(32),
        metrics,
        failures: vec!["kv: get 7 returned a stale or \"missing\" value\n".into()],
    }
}

#[test]
fn results_json_round_trips_exactly() {
    for traced in [false, true] {
        let result = sample(traced);
        let text = result.to_json().to_pretty();
        let back =
            WorkloadResult::from_json(&Json::parse(&text).expect("valid JSON")).expect("result");
        assert_eq!(back, result);
        for (name, v) in &result.metrics {
            assert_eq!(
                back.metrics[name].to_bits(),
                v.to_bits(),
                "{name} keeps every digit"
            );
        }
    }
}

#[test]
fn summary_line_has_exactly_the_required_keys() {
    let result = sample(false);
    let line = result.summary_json().to_compact();
    assert!(!line.contains('\n'));
    let j = Json::parse(&line).expect("valid JSON");
    let keys: Vec<&str> = j
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(j.get("correct"), Some(&Json::Bool(false)), "one failure");
    assert_eq!(j.get("attempted").and_then(Json::as_f64), Some(8_000.0));
    let metrics = j.get("metrics").and_then(Json::as_obj).expect("metrics");
    assert_eq!(metrics.len(), END_TO_END.len());
    for (d, (name, m)) in END_TO_END.iter().zip(metrics) {
        assert_eq!(name, d.name);
        let keys: Vec<&str> = m
            .as_obj()
            .expect("metric")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["value", "unit"]);
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
    }
}

#[test]
fn unknown_metrics_and_malformed_json_are_refused() {
    let mut j = sample(false).to_json();
    if let Json::Obj(members) = &mut j {
        for (k, v) in members.iter_mut() {
            if k == "metrics" {
                *v = Json::Obj(vec![(
                    "no_such_metric".into(),
                    Json::Obj(vec![("value".into(), Json::Num(1.0))]),
                )]);
            }
        }
    }
    assert!(WorkloadResult::from_json(&j).is_err());
    for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1} x", "\"\\q\"", "nul"] {
        assert!(Json::parse(bad).is_err(), "{bad:?}");
    }
    let deep = "[".repeat(1000) + &"]".repeat(1000);
    assert!(Json::parse(&deep).is_err(), "nesting is bounded");
}
