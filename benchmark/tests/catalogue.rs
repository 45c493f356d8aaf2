//! `BENCHMARK.json` lists exactly the workloads and metrics the
//! benchmark reports, with the same units, directions and bounds.

use autarky_benchmark::json::Json;
use autarky_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use autarky_benchmark::workloads::WORKLOADS;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("valid JSON")
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn check_metrics(listed: &Json, catalogue: &[MetricDef], with_bound: bool) {
    let listed = listed.as_arr().expect("metric list");
    assert_eq!(listed.len(), catalogue.len());
    for (m, d) in listed.iter().zip(catalogue) {
        let keys: Vec<&str> = m
            .as_obj()
            .expect("metric")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let expected: &[&str] = if with_bound {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys, expected, "{}", d.name);
        assert_eq!(m.get("name").and_then(Json::as_str), Some(d.name));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(d.unit),
            "{}",
            d.name
        );
        assert_eq!(
            m.get("better").and_then(Json::as_str),
            Some(d.better.label()),
            "{}",
            d.name
        );
        if with_bound {
            assert_eq!(
                m.get("bound").and_then(Json::as_f64),
                Some(d.bound),
                "{}",
                d.name
            );
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
        }
        assert!(valid_name(d.name), "{}", d.name);
        assert!(
            d.unit.len() <= 16
                && d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{}",
            d.unit
        );
    }
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let j = benchmark_json();
    let keys: Vec<&str> = j
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        j.get("paths").and_then(Json::as_arr),
        Some(&[Json::Str("benchmark".into())][..])
    );
    let names: Vec<&str> = j
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS);
    check_metrics(j.get("end_to_end").expect("end_to_end"), END_TO_END, true);
    check_metrics(j.get("per_layer").expect("per_layer"), PER_LAYER, false);
}

#[test]
fn setup_time_has_the_largest_bound() {
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.label()), ("s", "lower"));
    assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
}

#[test]
fn metric_names_are_unique() {
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before);
}
