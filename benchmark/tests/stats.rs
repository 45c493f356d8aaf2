//! Order statistics: exact quantiles, window medians, Python-compatible
//! quartiles, histogram interpolation and the capacity bisection.

use autarky_benchmark::stats::{
    bisect_capacity, hist_quantile, phase_throughput, quartiles, relative_iqr, ExactQuantiles,
    Window,
};
use autarky_telemetry::Histogram;

#[test]
fn exact_quantiles_are_recorded_values() {
    let mut q = ExactQuantiles::new();
    // 90 cheap ops, 9 faulting ops, 1 very slow op.
    for _ in 0..90 {
        q.record(100);
    }
    for _ in 0..9 {
        q.record(5_000);
    }
    q.record(1_000_000);
    assert_eq!(q.count(), 100);
    assert_eq!(q.quantile(0.50), 100);
    assert_eq!(q.quantile(0.90), 100, "rank 90 is the last cheap op");
    assert_eq!(q.quantile(0.91), 5_000);
    assert_eq!(q.quantile(0.99), 5_000);
    assert_eq!(q.quantile(1.0), 1_000_000);
    assert_eq!(
        q.mean(),
        (90.0 * 100.0 + 9.0 * 5_000.0 + 1_000_000.0) / 100.0
    );
    assert_eq!(ExactQuantiles::new().quantile(0.5), 0);
}

#[test]
fn phase_throughput_takes_each_windows_fastest_rep() {
    // Window 0 holds cheap ops and window 1 expensive ones, in every rep;
    // the third rep hits a burst of host noise in window 0.
    let rep = |t0: f64, t1: f64| vec![Window { ops: 100, secs: t0 }, Window { ops: 100, secs: t1 }];
    let reps = vec![rep(0.1, 0.3), rep(0.1, 0.3), rep(5.0, 0.3)];
    assert!((phase_throughput(&reps) - 200.0 / 0.4).abs() < 1e-9);
    // The fastest rep is taken per window, not per rep.
    let crossed = vec![rep(0.1, 0.5), rep(0.3, 0.3)];
    assert!((phase_throughput(&crossed) - 200.0 / 0.4).abs() < 1e-9);
    // Windows are matched by position; a shorter rep bounds the phase.
    let short = vec![
        rep(0.1, 0.3),
        vec![Window {
            ops: 100,
            secs: 0.1,
        }],
    ];
    assert!((phase_throughput(&short) - 100.0 / 0.1).abs() < 1e-9);
    assert_eq!(phase_throughput(&[]), 0.0);
}

#[test]
fn quartiles_match_python_statistics() {
    // Reference values from Python's `statistics.quantiles(v, n=4)`.
    type Case = (&'static [f64], (f64, f64, f64));
    let cases: [Case; 4] = [
        (
            &[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.],
            (2.75, 5.5, 8.25),
        ),
        (&[1., 2.], (0.75, 1.5, 2.25)),
        (&[3., 1., 7., 20., 5.], (2.0, 5.0, 13.5)),
        (
            &[10.0, 10.5, 9.5, 11.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.3],
            (9.875, 10.15, 10.425),
        ),
    ];
    for (values, (q1, med, q3)) in cases {
        let (a, b, c) = quartiles(&mut values.to_vec());
        assert!(
            (a - q1).abs() < 1e-9 && (b - med).abs() < 1e-9 && (c - q3).abs() < 1e-9,
            "{values:?}: {a} {b} {c}"
        );
    }
    assert!((relative_iqr(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]) - 5.5 / 5.5).abs() < 1e-12);
    assert_eq!(relative_iqr(&[5., 5., 5.]), 0.0);
}

#[test]
fn histogram_quantile_interpolates_within_a_bucket() {
    let mut h = Histogram::new();
    for v in 1000..2000u64 {
        h.record(v);
    }
    let p50 = hist_quantile(&h, 0.5);
    // Exact p50 is 1499; bucket floors move in 25% steps (1024, 1280,
    // 1536, ...), interpolation lands close to the true value.
    assert!((p50 - 1499.0).abs() < 60.0, "p50 {p50}");
    assert!(hist_quantile(&h, 0.99) <= 1999.0);
    assert!(hist_quantile(&h, 0.0) >= 1000.0);
    assert_eq!(hist_quantile(&Histogram::new(), 0.5), 0.0);
}

#[test]
fn bisection_finds_the_knee_of_a_monotone_p99_curve() {
    // Synthetic queue: p99 grows as the gap shrinks toward the service
    // time, so the SLO holds for every gap at or above 1_234_567.
    let knee = 1_234_567u64;
    let mut probes = 0;
    let found = bisect_capacity::<()>(500_000, 8_000_000, 0.01, |gap| {
        probes += 1;
        Ok(gap >= knee)
    })
    .expect("no error");
    let gap = found.expect("hi meets the SLO");
    assert!(gap >= knee, "answer must meet the SLO");
    assert!((gap as f64) <= knee as f64 * 1.01, "within 1%: {gap}");
    assert!(probes <= 12, "{probes} probes");

    assert_eq!(
        bisect_capacity::<()>(500_000, 8_000_000, 0.01, |_| Ok(true)),
        Ok(Some(500_000))
    );
    assert_eq!(
        bisect_capacity::<()>(500_000, 8_000_000, 0.01, |_| Ok(false)),
        Ok(None)
    );
    assert_eq!(
        bisect_capacity(500_000, 8_000_000, 0.01, |_| Err("boom")),
        Err("boom")
    );
}
