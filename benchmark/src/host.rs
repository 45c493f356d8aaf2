//! Host-side measurements that belong to no simulated layer: the host's
//! current speed and the process's peak memory.
//!
//! A shared host's speed drifts by ±10% over minutes (neighbouring
//! tenants, frequency), far more than one run can average out. Every
//! window is therefore followed by a fixed calibration loop, and host
//! times are scaled by how fast that loop ran against
//! [`REFERENCE_CALIBRATION_S`]. The loop is the benchmark's own code, so
//! a change to the simulator never moves it.

use std::hint::black_box;
use std::time::Instant;

/// Calibration-loop time on the host the baseline was taken on (see
/// `baseline/`); host metrics are reported at that host's speed.
pub const REFERENCE_CALIBRATION_S: f64 = 0.0017;

/// Host seconds for the fixed calibration loop: a dependent chain of
/// xor-shift-multiply steps held in registers. It touches no memory on
/// purpose: a loop over arrays ran at half speed for the whole life of
/// about one process in five (data placement), which made it useless
/// as a yardstick.
pub fn calibrate() -> f64 {
    const STEPS: u64 = 600_000;
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let started = Instant::now();
    for i in 0..STEPS {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    black_box(x);
    started.elapsed().as_secs_f64()
}

/// How fast the host ran relative to the reference host: the fastest
/// calibration of the run, matching the fastest-window throughput it
/// scales (1 = reference speed, above 1 = faster).
pub fn speed_index(calibrations: &[f64]) -> f64 {
    let fastest = calibrations.iter().copied().fold(f64::INFINITY, f64::min);
    if fastest.is_finite() && fastest > 0.0 {
        REFERENCE_CALIBRATION_S / fastest
    } else {
        1.0
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
