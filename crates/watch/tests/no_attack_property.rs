//! False-positive property gate: 100 seeds of synthetic benign
//! traffic, zero alerts. The watchtower must stay quiet on honest
//! workloads — jittery completion times, mixed per-member load, service
//! times anywhere up to the p99 budget — or the supervisor would
//! escalate healthy enclaves. Any seed that alerts fails the suite and
//! prints the offending alert lines.

use autarky_prng::SimRng;
use autarky_sgx_sim::EnclaveId;
use autarky_watch::tower::{EPOCH_CYCLES, P99_BUDGET_CYCLES};
use autarky_watch::Watchtower;

const SEEDS: u64 = 100;
const MEMBERS: usize = 3;
const WINDOWS: u64 = 40;

/// Drive one benign run: every member serves a jittery number of
/// requests per window, each within the p99 budget (the budget itself
/// included: only a strict overrun counts against the SLO).
fn benign_run(seed: u64) -> (u64, Vec<String>) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut tower = Watchtower::new(0);
    for m in 0..MEMBERS {
        tower.add_member(EnclaveId(m as u32 + 1));
    }

    let mut alerts: Vec<String> = Vec::new();
    let mut now = 0u64;
    for _window in 0..WINDOWS {
        let window_end = now + EPOCH_CYCLES;
        for m in 0..MEMBERS {
            let requests = 4 + rng.gen_below(8);
            for _ in 0..requests {
                let at = now + rng.gen_below(EPOCH_CYCLES);
                let latency = 50_000 + rng.gen_below(P99_BUDGET_CYCLES - 50_000 + 1);
                tower.observe_request(m, latency, at);
            }
        }
        now = window_end;
        tower.advance(now);
        for alert in tower.take_alerts() {
            alerts.push(format!("seed={seed} {}", alert.log_line("?")));
        }
    }
    (tower.alert_total(), alerts)
}

#[test]
fn benign_traffic_never_alerts_across_100_seeds() {
    let mut firings: Vec<String> = Vec::new();
    for seed in 0..SEEDS {
        let (total, lines) = benign_run(seed);
        assert_eq!(total as usize, lines.len());
        firings.extend(lines);
    }
    assert!(
        firings.is_empty(),
        "false positives on benign traffic:\n{}",
        firings.join("\n")
    );
}

#[test]
fn benign_run_is_deterministic_per_seed() {
    let (a_total, a_lines) = benign_run(7);
    let (b_total, b_lines) = benign_run(7);
    assert_eq!(a_total, b_total);
    assert_eq!(a_lines, b_lines);
}
