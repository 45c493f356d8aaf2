//! The watchtower: epoch-windowed streaming detection over a live fleet.
//!
//! A [`Watchtower`] consumes three host-visible signal streams —
//! kernel fault observations (drained incrementally from the shared
//! flight ring), request completions (latency samples from the
//! supervisor), and EPC occupancy samples — buckets them into
//! fixed-length **epoch windows** of simulated cycles, and evaluates
//! the online detectors of [`crate::detect`] at every window close:
//!
//! * `fault_cusum` — one-sided CUSUM on per-member fault count per
//!   window, against an EWMA baseline learned during warmup;
//! * `entropy_cusum` — two-sided CUSUM on the Shannon entropy of the
//!   window's fault-address distribution (probing concentrates or
//!   scatters addresses; both directions are suspicious);
//! * `slo_burn` — burn rate of a configured p99 latency budget;
//! * `epc_skew` — cross-member EPC-pressure imbalance.
//!
//! Everything is integer milli fixed-point; windows close at cycle
//! boundaries that depend only on the simulated clock. Alert streams
//! and the rendered alert log are therefore byte-identical across
//! reruns and `--jobs` levels — the same contract every other artifact
//! in this workspace honors.
//!
//! The watchtower watches the watchers, too: the flight ring drops its
//! oldest record on overflow, and a consumer that falls behind would
//! silently lose fault observations. The tower tracks the ring's drop
//! counter ([`Watchtower::ring_dropped`]) and **taints** any window
//! that lost data instead of evaluating detectors over a hole.

use std::collections::BTreeMap;

use autarky_os_sim::FlightEvent;
use autarky_sgx_sim::{EnclaveId, Vpn};

use crate::detect::{burn_rate_milli, entropy_milli_bits, epc_skew_milli, Cusum, Ewma};

/// Watchtower configuration. All thresholds are milli fixed-point
/// (1000 = 1.0); a threshold of 0 disables that detector.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Window length in simulated cycles.
    pub epoch_cycles: u64,
    /// Windows a member must observe before its detectors may fire
    /// (the baseline-learning period).
    pub warmup_windows: u64,
    /// EWMA smoothing factor for baselines, in milli (200 = 0.2).
    pub ewma_alpha_milli: u64,
    /// Fault-rate CUSUM slack `k`, in milli-faults per window.
    pub fault_k_milli: u64,
    /// Fault-rate CUSUM decision threshold `h` (0 disables).
    pub fault_h_milli: u64,
    /// Entropy CUSUM slack `k`, in milli-bits.
    pub entropy_k_milli: u64,
    /// Entropy CUSUM decision threshold `h` (0 disables).
    pub entropy_h_milli: u64,
    /// Minimum faults in a window for its entropy to be meaningful.
    pub entropy_min_faults: u64,
    /// p99 latency budget in cycles for the SLO detector (0 disables).
    pub p99_budget_cycles: u64,
    /// Allowed over-budget fraction, in milli (10 = 1%).
    pub slo_error_budget_milli: u64,
    /// Burn-rate alert threshold, in milli (4000 = burning 4× too fast).
    pub burn_threshold_milli: u64,
    /// Minimum completions in a window for the SLO detector to judge it.
    pub min_window_requests: u64,
    /// EPC skew alert threshold, in milli of fair share (0 disables).
    pub epc_skew_threshold_milli: u64,
    /// Skip the skew detector while the fleet holds fewer total frames.
    pub epc_min_total_frames: u64,
    /// Windows a member stays quiet after one of its detectors fires.
    pub cooldown_windows: u64,
}

impl Default for WatchConfig {
    fn default() -> Self {
        Self {
            epoch_cycles: 5_000_000,
            warmup_windows: 6,
            ewma_alpha_milli: 200,
            fault_k_milli: 4_000,
            fault_h_milli: 16_000,
            entropy_k_milli: 800,
            entropy_h_milli: 6_000,
            entropy_min_faults: 4,
            p99_budget_cycles: 0,
            slo_error_budget_milli: 10,
            burn_threshold_milli: 4_000,
            min_window_requests: 4,
            epc_skew_threshold_milli: 0,
            epc_min_total_frames: 64,
            cooldown_windows: 4,
        }
    }
}

/// One detector firing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// Member index in registration order.
    pub member: usize,
    /// Enclave id of the member.
    pub eid: EnclaveId,
    /// Detector that fired (`fault_cusum`, `entropy_cusum`, `slo_burn`,
    /// `epc_skew`).
    pub detector: &'static str,
    /// Index of the window that tripped the detector.
    pub window: u64,
    /// Simulated-cycle timestamp of the window close.
    pub cycles: u64,
    /// Detector score at firing, milli-units.
    pub score_milli: u64,
    /// Decision threshold the score exceeded, milli-units.
    pub threshold_milli: u64,
    /// Most-recently faulted page in the tripping window, if the
    /// detector tracks addresses.
    pub vpn: Option<Vpn>,
    /// Firing reason (integer-valued, so the log stays byte-stable).
    pub why: String,
}

impl Alert {
    /// The flight-ring event announcing this alert.
    pub fn to_flight_event(&self) -> FlightEvent {
        FlightEvent::WatchAlert {
            eid: self.eid,
            detector: self.detector.to_owned(),
            window: self.window,
            score_milli: self.score_milli,
            vpn: self.vpn,
            why: self.why.clone(),
        }
    }

    /// One deterministic log line (the alert-log artifact row).
    pub fn log_line(&self, member_name: &str) -> String {
        let vpn = match self.vpn {
            Some(v) => v.0.to_string(),
            None => "-".to_owned(),
        };
        format!(
            "window={} cycles={} member={} eid={} detector={} score={}m threshold={}m vpn={} why={}",
            self.window,
            self.cycles,
            member_name,
            self.eid.0,
            self.detector,
            self.score_milli,
            self.threshold_milli,
            vpn,
            self.why,
        )
    }
}

/// Render the alert-log artifact: a header plus one line per alert.
pub fn render_alert_log(alerts: &[Alert], member_names: &[String]) -> String {
    let mut out = String::from("# watch alert log\n");
    out.push_str(&format!("alerts={}\n", alerts.len()));
    for a in alerts {
        let name = member_names
            .get(a.member)
            .map(String::as_str)
            .unwrap_or("?");
        out.push_str(&a.log_line(name));
        out.push('\n');
    }
    out
}

/// Per-member detector state plus the current window's accumulators.
#[derive(Debug, Clone)]
struct MemberLens {
    eid: EnclaveId,
    name: String,
    // Current-window accumulators.
    faults: u64,
    fault_pages: BTreeMap<u64, u64>,
    last_fault_vpn: Option<Vpn>,
    served: u64,
    slo_bad: u64,
    // Detector state.
    windows_seen: u64,
    fault_ewma: Ewma,
    fault_cusum: Cusum,
    entropy_ewma: Ewma,
    entropy_cusum: Cusum,
    cooldown_until_window: u64,
}

impl MemberLens {
    fn new(eid: EnclaveId, name: String, cfg: &WatchConfig) -> Self {
        Self {
            eid,
            name,
            faults: 0,
            fault_pages: BTreeMap::new(),
            last_fault_vpn: None,
            served: 0,
            slo_bad: 0,
            windows_seen: 0,
            fault_ewma: Ewma::new(cfg.ewma_alpha_milli),
            fault_cusum: Cusum::upward(cfg.fault_k_milli, cfg.fault_h_milli),
            entropy_ewma: Ewma::new(cfg.ewma_alpha_milli),
            entropy_cusum: Cusum::two_sided(cfg.entropy_k_milli, cfg.entropy_h_milli),
            cooldown_until_window: 0,
        }
    }

    fn clear_window(&mut self) {
        self.faults = 0;
        self.fault_pages.clear();
        self.last_fault_vpn = None;
        self.served = 0;
        self.slo_bad = 0;
    }
}

/// The streaming watchtower. See the module docs for the signal model.
#[derive(Debug, Clone)]
pub struct Watchtower {
    cfg: WatchConfig,
    window_start: u64,
    window_index: u64,
    members: Vec<MemberLens>,
    epc_frames: Vec<u64>,
    ring_dropped_seen: u64,
    window_tainted: bool,
    pending: Vec<Alert>,
    alert_total: u64,
}

impl Watchtower {
    /// Create a tower whose first window opens at `start_cycles`.
    pub fn new(cfg: WatchConfig, start_cycles: u64) -> Self {
        Self {
            cfg,
            window_start: start_cycles,
            window_index: 0,
            members: Vec::new(),
            epc_frames: Vec::new(),
            ring_dropped_seen: 0,
            window_tainted: false,
            pending: Vec::new(),
            alert_total: 0,
        }
    }

    /// Register a fleet member (in boot order); returns its index.
    pub fn add_member(&mut self, eid: EnclaveId, name: &str) -> usize {
        self.members
            .push(MemberLens::new(eid, name.to_owned(), &self.cfg));
        self.epc_frames.push(0);
        self.members.len() - 1
    }

    /// Member names in registration order (for the alert-log artifact).
    pub fn member_names(&self) -> Vec<String> {
        self.members.iter().map(|m| m.name.clone()).collect()
    }

    /// Windows closed so far.
    pub fn windows_closed(&self) -> u64 {
        self.window_index
    }

    /// Alerts fired over the tower's lifetime.
    pub fn alert_total(&self) -> u64 {
        self.alert_total
    }

    /// Flight-ring records lost to overflow, as seen by this consumer.
    pub fn ring_dropped(&self) -> u64 {
        self.ring_dropped_seen
    }

    /// A kernel fault observation for `eid`'s page `vpn` at `cycles`.
    pub fn observe_fault(&mut self, eid: EnclaveId, vpn: Vpn, cycles: u64) {
        self.roll_to(cycles);
        if let Some(m) = self.members.iter_mut().find(|m| m.eid == eid) {
            m.faults = m.faults.saturating_add(1);
            *m.fault_pages.entry(vpn.0).or_insert(0) += 1;
            m.last_fault_vpn = Some(vpn);
        }
    }

    /// A request for member `member` completed in `latency_cycles`,
    /// finishing at `cycles`.
    pub fn observe_request(&mut self, member: usize, latency_cycles: u64, cycles: u64) {
        self.roll_to(cycles);
        let budget = self.cfg.p99_budget_cycles;
        if let Some(m) = self.members.get_mut(member) {
            m.served = m.served.saturating_add(1);
            if budget > 0 && latency_cycles > budget {
                m.slo_bad = m.slo_bad.saturating_add(1);
            }
        }
    }

    /// Latest EPC occupancy sample, one frame count per member in
    /// registration order (extra entries ignored).
    pub fn sample_epc(&mut self, frames: &[u64]) {
        for (slot, &f) in self.epc_frames.iter_mut().zip(frames) {
            *slot = f;
        }
    }

    /// Report the flight ring's cumulative drop-oldest count. Any
    /// increase taints the current window: detectors refuse to judge a
    /// window with a hole in its evidence.
    pub fn note_ring_dropped(&mut self, total_dropped: u64) {
        if total_dropped > self.ring_dropped_seen {
            self.ring_dropped_seen = total_dropped;
            self.window_tainted = true;
        }
    }

    /// Advance the tower's clock, closing every elapsed window.
    pub fn advance(&mut self, now_cycles: u64) {
        self.roll_to(now_cycles);
    }

    /// Take the alerts fired since the last call, in firing order.
    pub fn take_alerts(&mut self) -> Vec<Alert> {
        std::mem::take(&mut self.pending)
    }

    /// Forget member `member`'s detector state (it restarted: the fresh
    /// incarnation must re-learn its baseline) and start its cooldown.
    pub fn reset_member(&mut self, member: usize) {
        let cooldown = self.cfg.cooldown_windows;
        let window = self.window_index;
        if let Some(m) = self.members.get_mut(member) {
            m.clear_window();
            m.windows_seen = 0;
            m.fault_ewma.reset();
            m.fault_cusum.reset();
            m.entropy_ewma.reset();
            m.entropy_cusum.reset();
            m.cooldown_until_window = window.saturating_add(cooldown);
        }
    }

    fn roll_to(&mut self, now_cycles: u64) {
        while now_cycles >= self.window_start.saturating_add(self.cfg.epoch_cycles) {
            self.close_window();
        }
    }

    fn close_window(&mut self) {
        let close_at = self.window_start.saturating_add(self.cfg.epoch_cycles);
        let window = self.window_index;
        let tainted = self.window_tainted;

        let mut fired: Vec<Alert> = Vec::new();
        for (index, m) in self.members.iter_mut().enumerate() {
            m.windows_seen += 1;
            let warm = m.windows_seen > self.cfg.warmup_windows;
            let in_cooldown = window < m.cooldown_until_window;
            let judge = warm && !in_cooldown && !tainted;
            let mut member_alert = false;

            // Fault-rate CUSUM (upward only: quiet windows are fine).
            let x_fault = i64::try_from(m.faults.saturating_mul(1000)).unwrap_or(i64::MAX);
            if let (true, Some(mean), true) =
                (judge, m.fault_ewma.mean_milli(), self.cfg.fault_h_milli > 0)
            {
                if m.fault_cusum.update(x_fault, mean) {
                    let score = m.fault_cusum.score_milli().max(0) as u64;
                    fired.push(Alert {
                        member: index,
                        eid: m.eid,
                        detector: "fault_cusum",
                        window,
                        cycles: close_at,
                        score_milli: score,
                        threshold_milli: self.cfg.fault_h_milli,
                        vpn: m.last_fault_vpn,
                        why: format!(
                            "window fault count {} against baseline {}m (cusum {}m > {}m)",
                            m.faults, mean, score, self.cfg.fault_h_milli
                        ),
                    });
                    member_alert = true;
                }
            }
            // Baseline learns only outside anomalies: once the CUSUM is
            // accumulating evidence, the mean is frozen so a slow-burn
            // attack cannot drag its own baseline up behind itself.
            if m.fault_cusum.score_milli() == 0 || !warm {
                m.fault_ewma.update(x_fault);
            }

            // Fault-address entropy CUSUM (two-sided), only on windows
            // with enough faults for entropy to mean anything.
            if m.faults >= self.cfg.entropy_min_faults && self.cfg.entropy_h_milli > 0 {
                let counts: Vec<u64> = m.fault_pages.values().copied().collect();
                let x_entropy = i64::try_from(entropy_milli_bits(&counts)).unwrap_or(i64::MAX);
                if let (true, Some(mean)) = (judge, m.entropy_ewma.mean_milli()) {
                    if m.entropy_cusum.update(x_entropy, mean) && !member_alert {
                        let score = m.entropy_cusum.score_milli().max(0) as u64;
                        fired.push(Alert {
                            member: index,
                            eid: m.eid,
                            detector: "entropy_cusum",
                            window,
                            cycles: close_at,
                            score_milli: score,
                            threshold_milli: self.cfg.entropy_h_milli,
                            vpn: m.last_fault_vpn,
                            why: format!(
                                "fault-address entropy {x_entropy}m against baseline {}m (cusum {}m > {}m)",
                                mean,
                                score,
                                self.cfg.entropy_h_milli
                            ),
                        });
                        member_alert = true;
                    }
                }
                if m.entropy_cusum.score_milli() == 0 || !warm {
                    m.entropy_ewma.update(x_entropy);
                }
            }

            // SLO burn rate (stateless per window).
            if judge
                && !member_alert
                && self.cfg.p99_budget_cycles > 0
                && m.served >= self.cfg.min_window_requests
            {
                let burn = burn_rate_milli(m.slo_bad, m.served, self.cfg.slo_error_budget_milli);
                if burn > self.cfg.burn_threshold_milli {
                    fired.push(Alert {
                        member: index,
                        eid: m.eid,
                        detector: "slo_burn",
                        window,
                        cycles: close_at,
                        score_milli: burn,
                        threshold_milli: self.cfg.burn_threshold_milli,
                        vpn: None,
                        why: format!(
                            "{} of {} requests blew the {}-cycle p99 budget (burn {}m > {}m)",
                            m.slo_bad,
                            m.served,
                            self.cfg.p99_budget_cycles,
                            burn,
                            self.cfg.burn_threshold_milli
                        ),
                    });
                    member_alert = true;
                }
            }

            if member_alert {
                m.cooldown_until_window = window
                    .saturating_add(1)
                    .saturating_add(self.cfg.cooldown_windows);
                m.fault_cusum.reset();
                m.entropy_cusum.reset();
            }
            m.clear_window();
        }

        // Fleet-level EPC-pressure skew (after the per-member pass so
        // the alert order is deterministic: members first, fleet last).
        if self.cfg.epc_skew_threshold_milli > 0 && window >= self.cfg.warmup_windows && !tainted {
            let total: u64 = self.epc_frames.iter().sum();
            if total >= self.cfg.epc_min_total_frames {
                let (skew, idx) = epc_skew_milli(&self.epc_frames);
                if skew > self.cfg.epc_skew_threshold_milli {
                    if let Some(m) = self.members.get_mut(idx) {
                        if window >= m.cooldown_until_window {
                            fired.push(Alert {
                                member: idx,
                                eid: m.eid,
                                detector: "epc_skew",
                                window,
                                cycles: close_at,
                                score_milli: skew,
                                threshold_milli: self.cfg.epc_skew_threshold_milli,
                                vpn: None,
                                why: format!(
                                    "member holds {} of {} fleet frames (skew {}m > {}m)",
                                    self.epc_frames[idx],
                                    total,
                                    skew,
                                    self.cfg.epc_skew_threshold_milli
                                ),
                            });
                            m.cooldown_until_window = window
                                .saturating_add(1)
                                .saturating_add(self.cfg.cooldown_windows);
                        }
                    }
                }
            }
        }

        self.alert_total += fired.len() as u64;
        self.pending.extend(fired);
        self.window_tainted = false;
        self.window_start = close_at;
        self.window_index += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WatchConfig {
        WatchConfig {
            epoch_cycles: 1_000,
            warmup_windows: 3,
            fault_k_milli: 1_000,
            fault_h_milli: 3_000,
            entropy_h_milli: 0,
            cooldown_windows: 2,
            ..Default::default()
        }
    }

    fn feed_window(t: &mut Watchtower, eid: EnclaveId, faults: u64, upto: u64) {
        for i in 0..faults {
            t.observe_fault(eid, Vpn(100 + i), upto.saturating_sub(faults) + i);
        }
        t.advance(upto);
    }

    #[test]
    fn quiet_traffic_never_alerts() {
        let mut t = Watchtower::new(cfg(), 0);
        let eid = EnclaveId(1);
        t.add_member(eid, "kv-a");
        let mut upto = 1_000;
        for _ in 0..50 {
            feed_window(&mut t, eid, 2, upto);
            upto += 1_000;
        }
        assert_eq!(t.alert_total(), 0);
        assert!(t.take_alerts().is_empty());
        assert_eq!(t.windows_closed(), 50);
    }

    #[test]
    fn fault_burst_after_warmup_alerts_once_then_cools_down() {
        let mut t = Watchtower::new(cfg(), 0);
        let eid = EnclaveId(1);
        t.add_member(eid, "kv-a");
        let mut upto = 1_000;
        for _ in 0..6 {
            feed_window(&mut t, eid, 2, upto);
            upto += 1_000;
        }
        assert_eq!(t.alert_total(), 0, "baseline learned, no alert yet");
        // Sustained 5× fault burst: the CUSUM fires on the first burst
        // window; the remaining burst windows land inside the cooldown.
        for _ in 0..3 {
            feed_window(&mut t, eid, 10, upto);
            upto += 1_000;
        }
        let alerts = t.take_alerts();
        assert_eq!(alerts.len(), 1, "one alert, then cooldown silence");
        assert_eq!(alerts[0].detector, "fault_cusum");
        assert_eq!(alerts[0].eid, eid);
        assert!(alerts[0].vpn.is_some(), "fault detector names a page");
        assert!(alerts[0].score_milli > alerts[0].threshold_milli);
    }

    #[test]
    fn alerts_during_warmup_are_suppressed() {
        let mut t = Watchtower::new(cfg(), 0);
        let eid = EnclaveId(1);
        t.add_member(eid, "kv-a");
        let mut upto = 1_000;
        for _ in 0..3 {
            feed_window(&mut t, eid, 50, upto);
            upto += 1_000;
        }
        assert_eq!(t.alert_total(), 0, "warmup windows never alert");
    }

    #[test]
    fn tainted_window_is_not_judged() {
        let mut t = Watchtower::new(cfg(), 0);
        let eid = EnclaveId(1);
        t.add_member(eid, "kv-a");
        let mut upto = 1_000;
        for _ in 0..6 {
            feed_window(&mut t, eid, 2, upto);
            upto += 1_000;
        }
        // A ring overflow taints the windows while the burst lands.
        for _ in 0..4 {
            t.note_ring_dropped(t.ring_dropped() + 5);
            feed_window(&mut t, eid, 10, upto);
            upto += 1_000;
        }
        assert_eq!(t.alert_total(), 0, "holes in evidence suppress verdicts");
        assert_eq!(t.ring_dropped(), 20);
    }

    #[test]
    fn reset_member_relearns_baseline() {
        let mut t = Watchtower::new(cfg(), 0);
        let eid = EnclaveId(1);
        t.add_member(eid, "kv-a");
        let mut upto = 1_000;
        for _ in 0..6 {
            feed_window(&mut t, eid, 2, upto);
            upto += 1_000;
        }
        for _ in 0..3 {
            feed_window(&mut t, eid, 10, upto);
            upto += 1_000;
        }
        assert_eq!(t.take_alerts().len(), 1);
        t.reset_member(0);
        // Post-restart traffic at the old "attack" level: the fresh
        // incarnation learns it as its baseline, no immediate re-alert.
        for _ in 0..6 {
            feed_window(&mut t, eid, 10, upto);
            upto += 1_000;
        }
        assert!(t.take_alerts().is_empty(), "baseline relearned after reset");
    }

    #[test]
    fn slo_burn_detector_fires_on_latency_regression() {
        let mut t = Watchtower::new(
            WatchConfig {
                p99_budget_cycles: 500,
                burn_threshold_milli: 4_000,
                slo_error_budget_milli: 10,
                min_window_requests: 4,
                fault_h_milli: 0,
                entropy_h_milli: 0,
                ..cfg()
            },
            0,
        );
        let eid = EnclaveId(1);
        t.add_member(eid, "kv-a");
        let mut upto = 1_000;
        for _ in 0..5 {
            for r in 0..8u64 {
                t.observe_request(0, 100, upto - 8 + r);
            }
            t.advance(upto);
            upto += 1_000;
        }
        assert_eq!(t.alert_total(), 0);
        // Every request now blows the budget: burn = 100× allowed.
        for r in 0..8u64 {
            t.observe_request(0, 5_000, upto - 8 + r);
        }
        t.advance(upto);
        let alerts = t.take_alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].detector, "slo_burn");
        assert_eq!(alerts[0].vpn, None);
    }

    #[test]
    fn epc_skew_detector_names_the_hog() {
        let mut t = Watchtower::new(
            WatchConfig {
                epc_skew_threshold_milli: 2_000,
                epc_min_total_frames: 10,
                fault_h_milli: 0,
                entropy_h_milli: 0,
                warmup_windows: 1,
                ..cfg()
            },
            0,
        );
        t.add_member(EnclaveId(1), "kv-a");
        t.add_member(EnclaveId(2), "kv-b");
        t.add_member(EnclaveId(3), "kv-c");
        t.sample_epc(&[30, 2, 2]);
        t.advance(3_000);
        let alerts = t.take_alerts();
        assert_eq!(alerts.len(), 1, "skew alert after warmup window");
        assert_eq!(alerts[0].detector, "epc_skew");
        assert_eq!(alerts[0].eid, EnclaveId(1));
        assert!(alerts[0].score_milli > 2_000);
    }

    #[test]
    fn alert_log_renders_deterministically() {
        let alerts = vec![Alert {
            member: 0,
            eid: EnclaveId(1),
            detector: "fault_cusum",
            window: 9,
            cycles: 10_000,
            score_milli: 5_120,
            threshold_milli: 3_000,
            vpn: Some(Vpn(17)),
            why: "window fault count 12 against baseline 2000m".to_owned(),
        }];
        let log = render_alert_log(&alerts, &["kv-a".to_owned()]);
        assert!(log.starts_with("# watch alert log\nalerts=1\n"));
        assert!(log.contains(
            "window=9 cycles=10000 member=kv-a eid=1 detector=fault_cusum score=5120m threshold=3000m vpn=17"
        ));
        let log2 = render_alert_log(&alerts, &["kv-a".to_owned()]);
        assert_eq!(log, log2);
    }

    #[test]
    fn empty_window_stream_closes_windows_without_panic() {
        let mut t = Watchtower::new(cfg(), 0);
        t.add_member(EnclaveId(1), "kv-a");
        t.advance(100_000);
        assert_eq!(t.windows_closed(), 100);
        assert_eq!(t.alert_total(), 0);
    }
}
