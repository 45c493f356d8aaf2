//! The watchtower: epoch-windowed SLO-burn detection over a live fleet.
//!
//! A [`Watchtower`] consumes one host-visible signal stream — the
//! dispatch service time of every completed request, handed over by the
//! supervisor — buckets it into fixed-length **epoch windows** of
//! simulated cycles, and judges each closed window by its SLO burn rate
//! ([`crate::detect::burn_rate_milli`]): the share of requests that blew
//! [`P99_BUDGET_CYCLES`], against the share the SLO allows.
//!
//! Everything is integer milli fixed-point; windows close at cycle
//! boundaries that depend only on the simulated clock. Alert streams
//! and the rendered alert log are therefore byte-identical across
//! reruns and `--jobs` levels — the same contract every other artifact
//! in this workspace honors.

use autarky_os_sim::FlightEvent;
use autarky_sgx_sim::EnclaveId;

use crate::detect::burn_rate_milli;

/// Window length in simulated cycles: much shorter than the watch
/// scenario's 30M-cycle burst cadence, so a bad burst fills its own
/// windows instead of being averaged with the idle gap after it.
pub const EPOCH_CYCLES: u64 = 1_000_000;
/// Windows a member must observe before it may alert, at boot and
/// again after a restart.
const WARMUP_WINDOWS: u64 = 8;
/// p99 budget on dispatch service time, in cycles. Service time is the
/// watchdog's own measure, and the budget sits inside the watch cells'
/// 2M-cycle watchdog budget, so the detector races the watchdog on
/// equal terms rather than on queue-inflated latency.
pub const P99_BUDGET_CYCLES: u64 = 1_600_000;
/// Allowed over-budget fraction, in milli (10 = 1%).
const SLO_ERROR_BUDGET_MILLI: u64 = 10;
/// Burn-rate alert threshold, in milli (4000 = burning 4× too fast).
const BURN_THRESHOLD_MILLI: u64 = 4_000;
/// Windows a member stays quiet after it alerts.
const COOLDOWN_WINDOWS: u64 = 4;
// A restart right after an alert re-enters warmup, which must cover
// the cooldown: `Watchtower::reset_member` sets none.
const _: () = assert!(WARMUP_WINDOWS >= COOLDOWN_WINDOWS);

/// One detector firing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// Member index in registration order.
    pub member: usize,
    /// Enclave id of the member.
    pub eid: EnclaveId,
    /// Detector that fired (`slo_burn`).
    pub detector: &'static str,
    /// Index of the window that tripped the detector.
    pub window: u64,
    /// Simulated-cycle timestamp of the window close.
    pub cycles: u64,
    /// Detector score at firing, milli-units.
    pub score_milli: u64,
    /// Decision threshold the score exceeded, milli-units.
    pub threshold_milli: u64,
    /// Firing reason (integer-valued, so the log stays byte-stable).
    pub why: String,
}

impl Alert {
    /// The flight-ring event announcing this alert.
    pub fn to_flight_event(&self) -> FlightEvent {
        FlightEvent::WatchAlert {
            eid: self.eid,
            detector: self.detector,
            window: self.window,
            score_milli: self.score_milli,
            why: self.why.clone(),
        }
    }

    /// One deterministic log line (the alert-log artifact row).
    pub fn log_line(&self, member_name: &str) -> String {
        format!(
            "window={} cycles={} member={} eid={} detector={} score={}m threshold={}m why={}",
            self.window,
            self.cycles,
            member_name,
            self.eid.0,
            self.detector,
            self.score_milli,
            self.threshold_milli,
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
    // Current-window accumulators.
    served: u64,
    slo_bad: u64,
    // Detector state.
    windows_seen: u64,
    cooldown_until_window: u64,
}

impl MemberLens {
    fn clear_window(&mut self) {
        self.served = 0;
        self.slo_bad = 0;
    }
}

/// The streaming watchtower. See the module docs for the signal model.
#[derive(Debug, Clone)]
pub struct Watchtower {
    window_start: u64,
    window_index: u64,
    members: Vec<MemberLens>,
    pending: Vec<Alert>,
    alert_total: u64,
}

impl Watchtower {
    /// Create a tower whose first window opens at `start_cycles`.
    pub fn new(start_cycles: u64) -> Self {
        Self {
            window_start: start_cycles,
            window_index: 0,
            members: Vec::new(),
            pending: Vec::new(),
            alert_total: 0,
        }
    }

    /// Register a fleet member (in boot order); returns its index.
    pub fn add_member(&mut self, eid: EnclaveId) -> usize {
        self.members.push(MemberLens {
            eid,
            served: 0,
            slo_bad: 0,
            windows_seen: 0,
            cooldown_until_window: 0,
        });
        self.members.len() - 1
    }

    /// Windows closed so far.
    pub fn windows_closed(&self) -> u64 {
        self.window_index
    }

    /// Alerts fired over the tower's lifetime.
    pub fn alert_total(&self) -> u64 {
        self.alert_total
    }

    /// A request for member `member` completed in `latency_cycles`,
    /// finishing at `cycles`.
    pub fn observe_request(&mut self, member: usize, latency_cycles: u64, cycles: u64) {
        self.roll_to(cycles);
        if let Some(m) = self.members.get_mut(member) {
            m.served = m.served.saturating_add(1);
            if latency_cycles > P99_BUDGET_CYCLES {
                m.slo_bad = m.slo_bad.saturating_add(1);
            }
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

    /// Forget member `member`'s window and warmup: it restarted, and
    /// the fresh incarnation warms up again. The warmup outlasts any
    /// cooldown, so a reset needs none.
    pub fn reset_member(&mut self, member: usize) {
        if let Some(m) = self.members.get_mut(member) {
            m.clear_window();
            m.windows_seen = 0;
        }
    }

    fn roll_to(&mut self, now_cycles: u64) {
        while now_cycles >= self.window_start.saturating_add(EPOCH_CYCLES) {
            self.close_window();
        }
    }

    fn close_window(&mut self) {
        let close_at = self.window_start.saturating_add(EPOCH_CYCLES);
        let window = self.window_index;
        for (index, m) in self.members.iter_mut().enumerate() {
            m.windows_seen += 1;
            let warm = m.windows_seen > WARMUP_WINDOWS;
            let in_cooldown = window < m.cooldown_until_window;
            if warm && !in_cooldown {
                let burn = burn_rate_milli(m.slo_bad, m.served, SLO_ERROR_BUDGET_MILLI);
                if burn > BURN_THRESHOLD_MILLI {
                    self.pending.push(Alert {
                        member: index,
                        eid: m.eid,
                        detector: "slo_burn",
                        window,
                        cycles: close_at,
                        score_milli: burn,
                        threshold_milli: BURN_THRESHOLD_MILLI,
                        why: format!(
                            "{} of {} requests blew the {}-cycle p99 budget (burn {}m > {}m)",
                            m.slo_bad, m.served, P99_BUDGET_CYCLES, burn, BURN_THRESHOLD_MILLI
                        ),
                    });
                    self.alert_total += 1;
                    m.cooldown_until_window =
                        window.saturating_add(1).saturating_add(COOLDOWN_WINDOWS);
                }
            }
            m.clear_window();
        }
        self.window_start = close_at;
        self.window_index += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EID: EnclaveId = EnclaveId(1);

    fn tower() -> Watchtower {
        let mut t = Watchtower::new(0);
        t.add_member(EID);
        t
    }

    /// Feed `requests` completions of `latency` cycles into the window
    /// that ends at `upto`, then close it.
    fn feed_window(t: &mut Watchtower, requests: u64, latency: u64, upto: u64) {
        for r in 0..requests {
            t.observe_request(0, latency, upto - requests + r);
        }
        t.advance(upto);
    }

    /// Feed the next `windows` windows 8 requests each, every request
    /// taking `latency` cycles.
    fn feed(t: &mut Watchtower, windows: u64, latency: u64) {
        for _ in 0..windows {
            let upto = (t.windows_closed() + 1) * EPOCH_CYCLES;
            feed_window(t, 8, latency, upto);
        }
    }

    #[test]
    fn quiet_traffic_never_alerts() {
        let mut t = tower();
        // Exactly at the budget is within it: only a strict overrun
        // counts against the SLO.
        feed(&mut t, 50, P99_BUDGET_CYCLES);
        assert_eq!(t.alert_total(), 0);
        assert!(t.take_alerts().is_empty());
        assert_eq!(t.windows_closed(), 50);
    }

    #[test]
    fn latency_burst_after_warmup_alerts_once_then_cools_down() {
        let mut t = tower();
        feed(&mut t, WARMUP_WINDOWS, 100);
        assert_eq!(t.alert_total(), 0, "warmed up on healthy traffic");
        // A sustained burst: the first burst window fires, the next
        // COOLDOWN_WINDOWS land inside the cooldown, the one after
        // fires again.
        feed(&mut t, 1 + COOLDOWN_WINDOWS, P99_BUDGET_CYCLES + 1);
        let alerts = t.take_alerts();
        assert_eq!(alerts.len(), 1, "one alert, then cooldown silence");
        assert_eq!(alerts[0].window, WARMUP_WINDOWS);
        assert_eq!(alerts[0].eid, EID);
        assert!(alerts[0].score_milli > alerts[0].threshold_milli);
        feed(&mut t, 1, P99_BUDGET_CYCLES + 1);
        let alerts = t.take_alerts();
        assert_eq!(alerts.len(), 1, "the cooldown ends");
        assert_eq!(alerts[0].window, WARMUP_WINDOWS + 1 + COOLDOWN_WINDOWS);
    }

    #[test]
    fn alerts_during_warmup_are_suppressed() {
        let mut t = tower();
        feed(&mut t, WARMUP_WINDOWS, P99_BUDGET_CYCLES * 10);
        assert_eq!(t.alert_total(), 0, "warmup windows never alert");
    }

    #[test]
    fn reset_member_restarts_warmup() {
        let mut t = tower();
        feed(&mut t, WARMUP_WINDOWS, 100);
        feed(&mut t, 1, P99_BUDGET_CYCLES + 1);
        assert_eq!(t.take_alerts().len(), 1);
        t.reset_member(0);
        // The fresh incarnation warms up again before it is judged.
        feed(&mut t, WARMUP_WINDOWS, P99_BUDGET_CYCLES + 1);
        assert!(t.take_alerts().is_empty(), "warmup restarted by reset");
        feed(&mut t, 1, P99_BUDGET_CYCLES + 1);
        assert_eq!(t.take_alerts().len(), 1);
    }

    #[test]
    fn slo_burn_detector_fires_on_latency_regression() {
        let mut t = tower();
        feed(&mut t, WARMUP_WINDOWS + 2, 100);
        assert_eq!(t.alert_total(), 0);
        // Every request now blows the budget: burn = 100× allowed.
        feed(&mut t, 1, P99_BUDGET_CYCLES * 3);
        let alerts = t.take_alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].detector, "slo_burn");
        assert_eq!(alerts[0].score_milli, 100_000);
        assert_eq!(alerts[0].threshold_milli, BURN_THRESHOLD_MILLI);
        assert_eq!(
            alerts[0].why,
            "8 of 8 requests blew the 1600000-cycle p99 budget (burn 100000m > 4000m)"
        );
    }

    #[test]
    fn alert_log_renders_deterministically() {
        let alerts = vec![Alert {
            member: 0,
            eid: EnclaveId(1),
            detector: "slo_burn",
            window: 14,
            cycles: 34_952_192,
            score_milli: 50_000,
            threshold_milli: 4_000,
            why: "1 of 2 requests blew the 1600000-cycle p99 budget".to_owned(),
        }];
        let log = render_alert_log(&alerts, &["kv-a".to_owned()]);
        assert!(log.starts_with("# watch alert log\nalerts=1\n"));
        assert!(log.contains(
            "window=14 cycles=34952192 member=kv-a eid=1 detector=slo_burn score=50000m \
             threshold=4000m why=1 of 2"
        ));
        let log2 = render_alert_log(&alerts, &["kv-a".to_owned()]);
        assert_eq!(log, log2);
    }

    #[test]
    fn empty_window_stream_closes_windows_without_panic() {
        let mut t = tower();
        t.advance(100 * EPOCH_CYCLES);
        assert_eq!(t.windows_closed(), 100);
        assert_eq!(t.alert_total(), 0);
    }
}
