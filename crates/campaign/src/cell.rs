//! The campaign cell model: one cell = one gated experiment at fixed
//! matrix coordinates, identified by a content address.
//!
//! A cell's identity is the sha256 of its canonical spec line — the
//! kind, every axis value the kind consumes, and every gate parameter
//! that can change its verdict. Two campaign runs (or two resumes of
//! one run) that expand the same config therefore produce the same
//! IDs, which is what lets the journal skip completed cells safely:
//! any config edit that could change a cell's outcome changes its
//! address, and the stale journal entry is simply never matched again.

use std::fmt;

/// The experiment kinds a cell can run (each wraps one existing
/// subsystem as a library call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// Telemetry perf suite workload with a cycles/op baseline gate.
    Bench,
    /// Leakage-audit cell with its bits/run gate.
    Leakage,
    /// Flight-recorder record → replay → diff determinism check.
    Replay,
    /// Checkpoint/restore: restore determinism (`quiet`) or one staged
    /// rollback attack that must be refused, recorded, and attributed.
    Snapshot,
    /// Fleet load-gen run with accounting/failover gates and latency
    /// percentiles.
    Fleet,
    /// Cycle-attribution profile with residual and hot-path gates.
    Profile,
    /// Paper-figure reproduction (currently fig5's latency breakdown).
    Figure,
    /// Watchtower fleet run (watched twice for artifact byte-identity)
    /// with alert-count and false-positive gates.
    Watch,
}

impl CellKind {
    /// Every kind, in report order.
    pub const ALL: [CellKind; 8] = [
        CellKind::Bench,
        CellKind::Leakage,
        CellKind::Replay,
        CellKind::Snapshot,
        CellKind::Fleet,
        CellKind::Profile,
        CellKind::Figure,
        CellKind::Watch,
    ];

    /// Stable config/report tag.
    pub fn name(self) -> &'static str {
        match self {
            CellKind::Bench => "bench",
            CellKind::Leakage => "leakage",
            CellKind::Replay => "replay",
            CellKind::Snapshot => "snapshot",
            CellKind::Fleet => "fleet",
            CellKind::Profile => "profile",
            CellKind::Figure => "figure",
            CellKind::Watch => "watch",
        }
    }

    /// Resolve a config tag.
    pub fn from_name(tag: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == tag)
    }
}

/// Per-suite gate and sizing parameters (kind-specific fields are
/// ignored — and excluded from the content address — for other kinds).
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteParams {
    /// Bench: perf-suite scale factor.
    pub scale: u32,
    /// Bench: baseline JSON path the regression gate reads (relative to
    /// the invocation directory); `None` makes bench cells ungated.
    pub baseline: Option<String>,
    /// Bench: max tolerated cycles/op growth vs the baseline, percent.
    pub max_growth_pct: f64,
    /// Leakage: seeds per secret class (≥ 2).
    pub samples: usize,
    /// Leakage: minimum MI the unprotected baseline must leak.
    pub baseline_min_mi: f64,
    /// Leakage: maximum MI a protected configuration may leak.
    pub oram_max_mi: f64,
    /// Replay: secret class driven through the schedule.
    pub secret: u32,
    /// Fleet: requests offered per member.
    pub requests: usize,
    /// Fleet: EPC frames shared by the members.
    pub epc_frames: usize,
    /// Profile: max unattributed-cycle share, percent.
    pub residual_max_pct: f64,
    /// Watch: minimum alerts a staged storm cell must fire.
    pub min_alerts: u64,
    /// Watch: maximum alerts a quiet (no-injection) cell may fire —
    /// the false-positive gate.
    pub max_false_alerts: u64,
}

impl Default for SuiteParams {
    fn default() -> Self {
        Self {
            scale: 1,
            baseline: None,
            max_growth_pct: 10.0,
            samples: 2,
            baseline_min_mi: 0.9,
            oram_max_mi: 0.25,
            secret: 0,
            requests: 60,
            epc_frames: 2048,
            residual_max_pct: 5.0,
            min_alerts: 1,
            max_false_alerts: 0,
        }
    }
}

/// One expanded cell: kind + the axis values it consumes + gate params.
///
/// Axes the kind does not consume are `None` and render as `-`.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Content address (first 12 hex chars of sha256 of [`canon`]).
    ///
    /// [`canon`]: CellSpec::canon
    pub id: String,
    /// Experiment kind.
    pub kind: CellKind,
    /// Protection policy (leakage, replay, restore-determinism snapshot).
    pub policy: Option<String>,
    /// Workload (all kinds).
    pub workload: String,
    /// Enclave heap sizing in pages (fleet).
    pub enclave_size: Option<u64>,
    /// Named fault plan (replay, snapshot, fleet, watch).
    pub fault_plan: Option<String>,
    /// Traffic shape (fleet).
    pub traffic_shape: Option<String>,
    /// Seed axis value (replay, rollback snapshot, fleet, watch).
    pub seed: Option<u64>,
    /// Gate parameters inherited from the suite.
    pub params: SuiteParams,
}

impl CellSpec {
    /// Build a spec and stamp its content address.
    // One parameter per matrix axis: a builder would obscure that the
    // argument list IS the axis list.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kind: CellKind,
        policy: Option<String>,
        workload: String,
        enclave_size: Option<u64>,
        fault_plan: Option<String>,
        traffic_shape: Option<String>,
        seed: Option<u64>,
        params: SuiteParams,
    ) -> Self {
        let mut spec = Self {
            id: String::new(),
            kind,
            policy,
            workload,
            enclave_size,
            fault_plan,
            traffic_shape,
            seed,
            params,
        };
        let digest = autarky_crypto::sha256(spec.canon().as_bytes());
        spec.id = digest[..6].iter().map(|b| format!("{b:02x}")).collect();
        spec
    }

    /// The canonical spec line the content address hashes: kind, the
    /// consumed axes, and every gate parameter that can change the
    /// verdict. Unconsumed axes are deliberately absent so e.g. a bench
    /// cell's address is stable no matter what the seed axis holds.
    pub fn canon(&self) -> String {
        let mut out = format!("campaign-cell-v1 kind={}", self.kind.name());
        match self.kind {
            CellKind::Bench => {
                out.push_str(&format!(
                    " workload={} scale={} baseline={} max_growth_pct={}",
                    self.workload,
                    self.params.scale,
                    self.params.baseline.as_deref().unwrap_or("-"),
                    self.params.max_growth_pct,
                ));
            }
            CellKind::Leakage => {
                out.push_str(&format!(
                    " policy={} workload={} samples={} baseline_min_mi={} oram_max_mi={}",
                    self.policy.as_deref().unwrap_or("-"),
                    self.workload,
                    self.params.samples,
                    self.params.baseline_min_mi,
                    self.params.oram_max_mi,
                ));
            }
            CellKind::Replay => {
                out.push_str(&format!(
                    " policy={} workload={} fault_plan={} seed={} secret={}",
                    self.policy.as_deref().unwrap_or("-"),
                    self.workload,
                    self.fault_plan.as_deref().unwrap_or("quiet"),
                    self.seed.unwrap_or(1),
                    self.params.secret,
                ));
            }
            // Restore determinism runs one restore-matrix schedule; a
            // rollback attack stages on its own world, keyed by seed.
            CellKind::Snapshot => match self.fault_plan.as_deref().unwrap_or("quiet") {
                "quiet" => out.push_str(&format!(
                    " policy={} workload={} fault_plan=quiet",
                    self.policy.as_deref().unwrap_or("-"),
                    self.workload,
                )),
                plan => out.push_str(&format!(
                    " fault_plan={plan} seed={}",
                    self.seed.unwrap_or(0)
                )),
            },
            CellKind::Fleet => {
                out.push_str(&format!(
                    " workload={} traffic_shape={} fault_plan={} enclave_size={} seed={} \
                     requests={} epc_frames={}",
                    self.workload,
                    self.traffic_shape.as_deref().unwrap_or("bursty"),
                    self.fault_plan.as_deref().unwrap_or("quiet"),
                    self.enclave_size.unwrap_or(192),
                    self.seed.unwrap_or(1),
                    self.params.requests,
                    self.params.epc_frames,
                ));
            }
            CellKind::Profile => {
                out.push_str(&format!(
                    " policy={} workload={} scale={} residual_max_pct={} baseline={} \
                     max_growth_pct={}",
                    self.policy.as_deref().unwrap_or("-"),
                    self.workload,
                    self.params.scale,
                    self.params.residual_max_pct,
                    self.params.baseline.as_deref().unwrap_or("-"),
                    self.params.max_growth_pct,
                ));
            }
            CellKind::Figure => {
                // The workload axis carries the figure name, the policy
                // axis the paging mechanism — keeps the matrix axes
                // reusable as more figures become cells.
                out.push_str(&format!(
                    " figure={} mechanism={} scale={}",
                    self.workload,
                    self.policy.as_deref().unwrap_or("sgx1"),
                    self.params.scale,
                ));
            }
            CellKind::Watch => {
                out.push_str(&format!(
                    " workload={} fault_plan={} seed={} requests={} min_alerts={} \
                     max_false_alerts={}",
                    self.workload,
                    self.fault_plan.as_deref().unwrap_or("quiet"),
                    self.seed.unwrap_or(1),
                    self.params.requests,
                    self.params.min_alerts,
                    self.params.max_false_alerts,
                ));
            }
        }
        out
    }

    /// Human-readable coordinates, `-` for unconsumed axes:
    /// `kind/policy/workload/enclave_size/fault_plan/traffic_shape/seed`.
    pub fn coords(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}/{}/{}",
            self.kind.name(),
            self.policy.as_deref().unwrap_or("-"),
            self.workload,
            self.enclave_size
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".into()),
            self.fault_plan.as_deref().unwrap_or("-"),
            self.traffic_shape.as_deref().unwrap_or("-"),
            self.seed
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".into()),
        )
    }

    /// Deterministic per-cell seed: a stable function of the content
    /// address and the seed axis, so every cell draws from its own
    /// stream no matter which worker thread runs it.
    pub fn derived_seed(&self) -> u64 {
        let digest = autarky_crypto::sha256(self.canon().as_bytes());
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&digest[8..16]);
        u64::from_le_bytes(bytes) ^ self.seed.unwrap_or(0)
    }
}

impl fmt::Display for CellSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.id, self.coords())
    }
}

/// A cell's gate verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateOutcome {
    /// Threshold held.
    Pass,
    /// Threshold violated (fails the campaign).
    Fail,
    /// Informational cell with no threshold.
    Info,
}

impl GateOutcome {
    /// Stable journal/report tag.
    pub fn name(self) -> &'static str {
        match self {
            GateOutcome::Pass => "pass",
            GateOutcome::Fail => "fail",
            GateOutcome::Info => "info",
        }
    }

    fn from_name(tag: &str) -> Option<Self> {
        match tag {
            "pass" => Some(GateOutcome::Pass),
            "fail" => Some(GateOutcome::Fail),
            "info" => Some(GateOutcome::Info),
            _ => None,
        }
    }
}

/// Files a cell leaves in its artifact directory, as `(file name,
/// contents)` pairs.
pub type Artifacts = Vec<(String, String)>;

/// What one executed cell produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Gate verdict.
    pub gate: GateOutcome,
    /// Named metrics (cycles/op, MI bits, p99, …), in emit order.
    pub metrics: Vec<(String, f64)>,
    /// Human-readable gate explanation.
    pub reason: String,
}

impl CellOutcome {
    /// A failure outcome with no metrics.
    pub fn fail(reason: impl Into<String>) -> Self {
        Self {
            gate: GateOutcome::Fail,
            metrics: Vec::new(),
            reason: reason.into(),
        }
    }

    /// Pass with `pass_reason` when `failures` is empty, else fail with
    /// every failure joined.
    pub fn gated(metrics: Vec<(String, f64)>, failures: Vec<String>, pass_reason: String) -> Self {
        let (gate, reason) = if failures.is_empty() {
            (GateOutcome::Pass, pass_reason)
        } else {
            (GateOutcome::Fail, failures.join("; "))
        };
        Self {
            gate,
            metrics,
            reason,
        }
    }

    /// Serialize as one journal line (round-trips via [`decode_line`]).
    ///
    /// Metric values use Rust's shortest-round-trip `f64` display, so a
    /// resumed campaign reconstructs bit-identical numbers and the final
    /// report matches an uninterrupted run byte for byte.
    pub fn encode_line(&self, id: &str) -> String {
        let metrics = if self.metrics.is_empty() {
            "-".to_owned()
        } else {
            self.metrics
                .iter()
                .map(|(k, v)| format!("{k}:{}", json_f64(*v)))
                .collect::<Vec<_>>()
                .join(",")
        };
        let body = format!(
            "cell id={id} gate={} metrics={metrics} reason={}",
            self.gate.name(),
            escape(&self.reason)
        );
        format!("{body} sum={}", line_sum(&body))
    }
}

/// First 4 bytes of sha256 over a journal line body, hex — the
/// truncation guard: a crash mid-append must leave a line that fails
/// to verify, never one that parses to a shortened outcome.
fn line_sum(body: &str) -> String {
    autarky_crypto::sha256(body.as_bytes())[..4]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Parse one `cell …` journal line into `(id, outcome)`. Returns `None`
/// for malformed or truncated lines (a crash mid-append leaves at most
/// one of those, which resume then simply re-runs).
pub fn decode_line(line: &str) -> Option<(String, CellOutcome)> {
    let (body, sum) = line.rsplit_once(" sum=")?;
    if line_sum(body) != sum {
        return None;
    }
    let rest = body.strip_prefix("cell ")?;
    let mut id = None;
    let mut gate = None;
    let mut metrics = Vec::new();
    let mut reason = None;
    for field in rest.split_whitespace() {
        let (key, value) = field.split_once('=')?;
        match key {
            "id" => id = Some(value.to_owned()),
            "gate" => gate = Some(GateOutcome::from_name(value)?),
            "metrics" => {
                if value != "-" {
                    for pair in value.split(',') {
                        let (k, v) = pair.split_once(':')?;
                        metrics.push((k.to_owned(), v.parse::<f64>().ok()?));
                    }
                }
            }
            "reason" => reason = Some(unescape(value)),
            _ => return None,
        }
    }
    Some((
        id?,
        CellOutcome {
            gate: gate?,
            metrics,
            reason: reason?,
        },
    ))
}

/// Finite journal/report float (JSON has no Infinity/NaN; mirror the
/// leakage report's sentinel).
pub(crate) fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "1e308".to_owned()
    }
}

/// Percent-escape a free-text field into one whitespace-free token.
fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\n' => out.push_str("%0A"),
            '\t' => out.push_str("%09"),
            _ => out.push(c),
        }
    }
    if out.is_empty() {
        out.push_str("%20"); // a reason token must not be empty
    }
    out
}

fn unescape(token: &str) -> String {
    let mut out = String::with_capacity(token.len());
    let mut chars = token.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hi = chars.next();
        let lo = chars.next();
        match (hi, lo) {
            (Some(h), Some(l)) => {
                let byte = u8::from_str_radix(&format!("{h}{l}"), 16).unwrap_or(b'?');
                out.push(byte as char);
            }
            _ => out.push('?'),
        }
    }
    if out == " " {
        // The empty-reason sentinel.
        return String::new();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: CellKind) -> CellSpec {
        CellSpec::new(
            kind,
            Some("clusters".into()),
            "spell".into(),
            Some(192),
            Some("quiet".into()),
            Some("bursty".into()),
            Some(1),
            SuiteParams::default(),
        )
    }

    #[test]
    fn ids_are_stable_and_kind_sensitive() {
        let a = spec(CellKind::Replay);
        let b = spec(CellKind::Replay);
        assert_eq!(a.id, b.id, "same spec, same address");
        assert_eq!(a.id.len(), 12);
        let c = spec(CellKind::Leakage);
        assert_ne!(a.id, c.id, "kind is part of the address");
    }

    #[test]
    fn unconsumed_axes_do_not_perturb_the_address() {
        let a = spec(CellKind::Bench);
        let mut b = spec(CellKind::Bench);
        b.seed = Some(999);
        b.policy = Some("cached-oram".into());
        let b = CellSpec::new(
            b.kind,
            b.policy,
            b.workload,
            b.enclave_size,
            b.fault_plan,
            b.traffic_shape,
            b.seed,
            b.params,
        );
        assert_eq!(a.id, b.id, "bench consumes only workload + gate params");
    }

    #[test]
    fn gate_params_perturb_the_address() {
        let a = spec(CellKind::Leakage);
        let params = SuiteParams {
            oram_max_mi: 0.5,
            ..SuiteParams::default()
        };
        let b = CellSpec::new(
            CellKind::Leakage,
            Some("clusters".into()),
            "spell".into(),
            Some(192),
            Some("quiet".into()),
            Some("bursty".into()),
            Some(1),
            params,
        );
        assert_ne!(a.id, b.id, "a changed threshold re-addresses the cell");
    }

    #[test]
    fn outcome_roundtrips_through_the_journal_codec() {
        let outcome = CellOutcome {
            gate: GateOutcome::Pass,
            metrics: vec![
                ("cycles_per_op".into(), 38240.512),
                ("mi_bits".into(), 0.03125),
                ("inf".into(), f64::INFINITY),
            ],
            reason: "within budget: 1.2% < 10% tolerance\nsecond line".into(),
        };
        let line = outcome.encode_line("abcdef012345");
        let (id, decoded) = decode_line(&line).expect("decodes");
        assert_eq!(id, "abcdef012345");
        assert_eq!(decoded.gate, GateOutcome::Pass);
        assert_eq!(decoded.metrics[0], ("cycles_per_op".into(), 38240.512));
        assert_eq!(decoded.metrics[1], ("mi_bits".into(), 0.03125));
        assert_eq!(decoded.metrics[2].1, 1e308);
        assert_eq!(decoded.reason, outcome.reason);
        // Re-encoding the decoded outcome is byte-stable apart from the
        // infinity sentinel, which decodes to its finite stand-in.
        let reline = decoded.encode_line(&id);
        assert_eq!(decode_line(&reline).expect("re-decodes").1, decoded);
    }

    #[test]
    fn truncated_lines_are_rejected_not_misread() {
        let outcome = CellOutcome {
            gate: GateOutcome::Fail,
            metrics: vec![("x".into(), 1.0)],
            reason: "boom".into(),
        };
        let line = outcome.encode_line("0123456789ab");
        for cut in 1..line.len() {
            assert!(
                decode_line(&line[..cut]).is_none(),
                "truncated line decoded at cut {cut}"
            );
        }
        assert!(decode_line(&line).is_some(), "full line decodes");
    }

    #[test]
    fn derived_seed_varies_by_seed_axis() {
        let a = spec(CellKind::Replay);
        let mut b = spec(CellKind::Replay);
        b.seed = Some(2);
        let b = CellSpec::new(
            b.kind,
            b.policy,
            b.workload,
            b.enclave_size,
            b.fault_plan,
            b.traffic_shape,
            b.seed,
            b.params,
        );
        assert_ne!(a.derived_seed(), b.derived_seed());
    }
}
