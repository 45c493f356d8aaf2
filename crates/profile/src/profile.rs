//! The assembled profile: attribution tree + residual accounting +
//! per-fault latency + per-cluster breakdown, with deterministic folded
//! and JSON renderings.
//!
//! The JSON is hand-rolled and line-oriented (the offline build has no
//! serde): [`CycleProfile::to_json`] writes one key per line and
//! [`CycleProfile::from_json`] reads exactly that format back, and
//! [`baseline_value`] reads single keys out of it, so the committed
//! bench baseline is a greppable, diff-friendly digest of profile lines.

use autarky_telemetry::LatencySummary;

use crate::tree::ProfileNode;

/// One page cluster's share of the fault traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterRow {
    /// Cluster key: the smallest virtual page number the round trip
    /// fetched (the fault page itself when no cluster decision fired).
    pub page: u64,
    /// Fault round trips attributed to this cluster.
    pub faults: u64,
    /// Round-trip cycles spent on this cluster.
    pub cycles: u64,
}

/// A complete cycle-attribution profile of one measured phase.
///
/// Everything here is a pure function of the simulated execution — no
/// host wall-clock number enters it — so folded/JSON/SVG artifacts are
/// byte-stable.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleProfile {
    /// Workload name (also the root frame of every stack).
    pub workload: String,
    /// Policy variant the workload ran under.
    pub policy: String,
    /// Scale factor of the run.
    pub scale: u32,
    /// Operations retired in the measured phase.
    pub ops: u64,
    /// Simulated cycles the measured phase took (clock delta).
    pub total_cycles: u64,
    /// Cycles the profiler could not attribute: unjournaled clock
    /// movement plus orphaned in-chain enclave work.
    pub residual_cycles: u64,
    /// The orphan component of the residual (in-chain `runtime` /
    /// `crypto` / `oram` charges with no covering span).
    pub orphan_cycles: u64,
    /// Charge-journal records lost to overflow.
    pub journal_dropped: u64,
    /// Flight-recorder records lost to overflow during the phase.
    pub flight_dropped: u64,
    /// Fault round trips observed.
    pub faults: u64,
    /// Per-fault round-trip latency digest.
    pub fault_latency: LatencySummary,
    /// Ledger tag totals over the phase (nonzero tags, tag order).
    pub tags: Vec<(String, u64)>,
    /// Hottest page clusters (by round-trip cycles, capped).
    pub clusters: Vec<ClusterRow>,
    /// The attribution tree below the workload root frame.
    pub root: ProfileNode,
}

/// Cap on the per-cluster breakdown (the tail adds noise, not insight).
pub const CLUSTER_ROWS: usize = 16;

impl CycleProfile {
    /// Cycles successfully attributed to a call path.
    pub fn attributed_cycles(&self) -> u64 {
        self.total_cycles.saturating_sub(self.residual_cycles)
    }

    /// Attributed share of the phase, percent.
    pub fn attributed_pct(&self) -> f64 {
        if self.total_cycles == 0 {
            return 100.0;
        }
        self.attributed_cycles() as f64 * 100.0 / self.total_cycles as f64
    }

    /// Unattributed share of the phase, percent.
    pub fn residual_pct(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.residual_cycles as f64 * 100.0 / self.total_cycles as f64
    }

    /// Whether the residual stays under `max_pct` percent.
    pub fn passes_residual_gate(&self, max_pct: f64) -> bool {
        self.residual_pct() <= max_pct
    }

    /// One ledger tag's cycles over the phase (0 when absent).
    pub fn tag(&self, name: &str) -> u64 {
        self.tags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Cycles the flight recorder charged for its own event capture:
    /// the profiler's observer effect.
    pub fn observer_cycles(&self) -> u64 {
        self.tag("recorder")
    }

    /// Phase cycles minus the observer effect — exactly what the same
    /// phase takes with nothing armed.
    pub fn workload_cycles(&self) -> u64 {
        self.total_cycles.saturating_sub(self.observer_cycles())
    }

    /// Unobserved cycles per operation — the number the bench gate
    /// watches.
    pub fn cycles_per_op(&self) -> f64 {
        per_op(self.workload_cycles(), self.ops)
    }

    /// Observer-effect cycles per operation.
    pub fn observer_cycles_per_op(&self) -> f64 {
        per_op(self.observer_cycles(), self.ops)
    }

    /// Cycles under the `fault_round_trip` chain frame — the hot path
    /// the baseline gate watches.
    pub fn hot_path_cycles(&self) -> u64 {
        self.root
            .child("fault_round_trip")
            .map(ProfileNode::total)
            .unwrap_or(0)
    }

    /// Hot-path cycles per fault round trip (0.0 for fault-free runs).
    pub fn hot_path_cycles_per_fault(&self) -> f64 {
        per_op(self.hot_path_cycles(), self.faults)
    }

    /// `policy/workload` — the name baselines key on.
    pub fn name(&self) -> String {
        format!("{}/{}", self.policy, self.workload)
    }

    /// Collapsed-stack rendering: `stack cycles` lines sorted by stack,
    /// every frame rooted at the workload name.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (stack, cycles) in self.root.frames(&self.workload) {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&cycles.to_string());
            out.push('\n');
        }
        out
    }

    /// Serialize as JSON (stable key order, one key per line — the
    /// format [`CycleProfile::from_json`] and the baseline parser read).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"name\": \"{}\",\n", self.name()));
        out.push_str(&format!("  \"workload\": \"{}\",\n", self.workload));
        out.push_str(&format!("  \"policy\": \"{}\",\n", self.policy));
        out.push_str(&format!("  \"scale\": {},\n", self.scale));
        out.push_str(&format!("  \"ops\": {},\n", self.ops));
        out.push_str(&format!("  \"total_cycles\": {},\n", self.total_cycles));
        out.push_str(&format!(
            "  \"workload_cycles\": {},\n",
            self.workload_cycles()
        ));
        out.push_str(&format!(
            "  \"cycles_per_op\": {:.3},\n",
            self.cycles_per_op()
        ));
        out.push_str(&format!(
            "  \"attributed_cycles\": {},\n",
            self.attributed_cycles()
        ));
        out.push_str(&format!(
            "  \"residual_cycles\": {},\n",
            self.residual_cycles
        ));
        out.push_str(&format!("  \"orphan_cycles\": {},\n", self.orphan_cycles));
        out.push_str(&format!(
            "  \"residual_pct\": {:.4},\n",
            self.residual_pct()
        ));
        out.push_str(&format!(
            "  \"journal_dropped\": {},\n",
            self.journal_dropped
        ));
        out.push_str(&format!("  \"flight_dropped\": {},\n", self.flight_dropped));
        out.push_str(&format!("  \"faults\": {},\n", self.faults));
        out.push_str(&format!(
            "  \"fault_p50_cycles\": {},\n",
            self.fault_latency.p50
        ));
        out.push_str(&format!(
            "  \"fault_p99_cycles\": {},\n",
            self.fault_latency.p99
        ));
        out.push_str(&format!(
            "  \"fault_p999_cycles\": {},\n",
            self.fault_latency.p999
        ));
        out.push_str(&format!(
            "  \"fault_mean_cycles\": {:.3},\n",
            self.fault_latency.mean
        ));
        out.push_str(&format!(
            "  \"hot_path_cycles_per_fault\": {:.3},\n",
            self.hot_path_cycles_per_fault()
        ));
        out.push_str("  \"tags\": [\n");
        for (i, (name, cycles)) in self.tags.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"tag\": \"{name}\", \"cycles\": {cycles}}}{}\n",
                if i + 1 < self.tags.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"clusters\": [\n");
        for (i, row) in self.clusters.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"page\": {}, \"cluster_faults\": {}, \"cluster_cycles\": {}}}{}\n",
                row.page,
                row.faults,
                row.cycles,
                if i + 1 < self.clusters.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"frames\": [\n");
        let frames = self.root.frames(&self.workload);
        for (i, (stack, cycles)) in frames.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"stack\": \"{stack}\", \"cycles\": {cycles}}}{}\n",
                if i + 1 < frames.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse a profile back from [`CycleProfile::to_json`] output.
    /// Line-oriented — exactly the writer's format, not general JSON:
    /// every scalar the writer emits must be present once and parse, and
    /// any other line, or a row missing a field, refuses the input.
    pub fn from_json(json: &str) -> Option<CycleProfile> {
        // Scalar keys, then the three row lists, in writer order.
        const SCALARS: &str = "version name workload policy scale ops total_cycles \
            workload_cycles cycles_per_op attributed_cycles residual_cycles orphan_cycles \
            residual_pct journal_dropped flight_dropped faults fault_p50_cycles fault_p99_cycles \
            fault_p999_cycles fault_mean_cycles hot_path_cycles_per_fault";
        const LISTS: [&str; 3] = ["\"tags\": [", "\"clusters\": [", "\"frames\": ["];
        let mut scalars: Vec<(&str, &str)> = Vec::new();
        let mut tags: Vec<(String, u64)> = Vec::new();
        let mut clusters: Vec<ClusterRow> = Vec::new();
        let mut frames: Vec<(String, u64)> = Vec::new();
        // Lists opened so far, whether one is open, and the closing brace.
        let (mut lists, mut in_list, mut closed) = (0, false, false);

        let mut lines = json.lines().map(|line| {
            let t = line.trim();
            t.strip_suffix(',').unwrap_or(t)
        });
        if lines.next()? != "{" {
            return None;
        }
        for t in lines {
            match (lists, in_list, t) {
                _ if closed => return None,
                (n, false, _) if n < LISTS.len() && t == LISTS[n] => {
                    (lists, in_list) = (n + 1, true)
                }
                (_, true, "]") => in_list = false,
                (3, false, "}") => closed = true,
                (0, _, _) => {
                    let (key, value) = t.strip_prefix('"')?.split_once("\": ")?;
                    let known = SCALARS.split_whitespace().any(|k| k == key);
                    if !known || scalars.iter().any(|(k, _)| *k == key) {
                        return None;
                    }
                    scalars.push((key, value));
                }
                (1, true, _) => {
                    let [tag, cycles] = row_fields(t)?;
                    tags.push((str_field(tag, "tag")?, u64_field(cycles, "cycles")?));
                }
                (2, true, _) => {
                    let [page, faults, cycles] = row_fields(t)?;
                    clusters.push(ClusterRow {
                        page: u64_field(page, "page")?,
                        faults: u64_field(faults, "cluster_faults")?,
                        cycles: u64_field(cycles, "cluster_cycles")?,
                    });
                }
                (3, true, _) => {
                    let [stack, cycles] = row_fields(t)?;
                    frames.push((str_field(stack, "stack")?, u64_field(cycles, "cycles")?));
                }
                _ => return None,
            }
        }
        if !closed || scalars.len() != SCALARS.split_whitespace().count() {
            return None;
        }

        let raw = |key: &str| scalars.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
        let text = |key: &str| {
            let v = raw(key)?.strip_prefix('"')?.strip_suffix('"')?;
            Some(v.to_owned())
        };
        let int = |key: &str| raw(key)?.parse::<u64>().ok();
        let float = |key: &str| raw(key)?.parse::<f64>().ok();
        let workload = text("workload")?;
        let policy = text("policy")?;
        // The derived scalars must parse too; the profile recomputes them.
        let derived = "workload_cycles cycles_per_op attributed_cycles residual_pct \
            hot_path_cycles_per_fault";
        if int("version")? != 1
            || text("name")? != format!("{policy}/{workload}")
            || derived.split_whitespace().any(|key| float(key).is_none())
        {
            return None;
        }
        let faults = int("faults")?;
        let root = if frames.is_empty() {
            ProfileNode::new()
        } else {
            let (root_name, root) = ProfileNode::from_frames(&frames)?;
            if root_name != workload {
                return None;
            }
            root
        };
        Some(CycleProfile {
            workload,
            policy,
            scale: u32::try_from(int("scale")?).ok()?,
            ops: int("ops")?,
            total_cycles: int("total_cycles")?,
            residual_cycles: int("residual_cycles")?,
            orphan_cycles: int("orphan_cycles")?,
            journal_dropped: int("journal_dropped")?,
            flight_dropped: int("flight_dropped")?,
            faults,
            fault_latency: LatencySummary {
                count: faults,
                p50: int("fault_p50_cycles")?,
                p99: int("fault_p99_cycles")?,
                p999: int("fault_p999_cycles")?,
                mean: float("fault_mean_cycles")?,
            },
            tags,
            clusters,
            root,
        })
    }
}

/// The `N` comma-separated fields of one `{...}` list row.
fn row_fields<const N: usize>(row: &str) -> Option<[&str; N]> {
    let inner = row.strip_prefix('{')?.strip_suffix('}')?;
    inner.split(", ").collect::<Vec<_>>().try_into().ok()
}

/// The string value of `"key": "value"`.
fn str_field(field: &str, key: &str) -> Option<String> {
    let value = field.strip_prefix('"')?.strip_prefix(key)?;
    Some(value.strip_prefix("\": \"")?.strip_suffix('"')?.to_owned())
}

/// The integer value of `"key": value`.
fn u64_field(field: &str, key: &str) -> Option<u64> {
    let value = field.strip_prefix('"')?.strip_prefix(key)?;
    value.strip_prefix("\": ")?.parse().ok()
}

/// `cycles / count`, 0.0 for an empty count.
fn per_op(cycles: u64, ops: u64) -> f64 {
    if ops == 0 {
        return 0.0;
    }
    cycles as f64 / ops as f64
}

/// Look up `key` of the entry named `name` (`policy/workload`) in a
/// baseline file. Line-oriented, in the format [`CycleProfile::to_json`]
/// writes: a `"name"` line opens an entry and later `"key": number`
/// lines belong to it, so a baseline can be a concatenation of profile
/// JSONs or a hand-trimmed digest of their lines.
pub fn baseline_value(baseline_json: &str, name: &str, key: &str) -> Option<f64> {
    let prefix = format!("\"{key}\": ");
    let mut current: Option<&str> = None;
    for line in baseline_json.lines() {
        let t = line.trim().trim_end_matches(',');
        if let Some(rest) = t.strip_prefix("\"name\": \"") {
            current = rest.strip_suffix('"');
        } else if let Some(rest) = t.strip_prefix(&prefix) {
            if current == Some(name) {
                return rest.parse().ok();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CycleProfile {
        let mut root = ProfileNode::new();
        root.add(&["fault_round_trip", "fault_handler", "runtime"], 700);
        root.add(&["fault_round_trip", "preemption"], 4200);
        root.add(&["oram_access", "oram"], 90);
        CycleProfile {
            workload: "spell".into(),
            policy: "clusters".into(),
            scale: 1,
            ops: 120,
            total_cycles: 5000,
            residual_cycles: 10,
            orphan_cycles: 4,
            journal_dropped: 0,
            flight_dropped: 0,
            faults: 2,
            fault_latency: LatencySummary {
                count: 2,
                p50: 2400,
                p99: 2600,
                p999: 2600,
                mean: 2450.5,
            },
            tags: vec![
                ("preemption".into(), 4200),
                ("runtime".into(), 700),
                ("recorder".into(), 40),
            ],
            clusters: vec![ClusterRow {
                page: 16,
                faults: 2,
                cycles: 4900,
            }],
            root,
        }
    }

    #[test]
    fn accounting_identities_hold() {
        let p = sample();
        assert_eq!(p.attributed_cycles(), 4990);
        assert!((p.attributed_pct() - 99.8).abs() < 1e-9);
        assert!((p.residual_pct() - 0.2).abs() < 1e-9);
        assert!(p.passes_residual_gate(5.0));
        assert!(!p.passes_residual_gate(0.1));
        assert_eq!(p.hot_path_cycles(), 4900);
        assert!((p.hot_path_cycles_per_fault() - 2450.0).abs() < 1e-9);
        assert_eq!(p.tag("preemption"), 4200);
        assert_eq!(p.tag("missing"), 0);
        assert_eq!(p.observer_cycles(), 40);
        assert_eq!(p.workload_cycles(), 4960);
        assert!((p.cycles_per_op() - 4960.0 / 120.0).abs() < 1e-9);
        assert!((p.observer_cycles_per_op() - 40.0 / 120.0).abs() < 1e-9);
        assert_eq!(p.name(), "clusters/spell");
    }

    #[test]
    fn folded_output_is_sorted_and_rooted() {
        let folded = sample().folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec![
                "spell;fault_round_trip;fault_handler;runtime 700",
                "spell;fault_round_trip;preemption 4200",
                "spell;oram_access;oram 90",
            ]
        );
    }

    #[test]
    fn json_roundtrips_exactly() {
        let p = sample();
        let json = p.to_json();
        let back = CycleProfile::from_json(&json).expect("parses");
        assert_eq!(back, p);
        assert_eq!(back.to_json(), json, "re-encoding is byte-stable");
    }

    #[test]
    fn baseline_lookup_matches_by_name() {
        let json = sample().to_json();
        let hot = baseline_value(&json, "clusters/spell", "hot_path_cycles_per_fault");
        assert!((hot.expect("found") - 2450.0).abs() < 1e-6);
        assert!(baseline_value(&json, "elided/spell", "hot_path_cycles_per_fault").is_none());
        // A profile JSON carries the bench gate's cycles/op line too, so
        // a cell artifact is a valid baseline entry as written.
        let per_op = baseline_value(&json, "clusters/spell", "cycles_per_op").expect("found");
        assert!((per_op - sample().cycles_per_op()).abs() < 1e-3);

        // A digest with several entries: keys resolve per entry, and an
        // entry without the key (no hot path) is absent, not borrowed
        // from its neighbour.
        let digest = "{\n  \"entries\": [\n    {\n      \"name\": \"clusters/paging\",\n      \
                      \"cycles_per_op\": 100.500,\n      \"hot_path_cycles_per_fault\": 80.000\n    },\n    \
                      {\n      \"name\": \"clusters/font\",\n      \"cycles_per_op\": 20.000\n    }\n  ]\n}\n";
        assert_eq!(
            baseline_value(digest, "clusters/paging", "cycles_per_op"),
            Some(100.5)
        );
        assert_eq!(
            baseline_value(digest, "clusters/font", "cycles_per_op"),
            Some(20.0)
        );
        assert_eq!(
            baseline_value(digest, "clusters/font", "hot_path_cycles_per_fault"),
            None
        );
        assert_eq!(
            baseline_value(digest, "clusters/spell", "cycles_per_op"),
            None
        );
    }
}
