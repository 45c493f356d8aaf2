//! Campaign configuration: the declarative TOML matrix and its
//! expansion into content-addressed cells.
//!
//! A config has three layers:
//!
//! * `[campaign]` — the name (which also names the default output
//!   directory);
//! * `[matrix]` — the shared axis vocabulary: `policy`, `workload`,
//!   `enclave_size`, `fault_plan`, `traffic_shape`, `seed`;
//! * `[[suite]]` — one experiment kind each (`bench`, `leakage`,
//!   `replay`, `snapshot`, `fleet`, `profile`, `figure`, `watch`),
//!   inheriting the matrix axes unless overridden, plus the kind's gate
//!   parameters.
//!
//! Each kind consumes only the axes that can change its outcome (a
//! bench cell has no policy; a leakage cell folds the seed axis into
//! its own per-class sampling), and expansion is the cartesian product
//! of the consumed axes. Axis values are validated against the wrapped
//! subsystem's vocabulary at load time — a typo is a config error, not
//! a silently skipped cell.

use std::fmt;

use crate::cell::{CellKind, CellSpec, SuiteParams};
use crate::toml::{self, Table};

/// Valid fault-plan names for replay cells (deterministically
/// replayable injection campaigns).
pub const REPLAY_FAULT_PLANS: [&str; 3] = ["quiet", "transient", "hostile"];
/// Valid fault-plan names for snapshot cells: `quiet` runs restore
/// determinism on one restore-matrix (policy, workload) pair; the rest
/// name the staged rollback attack a seeded cell must catch.
pub const SNAPSHOT_FAULT_PLANS: [&str; 5] =
    ["quiet", "stale", "fork", "truncate", "counter-rollback"];
/// Valid fault-plan names for fleet cells (`staged-evict` is the
/// supervisor's staged mid-run crash).
pub const FLEET_FAULT_PLANS: [&str; 3] = ["quiet", "transient", "staged-evict"];
/// Valid traffic shapes for fleet load generation.
pub const TRAFFIC_SHAPES: [&str; 3] = ["steady", "poisson", "bursty"];
/// Valid fleet member mixes.
pub const FLEET_WORKLOADS: [&str; 3] = ["kvstore", "spell", "mixed"];
/// Valid fault-plan names for watch cells: `quiet` is the
/// false-positive baseline (zero alerts allowed by default), `storm`
/// the staged delay-plus-spurious-evict campaign the watchtower must
/// catch before the watchdog does.
pub const WATCH_FAULT_PLANS: [&str; 2] = ["quiet", "storm"];
/// Valid member mixes for watch cells (the victim is always the first
/// member, a kvstore).
pub const WATCH_WORKLOADS: [&str; 2] = ["kvstore", "mixed"];
/// Valid figure names for figure cells (the workload axis carries the
/// figure, the policy axis the paging mechanism).
pub const FIGURE_NAMES: [&str; 1] = ["fig5"];
/// Valid paging-mechanism tags for figure cells.
pub const FIGURE_MECHANISMS: [&str; 2] = ["sgx1", "sgx2"];

/// A config-level failure (parse or validation).
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "campaign config error: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl From<toml::TomlError> for ConfigError {
    fn from(e: toml::TomlError) -> Self {
        ConfigError(e.to_string())
    }
}

/// The six matrix axes, after defaulting and inheritance.
#[derive(Debug, Clone, PartialEq)]
pub struct Axes {
    /// Protection policies.
    pub policy: Vec<String>,
    /// Workloads.
    pub workload: Vec<String>,
    /// Enclave heap sizing in pages.
    pub enclave_size: Vec<u64>,
    /// Named fault plans.
    pub fault_plan: Vec<String>,
    /// Traffic shapes.
    pub traffic_shape: Vec<String>,
    /// Seeds.
    pub seed: Vec<u64>,
}

impl Default for Axes {
    fn default() -> Self {
        Self {
            policy: vec!["clusters".into()],
            workload: vec!["spell".into()],
            enclave_size: vec![192],
            fault_plan: vec!["quiet".into()],
            traffic_shape: vec!["bursty".into()],
            seed: vec![1],
        }
    }
}

impl Axes {
    /// Overlay any axis present in `table` onto `self`.
    fn overlay(&mut self, table: &Table) -> Result<(), ConfigError> {
        let need = |key: &str| ConfigError(format!("axis `{key}` must be a non-empty list"));
        for key in ["policy", "workload", "fault_plan", "traffic_shape"] {
            if table.has(key) {
                let values = table.get_strs(key).ok_or_else(|| need(key))?;
                if values.is_empty() {
                    return Err(need(key));
                }
                match key {
                    "policy" => self.policy = values,
                    "workload" => self.workload = values,
                    "fault_plan" => self.fault_plan = values,
                    _ => self.traffic_shape = values,
                }
            }
        }
        for key in ["enclave_size", "seed"] {
            if table.has(key) {
                let values = table.get_u64s(key).ok_or_else(|| need(key))?;
                if values.is_empty() {
                    return Err(need(key));
                }
                match key {
                    "enclave_size" => self.enclave_size = values,
                    _ => self.seed = values,
                }
            }
        }
        Ok(())
    }
}

/// One `[[suite]]`: a kind, its (inherited + overridden) axes, and its
/// gate parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Suite {
    /// Experiment kind.
    pub kind: CellKind,
    /// Axes after inheritance.
    pub axes: Axes,
    /// Gate parameters.
    pub params: SuiteParams,
}

impl Suite {
    /// How many cells this suite expands to (the product of the axes
    /// its kind consumes).
    pub fn cell_count(&self) -> usize {
        let a = &self.axes;
        match self.kind {
            CellKind::Bench => a.workload.len(),
            CellKind::Leakage => a.policy.len() * a.workload.len(),
            CellKind::Replay => {
                a.policy.len() * a.workload.len() * a.fault_plan.len() * a.seed.len()
            }
            CellKind::Snapshot => a
                .fault_plan
                .iter()
                .map(|plan| match plan.as_str() {
                    "quiet" => a.policy.len() * a.workload.len(),
                    _ => a.seed.len(),
                })
                .sum(),
            CellKind::Fleet => {
                a.workload.len()
                    * a.traffic_shape.len()
                    * a.fault_plan.len()
                    * a.enclave_size.len()
                    * a.seed.len()
            }
            CellKind::Profile | CellKind::Figure => a.policy.len() * a.workload.len(),
            CellKind::Watch => a.workload.len() * a.fault_plan.len() * a.seed.len(),
        }
    }

    /// Expand this suite into cell specs (product order: the axis
    /// nesting above, outermost first).
    pub fn expand(&self) -> Vec<CellSpec> {
        let a = &self.axes;
        let mut cells = Vec::with_capacity(self.cell_count());
        match self.kind {
            CellKind::Bench => {
                for workload in &a.workload {
                    cells.push(CellSpec::new(
                        self.kind,
                        None,
                        workload.clone(),
                        None,
                        None,
                        None,
                        None,
                        self.params.clone(),
                    ));
                }
            }
            CellKind::Leakage => {
                for policy in &a.policy {
                    for workload in &a.workload {
                        cells.push(CellSpec::new(
                            self.kind,
                            Some(policy.clone()),
                            workload.clone(),
                            None,
                            None,
                            None,
                            None,
                            self.params.clone(),
                        ));
                    }
                }
            }
            CellKind::Replay => {
                for policy in &a.policy {
                    for workload in &a.workload {
                        for fault_plan in &a.fault_plan {
                            for &seed in &a.seed {
                                cells.push(CellSpec::new(
                                    self.kind,
                                    Some(policy.clone()),
                                    workload.clone(),
                                    None,
                                    Some(fault_plan.clone()),
                                    None,
                                    Some(seed),
                                    self.params.clone(),
                                ));
                            }
                        }
                    }
                }
            }
            // Restore determinism consumes (policy, workload); a rollback
            // attack stages on the spell-checker world its seed builds.
            CellKind::Snapshot => {
                for fault_plan in &a.fault_plan {
                    let mut push = |policy: Option<&String>, workload: &str, seed| {
                        cells.push(CellSpec::new(
                            self.kind,
                            policy.cloned(),
                            workload.to_owned(),
                            None,
                            Some(fault_plan.clone()),
                            None,
                            seed,
                            self.params.clone(),
                        ))
                    };
                    if fault_plan == "quiet" {
                        for policy in &a.policy {
                            for workload in &a.workload {
                                push(Some(policy), workload, None);
                            }
                        }
                    } else {
                        for &seed in &a.seed {
                            push(None, "spell", Some(seed));
                        }
                    }
                }
            }
            CellKind::Fleet => {
                for workload in &a.workload {
                    for traffic_shape in &a.traffic_shape {
                        for fault_plan in &a.fault_plan {
                            for &enclave_size in &a.enclave_size {
                                for &seed in &a.seed {
                                    cells.push(CellSpec::new(
                                        self.kind,
                                        None,
                                        workload.clone(),
                                        Some(enclave_size),
                                        Some(fault_plan.clone()),
                                        Some(traffic_shape.clone()),
                                        Some(seed),
                                        self.params.clone(),
                                    ));
                                }
                            }
                        }
                    }
                }
            }
            CellKind::Profile | CellKind::Figure => {
                for policy in &a.policy {
                    for workload in &a.workload {
                        cells.push(CellSpec::new(
                            self.kind,
                            Some(policy.clone()),
                            workload.clone(),
                            None,
                            None,
                            None,
                            None,
                            self.params.clone(),
                        ));
                    }
                }
            }
            CellKind::Watch => {
                for workload in &a.workload {
                    for fault_plan in &a.fault_plan {
                        for &seed in &a.seed {
                            cells.push(CellSpec::new(
                                self.kind,
                                None,
                                workload.clone(),
                                None,
                                Some(fault_plan.clone()),
                                None,
                                Some(seed),
                                self.params.clone(),
                            ));
                        }
                    }
                }
            }
        }
        cells
    }

    fn validate(&self) -> Result<(), ConfigError> {
        let kind = self.kind.name();
        let check = |axis: &str, values: &[String], vocab: &[&str]| -> Result<(), ConfigError> {
            for v in values {
                if !vocab.contains(&v.as_str()) {
                    return Err(ConfigError(format!(
                        "{kind} suite: unknown {axis} {v:?} (valid: {})",
                        vocab.join(", ")
                    )));
                }
            }
            Ok(())
        };
        match self.kind {
            CellKind::Bench => {
                check(
                    "workload",
                    &self.axes.workload,
                    &autarky_bench::perf::WORKLOAD_NAMES,
                )?;
                if self.params.scale == 0 {
                    return Err(ConfigError("bench suite: scale must be ≥ 1".into()));
                }
            }
            CellKind::Leakage => {
                check(
                    "policy",
                    &self.axes.policy,
                    &autarky_leakage::policy_names(),
                )?;
                check(
                    "workload",
                    &self.axes.workload,
                    &autarky_leakage::workload_names(),
                )?;
                if self.params.samples < 2 {
                    return Err(ConfigError(
                        "leakage suite: samples must be ≥ 2 (per secret class)".into(),
                    ));
                }
            }
            CellKind::Replay => {
                for p in &self.axes.policy {
                    if autarky_flightrec::SchedulePolicy::from_name(p).is_none() {
                        return Err(ConfigError(format!(
                            "replay suite: unknown policy {p:?} (valid: clusters, rate-limit, \
                             cached-oram)"
                        )));
                    }
                }
                for w in &self.axes.workload {
                    if autarky_flightrec::ScheduleWorkload::from_name(w).is_none() {
                        return Err(ConfigError(format!(
                            "replay suite: unknown workload {w:?} (valid: jpeg, font, spell, \
                             kvstore)"
                        )));
                    }
                }
                check("fault_plan", &self.axes.fault_plan, &REPLAY_FAULT_PLANS)?;
            }
            CellKind::Snapshot => {
                check("fault_plan", &self.axes.fault_plan, &SNAPSHOT_FAULT_PLANS)?;
                if self.axes.fault_plan.iter().any(|p| p == "quiet") {
                    let matrix = autarky_flightrec::Schedule::restore_matrix();
                    for p in &self.axes.policy {
                        for w in &self.axes.workload {
                            if !matrix
                                .iter()
                                .any(|s| s.policy.name() == p && s.workload.name() == w)
                            {
                                return Err(ConfigError(format!(
                                    "snapshot suite: {p}/{w} is not in the restore matrix \
                                     (policies clusters, rate-limit, cached-oram × workloads \
                                     spell, kvstore)"
                                )));
                            }
                        }
                    }
                }
            }
            CellKind::Fleet => {
                check("workload", &self.axes.workload, &FLEET_WORKLOADS)?;
                check("traffic_shape", &self.axes.traffic_shape, &TRAFFIC_SHAPES)?;
                check("fault_plan", &self.axes.fault_plan, &FLEET_FAULT_PLANS)?;
                if self.params.requests == 0 {
                    return Err(ConfigError("fleet suite: requests must be ≥ 1".into()));
                }
                for &size in &self.axes.enclave_size {
                    if !(32..=4096).contains(&size) {
                        return Err(ConfigError(format!(
                            "fleet suite: enclave_size {size} out of range (32..=4096 heap pages)"
                        )));
                    }
                }
            }
            CellKind::Profile => {
                check(
                    "policy",
                    &self.axes.policy,
                    &autarky_profile::PROFILE_POLICIES,
                )?;
                check(
                    "workload",
                    &self.axes.workload,
                    &autarky_profile::PROFILE_WORKLOADS,
                )?;
                if self.params.scale == 0 {
                    return Err(ConfigError("profile suite: scale must be ≥ 1".into()));
                }
                if !self.params.residual_max_pct.is_finite() || self.params.residual_max_pct < 0.0 {
                    return Err(ConfigError(
                        "profile suite: residual_max_pct must be a non-negative number".into(),
                    ));
                }
            }
            CellKind::Figure => {
                check("workload", &self.axes.workload, &FIGURE_NAMES)?;
                check("policy", &self.axes.policy, &FIGURE_MECHANISMS)?;
                if self.params.scale == 0 {
                    return Err(ConfigError("figure suite: scale must be ≥ 1".into()));
                }
            }
            CellKind::Watch => {
                check("workload", &self.axes.workload, &WATCH_WORKLOADS)?;
                check("fault_plan", &self.axes.fault_plan, &WATCH_FAULT_PLANS)?;
                // The storm is staged on the tail of the first traffic
                // burst; a stream shorter than two bursts never reaches
                // it (burst length is fixed by the scenario).
                if self.params.requests < 50 {
                    return Err(ConfigError(
                        "watch suite: requests must be ≥ 50 (two traffic bursts)".into(),
                    ));
                }
            }
        }
        Ok(())
    }
}

/// A parsed, validated campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Campaign name (also the default output directory leaf).
    pub name: String,
    /// The suites, in file order.
    pub suites: Vec<Suite>,
}

impl CampaignConfig {
    /// Parse and validate a TOML config.
    pub fn from_toml(input: &str) -> Result<Self, ConfigError> {
        let doc = toml::parse(input)?;
        let campaign = doc
            .table("campaign")
            .ok_or_else(|| ConfigError("missing [campaign] section".into()))?;
        let name = campaign
            .get_str("name")
            .ok_or_else(|| ConfigError("[campaign] needs a string `name`".into()))?
            .to_owned();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(ConfigError(format!(
                "campaign name {name:?} must be non-empty [a-zA-Z0-9_-]"
            )));
        }

        let mut matrix_axes = Axes::default();
        if let Some(matrix) = doc.table("matrix") {
            matrix_axes.overlay(matrix)?;
        }

        let suite_tables = doc.array_tables("suite");
        if suite_tables.is_empty() {
            return Err(ConfigError("config declares no [[suite]]".into()));
        }
        let mut suites = Vec::with_capacity(suite_tables.len());
        for (i, table) in suite_tables.iter().enumerate() {
            let kind_tag = table
                .get_str("kind")
                .ok_or_else(|| ConfigError(format!("suite #{}: missing `kind`", i + 1)))?;
            let kind = CellKind::from_name(kind_tag).ok_or_else(|| {
                ConfigError(format!(
                    "suite #{}: unknown kind {kind_tag:?} (valid: {})",
                    i + 1,
                    CellKind::ALL.map(CellKind::name).join(", ")
                ))
            })?;
            let mut axes = matrix_axes.clone();
            axes.overlay(table)?;
            let params = parse_params(table, SuiteParams::default())?;
            let suite = Suite { kind, axes, params };
            suite.validate()?;
            suites.push(suite);
        }
        Ok(Self { name, suites })
    }

    /// Expand every suite, deduplicating by content address (two suites
    /// that describe the same cell share one execution and one report
    /// row). Order is suite order, then each suite's product order.
    pub fn expand(&self) -> Vec<CellSpec> {
        let mut cells: Vec<CellSpec> = Vec::new();
        for suite in &self.suites {
            for cell in suite.expand() {
                if !cells.iter().any(|c| c.id == cell.id) {
                    cells.push(cell);
                }
            }
        }
        cells
    }
}

fn parse_params(table: &Table, mut params: SuiteParams) -> Result<SuiteParams, ConfigError> {
    let bad = |key: &str, what: &str| ConfigError(format!("suite key `{key}` must be {what}"));
    if table.has("scale") {
        params.scale = table
            .get_i64("scale")
            .filter(|v| (1..=u32::MAX as i64).contains(v))
            .ok_or_else(|| bad("scale", "a positive integer"))? as u32;
    }
    if table.has("baseline") {
        params.baseline = Some(
            table
                .get_str("baseline")
                .ok_or_else(|| bad("baseline", "a path string"))?
                .to_owned(),
        );
    }
    if table.has("max_growth_pct") {
        params.max_growth_pct = table
            .get_f64("max_growth_pct")
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| bad("max_growth_pct", "a non-negative number"))?;
    }
    if table.has("samples") {
        params.samples = table
            .get_i64("samples")
            .filter(|v| *v >= 0)
            .ok_or_else(|| bad("samples", "a non-negative integer"))?
            as usize;
    }
    if table.has("baseline_min_mi") {
        params.baseline_min_mi = table
            .get_f64("baseline_min_mi")
            .filter(|v| v.is_finite())
            .ok_or_else(|| bad("baseline_min_mi", "a number"))?;
    }
    if table.has("oram_max_mi") {
        params.oram_max_mi = table
            .get_f64("oram_max_mi")
            .filter(|v| v.is_finite())
            .ok_or_else(|| bad("oram_max_mi", "a number"))?;
    }
    if table.has("secret") {
        params.secret = table
            .get_i64("secret")
            .filter(|v| (0..=1).contains(v))
            .ok_or_else(|| bad("secret", "0 or 1"))? as u32;
    }
    if table.has("requests") {
        params.requests = table
            .get_i64("requests")
            .filter(|v| *v >= 0)
            .ok_or_else(|| bad("requests", "a non-negative integer"))?
            as usize;
    }
    if table.has("epc_frames") {
        params.epc_frames = table
            .get_i64("epc_frames")
            .filter(|v| (64..=1 << 20).contains(v))
            .ok_or_else(|| bad("epc_frames", "an integer in 64..=1048576"))?
            as usize;
    }
    if table.has("residual_max_pct") {
        params.residual_max_pct = table
            .get_f64("residual_max_pct")
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| bad("residual_max_pct", "a non-negative number"))?;
    }
    if table.has("min_alerts") {
        params.min_alerts = table
            .get_i64("min_alerts")
            .filter(|v| *v >= 0)
            .ok_or_else(|| bad("min_alerts", "a non-negative integer"))?
            as u64;
    }
    if table.has("max_false_alerts") {
        params.max_false_alerts = table
            .get_i64("max_false_alerts")
            .filter(|v| *v >= 0)
            .ok_or_else(|| bad("max_false_alerts", "a non-negative integer"))?
            as u64;
    }
    Ok(params)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: &str = r#"
[campaign]
name = "unit-smoke"

[matrix]
policy = ["clusters", "cached-oram"]
workload = ["spell", "kvstore"]
fault_plan = ["quiet", "transient"]
seed = [1, 2]

[[suite]]
kind = "replay"

[[suite]]
kind = "bench"
workload = ["font", "paging"]
baseline = "baselines/bench-v1.json"

[[suite]]
kind = "leakage"
policy = ["baseline"]
workload = ["spell"]
samples = 2
"#;

    #[test]
    fn expansion_is_the_product_of_consumed_axes() {
        let config = CampaignConfig::from_toml(SMOKE).expect("parses");
        assert_eq!(config.suites.len(), 3);
        // replay: 2 policies × 2 workloads × 2 plans × 2 seeds.
        assert_eq!(config.suites[0].cell_count(), 16);
        // bench: 2 workloads.
        assert_eq!(config.suites[1].cell_count(), 2);
        // leakage: 1 policy × 1 workload.
        assert_eq!(config.suites[2].cell_count(), 1);
        let cells = config.expand();
        assert_eq!(cells.len(), 16 + 2 + 1);
    }

    #[test]
    fn duplicate_cells_across_suites_collapse() {
        let config = CampaignConfig::from_toml(
            r#"
[campaign]
name = "dup"
[[suite]]
kind = "bench"
workload = ["font"]
[[suite]]
kind = "bench"
workload = ["font", "paging"]
"#,
        )
        .expect("parses");
        let cells = config.expand();
        assert_eq!(cells.len(), 2, "font is shared, paging unique");
    }

    #[test]
    fn vocabulary_is_validated_per_kind() {
        for (snippet, needle) in [
            (
                "[[suite]]\nkind = \"replay\"\npolicy = [\"baseline\"]",
                "policy",
            ),
            (
                "[[suite]]\nkind = \"bench\"\nworkload = [\"jpeg\"]",
                "workload",
            ),
            (
                "[[suite]]\nkind = \"fleet\"\ntraffic_shape = [\"ddos\"]",
                "traffic_shape",
            ),
            (
                "[[suite]]\nkind = \"fleet\"\nfault_plan = [\"hostile\"]",
                "fault_plan",
            ),
            ("[[suite]]\nkind = \"leakage\"\nsamples = 1", "samples"),
            (
                "[[suite]]\nkind = \"snapshot\"\nfault_plan = [\"replay-forever\"]",
                "fault_plan",
            ),
            (
                "[[suite]]\nkind = \"snapshot\"\nworkload = [\"font\"]",
                "restore matrix",
            ),
            ("[[suite]]\nkind = \"nope\"", "kind"),
        ] {
            let toml = format!("[campaign]\nname = \"v\"\n{snippet}\n");
            let err = CampaignConfig::from_toml(&toml).expect_err(snippet);
            assert!(err.0.contains(needle), "{snippet}: {err}");
        }
    }

    #[test]
    fn suite_axes_inherit_then_override() {
        let config = CampaignConfig::from_toml(SMOKE).expect("parses");
        assert_eq!(config.suites[0].axes.policy.len(), 2, "inherited");
        assert_eq!(config.suites[2].axes.policy, vec!["baseline"], "overridden");
        assert_eq!(
            config.suites[2].axes.workload,
            vec!["spell"],
            "overridden workload"
        );
    }

    #[test]
    fn snapshot_suites_expand_restore_pairs_and_attack_seeds() {
        let config = CampaignConfig::from_toml(
            r#"
[campaign]
name = "snap"
[[suite]]
kind = "snapshot"
policy = ["clusters", "rate-limit"]
workload = ["spell", "kvstore"]
fault_plan = ["quiet", "stale", "fork"]
seed = [1, 2, 3]
"#,
        )
        .expect("parses");
        // 2 × 2 restore pairs, then 2 attacks × 3 seeds: an attack
        // ignores the policy and workload axes.
        assert_eq!(config.suites[0].cell_count(), 4 + 6);
        let cells = config.expand();
        assert_eq!(cells.len(), 4 + 6);
        assert!(cells[4..].iter().all(|c| c.policy.is_none()));
    }
}
