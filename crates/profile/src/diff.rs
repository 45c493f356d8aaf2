//! Differential profiles: frame-by-frame comparison of two profiles,
//! for the `profile-diff` CLI and for regression digging ("where did
//! the policy change spend its extra cycles?").

use std::collections::BTreeMap;

use crate::profile::CycleProfile;

/// Frame-level comparison of two profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDiff {
    /// Name (`policy/workload`) of profile A.
    pub a_name: String,
    /// Name of profile B.
    pub b_name: String,
    /// Total attributed cycles in A's tree.
    pub a_total: u64,
    /// Total attributed cycles in B's tree.
    pub b_total: u64,
    /// Per-stack `(a_cycles, b_cycles)` over the union of both frame
    /// sets, keyed by the root-stripped stack.
    pub frames: BTreeMap<String, (u64, u64)>,
}

impl ProfileDiff {
    /// Compare two profiles frame-by-frame. Stacks are compared with
    /// the workload root segment stripped, so `clusters/spell` vs
    /// `single/spell` line up frame-for-frame.
    pub fn between(a: &CycleProfile, b: &CycleProfile) -> ProfileDiff {
        let mut frames: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        let strip = |stack: &str| -> String {
            stack
                .split_once(';')
                .map(|(_, r)| r.to_owned())
                .unwrap_or_default()
        };
        for (stack, cycles) in a.root.frames(&a.workload) {
            frames.entry(strip(&stack)).or_default().0 += cycles;
        }
        for (stack, cycles) in b.root.frames(&b.workload) {
            frames.entry(strip(&stack)).or_default().1 += cycles;
        }
        frames.remove("");
        ProfileDiff {
            a_name: a.name(),
            b_name: b.name(),
            a_total: a.root.total(),
            b_total: b.root.total(),
            frames,
        }
    }

    /// Whether every frame carries identical cycles on both sides.
    pub fn is_empty(&self) -> bool {
        self.frames.values().all(|&(a, b)| a == b)
    }

    /// The `n` frames with the largest absolute cycle delta, descending;
    /// ties break by stack name so output is deterministic.
    pub fn top_deltas(&self, n: usize) -> Vec<(String, u64, u64)> {
        let mut rows: Vec<(String, u64, u64)> = self
            .frames
            .iter()
            .filter(|(_, &(a, b))| a != b)
            .map(|(stack, &(a, b))| (stack.clone(), a, b))
            .collect();
        rows.sort_by(|x, y| {
            let dx = x.1.abs_diff(x.2);
            let dy = y.1.abs_diff(y.2);
            dy.cmp(&dx).then(x.0.cmp(&y.0))
        });
        rows.truncate(n);
        rows
    }

    /// Human-readable digest: totals line plus the top deltas.
    pub fn render_text(&self, n: usize) -> String {
        let mut out = format!(
            "{} ({} cycles) vs {} ({} cycles)\n",
            self.a_name, self.a_total, self.b_name, self.b_total
        );
        let top = self.top_deltas(n);
        if top.is_empty() {
            out.push_str("(no differences)\n");
            return out;
        }
        for (stack, a, b) in top {
            let delta = b as i128 - a as i128;
            out.push_str(&format!("{delta:+12}  {a:>12} -> {b:<12}  {stack}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::ProfileNode;
    use autarky_telemetry::LatencySummary;

    fn profile(policy: &str, hot: u64, oram: u64) -> CycleProfile {
        let mut root = ProfileNode::new();
        root.add(&["fault_round_trip", "runtime"], hot);
        root.add(&["oram_access", "oram"], oram);
        CycleProfile {
            workload: "spell".into(),
            policy: policy.into(),
            scale: 1,
            ops: 10,
            total_cycles: hot + oram,
            residual_cycles: 0,
            orphan_cycles: 0,
            journal_dropped: 0,
            flight_dropped: 0,
            faults: 1,
            fault_latency: LatencySummary {
                count: 1,
                p50: hot,
                p99: hot,
                p999: hot,
                mean: hot as f64,
            },
            tags: vec![],
            clusters: vec![],
            root,
        }
    }

    #[test]
    fn self_diff_is_empty() {
        let p = profile("clusters", 700, 300);
        let diff = ProfileDiff::between(&p, &p);
        assert!(diff.is_empty());
        assert!(diff.top_deltas(10).is_empty());
        assert!(diff.render_text(10).contains("(no differences)"));
    }

    #[test]
    fn deltas_rank_by_magnitude() {
        let a = profile("clusters", 700, 300);
        let b = profile("single", 900, 250);
        let diff = ProfileDiff::between(&a, &b);
        assert!(!diff.is_empty());
        let top = diff.top_deltas(10);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0], ("fault_round_trip;runtime".into(), 700, 900));
        assert_eq!(top[1], ("oram_access;oram".into(), 300, 250));
        let text = diff.render_text(10);
        assert!(text.contains("clusters/spell"));
        assert!(text.contains("+200"));
        assert!(text.contains("-50"));
    }
}
