//! Deterministic self-contained SVG flamegraphs (icicle layout: root on
//! top, callees below).
//!
//! No timestamps, no randomness, no external assets: frame colors are
//! an FNV-1a hash of the frame name, layout is a pure function of the
//! tree, and child iteration rides `BTreeMap` order — the same profile
//! always renders byte-identical SVG, so CI can diff artifacts.

use std::collections::BTreeMap;

use crate::profile::CycleProfile;
use crate::tree::ProfileNode;

/// Canvas width, pixels.
const WIDTH: f64 = 1200.0;
/// Frame row height, pixels.
const FRAME_H: f64 = 17.0;
/// Top margin for the title rows, pixels.
const TOP: f64 = 40.0;
/// Minimum frame width worth emitting, pixels.
const MIN_W: f64 = 0.2;
/// Minimum frame width that gets a text label, pixels.
const MIN_LABEL_W: f64 = 35.0;
/// Approximate label glyph width at font-size 11, pixels.
const GLYPH_W: f64 = 6.6;

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Warm flamegraph palette keyed by frame name, so the same frame is
/// the same color in every graph.
fn warm_color(name: &str) -> String {
    let h = fnv1a(name);
    let r = 205 + (h % 50) as u32;
    let g = ((h >> 8) % 180) as u32;
    let b = ((h >> 16) % 55) as u32;
    format!("rgb({r},{g},{b})")
}

fn label_for(name: &str, w: f64) -> Option<String> {
    if w < MIN_LABEL_W {
        return None;
    }
    let fit = ((w - 6.0) / GLYPH_W) as usize;
    if name.len() <= fit {
        Some(name.to_owned())
    } else if fit > 2 {
        Some(format!("{}..", &name[..fit - 2]))
    } else {
        None
    }
}

fn frame_svg(out: &mut String, name: &str, tip: &str, x: f64, y: f64, w: f64, color: &str) {
    out.push_str(&format!(
        "<g><title>{}</title><rect x=\"{x:.2}\" y=\"{y:.1}\" width=\"{w:.2}\" \
         height=\"{:.1}\" fill=\"{color}\" rx=\"1\"/>",
        esc(tip),
        FRAME_H - 1.0,
    ));
    if let Some(label) = label_for(name, w) {
        out.push_str(&format!(
            "<text x=\"{:.2}\" y=\"{:.1}\" font-size=\"11\" font-family=\"monospace\" \
             fill=\"#000\">{}</text>",
            x + 3.0,
            y + FRAME_H - 5.0,
            esc(&label)
        ));
    }
    out.push_str("</g>\n");
}

fn svg_open(out: &mut String, title: &str, subtitle: &str, height: f64) {
    out.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{height}\" \
         viewBox=\"0 0 {WIDTH} {height}\">\n"
    ));
    out.push_str(&format!(
        "<rect x=\"0\" y=\"0\" width=\"{WIDTH}\" height=\"{height}\" fill=\"#f8f8f8\"/>\n"
    ));
    out.push_str(&format!(
        "<text x=\"{:.1}\" y=\"17\" text-anchor=\"middle\" font-size=\"14\" \
         font-family=\"monospace\" fill=\"#222\">{}</text>\n",
        WIDTH / 2.0,
        esc(title)
    ));
    out.push_str(&format!(
        "<text x=\"{:.1}\" y=\"33\" text-anchor=\"middle\" font-size=\"11\" \
         font-family=\"monospace\" fill=\"#555\">{}</text>\n",
        WIDTH / 2.0,
        esc(subtitle)
    ));
}

fn render_node(out: &mut String, name: &str, node: &ProfileNode, total: u64, x: f64, depth: usize) {
    let node_total = node.total();
    let w = node_total as f64 / total as f64 * WIDTH;
    if w < MIN_W {
        return;
    }
    let y = TOP + depth as f64 * FRAME_H;
    let tip = format!(
        "{name}: {node_total} cycles ({:.2}%)",
        node_total as f64 * 100.0 / total as f64
    );
    frame_svg(out, name, &tip, x, y, w - 0.5, &warm_color(name));
    // Children pack left-to-right in name order; self cycles occupy the
    // rightmost remainder implicitly (no frame of their own).
    let mut cx = x;
    for (child_name, child) in &node.children {
        render_node(out, child_name, child, total, cx, depth + 1);
        cx += child.total() as f64 / total as f64 * WIDTH;
    }
}

/// Render a profile as a standalone SVG icicle flamegraph. Width is
/// proportional to subtree cycles; the root frame is the workload.
pub fn flamegraph(profile: &CycleProfile) -> String {
    let total = profile.root.total();
    let depth = profile.root.depth();
    let height = TOP + (depth as f64 + 1.0) * FRAME_H + 8.0;
    let mut out = String::new();
    svg_open(
        &mut out,
        &format!("cycle profile: {}", profile.name()),
        &format!(
            "{} ops, {} cycles, {} faults, {:.2}% attributed",
            profile.ops,
            profile.total_cycles,
            profile.faults,
            profile.attributed_pct()
        ),
        height,
    );
    if total > 0 {
        render_node(&mut out, &profile.workload, &profile.root, total, 0.0, 0);
    }
    out.push_str("</svg>\n");
    out
}

/// Union tree for differential rendering: per-node cycles in profile A
/// and profile B.
#[derive(Default)]
struct DiffNode {
    a: u64,
    b: u64,
    children: BTreeMap<String, DiffNode>,
}

impl DiffNode {
    fn add(&mut self, path: &[&str], cycles: u64, side_b: bool) {
        let mut node = self;
        for seg in path {
            node = node.children.entry((*seg).to_owned()).or_default();
        }
        if side_b {
            node.b += cycles;
        } else {
            node.a += cycles;
        }
    }

    fn total_a(&self) -> u64 {
        self.a + self.children.values().map(DiffNode::total_a).sum::<u64>()
    }

    fn total_b(&self) -> u64 {
        self.b + self.children.values().map(DiffNode::total_b).sum::<u64>()
    }

    fn depth(&self) -> usize {
        1 + self
            .children
            .values()
            .map(DiffNode::depth)
            .max()
            .unwrap_or(0)
    }
}

/// Build the union tree over both profiles' frames (root segment
/// stripped — both roots align at the top frame).
fn union_tree(a: &CycleProfile, b: &CycleProfile) -> DiffNode {
    let mut root = DiffNode::default();
    for (side_b, profile) in [(false, a), (true, b)] {
        for (stack, cycles) in profile.root.frames(&profile.workload) {
            let path: Vec<&str> = stack.split(';').skip(1).collect();
            root.add(&path, cycles, side_b);
        }
    }
    root
}

/// Red-shift for growth, blue-shift for shrinkage, white for unchanged;
/// `score` in [-1, 1] is the normalized share delta.
fn diff_color(score: f64) -> String {
    let s = score.clamp(-1.0, 1.0);
    if s >= 0.0 {
        let fade = (255.0 - 195.0 * s) as u32;
        format!("rgb(255,{fade},{fade})")
    } else {
        let fade = (255.0 + 195.0 * s) as u32;
        format!("rgb({fade},{fade},255)")
    }
}

/// Grand totals of the two profiles under diff (`w = a + b` is the
/// width denominator), threaded through the recursive renderer.
#[derive(Clone, Copy)]
struct DiffTotals {
    a: u64,
    b: u64,
    w: u64,
}

fn render_diff_node(
    out: &mut String,
    name: &str,
    node: &DiffNode,
    grand: DiffTotals,
    x: f64,
    depth: usize,
) {
    let ta = node.total_a();
    let tb = node.total_b();
    let w = (ta + tb) as f64 / grand.w as f64 * WIDTH;
    if w < MIN_W {
        return;
    }
    let share_a = if grand.a > 0 {
        ta as f64 / grand.a as f64
    } else {
        0.0
    };
    let share_b = if grand.b > 0 {
        tb as f64 / grand.b as f64
    } else {
        0.0
    };
    // Normalize the share delta by the larger share so a frame that
    // doubled its share saturates regardless of its absolute size.
    let base = share_a.max(share_b);
    let score = if base > 0.0 {
        (share_b - share_a) / base
    } else {
        0.0
    };
    let y = TOP + depth as f64 * FRAME_H;
    let tip = format!(
        "{name}: {ta} -> {tb} cycles ({:.2}% -> {:.2}% of total)",
        share_a * 100.0,
        share_b * 100.0
    );
    frame_svg(out, name, &tip, x, y, w - 0.5, &diff_color(score));
    let mut cx = x;
    for (child_name, child) in &node.children {
        render_diff_node(out, child_name, child, grand, cx, depth + 1);
        cx += (child.total_a() + child.total_b()) as f64 / grand.w as f64 * WIDTH;
    }
}

/// Render a differential flamegraph of two profiles: frame width is the
/// union (A+B) cycles, color encodes the normalized change of the
/// frame's *share* of its profile — red grew from A to B, blue shrank.
pub fn diff_flamegraph(a: &CycleProfile, b: &CycleProfile) -> String {
    let union = union_tree(a, b);
    let grand_a = union.total_a();
    let grand_b = union.total_b();
    let grand_w = grand_a + grand_b;
    let depth = union.depth();
    let height = TOP + (depth as f64 + 1.0) * FRAME_H + 8.0;
    let mut out = String::new();
    svg_open(
        &mut out,
        &format!("differential profile: {} -> {}", a.name(), b.name()),
        &format!(
            "A: {} cycles, B: {} cycles (red = share grew, blue = shrank)",
            grand_a, grand_b
        ),
        height,
    );
    if grand_w > 0 {
        let root_name = format!("{} -> {}", a.workload, b.workload);
        let grand = DiffTotals {
            a: grand_a,
            b: grand_b,
            w: grand_w,
        };
        render_diff_node(&mut out, &root_name, &union, grand, 0.0, 0);
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use autarky_telemetry::LatencySummary;

    fn profile(policy: &str, hot: u64, oram: u64) -> CycleProfile {
        let mut root = ProfileNode::new();
        root.add(&["fault_round_trip", "fault_handler", "runtime"], hot);
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
    fn flamegraph_is_deterministic_and_names_frames() {
        let p = profile("clusters", 700, 300);
        let svg = flamegraph(&p);
        assert_eq!(svg, flamegraph(&p), "same profile, same bytes");
        assert!(svg.starts_with("<svg "));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("fault_round_trip"));
        assert!(svg.contains("fault_handler"));
        assert!(svg.contains("clusters/spell"));
    }

    #[test]
    fn same_frame_keeps_its_color_across_graphs() {
        assert_eq!(warm_color("fault_handler"), warm_color("fault_handler"));
        assert_ne!(warm_color("fault_handler"), warm_color("oram_access"));
    }

    #[test]
    fn diff_colors_growth_red_and_shrinkage_blue() {
        assert_eq!(diff_color(1.0), "rgb(255,60,60)");
        assert_eq!(diff_color(-1.0), "rgb(60,60,255)");
        assert_eq!(diff_color(0.0), "rgb(255,255,255)");
    }

    #[test]
    fn diff_flamegraph_reflects_the_shift() {
        let a = profile("clusters", 700, 300);
        let b = profile("single", 900, 100);
        let svg = diff_flamegraph(&a, &b);
        assert!(svg.contains("clusters/spell"));
        assert!(svg.contains("single/spell"));
        // fault path grew (reddish), oram shrank (bluish); tooltips are
        // XML-escaped, so the arrow reads `-&gt;`.
        assert!(svg.contains("700 -&gt; 900 cycles"));
        assert!(svg.contains("300 -&gt; 100 cycles"));
        assert_eq!(svg, diff_flamegraph(&a, &b));
    }
}
