//! The attribution tree: every journaled cycle lands at exactly one
//! node, and the folded/flamegraph/JSON renderings are pure functions
//! of the tree.
//!
//! Children live in a `BTreeMap`, so iteration order — and therefore
//! every rendering — is deterministic regardless of attribution order.

use std::collections::BTreeMap;

/// One node of the call-path tree. `self_cycles` is what was attributed
/// to exactly this path; descendants hold their own cycles, so the tree
/// partitions the attributed total.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileNode {
    /// Cycles attributed to this path itself (not descendants).
    pub self_cycles: u64,
    /// Child frames by name.
    pub children: BTreeMap<String, ProfileNode>,
}

impl ProfileNode {
    /// An empty node.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `cycles` at `path` below this node, creating frames as
    /// needed. An empty path charges this node's own `self_cycles`.
    pub fn add(&mut self, path: &[&str], cycles: u64) {
        let mut node = self;
        for seg in path {
            node = node.children.entry((*seg).to_owned()).or_default();
        }
        node.self_cycles += cycles;
    }

    /// Total cycles in this subtree.
    pub fn total(&self) -> u64 {
        self.self_cycles + self.children.values().map(ProfileNode::total).sum::<u64>()
    }

    /// Child by frame name.
    pub fn child(&self, name: &str) -> Option<&ProfileNode> {
        self.children.get(name)
    }

    /// Depth of the deepest frame below (and including) this node.
    pub fn depth(&self) -> usize {
        1 + self
            .children
            .values()
            .map(ProfileNode::depth)
            .max()
            .unwrap_or(0)
    }

    /// Flatten into collapsed-stack frames: `(stack, self_cycles)` for
    /// every node with nonzero self cycles, stack segments joined by
    /// `;` under `root_name`. Output is sorted by stack, so it is
    /// byte-deterministic and diff-friendly.
    pub fn frames(&self, root_name: &str) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        self.walk(root_name, &mut out);
        out.sort();
        out
    }

    fn walk(&self, prefix: &str, out: &mut Vec<(String, u64)>) {
        if self.self_cycles > 0 {
            out.push((prefix.to_owned(), self.self_cycles));
        }
        for (name, child) in &self.children {
            child.walk(&format!("{prefix};{name}"), out);
        }
    }

    /// Rebuild a tree from collapsed-stack frames. Every stack must
    /// start with the same root segment, which becomes the returned
    /// `(root_name, tree)`; returns `None` on empty input, mismatched
    /// roots, or cycles that sum past `u64::MAX`.
    pub fn from_frames(frames: &[(String, u64)]) -> Option<(String, ProfileNode)> {
        let mut root_name: Option<&str> = None;
        let mut root = ProfileNode::new();
        let mut sum = 0u64;
        for (stack, cycles) in frames {
            // Every node's own and subtree cycles are at most the sum of
            // all frames, so a sum that fits keeps `add` and `total` exact.
            sum = sum.checked_add(*cycles)?;
            let mut segs = stack.split(';');
            let head = segs.next()?;
            match root_name {
                None => root_name = Some(head),
                Some(existing) if existing != head => return None,
                Some(_) => {}
            }
            let path: Vec<&str> = segs.collect();
            root.add(&path, *cycles);
        }
        Some((root_name?.to_owned(), root))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_total_partition_cycles() {
        let mut root = ProfileNode::new();
        root.add(&["fault_round_trip", "fault_handler", "runtime"], 700);
        root.add(&["fault_round_trip", "fault_handler"], 50);
        root.add(&["oram_access", "oram"], 300);
        root.add(&[], 8);
        assert_eq!(root.total(), 1058);
        let frt = root.child("fault_round_trip").unwrap();
        assert_eq!(frt.total(), 750);
        assert_eq!(frt.child("fault_handler").unwrap().self_cycles, 50);
        assert_eq!(root.depth(), 4);
    }

    #[test]
    fn frames_roundtrip_through_from_frames() {
        let mut root = ProfileNode::new();
        root.add(&["b", "leaf"], 10);
        root.add(&["a"], 5);
        root.add(&[], 1);
        let frames = root.frames("work");
        assert_eq!(
            frames,
            vec![
                ("work".to_owned(), 1),
                ("work;a".to_owned(), 5),
                ("work;b;leaf".to_owned(), 10),
            ]
        );
        let (name, rebuilt) = ProfileNode::from_frames(&frames).unwrap();
        assert_eq!(name, "work");
        assert_eq!(rebuilt, root);
    }

    #[test]
    fn from_frames_rejects_mismatched_roots() {
        let frames = vec![("a;x".to_owned(), 1), ("b;x".to_owned(), 2)];
        assert!(ProfileNode::from_frames(&frames).is_none());
        // One frame's own cycles, and a subtree total, past `u64::MAX`.
        for second in ["a;x", "a;y"] {
            let overflow = vec![("a;x".to_owned(), u64::MAX), (second.to_owned(), 1)];
            assert!(ProfileNode::from_frames(&overflow).is_none(), "{second}");
        }
        assert!(ProfileNode::from_frames(&[]).is_none());
    }
}
