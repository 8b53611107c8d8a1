//! In-memory R-tree representation.
//!
//! Nodes live in a flat arena (`Vec<Node>`); leaf point-ids live in a second
//! arena referenced by range, so the whole structure is three allocations
//! regardless of size. The root is always node 0.
//!
//! Levels are *full-tree* levels in the paper's numbering (data pages are
//! level 1, the root of the full index is at level `height`). A complete
//! tree has `leaf_level() == 1`; an **upper tree** (paper §4.2) is an
//! `RTree` whose `leaf_level()` equals `height - h_upper + 1` — its leaves
//! are directory-level cuts that still store the sampled points below them.

use hdidx_core::{Error, HyperRect, Result};
use std::ops::Range;

/// What a node stores below itself.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// Directory node: indices into the node arena.
    Inner {
        /// Arena indices of the children.
        children: Vec<u32>,
    },
    /// Leaf of this (possibly truncated) tree: a range into the entry arena.
    Leaf {
        /// Range of point ids in the entry arena.
        entries: Range<u32>,
    },
}

/// One tree node: its full-tree level, its MBR, and its payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Full-tree level of the node (data pages are 1).
    pub level: u32,
    /// Minimal bounding rectangle of everything below the node.
    pub rect: HyperRect,
    /// Children or data entries.
    pub kind: NodeKind,
}

impl Node {
    /// Whether this node is a leaf of its tree.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf { .. })
    }
}

/// A bulk-loaded R-tree, mini-index, upper tree or lower tree.
///
/// `PartialEq` compares the arenas directly, so equality means the trees
/// are structurally byte-identical (same node order, same entry order) —
/// the contract the parallel bulk loader is tested against.
#[derive(Debug, Clone, PartialEq)]
pub struct RTree {
    dim: usize,
    root_level: usize,
    leaf_level: usize,
    nodes: Vec<Node>,
    entries: Vec<u32>,
}

impl RTree {
    /// Assembles a tree from its arenas. Intended for the bulk loader;
    /// checks the minimal structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InfeasibleTopology`] on an empty node arena, a root
    /// whose level is not `root_level`, or `leaf_level > root_level`.
    pub fn from_arenas(
        dim: usize,
        root_level: usize,
        leaf_level: usize,
        nodes: Vec<Node>,
        entries: Vec<u32>,
    ) -> Result<Self> {
        if nodes.is_empty() {
            return Err(Error::InfeasibleTopology("tree with no nodes".into()));
        }
        if leaf_level == 0 || leaf_level > root_level {
            return Err(Error::InfeasibleTopology(format!(
                "leaf level {leaf_level} incompatible with root level {root_level}"
            )));
        }
        if nodes[0].level as usize != root_level {
            return Err(Error::InfeasibleTopology(format!(
                "root at level {} != declared root level {root_level}",
                nodes[0].level
            )));
        }
        Ok(RTree {
            dim,
            root_level,
            leaf_level,
            nodes,
            entries,
        })
    }

    /// Dimensionality of the indexed points.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Full-tree level of the root.
    #[inline]
    pub fn root_level(&self) -> usize {
        self.root_level
    }

    /// Full-tree level of this tree's leaves (1 for a complete index).
    #[inline]
    pub fn leaf_level(&self) -> usize {
        self.leaf_level
    }

    /// Height of this tree: `root_level - leaf_level + 1`.
    #[inline]
    pub fn height(&self) -> usize {
        self.root_level - self.leaf_level + 1
    }

    /// The node arena; node 0 is the root.
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> &Node {
        &self.nodes[0]
    }

    /// Point ids stored in a leaf node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a leaf.
    pub fn leaf_entries(&self, node: &Node) -> &[u32] {
        match &node.kind {
            NodeKind::Leaf { entries } => {
                &self.entries[entries.start as usize..entries.end as usize]
            }
            NodeKind::Inner { .. } => panic!("leaf_entries called on inner node"),
        }
    }

    /// The full entry arena (point ids in leaf order) — the leaf ranges
    /// in [`NodeKind::Leaf`] index into this slice. Exposed so storage
    /// backends can serialize the tree without walking every leaf.
    #[inline]
    pub fn entries(&self) -> &[u32] {
        &self.entries
    }

    /// Total number of stored point ids.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Iterator over all leaf nodes.
    pub fn leaves(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| n.is_leaf())
    }

    /// MBRs of all leaf pages, cloned into a vector. This is the "page
    /// layout" that the prediction model operates on.
    pub fn leaf_rects(&self) -> Vec<HyperRect> {
        self.leaves().map(|n| n.rect.clone()).collect()
    }

    /// Number of leaf pages.
    pub fn num_leaves(&self) -> usize {
        self.leaves().count()
    }

    /// Number of nodes at each level, index 0 = this tree's leaf level.
    /// Used to verify structural similarity between full and mini indexes.
    pub fn level_profile(&self) -> Vec<usize> {
        let mut profile = vec![0usize; self.height()];
        for n in &self.nodes {
            profile[n.level as usize - self.leaf_level] += 1;
        }
        profile
    }

    /// Nodes at a given full-tree level.
    pub fn nodes_at_level(&self, level: usize) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(move |n| n.level as usize == level)
    }

    /// Consistency check run on every loaded snapshot and by tests: every
    /// rectangle has the tree's dimensionality, every child index names a
    /// node of the arena, every child MBR is contained in its parent's,
    /// every inner node has at least one child, levels decrease by exactly
    /// one, every leaf sits at `leaf_level` and is non-empty, and leaf
    /// entry ranges partition the entry arena. Arenas from an untrusted
    /// source fail here with an error, never a panic.
    pub fn check_invariants(&self) -> Result<()> {
        let bad = |msg: String| Err(Error::InfeasibleTopology(msg));
        if let Some(idx) = self.nodes.iter().position(|n| n.rect.dim() != self.dim) {
            return bad(format!(
                "node {idx} has {} dimensions (tree has {})",
                self.nodes[idx].rect.dim(),
                self.dim
            ));
        }
        let mut ranges = Vec::new();
        for (idx, node) in self.nodes.iter().enumerate() {
            match &node.kind {
                NodeKind::Inner { children } => {
                    if children.is_empty() {
                        return bad(format!("inner node {idx} has no children"));
                    }
                    for &c in children {
                        let Some(child) = self.nodes.get(c as usize) else {
                            return bad(format!(
                                "inner node {idx} names child {c} of {} nodes",
                                self.nodes.len()
                            ));
                        };
                        if node.level.checked_sub(1) != Some(child.level) {
                            return bad(format!(
                                "child {c} at level {} under node {idx} at level {}",
                                child.level, node.level
                            ));
                        }
                        for j in 0..self.dim {
                            if child.rect.lo()[j] < node.rect.lo()[j]
                                || child.rect.hi()[j] > node.rect.hi()[j]
                            {
                                return bad(format!(
                                    "child {c} MBR not contained in parent {idx} (dim {j})"
                                ));
                            }
                        }
                    }
                }
                NodeKind::Leaf { entries } => {
                    if node.level as usize != self.leaf_level {
                        return bad(format!(
                            "leaf node {idx} at level {} (expected {})",
                            node.level, self.leaf_level
                        ));
                    }
                    if entries.start >= entries.end {
                        return bad(format!("leaf node {idx} is empty"));
                    }
                    ranges.push((entries.start as usize, entries.end as usize, idx));
                }
            }
        }
        ranges.sort_unstable();
        let mut covered = 0usize;
        for (start, end, idx) in ranges {
            if start != covered || end > self.entries.len() {
                return bad(format!(
                    "leaf node {idx} holds entries {start}..{end}, expected {covered}.. within {}",
                    self.entries.len()
                ));
            }
            covered = end;
        }
        if covered != self.entries.len() {
            return bad(format!(
                "leaf ranges cover {covered} of {} entries",
                self.entries.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_leaf_tree() -> RTree {
        let leaf_a = Node {
            level: 1,
            rect: HyperRect::new(vec![0.0], vec![1.0]).unwrap(),
            kind: NodeKind::Leaf { entries: 0..2 },
        };
        let leaf_b = Node {
            level: 1,
            rect: HyperRect::new(vec![2.0], vec![3.0]).unwrap(),
            kind: NodeKind::Leaf { entries: 2..4 },
        };
        let root = Node {
            level: 2,
            rect: HyperRect::new(vec![0.0], vec![3.0]).unwrap(),
            kind: NodeKind::Inner {
                children: vec![1, 2],
            },
        };
        RTree::from_arenas(1, 2, 1, vec![root, leaf_a, leaf_b], vec![0, 1, 2, 3]).unwrap()
    }

    #[test]
    fn accessors_and_profile() {
        let t = two_leaf_tree();
        assert_eq!(t.dim(), 1);
        assert_eq!(t.height(), 2);
        assert_eq!(t.root_level(), 2);
        assert_eq!(t.leaf_level(), 1);
        assert_eq!(t.num_leaves(), 2);
        assert_eq!(t.num_entries(), 4);
        assert_eq!(t.level_profile(), vec![2, 1]);
        assert_eq!(t.leaf_rects().len(), 2);
        assert_eq!(t.nodes_at_level(2).count(), 1);
        let leaf = t.nodes_at_level(1).next().unwrap();
        assert_eq!(t.leaf_entries(leaf), &[0, 1]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn upper_tree_levels_are_full_tree_levels() {
        // A height-2 "upper tree" cut out of a height-5 index: root at
        // level 5, leaves at level 4.
        let leaf = Node {
            level: 4,
            rect: HyperRect::point(&[0.0]),
            kind: NodeKind::Leaf { entries: 0..1 },
        };
        let root = Node {
            level: 5,
            rect: HyperRect::point(&[0.0]),
            kind: NodeKind::Inner { children: vec![1] },
        };
        let t = RTree::from_arenas(1, 5, 4, vec![root, leaf], vec![7]).unwrap();
        assert_eq!(t.height(), 2);
        assert_eq!(t.leaf_level(), 4);
        t.check_invariants().unwrap();
    }

    #[test]
    fn from_arenas_validates_shape() {
        let leaf = Node {
            level: 1,
            rect: HyperRect::point(&[0.0]),
            kind: NodeKind::Leaf { entries: 0..1 },
        };
        assert!(RTree::from_arenas(1, 2, 1, vec![leaf.clone()], vec![0]).is_err());
        assert!(RTree::from_arenas(1, 1, 1, vec![], vec![]).is_err());
        assert!(RTree::from_arenas(1, 1, 2, vec![leaf.clone()], vec![0]).is_err());
        assert!(RTree::from_arenas(1, 1, 0, vec![leaf.clone()], vec![0]).is_err());
        assert!(RTree::from_arenas(1, 1, 1, vec![leaf], vec![0]).is_ok());
    }

    #[test]
    fn invariant_check_catches_bad_containment() {
        let mut t = two_leaf_tree();
        t.nodes[0].rect = HyperRect::new(vec![0.0], vec![2.0]).unwrap();
        assert!(t.check_invariants().is_err());
    }

    #[test]
    fn invariant_check_catches_uncovered_entries() {
        let mut t = two_leaf_tree();
        t.entries.push(9);
        assert!(t.check_invariants().is_err());
    }

    #[test]
    fn invariant_check_rejects_out_of_range_arena_indices() {
        // Arenas straight from `from_arenas`, as a snapshot decoder hands
        // them over: an out-of-range child or entry range is an error.
        let t = two_leaf_tree();
        let mut nodes = t.nodes().to_vec();
        nodes[0].kind = NodeKind::Inner {
            children: vec![1, 7],
        };
        let bad_child = RTree::from_arenas(1, 2, 1, nodes, t.entries().to_vec()).unwrap();
        let err = bad_child.check_invariants().unwrap_err();
        assert!(err.to_string().contains("child 7"), "{err}");

        let mut nodes = t.nodes().to_vec();
        nodes[2].kind = NodeKind::Leaf { entries: 2..6 };
        let six = RTree::from_arenas(1, 2, 1, nodes, vec![0, 1, 2, 3, 4, 5]).unwrap();
        assert!(six.check_invariants().is_ok(), "a partition of 6");
        let mut nodes = t.nodes().to_vec();
        nodes[2].kind = NodeKind::Leaf { entries: 3..7 };
        let past_end = RTree::from_arenas(1, 2, 1, nodes, vec![0, 1, 2, 3, 4, 5]).unwrap();
        assert!(past_end.check_invariants().is_err(), "gap and overrun");
        let mut nodes = t.nodes().to_vec();
        nodes[1].kind = NodeKind::Leaf { entries: 0..3 };
        nodes[2].kind = NodeKind::Leaf { entries: 1..2 };
        let overlap = RTree::from_arenas(1, 2, 1, nodes, vec![0, 1, 2, 3]).unwrap();
        assert!(
            overlap.check_invariants().is_err(),
            "overlap with equal total"
        );

        let mut nodes = t.nodes().to_vec();
        nodes[1].rect = HyperRect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        let wide = RTree::from_arenas(1, 2, 1, nodes, t.entries().to_vec()).unwrap();
        assert!(
            wide.check_invariants().is_err(),
            "rect of another dimensionality"
        );
    }

    #[test]
    #[should_panic(expected = "leaf_entries called on inner node")]
    fn leaf_entries_panics_on_inner() {
        let t = two_leaf_tree();
        let root = t.root().clone();
        let _ = t.leaf_entries(&root);
    }
}
