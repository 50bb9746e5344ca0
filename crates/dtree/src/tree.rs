//! The decision-tree model type.
//!
//! A [`DecisionTree`] is a binary tree of axis-aligned splits over
//! quantized features: every internal node tests `sample[feature] ≥
//! threshold` (the `I ≥ C` form the unary architecture wants) and routes to
//! the `hi` child when true. Trees are immutable after construction and
//! validated up front, so downstream circuit generators can rely on their
//! invariants.
//!
//! ```
//! use printed_dtree::tree::{DecisionTree, Node};
//!
//! // if x0 ≥ 8 then class 1 else class 0
//! let tree = DecisionTree::from_nodes(
//!     4, 1, 2,
//!     vec![
//!         Node::Split { feature: 0, threshold: 8, lo: 1, hi: 2 },
//!         Node::Leaf { class: 0 },
//!         Node::Leaf { class: 1 },
//!     ],
//! )?;
//! assert_eq!(tree.predict(&[3]), 0);
//! assert_eq!(tree.predict(&[9]), 1);
//! assert_eq!(tree.depth(), 1);
//! # Ok::<(), printed_dtree::tree::TreeError>(())
//! ```

use core::fmt;
use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use printed_datasets::QuantizedDataset;

/// One node of a [`DecisionTree`]. Node 0 is always the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Node {
    /// Internal split: `sample[feature] ≥ threshold` routes to `hi`,
    /// otherwise to `lo`.
    Split {
        /// Feature index tested by this node.
        feature: usize,
        /// Quantized threshold level (`1..2^bits`; 0 would be trivially
        /// true).
        threshold: u8,
        /// Child index taken when the test is false.
        lo: usize,
        /// Child index taken when the test is true.
        hi: usize,
    },
    /// Leaf predicting `class`.
    Leaf {
        /// Predicted class.
        class: usize,
    },
}

/// One root-to-leaf path: the conjunction of conditions leading to a class.
///
/// `conditions[i] = (feature, threshold, polarity)` where polarity `true`
/// means `sample[feature] ≥ threshold` and `false` its negation. Paths are
/// what the unary architecture lowers to AND-terms.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Path {
    /// The conjunction of split conditions along the path.
    pub conditions: Vec<(usize, u8, bool)>,
    /// The class at the leaf.
    pub class: usize,
}

/// An immutable, validated decision tree over quantized inputs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionTree {
    bits: u32,
    n_features: usize,
    n_classes: usize,
    nodes: Vec<Node>,
}

impl DecisionTree {
    /// Builds a tree from its node array (node 0 is the root).
    ///
    /// # Errors
    ///
    /// Returns a [`TreeError`] if the array is empty, a child index is out
    /// of range or not strictly greater than its parent (which also rules
    /// out cycles), two nodes share a child, a feature/class/threshold is
    /// out of range, or some node is unreachable from the root.
    pub fn from_nodes(
        bits: u32,
        n_features: usize,
        n_classes: usize,
        nodes: Vec<Node>,
    ) -> Result<Self, TreeError> {
        if nodes.is_empty() {
            return Err(TreeError::Empty);
        }
        if !(1..=8).contains(&bits) {
            return Err(TreeError::BadBits { bits });
        }
        let max_level = (1u16 << bits) as usize;
        let mut referenced = vec![false; nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            match *node {
                Node::Split {
                    feature,
                    threshold,
                    lo,
                    hi,
                } => {
                    if feature >= n_features {
                        return Err(TreeError::BadFeature { node: i, feature });
                    }
                    if threshold == 0 || threshold as usize >= max_level {
                        return Err(TreeError::BadThreshold { node: i, threshold });
                    }
                    for child in [lo, hi] {
                        if child >= nodes.len() {
                            return Err(TreeError::BadChild { node: i, child });
                        }
                        if child <= i {
                            return Err(TreeError::NotTopological { node: i, child });
                        }
                        if referenced[child] {
                            return Err(TreeError::SharedChild { child });
                        }
                        referenced[child] = true;
                    }
                    if lo == hi {
                        return Err(TreeError::SharedChild { child: lo });
                    }
                }
                Node::Leaf { class } => {
                    if class >= n_classes {
                        return Err(TreeError::BadClass { node: i, class });
                    }
                }
            }
        }
        if let Some(orphan) = (1..nodes.len()).find(|&i| !referenced[i]) {
            return Err(TreeError::Unreachable { node: orphan });
        }
        Ok(Self {
            bits,
            n_features,
            n_classes,
            nodes,
        })
    }

    /// A single-leaf tree that always predicts `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class ≥ n_classes` or `bits` is invalid.
    pub fn constant(bits: u32, n_features: usize, n_classes: usize, class: usize) -> Self {
        Self::from_nodes(bits, n_features, n_classes, vec![Node::Leaf { class }])
            .expect("constant tree is valid")
    }

    /// Input precision in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Feature-space dimensionality the tree was trained for.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The node array (node 0 is the root).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Predicts the class of one quantized sample.
    ///
    /// # Panics
    ///
    /// Panics if `sample.len() < self.n_features()`.
    pub fn predict(&self, sample: &[u8]) -> usize {
        assert!(
            sample.len() >= self.n_features,
            "sample has {} features, tree expects {}",
            sample.len(),
            self.n_features
        );
        let mut i = 0;
        loop {
            match self.nodes[i] {
                Node::Split {
                    feature,
                    threshold,
                    lo,
                    hi,
                } => {
                    i = if sample[feature] >= threshold { hi } else { lo };
                }
                Node::Leaf { class } => return class,
            }
        }
    }

    /// Fraction of `data` classified correctly, in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or has fewer features than the tree.
    pub fn accuracy(&self, data: &QuantizedDataset) -> f64 {
        assert!(!data.is_empty(), "cannot score an empty dataset");
        let correct = data
            .iter()
            .filter(|(sample, label)| self.predict(sample) == *label)
            .count();
        correct as f64 / data.len() as f64
    }

    /// Number of split (internal) nodes — the paper's "#Comp." column
    /// counts these for the baseline architecture.
    pub fn split_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Split { .. }))
            .count()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes.len() - self.split_count()
    }

    /// Maximum root-to-leaf depth (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], i: usize) -> usize {
            match nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { lo, hi, .. } => 1 + walk(nodes, lo).max(walk(nodes, hi)),
            }
        }
        walk(&self.nodes, 0)
    }

    /// The distinct `(feature, threshold)` pairs across all splits — each
    /// pair is one retained ADC comparator in the unary architecture.
    pub fn distinct_pairs(&self) -> BTreeSet<(usize, u8)> {
        self.nodes
            .iter()
            .filter_map(|n| match *n {
                Node::Split {
                    feature, threshold, ..
                } => Some((feature, threshold)),
                Node::Leaf { .. } => None,
            })
            .collect()
    }

    /// The features referenced by at least one split, ascending — each one
    /// needs an ADC.
    pub fn used_features(&self) -> Vec<usize> {
        let set: BTreeSet<usize> = self
            .nodes
            .iter()
            .filter_map(|n| match *n {
                Node::Split { feature, .. } => Some(feature),
                Node::Leaf { .. } => None,
            })
            .collect();
        set.into_iter().collect()
    }

    /// The majority training class observed at every node: routes `data`
    /// through the tree and, per node, picks the most frequent label among
    /// the samples reaching it (ties broken toward the smallest class
    /// index, matching the trainer's leaf rule). Returned indexed by node
    /// slot; nodes no sample reaches fall back to class 0.
    ///
    /// This is the per-node annotation [`DecisionTree::truncated`] needs:
    /// for a tree grown on `data`, these majorities equal the classes the
    /// trainer would have placed at each position had growth stopped there.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or has fewer features than the tree.
    pub fn node_majorities(&self, data: &QuantizedDataset) -> Vec<usize> {
        assert!(!data.is_empty(), "cannot annotate from an empty dataset");
        let mut counts = vec![vec![0usize; self.n_classes]; self.nodes.len()];
        for (sample, label) in data.iter() {
            let mut i = 0;
            loop {
                counts[i][label] += 1;
                match self.nodes[i] {
                    Node::Split {
                        feature,
                        threshold,
                        lo,
                        hi,
                    } => i = if sample[feature] >= threshold { hi } else { lo },
                    Node::Leaf { .. } => break,
                }
            }
        }
        counts
            .iter()
            .map(|per_class| {
                per_class
                    .iter()
                    .enumerate()
                    .max_by_key(|&(c, &n)| (n, std::cmp::Reverse(c)))
                    .map(|(c, _)| c)
                    .expect("n_classes >= 1")
            })
            .collect()
    }

    /// The tree truncated to at most `max_depth` levels of splits: splits
    /// at depth `max_depth` and below are replaced by leaves predicting
    /// `majorities[node]` (see [`DecisionTree::node_majorities`]; trainers
    /// can supply the majorities they already computed during growth).
    /// Surviving nodes keep their original relative order. Dropping whole
    /// subtrees preserves both a breadth-first layout (Algorithm 1) and a
    /// depth-first pre-order one (CART), and neither trainer decides a node
    /// from anything below it, so for both the result is *bit-identical* to
    /// growing with the lower cap.
    ///
    /// `max_depth >= self.depth()` returns the tree unchanged;
    /// `max_depth == 0` collapses to a single root-majority leaf.
    ///
    /// # Panics
    ///
    /// Panics if `majorities.len() != self.nodes().len()` or a majority is
    /// out of class range.
    pub fn truncated(&self, max_depth: usize, majorities: &[usize]) -> DecisionTree {
        assert_eq!(
            majorities.len(),
            self.nodes.len(),
            "need one majority class per node"
        );
        // Children always follow their parent (`from_nodes` checks it), so
        // one forward pass settles every node's depth before its children.
        let mut depth: Vec<Option<usize>> = vec![None; self.nodes.len()];
        depth[0] = Some(0);
        let mut slot = vec![usize::MAX; self.nodes.len()];
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for (i, &node) in self.nodes.iter().enumerate() {
            let Some(d) = depth[i] else { continue };
            slot[i] = nodes.len();
            nodes.push(match node {
                Node::Split { lo, hi, .. } if d < max_depth => {
                    depth[lo] = Some(d + 1);
                    depth[hi] = Some(d + 1);
                    node
                }
                Node::Split { .. } => Node::Leaf {
                    class: majorities[i],
                },
                Node::Leaf { .. } => node,
            });
        }
        for node in &mut nodes {
            if let Node::Split { lo, hi, .. } = node {
                (*lo, *hi) = (slot[*lo], slot[*hi]);
            }
        }
        DecisionTree::from_nodes(self.bits, self.n_features, self.n_classes, nodes)
            .expect("truncating a valid tree yields a valid tree")
    }

    /// Every root-to-leaf path with its condition conjunction — the raw
    /// material of the unary two-level logic.
    pub fn paths(&self) -> Vec<Path> {
        type Frame = (usize, Vec<(usize, u8, bool)>);
        let mut out = Vec::with_capacity(self.leaf_count());
        let mut stack: Vec<Frame> = vec![(0, Vec::new())];
        while let Some((i, conditions)) = stack.pop() {
            match self.nodes[i] {
                Node::Leaf { class } => out.push(Path { conditions, class }),
                Node::Split {
                    feature,
                    threshold,
                    lo,
                    hi,
                } => {
                    let mut lo_conditions = conditions.clone();
                    lo_conditions.push((feature, threshold, false));
                    let mut hi_conditions = conditions;
                    hi_conditions.push((feature, threshold, true));
                    stack.push((lo, lo_conditions));
                    stack.push((hi, hi_conditions));
                }
            }
        }
        out
    }
}

impl fmt::Display for DecisionTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn walk(
            nodes: &[Node],
            i: usize,
            indent: usize,
            f: &mut fmt::Formatter<'_>,
        ) -> fmt::Result {
            let pad = "  ".repeat(indent);
            match nodes[i] {
                Node::Leaf { class } => writeln!(f, "{pad}=> class {class}"),
                Node::Split {
                    feature,
                    threshold,
                    lo,
                    hi,
                } => {
                    writeln!(f, "{pad}if I{feature} >= {threshold}:")?;
                    walk(nodes, hi, indent + 1, f)?;
                    writeln!(f, "{pad}else:")?;
                    walk(nodes, lo, indent + 1, f)
                }
            }
        }
        walk(&self.nodes, 0, 0, f)
    }
}

/// Validation errors for [`DecisionTree::from_nodes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeError {
    /// The node array was empty.
    Empty,
    /// Unsupported precision.
    BadBits {
        /// Offending bit width.
        bits: u32,
    },
    /// A split references a feature outside `0..n_features`.
    BadFeature {
        /// Node index.
        node: usize,
        /// Offending feature.
        feature: usize,
    },
    /// A split threshold is 0 (trivially true) or out of range.
    BadThreshold {
        /// Node index.
        node: usize,
        /// Offending threshold.
        threshold: u8,
    },
    /// A leaf class is outside `0..n_classes`.
    BadClass {
        /// Node index.
        node: usize,
        /// Offending class.
        class: usize,
    },
    /// A child index exceeds the node array.
    BadChild {
        /// Node index.
        node: usize,
        /// Offending child index.
        child: usize,
    },
    /// A child index does not increase (breaks the topological layout and
    /// could form a cycle).
    NotTopological {
        /// Node index.
        node: usize,
        /// Offending child index.
        child: usize,
    },
    /// Two parents reference the same child (a DAG, not a tree).
    SharedChild {
        /// The multiply-referenced child.
        child: usize,
    },
    /// A node is unreachable from the root.
    Unreachable {
        /// The orphan node index.
        node: usize,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::Empty => write!(f, "tree has no nodes"),
            TreeError::BadBits { bits } => write!(f, "unsupported precision: {bits} bits"),
            TreeError::BadFeature { node, feature } => {
                write!(f, "node {node} references feature {feature} out of range")
            }
            TreeError::BadThreshold { node, threshold } => {
                write!(f, "node {node} has invalid threshold {threshold}")
            }
            TreeError::BadClass { node, class } => {
                write!(f, "node {node} predicts class {class} out of range")
            }
            TreeError::BadChild { node, child } => {
                write!(f, "node {node} references missing child {child}")
            }
            TreeError::NotTopological { node, child } => {
                write!(f, "node {node} references non-increasing child {child}")
            }
            TreeError::SharedChild { child } => {
                write!(f, "node {child} has multiple parents")
            }
            TreeError::Unreachable { node } => write!(f, "node {node} is unreachable"),
        }
    }
}

impl std::error::Error for TreeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use printed_datasets::{Dataset, QuantizedDataset};

    fn stump() -> DecisionTree {
        DecisionTree::from_nodes(
            4,
            2,
            2,
            vec![
                Node::Split {
                    feature: 1,
                    threshold: 8,
                    lo: 1,
                    hi: 2,
                },
                Node::Leaf { class: 0 },
                Node::Leaf { class: 1 },
            ],
        )
        .unwrap()
    }

    fn two_level() -> DecisionTree {
        // Fig. 2-style: nested splits on two features.
        DecisionTree::from_nodes(
            4,
            3,
            3,
            vec![
                Node::Split {
                    feature: 0,
                    threshold: 4,
                    lo: 1,
                    hi: 2,
                },
                Node::Leaf { class: 0 },
                Node::Split {
                    feature: 2,
                    threshold: 7,
                    lo: 3,
                    hi: 4,
                },
                Node::Leaf { class: 1 },
                Node::Leaf { class: 2 },
            ],
        )
        .unwrap()
    }

    #[test]
    fn predict_routes_on_gte() {
        let t = stump();
        assert_eq!(t.predict(&[0, 8]), 1);
        assert_eq!(t.predict(&[0, 7]), 0);
        assert_eq!(t.predict(&[15, 15]), 1);
    }

    #[test]
    fn structural_queries() {
        let t = two_level();
        assert_eq!(t.depth(), 2);
        assert_eq!(t.split_count(), 2);
        assert_eq!(t.leaf_count(), 3);
        assert_eq!(t.used_features(), vec![0, 2]);
        assert_eq!(
            t.distinct_pairs().into_iter().collect::<Vec<_>>(),
            vec![(0, 4), (2, 7)]
        );
    }

    #[test]
    fn paths_cover_every_leaf_and_agree_with_predict() {
        let t = two_level();
        let paths = t.paths();
        assert_eq!(paths.len(), 3);
        // Every sample satisfies exactly one path, and it is the predicted
        // class's path.
        for x0 in 0..16u8 {
            for x2 in 0..16u8 {
                let sample = [x0, 0, x2];
                let matching: Vec<&Path> = paths
                    .iter()
                    .filter(|p| {
                        p.conditions
                            .iter()
                            .all(|&(f, th, pol)| (sample[f] >= th) == pol)
                    })
                    .collect();
                assert_eq!(matching.len(), 1, "sample {sample:?}");
                assert_eq!(matching[0].class, t.predict(&sample));
            }
        }
    }

    #[test]
    fn accuracy_counts_matches() {
        let ds = Dataset::from_rows(
            "t",
            2,
            vec![
                (vec![0.1, 0.9], 1),
                (vec![0.1, 0.1], 0),
                (vec![0.9, 0.9], 1),
                (vec![0.9, 0.1], 1), // misclassified by the stump
            ],
        )
        .unwrap();
        let q = QuantizedDataset::from_dataset(&ds, 4);
        assert!((stump().accuracy(&q) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn constant_tree() {
        let t = DecisionTree::constant(4, 5, 3, 2);
        assert_eq!(t.predict(&[0, 0, 0, 0, 0]), 2);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.split_count(), 0);
        assert!(t.used_features().is_empty());
    }

    #[test]
    fn display_renders_structure() {
        let s = stump().to_string();
        assert!(s.contains("if I1 >= 8"));
        assert!(s.contains("class 0"));
    }

    #[test]
    fn validation_rejects_malformed_trees() {
        use Node::*;
        let mk = |nodes: Vec<Node>| DecisionTree::from_nodes(4, 2, 2, nodes);
        assert_eq!(mk(vec![]).unwrap_err(), TreeError::Empty);
        assert_eq!(
            mk(vec![Leaf { class: 5 }]).unwrap_err(),
            TreeError::BadClass { node: 0, class: 5 }
        );
        assert_eq!(
            mk(vec![
                Split {
                    feature: 9,
                    threshold: 1,
                    lo: 1,
                    hi: 2
                },
                Leaf { class: 0 },
                Leaf { class: 0 }
            ])
            .unwrap_err(),
            TreeError::BadFeature {
                node: 0,
                feature: 9
            }
        );
        assert_eq!(
            mk(vec![
                Split {
                    feature: 0,
                    threshold: 0,
                    lo: 1,
                    hi: 2
                },
                Leaf { class: 0 },
                Leaf { class: 0 }
            ])
            .unwrap_err(),
            TreeError::BadThreshold {
                node: 0,
                threshold: 0
            }
        );
        assert_eq!(
            mk(vec![
                Split {
                    feature: 0,
                    threshold: 3,
                    lo: 1,
                    hi: 9
                },
                Leaf { class: 0 }
            ])
            .unwrap_err(),
            TreeError::BadChild { node: 0, child: 9 }
        );
        assert_eq!(
            mk(vec![
                Split {
                    feature: 0,
                    threshold: 3,
                    lo: 0,
                    hi: 1
                },
                Leaf { class: 0 }
            ])
            .unwrap_err(),
            TreeError::NotTopological { node: 0, child: 0 }
        );
        assert_eq!(
            mk(vec![
                Split {
                    feature: 0,
                    threshold: 3,
                    lo: 1,
                    hi: 1
                },
                Leaf { class: 0 }
            ])
            .unwrap_err(),
            TreeError::SharedChild { child: 1 }
        );
        assert_eq!(
            mk(vec![Leaf { class: 0 }, Leaf { class: 1 }]).unwrap_err(),
            TreeError::Unreachable { node: 1 }
        );
    }

    #[test]
    #[should_panic(expected = "features")]
    fn predict_rejects_short_sample() {
        two_level().predict(&[1]);
    }
}
