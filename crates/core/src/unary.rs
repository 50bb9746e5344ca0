//! The parallel unary decision-tree architecture (paper §III-A).
//!
//! With inputs delivered as unary digits, every comparison `I ≥ C` of a
//! bespoke decision tree is just the wire `U_C` of input `I`'s ADC — so the
//! whole tree collapses to, per class label, a two-level AND–OR over unary
//! literals (Fig. 2 of the paper). [`UnaryClassifier`] performs that
//! transformation: it extracts the distinct `(feature, tap)` literals, one
//! sum-of-products per class from the root-to-leaf paths, applies safe
//! two-level simplification, and can lower itself to a gate-level netlist
//! and a [`BespokeAdcBank`].
//!
//! ```
//! use printed_codesign::unary::UnaryClassifier;
//! use printed_dtree::{DecisionTree, Node};
//!
//! let tree = DecisionTree::from_nodes(4, 2, 2, vec![
//!     Node::Split { feature: 0, threshold: 9, lo: 1, hi: 2 },
//!     Node::Leaf { class: 0 },
//!     Node::Leaf { class: 1 },
//! ])?;
//! let unary = UnaryClassifier::from_tree(&tree);
//! assert_eq!(unary.literals(), &[(0, 9)]);       // one retained comparator
//! assert_eq!(unary.predict(&[12, 0]), Some(1));  // U_9 of input 0 is high
//! # Ok::<(), printed_dtree::TreeError>(())
//! ```

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use printed_adc::BespokeAdcBank;
use printed_datasets::QuantizedDataset;
use printed_dtree::DecisionTree;
use printed_logic::netlist::Netlist;
use printed_logic::sim::FaultSim;
use printed_logic::sop::{Cube, Sop};

use crate::score::{Columns, Scorer};

/// A decision tree re-expressed as per-class two-level logic over unary
/// literals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnaryClassifier {
    bits: u32,
    n_features: usize,
    /// Variable order: variable `v` is the unary digit `U_tap` of
    /// `feature`, i.e. the wire `sample[feature] ≥ tap`.
    literals: Vec<(usize, u8)>,
    /// One cover per class, over the variables above.
    class_sops: Vec<Sop>,
    /// Root-to-leaf paths in tree order: `(literals-in-path-order, class)`.
    /// Kept alongside the covers because the physical netlist shares the
    /// AND of common path prefixes (as in the paper's Fig. 2b), which the
    /// variable-sorted covers cannot express.
    paths: Vec<(Vec<(usize, bool)>, usize)>,
}

impl UnaryClassifier {
    /// Transforms a trained tree into the unary architecture.
    ///
    /// Every distinct `(feature, threshold)` pair becomes one variable (=
    /// one retained ADC comparator); every root-to-leaf path becomes a cube
    /// of its class's cover. Covers are simplified with the
    /// equivalence-preserving rules of `printed-logic` (absorption,
    /// adjacent-cube merging), which is what turns sibling leaves of the
    /// same class back into shorter products.
    pub fn from_tree(tree: &DecisionTree) -> Self {
        let timer = printed_telemetry::KernelTimer::start(printed_telemetry::Kernel::ThermoEncode);
        let literal_set: BTreeSet<(usize, u8)> = tree.distinct_pairs();
        let literals: Vec<(usize, u8)> = literal_set.into_iter().collect();
        let var_of = |feature: usize, tap: u8| -> usize {
            literals
                .binary_search(&(feature, tap))
                .expect("every path condition is a distinct pair")
        };

        let mut class_cubes: Vec<Vec<Cube>> = vec![Vec::new(); tree.n_classes()];
        let mut paths = Vec::new();
        for path in tree.paths() {
            let lits: Vec<(usize, bool)> = path
                .conditions
                .iter()
                .map(|&(f, th, pol)| (var_of(f, th), pol))
                .collect();
            // A path testing the same pair with both outcomes is
            // unreachable (its cube is constant false): drop it. Trained
            // trees never produce these, but hand-built or randomly
            // generated trees can.
            let Some(cube) = Cube::try_from_literals(&lits) else {
                continue;
            };
            class_cubes[path.class].push(cube);
            paths.push((lits, path.class));
        }
        let class_sops = class_cubes
            .into_iter()
            .map(|cubes| Sop::from_cubes(literals.len(), cubes).simplified())
            .collect();
        timer.finish(paths.len() as u64);
        Self {
            bits: tree.bits(),
            n_features: tree.n_features(),
            literals,
            class_sops,
            paths,
        }
    }

    /// Input precision in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Feature-space dimensionality.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.class_sops.len()
    }

    /// The distinct `(feature, tap)` literals, ascending — one retained
    /// ADC comparator each.
    pub fn literals(&self) -> &[(usize, u8)] {
        &self.literals
    }

    /// The two-level cover of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn class_sop(&self, class: usize) -> &Sop {
        &self.class_sops[class]
    }

    /// All class covers, indexed by class label (what the static-analysis
    /// passes consume).
    pub fn class_sops(&self) -> &[Sop] {
        &self.class_sops
    }

    /// Total AND-term count across classes (a two-level size metric).
    pub fn term_count(&self) -> usize {
        self.class_sops.iter().map(|s| s.cubes().len()).sum()
    }

    /// Evaluates the unary literals for a quantized sample.
    fn assignment(&self, sample: &[u8]) -> Vec<bool> {
        self.literals
            .iter()
            .map(|&(f, tap)| sample[f] >= tap)
            .collect()
    }

    /// Predicts by evaluating the per-class covers. Returns `None` if the
    /// one-hot invariant is violated (impossible for classifiers built by
    /// [`UnaryClassifier::from_tree`]; meaningful when experimenting with
    /// hand-edited covers).
    ///
    /// # Panics
    ///
    /// Panics if `sample.len() < self.n_features()`.
    pub fn predict(&self, sample: &[u8]) -> Option<usize> {
        assert!(sample.len() >= self.n_features, "sample too short");
        let assignment = self.assignment(sample);
        let mut hit = None;
        for (class, sop) in self.class_sops.iter().enumerate() {
            if sop.eval(&assignment) {
                if hit.is_some() {
                    return None; // two classes asserted
                }
                hit = Some(class);
            }
        }
        hit
    }

    /// The bespoke ADC bank this classifier needs: one comparator per
    /// literal.
    ///
    /// # Panics
    ///
    /// Panics if a literal's tap is invalid — impossible for classifiers
    /// built from validated trees.
    pub fn adc_bank(&self) -> BespokeAdcBank {
        let mut bank = BespokeAdcBank::new(self.bits);
        for &(feature, tap) in &self.literals {
            bank.require(feature, tap as usize)
                .expect("tree thresholds are valid taps");
        }
        bank
    }

    /// Lowers the classifier to the paper's physical netlist (Fig. 2b):
    /// per path a left-deep AND chain *in path order*, so sibling paths
    /// share the AND of their common prefix (structural hashing makes the
    /// sharing automatic), then one OR per class over its leaf signals.
    ///
    /// Inputs: one signal per unary literal, in [`UnaryClassifier::literals`]
    /// order, named `u{feature}_{tap}` — these are wires straight from the
    /// bespoke ADC comparators. Outputs: one one-hot signal per class.
    pub fn to_netlist(&self) -> Netlist {
        let timer = printed_telemetry::KernelTimer::start(printed_telemetry::Kernel::NetlistSynth);
        let (mut nl, vars) = self.literal_netlist("unary");
        let mut class_terms: Vec<Vec<printed_logic::Signal>> =
            vec![Vec::new(); self.class_sops.len()];
        for (lits, class) in &self.paths {
            let mut acc = printed_logic::Signal::Const(true);
            for &(var, pol) in lits {
                let lit = if pol {
                    vars[var]
                } else {
                    nl.gate(printed_pdk::CellKind::Inv, &[vars[var]])
                };
                acc = nl.gate(printed_pdk::CellKind::And2, &[acc, lit]);
            }
            class_terms[*class].push(acc);
        }
        for (class, terms) in class_terms.into_iter().enumerate() {
            let out = printed_logic::blocks::or_tree(&mut nl, &terms);
            nl.output(format!("class{class}"), out);
        }
        nl.prune();
        timer.finish(nl.gate_count() as u64);
        nl
    }

    /// A netlist named `{prefix}-{n}lit` whose inputs are the literals in
    /// order, named `u{feature}_{tap}`.
    fn literal_netlist(&self, prefix: &str) -> (Netlist, Vec<printed_logic::Signal>) {
        let mut nl = Netlist::new(format!("{prefix}-{}lit", self.literals.len()));
        let vars = self
            .literals
            .iter()
            .map(|&(f, tap)| nl.input(format!("u{f}_{tap}")))
            .collect();
        (nl, vars)
    }

    /// Lowers one cover per class output, AND–OR or NAND–NAND.
    fn lower_covers(&self, prefix: &str, covers: &[Sop], nand_nand: bool) -> Netlist {
        let (mut nl, vars) = self.literal_netlist(prefix);
        for (class, sop) in covers.iter().enumerate() {
            let out = if nand_nand {
                sop.lower_nand_nand(&mut nl, &vars)
            } else {
                sop.lower(&mut nl, &vars)
            };
            nl.output(format!("class{class}"), out);
        }
        nl.prune();
        nl
    }

    /// Lowers the classifier to pure two-level logic (one AND tree per
    /// simplified cube, one OR per class) with no cross-cube sharing — the
    /// textbook AND–OR form, kept as an ablation target against
    /// [`UnaryClassifier::to_netlist`]'s prefix-shared structure.
    pub fn to_two_level_netlist(&self) -> Netlist {
        self.lower_covers("unary2l", &self.class_sops, false)
    }

    /// Lowers the classifier in NAND–NAND form — the inverting-stage-native
    /// mapping for resistive-load printed logic (see
    /// [`printed_logic::sop::Sop::lower_nand_nand`]). Same function as
    /// [`UnaryClassifier::to_two_level_netlist`], usually cheaper.
    pub fn to_nand_nand_netlist(&self) -> Netlist {
        self.lower_covers("unarynn", &self.class_sops, true)
    }

    /// Encodes a quantized sample as the netlist input assignment (the
    /// unary digits the ADC bank would produce).
    pub fn encode_sample(&self, sample: &[u8]) -> Vec<bool> {
        self.assignment(sample)
    }

    /// True when a raw literal assignment is *thermometer-consistent*: for
    /// any two literals of the same feature, the higher tap being 1 implies
    /// the lower tap is 1. Assignments violating this can never appear at
    /// the ADC outputs, so they are structural don't-cares for logic
    /// minimization.
    pub fn is_feasible_assignment(&self, assignment: &[bool]) -> bool {
        assert_eq!(
            assignment.len(),
            self.literals.len(),
            "one value per literal"
        );
        for i in 1..self.literals.len() {
            let (f_prev, _) = self.literals[i - 1];
            let (f, _) = self.literals[i];
            // Literals are sorted by (feature, tap): within a feature run,
            // taps ascend, so each digit must imply its predecessor.
            if f == f_prev && assignment[i] && !assignment[i - 1] {
                return false;
            }
        }
        true
    }

    /// Exactly minimizes every class cover with Quine–McCluskey, using the
    /// thermometer-infeasible assignments as don't-cares — an optimization
    /// beyond the paper's two-level form that is only available *because*
    /// the inputs are unary.
    ///
    /// Returns `None` when the classifier has more than `max_literals`
    /// variables (QM enumerates the full assignment space).
    pub fn minimized_covers(&self, max_literals: usize) -> Option<Vec<Sop>> {
        let n = self.literals.len();
        if n > max_literals || n > 16 {
            return None;
        }
        if n == 0 {
            return Some(self.class_sops.clone());
        }
        // The 2^n sweep runs the path netlist on the tape: input `i` of
        // counting pattern `m` is bit `i` of minterm `m`.
        let count = 1usize << n;
        let words: Vec<u64> = (0..n)
            .flat_map(|i| {
                (0..count.div_ceil(64)).map(move |w| {
                    (0..64).fold(0, |word, bit| {
                        word | ((((64 * w + bit) >> i) & 1) as u64) << bit
                    })
                })
            })
            .collect();
        let sim = FaultSim::from_words(&self.to_netlist(), count, &words);
        // `adj` marks literals sharing a feature with their predecessor
        // (literals are sorted by (feature, tap), so a feature's taps form
        // one ascending run). Thermometer-infeasible ⇔ some marked literal
        // is 1 while its predecessor is 0: `(m & adj) & !(m << 1) != 0` —
        // the mask form of [`UnaryClassifier::is_feasible_assignment`].
        let mut adj = 0u64;
        for i in 1..n {
            if self.literals[i].0 == self.literals[i - 1].0 {
                adj |= 1u64 << i;
            }
        }
        let mut onsets: Vec<Vec<u32>> = vec![Vec::new(); self.class_sops.len()];
        let mut dc: Vec<u32> = Vec::new();
        for m in 0..count {
            let w = m as u64;
            if (w & adj) & !(w << 1) != 0 {
                dc.push(m as u32);
                continue;
            }
            for (class, onset) in onsets.iter_mut().enumerate() {
                if (sim.output(class)[m / 64] >> (m % 64)) & 1 == 1 {
                    onset.push(m as u32);
                }
            }
        }
        Some(
            onsets
                .iter()
                .map(|onset| printed_logic::qm::minimize(n, onset, &dc))
                .collect(),
        )
    }

    /// The classifier's path netlist, ready to score splits on the
    /// bit-sliced tape.
    pub fn packed(&self) -> PackedClassifier {
        PackedClassifier {
            n_features: self.n_features,
            literals: self.literals.clone(),
            netlist: self.to_netlist(),
        }
    }

    /// Lowers the QM-minimized covers (see
    /// [`UnaryClassifier::minimized_covers`]) to a netlist. Returns `None`
    /// when the classifier exceeds `max_literals`.
    ///
    /// Note: because minimization exploits don't-cares, the outputs are
    /// only guaranteed to match [`UnaryClassifier::predict`] on *feasible*
    /// (thermometer-consistent) inputs — which is every input a physical
    /// ADC bank can produce.
    pub fn to_minimized_netlist(&self, max_literals: usize) -> Option<Netlist> {
        let covers = self.minimized_covers(max_literals)?;
        Some(self.lower_covers("unaryqm", &covers, true))
    }
}

/// A [`UnaryClassifier`]'s path netlist ([`UnaryClassifier::to_netlist`])
/// for scoring on the bit-sliced tape, 64 samples per word.
///
/// Exact: a sample counts as correct when exactly its label's class line
/// is asserted, so for classifiers built from a tree
/// [`accuracy`](Self::accuracy) equals `tree.accuracy(data)` bit for bit
/// (pinned by tests).
#[derive(Debug, Clone, PartialEq)]
pub struct PackedClassifier {
    n_features: usize,
    literals: Vec<(usize, u8)>,
    netlist: Netlist,
}

impl PackedClassifier {
    /// Fraction of `data` classified correctly (zero or two asserted
    /// class lines count as wrong). For tree-derived classifiers this
    /// equals `tree.accuracy(data)` exactly.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or narrower than the feature space.
    pub fn accuracy(&self, data: &QuantizedDataset) -> f64 {
        let data = Columns::new(data.iter(), data.n_features());
        data.check(self.n_features);
        let mut scorer = Scorer::new(&self.literals, &self.netlist);
        scorer.load_quantized(&data);
        scorer.accuracy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use printed_datasets::Benchmark;
    use printed_dtree::cart::{train, train_depth_selected, CartConfig};
    use printed_dtree::Node;

    fn fig2_tree() -> DecisionTree {
        // Three features, three classes, nested splits — the shape of the
        // paper's Fig. 2 example.
        DecisionTree::from_nodes(
            4,
            5,
            3,
            vec![
                Node::Split {
                    feature: 1,
                    threshold: 3,
                    lo: 1,
                    hi: 4,
                },
                Node::Split {
                    feature: 4,
                    threshold: 2,
                    lo: 2,
                    hi: 3,
                },
                Node::Leaf { class: 0 },
                Node::Leaf { class: 1 },
                Node::Split {
                    feature: 2,
                    threshold: 6,
                    lo: 5,
                    hi: 6,
                },
                Node::Leaf { class: 2 },
                Node::Leaf { class: 0 },
            ],
        )
        .unwrap()
    }

    #[test]
    fn literals_are_distinct_pairs() {
        let u = UnaryClassifier::from_tree(&fig2_tree());
        assert_eq!(u.literals(), &[(1, 3), (2, 6), (4, 2)]);
    }

    #[test]
    fn prediction_matches_tree_exhaustively() {
        let tree = fig2_tree();
        let u = UnaryClassifier::from_tree(&tree);
        for a in (0..16u8).step_by(3) {
            for b in 0..16u8 {
                for c in (0..16u8).step_by(2) {
                    for e in 0..8u8 {
                        let sample = [a, b, c, 0, e];
                        assert_eq!(u.predict(&sample), Some(tree.predict(&sample)));
                    }
                }
            }
        }
    }

    #[test]
    fn netlist_matches_tree_on_benchmark() {
        let (train_data, test_data) = Benchmark::Vertebral3C.load_quantized(4).unwrap();
        let model = train_depth_selected(&train_data, &test_data, 6);
        let u = UnaryClassifier::from_tree(&model.tree);
        let nl = u.to_netlist();
        for (sample, _) in test_data.iter() {
            let outs = nl.eval(&u.encode_sample(sample));
            let hot: Vec<usize> = outs
                .iter()
                .enumerate()
                .filter(|(_, &o)| o)
                .map(|(c, _)| c)
                .collect();
            assert_eq!(hot.len(), 1, "one-hot violated for {sample:?}");
            assert_eq!(hot[0], model.tree.predict(sample));
        }
    }

    #[test]
    fn one_hot_invariant_over_random_inputs() {
        let (train_data, _) = Benchmark::Cardio.load_quantized(4).unwrap();
        let tree = train(&train_data, &CartConfig::with_max_depth(5));
        let u = UnaryClassifier::from_tree(&tree);
        // Pseudo-random probing of the input space.
        let mut state = 0x9e3779b9u32;
        for _ in 0..500 {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            let sample: Vec<u8> = (0..train_data.n_features())
                .map(|f| ((state >> (f % 4)) & 15) as u8)
                .collect();
            assert!(u.predict(&sample).is_some());
        }
    }

    #[test]
    fn simplification_shrinks_sibling_leaves() {
        // A tree whose two deepest leaves share a class: x0≥8 ? (x1≥4 ? A : A) : B
        // collapses the x1 test out of class A's cover.
        let tree = DecisionTree::from_nodes(
            4,
            2,
            2,
            vec![
                Node::Split {
                    feature: 0,
                    threshold: 8,
                    lo: 1,
                    hi: 2,
                },
                Node::Leaf { class: 1 },
                Node::Split {
                    feature: 1,
                    threshold: 4,
                    lo: 3,
                    hi: 4,
                },
                Node::Leaf { class: 0 },
                Node::Leaf { class: 0 },
            ],
        )
        .unwrap();
        let u = UnaryClassifier::from_tree(&tree);
        // Class 0's cover must be the single literal (0,8).
        assert_eq!(u.class_sop(0).cubes().len(), 1);
        assert_eq!(u.class_sop(0).literal_count(), 1);
    }

    #[test]
    fn all_three_netlist_styles_agree_with_the_tree() {
        let (train_data, test_data) = Benchmark::Seeds.load_quantized(4).unwrap();
        let model = train_depth_selected(&train_data, &test_data, 5);
        let u = UnaryClassifier::from_tree(&model.tree);
        for netlist in [
            u.to_netlist(),
            u.to_two_level_netlist(),
            u.to_nand_nand_netlist(),
        ] {
            for (sample, _) in test_data.iter() {
                let outs = netlist.eval(&u.encode_sample(sample));
                let hot: Vec<usize> = outs
                    .iter()
                    .enumerate()
                    .filter(|(_, &o)| o)
                    .map(|(c, _)| c)
                    .collect();
                assert_eq!(hot, vec![model.tree.predict(sample)], "{}", netlist.name());
            }
        }
    }

    #[test]
    fn nand_nand_is_cheapest_two_level_style() {
        use printed_logic::report::{analyze, AnalysisConfig};
        use printed_pdk::CellLibrary;
        let (train_data, test_data) = Benchmark::Vertebral3C.load_quantized(4).unwrap();
        let model = train_depth_selected(&train_data, &test_data, 6);
        let u = UnaryClassifier::from_tree(&model.tree);
        let lib = CellLibrary::egfet();
        let cfg = AnalysisConfig::printed_20hz();
        let two = analyze(&u.to_two_level_netlist(), &lib, &cfg);
        let nand = analyze(&u.to_nand_nand_netlist(), &lib, &cfg);
        assert!(
            nand.static_power <= two.static_power,
            "NAND-NAND {} vs AND-OR {}",
            nand.static_power,
            two.static_power
        );
    }

    #[test]
    fn adc_bank_mirrors_literals() {
        let u = UnaryClassifier::from_tree(&fig2_tree());
        let bank = u.adc_bank();
        assert_eq!(bank.comparator_count(), 3);
        assert_eq!(bank.taps_of(1), vec![3]);
        assert_eq!(bank.taps_of(2), vec![6]);
        assert_eq!(bank.taps_of(4), vec![2]);
        assert_eq!(bank.input_count(), 3);
    }

    #[test]
    fn constant_tree_has_no_literals() {
        let tree = DecisionTree::constant(4, 3, 2, 1);
        let u = UnaryClassifier::from_tree(&tree);
        assert!(u.literals().is_empty());
        assert_eq!(u.predict(&[0, 0, 0]), Some(1));
        let nl = u.to_netlist();
        assert_eq!(nl.gate_count(), 0);
    }

    #[test]
    fn feasibility_encodes_thermometer_monotonicity() {
        // Two literals on feature 1 (taps 3 and 9) plus one on feature 2.
        let tree = DecisionTree::from_nodes(
            4,
            3,
            2,
            vec![
                Node::Split {
                    feature: 1,
                    threshold: 3,
                    lo: 1,
                    hi: 2,
                },
                Node::Leaf { class: 0 },
                Node::Split {
                    feature: 1,
                    threshold: 9,
                    lo: 3,
                    hi: 4,
                },
                Node::Leaf { class: 0 },
                Node::Split {
                    feature: 2,
                    threshold: 5,
                    lo: 5,
                    hi: 6,
                },
                Node::Leaf { class: 0 },
                Node::Leaf { class: 1 },
            ],
        )
        .unwrap();
        let u = UnaryClassifier::from_tree(&tree);
        assert_eq!(u.literals(), &[(1, 3), (1, 9), (2, 5)]);
        // U_9 high with U_3 low is physically impossible.
        assert!(!u.is_feasible_assignment(&[false, true, false]));
        assert!(u.is_feasible_assignment(&[true, true, true]));
        assert!(u.is_feasible_assignment(&[true, false, true]));
        assert!(u.is_feasible_assignment(&[false, false, true]));
    }

    #[test]
    fn qm_minimized_netlist_matches_on_all_quantized_inputs() {
        let (train_data, test_data) = Benchmark::Vertebral3C.load_quantized(4).unwrap();
        let model = train_depth_selected(&train_data, &test_data, 4);
        let u = UnaryClassifier::from_tree(&model.tree);
        let Some(nl) = u.to_minimized_netlist(10) else {
            // Tree too large for QM on this seed — nothing to check.
            return;
        };
        for (sample, _) in test_data.iter() {
            let outs = nl.eval(&u.encode_sample(sample));
            let hot: Vec<usize> = outs
                .iter()
                .enumerate()
                .filter(|(_, &o)| o)
                .map(|(c, _)| c)
                .collect();
            assert_eq!(hot, vec![model.tree.predict(sample)], "{sample:?}");
        }
    }

    #[test]
    fn qm_minimization_never_increases_literal_cost() {
        let (train_data, test_data) = Benchmark::Seeds.load_quantized(4).unwrap();
        let model = train_depth_selected(&train_data, &test_data, 4);
        let u = UnaryClassifier::from_tree(&model.tree);
        if let Some(covers) = u.minimized_covers(10) {
            for (class, minimized) in covers.iter().enumerate() {
                assert!(
                    minimized.literal_count() <= u.class_sop(class).literal_count(),
                    "class {class}: {} vs {}",
                    minimized.literal_count(),
                    u.class_sop(class).literal_count()
                );
            }
        }
    }

    #[test]
    fn minimized_covers_rejects_oversized_classifiers() {
        let (train_data, _) = Benchmark::Pendigits.load_quantized(4).unwrap();
        let tree = train(&train_data, &CartConfig::with_max_depth(8));
        let u = UnaryClassifier::from_tree(&tree);
        assert!(u.literals().len() > 10);
        assert!(u.minimized_covers(10).is_none());
    }

    #[test]
    fn packed_classifier_matches_unpacked_exhaustively() {
        use printed_datasets::{dequantize_level, Dataset};
        // The exhaustive grid, scored on the tape: labelled with the cover
        // prediction every sample is right; labelled with any other class
        // every sample is wrong.
        let u = UnaryClassifier::from_tree(&fig2_tree());
        let p = u.packed();
        let mut samples = Vec::new();
        for a in (0..16u8).step_by(3) {
            for b in 0..16u8 {
                for c in (0..16u8).step_by(2) {
                    for e in 0..8u8 {
                        samples.push([a, b, c, 0, e]);
                    }
                }
            }
        }
        for shift in 0..u.n_classes() {
            let rows = samples
                .iter()
                .map(|sample| {
                    let class = u.predict(sample).expect("one-hot");
                    let values = sample.iter().map(|&l| dequantize_level(l, 4)).collect();
                    (values, (class + shift) % u.n_classes())
                })
                .collect();
            let grid = Dataset::from_rows("grid", 5, rows).unwrap();
            let data = QuantizedDataset::from_dataset(&grid, 4);
            let expected = if shift == 0 { 1.0 } else { 0.0 };
            assert_eq!(p.accuracy(&data), expected, "labels shifted by {shift}");
        }
    }

    #[test]
    fn packed_accuracy_equals_tree_accuracy_on_benchmarks() {
        // The grid scorer's substitution: packed classifier accuracy must
        // be the very same f64 as the tree's accuracy.
        for bench in [Benchmark::Seeds, Benchmark::Cardio, Benchmark::WhiteWine] {
            let (train_data, test_data) = bench.load_quantized(4).unwrap();
            let tree = train(&train_data, &CartConfig::with_max_depth(6));
            let p = UnaryClassifier::from_tree(&tree).packed();
            assert_eq!(
                p.accuracy(&test_data).to_bits(),
                tree.accuracy(&test_data).to_bits(),
                "{bench}"
            );
        }
    }

    #[test]
    fn term_count_counts_cubes() {
        let u = UnaryClassifier::from_tree(&fig2_tree());
        // 4 leaves, but two class-0 leaves may or may not merge (different
        // support) — just check bounds.
        assert!(u.term_count() >= 3 && u.term_count() <= 4);
    }
}
