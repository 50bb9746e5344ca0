//! The one evaluator behind every accuracy the flow reports: a
//! candidate's path netlist ([`UnaryClassifier::to_netlist`], the circuit
//! that gets printed) on the bit-sliced tape of [`printed_logic::sim`],
//! fed literal columns. Literal `(f, tap)` of a sample is high when its
//! feature value reaches the literal's threshold: the tap for quantized
//! splits, the effective threshold (perturbed by mismatch trials and droop
//! steps) for analog ones. Every path is one AND of those comparisons, so
//! the count equals a tree walk under the same per-pair thresholds.
//!
//! [`UnaryClassifier::to_netlist`]: crate::unary::UnaryClassifier::to_netlist

use printed_logic::netlist::Netlist;
use printed_logic::sim::FaultSim;

/// A split transposed to feature columns (the layout the literal encoder
/// reads), with its labels.
#[derive(Clone)]
pub(crate) struct Columns<T> {
    features: Vec<Vec<T>>,
    labels: Vec<usize>,
}

impl<T: Copy> Columns<T> {
    /// Transposes `(row, label)` pairs of `n_features` values each.
    pub(crate) fn new<'a>(rows: impl Iterator<Item = (&'a [T], usize)>, n_features: usize) -> Self
    where
        T: 'a,
    {
        let mut split = Self {
            features: vec![Vec::new(); n_features],
            labels: Vec::new(),
        };
        for (row, label) in rows {
            for (column, &value) in split.features.iter_mut().zip(row) {
                column.push(value);
            }
            split.labels.push(label);
        }
        split
    }

    /// Asserts the split can score a tree over `n_features` features.
    pub(crate) fn check(&self, n_features: usize) {
        assert!(!self.labels.is_empty(), "cannot score an empty dataset");
        assert!(
            self.features.len() >= n_features,
            "dataset narrower than the tree"
        );
    }
}

/// A candidate's path netlist on the tape, scoring one loaded split at a
/// time.
pub(crate) struct Scorer {
    literals: Vec<(usize, u8)>,
    /// The tape; faults are injected here.
    pub(crate) sim: FaultSim,
    /// One bit mask per class line marking the samples labelled with it.
    labels: Vec<u64>,
    samples: usize,
    /// Reused buffer for the encoded literal columns.
    inputs: Vec<u64>,
}

impl Scorer {
    /// Compiles `netlist`, whose inputs are `literals` in order.
    pub(crate) fn new(literals: &[(usize, u8)], netlist: &Netlist) -> Self {
        Self {
            literals: literals.to_vec(),
            sim: FaultSim::from_words(netlist, 0, &[]),
            labels: Vec::new(),
            samples: 0,
            inputs: Vec::new(),
        }
    }

    /// The ideal threshold of every literal in normalized-volts space: tap
    /// `c` of a `bits`-bit ladder sits at `c / 2^bits`.
    pub(crate) fn ideal_thresholds(&self, bits: u32) -> Vec<f64> {
        let full = (1u64 << bits) as f64;
        self.literals
            .iter()
            .map(|&(_, tap)| tap as f64 / full)
            .collect()
    }

    /// Loads `split` with literal `v` high where its feature's value is at
    /// least `thresholds[v]`, and evaluates the fault-free circuit.
    ///
    /// # Panics
    ///
    /// Panics if `thresholds` has no entry per literal or `split` lacks a
    /// literal's feature.
    pub(crate) fn load<T: Copy + PartialOrd>(&mut self, split: &Columns<T>, thresholds: &[T]) {
        assert_eq!(
            thresholds.len(),
            self.literals.len(),
            "one threshold per literal"
        );
        self.samples = split.labels.len();
        self.inputs.clear();
        for (&(feature, _), &threshold) in self.literals.iter().zip(thresholds) {
            self.inputs
                .extend(split.features[feature].chunks(64).map(|chunk| {
                    chunk.iter().enumerate().fold(0u64, |word, (i, &value)| {
                        word | (u64::from(value >= threshold) << i)
                    })
                }));
        }
        self.sim.load(self.samples, &self.inputs);
        let words = self.sim.words();
        self.labels.clear();
        self.labels.resize(self.sim.output_count() * words, 0);
        for (p, &label) in split.labels.iter().enumerate() {
            if label < self.sim.output_count() {
                self.labels[label * words + p / 64] |= 1 << (p % 64);
            }
        }
    }

    /// Loads the analog `split` under the ideal thresholds of a `bits`-bit
    /// ladder and scores it: the nominal accuracy.
    pub(crate) fn nominal(&mut self, split: &Columns<f64>, bits: u32) -> f64 {
        self.load(split, &self.ideal_thresholds(bits));
        self.accuracy()
    }

    /// [`load`](Self::load) with every literal compared against its tap.
    pub(crate) fn load_quantized(&mut self, split: &Columns<u8>) {
        let taps: Vec<u8> = self.literals.iter().map(|&(_, tap)| tap).collect();
        self.load(split, &taps);
    }

    /// Fraction of the loaded samples whose outputs, under the injected
    /// fault if any, assert exactly their label's class line:
    /// `decode_one_hot(outputs) == Some(label)`, 64 samples at once.
    pub(crate) fn accuracy(&self) -> f64 {
        let sim = &self.sim;
        let words = sim.words();
        let correct: u32 = (0..words)
            .map(|w| {
                let (mut one, mut two, mut hit) = (0u64, 0u64, 0u64);
                for o in 0..sim.output_count() {
                    let line = sim.output(o)[w];
                    two |= one & line;
                    one |= line;
                    hit |= line & self.labels[o * words + w];
                }
                (hit & one & !two & sim.word_mask(w)).count_ones()
            })
            .sum();
        correct as f64 / self.samples as f64
    }
}
