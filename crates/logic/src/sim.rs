//! Bit-sliced netlist simulation with single stuck-at fault injection.
//!
//! A [`Netlist`] is compiled once into a flat tape of slots — the two
//! constants, then the primary inputs, then one slot per gate in netlist
//! (topological) order — and every slot holds one `u64` word per 64
//! stimulus patterns. One pass over the tape therefore evaluates 64
//! patterns per gate operation.
//!
//! [`FaultSim`] keeps the fault-free ("good") words and, once a fault is
//! injected, a working copy. Injecting a stuck-at fault forces the gate's
//! slot to all-0 or all-1 and re-evaluates only the gates after it; gates
//! before the fault cannot depend on it, so they keep their good words.
//! [`FaultSim::load`] feeds the same tape new input words, and
//! [`FaultSim::first_difference`] compares two circuits pattern-wise.
//!
//! ```
//! use printed_logic::faults::StuckAt;
//! use printed_logic::netlist::Netlist;
//! use printed_logic::sim::FaultSim;
//! use printed_pdk::CellKind;
//!
//! let mut nl = Netlist::new("and");
//! let a = nl.input("a");
//! let b = nl.input("b");
//! let y = nl.gate(CellKind::And2, &[a, b]);
//! nl.output("y", y);
//!
//! let patterns = vec![vec![false, false], vec![true, true]];
//! let mut sim = FaultSim::new(&nl, &patterns);
//! assert_eq!(sim.good_output(0)[0], 0b10);
//! sim.inject(StuckAt { gate: 0, value: true });
//! assert_eq!(sim.output(0)[0] & sim.word_mask(0), 0b11);
//! assert_eq!(sim.mismatches(), 1);
//! ```

use printed_pdk::CellKind;

use crate::faults::StuckAt;
use crate::netlist::{Netlist, Signal};

/// Slot of the constant-0 word row.
const CONST0: usize = 0;
/// Slot of the constant-1 word row.
const CONST1: usize = 1;
/// Slot of the first primary input.
const FIRST_INPUT: usize = 2;

/// One gate of the tape: its cell and up to four argument slots. Unused
/// argument positions point at [`CONST0`] and are never read.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: CellKind,
    args: [usize; 4],
}

/// A netlist flattened to slot-addressed operations.
#[derive(Debug)]
struct Tape {
    inputs: usize,
    ops: Vec<Op>,
    outputs: Vec<usize>,
}

impl Tape {
    fn compile(netlist: &Netlist) -> Self {
        let inputs = netlist.input_count();
        let slot = |signal: Signal| match signal {
            Signal::Const(false) => CONST0,
            Signal::Const(true) => CONST1,
            Signal::Input(i) => FIRST_INPUT + i,
            Signal::Gate(g) => FIRST_INPUT + inputs + g,
        };
        let ops = netlist
            .gates()
            .iter()
            .enumerate()
            .map(|(g, gate)| {
                let own = FIRST_INPUT + inputs + g;
                let mut args = [CONST0; 4];
                for (arg, &signal) in args.iter_mut().zip(&gate.inputs) {
                    *arg = slot(signal);
                    assert!(*arg < own, "netlist gate {g} is not in topological order");
                }
                Op {
                    kind: gate.kind,
                    args,
                }
            })
            .collect();
        let outputs = netlist.outputs().iter().map(|&(_, s)| slot(s)).collect();
        Self {
            inputs,
            ops,
            outputs,
        }
    }

    fn gate_slot(&self, gate: usize) -> usize {
        FIRST_INPUT + self.inputs + gate
    }

    fn slots(&self) -> usize {
        self.gate_slot(self.ops.len())
    }

    /// Re-evaluates gates `first..` of slot-major `values` in tape order.
    fn evaluate_from(&self, words: usize, values: &mut [u64], first: usize) {
        for (g, op) in self.ops.iter().enumerate().skip(first) {
            let (before, rest) = values.split_at_mut(self.gate_slot(g) * words);
            let args = op
                .args
                .map(|slot| &before[slot * words..(slot + 1) * words]);
            eval_cell(op.kind, &mut rest[..words], args);
        }
    }
}

/// Applies `f` lane-wise: `out[w] = f(a[w], b[w], c[w], d[w])`.
#[inline(always)]
fn lanes(out: &mut [u64], [a, b, c, d]: [&[u64]; 4], f: impl Fn(u64, u64, u64, u64) -> u64) {
    let n = out.len();
    let (a, b, c, d) = (&a[..n], &b[..n], &c[..n], &d[..n]);
    for w in 0..n {
        out[w] = f(a[w], b[w], c[w], d[w]);
    }
}

/// Evaluates one cell over whole words: the bit-parallel twin of
/// [`CellKind::eval`].
fn eval_cell(kind: CellKind, out: &mut [u64], args: [&[u64]; 4]) {
    use CellKind::*;
    match kind {
        TieLo => out.fill(0),
        TieHi => out.fill(!0),
        Inv => lanes(out, args, |a, _, _, _| !a),
        Buf => lanes(out, args, |a, _, _, _| a),
        Nand2 => lanes(out, args, |a, b, _, _| !(a & b)),
        Nand3 => lanes(out, args, |a, b, c, _| !(a & b & c)),
        Nand4 => lanes(out, args, |a, b, c, d| !(a & b & c & d)),
        Nor2 => lanes(out, args, |a, b, _, _| !(a | b)),
        Nor3 => lanes(out, args, |a, b, c, _| !(a | b | c)),
        Nor4 => lanes(out, args, |a, b, c, d| !(a | b | c | d)),
        And2 => lanes(out, args, |a, b, _, _| a & b),
        And3 => lanes(out, args, |a, b, c, _| a & b & c),
        And4 => lanes(out, args, |a, b, c, d| a & b & c & d),
        Or2 => lanes(out, args, |a, b, _, _| a | b),
        Or3 => lanes(out, args, |a, b, c, _| a | b | c),
        Or4 => lanes(out, args, |a, b, c, d| a | b | c | d),
        Xor2 => lanes(out, args, |a, b, _, _| a ^ b),
        Xnor2 => lanes(out, args, |a, b, _, _| !(a ^ b)),
        Aoi21 => lanes(out, args, |a, b, c, _| !((a & b) | c)),
        Oai21 => lanes(out, args, |a, b, c, _| !((a | b) & c)),
        Mux2 => lanes(out, args, |a, b, s, _| (a & !s) | (b & s)),
    }
}

/// Packs one input vector per pattern into the input words of
/// [`FaultSim::load`]; panics on a pattern without `inputs` values.
pub(crate) fn pack_patterns(patterns: &[Vec<bool>], inputs: usize) -> Vec<u64> {
    let words = patterns.len().div_ceil(64);
    let mut packed = vec![0u64; inputs * words];
    for (p, pattern) in patterns.iter().enumerate() {
        assert_eq!(pattern.len(), inputs, "wrong number of input values");
        for (i, _) in pattern.iter().enumerate().filter(|&(_, &v)| v) {
            packed[i * words + p / 64] |= 1 << (p % 64);
        }
    }
    packed
}

/// A netlist evaluated over a pattern set, 64 patterns per word, with at
/// most one stuck-at fault injected at a time.
///
/// Words are slot-major: slot `s` owns `words * s .. words * (s + 1)`.
/// Bits past the last pattern of the final word are unspecified; mask them
/// with [`word_mask`](Self::word_mask).
#[derive(Debug)]
pub struct FaultSim {
    tape: Tape,
    patterns: usize,
    words: usize,
    good: Vec<u64>,
    /// Working words under the injected fault, copied from the good words
    /// on the first [`inject`](Self::inject).
    values: Vec<u64>,
    /// Lowest gate whose working words may differ from the good circuit's;
    /// `None` while no fault is injected.
    dirty: Option<usize>,
}

impl FaultSim {
    /// Compiles `netlist`, packs `patterns` (one input vector each) and
    /// evaluates the fault-free circuit.
    ///
    /// # Panics
    ///
    /// Panics if a pattern's length does not match the netlist's input
    /// count, or if the netlist's gates are not in topological order.
    pub fn new(netlist: &Netlist, patterns: &[Vec<bool>]) -> Self {
        let packed = pack_patterns(patterns, netlist.input_count());
        Self::from_words(netlist, patterns.len(), &packed)
    }

    /// Compiles `netlist` and [`load`](Self::load)s `patterns` patterns
    /// given as input words; panics as `load` and [`new`](Self::new) do.
    pub fn from_words(netlist: &Netlist, patterns: usize, inputs: &[u64]) -> Self {
        let mut sim = Self {
            tape: Tape::compile(netlist),
            patterns: 0,
            words: 0,
            good: Vec::new(),
            values: Vec::new(),
            dirty: None,
        };
        sim.load(patterns, inputs);
        sim
    }

    /// Replaces the pattern set with `patterns` patterns and evaluates the
    /// fault-free circuit; any injected fault is cleared. `inputs` holds
    /// `ceil(patterns / 64)` words per input, input-major: input `i`'s bit
    /// for pattern `p` is bit `p % 64` of word `i * words + p / 64`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not hold exactly that many words.
    pub fn load(&mut self, patterns: usize, inputs: &[u64]) {
        let words = patterns.div_ceil(64);
        assert_eq!(
            inputs.len(),
            self.tape.inputs * words,
            "wrong number of input words"
        );
        let len = self.tape.slots() * words;
        if self.good.len() != len {
            self.good = vec![0; len];
            self.good[CONST1 * words..FIRST_INPUT * words].fill(!0);
        }
        self.patterns = patterns;
        self.words = words;
        self.good[FIRST_INPUT * words..][..inputs.len()].copy_from_slice(inputs);
        self.tape.evaluate_from(words, &mut self.good, 0);
        self.dirty = None;
    }

    /// Words per slot: `ceil(patterns / 64)`.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Number of netlist outputs.
    pub fn output_count(&self) -> usize {
        self.tape.outputs.len()
    }

    /// The bits of word `w` that hold real patterns: all ones except in a
    /// partly filled final word.
    pub fn word_mask(&self, w: usize) -> u64 {
        let rem = self.patterns - 64 * w;
        if rem >= 64 {
            !0
        } else {
            (1u64 << rem) - 1
        }
    }

    fn slot_words<'v>(&self, values: &'v [u64], slot: usize) -> &'v [u64] {
        &values[slot * self.words..(slot + 1) * self.words]
    }

    /// Output `o`'s words in the fault-free circuit.
    pub fn good_output(&self, o: usize) -> &[u64] {
        self.slot_words(&self.good, self.tape.outputs[o])
    }

    /// Output `o`'s words under the most recently injected fault (the
    /// good words before any injection).
    pub fn output(&self, o: usize) -> &[u64] {
        let values = if self.dirty.is_some() {
            &self.values
        } else {
            &self.good
        };
        self.slot_words(values, self.tape.outputs[o])
    }

    /// Every output's value on pattern `p` in the current state.
    pub fn outputs_at(&self, p: usize) -> Vec<bool> {
        (0..self.output_count())
            .map(|o| (self.output(o)[p / 64] >> (p % 64)) & 1 == 1)
            .collect()
    }

    /// Replaces the injected fault with `fault`: restores the good words
    /// between the two fault sites, forces the faulty gate's slot and
    /// re-evaluates every gate after it.
    ///
    /// # Panics
    ///
    /// Panics if the fault references a gate outside the netlist.
    pub fn inject(&mut self, fault: StuckAt) {
        assert!(
            fault.gate < self.tape.ops.len(),
            "fault on missing gate {}",
            fault.gate
        );
        if self.dirty.is_none() {
            self.values.clone_from(&self.good);
        }
        // Gates from the previous fault site on may hold faulty words;
        // those before the new site are not recomputed, so restore them.
        let words = self.words;
        let first_dirty = self.dirty.unwrap_or(fault.gate).min(fault.gate);
        let restore = self.tape.gate_slot(first_dirty) * words;
        let forced = self.tape.gate_slot(fault.gate) * words;
        self.values[restore..forced].copy_from_slice(&self.good[restore..forced]);
        self.values[forced..forced + words].fill(if fault.value { !0 } else { 0 });
        self.tape
            .evaluate_from(words, &mut self.values, fault.gate + 1);
        self.dirty = Some(fault.gate);
    }

    /// Number of patterns on which any output differs from the good
    /// circuit under the injected fault.
    pub fn mismatches(&self) -> usize {
        (0..self.words)
            .map(|w| {
                let diff = (0..self.output_count()).fold(0, |acc, o| {
                    acc | (self.output(o)[w] ^ self.good_output(o)[w])
                });
                (diff & self.word_mask(w)).count_ones() as usize
            })
            .sum()
    }

    /// The lowest pattern on which any output differs from the same output
    /// of `other`, each in its current state; `None` when they agree on
    /// every pattern. Compares a word (64 patterns) at a time.
    ///
    /// # Panics
    ///
    /// Panics if the two hold different pattern or output counts.
    pub fn first_difference(&self, other: &FaultSim) -> Option<usize> {
        assert_eq!(self.patterns, other.patterns, "different pattern counts");
        assert_eq!(
            self.output_count(),
            other.output_count(),
            "different output counts"
        );
        (0..self.words).find_map(|w| {
            let diff = (0..self.output_count())
                .fold(0, |acc, o| acc | (self.output(o)[w] ^ other.output(o)[w]))
                & self.word_mask(w);
            (diff != 0).then(|| 64 * w + diff.trailing_zeros() as usize)
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::faults::{enumerate_faults, fault_campaign, FaultyNetlist};
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn bits(sim: &FaultSim, words: &[u64]) -> Vec<bool> {
        (0..sim.patterns)
            .map(|p| (words[p / 64] >> (p % 64)) & 1 == 1)
            .collect()
    }

    /// The per-pattern outputs of the simulator's current state.
    fn outputs_per_pattern(sim: &FaultSim) -> Vec<Vec<bool>> {
        let lines: Vec<Vec<bool>> = (0..sim.output_count())
            .map(|o| bits(sim, sim.output(o)))
            .collect();
        (0..sim.patterns)
            .map(|p| lines.iter().map(|line| line[p]).collect())
            .collect()
    }

    /// One random gate: a library cell index and four argument picks.
    pub(crate) type GateSpec = (usize, u16, u16, u16, u16);

    /// Up to 39 random gate specs.
    pub(crate) fn arb_gate_specs() -> impl Strategy<Value = Vec<GateSpec>> {
        let spec = (
            0usize..21,
            any::<u16>(),
            any::<u16>(),
            any::<u16>(),
            any::<u16>(),
        );
        vec(spec, 1..40)
    }

    /// A netlist on `n_inputs` inputs over every library cell, with
    /// constants in the argument pool (they fold, so tie cells reach the
    /// tape as the constant slots); its last three signals are outputs.
    pub(crate) fn random_netlist(n_inputs: usize, specs: &[GateSpec]) -> Netlist {
        let mut nl = Netlist::new("random");
        let mut pool = vec![Signal::Const(false), Signal::Const(true)];
        pool.extend((0..n_inputs).map(|i| nl.input(format!("x{i}"))));
        for &(k, a, b, c, d) in specs {
            let kind = CellKind::ALL[k];
            let args: Vec<Signal> = [a, b, c, d][..kind.inputs()]
                .iter()
                .map(|&r| pool[r as usize % pool.len()])
                .collect();
            let signal = nl.gate(kind, &args);
            pool.push(signal);
        }
        let n = pool.len();
        for (i, &s) in pool[n.saturating_sub(3)..].iter().enumerate() {
            nl.output(format!("o{i}"), s);
        }
        nl
    }

    fn arb_netlist() -> impl Strategy<Value = Netlist> {
        (1usize..6, arb_gate_specs()).prop_map(|(n, specs)| random_netlist(n, &specs))
    }

    /// `count_pick` selects 1, 63, 64, 65 or 130 patterns, so both exact
    /// and partial tail words occur; bits come from a splitmix64 stream.
    fn arb_patterns(nl: &Netlist, count_pick: usize, seed: u64) -> Vec<Vec<bool>> {
        let count = [1, 63, 64, 65, 130][count_pick];
        let mut state = seed;
        let mut next_bit = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) & 1 == 1
        };
        (0..count)
            .map(|_| (0..nl.input_count()).map(|_| next_bit()).collect())
            .collect()
    }

    proptest! {
        /// The bit-sliced campaign counts exactly what a per-pattern
        /// `FaultyNetlist` loop counts, across partial tail words.
        #[test]
        fn campaign_matches_per_pattern_reference(
            nl in arb_netlist(),
            count_pick in 0usize..5,
            seed in any::<u64>(),
        ) {
            let patterns = arb_patterns(&nl, count_pick, seed);
            let campaign = fault_campaign(&nl, &patterns);
            let faults = enumerate_faults(&nl);
            let reference: Vec<usize> = faults
                .iter()
                .map(|&fault| {
                    let faulty = FaultyNetlist::new(&nl, fault);
                    patterns.iter().filter(|p| faulty.eval(p) != nl.eval(p)).count()
                })
                .collect();
            prop_assert_eq!(&campaign.mismatch_counts, &reference);
            prop_assert_eq!(campaign.detected, reference.iter().filter(|&&c| c > 0).count());
            prop_assert_eq!(campaign.total_faults, faults.len());
        }

        /// Faults injected in any order — earlier gates after later ones
        /// included — leave exactly the `FaultyNetlist` outputs.
        #[test]
        fn random_fault_order_matches_faulty_netlist(
            nl in arb_netlist(),
            count_pick in 0usize..5,
            picks in vec((any::<u16>(), any::<bool>()), 1..12),
            seed in any::<u64>(),
        ) {
            let patterns = arb_patterns(&nl, count_pick, seed);
            let mut sim = FaultSim::new(&nl, &patterns);
            let good: Vec<Vec<bool>> = patterns.iter().map(|p| nl.eval(p)).collect();
            prop_assert_eq!(outputs_per_pattern(&sim), good);
            if nl.gate_count() == 0 {
                return;
            }
            for (gate, value) in picks {
                let fault = StuckAt { gate: gate as usize % nl.gate_count(), value };
                sim.inject(fault);
                let faulty = FaultyNetlist::new(&nl, fault);
                let expected: Vec<Vec<bool>> = patterns.iter().map(|p| faulty.eval(p)).collect();
                prop_assert_eq!(outputs_per_pattern(&sim), expected);
            }
        }
    }

    #[test]
    fn every_cell_op_matches_its_truth_table() {
        // Word k holds input k of pattern p at bit p: all 16 patterns of
        // four inputs. `Netlist::gate` folds tie cells and buffers away,
        // so the ops are checked directly.
        let columns: [[u64; 1]; 4] = std::array::from_fn(|k| {
            [(0..16)
                .filter(|p| (p >> k) & 1 == 1)
                .fold(0, |w, p| w | 1 << p)]
        });
        for kind in CellKind::ALL {
            let expected = (0..16)
                .filter(|&p| {
                    let inputs: Vec<bool> = (0..kind.inputs()).map(|k| (p >> k) & 1 == 1).collect();
                    kind.eval(&inputs)
                })
                .fold(0u64, |w, p| w | 1 << p);
            let mut out = [0u64];
            eval_cell(kind, &mut out, columns.each_ref().map(|c| &c[..]));
            assert_eq!(out[0] & 0xFFFF, expected, "{kind}");
        }
    }

    #[test]
    fn load_replaces_the_patterns_and_clears_the_fault() {
        let mut nl = Netlist::new("and");
        let a = nl.input("a");
        let b = nl.input("b");
        let y = nl.gate(CellKind::And2, &[a, b]);
        nl.output("y", y);
        let mut sim = FaultSim::from_words(&nl, 2, &[0b10, 0b11]);
        assert_eq!(sim.output(0)[0] & sim.word_mask(0), 0b10);
        sim.inject(StuckAt {
            gate: 0,
            value: false,
        });
        assert_eq!(sim.output(0)[0] & sim.word_mask(0), 0);
        sim.load(70, &[!0, 0b1, !0, 0]);
        assert_eq!(sim.words(), 2);
        assert_eq!(sim.output(0), sim.good_output(0));
        assert_eq!(sim.output(0)[0], !0);
        assert_eq!(sim.outputs_at(64), vec![false]);
        assert_eq!(sim.mismatches(), 0);
    }

    #[test]
    fn word_mask_covers_exactly_the_patterns() {
        let mut nl = Netlist::new("wire");
        let a = nl.input("a");
        nl.output("a", a);
        for (count, last) in [(1, 1u64), (63, (1 << 63) - 1), (64, !0), (65, 1), (130, 3)] {
            let sim = FaultSim::new(&nl, &vec![vec![true]; count]);
            assert_eq!(sim.words(), count.div_ceil(64));
            assert_eq!(sim.word_mask(sim.words() - 1), last, "{count} patterns");
        }
    }

    #[test]
    #[should_panic(expected = "wrong number of input values")]
    fn rejects_short_patterns() {
        let mut nl = Netlist::new("and");
        let a = nl.input("a");
        let b = nl.input("b");
        let y = nl.gate(CellKind::And2, &[a, b]);
        nl.output("y", y);
        FaultSim::new(&nl, &[vec![true]]);
    }

    #[test]
    #[should_panic(expected = "missing gate")]
    fn rejects_out_of_range_fault() {
        let mut nl = Netlist::new("wire");
        let a = nl.input("a");
        nl.output("a", a);
        FaultSim::new(&nl, &[vec![true]]).inject(StuckAt {
            gate: 0,
            value: true,
        });
    }
}
