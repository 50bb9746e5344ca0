//! Combinational equivalence checking between netlists.
//!
//! Synthesis transformations in this workspace (two-level vs prefix-shared
//! vs NAND–NAND forms, QM minimization, pruning) must preserve function;
//! this module provides the checker the test-suites and users call:
//! exhaustive for up to [`EXHAUSTIVE_INPUT_LIMIT`] inputs, seeded-random
//! sampling beyond that (with the counterexample returned either way).
//!
//! ```
//! use printed_logic::equiv::{check_equivalence, Equivalence};
//! use printed_logic::netlist::Netlist;
//! use printed_pdk::CellKind;
//!
//! let mut a = Netlist::new("a");
//! let x = a.input("x");
//! let y = a.input("y");
//! let o = a.gate(CellKind::Nand2, &[x, y]);
//! a.output("o", o);
//!
//! let mut b = Netlist::new("b");
//! let x = b.input("x");
//! let y = b.input("y");
//! let and = b.gate(CellKind::And2, &[x, y]);
//! let o = b.gate(CellKind::Inv, &[and]);
//! b.output("o", o);
//!
//! assert_eq!(check_equivalence(&a, &b, 0), Equivalence::Equivalent { exhaustive: true });
//! ```

use serde::{Deserialize, Serialize};

use crate::netlist::Netlist;
use crate::sim::{pack_patterns, FaultSim};

/// Inputs up to this count are checked exhaustively (2^20 ≈ 1M patterns).
pub const EXHAUSTIVE_INPUT_LIMIT: usize = 20;

/// Number of random patterns used above the exhaustive limit.
pub const RANDOM_PATTERNS: usize = 4096;

/// Patterns per tape block: 64 words of 64.
const BLOCK: usize = 64 * 64;

/// Outcome of [`check_equivalence`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Equivalence {
    /// No differing pattern found.
    Equivalent {
        /// True when the whole input space was enumerated (a proof); false
        /// when only random patterns were tried (strong evidence).
        exhaustive: bool,
    },
    /// The netlists differ on this input assignment.
    Counterexample {
        /// The differing input pattern.
        inputs: Vec<bool>,
        /// First netlist's outputs on it.
        left: Vec<bool>,
        /// Second netlist's outputs on it.
        right: Vec<bool>,
    },
    /// The netlists are structurally incomparable.
    Mismatched {
        /// Human-readable reason (input/output count difference).
        reason: String,
    },
}

impl Equivalence {
    /// True for either `Equivalent` verdict.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, Equivalence::Equivalent { .. })
    }
}

/// xorshift64* — the deterministic, dependency-free source behind every
/// random pattern this module emits.
fn xorshift64star(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// `Mismatched` when the netlists' input or output counts differ.
fn shape_mismatch(left: &Netlist, right: &Netlist) -> Option<Equivalence> {
    let reason = if left.input_count() != right.input_count() {
        format!(
            "input counts differ: {} vs {}",
            left.input_count(),
            right.input_count()
        )
    } else if left.outputs().len() != right.outputs().len() {
        format!(
            "output counts differ: {} vs {}",
            left.outputs().len(),
            right.outputs().len()
        )
    } else {
        return None;
    };
    Some(Equivalence::Mismatched { reason })
}

/// Runs both netlists on the tape over one block of `left`'s input words;
/// the first differing pattern and both output vectors on it.
fn first_difference(
    left: &Netlist,
    right: &Netlist,
    projection: &[usize],
    patterns: usize,
    words: &[u64],
) -> Option<(usize, Vec<bool>, Vec<bool>)> {
    let per_input = patterns.div_ceil(64);
    let right_words: Vec<u64> = projection
        .iter()
        .flat_map(|&i| &words[i * per_input..(i + 1) * per_input])
        .copied()
        .collect();
    let left = FaultSim::from_words(left, patterns, words);
    let right = FaultSim::from_words(right, patterns, &right_words);
    let p = left.first_difference(&right)?;
    Some((p, left.outputs_at(p), right.outputs_at(p)))
}

/// Checks whether two netlists compute the same outputs on all inputs
/// (matched positionally: input `i` of `left` pairs with input `i` of
/// `right`, same for outputs).
///
/// `seed` drives the random patterns used beyond the exhaustive limit;
/// exhaustive runs ignore it. The counterexample is the first differing
/// pattern in enumeration order.
pub fn check_equivalence(left: &Netlist, right: &Netlist, seed: u64) -> Equivalence {
    if let Some(mismatch) = shape_mismatch(left, right) {
        return mismatch;
    }
    let n = left.input_count();
    let exhaustive = n <= EXHAUSTIVE_INPUT_LIMIT;
    let count = if exhaustive { 1 << n } else { RANDOM_PATTERNS };
    let mut next = xorshift64star(seed);
    let domain = (0..count).map(move |m| {
        (0..n)
            .map(|k| {
                if exhaustive {
                    m & (1 << k) != 0
                } else {
                    next() & 1 != 0
                }
            })
            .collect()
    });
    first_counterexample(left, right, &(0..n).collect::<Vec<_>>(), domain)
        .unwrap_or(Equivalence::Equivalent { exhaustive })
}

/// Checks whether two netlists compute the same outputs on an explicitly
/// enumerated input domain (matched positionally, as in
/// [`check_equivalence`]).
///
/// The full-space checker treats every Boolean assignment as reachable,
/// but netlists fed by thermometer-coded ADCs never see assignments that
/// violate unary monotonicity — two designs differing only on those
/// vectors are equivalent *in this system*. Callers enumerate the
/// physically reachable domain (e.g. [`thermometer_patterns`]) and verify
/// over exactly that; the `exhaustive` flag in the verdict reflects the
/// caller's claim that `domain` covers every reachable input.
///
/// # Panics
///
/// Panics if a pattern's length differs from the input count.
pub fn check_equivalence_on(
    left: &Netlist,
    right: &Netlist,
    domain: impl IntoIterator<Item = Vec<bool>>,
) -> Equivalence {
    if let Some(mismatch) = shape_mismatch(left, right) {
        return mismatch;
    }
    first_counterexample(
        left,
        right,
        &(0..left.input_count()).collect::<Vec<_>>(),
        domain,
    )
    .unwrap_or(Equivalence::Equivalent { exhaustive: true })
}

/// The first pattern of `domain` (assignments of `left`'s inputs) on which
/// the outputs differ, as a [`Equivalence::Counterexample`]. `right`'s
/// input `i` reads `left`'s input `projection[i]`, so a netlist that
/// dropped inputs compares against the original. Both run on the tape,
/// 4096 patterns at a time.
///
/// # Panics
///
/// Panics if a pattern's length differs from `left`'s input count, the
/// projection's length from `right`'s, or the output counts differ.
pub fn first_counterexample(
    left: &Netlist,
    right: &Netlist,
    projection: &[usize],
    domain: impl IntoIterator<Item = Vec<bool>>,
) -> Option<Equivalence> {
    let mut domain = domain.into_iter();
    loop {
        let mut block: Vec<Vec<bool>> = domain.by_ref().take(BLOCK).collect();
        if block.is_empty() {
            return None;
        }
        let words = pack_patterns(&block, left.input_count());
        if let Some((p, left, right)) =
            first_difference(left, right, projection, block.len(), &words)
        {
            return Some(Equivalence::Counterexample {
                inputs: std::mem::take(&mut block[p]),
                left,
                right,
            });
        }
    }
}

/// Enumerates every thermometer-consistent assignment of variables split
/// into consecutive monotone groups: group `g` spans `sizes[g]` variables
/// whose valid assignments are exactly the `sizes[g] + 1` true-prefixes
/// (digit `k` high implies digit `j` high for `j < k`, the unary ADC
/// invariant). The domain has `Π (sizes[g] + 1)` patterns — usually far
/// smaller than `2^Σ sizes`.
pub fn thermometer_patterns(sizes: &[usize]) -> Vec<Vec<bool>> {
    let total: usize = sizes.iter().sum();
    let mut patterns = vec![Vec::with_capacity(total)];
    for &size in sizes {
        let mut next = Vec::with_capacity(patterns.len() * (size + 1));
        for pattern in &patterns {
            for level in 0..=size {
                let mut extended = pattern.clone();
                extended.extend((0..size).map(|digit| digit < level));
                next.push(extended);
            }
        }
        patterns = next;
    }
    patterns
}

/// `count` seeded random thermometer-consistent assignments over the
/// groups of [`thermometer_patterns`] (a uniform level per group), for
/// domains too large to enumerate.
pub fn sample_thermometer_patterns(sizes: &[usize], seed: u64, count: usize) -> Vec<Vec<bool>> {
    let total: usize = sizes.iter().sum();
    let mut next = xorshift64star(seed);
    (0..count)
        .map(|_| {
            let mut pattern = Vec::with_capacity(total);
            for &size in sizes {
                let level = (next() % (size as u64 + 1)) as usize;
                pattern.extend((0..size).map(|digit| digit < level));
            }
            pattern
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks;
    use crate::sim::tests::{arb_gate_specs, random_netlist};
    use printed_pdk::CellKind;
    use proptest::prelude::*;

    /// The pattern-by-pattern reference the tape replaced.
    fn scalar_on<'d>(
        left: &Netlist,
        right: &Netlist,
        domain: impl IntoIterator<Item = &'d Vec<bool>>,
    ) -> Option<Equivalence> {
        domain.into_iter().find_map(|inputs| {
            let (l, r) = (left.eval(inputs), right.eval(inputs));
            (l != r).then(|| Equivalence::Counterexample {
                inputs: inputs.clone(),
                left: l,
                right: r,
            })
        })
    }

    /// `count` splitmix64 patterns over `n` inputs.
    fn random_patterns(n: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut state = seed;
        let mut next_bit = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) & 1 == 1
        };
        (0..count)
            .map(|_| (0..n).map(|_| next_bit()).collect())
            .collect()
    }

    proptest! {
        /// On random netlist pairs the tape returns the scalar loop's
        /// verdict, `exhaustive` flag and first counterexample, over
        /// domains ending in partial, full and one-pattern blocks —
        /// including domains whose only differing pattern is the last.
        #[test]
        fn tape_equivalence_matches_the_scalar_loop(
            n in 1usize..6,
            left_specs in arb_gate_specs(),
            right_specs in arb_gate_specs(),
            seed in any::<u64>(),
        ) {
            let left = random_netlist(n, &left_specs);
            let full: Vec<Vec<bool>> = (0..1u32 << n)
                .map(|m| (0..n).map(|k| (m >> k) & 1 == 1).collect())
                .collect();
            let identity: Vec<usize> = (0..n).collect();
            for right in [random_netlist(n, &right_specs), left.clone()] {
                let expected = scalar_on(&left, &right, &full)
                    .unwrap_or(Equivalence::Equivalent { exhaustive: true });
                prop_assert_eq!(check_equivalence(&left, &right, seed), expected);
                let (differ, agree): (Vec<&Vec<bool>>, Vec<&Vec<bool>>) =
                    full.iter().partition(|p| left.eval(p) != right.eval(p));
                for size in [1, 63, 64, 65, 4095, 4097, 8193] {
                    let random = random_patterns(n, size, seed);
                    // Agreeing patterns everywhere but the last position.
                    let last_only = (!agree.is_empty()).then(|| {
                        let mut domain: Vec<Vec<bool>> =
                            agree.iter().cycle().take(size).map(|&p| p.clone()).collect();
                        if let Some(&last) = differ.first() {
                            domain[size - 1] = last.clone();
                        }
                        domain
                    });
                    for domain in std::iter::once(random).chain(last_only) {
                        let expected = scalar_on(&left, &right, &domain);
                        prop_assert_eq!(
                            first_counterexample(&left, &right, &identity, domain.clone()),
                            expected.clone()
                        );
                        prop_assert_eq!(
                            check_equivalence_on(&left, &right, domain),
                            expected.unwrap_or(Equivalence::Equivalent { exhaustive: true })
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exhaustive_check_finds_a_difference_in_the_last_block() {
        // 13 inputs: two blocks of 4096 patterns; the netlists differ only
        // on the all-ones pattern, the very last one.
        let mut a = Netlist::new("and13");
        let bus = a.input_bus("i", 13);
        let o = blocks::and_tree(&mut a, &bus);
        a.output("o", o);
        let mut b = Netlist::new("zero13");
        b.input_bus("i", 13);
        b.output("o", crate::netlist::Signal::Const(false));
        assert_eq!(
            check_equivalence(&a, &b, 0),
            Equivalence::Counterexample {
                inputs: vec![true; 13],
                left: vec![true],
                right: vec![false],
            }
        );
    }

    #[test]
    fn sampled_patterns_are_thermometer_consistent() {
        let runs = vec![3, 2, 4];
        for pattern in sample_thermometer_patterns(&runs, 7, 64) {
            let mut offset = 0;
            for &run in &runs {
                for d in 1..run {
                    assert!(
                        !pattern[offset + d] || pattern[offset + d - 1],
                        "{pattern:?} violates monotonicity"
                    );
                }
                offset += run;
            }
        }
    }

    fn xor_two_ways() -> (Netlist, Netlist) {
        let mut a = Netlist::new("xor-direct");
        let x = a.input("x");
        let y = a.input("y");
        let o = a.gate(CellKind::Xor2, &[x, y]);
        a.output("o", o);

        let mut b = Netlist::new("xor-sop");
        let x = b.input("x");
        let y = b.input("y");
        let nx = b.gate(CellKind::Inv, &[x]);
        let ny = b.gate(CellKind::Inv, &[y]);
        let t1 = b.gate(CellKind::And2, &[x, ny]);
        let t2 = b.gate(CellKind::And2, &[nx, y]);
        let o = b.gate(CellKind::Or2, &[t1, t2]);
        b.output("o", o);
        (a, b)
    }

    #[test]
    fn equivalent_implementations_verify() {
        let (a, b) = xor_two_ways();
        assert_eq!(
            check_equivalence(&a, &b, 0),
            Equivalence::Equivalent { exhaustive: true }
        );
        assert!(check_equivalence(&a, &b, 0).is_equivalent());
    }

    #[test]
    fn counterexample_is_concrete() {
        let mut a = Netlist::new("and");
        let x = a.input("x");
        let y = a.input("y");
        let o = a.gate(CellKind::And2, &[x, y]);
        a.output("o", o);
        let mut b = Netlist::new("or");
        let x = b.input("x");
        let y = b.input("y");
        let o = b.gate(CellKind::Or2, &[x, y]);
        b.output("o", o);
        match check_equivalence(&a, &b, 0) {
            Equivalence::Counterexample {
                inputs,
                left,
                right,
            } => {
                // The counterexample must actually differ.
                assert_eq!(a.eval(&inputs), left);
                assert_eq!(b.eval(&inputs), right);
                assert_ne!(left, right);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_shapes_are_reported() {
        let mut a = Netlist::new("one-in");
        let x = a.input("x");
        a.output("o", x);
        let mut b = Netlist::new("two-in");
        let x = b.input("x");
        let _y = b.input("y");
        b.output("o", x);
        assert!(matches!(
            check_equivalence(&a, &b, 0),
            Equivalence::Mismatched { .. }
        ));
    }

    #[test]
    fn comparator_synthesis_variants_are_equivalent() {
        // gte_const vs "not (gt_const of c-1 inverted)" style alternative:
        // I ≥ C ⇔ I > C−1 for C ≥ 1.
        for c in 1..16u32 {
            let mut a = Netlist::new("ge");
            let bus = a.input_bus("i", 4);
            let o = blocks::gte_const(&mut a, &bus, c);
            a.output("o", o);
            let mut b = Netlist::new("gt");
            let bus = b.input_bus("i", 4);
            let o = blocks::gt_const(&mut b, &bus, c - 1);
            b.output("o", o);
            assert!(check_equivalence(&a, &b, 0).is_equivalent(), "c={c}");
        }
    }

    #[test]
    fn thermometer_patterns_enumerate_true_prefixes() {
        // One 2-digit group: 3 valid levels; plus a 1-digit group: 2.
        let patterns = thermometer_patterns(&[2, 1]);
        assert_eq!(patterns.len(), 3 * 2);
        for p in &patterns {
            assert_eq!(p.len(), 3);
            // Monotone within the first group: digit 1 high ⇒ digit 0 high.
            assert!(!p[1] || p[0], "{p:?} violates thermometer order");
        }
        // The invalid vector 01 never appears.
        assert!(!patterns.iter().any(|p| !p[0] && p[1]));
        assert_eq!(thermometer_patterns(&[]), vec![Vec::<bool>::new()]);
    }

    #[test]
    fn thermometer_restricted_equivalence_ignores_invalid_vectors() {
        // Regression for the full-space checker's blind spot: two
        // implementations of "x ≥ tap₀" that differ only when the
        // thermometer-invalid vector (digit 1 high, digit 0 low) is
        // driven. A physical ADC can never produce it, so the designs are
        // equivalent in this system — but the unrestricted checker calls
        // them different.
        let mut a = Netlist::new("low-digit");
        let d0 = a.input("u0_3");
        let _d1 = a.input("u0_9");
        a.output("o", d0);

        let mut b = Netlist::new("either-digit");
        let d0 = b.input("u0_3");
        let d1 = b.input("u0_9");
        let o = b.gate(CellKind::Or2, &[d0, d1]);
        b.output("o", o);

        match check_equivalence(&a, &b, 0) {
            Equivalence::Counterexample { inputs, .. } => {
                assert_eq!(inputs, vec![false, true], "differs exactly on 01");
            }
            other => panic!("full-space check must find the gap, got {other:?}"),
        }
        assert_eq!(
            check_equivalence_on(&a, &b, thermometer_patterns(&[2])),
            Equivalence::Equivalent { exhaustive: true }
        );
    }

    #[test]
    fn restricted_check_still_reports_shape_mismatch_and_real_gaps() {
        let mut a = Netlist::new("id");
        let x = a.input("x");
        a.output("o", x);
        let mut b = Netlist::new("neg");
        let x = b.input("x");
        let o = b.gate(CellKind::Inv, &[x]);
        b.output("o", o);
        assert!(matches!(
            check_equivalence_on(&a, &b, thermometer_patterns(&[1])),
            Equivalence::Counterexample { .. }
        ));
        let mut c = Netlist::new("two-in");
        let x = c.input("x");
        let _y = c.input("y");
        c.output("o", x);
        assert!(matches!(
            check_equivalence_on(&a, &c, thermometer_patterns(&[1])),
            Equivalence::Mismatched { .. }
        ));
    }

    #[test]
    fn wide_netlists_use_random_sampling() {
        // 24 inputs: beyond the exhaustive limit; identical netlists verify
        // non-exhaustively.
        let build = || {
            let mut nl = Netlist::new("wide");
            let bus = nl.input_bus("i", 24);
            let o = blocks::and_tree(&mut nl, &bus);
            nl.output("o", o);
            nl
        };
        let verdict = check_equivalence(&build(), &build(), 42);
        assert_eq!(verdict, Equivalence::Equivalent { exhaustive: false });
    }
}
