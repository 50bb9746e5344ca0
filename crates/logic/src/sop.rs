//! Two-level sum-of-products (SOP) logic.
//!
//! The unary decision-tree architecture reduces each class label to a
//! two-level AND–OR over unary literals. This module provides the SOP data
//! structure, safe simplification rules, and netlist lowering.
//!
//! The simplifier applies only rules that preserve the function for *any*
//! off-set (it never consults don't-cares, so it is sound for covers coming
//! from disjoint tree paths as well as arbitrary covers):
//!
//! * **absorption** — drop a cube contained in another cube of the cover;
//! * **merge** — combine two cubes identical except for one complemented
//!   literal (`a·b + a·b' = a`);
//! * **duplicate removal**.
//!
//! Exact two-level minimization (Quine–McCluskey) lives in [`crate::qm`].
//!
//! ```
//! use printed_logic::sop::{Cube, Sop};
//!
//! // x0·x1 + x0·x1' simplifies to x0.
//! let sop = Sop::from_cubes(2, vec![
//!     Cube::from_literals(&[(0, true), (1, true)]),
//!     Cube::from_literals(&[(0, true), (1, false)]),
//! ]).simplified();
//! assert_eq!(sop.cubes().len(), 1);
//! assert_eq!(sop.cubes()[0], Cube::from_literals(&[(0, true)]));
//! ```

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::blocks::{and_tree, not, or_tree};
use crate::netlist::{Netlist, Signal};

/// A product term: a conjunction of literals over variables `0..n`.
///
/// Internally a sorted map variable → polarity; a variable absent from the
/// map is unconstrained (don't care) in this cube.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Cube {
    literals: BTreeMap<usize, bool>,
}

impl Cube {
    /// The universal cube (empty conjunction: always true).
    pub fn universe() -> Self {
        Self {
            literals: BTreeMap::new(),
        }
    }

    /// Builds a cube from `(variable, polarity)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a variable appears twice with conflicting polarity — that
    /// cube would be constant-false, which a caller almost certainly did not
    /// intend; use [`Cube::try_from_literals`] when contradictions are
    /// expected (e.g. unreachable decision-tree branches).
    pub fn from_literals(literals: &[(usize, bool)]) -> Self {
        Self::try_from_literals(literals)
            .unwrap_or_else(|| panic!("conflicting polarities in {literals:?}"))
    }

    /// Builds a cube from `(variable, polarity)` pairs, returning `None`
    /// when a variable appears with both polarities (the cube would be
    /// constant false).
    pub fn try_from_literals(literals: &[(usize, bool)]) -> Option<Self> {
        let mut map = BTreeMap::new();
        for &(var, pol) in literals {
            if let Some(&prev) = map.get(&var) {
                if prev != pol {
                    return None;
                }
            }
            map.insert(var, pol);
        }
        debug_assert!(
            literals.iter().all(|&(v, p)| map.get(&v) == Some(&p)),
            "constructed cube must retain every input literal"
        );
        Some(Self { literals: map })
    }

    /// Iterates `(variable, polarity)` in ascending variable order.
    pub fn literals(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        self.literals.iter().map(|(&v, &p)| (v, p))
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.literals.len()
    }

    /// True for the universal cube.
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }

    /// Evaluates the cube on an assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than the largest variable.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.literals.iter().all(|(&v, &p)| assignment[v] == p)
    }

    /// True when `self` implies `other` (every assignment satisfying `self`
    /// satisfies `other`) — i.e. `other`'s literals are a subset of
    /// `self`'s.
    pub fn implies(&self, other: &Cube) -> bool {
        other
            .literals
            .iter()
            .all(|(v, p)| self.literals.get(v) == Some(p))
    }

    /// If `self` and `other` differ only in the polarity of exactly one
    /// variable (same variable support), returns the merged cube with that
    /// variable dropped: `a·x + a·x' = a`.
    pub fn merge_adjacent(&self, other: &Cube) -> Option<Cube> {
        if self.literals.len() != other.literals.len() {
            return None;
        }
        let mut diff_var = None;
        for ((&v1, &p1), (&v2, &p2)) in self.literals.iter().zip(&other.literals) {
            if v1 != v2 {
                return None; // different variable support
            }
            if p1 != p2 {
                if diff_var.is_some() {
                    return None;
                }
                diff_var = Some(v1);
            }
        }
        diff_var.map(|v| {
            let mut merged = self.literals.clone();
            merged.remove(&v);
            debug_assert_eq!(
                merged.len(),
                self.literals.len() - 1,
                "merging x + x' drops exactly the differing variable"
            );
            Cube { literals: merged }
        })
    }
}

/// A sum of products over variables `0..num_vars`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sop {
    num_vars: usize,
    cubes: Vec<Cube>,
}

impl Sop {
    /// The constant-false cover over `num_vars` variables.
    pub fn constant_false(num_vars: usize) -> Self {
        Self {
            num_vars,
            cubes: Vec::new(),
        }
    }

    /// The constant-true cover.
    pub fn constant_true(num_vars: usize) -> Self {
        Self {
            num_vars,
            cubes: vec![Cube::universe()],
        }
    }

    /// Builds a cover from cubes.
    ///
    /// # Panics
    ///
    /// Panics if a cube references a variable ≥ `num_vars`.
    pub fn from_cubes(num_vars: usize, cubes: Vec<Cube>) -> Self {
        for cube in &cubes {
            for (v, _) in cube.literals() {
                assert!(
                    v < num_vars,
                    "cube references variable {v} ≥ num_vars {num_vars}"
                );
            }
        }
        Self { num_vars, cubes }
    }

    /// Number of variables of the function's domain.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The cover's cubes.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Total literal count across cubes (a standard two-level cost proxy).
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(Cube::len).sum()
    }

    /// Evaluates the cover.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() < self.num_vars()`.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        assert!(assignment.len() >= self.num_vars, "assignment too short");
        self.cubes.iter().any(|c| c.eval(assignment))
    }

    /// Applies duplicate removal, absorption, and adjacent-cube merging to a
    /// fixpoint. Safe for any cover (does not consult don't-cares).
    pub fn simplified(&self) -> Sop {
        let timer = printed_telemetry::KernelTimer::start(printed_telemetry::Kernel::CubeMerge);
        let mut cubes = self.cubes.clone();
        loop {
            let before = cubes.clone();

            // Duplicates + absorption: keep a cube only if no *other* kept
            // cube contains it.
            cubes.sort();
            cubes.dedup();
            let mut kept: Vec<Cube> = Vec::with_capacity(cubes.len());
            'outer: for (i, cube) in cubes.iter().enumerate() {
                for (j, other) in cubes.iter().enumerate() {
                    if i != j && cube.implies(other) && !(other.implies(cube) && i < j) {
                        // `cube ⊆ other`: drop `cube` (ties broken by index
                        // so exactly one of two equal cubes survives —
                        // unreachable after dedup, kept for clarity).
                        continue 'outer;
                    }
                }
                kept.push(cube.clone());
            }
            cubes = kept;

            // One round of adjacent merging.
            let mut merged_any = false;
            let mut result: Vec<Cube> = Vec::with_capacity(cubes.len());
            let mut used = vec![false; cubes.len()];
            for i in 0..cubes.len() {
                if used[i] {
                    continue;
                }
                let mut merged_cube = None;
                for j in (i + 1)..cubes.len() {
                    if used[j] {
                        continue;
                    }
                    if let Some(m) = cubes[i].merge_adjacent(&cubes[j]) {
                        used[i] = true;
                        used[j] = true;
                        merged_cube = Some(m);
                        merged_any = true;
                        break;
                    }
                }
                result.push(merged_cube.unwrap_or_else(|| cubes[i].clone()));
            }
            cubes = result;

            if !merged_any && cubes == before {
                break;
            }
        }
        debug_assert!(
            cubes.iter().enumerate().all(|(i, c)| cubes
                .iter()
                .enumerate()
                .all(|(j, other)| i == j || !c.implies(other))),
            "simplified cover must be absorption-free at the fixpoint"
        );
        timer.finish(self.cubes.len() as u64);
        Sop {
            num_vars: self.num_vars,
            cubes,
        }
    }

    /// Lowers the cover to gates: one AND tree per cube, one OR tree across
    /// cubes, sharing inverters per variable. `vars[v]` must carry the
    /// signal of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `vars.len() < self.num_vars()`.
    pub fn lower(&self, nl: &mut Netlist, vars: &[Signal]) -> Signal {
        assert!(
            vars.len() >= self.num_vars,
            "need a signal for every variable"
        );
        let terms: Vec<Signal> = self
            .cubes
            .iter()
            .map(|cube| {
                let literals: Vec<Signal> = cube
                    .literals()
                    .map(|(v, p)| if p { vars[v] } else { not(nl, vars[v]) })
                    .collect();
                and_tree(nl, &literals)
            })
            .collect();
        or_tree(nl, &terms)
    }

    /// Lowers the cover in NAND–NAND form: `OR_i AND_j ℓ_ij =
    /// NAND_i(NAND_j ℓ_ij)`.
    ///
    /// In resistive-pull-up printed logic a NAND is a single inverting
    /// stage while AND/OR cost two, so this mapping typically saves one
    /// load resistor's area and static power per gate. Cubes or covers too
    /// wide for the library's 4-input NANDs fall back to tree-composed
    /// stages (inner: AND tree + INV; outer: per-group NANDs merged with an
    /// OR tree), preserving the function exactly.
    ///
    /// # Panics
    ///
    /// Panics if `vars.len() < self.num_vars()`.
    pub fn lower_nand_nand(&self, nl: &mut Netlist, vars: &[Signal]) -> Signal {
        use printed_pdk::CellKind;
        assert!(
            vars.len() >= self.num_vars,
            "need a signal for every variable"
        );
        if self.cubes.is_empty() {
            return Signal::Const(false);
        }
        // Inner level: one !cube per product term.
        let inverted_terms: Vec<Signal> = self
            .cubes
            .iter()
            .map(|cube| {
                let literals: Vec<Signal> = cube
                    .literals()
                    .map(|(v, p)| if p { vars[v] } else { not(nl, vars[v]) })
                    .collect();
                match literals.len() {
                    0 => Signal::Const(false), // !true
                    1 => not(nl, literals[0]),
                    2 => nl.gate(CellKind::Nand2, &literals),
                    3 => nl.gate(CellKind::Nand3, &literals),
                    4 => nl.gate(CellKind::Nand4, &literals),
                    _ => {
                        let conj = and_tree(nl, &literals);
                        not(nl, conj)
                    }
                }
            })
            .collect();
        // Outer level: NAND across the inverted terms = OR of the cubes.
        // Group into ≤4-wide NANDs; OR the group results when several
        // groups are needed.
        let groups: Vec<Signal> = inverted_terms
            .chunks(4)
            .map(|chunk| match chunk.len() {
                1 => not(nl, chunk[0]),
                2 => nl.gate(CellKind::Nand2, chunk),
                3 => nl.gate(CellKind::Nand3, chunk),
                _ => nl.gate(CellKind::Nand4, chunk),
            })
            .collect();
        or_tree(nl, &groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assignments(n: usize) -> impl Iterator<Item = Vec<bool>> {
        (0..(1u32 << n)).map(move |p| (0..n).map(|k| (p >> k) & 1 == 1).collect())
    }

    #[test]
    fn cube_eval_and_implication() {
        let ab = Cube::from_literals(&[(0, true), (1, false)]);
        assert!(ab.eval(&[true, false]));
        assert!(!ab.eval(&[true, true]));
        let a = Cube::from_literals(&[(0, true)]);
        assert!(ab.implies(&a));
        assert!(!a.implies(&ab));
        assert!(ab.implies(&Cube::universe()));
    }

    #[test]
    fn merge_requires_same_support_one_flip() {
        let x = Cube::from_literals(&[(0, true), (1, true)]);
        let y = Cube::from_literals(&[(0, true), (1, false)]);
        assert_eq!(
            x.merge_adjacent(&y),
            Some(Cube::from_literals(&[(0, true)]))
        );
        let z = Cube::from_literals(&[(0, false), (1, false)]);
        assert_eq!(x.merge_adjacent(&z), None, "two flips");
        let w = Cube::from_literals(&[(0, true), (2, true)]);
        assert_eq!(x.merge_adjacent(&w), None, "different support");
    }

    #[test]
    fn simplify_is_equivalence_preserving_exhaustively() {
        // A messy cover over 4 vars: disjoint tree-like paths + redundancy.
        let sop = Sop::from_cubes(
            4,
            vec![
                Cube::from_literals(&[(0, true), (1, true), (2, true)]),
                Cube::from_literals(&[(0, true), (1, true), (2, false)]),
                Cube::from_literals(&[(0, true), (1, true)]), // absorbed & absorbing
                Cube::from_literals(&[(0, false), (3, true)]),
                Cube::from_literals(&[(0, false), (3, true)]), // duplicate
            ],
        );
        let simplified = sop.simplified();
        assert!(simplified.cubes().len() < sop.cubes().len());
        for a in assignments(4) {
            assert_eq!(sop.eval(&a), simplified.eval(&a), "{a:?}");
        }
    }

    #[test]
    fn simplify_collapses_full_cover_to_true() {
        // x + x' = 1
        let sop = Sop::from_cubes(
            1,
            vec![
                Cube::from_literals(&[(0, true)]),
                Cube::from_literals(&[(0, false)]),
            ],
        )
        .simplified();
        assert_eq!(sop.cubes(), &[Cube::universe()]);
        assert!(sop.eval(&[false]));
    }

    #[test]
    fn lower_matches_eval() {
        let sop = Sop::from_cubes(
            3,
            vec![
                Cube::from_literals(&[(0, true), (1, false)]),
                Cube::from_literals(&[(2, true)]),
            ],
        );
        let mut nl = Netlist::new("sop");
        let vars = nl.input_bus("x", 3);
        let out = sop.lower(&mut nl, &vars);
        nl.output("f", out);
        for a in assignments(3) {
            assert_eq!(nl.eval(&a)[0], sop.eval(&a), "{a:?}");
        }
    }

    #[test]
    fn lower_constant_covers() {
        let mut nl = Netlist::new("consts");
        let vars = nl.input_bus("x", 2);
        assert_eq!(
            Sop::constant_false(2).lower(&mut nl, &vars),
            Signal::Const(false)
        );
        assert_eq!(
            Sop::constant_true(2).lower(&mut nl, &vars),
            Signal::Const(true)
        );
        assert_eq!(nl.gate_count(), 0);
    }

    #[test]
    fn literal_count_is_cost_proxy() {
        let sop = Sop::from_cubes(
            3,
            vec![
                Cube::from_literals(&[(0, true), (1, true)]),
                Cube::from_literals(&[(2, false)]),
            ],
        );
        assert_eq!(sop.literal_count(), 3);
    }

    #[test]
    #[should_panic(expected = "conflicting polarities")]
    fn conflicting_literals_panic() {
        Cube::from_literals(&[(0, true), (0, false)]);
    }

    #[test]
    #[should_panic(expected = "num_vars")]
    fn sop_rejects_out_of_range_variable() {
        Sop::from_cubes(2, vec![Cube::from_literals(&[(5, true)])]);
    }

    #[test]
    fn nand_nand_lowering_is_equivalent() {
        // Covers spanning the interesting shapes: empty, universal, single
        // literal, wide cubes (>4 literals), many cubes (>4 groups).
        let cases: Vec<Sop> = vec![
            Sop::constant_false(5),
            Sop::constant_true(5),
            Sop::from_cubes(5, vec![Cube::from_literals(&[(3, false)])]),
            Sop::from_cubes(
                5,
                vec![
                    Cube::from_literals(&[(0, true), (1, false), (2, true), (3, true), (4, false)]),
                    Cube::from_literals(&[(1, true), (4, true)]),
                ],
            ),
            Sop::from_cubes(
                5,
                (0..5)
                    .flat_map(|v| {
                        [
                            Cube::from_literals(&[(v, true)]),
                            Cube::from_literals(&[(v, false), ((v + 1) % 5, true)]),
                        ]
                    })
                    .collect(),
            ),
        ];
        for sop in cases {
            let mut nl = Netlist::new("nand");
            let vars = nl.input_bus("x", 5);
            let out = sop.lower_nand_nand(&mut nl, &vars);
            nl.output("f", out);
            for a in assignments(5) {
                assert_eq!(nl.eval(&a)[0], sop.eval(&a), "{a:?} in {sop:?}");
            }
        }
    }

    #[test]
    fn nand_nand_is_cheaper_for_typical_covers() {
        use crate::report::{analyze, AnalysisConfig};
        use printed_pdk::CellLibrary;
        let sop = Sop::from_cubes(
            6,
            vec![
                Cube::from_literals(&[(0, true), (1, true), (2, false)]),
                Cube::from_literals(&[(2, true), (3, true)]),
                Cube::from_literals(&[(4, true), (5, false), (0, false)]),
            ],
        );
        let lib = CellLibrary::egfet();
        let cfg = AnalysisConfig::printed_20hz();
        let mut a = Netlist::new("andor");
        let va = a.input_bus("x", 6);
        let oa = sop.lower(&mut a, &va);
        a.output("f", oa);
        let mut b = Netlist::new("nandnand");
        let vb = b.input_bus("x", 6);
        let ob = sop.lower_nand_nand(&mut b, &vb);
        b.output("f", ob);
        let ra = analyze(&a, &lib, &cfg);
        let rb = analyze(&b, &lib, &cfg);
        assert!(
            rb.static_power < ra.static_power,
            "NAND-NAND {} vs AND-OR {}",
            rb.static_power,
            ra.static_power
        );
        assert!(rb.area < ra.area);
    }

    #[test]
    fn shared_inverters_in_lowering() {
        // Two cubes both using !x0: the inverter must be shared.
        let sop = Sop::from_cubes(
            2,
            vec![
                Cube::from_literals(&[(0, false), (1, true)]),
                Cube::from_literals(&[(0, false), (1, false)]),
            ],
        );
        let mut nl = Netlist::new("shareinv");
        let vars = nl.input_bus("x", 2);
        let out = sop.lower(&mut nl, &vars);
        nl.output("f", out);
        let inv_count = nl
            .gates()
            .iter()
            .filter(|g| g.kind == printed_pdk::CellKind::Inv)
            .count();
        assert_eq!(inv_count, 2, "one for x0 (shared), one for x1");
    }
}
