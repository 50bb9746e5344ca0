//! The built-in analysis passes.
//!
//! Every pass exploits the same structural fact: under thermometer
//! monotonicity a cube's same-feature literals collapse to one interval
//! `max(positive taps) ≤ x < min(negative taps)` per feature, so
//! reachability, domination, and pairwise intersection are all interval
//! arithmetic — no SAT required. See the crate docs for the code table.

use std::collections::{BTreeMap, BTreeSet};

use printed_analog::ladder::Ladder;
use printed_dtree::DecisionTree;
use printed_logic::blocks::or_tree;
use printed_logic::equiv::{
    check_equivalence_on, sample_thermometer_patterns, thermometer_patterns, Equivalence,
};
use printed_logic::netlist::Netlist;
use printed_logic::sop::Cube;
use printed_logic::Signal;
use printed_pdk::CellKind;

use crate::{Diagnostic, Lint, LintTarget, Severity};

/// The registered suite, in emission order.
pub(crate) fn builtin() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(ThermometerContradiction),
        Box::new(DominatedLiteral),
        Box::new(MissingComparator),
        Box::new(DeadComparator),
        Box::new(CostDrift),
        Box::new(ClassOverlap),
        Box::new(PathFidelity),
        Box::new(GridHygiene),
        Box::new(LadderMonotonicity),
        Box::new(ReferenceOrdering),
        Box::new(SagMargin),
    ]
}

/// Per-feature interval a cube imposes: feature → `(max positive tap,
/// min negative tap)`. A positive literal at tap `t` means `x ≥ t`, a
/// negative one `x < t`.
fn feature_bounds(
    cube: &Cube,
    literals: &[(usize, u8)],
) -> BTreeMap<usize, (Option<u8>, Option<u8>)> {
    let mut bounds: BTreeMap<usize, (Option<u8>, Option<u8>)> = BTreeMap::new();
    for (var, pol) in cube.literals() {
        let (feature, tap) = literals[var];
        let entry = bounds.entry(feature).or_insert((None, None));
        if pol {
            entry.0 = Some(entry.0.map_or(tap, |t| t.max(tap)));
        } else {
            entry.1 = Some(entry.1.map_or(tap, |t| t.min(tap)));
        }
    }
    bounds
}

/// The first feature whose interval is empty (`max_pos ≥ min_neg`), if
/// any — the cube can then never fire on a thermometer-consistent input.
pub(crate) fn contradiction(cube: &Cube, literals: &[(usize, u8)]) -> Option<(usize, u8, u8)> {
    feature_bounds(cube, literals)
        .into_iter()
        .find_map(|(feature, (pos, neg))| match (pos, neg) {
            (Some(p), Some(n)) if p >= n => Some((feature, p, n)),
            _ => None,
        })
}

fn input_name_pair(name: &str) -> Option<(usize, usize)> {
    let (feature, tap) = name.strip_prefix('u')?.split_once('_')?;
    Some((feature.parse().ok()?, tap.parse().ok()?))
}

/// U001 — a cube contradictory under unary monotonicity. It can never
/// fire on a physical input, so its AND chain is pure wasted area.
struct ThermometerContradiction;

impl Lint for ThermometerContradiction {
    fn code(&self) -> &'static str {
        "U001"
    }
    fn description(&self) -> &'static str {
        "cube unreachable under thermometer monotonicity"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warning
    }
    fn run(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        for (class, sop) in target.class_sops.iter().enumerate() {
            for (idx, cube) in sop.cubes().iter().enumerate() {
                if let Some((feature, pos, neg)) = contradiction(cube, target.literals) {
                    out.push(
                        Diagnostic::new(
                            self.code(),
                            self.default_severity(),
                            format!("class{class} cube{idx}"),
                            format!(
                                "cube requires x{feature} ≥ {pos} and x{feature} < {neg} — \
                                 statically unreachable under thermometer monotonicity"
                            ),
                        )
                        .suggest("delete the cube; it costs gates but can never fire"),
                    );
                }
            }
        }
    }
}

/// U002 — a literal implied by a same-feature literal in the same cube
/// (`x ≥ 3` is implied by `x ≥ 9`; `x < 9` is implied by `x < 3`).
struct DominatedLiteral;

impl Lint for DominatedLiteral {
    fn code(&self) -> &'static str {
        "U002"
    }
    fn description(&self) -> &'static str {
        "literal dominated by a same-feature literal in the cube"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warning
    }
    fn run(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        for (class, sop) in target.class_sops.iter().enumerate() {
            for (idx, cube) in sop.cubes().iter().enumerate() {
                // A contradictory cube is already U001; domination inside
                // it is noise.
                if contradiction(cube, target.literals).is_some() {
                    continue;
                }
                let mut by_feature: BTreeMap<usize, (Vec<u8>, Vec<u8>)> = BTreeMap::new();
                for (var, pol) in cube.literals() {
                    let (feature, tap) = target.literals[var];
                    let entry = by_feature.entry(feature).or_default();
                    if pol {
                        entry.0.push(tap);
                    } else {
                        entry.1.push(tap);
                    }
                }
                for (feature, (pos, neg)) in by_feature {
                    if let Some(&strongest) = pos.iter().max() {
                        for &tap in pos.iter().filter(|&&t| t != strongest) {
                            out.push(dominated(class, idx, feature, tap, true, strongest));
                        }
                    }
                    if let Some(&strongest) = neg.iter().min() {
                        for &tap in neg.iter().filter(|&&t| t != strongest) {
                            out.push(dominated(class, idx, feature, tap, false, strongest));
                        }
                    }
                }
            }
        }
    }
}

fn dominated(
    class: usize,
    idx: usize,
    feature: usize,
    tap: u8,
    polarity: bool,
    strongest: u8,
) -> Diagnostic {
    let (weak, strong) = if polarity {
        (
            format!("x{feature} ≥ {tap}"),
            format!("x{feature} ≥ {strongest}"),
        )
    } else {
        (
            format!("x{feature} < {tap}"),
            format!("x{feature} < {strongest}"),
        )
    };
    Diagnostic::new(
        "U002",
        Severity::Warning,
        format!("class{class} cube{idx}"),
        format!("literal {weak} is implied by {strong} in the same cube"),
    )
    .suggest(format!(
        "drop the {weak} literal; the cube's function is unchanged"
    ))
}

/// A001 — the design reads a unary digit whose comparator the bespoke
/// bank does not retain: the wire would float. Hard error.
struct MissingComparator;

impl Lint for MissingComparator {
    fn code(&self) -> &'static str {
        "A001"
    }
    fn description(&self) -> &'static str {
        "design reads a tap with no retained comparator"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }
    fn run(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        if target.netlist.input_count() != target.literals.len() {
            out.push(Diagnostic::new(
                self.code(),
                self.default_severity(),
                "netlist",
                format!(
                    "netlist has {} inputs but the design defines {} unary literals",
                    target.netlist.input_count(),
                    target.literals.len()
                ),
            ));
        }
        let mut reported: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut check = |feature: usize, tap: usize, out: &mut Vec<Diagnostic>| {
            if !target.bank.taps_of(feature).contains(&tap) && reported.insert((feature, tap)) {
                out.push(
                    Diagnostic::new(
                        self.code(),
                        self.default_severity(),
                        format!("u{feature}_{tap}"),
                        format!(
                            "digit u{feature}_{tap} is read but the bank retains no \
                             comparator at x{feature} ≥ {tap}"
                        ),
                    )
                    .suggest(format!(
                        "retain tap {tap} of input {feature} in the ADC bank"
                    )),
                );
            }
        };
        for &(feature, tap) in target.literals {
            check(feature, tap as usize, out);
        }
        for name in target.netlist.input_names() {
            if let Some((feature, tap)) = input_name_pair(name) {
                check(feature, tap, out);
            }
        }
    }
}

/// A002 — a retained comparator no cube reads: dead hardware, priced.
struct DeadComparator;

impl Lint for DeadComparator {
    fn code(&self) -> &'static str {
        "A002"
    }
    fn description(&self) -> &'static str {
        "retained comparator never read by any cube"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warning
    }
    fn run(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        for (feature, taps) in target.bank.iter() {
            for tap in taps {
                // A read from a contradictory cube does not count: the
                // cube never fires, so the comparator is dead either way.
                let read = target
                    .literals
                    .binary_search(&(feature, tap as u8))
                    .is_ok_and(|var| {
                        target.class_sops.iter().any(|sop| {
                            sop.cubes().iter().any(|cube| {
                                contradiction(cube, target.literals).is_none()
                                    && cube.literals().any(|(v, _)| v == var)
                            })
                        })
                    });
                if !read {
                    let power = target.model.comparator_power(tap).uw();
                    let area = target.model.comparator_bank_area(1).mm2();
                    out.push(
                        Diagnostic::new(
                            self.code(),
                            self.default_severity(),
                            format!("adc x{feature} tap {tap}"),
                            format!(
                                "comparator x{feature} ≥ {tap} is retained but no cube \
                                 reads it — dead hardware wasting {power:.3} µW and \
                                 {area:.4} mm²"
                            ),
                        )
                        .suggest("drop the comparator from the bank or re-synthesize"),
                    );
                }
            }
        }
    }
}

/// C001 — the reported ADC cost drifts from the recomputed component sum
/// ([`printed_adc::BespokeAdcBank::input_cost`]'s identity: per-input
/// comparator shares plus the shared pruned ladder reproduce the bank
/// cost exactly).
struct CostDrift;

impl Lint for CostDrift {
    fn code(&self) -> &'static str {
        "C001"
    }
    fn description(&self) -> &'static str {
        "reported ADC cost drifts from the component sum"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }
    fn run(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let Some(reported) = target.reported_adc else {
            return;
        };
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
        let recomputed = target.bank.cost(target.model);
        // Component sum: Σ per-input shares + the shared pruned ladder.
        let distinct = target.bank.distinct_taps().len();
        let mut sum_area = 0.0;
        let mut sum_power = 0.0;
        let mut sum_comparators = 0;
        for (feature, _) in target.bank.iter() {
            let share = target.bank.input_cost(feature, target.model);
            sum_area += share.area.mm2();
            sum_power += share.power.uw();
            sum_comparators += share.comparators;
        }
        if distinct > 0 {
            sum_area += target.model.bespoke_ladder_area(distinct).mm2();
            sum_power += target.model.bespoke_ladder_power(distinct).uw();
        }
        let mut drift = Vec::new();
        if !close(recomputed.area.mm2(), sum_area)
            || !close(recomputed.power.uw(), sum_power)
            || recomputed.comparators != sum_comparators
        {
            drift.push(format!(
                "bank cost breaks the input_cost sum identity \
                 ({:.6} mm² / {:.3} µW vs Σ {:.6} mm² / {:.3} µW)",
                recomputed.area.mm2(),
                recomputed.power.uw(),
                sum_area,
                sum_power,
            ));
        }
        if !close(reported.area.mm2(), recomputed.area.mm2()) {
            drift.push(format!(
                "area {:.6} mm² reported vs {:.6} mm² recomputed",
                reported.area.mm2(),
                recomputed.area.mm2()
            ));
        }
        if !close(reported.power.uw(), recomputed.power.uw()) {
            drift.push(format!(
                "power {:.3} µW reported vs {:.3} µW recomputed",
                reported.power.uw(),
                recomputed.power.uw()
            ));
        }
        if reported.comparators != recomputed.comparators {
            drift.push(format!(
                "{} comparators reported vs {} retained",
                reported.comparators, recomputed.comparators
            ));
        }
        if reported.ladder_resistors != recomputed.ladder_resistors {
            drift.push(format!(
                "{} ladder resistors reported vs {} recomputed",
                reported.ladder_resistors, recomputed.ladder_resistors
            ));
        }
        if !drift.is_empty() {
            out.push(
                Diagnostic::new(
                    self.code(),
                    self.default_severity(),
                    "adc bank",
                    format!(
                        "reported ADC cost drifts from the component sum: {}",
                        drift.join("; ")
                    ),
                )
                .suggest("re-price the design with BespokeAdcBank::cost on the current model"),
            );
        }
    }
}

/// L001 — two class outputs that can assert together on a
/// thermometer-feasible input. Pairwise cube-intersection emptiness is
/// checked per feature interval, `O(cubes² · literals)`, no SAT.
struct ClassOverlap;

impl Lint for ClassOverlap {
    fn code(&self) -> &'static str {
        "L001"
    }
    fn description(&self) -> &'static str {
        "class outputs not provably one-hot on the feasible domain"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }
    fn run(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let n = target.class_sops.len();
        for i in 0..n {
            for j in (i + 1)..n {
                if let Some(witness) = overlap_witness(target, i, j) {
                    out.push(
                        Diagnostic::new(
                            self.code(),
                            self.default_severity(),
                            format!("class{i}×class{j}"),
                            format!(
                                "classes {i} and {j} both assert on the feasible input \
                                 {witness} — the one-hot invariant is violated"
                            ),
                        )
                        .suggest("the covers intersect; re-derive them from disjoint tree paths"),
                    );
                }
            }
        }
    }
}

/// A sample on which a cube of class `i` and a cube of class `j` both
/// fire, if one exists, rendered as `x0=3, x2=0`.
fn overlap_witness(target: &LintTarget<'_>, i: usize, j: usize) -> Option<String> {
    for a in target.class_sops[i].cubes() {
        let bounds_a = feature_bounds(a, target.literals);
        'pair: for b in target.class_sops[j].cubes() {
            let mut merged = bounds_a.clone();
            for (feature, (pos, neg)) in feature_bounds(b, target.literals) {
                let entry = merged.entry(feature).or_insert((None, None));
                if let Some(p) = pos {
                    entry.0 = Some(entry.0.map_or(p, |t| t.max(p)));
                }
                if let Some(n) = neg {
                    entry.1 = Some(entry.1.map_or(n, |t| t.min(n)));
                }
            }
            let mut witness = Vec::new();
            for (&feature, &(pos, neg)) in &merged {
                match (pos, neg) {
                    (Some(p), Some(n)) if p >= n => continue 'pair, // empty interval
                    _ => witness.push(format!("x{feature}={}", pos.unwrap_or(0))),
                }
            }
            return Some(if witness.is_empty() {
                "(any sample)".to_owned()
            } else {
                witness.join(", ")
            });
        }
    }
    None
}

/// T001 — tree/netlist path fidelity: every feasible root-to-leaf path
/// must be absorbed by its class's cover, and the netlist must equal the
/// tree on the thermometer-feasible domain (checked with
/// [`printed_logic::equiv::check_equivalence_on`] over the enumerated
/// feasible patterns, or a seeded feasible sample when the domain is
/// huge).
struct PathFidelity;

/// Above this many feasible patterns the equivalence leg samples instead
/// of enumerating (`Π (taps_per_feature + 1)` grows multiplicatively).
pub(crate) const FEASIBLE_ENUM_LIMIT: usize = 1 << 16;
pub(crate) const FEASIBLE_SAMPLES: usize = 4096;

impl Lint for PathFidelity {
    fn code(&self) -> &'static str {
        "T001"
    }
    fn description(&self) -> &'static str {
        "tree paths not reflected by the covers/netlist"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }
    fn run(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let Some(tree) = target.tree else {
            return;
        };
        if tree.n_classes() != target.class_sops.len() {
            out.push(Diagnostic::new(
                self.code(),
                self.default_severity(),
                "tree",
                format!(
                    "tree has {} classes but the design carries {} covers",
                    tree.n_classes(),
                    target.class_sops.len()
                ),
            ));
            return;
        }
        // Leg 1: every feasible path's cube is absorbed by its class's
        // cover. (Simplification only merges/absorbs cubes, so each
        // original path cube must still imply one surviving cube.)
        let mut reconstructible = true;
        for (idx, path) in tree.paths().iter().enumerate() {
            let mut lits = Vec::with_capacity(path.conditions.len());
            let mut mapped = true;
            for &(feature, threshold, polarity) in &path.conditions {
                match target.literals.binary_search(&(feature, threshold)) {
                    Ok(var) => lits.push((var, polarity)),
                    Err(_) => {
                        out.push(Diagnostic::new(
                            self.code(),
                            self.default_severity(),
                            format!("path{idx}"),
                            format!(
                                "path condition x{feature} ≥ {threshold} has no unary \
                                 literal in the design"
                            ),
                        ));
                        mapped = false;
                        reconstructible = false;
                    }
                }
            }
            if !mapped {
                continue;
            }
            // Contradictory or thermometer-infeasible paths can never
            // fire; synthesis is free to drop them.
            let Some(cube) = Cube::try_from_literals(&lits) else {
                continue;
            };
            if contradiction(&cube, target.literals).is_some() {
                continue;
            }
            let covered = target.class_sops[path.class]
                .cubes()
                .iter()
                .any(|cover| cube.implies(cover));
            if !covered {
                out.push(
                    Diagnostic::new(
                        self.code(),
                        self.default_severity(),
                        format!("path{idx}"),
                        format!(
                            "feasible root-to-leaf path {idx} (class {}) is not absorbed \
                             by the synthesized class cover",
                            path.class
                        ),
                    )
                    .suggest("the cover lost a path cube; re-derive it from the tree"),
                );
            }
        }
        // Leg 2: netlist ≡ tree on the feasible domain.
        if !reconstructible || target.netlist.input_count() != target.literals.len() {
            return; // A001 (or leg 1) already explains the mismatch
        }
        let reference = tree_netlist(tree, target.literals);
        let budget = |cap: usize| target.equiv_budget.map_or(cap, |b| b.min(cap));
        let (domain, _) = feasible_domain(
            target.literals,
            budget(FEASIBLE_ENUM_LIMIT),
            budget(FEASIBLE_SAMPLES),
            0x0ADC_11A7,
        );
        match check_equivalence_on(&reference, target.netlist, domain) {
            Equivalence::Equivalent { .. } => {}
            Equivalence::Counterexample {
                inputs,
                left,
                right,
            } => {
                out.push(
                    Diagnostic::new(
                        self.code(),
                        self.default_severity(),
                        "netlist",
                        format!(
                            "netlist diverges from the tree on the feasible input \
                             {inputs:?} (tree outputs {left:?}, netlist {right:?})"
                        ),
                    )
                    .suggest("re-synthesize the netlist from the tree"),
                );
            }
            Equivalence::Mismatched { reason } => {
                out.push(Diagnostic::new(
                    self.code(),
                    self.default_severity(),
                    "netlist",
                    format!("netlist shape does not match the tree's: {reason}"),
                ));
            }
        }
    }
}

/// The thermometer-feasible domain over `literals`: every pattern when
/// there are at most `limit`, else `samples` seeded ones. The flag is true
/// when the domain was enumerated.
pub(crate) fn feasible_domain(
    literals: &[(usize, u8)],
    limit: usize,
    samples: usize,
    seed: u64,
) -> (Vec<Vec<bool>>, bool) {
    let runs = feature_runs(literals);
    let size = runs
        .iter()
        .try_fold(1usize, |acc, &r| acc.checked_mul(r + 1))
        .unwrap_or(usize::MAX);
    if size <= limit {
        (thermometer_patterns(&runs), true)
    } else {
        (sample_thermometer_patterns(&runs, seed, samples), false)
    }
}

/// Rebuilds the paper's physical netlist (per-path AND chains, one OR per
/// class) straight from the tree — the independent reference T001
/// compares the design's netlist against.
pub(crate) fn tree_netlist(tree: &DecisionTree, literals: &[(usize, u8)]) -> Netlist {
    let mut nl = Netlist::new("lint-ref");
    let vars: Vec<Signal> = literals
        .iter()
        .map(|&(feature, tap)| nl.input(format!("u{feature}_{tap}")))
        .collect();
    let mut class_terms: Vec<Vec<Signal>> = vec![Vec::new(); tree.n_classes()];
    for path in tree.paths() {
        let mut acc = Signal::Const(true);
        let mut mapped = true;
        for &(feature, threshold, polarity) in &path.conditions {
            let Ok(var) = literals.binary_search(&(feature, threshold)) else {
                mapped = false;
                break;
            };
            let lit = if polarity {
                vars[var]
            } else {
                nl.gate(CellKind::Inv, &[vars[var]])
            };
            acc = nl.gate(CellKind::And2, &[acc, lit]);
        }
        if mapped {
            class_terms[path.class].push(acc);
        }
    }
    for (class, terms) in class_terms.into_iter().enumerate() {
        let out = or_tree(&mut nl, &terms);
        nl.output(format!("class{class}"), out);
    }
    nl.prune();
    nl
}

/// Lengths of the consecutive same-feature runs of the (sorted) literal
/// order — the thermometer group sizes of the input space.
pub(crate) fn feature_runs(literals: &[(usize, u8)]) -> Vec<usize> {
    let mut runs = Vec::new();
    let mut current: Option<(usize, usize)> = None;
    for &(feature, _) in literals {
        match &mut current {
            Some((f, len)) if *f == feature => *len += 1,
            _ => {
                if let Some((_, len)) = current.take() {
                    runs.push(len);
                }
                current = Some((feature, 1));
            }
        }
    }
    if let Some((_, len)) = current {
        runs.push(len);
    }
    runs
}

/// G001 — exploration-grid hygiene: empty or invalid ranges (errors) and
/// duplicate grid points whose derived training seeds collide (warnings —
/// `tau_seed` mixes `τ.to_bits()` bijectively, so seeds collide exactly
/// when the bit patterns repeat).
struct GridHygiene;

impl Lint for GridHygiene {
    fn code(&self) -> &'static str {
        "G001"
    }
    fn description(&self) -> &'static str {
        "exploration-grid hygiene"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warning
    }
    fn run(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let Some(grid) = &target.grid else {
            return;
        };
        if grid.taus.is_empty() {
            out.push(Diagnostic::new(
                self.code(),
                Severity::Error,
                "grid",
                "τ grid is empty — the sweep has no candidates",
            ));
        }
        if grid.depths.is_empty() {
            out.push(Diagnostic::new(
                self.code(),
                Severity::Error,
                "grid",
                "depth grid is empty — the sweep has no candidates",
            ));
        }
        let mut seen_taus: BTreeSet<u64> = BTreeSet::new();
        for &tau in grid.taus {
            if !tau.is_finite() || tau < 0.0 {
                out.push(Diagnostic::new(
                    self.code(),
                    Severity::Error,
                    "grid",
                    format!("τ={tau} is not a finite non-negative Gini slack"),
                ));
            } else if !seen_taus.insert(tau.to_bits()) {
                out.push(
                    Diagnostic::new(
                        self.code(),
                        Severity::Warning,
                        "grid",
                        format!(
                            "τ grid repeats {tau} — the duplicate grid points train \
                             with colliding derived seeds (seed base {:#x})",
                            grid.seed
                        ),
                    )
                    .suggest("deduplicate the τ grid"),
                );
            }
        }
        let mut seen_depths: BTreeSet<usize> = BTreeSet::new();
        for &depth in grid.depths {
            if !seen_depths.insert(depth) {
                out.push(
                    Diagnostic::new(
                        self.code(),
                        Severity::Warning,
                        "grid",
                        format!("depth grid repeats {depth} — duplicate grid points"),
                    )
                    .suggest("deduplicate the depth grid"),
                );
            }
        }
    }
}

/// P001 — the analog layer must agree with the logical artifacts: the
/// bank's resolution must match the model's, and the pruned ladder the
/// bank implies must *electrically* (MNA-solved) produce strictly
/// increasing tap voltages that track the ideal references. Every
/// analog-layer failure surfaces as a diagnostic — the pass never panics,
/// even on models with corrupted electrical parameters.
struct LadderMonotonicity;

impl Lint for LadderMonotonicity {
    fn code(&self) -> &'static str {
        "P001"
    }
    fn description(&self) -> &'static str {
        "pruned-ladder tap voltages drift from the ideal references"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }
    fn run(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let bits = target.bank.bits();
        if bits != target.model.resolution_bits {
            out.push(
                Diagnostic::new(
                    self.code(),
                    self.default_severity(),
                    "ladder",
                    format!(
                        "bank quantizes at {bits} bits but the analog model resolves \
                         {} bits — the taps do not name the model's reference nodes",
                        target.model.resolution_bits
                    ),
                )
                .suggest("re-price the design with a model at the bank's resolution"),
            );
            return;
        }
        let distinct = target.bank.distinct_taps();
        if distinct.is_empty() {
            return;
        }
        let supply = target.model.supply.volts();
        let unit_ohms = target.model.unit_resistor.ohms();
        if !(supply > 0.0 && supply.is_finite() && unit_ohms > 0.0 && unit_ohms.is_finite()) {
            out.push(Diagnostic::new(
                self.code(),
                self.default_severity(),
                "ladder",
                format!(
                    "analog model is electrically invalid (supply {supply} V, unit \
                     resistor {unit_ohms} Ω) — the ladder cannot be solved"
                ),
            ));
            return;
        }
        let ladder = match Ladder::pruned(bits, &distinct, supply, unit_ohms) {
            Ok(ladder) => ladder,
            Err(error) => {
                out.push(Diagnostic::new(
                    self.code(),
                    self.default_severity(),
                    "ladder",
                    format!("the bank's distinct taps do not form a buildable ladder: {error}"),
                ));
                return;
            }
        };
        let voltages = match ladder.tap_voltages() {
            Ok(voltages) => voltages,
            Err(error) => {
                out.push(Diagnostic::new(
                    self.code(),
                    self.default_severity(),
                    "ladder",
                    format!("the pruned ladder's MNA system did not solve: {error}"),
                ));
                return;
            }
        };
        let mut prev = 0.0;
        for &tap in &distinct {
            let Some(&solved) = voltages.get(&tap) else {
                out.push(Diagnostic::new(
                    self.code(),
                    self.default_severity(),
                    format!("ladder tap {tap}"),
                    format!("the solved ladder reports no voltage for tap {tap}"),
                ));
                continue;
            };
            let ideal = ladder.ideal_tap_voltage(tap);
            if solved <= prev {
                out.push(Diagnostic::new(
                    self.code(),
                    self.default_severity(),
                    format!("ladder tap {tap}"),
                    format!(
                        "tap {tap} solves to {solved:.6} V, not above the previous tap's \
                         {prev:.6} V — the reference ladder is electrically non-monotone"
                    ),
                ));
            }
            if (solved - ideal).abs() > 1e-6 * supply {
                out.push(Diagnostic::new(
                    self.code(),
                    self.default_severity(),
                    format!("ladder tap {tap}"),
                    format!(
                        "tap {tap} solves to {solved:.9} V but the ideal divider gives \
                         {ideal:.9} V — the pruned ladder is mis-sized"
                    ),
                ));
            }
            prev = solved;
        }
    }
}

/// P002 — ordering agreement between the retained thresholds, the
/// literal order every other pass binary-searches, and the netlist's
/// input wiring: `literals` must be strictly ascending by
/// `(feature, tap)`, each netlist input `u{f}_{t}` must sit at its
/// literal's position (crossed wires silently permute the comparator
/// outputs), and each feature's retained references must be strictly
/// increasing in voltage.
struct ReferenceOrdering;

impl Lint for ReferenceOrdering {
    fn code(&self) -> &'static str {
        "P002"
    }
    fn description(&self) -> &'static str {
        "comparator reference ordering disagrees with the retained thresholds"
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }
    fn run(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        for (i, pair) in target.literals.windows(2).enumerate() {
            if pair[0] >= pair[1] {
                let (f0, t0) = pair[0];
                let (f1, t1) = pair[1];
                out.push(
                    Diagnostic::new(
                        self.code(),
                        self.default_severity(),
                        format!("literal {i}"),
                        format!(
                            "literal order is not strictly ascending: (x{f0}, tap {t0}) \
                             precedes (x{f1}, tap {t1}) — binary-searched passes and the \
                             thermometer interval arithmetic both assume sorted literals"
                        ),
                    )
                    .suggest("sort the literal order by (feature, tap) and rebuild the covers"),
                );
            }
        }
        for (i, name) in target.netlist.input_names().iter().enumerate() {
            let Some((feature, tap)) = input_name_pair(name) else {
                continue;
            };
            let Some(&(want_feature, want_tap)) = target.literals.get(i) else {
                continue; // count mismatch is A001's finding
            };
            if (feature, tap) != (want_feature, want_tap as usize) {
                out.push(
                    Diagnostic::new(
                        self.code(),
                        self.default_severity(),
                        format!("netlist input {i}"),
                        format!(
                            "netlist input {i} is wired to {name} but the design's \
                             literal order places u{want_feature}_{want_tap} there — \
                             the comparator outputs are crossed"
                        ),
                    )
                    .suggest("re-synthesize the netlist in the design's literal order"),
                );
            }
        }
        if target.bank.bits() == target.model.resolution_bits {
            for (feature, taps) in target.bank.iter() {
                let mut prev = f64::NEG_INFINITY;
                for tap in taps {
                    if tap == 0 || tap > target.model.tap_count() {
                        continue; // P001 reports the resolution breakage
                    }
                    let volts = target.model.reference_voltage(tap).volts();
                    if volts <= prev {
                        out.push(Diagnostic::new(
                            self.code(),
                            self.default_severity(),
                            format!("adc x{feature} tap {tap}"),
                            format!(
                                "reference for x{feature} ≥ {tap} is {volts:.6} V, not \
                                 above the previous retained reference {prev:.6} V"
                            ),
                        ));
                    }
                    prev = volts;
                }
            }
        }
    }
}

/// P003 — sag-margin sanity: under the worst-case supply sag the droop
/// model allows, every retained reference must stay inside its own code
/// bin (shift < 1 LSB) and above ground. A reference that escapes its
/// bin reorders decision boundaries exactly when the harvester browns
/// out — suspicious, not provably wrong, hence a warning.
struct SagMargin;

impl Lint for SagMargin {
    fn code(&self) -> &'static str {
        "P003"
    }
    fn description(&self) -> &'static str {
        "retained reference lacks margin under worst-case supply sag"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warning
    }
    fn run(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let Some(droop) = target.droop else {
            return;
        };
        let sag = droop.max_sag;
        if !(sag > 0.0 && sag.is_finite()) {
            return;
        }
        let lsb = 1.0 / (1u64 << target.bank.bits()) as f64;
        for (feature, taps) in target.bank.iter() {
            for tap in taps {
                let nominal = tap as f64 * lsb;
                // Same shift the droop campaign applies at full sag: the
                // reference leaks proportionally and the comparator offset
                // drifts additively (normalized full-scale units).
                let shift = nominal * droop.vref_leak * sag + droop.offset_per_sag * sag;
                let effective = nominal - shift;
                if effective <= 0.0 {
                    out.push(
                        Diagnostic::new(
                            self.code(),
                            self.default_severity(),
                            format!("adc x{feature} tap {tap}"),
                            format!(
                                "at {:.0}% sag the reference for x{feature} ≥ {tap} \
                                 droops to {effective:.4} of full scale — the comparator \
                                 saturates and the boundary vanishes",
                                sag * 100.0
                            ),
                        )
                        .suggest("raise the tap or regulate the reference supply"),
                    );
                } else if shift >= lsb {
                    out.push(
                        Diagnostic::new(
                            self.code(),
                            self.default_severity(),
                            format!("adc x{feature} tap {tap}"),
                            format!(
                                "at {:.0}% sag the reference for x{feature} ≥ {tap} \
                                 shifts by {shift:.4} of full scale (≥ 1 LSB = {lsb:.4}) \
                                 — the decision boundary leaves its code bin",
                                sag * 100.0
                            ),
                        )
                        .suggest("tighten the droop budget or retrain with sag-aware thresholds"),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DroopRef, GridRef, LintReport, Linter};
    use printed_adc::{AdcCost, BespokeAdcBank};
    use printed_dtree::Node;
    use printed_logic::sop::Sop;
    use printed_pdk::AnalogModel;

    /// A hand-built design that is correct by construction: one feature
    /// with two taps (so thermometer structure is exercised), disjoint
    /// covers, a faithful netlist, and a matching bank/cost/grid.
    struct Fixture {
        tree: DecisionTree,
        netlist: Netlist,
        bank: BespokeAdcBank,
        literals: Vec<(usize, u8)>,
        class_sops: Vec<Sop>,
        reported: AdcCost,
        model: AnalogModel,
        taus: Vec<f64>,
        depths: Vec<usize>,
        droop: DroopRef,
    }

    impl Fixture {
        fn pristine() -> Self {
            // x0 < 3 → class 0; 3 ≤ x0 < 9 → class 0; x0 ≥ 9 → class 1.
            let tree = DecisionTree::from_nodes(
                4,
                1,
                2,
                vec![
                    Node::Split {
                        feature: 0,
                        threshold: 3,
                        lo: 1,
                        hi: 2,
                    },
                    Node::Leaf { class: 0 },
                    Node::Split {
                        feature: 0,
                        threshold: 9,
                        lo: 3,
                        hi: 4,
                    },
                    Node::Leaf { class: 0 },
                    Node::Leaf { class: 1 },
                ],
            )
            .unwrap();
            let literals = vec![(0usize, 3u8), (0, 9)];
            // Covers as the unary transform would simplify them: class 0
            // = ¬v0 + v0·¬v1, class 1 = v1 (sound on the feasible
            // domain; disjoint everywhere).
            let class_sops = vec![
                Sop::from_cubes(
                    2,
                    vec![
                        Cube::from_literals(&[(0, false)]),
                        Cube::from_literals(&[(0, true), (1, false)]),
                    ],
                ),
                Sop::from_cubes(2, vec![Cube::from_literals(&[(1, true)])]),
            ];
            let netlist = tree_netlist(&tree, &literals);
            let mut bank = BespokeAdcBank::new(4);
            bank.require(0, 3).unwrap();
            bank.require(0, 9).unwrap();
            let model = AnalogModel::egfet();
            let reported = bank.cost(&model);
            Self {
                tree,
                netlist,
                bank,
                literals,
                class_sops,
                reported,
                model,
                taus: vec![0.0, 0.01, 0.05],
                depths: vec![2, 3, 4],
                // The EGFET-calibrated printed defaults: 40% worst sag,
                // 12% reference leak, 4% offset drift per unit sag.
                droop: DroopRef {
                    max_sag: 0.4,
                    vref_leak: 0.12,
                    offset_per_sag: 0.04,
                },
            }
        }

        fn lint(&self) -> LintReport {
            let target = LintTarget {
                tree: Some(&self.tree),
                netlist: &self.netlist,
                bank: &self.bank,
                literals: &self.literals,
                class_sops: &self.class_sops,
                reported_adc: Some(&self.reported),
                model: &self.model,
                grid: Some(GridRef {
                    taus: &self.taus,
                    depths: &self.depths,
                    seed: 0x0ADC,
                }),
                droop: Some(self.droop),
                equiv_budget: None,
            };
            Linter::new().run(&target)
        }

        /// Asserts the report contains exactly one finding of `code` and
        /// nothing else.
        fn assert_only(&self, code: &str) {
            let report = self.lint();
            assert_eq!(
                report.with_code(code).count(),
                1,
                "expected one {code}: {report:?}"
            );
            assert_eq!(
                report.diagnostics.len(),
                1,
                "expected no other findings: {}",
                report.render_text()
            );
        }
    }

    #[test]
    fn pristine_design_is_clean() {
        let report = Fixture::pristine().lint();
        assert!(report.diagnostics.is_empty(), "{}", report.render_text());
    }

    #[test]
    fn u001_fires_on_a_thermometer_contradictory_cube() {
        let mut fx = Fixture::pristine();
        // x0 < 3 AND x0 ≥ 9: impossible, but not a same-variable conflict.
        let mut cubes = fx.class_sops[1].cubes().to_vec();
        cubes.push(Cube::from_literals(&[(0, false), (1, true)]));
        fx.class_sops[1] = Sop::from_cubes(2, cubes);
        fx.assert_only("U001");
        let report = fx.lint();
        let d = report.with_code("U001").next().unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("x0 ≥ 9"), "{}", d.message);
        assert!(d.message.contains("x0 < 3"), "{}", d.message);
    }

    #[test]
    fn u002_fires_on_a_dominated_literal() {
        let mut fx = Fixture::pristine();
        // x0 ≥ 3 AND x0 ≥ 9: the tap-3 literal is implied by the tap-9 one.
        fx.class_sops[1] = Sop::from_cubes(2, vec![Cube::from_literals(&[(0, true), (1, true)])]);
        fx.assert_only("U002");
        let d = fx.lint().diagnostics.remove(0);
        assert!(d.message.contains("x0 ≥ 3"), "{}", d.message);
        assert!(d.suggestion.is_some());
    }

    #[test]
    fn a001_fires_when_a_read_tap_has_no_comparator() {
        let mut fx = Fixture::pristine();
        let mut bank = BespokeAdcBank::new(4);
        bank.require(0, 3).unwrap(); // tap 9 dropped
        fx.reported = bank.cost(&fx.model); // keep C001 out of the picture
        fx.bank = bank;
        fx.assert_only("A001");
        let report = fx.lint();
        let d = report.with_code("A001").next().unwrap();
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.locus, "u0_9");
        assert!(report.has_errors());
    }

    #[test]
    fn a001_fires_on_an_input_count_mismatch() {
        let mut fx = Fixture::pristine();
        let mut netlist = Netlist::new("extra-input");
        let v0 = netlist.input("u0_3");
        let v1 = netlist.input("u0_9");
        let _stray = netlist.input("u1_5");
        let nv0 = netlist.gate(CellKind::Inv, &[v0]);
        let nv1 = netlist.gate(CellKind::Inv, &[v1]);
        let c0 = netlist.gate(CellKind::Or2, &[nv0, nv1]);
        netlist.output("class0", c0);
        netlist.output("class1", v1);
        fx.netlist = netlist;
        let report = fx.lint();
        // The stray u1_5 input trips both the count check and the
        // missing-comparator check; T001 stands down (A001 explains it).
        assert!(report.with_code("A001").count() >= 2, "{report:?}");
        assert!(report.diagnostics.iter().all(|d| d.code == "A001"));
    }

    #[test]
    fn a002_fires_on_a_dead_comparator() {
        let mut fx = Fixture::pristine();
        fx.bank.require(0, 12).unwrap(); // retained, read by nothing
        fx.reported = fx.bank.cost(&fx.model);
        // The netlist keeps its two inputs; the bank now has three taps —
        // input-count lint compares netlist vs literals, so only A002
        // fires.
        fx.assert_only("A002");
        let d = fx.lint().diagnostics.remove(0);
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.locus, "adc x0 tap 12");
        assert!(d.message.contains("µW"), "{}", d.message);
    }

    #[test]
    fn c001_fires_on_cost_drift() {
        let mut fx = Fixture::pristine();
        fx.reported.comparators += 1;
        fx.assert_only("C001");
        let d = fx.lint().diagnostics.remove(0);
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("comparators"), "{}", d.message);

        let mut fx = Fixture::pristine();
        fx.reported.ladder_resistors = 99;
        fx.assert_only("C001");
    }

    #[test]
    fn l001_fires_on_overlapping_classes() {
        let mut fx = Fixture::pristine();
        // v0 alone (x0 ≥ 3) intersects class 0's v0·¬v1 on 3 ≤ x0 < 9.
        let mut cubes = fx.class_sops[1].cubes().to_vec();
        cubes.push(Cube::from_literals(&[(0, true)]));
        fx.class_sops[1] = Sop::from_cubes(2, cubes);
        fx.assert_only("L001");
        let d = fx.lint().diagnostics.remove(0);
        assert_eq!(d.locus, "class0×class1");
        assert!(d.message.contains("x0=3"), "witness: {}", d.message);
    }

    #[test]
    fn t001_fires_when_a_path_is_not_covered() {
        let mut fx = Fixture::pristine();
        fx.class_sops[1] = Sop::constant_false(2); // class 1's cover vanished
        fx.assert_only("T001");
        let d = fx.lint().diagnostics.remove(0);
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("not absorbed"), "{}", d.message);
    }

    #[test]
    fn t001_fires_when_the_netlist_diverges_from_the_tree() {
        let mut fx = Fixture::pristine();
        // Same shape, swapped leaf classes: differs on every feasible input.
        let swapped = DecisionTree::from_nodes(
            4,
            1,
            2,
            vec![
                Node::Split {
                    feature: 0,
                    threshold: 3,
                    lo: 1,
                    hi: 2,
                },
                Node::Leaf { class: 1 },
                Node::Split {
                    feature: 0,
                    threshold: 9,
                    lo: 3,
                    hi: 4,
                },
                Node::Leaf { class: 1 },
                Node::Leaf { class: 0 },
            ],
        )
        .unwrap();
        fx.netlist = tree_netlist(&swapped, &fx.literals);
        let report = fx.lint();
        let diag = report.with_code("T001").next().expect("T001 fires");
        assert!(diag.message.contains("diverges"), "{}", diag.message);
        assert!(report.diagnostics.iter().all(|d| d.code == "T001"));
    }

    #[test]
    fn t001_ignores_unreachable_paths() {
        // A tree with a thermometer-contradictory path (hi on tap 9, then
        // lo on tap 3): synthesis drops it, and T001 must not demand it.
        let tree = DecisionTree::from_nodes(
            4,
            1,
            2,
            vec![
                Node::Split {
                    feature: 0,
                    threshold: 9,
                    lo: 1,
                    hi: 2,
                },
                Node::Leaf { class: 0 },
                Node::Split {
                    feature: 0,
                    threshold: 3,
                    lo: 3,
                    hi: 4,
                },
                Node::Leaf { class: 1 }, // x0 ≥ 9 ∧ x0 < 3: unreachable
                Node::Leaf { class: 1 },
            ],
        )
        .unwrap();
        let mut fx = Fixture::pristine();
        fx.tree = tree;
        fx.netlist = tree_netlist(&fx.tree, &fx.literals);
        // Covers for the reachable behavior: class 0 = ¬v1, class 1 = v1
        // (v0 = tap 3, v1 = tap 9).
        fx.class_sops = vec![
            Sop::from_cubes(2, vec![Cube::from_literals(&[(1, false)])]),
            Sop::from_cubes(2, vec![Cube::from_literals(&[(1, true)])]),
        ];
        let report = fx.lint();
        assert!(
            report.with_code("T001").count() == 0,
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn g001_flags_grid_hygiene() {
        let mut fx = Fixture::pristine();
        fx.taus = vec![0.0, 0.01, 0.01];
        fx.assert_only("G001");
        let d = fx.lint().diagnostics.remove(0);
        assert_eq!(d.severity, Severity::Warning);
        assert!(
            d.message.contains("colliding derived seeds"),
            "{}",
            d.message
        );

        let mut fx = Fixture::pristine();
        fx.depths = vec![];
        fx.assert_only("G001");
        assert!(fx.lint().has_errors(), "empty depth range is an error");

        let mut fx = Fixture::pristine();
        fx.taus = vec![-0.5, f64::NAN];
        let report = fx.lint();
        assert_eq!(report.with_code("G001").count(), 2);
        assert_eq!(report.error_count(), 2);

        let mut fx = Fixture::pristine();
        fx.depths = vec![2, 2, 3];
        fx.assert_only("G001");
    }

    #[test]
    fn optional_fields_gate_their_passes() {
        let fx = Fixture::pristine();
        let target = LintTarget {
            tree: None,
            netlist: &fx.netlist,
            bank: &fx.bank,
            literals: &fx.literals,
            class_sops: &fx.class_sops,
            reported_adc: None,
            model: &fx.model,
            grid: None,
            droop: None,
            equiv_budget: None,
        };
        // No tree → no T001, no cost → no C001, no grid → no G001, no
        // droop → no P003; the structural passes still run and stay
        // clean.
        let report = Linter::new().run(&target);
        assert!(report.diagnostics.is_empty(), "{}", report.render_text());
    }

    #[test]
    fn p001_fires_on_a_resolution_mismatch() {
        // A 3-bit model under a 4-bit bank: the bank's taps no longer
        // name the model's reference nodes. C001/T001 are gated out so
        // the cross-layer finding surfaces alone (pricing the bank on
        // the mismatched model would panic before ever drifting).
        let fx = Fixture::pristine();
        let model = AnalogModel::egfet_with_bits(3);
        let target = LintTarget {
            tree: None,
            netlist: &fx.netlist,
            bank: &fx.bank,
            literals: &fx.literals,
            class_sops: &fx.class_sops,
            reported_adc: None,
            model: &model,
            grid: None,
            droop: None,
            equiv_budget: None,
        };
        let report = Linter::new().run(&target);
        let diags: Vec<_> = report.with_code("P001").collect();
        assert_eq!(diags.len(), 1, "{}", report.render_text());
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("4 bits"), "{}", diags[0].message);
        assert!(
            report.diagnostics.iter().all(|d| d.code == "P001"),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn p001_fires_on_an_unsolvable_analog_model() {
        let mut fx = Fixture::pristine();
        fx.model.supply = printed_pdk::Voltage::from_v(0.0);
        let target = LintTarget {
            tree: None,
            netlist: &fx.netlist,
            bank: &fx.bank,
            literals: &fx.literals,
            class_sops: &fx.class_sops,
            reported_adc: None,
            model: &fx.model,
            grid: None,
            droop: None,
            equiv_budget: None,
        };
        let report = Linter::new().run(&target);
        let diag = report.with_code("P001").next().expect("P001 fires");
        assert!(
            diag.message.contains("electrically invalid"),
            "{}",
            diag.message
        );
    }

    #[test]
    fn p002_fires_on_crossed_netlist_inputs() {
        // The same gates, but the input declaration order swapped: every
        // positional read now sees the other comparator's digit.
        let mut fx = Fixture::pristine();
        let mut netlist = Netlist::new("crossed");
        let v1 = netlist.input("u0_9");
        let v0 = netlist.input("u0_3");
        let nv0 = netlist.gate(CellKind::Inv, &[v0]);
        let nv1 = netlist.gate(CellKind::Inv, &[v1]);
        let lo = netlist.gate(CellKind::And2, &[v0, nv1]);
        let c0 = netlist.gate(CellKind::Or2, &[nv0, lo]);
        netlist.output("class0", c0);
        netlist.output("class1", v1);
        fx.netlist = netlist;
        let target = LintTarget {
            tree: None, // T001 would (rightly) also flag the crossed wiring
            netlist: &fx.netlist,
            bank: &fx.bank,
            literals: &fx.literals,
            class_sops: &fx.class_sops,
            reported_adc: Some(&fx.reported),
            model: &fx.model,
            grid: None,
            droop: Some(fx.droop),
            equiv_budget: None,
        };
        let report = Linter::new().run(&target);
        let diags: Vec<_> = report.with_code("P002").collect();
        assert_eq!(diags.len(), 2, "{}", report.render_text());
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("crossed"), "{}", diags[0].message);
        assert!(report.diagnostics.iter().all(|d| d.code == "P002"));
    }

    #[test]
    fn p002_fires_on_unsorted_literals() {
        let fx = Fixture::pristine();
        let backwards = vec![(0usize, 9u8), (0, 3)];
        let target = LintTarget {
            tree: None,
            netlist: &fx.netlist,
            bank: &fx.bank,
            literals: &backwards,
            class_sops: &fx.class_sops,
            reported_adc: None,
            model: &fx.model,
            grid: None,
            droop: None,
            equiv_budget: None,
        };
        let report = Linter::new().run(&target);
        let diag = report.with_code("P002").next().expect("P002 fires");
        assert!(
            diag.message.contains("strictly ascending"),
            "{}",
            diag.message
        );
    }

    #[test]
    fn p003_fires_when_sag_moves_a_reference_out_of_its_bin() {
        let mut fx = Fixture::pristine();
        // A harvester this leaky shifts both retained references by more
        // than one LSB at full sag: tap 9 moves 0.5625·0.36 + 0.016 ≈
        // 0.218 of full scale, 3.5 code bins.
        fx.droop.vref_leak = 0.9;
        let report = fx.lint();
        let diags: Vec<_> = report.with_code("P003").collect();
        assert_eq!(diags.len(), 2, "{}", report.render_text());
        assert!(diags.iter().all(|d| d.severity == Severity::Warning));
        assert!(
            diags[1].message.contains("leaves its code bin"),
            "{}",
            diags[1].message
        );
        assert!(report.diagnostics.iter().all(|d| d.code == "P003"));
    }

    #[test]
    fn p003_fires_when_sag_saturates_a_comparator() {
        let mut fx = Fixture::pristine();
        // Offset drift alone swallows the tap-3 reference: 0.1875 of
        // full scale nominal, 0.5·0.4 = 0.2 of drift.
        fx.droop.offset_per_sag = 0.5;
        let report = fx.lint();
        let saturated: Vec<_> = report
            .with_code("P003")
            .filter(|d| d.message.contains("saturates"))
            .collect();
        assert_eq!(saturated.len(), 1, "{}", report.render_text());
        assert_eq!(saturated[0].locus, "adc x0 tap 3");
    }

    #[test]
    fn p003_stays_quiet_at_the_printed_default_droop() {
        // The acceptance boundary: at 4 bits the worst printed-default
        // shift (tap 15: 0.9375·0.048 + 0.016 ≈ 0.061) stays under the
        // 0.0625 LSB, so even a full-scale bank lints clean.
        let mut fx = Fixture::pristine();
        for tap in 1..=15 {
            fx.bank.require(1, tap).unwrap();
        }
        let target = LintTarget {
            tree: None,
            netlist: &fx.netlist,
            bank: &fx.bank,
            literals: &fx.literals,
            class_sops: &fx.class_sops,
            reported_adc: None,
            model: &fx.model,
            grid: None,
            droop: Some(fx.droop),
            equiv_budget: None,
        };
        let report = Linter::new().run(&target);
        assert_eq!(
            report.with_code("P003").count(),
            0,
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn feature_runs_group_consecutive_literals() {
        assert_eq!(feature_runs(&[(0, 3), (0, 9), (2, 5)]), vec![2, 1]);
        assert_eq!(feature_runs(&[]), Vec::<usize>::new());
    }
}
