//! Stuck-at fault analysis.
//!
//! Printed fabrication yield is far below silicon's: a gate output stuck at
//! 0 or 1 is a realistic defect. This module enumerates single stuck-at
//! faults over a netlist's gate outputs and evaluates the faulty circuit,
//! so callers can measure behavioral impact (a classifier's accuracy under
//! each fault, test-pattern coverage, etc.). Whole campaigns run on the
//! bit-sliced simulator in [`crate::sim`].
//!
//! ```
//! use printed_logic::faults::{enumerate_faults, FaultyNetlist, StuckAt};
//! use printed_logic::netlist::Netlist;
//! use printed_pdk::CellKind;
//!
//! let mut nl = Netlist::new("and");
//! let a = nl.input("a");
//! let b = nl.input("b");
//! let y = nl.gate(CellKind::And2, &[a, b]);
//! nl.output("y", y);
//!
//! let faults = enumerate_faults(&nl);
//! assert_eq!(faults.len(), 2); // gate 0 stuck-at-0 and stuck-at-1
//! let faulty = FaultyNetlist::new(&nl, faults[1]); // stuck-at-1
//! assert_eq!(faulty.eval(&[false, false]), vec![true]);
//! ```

use serde::{Deserialize, Serialize};

use crate::netlist::{Netlist, Signal};
use crate::sim::FaultSim;

/// One single stuck-at fault: gate `gate`'s output forced to `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StuckAt {
    /// The gate whose output is stuck.
    pub gate: usize,
    /// The stuck value.
    pub value: bool,
}

/// Enumerates every single stuck-at fault on the netlist's gate outputs
/// (two per gate), in ascending gate order.
pub fn enumerate_faults(netlist: &Netlist) -> Vec<StuckAt> {
    (0..netlist.gate_count())
        .flat_map(|gate| {
            [
                StuckAt { gate, value: false },
                StuckAt { gate, value: true },
            ]
        })
        .collect()
}

/// A netlist view with one injected stuck-at fault, evaluated one pattern
/// at a time. Campaigns run on the bit-sliced [`FaultSim`]; this direct
/// evaluator is the reference it is tested against.
#[derive(Debug, Clone, Copy)]
pub struct FaultyNetlist<'a> {
    netlist: &'a Netlist,
    fault: StuckAt,
}

impl<'a> FaultyNetlist<'a> {
    /// Wraps `netlist` with `fault` injected.
    ///
    /// # Panics
    ///
    /// Panics if the fault references a gate outside the netlist.
    pub fn new(netlist: &'a Netlist, fault: StuckAt) -> Self {
        assert!(
            fault.gate < netlist.gate_count(),
            "fault on missing gate {}",
            fault.gate
        );
        Self { netlist, fault }
    }

    /// The injected fault.
    pub fn fault(&self) -> StuckAt {
        self.fault
    }

    /// Evaluates the faulty circuit.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` does not match the netlist's input count.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(
            inputs.len(),
            self.netlist.input_count(),
            "wrong number of input values"
        );
        let mut values = Vec::with_capacity(self.netlist.gate_count());
        for (g, gate) in self.netlist.gates().iter().enumerate() {
            let out = if g == self.fault.gate {
                self.fault.value
            } else {
                let args: Vec<bool> = gate
                    .inputs
                    .iter()
                    .map(|&s| self.value_of(s, inputs, &values))
                    .collect();
                gate.kind.eval(&args)
            };
            values.push(out);
        }
        self.netlist
            .outputs()
            .iter()
            .map(|&(_, s)| self.value_of(s, inputs, &values))
            .collect()
    }

    fn value_of(&self, signal: Signal, inputs: &[bool], values: &[bool]) -> bool {
        match signal {
            Signal::Input(i) => inputs[i],
            Signal::Gate(g) => values[g],
            Signal::Const(b) => b,
        }
    }
}

/// Summary of a fault campaign over a set of stimulus patterns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultCampaign {
    /// Faults injected.
    pub total_faults: usize,
    /// Faults whose output differed from the good circuit on at least one
    /// pattern (i.e. *detectable* by the pattern set).
    pub detected: usize,
    /// Per-fault count of differing patterns, aligned with
    /// [`enumerate_faults`] order.
    pub mismatch_counts: Vec<usize>,
}

impl FaultCampaign {
    /// Fault coverage of the pattern set: detected / total.
    pub fn coverage(&self) -> f64 {
        if self.total_faults == 0 {
            1.0
        } else {
            self.detected as f64 / self.total_faults as f64
        }
    }
}

/// Runs every single stuck-at fault against every stimulus pattern and
/// reports detectability — both a manufacturing-test metric (coverage of a
/// pattern set) and, via `mismatch_counts`, a behavioral-sensitivity
/// profile (how often each fault corrupts the output in service). The
/// patterns are simulated 64 to a word on a [`FaultSim`].
///
/// # Panics
///
/// Panics if a pattern's length does not match the input count.
pub fn fault_campaign(netlist: &Netlist, patterns: &[Vec<bool>]) -> FaultCampaign {
    let faults = enumerate_faults(netlist);
    let mut sim = FaultSim::new(netlist, patterns);
    let mismatch_counts: Vec<usize> = faults
        .iter()
        .map(|&fault| {
            sim.inject(fault);
            sim.mismatches()
        })
        .collect();
    FaultCampaign {
        total_faults: faults.len(),
        detected: mismatch_counts.iter().filter(|&&c| c > 0).count(),
        mismatch_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks;
    use printed_pdk::CellKind;

    fn and_or() -> Netlist {
        let mut nl = Netlist::new("ao");
        let a = nl.input("a");
        let b = nl.input("b");
        let c = nl.input("c");
        let ab = nl.gate(CellKind::And2, &[a, b]);
        let y = nl.gate(CellKind::Or2, &[ab, c]);
        nl.output("y", y);
        nl
    }

    #[test]
    fn fault_free_matches_good_circuit() {
        let nl = and_or();
        // A fault on a gate that doesn't change the value for this input.
        let faulty = FaultyNetlist::new(
            &nl,
            StuckAt {
                gate: 0,
                value: true,
            },
        );
        assert_eq!(
            faulty.eval(&[true, true, false]),
            nl.eval(&[true, true, false])
        );
    }

    #[test]
    fn stuck_output_overrides_logic() {
        let nl = and_or();
        let sa0 = FaultyNetlist::new(
            &nl,
            StuckAt {
                gate: 1,
                value: false,
            },
        );
        // Output gate stuck at 0: always 0.
        for p in 0..8u32 {
            let inputs = [(p & 1) != 0, (p & 2) != 0, (p & 4) != 0];
            assert_eq!(sa0.eval(&inputs), vec![false]);
        }
    }

    #[test]
    fn exhaustive_patterns_detect_every_fault_in_irredundant_logic() {
        let nl = and_or();
        let patterns: Vec<Vec<bool>> = (0..8u32)
            .map(|p| (0..3).map(|k| (p >> k) & 1 == 1).collect())
            .collect();
        let campaign = fault_campaign(&nl, &patterns);
        assert_eq!(campaign.total_faults, 4);
        assert_eq!(campaign.detected, 4, "AND-OR is irredundant");
        assert!((campaign.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weak_pattern_sets_miss_faults() {
        let nl = and_or();
        // One pattern cannot distinguish both polarities of both gates.
        let campaign = fault_campaign(&nl, &[vec![false, false, false]]);
        assert!(campaign.detected < campaign.total_faults);
        assert!(campaign.coverage() < 1.0);
    }

    #[test]
    fn comparator_chain_fault_sensitivity() {
        // Faults near the output corrupt more patterns than deep faults.
        let mut nl = Netlist::new("cmp");
        let bus = nl.input_bus("i", 4);
        let out = blocks::gte_const(&mut nl, &bus, 11);
        nl.output("o", out);
        let patterns: Vec<Vec<bool>> = (0..16u32)
            .map(|v| (0..4).map(|k| (v >> k) & 1 == 1).collect())
            .collect();
        let campaign = fault_campaign(&nl, &patterns);
        let faults = enumerate_faults(&nl);
        // The last gate drives the output: its stuck-at faults corrupt the
        // most patterns.
        let last_gate = nl.gate_count() - 1;
        let worst = campaign
            .mismatch_counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(i, _)| faults[i].gate)
            .unwrap();
        assert_eq!(worst, last_gate);
    }

    #[test]
    fn empty_netlist_has_full_coverage() {
        let mut nl = Netlist::new("wire");
        let a = nl.input("a");
        nl.output("a", a);
        let campaign = fault_campaign(&nl, &[vec![true]]);
        assert_eq!(campaign.total_faults, 0);
        assert_eq!(campaign.coverage(), 1.0);
    }

    #[test]
    #[should_panic(expected = "missing gate")]
    fn rejects_out_of_range_fault() {
        let nl = and_or();
        FaultyNetlist::new(
            &nl,
            StuckAt {
                gate: 99,
                value: false,
            },
        );
    }
}
