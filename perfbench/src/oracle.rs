//! Output oracles. Each is an identity the outputs satisfy on any split,
//! so none depends on stored golden values.

use std::collections::hash_map::DefaultHasher;
use std::fmt::{self, Write as _};
use std::hash::Hasher;

use printed_codesign::{
    decode_one_hot, fault_robustness, CampaignOutcome, CandidateDesign, Exploration,
    ExplorationConfig, FlowOutcome, RobustnessCampaign, RobustnessProfile,
};
use printed_datasets::QuantizedDataset;

use crate::workload::Split;

/// `Ok`, or why a job's output is wrong.
pub type Verdict = Result<(), String>;

fn ensure(holds: bool, why: impl FnOnce() -> String) -> Verdict {
    if holds {
        Ok(())
    } else {
        Err(why())
    }
}

/// `lo ≤ mean ≤ hi` for a mean summed from `n` values in `[lo, hi]`, up
/// to the summation's rounding (`n·ε·max(|lo|, |hi|)`): equal trials can
/// sum to a mean a few ulps above their common value.
fn mean_within(lo: f64, mean: f64, hi: f64, n: usize) -> bool {
    let slack = n as f64 * f64::EPSILON * lo.abs().max(hi.abs());
    lo - slack <= mean && mean <= hi + slack
}

/// Power, then area: the order selection minimizes.
fn cheaper(a: &CandidateDesign, b: &CandidateDesign) -> std::cmp::Ordering {
    let (pa, pb) = (a.system.total_power().uw(), b.system.total_power().uw());
    pa.total_cmp(&pb).then_with(|| {
        a.system
            .total_area()
            .mm2()
            .total_cmp(&b.system.total_area().mm2())
    })
}

fn profile_of<'a>(
    campaign: &'a CampaignOutcome,
    design: &CandidateDesign,
) -> Option<&'a RobustnessProfile> {
    campaign
        .profiles
        .iter()
        .find(|p| p.depth == design.depth && p.tau.to_bits() == design.tau.to_bits())
        .map(|p| &p.profile)
}

/// The design the flow should have chosen, recomputed from the returned
/// candidates (and profiles, when a campaign ran): the cheapest design
/// whose robust accuracy clears the floor; else the cheapest whose
/// nominal accuracy does; else the most accurate.
pub fn expected_choice(out: &FlowOutcome) -> Option<&CandidateDesign> {
    let floor = out.reference_accuracy - out.accuracy_loss - 1e-12;
    let candidates = &out.sweep.candidates;
    let robust = out.robustness.as_ref().and_then(|campaign| {
        candidates
            .iter()
            .filter(|c| {
                profile_of(campaign, c)
                    .is_some_and(|p| p.mean_under_mismatch >= floor && !p.yield_estimate.is_nan())
            })
            .min_by(|a, b| cheaper(a, b))
    });
    robust
        .or_else(|| {
            candidates
                .iter()
                .filter(|c| c.test_accuracy >= floor)
                .min_by(|a, b| cheaper(a, b))
        })
        .or_else(|| {
            candidates.iter().max_by(|a, b| {
                a.test_accuracy.total_cmp(&b.test_accuracy).then_with(|| {
                    b.system
                        .total_power()
                        .uw()
                        .total_cmp(&a.system.total_power().uw())
                })
            })
        })
}

/// The chosen design's gate-level netlist, driven by the thermometer
/// code of every test sample, must decode to the tree's own prediction.
fn check_netlist(design: &CandidateDesign, test: &QuantizedDataset) -> Verdict {
    let classifier = &design.system.classifier;
    let netlist = classifier.to_netlist();
    let disagreements = test
        .iter()
        .filter(|(sample, _)| {
            decode_one_hot(&netlist.eval(&classifier.encode_sample(sample)))
                != Some(design.tree.predict(sample))
        })
        .count();
    ensure(disagreements == 0, || {
        format!("netlist disagrees with the tree on {disagreements} test samples")
    })
}

fn check_campaign(campaign: &CampaignOutcome, sweep: &Exploration) -> Verdict {
    let trials = RobustnessCampaign::typical().trials;
    ensure(
        campaign.profiles.len() == sweep.candidates.len() && campaign.pruned.is_empty(),
        || {
            format!(
                "{} profiles and {} pruned points for {} candidates",
                campaign.profiles.len(),
                campaign.pruned.len(),
                sweep.candidates.len()
            )
        },
    )?;
    for (row, c) in campaign.profiles.iter().zip(&sweep.candidates) {
        let p = &row.profile;
        let at = || format!("(τ {}, depth {})", c.tau, c.depth);
        ensure(
            row.depth == c.depth && row.tau.to_bits() == c.tau.to_bits(),
            || format!("profile order differs from the sweep at {}", at()),
        )?;
        ensure(p.nominal.to_bits() == c.test_accuracy.to_bits(), || {
            format!(
                "Monte-Carlo nominal {} differs from the tree-walk accuracy {} at {}",
                p.nominal,
                c.test_accuracy,
                at()
            )
        })?;
        ensure(p.worst_single_fault <= p.nominal, || {
            format!("worst fault beats fault-free at {}", at())
        })?;
        ensure(
            mean_within(p.min_under_mismatch, p.mean_under_mismatch, 1.0, trials),
            || format!("mismatch min above mean at {}", at()),
        )?;
        let spent = if c.tree.split_count() == 0 { 0 } else { trials };
        ensure(row.trials_spent == spent, || {
            format!("{} trials spent at {}", row.trials_spent, at())
        })?;
    }
    Ok(())
}

/// Checks run on every `design` and `robust` output.
pub fn check_flow(out: &FlowOutcome, split: &Split, robust: bool) -> Verdict {
    let grid_size = ExplorationConfig::paper().grid_size();
    let sweep = &out.sweep;
    ensure(
        sweep.candidates.len() == grid_size && sweep.failed_candidates.is_empty(),
        || {
            format!(
                "{} candidates and {} failed candidates, expected {grid_size} and 0",
                sweep.candidates.len(),
                sweep.failed_candidates.len()
            )
        },
    )?;
    let lint_errors: usize = sweep.lint.iter().map(|l| l.report.error_count()).sum();
    ensure(sweep.lint.len() == grid_size && lint_errors == 0, || {
        format!(
            "grid lint: {} reports, {lint_errors} errors",
            sweep.lint.len()
        )
    })?;
    for c in &sweep.candidates {
        let walked = c.tree.accuracy(&split.test);
        ensure(c.test_accuracy.to_bits() == walked.to_bits(), || {
            format!(
                "candidate (τ {}, depth {}) reports accuracy {:?}, its tree scores {:?}",
                c.tau, c.depth, c.test_accuracy, walked
            )
        })?;
        ensure(
            c.system.comparator_count() == c.tree.distinct_pairs().len(),
            || {
                format!(
                    "candidate (τ {}, depth {}) comparator count",
                    c.tau, c.depth
                )
            },
        )?;
    }
    let expected = expected_choice(out).ok_or_else(|| "no candidate to choose".to_owned())?;
    ensure(*expected == out.chosen, || {
        format!(
            "chose (τ {}, depth {}), the selection rule gives (τ {}, depth {})",
            out.chosen.tau, out.chosen.depth, expected.tau, expected.depth
        )
    })?;
    check_netlist(&out.chosen, &split.test)?;
    ensure(out.lint.as_ref().is_some_and(|l| !l.has_errors()), || {
        "the chosen design has lint errors".to_owned()
    })?;
    match (&out.robustness, robust) {
        (Some(campaign), true) => check_campaign(campaign, sweep),
        (None, false) => Ok(()),
        _ => Err("campaign presence does not match the workload".to_owned()),
    }
}

/// A hash of an output's `Debug` form, streamed so that no copy of the
/// output is kept: reruns are compared by fingerprint. (`Debug` prints
/// every field, and every `f64` in its shortest round-trip form.)
pub fn fingerprint(output: &FlowOutcome) -> u64 {
    struct Hashing(DefaultHasher);
    impl fmt::Write for Hashing {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut hashing = Hashing(DefaultHasher::new());
    write!(hashing, "{output:?}").expect("hashing does not fail");
    hashing.0.finish()
}

/// On a flow with a campaign, the chosen design's fault sweep agrees
/// with its campaign profile.
pub fn check_chosen_faults(out: &FlowOutcome, split: &Split) -> Verdict {
    let Some(campaign) = &out.robustness else {
        return Ok(());
    };
    let profile = profile_of(campaign, &out.chosen)
        .ok_or_else(|| "the chosen design was not profiled".to_owned())?;
    let faults = fault_robustness(&out.chosen.tree, &split.test);
    ensure(
        faults.fault_free_accuracy.to_bits() == profile.nominal.to_bits()
            && faults.worst_accuracy <= faults.fault_free_accuracy
            && faults.worst_accuracy.to_bits() == profile.worst_single_fault.to_bits(),
        || {
            format!(
                "fault sweep (fault-free {}, worst {}) disagrees with the profile (nominal {}, worst {})",
                faults.fault_free_accuracy,
                faults.worst_accuracy,
                profile.nominal,
                profile.worst_single_fault
            )
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{run_flow, setup, Workload};

    fn next_ulp(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    fn seeds_flow() -> (Split, FlowOutcome) {
        let inputs = setup(Workload::Design, 11);
        let split = inputs.splits[0].clone();
        let out = run_flow(&split, false, ExplorationConfig::paper());
        (split, out)
    }

    #[test]
    fn a_mean_of_equal_trials_may_round_above_them_but_no_further() {
        let trials = [0.6595744680851063; 400];
        let mean = trials.iter().sum::<f64>() / 400.0;
        assert!(mean > trials[0], "the case this slack exists for");
        assert!(mean_within(trials[0], mean, trials[0], 400));
        assert!(!mean_within(
            trials[0],
            next_ulp(trials[0]) + 1e-12,
            trials[0],
            400
        ));
        assert!(!mean_within(0.5, 0.4, 0.6, 400));
    }

    #[test]
    fn a_correct_flow_passes_every_check() {
        let (split, out) = seeds_flow();
        assert_eq!(check_flow(&out, &split, false), Ok(()));
        assert_eq!(check_chosen_faults(&out, &split), Ok(()));
    }

    #[test]
    fn an_accuracy_one_ulp_off_fails() {
        let (split, mut out) = seeds_flow();
        let c = &mut out.sweep.candidates[17];
        c.test_accuracy = next_ulp(c.test_accuracy);
        let err = check_flow(&out, &split, false).unwrap_err();
        assert!(err.contains("reports accuracy"), "{err}");
    }

    #[test]
    fn a_swapped_chosen_design_fails() {
        let (split, mut out) = seeds_flow();
        let other = out
            .sweep
            .candidates
            .iter()
            .find(|c| **c != out.chosen)
            .expect("the grid has more than one design")
            .clone();
        out.chosen = other;
        let err = check_flow(&out, &split, false).unwrap_err();
        assert!(err.contains("selection rule"), "{err}");
    }

    #[test]
    fn a_campaign_nominal_one_ulp_off_fails() {
        let inputs = setup(Workload::Robust, 11);
        let split = &inputs.splits[0];
        let mut out = run_flow(split, true, ExplorationConfig::paper());
        assert_eq!(check_flow(&out, split, true), Ok(()));
        assert_eq!(check_chosen_faults(&out, split), Ok(()));
        let profile = &mut out.robustness.as_mut().unwrap().profiles[30].profile;
        profile.nominal = next_ulp(profile.nominal);
        let err = check_flow(&out, split, true).unwrap_err();
        assert!(err.contains("Monte-Carlo nominal"), "{err}");
    }
}
