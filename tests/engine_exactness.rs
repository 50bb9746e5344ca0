//! Exactness pinning for the vectorized training engine (DESIGN.md §13).
//!
//! The hot path — [`SplitEngine`] over a shared `DatasetIndex`, in-place
//! arena partitioning, netlist scoring on the bit-sliced tape — claims to be
//! *bit-identical* to the scalar reference, not merely close. These tests
//! hold it to that on every registry benchmark:
//!
//! 1. the production trainer and the scalar reference grow the same tree
//!    (node for node) at the paper's depth cap, with and without Gini
//!    slack;
//! 2. scoring the netlist on the tape returns the exact accuracy the
//!    tree walk returns;
//! 3. a fresh quick-grid sweep selects the same design — same grid
//!    point, same area, power, and comparator count — as the committed
//!    `BENCH_all.ndjson` baseline, i.e. 0.0% deterministic drift;
//! 4. the bit-sliced stuck-at campaign reports exactly the statistics of
//!    a serial per-sample, per-fault `FaultyNetlist` reduction;
//! 5. the mismatch trials, nominal score and droop margin, which score the
//!    printed netlist on the tape, equal a tree walk under the same
//!    per-pair thresholds;
//! 6. the depth-selected CART reference, derived by truncating one
//!    max-depth tree, equals training afresh at every depth.
//!
//! [`SplitEngine`]: printed_ml::dtree::cart::SplitEngine

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use printed_ml::analog::ladder::Ladder;
use printed_ml::analog::mc::sample_normal;
use printed_ml::analog::MismatchModel;
use printed_ml::codesign::explore::{explore, ExplorationConfig};
use printed_ml::codesign::mismatch::mismatch_trials_recorded;
use printed_ml::codesign::train::{train_adc_aware, train_adc_aware_reference, AdcAwareConfig};
use printed_ml::codesign::{
    decode_one_hot, fault_robustness, FaultRobustness, MismatchTrials, RobustnessCampaign,
    SupplyDroopModel, UnaryClassifier,
};
use printed_ml::datasets::{Benchmark, Dataset, DatasetIndex, QuantizedDataset};
use printed_ml::dtree::cart::{train_depth_selected, train_with_index, CartConfig, TrainedModel};
use printed_ml::dtree::{synthesize_baseline, DecisionTree, Node};
use printed_ml::logic::faults::{enumerate_faults, FaultyNetlist, StuckAt};
use printed_ml::pdk::AnalogModel;
use printed_ml::report::TraceStats;
use printed_ml::telemetry::Recorder;

/// The registry resolution every baseline uses.
const BITS: u32 = 4;

#[test]
fn vectorized_trainer_matches_the_scalar_reference_on_every_benchmark() {
    for benchmark in Benchmark::ALL {
        let (train, _test) = benchmark.load_quantized(BITS).expect("built-ins load");
        for tau in [0.0, 0.01] {
            let config = AdcAwareConfig {
                tau,
                ..AdcAwareConfig::default()
            };
            assert_eq!(
                train_adc_aware(&train, &config),
                train_adc_aware_reference(&train, &config),
                "{benchmark}: vectorized tree diverged from the reference at τ={tau}"
            );
        }
    }
}

#[test]
fn packed_scoring_equals_tree_accuracy_on_every_benchmark() {
    for benchmark in Benchmark::ALL {
        let (train, test) = benchmark.load_quantized(BITS).expect("built-ins load");
        let tree = train_adc_aware(&train, &AdcAwareConfig::default());
        let packed = UnaryClassifier::from_tree(&tree).packed();
        // Every path of the netlist is one AND of the walk's comparisons,
        // so scoring it on the tape must agree bit for bit with the tree
        // walk on both splits.
        for data in [&train, &test] {
            assert_eq!(
                packed.accuracy(data).to_bits(),
                tree.accuracy(data).to_bits(),
                "{benchmark}: tape scoring drifted from the tree walk"
            );
        }
    }
}

#[test]
fn sweep_selection_matches_the_committed_suite_baseline() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_all.ndjson"))
        .expect("committed baseline suite exists");
    let (baselines, _warnings) = TraceStats::from_text_multi(&text).expect("baseline suite parses");
    assert_eq!(baselines.len(), Benchmark::ALL.len());
    for benchmark in Benchmark::ALL {
        let baseline = baselines
            .iter()
            .find(|s| s.dataset == benchmark.to_string())
            .expect("every benchmark has a baseline record");
        let (train, test) = benchmark.load_quantized(BITS).expect("built-ins load");
        let sweep = explore(&train, &test, &ExplorationConfig::quick());
        // The selection rule of the bench binaries: most efficient within
        // 1% of the reference, else the most accurate candidate.
        let chosen = sweep
            .select(0.01)
            .or_else(|| sweep.most_accurate())
            .expect("non-empty sweep");
        let system = &chosen.system;
        assert_eq!(
            system.total_area().mm2().to_bits(),
            baseline.area_mm2.to_bits(),
            "{benchmark}: selected area drifted from the committed baseline"
        );
        assert_eq!(
            system.total_power().mw().to_bits(),
            baseline.power_mw.to_bits(),
            "{benchmark}: selected power drifted from the committed baseline"
        );
        assert_eq!(
            system.comparator_count() as u64,
            baseline.comparators,
            "{benchmark}: comparator count drifted from the committed baseline"
        );
    }
}

/// The campaign as it was first written: every fault, every sample, one
/// `FaultyNetlist::eval` each, reduced serially in fault order.
fn serial_fault_reduction(tree: &DecisionTree, test: &QuantizedDataset) -> FaultRobustness {
    let classifier = UnaryClassifier::from_tree(tree);
    let netlist = classifier.to_netlist();
    let encoded: Vec<(Vec<bool>, usize)> = test
        .iter()
        .map(|(sample, label)| (classifier.encode_sample(sample), label))
        .collect();
    let score = |eval: &dyn Fn(&[bool]) -> Vec<bool>| -> f64 {
        let correct = encoded
            .iter()
            .filter(|(digits, label)| decode_one_hot(&eval(digits)) == Some(*label))
            .count();
        correct as f64 / encoded.len() as f64
    };
    let fault_free_accuracy = score(&|digits| netlist.eval(digits));
    let faults = enumerate_faults(&netlist);
    let (mut sum, mut worst, mut worst_fault, mut benign) = (0.0, f64::INFINITY, None, 0usize);
    for &fault in &faults {
        let faulty = FaultyNetlist::new(&netlist, fault);
        let acc = score(&|digits| faulty.eval(digits));
        sum += acc;
        if acc < worst {
            worst = acc;
            worst_fault = Some(fault);
        }
        if (acc - fault_free_accuracy).abs() < 1e-12 {
            benign += 1;
        }
    }
    let n = faults.len() as f64;
    FaultRobustness {
        fault_free_accuracy,
        mean_accuracy: sum / n,
        worst_accuracy: worst,
        worst_fault,
        fault_count: faults.len(),
        benign_fraction: benign as f64 / n,
    }
}

/// Every field, floats as their bit patterns.
fn bits(r: &FaultRobustness) -> (u64, u64, u64, Option<StuckAt>, usize, u64) {
    (
        r.fault_free_accuracy.to_bits(),
        r.mean_accuracy.to_bits(),
        r.worst_accuracy.to_bits(),
        r.worst_fault,
        r.fault_count,
        r.benign_fraction.to_bits(),
    )
}

#[test]
fn bit_sliced_fault_campaign_matches_the_serial_reference_on_every_benchmark() {
    for benchmark in Benchmark::ALL {
        let (train, test) = benchmark.load_quantized(BITS).expect("built-ins load");
        // The per-sample reference is slow on the large test splits, so
        // those stop at depth 4; the small sets go to the paper's cap.
        let max_depth = match benchmark {
            Benchmark::WhiteWine | Benchmark::Pendigits | Benchmark::Cardio => 4,
            _ => 8,
        };
        let tree = train_adc_aware(
            &train,
            &AdcAwareConfig {
                max_depth,
                ..AdcAwareConfig::default()
            },
        );
        let report = fault_robustness(&tree, &test);
        assert!(
            report.fault_count > 0,
            "{benchmark}: a trained tree has gates"
        );
        assert_eq!(
            bits(&report),
            bits(&serial_fault_reduction(&tree, &test)),
            "{benchmark} depth {max_depth}"
        );
    }
}

/// The analog scorer the tape replaced, kept as the reference: a tree walk
/// comparing each split's feature against its pair's threshold.
fn walk_accuracy(
    tree: &DecisionTree,
    data: &Dataset,
    thresholds: &BTreeMap<(usize, u8), f64>,
) -> f64 {
    let correct = data
        .iter()
        .filter(|(sample, label)| {
            let mut i = 0;
            loop {
                match tree.nodes()[i] {
                    Node::Leaf { class } => break class == *label,
                    Node::Split {
                        feature,
                        threshold,
                        lo,
                        hi,
                    } => {
                        let t = thresholds[&(feature, threshold)];
                        i = if sample[feature] >= t { hi } else { lo };
                    }
                }
            }
        })
        .count();
    correct as f64 / data.len() as f64
}

/// Tap `c` at `c / 2^bits`, per distinct pair.
fn ideal_thresholds(tree: &DecisionTree) -> BTreeMap<(usize, u8), f64> {
    let full = (1u64 << tree.bits()) as f64;
    tree.distinct_pairs()
        .into_iter()
        .map(|(f, c)| ((f, c), c as f64 / full))
        .collect()
}

/// The walk under `trials` front-end samples in the stream's RNG order:
/// one perturbed ladder, then one comparator offset per distinct pair.
fn walk_trials(
    tree: &DecisionTree,
    test: &Dataset,
    model: &MismatchModel,
    trials: usize,
    seed: u64,
    analog: &AnalogModel,
) -> Vec<f64> {
    let bank = UnaryClassifier::from_tree(tree).adc_bank();
    let ladder = Ladder::pruned(
        tree.bits(),
        &bank.distinct_taps(),
        analog.supply.volts(),
        analog.unit_resistor.ohms(),
    )
    .expect("tree taps are valid");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..trials)
        .map(|_| {
            let sample = model.sample(&ladder, &mut rng).expect("ladder solves");
            let vref: BTreeMap<usize, f64> = sample
                .taps()
                .iter()
                .map(|t| (t.tap, t.vref_volts))
                .collect();
            let thresholds = tree
                .distinct_pairs()
                .into_iter()
                .map(|(f, c)| {
                    let offset = sample_normal(&mut rng, 0.0, model.comparator_offset_sigma_v);
                    ((f, c), vref[&(c as usize)] - offset)
                })
                .collect();
            walk_accuracy(tree, test, &thresholds)
        })
        .collect()
}

/// The droop scan on the walk.
fn walk_droop_margin(
    droop: &SupplyDroopModel,
    tree: &DecisionTree,
    test: &Dataset,
    nominal: f64,
) -> f64 {
    let mut margin = 0.0;
    for step in 1..=droop.steps {
        let sag = droop.max_sag() * step as f64 / droop.steps as f64;
        let thresholds = ideal_thresholds(tree)
            .into_iter()
            .map(|(pair, t)| {
                (
                    pair,
                    t * (1.0 - droop.vref_leak * sag) - droop.offset_per_sag * sag,
                )
            })
            .collect();
        if walk_accuracy(tree, test, &thresholds) >= nominal - droop.tolerance - 1e-12 {
            margin = sag;
        } else {
            break;
        }
    }
    margin
}

#[test]
fn mismatch_and_droop_scores_equal_the_tree_walk_on_every_benchmark() {
    const TRIALS: usize = 12;
    let analog = AnalogModel::egfet();
    let recorder = Recorder::disabled();
    let harsh = SupplyDroopModel {
        vref_leak: 0.9,
        offset_per_sag: 0.25,
        ..SupplyDroopModel::printed_default()
    };
    for benchmark in Benchmark::ALL {
        let (train, test_q) = benchmark.load_quantized(BITS).expect("built-ins load");
        let (_, test) = benchmark.load_split().expect("built-ins load");
        for depth in [4, 8] {
            let tree = train_adc_aware(
                &train,
                &AdcAwareConfig {
                    max_depth: depth,
                    ..AdcAwareConfig::default()
                },
            );
            let context = format!("{benchmark} depth {depth}");
            let nominal = walk_accuracy(&tree, &test, &ideal_thresholds(&tree));
            for model in [
                MismatchModel::typical_printed(),
                MismatchModel::pessimistic_printed(),
            ] {
                let trials =
                    mismatch_trials_recorded(&tree, &test, &model, TRIALS, 7, &analog, &recorder);
                assert_eq!(trials.nominal.to_bits(), nominal.to_bits(), "{context}");
                let walked = walk_trials(&tree, &test, &model, TRIALS, 7, &analog);
                let as_bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
                assert_eq!(as_bits(&trials.accuracies), as_bits(&walked), "{context}");

                // The campaign's own compiled path, seeded with its base
                // seed, against the same walk.
                let campaign = RobustnessCampaign {
                    mismatch: model,
                    trials: TRIALS,
                    ..RobustnessCampaign::typical()
                };
                let profile = campaign.profile_tree(&tree, &test_q, &test, &analog, &recorder);
                let walked = MismatchTrials {
                    nominal,
                    accuracies: walk_trials(&tree, &test, &model, TRIALS, campaign.seed, &analog),
                };
                let report = walked.report();
                assert_eq!(
                    [
                        profile.nominal,
                        profile.mean_under_mismatch,
                        profile.min_under_mismatch,
                        profile.yield_estimate,
                        profile.droop_margin,
                        profile.worst_single_fault,
                    ]
                    .map(f64::to_bits),
                    [
                        nominal,
                        report.mean,
                        report.min,
                        walked.yield_within(campaign.yield_loss),
                        walk_droop_margin(&campaign.droop, &tree, &test, nominal),
                        fault_robustness(&tree, &test_q).worst_accuracy,
                    ]
                    .map(f64::to_bits),
                    "{context}: campaign profile"
                );
            }
            for droop in [SupplyDroopModel::printed_default(), harsh] {
                assert_eq!(
                    droop.margin(&tree, &test, nominal).to_bits(),
                    walk_droop_margin(&droop, &tree, &test, nominal).to_bits(),
                    "{context}: droop margin"
                );
            }
        }
    }
}

#[test]
fn cart_truncation_equals_fresh_training_on_every_benchmark() {
    for benchmark in Benchmark::ALL {
        let (train, _test) = benchmark.load_quantized(BITS).expect("built-ins load");
        let index = DatasetIndex::new(&train);
        let fresh = |depth| train_with_index(&train, &index, &CartConfig::with_max_depth(depth));
        for cap in [2, 4, 6, 8] {
            let deep = fresh(cap);
            let majorities = deep.node_majorities(&train);
            for depth in 1..=cap {
                assert_eq!(
                    deep.truncated(depth, &majorities),
                    fresh(depth),
                    "{benchmark}: cap-{cap} CART tree truncated to depth {depth}"
                );
            }
        }
    }
}

/// The depth selection retraining CART from scratch at every depth — the
/// retained reference for [`train_depth_selected`].
fn depth_selected_by_retraining(
    train: &QuantizedDataset,
    test: &QuantizedDataset,
    max_depth: usize,
) -> TrainedModel {
    let index = DatasetIndex::new(train);
    let mut best: Option<TrainedModel> = None;
    for depth in 1..=max_depth {
        let tree = train_with_index(train, &index, &CartConfig::with_max_depth(depth));
        let model = TrainedModel {
            train_accuracy: tree.accuracy(train),
            test_accuracy: tree.accuracy(test),
            tree,
            depth,
        };
        let better = match &best {
            None => true,
            Some(b) => model.test_accuracy > b.test_accuracy + 1e-12,
        };
        if better {
            best = Some(model);
        }
    }
    best.expect("max_depth >= 1")
}

#[test]
fn depth_selection_by_truncation_equals_retraining_on_every_benchmark() {
    for benchmark in Benchmark::ALL {
        let (train, test) = benchmark.load_quantized(BITS).expect("built-ins load");
        for max_depth in [1, 6, 8] {
            let fast = train_depth_selected(&train, &test, max_depth);
            let slow = depth_selected_by_retraining(&train, &test, max_depth);
            let context = format!("{benchmark} at max depth {max_depth}");
            assert_eq!(fast.tree, slow.tree, "{context}: tree");
            assert_eq!(fast.depth, slow.depth, "{context}: depth");
            assert_eq!(
                fast.test_accuracy.to_bits(),
                slow.test_accuracy.to_bits(),
                "{context}: test accuracy"
            );
            assert_eq!(
                fast.train_accuracy.to_bits(),
                slow.train_accuracy.to_bits(),
                "{context}: train accuracy"
            );
            let (a, b) = (
                synthesize_baseline(&fast.tree),
                synthesize_baseline(&slow.tree),
            );
            assert_eq!(
                a.total_area().mm2().to_bits(),
                b.total_area().mm2().to_bits(),
                "{context}: baseline area"
            );
            assert_eq!(
                a.total_power().mw().to_bits(),
                b.total_power().mw().to_bits(),
                "{context}: baseline power"
            );
        }
    }
}
