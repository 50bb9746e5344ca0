//! Exactness pinning for the vectorized training engine (DESIGN.md §13).
//!
//! The hot path — [`SplitEngine`] over a shared `DatasetIndex`, in-place
//! arena partitioning, packed word-parallel cover scoring — claims to be
//! *bit-identical* to the scalar reference, not merely close. These tests
//! hold it to that on every registry benchmark:
//!
//! 1. the production trainer and the scalar reference grow the same tree
//!    (node for node) at the paper's depth cap, with and without Gini
//!    slack;
//! 2. packed thermometer scoring returns the exact accuracy the tree
//!    walk returns;
//! 3. a fresh quick-grid sweep selects the same design — same grid
//!    point, same area, power, and comparator count — as the committed
//!    `BENCH_all.ndjson` baseline, i.e. 0.0% deterministic drift;
//! 4. the bit-sliced stuck-at campaign reports exactly the statistics of
//!    a serial per-sample, per-fault `FaultyNetlist` reduction.
//!
//! [`SplitEngine`]: printed_ml::dtree::cart::SplitEngine

use printed_ml::codesign::explore::{explore, ExplorationConfig};
use printed_ml::codesign::train::{train_adc_aware, train_adc_aware_reference, AdcAwareConfig};
use printed_ml::codesign::{decode_one_hot, fault_robustness, FaultRobustness, UnaryClassifier};
use printed_ml::datasets::{Benchmark, QuantizedDataset};
use printed_ml::dtree::DecisionTree;
use printed_ml::logic::faults::{enumerate_faults, FaultyNetlist, StuckAt};
use printed_ml::report::TraceStats;

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
        // The covers are exact indicator functions of the tree's regions,
        // so the packed word-parallel evaluation must agree bit for bit
        // with the tree walk on both splits.
        for data in [&train, &test] {
            assert_eq!(
                packed.accuracy(data).to_bits(),
                tree.accuracy(data).to_bits(),
                "{benchmark}: packed scoring drifted from the tree walk"
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
