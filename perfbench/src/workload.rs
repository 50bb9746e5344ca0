//! The two workloads: their inputs, generated from the workload seed,
//! and the flow each job runs.
//!
//! Every input comes from the registry datasets and a seeded 70/30 split
//! of each; the program under test sees only those splits. A job is one
//! `CodesignFlow::run` on one split. Why each mix looks the way it does
//! is recorded in `RATIONALE.md`.

use printed_codesign::{CodesignFlow, ExplorationConfig, FlowOutcome, RobustnessCampaign};
use printed_datasets::{Benchmark, Dataset, QuantizedDataset, TRAIN_FRACTION};

/// ADC resolution of every split (the paper's 4-bit front end).
pub const BITS: u32 = 4;
/// Accuracy-loss constraint of every flow (the paper's 1%).
pub const ACCURACY_LOSS: f64 = 0.01;

/// `design`: splits per dataset. Six WhiteWine splits sit between five
/// cheaper and five dearer jobs, so the median job is a WhiteWine flow;
/// Arrhythmia, the dearest flow, holds the tail: at four a round, a run
/// of four or more rounds has at least sixteen of them, so the job with
/// ten above it is an Arrhythmia flow.
const DESIGN_MIX: &[(Benchmark, usize)] = &[
    (Benchmark::Seeds, 1),
    (Benchmark::Vertebral2C, 1),
    (Benchmark::Vertebral3C, 1),
    (Benchmark::Cardio, 1),
    (Benchmark::BalanceScale, 1),
    (Benchmark::WhiteWine, 6),
    (Benchmark::Pendigits, 1),
    (Benchmark::Arrhythmia, 4),
];

/// `robust`: six Vertebral-3C splits between two cheaper flows and two
/// dearer ones (Balance-Scale, Cardio), so the median job is a
/// Vertebral-3C flow and the slowest one holds the tail. The round takes
/// longer than a run's measured time, so every run is one round of ten
/// jobs. WhiteWine, Pendigits and Arrhythmia take minutes each.
const ROBUST_MIX: &[(Benchmark, usize)] = &[
    (Benchmark::Seeds, 1),
    (Benchmark::Vertebral2C, 1),
    (Benchmark::Vertebral3C, 6),
    (Benchmark::BalanceScale, 1),
    (Benchmark::Cardio, 1),
];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The nominal co-design flow.
    Design,
    /// The flow plus the robustness campaign.
    Robust,
}

impl Workload {
    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Design => "design",
            Workload::Robust => "robust",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        [Workload::Design, Workload::Robust]
            .into_iter()
            .find(|w| w.name() == name)
    }

    /// Whether the workload's jobs run the robustness campaign.
    pub fn robust(self) -> bool {
        self == Workload::Robust
    }
}

/// One seeded split of one dataset.
#[derive(Debug, Clone)]
pub struct Split {
    /// The dataset.
    pub bench: Benchmark,
    /// Quantized training split.
    pub train: QuantizedDataset,
    /// Quantized test split.
    pub test: QuantizedDataset,
    /// Normalized analog test split, row for row the same samples.
    pub test_analog: Dataset,
}

/// A workload's generated inputs: one job per split.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Seeded splits, in job order.
    pub splits: Vec<Split>,
    /// Samples generated (train + test of every split).
    pub samples: usize,
}

/// SplitMix64 finalizer: decorrelates nearby seeds.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn split_seed(seed: u64, bench: Benchmark, index: usize) -> u64 {
    splitmix(seed ^ splitmix(((bench as u64) << 32) | index as u64))
}

/// Generates, normalizes, splits and quantizes the workload's datasets.
pub fn setup(workload: Workload, seed: u64) -> Inputs {
    let mix = match workload {
        Workload::Design => DESIGN_MIX,
        Workload::Robust => ROBUST_MIX,
    };
    let mut splits = Vec::new();
    for &(bench, count) in mix {
        let normalized = bench.load().normalized();
        for index in 0..count {
            let (train, test) = normalized
                .train_test_split(TRAIN_FRACTION, split_seed(seed, bench, index))
                .expect("registry datasets split 70/30");
            splits.push(Split {
                bench,
                train: QuantizedDataset::from_dataset(&train, BITS),
                test: QuantizedDataset::from_dataset(&test, BITS),
                test_analog: test,
            });
        }
    }
    let samples = splits.iter().map(|s| s.train.len() + s.test.len()).sum();
    Inputs {
        workload,
        splits,
        samples,
    }
}

/// The flow a job runs, with its grid replaceable so the oracle can
/// rerun it single-threaded.
pub fn run_flow(split: &Split, robust: bool, grid: ExplorationConfig) -> FlowOutcome {
    let flow = CodesignFlow::new(&split.train, &split.test)
        .grid(grid)
        .accuracy_loss(ACCURACY_LOSS);
    if robust {
        flow.robustness(RobustnessCampaign::typical(), &split.test_analog)
            .run()
    } else {
        flow.run()
    }
}

/// Runs job `index` of `inputs` the way a user would: the one-call flow.
pub fn run_job(inputs: &Inputs, index: usize) -> FlowOutcome {
    run_flow(
        &inputs.splits[index],
        inputs.workload.robust(),
        ExplorationConfig::paper(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_inputs_and_another_seed_other_splits() {
        let a = setup(Workload::Robust, 7);
        let b = setup(Workload::Robust, 7);
        let c = setup(Workload::Robust, 8);
        assert_eq!(a.splits.len(), 10);
        for ((x, y), z) in a.splits.iter().zip(&b.splits).zip(&c.splits) {
            assert_eq!(x.train, y.train);
            assert_eq!(x.test_analog, y.test_analog);
            assert_ne!(x.train, z.train);
        }
    }

    #[test]
    fn quantized_and_analog_test_splits_hold_the_same_rows() {
        let inputs = setup(Workload::Design, 3);
        for s in &inputs.splits {
            assert_eq!(s.test.len(), s.test_analog.len());
            assert_eq!(s.test.labels(), s.test_analog.labels());
        }
    }
}
