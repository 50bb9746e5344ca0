//! The traced run: one round of the workload, each job composed from the
//! public calls the flow makes, with a span around every call, plus a
//! serial per-candidate replay of the sweep and the campaign that breaks
//! their parallel calls down by layer.

use std::time::Instant;

use printed_codesign::mismatch::mismatch_trials_recorded;
use printed_codesign::train::{train_adc_aware_annotated_with_index, AdcAwareConfig};
use printed_codesign::{
    explore::explore_instrumented, fault_robustness, lint_candidate, system::synthesize_unary_with,
    CandidateDesign, Exploration, ExplorationConfig, FlowOutcome, LintConfig, LintReport,
    RobustnessCampaign, RobustnessConstraints, RobustnessProfile, SupplyDroopModel,
};
use printed_datasets::DatasetIndex;
use printed_dtree::cart::train_depth_selected;
use printed_dtree::synthesize_baseline_with;
use printed_lint::{DroopRef, GridRef, LintTarget, Linter};
use printed_logic::report::AnalysisConfig;
use printed_pdk::{AnalogModel, CellLibrary};
use printed_telemetry::{keys, Recorder};

use crate::oracle::Verdict;
use crate::run::{judge, rerun_checks, Tally};
use crate::trace::{Tracer, NO_JOB};
use crate::workload::{run_job, setup, Inputs, Split, Workload, ACCURACY_LOSS};

/// The library's per-τ training seed (crate-private there). The replay
/// must equal the sweep candidate for candidate, which checks this copy.
fn tau_seed(base: u64, tau: f64) -> u64 {
    base ^ tau.to_bits().wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The library's per-grid-point campaign seed, checked the same way.
fn point_seed(base: u64, depth: usize, tau: f64) -> u64 {
    tau_seed(base, tau) ^ (depth as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// The library's equivalence budget for the sweep's in-flow lint
/// (crate-private there); the replayed reports must equal the sweep's.
const GRID_EQUIV_BUDGET: usize = 512;

/// The sweep's in-flow lint of one candidate, from public parts: the
/// full pass suite, tree re-verification on the deepest cap only, and
/// the capped equivalence budget. (`lint_candidate` would re-verify at
/// full budget, which is the flow's cost for the chosen design alone.)
fn grid_lint(
    candidate: &CandidateDesign,
    analog: &AnalogModel,
    grid: &ExplorationConfig,
    verify_tree: bool,
) -> LintReport {
    let classifier = &candidate.system.classifier;
    let netlist = classifier.to_netlist();
    let bank = classifier.adc_bank();
    let droop = SupplyDroopModel::printed_default();
    let target = LintTarget {
        tree: verify_tree.then_some(&candidate.tree),
        netlist: &netlist,
        bank: &bank,
        literals: classifier.literals(),
        class_sops: classifier.class_sops(),
        reported_adc: Some(&candidate.system.adc),
        model: analog,
        grid: Some(GridRef {
            taus: &grid.taus,
            depths: &grid.depths,
            seed: grid.seed,
        }),
        droop: Some(DroopRef {
            max_sag: droop.max_sag(),
            vref_leak: droop.vref_leak,
            offset_per_sag: droop.offset_per_sag,
        }),
        equiv_budget: Some(GRID_EQUIV_BUDGET),
    };
    Linter::with_config(LintConfig::new()).run(&target)
}

/// The technology every flow job uses (the flow's defaults).
struct Tech {
    library: CellLibrary,
    analog: AnalogModel,
    analysis: AnalysisConfig,
}

impl Tech {
    fn egfet() -> Self {
        Self {
            library: CellLibrary::egfet(),
            analog: AnalogModel::egfet(),
            analysis: AnalysisConfig::printed_20hz(),
        }
    }
}

/// `CodesignFlow::run`, composed from the calls it makes.
fn composed_flow(
    split: &Split,
    robust: bool,
    recorder: &Recorder,
    tracer: &mut Tracer,
    job: usize,
) -> FlowOutcome {
    let tech = Tech::egfet();
    let grid = ExplorationConfig::paper();
    let max_depth = *grid.depths.iter().max().expect("paper grid has depths");
    let reference = tracer.span("dtree.reference", job, |_| {
        train_depth_selected(&split.train, &split.test, max_depth)
    });
    let baseline = tracer.span("dtree.baseline", job, |_| {
        synthesize_baseline_with(&reference.tree, &tech.library, &tech.analog, &tech.analysis)
    });
    let sweep = tracer.span("explore", job, |_| {
        explore_instrumented(
            &split.train,
            &split.test,
            &grid,
            &tech.library,
            &tech.analog,
            &tech.analysis,
            recorder,
            None,
        )
    });
    let campaign = robust.then(|| {
        tracer.span("campaign", job, |_| {
            RobustnessCampaign::typical().run_with(
                &sweep,
                &split.test,
                &split.test_analog,
                &tech.analog,
                recorder,
            )
        })
    });
    let chosen = tracer.span("flow.select", job, |_| {
        campaign
            .as_ref()
            .and_then(|c| sweep.select_robust(ACCURACY_LOSS, c, &RobustnessConstraints::default()))
            .or_else(|| sweep.select(ACCURACY_LOSS))
            .or_else(|| sweep.most_accurate())
            .cloned()
            .expect("the paper grid yields candidates")
    });
    let lint = tracer.span("lint", job, |_| {
        lint_candidate(&chosen, &tech.analog, Some(&grid), &LintConfig::new())
    });
    FlowOutcome {
        title: split.train.name().to_owned(),
        accuracy_loss: ACCURACY_LOSS,
        reference_accuracy: sweep.reference_accuracy,
        baseline,
        sweep,
        chosen,
        robustness: campaign,
        lint: Some(lint),
        trace: None,
    }
}

/// Work counted by the replays.
#[derive(Debug, Default)]
struct ReplayCounts {
    lint_candidates: usize,
    lint_errors: usize,
    fault_evals: f64,
    mc_sample_evals: f64,
}

/// Replays the sweep serially, one candidate at a time, and checks each
/// replayed candidate equals the sweep's.
fn replay_sweep(
    split: &Split,
    sweep: &Exploration,
    tracer: &mut Tracer,
    job: usize,
    counts: &mut ReplayCounts,
) -> Verdict {
    let tech = Tech::egfet();
    let grid = ExplorationConfig::paper();
    let max_depth = *grid.depths.iter().max().expect("paper grid has depths");
    let mut depths = grid.depths.clone();
    depths.sort_unstable_by(|a, b| b.cmp(a));
    // The sweep trains its own reference before the grid.
    let reference = tracer.span("dtree.reference", job, |_| {
        train_depth_selected(&split.train, &split.test, max_depth)
    });
    if reference.test_accuracy.to_bits() != sweep.reference_accuracy.to_bits() {
        return Err("replayed reference accuracy differs from the sweep's".to_owned());
    }
    let index = tracer.span("train", job, |_| DatasetIndex::new(&split.train));
    for &tau in &grid.taus {
        let config = AdcAwareConfig {
            max_depth,
            tau,
            min_samples_split: 2,
            seed: tau_seed(grid.seed, tau),
        };
        let annotated = tracer.span("train", job, |_| {
            train_adc_aware_annotated_with_index(
                &split.train,
                &index,
                &config,
                &Recorder::disabled(),
            )
        });
        for &depth in &depths {
            let tree = if depth == max_depth {
                annotated.tree.clone()
            } else {
                tracer.span("train", job, |_| annotated.truncated(depth))
            };
            let system = tracer.span("unary.synth", job, |_| {
                synthesize_unary_with(&tree, &tech.library, &tech.analog, &tech.analysis)
            });
            let test_accuracy = tracer.span("unary.score", job, |_| {
                system.classifier.packed().accuracy(&split.test)
            });
            let candidate = CandidateDesign {
                tau,
                depth,
                test_accuracy,
                tree,
                system,
            };
            let report = tracer.span("lint", job, |_| {
                grid_lint(&candidate, &tech.analog, &grid, depth == max_depth)
            });
            counts.lint_candidates += 1;
            counts.lint_errors += report.error_count();
            let linted = sweep
                .lint
                .iter()
                .find(|l| l.depth == depth && l.tau.to_bits() == tau.to_bits());
            if linted.map(|l| &l.report) != Some(&report) {
                return Err(format!(
                    "serial lint of (τ {tau}, depth {depth}) differs from the sweep's"
                ));
            }
            let swept = sweep
                .candidates
                .iter()
                .find(|c| c.depth == depth && c.tau.to_bits() == tau.to_bits());
            if swept != Some(&candidate) {
                return Err(format!(
                    "serial replay of (τ {tau}, depth {depth}) differs from the sweep"
                ));
            }
        }
    }
    Ok(())
}

/// Replays the campaign serially, one candidate at a time, and checks
/// each replayed profile equals the campaign's.
fn replay_campaign(
    split: &Split,
    out: &FlowOutcome,
    tracer: &mut Tracer,
    job: usize,
    counts: &mut ReplayCounts,
) -> Verdict {
    let campaign = RobustnessCampaign::typical();
    let analog = AnalogModel::egfet();
    let outcome = out.robustness.as_ref().ok_or("no campaign ran")?;
    let samples = split.test.len() as f64;
    for c in &out.sweep.candidates {
        let faults = tracer.span("robustness", job, |_| {
            fault_robustness(&c.tree, &split.test)
        });
        counts.fault_evals += faults.fault_count as f64 * samples;
        let (nominal, mean, min, yield_estimate) = if c.tree.split_count() == 0 {
            // The campaign scores a constant tree once, without trials.
            let n = c.test_accuracy;
            (n, n, n, 1.0)
        } else {
            let trials = tracer.span("mismatch", job, |_| {
                mismatch_trials_recorded(
                    &c.tree,
                    &split.test_analog,
                    &campaign.mismatch,
                    campaign.trials,
                    point_seed(campaign.seed, c.depth, c.tau),
                    &analog,
                    &Recorder::disabled(),
                )
            });
            counts.mc_sample_evals += trials.accuracies.len() as f64 * samples;
            let report = trials.report();
            (
                trials.nominal,
                report.mean,
                report.min,
                trials.yield_within(campaign.yield_loss),
            )
        };
        let droop_margin = tracer.span("campaign.droop", job, |_| {
            campaign.droop.margin(&c.tree, &split.test_analog, nominal)
        });
        let replayed = RobustnessProfile {
            nominal,
            mean_under_mismatch: mean,
            min_under_mismatch: min,
            worst_single_fault: faults.worst_accuracy,
            benign_fault_fraction: faults.benign_fraction,
            droop_margin,
            yield_estimate,
        };
        if outcome.profile_for(c.tau, c.depth) != Some(&replayed) {
            return Err(format!(
                "serial replay of the profile at (τ {}, depth {}) differs from the campaign",
                c.tau, c.depth
            ));
        }
    }
    Ok(())
}

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What the traced run measured.
pub struct Traced {
    /// Per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Jobs attempted and failed (any oracle or replay mismatch fails).
    pub tally: Tally,
    /// The spans.
    pub tracer: Tracer,
    /// Human-readable layer table and dominant layer.
    pub report: String,
}

/// Layers whose calls run the library's own worker threads; the serial
/// replay charges their time to the layers inside them.
const ORCHESTRATION: [&str; 2] = ["explore", "campaign"];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs one traced round of `workload`.
pub fn traced_run(workload: Workload, seed: u64) -> Traced {
    let mut tracer = Tracer::on();
    let (recorder, sink) = Recorder::collecting();
    let inputs: Inputs = tracer.span("datasets", NO_JOB, |_| setup(workload, seed));
    let mut tally = Tally::default();
    let mut prints = Vec::new();
    let mut counts = ReplayCounts::default();
    let mut untraced_wall = 0.0;
    let mut candidates = 0usize;
    let mut comparators = 0usize;
    let mut lint_chosen = (0usize, 0usize);
    for (index, split) in inputs.splits.iter().enumerate() {
        let start = Instant::now();
        let reference = run_job(&inputs, index);
        untraced_wall += start.elapsed().as_secs_f64();
        let print = judge(&inputs, index, &reference, None);
        prints.push(print.as_ref().ok().copied());
        let mut verdict = print.map(drop);

        let out = tracer.span("job", index, |t| {
            composed_flow(split, workload.robust(), &recorder, t, index)
        });
        if verdict.is_ok() && out != reference {
            verdict = Err("the composed job's outputs differ from the flow's".to_owned());
        }
        candidates += out.sweep.candidates.len();
        comparators += out
            .sweep
            .candidates
            .iter()
            .map(|c| c.system.comparator_count())
            .sum::<usize>();
        lint_chosen.0 += 1;
        lint_chosen.1 += out.lint.as_ref().map_or(0, |l| l.error_count());
        verdict = verdict.and_then(|()| {
            tracer.span("replay.sweep", index, |t| {
                replay_sweep(split, &out.sweep, t, index, &mut counts)
            })
        });
        if workload.robust() {
            verdict = verdict.and_then(|()| {
                tracer.span("replay.campaign", index, |t| {
                    replay_campaign(split, &out, t, index, &mut counts)
                })
            });
        }
        tally.record(index, &verdict);
    }
    rerun_checks(&inputs, &prints, false, &mut tally);

    let snapshot = sink.snapshot();
    let counter = |name: &str| snapshot.counter(name) as f64;
    let own = tracer.self_times(|_| true);
    let time = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let sweep_replay = tracer.total("replay.sweep");
    let campaign_replay = tracer.total("replay.campaign");
    let traced_wall = tracer.total("job");
    let fault_time = time("robustness");
    let metrics: Vec<Metric> = vec![
        ("datasets.busy_s", time("datasets"), "s"),
        ("datasets.samples", inputs.samples as f64, "count"),
        ("dtree.reference_s", time("dtree.reference"), "s"),
        ("dtree.baseline_s", time("dtree.baseline"), "s"),
        ("train.busy_s", time("train"), "s"),
        ("train.trees", counter(keys::TREES_TRAINED), "count"),
        ("train.gini_evals", counter(keys::GINI_EVALS), "count"),
        ("explore.busy_s", time("explore"), "s"),
        ("explore.candidates", candidates as f64, "count"),
        (
            "explore.truncated_share",
            ratio(counter(keys::TREES_SHARED), candidates as f64),
            "ratio",
        ),
        ("explore.failed", counter(keys::SWEEP_FAILED), "count"),
        (
            "explore.speedup",
            ratio(sweep_replay, time("explore")),
            "ratio",
        ),
        ("unary.synth_s", time("unary.synth"), "s"),
        ("unary.score_s", time("unary.score"), "s"),
        (
            "logic.gates",
            counter("kernel.netlist_synth.items"),
            "count",
        ),
        ("adc.comparators", comparators as f64, "count"),
        ("lint.busy_s", time("lint"), "s"),
        (
            "lint.candidates",
            (counts.lint_candidates + lint_chosen.0) as f64,
            "count",
        ),
        (
            "lint.errors",
            (counts.lint_errors + lint_chosen.1) as f64,
            "count",
        ),
        ("robustness.busy_s", fault_time, "s"),
        ("robustness.faults", counter(keys::FAULTS_INJECTED), "count"),
        ("robustness.fault_evals", counts.fault_evals, "count"),
        (
            "robustness.fault_evals_per_s",
            ratio(counts.fault_evals, fault_time),
            "1/s",
        ),
        ("mismatch.busy_s", time("mismatch"), "s"),
        ("mismatch.trials", counter(keys::MC_TRIALS), "count"),
        ("mismatch.sample_evals", counts.mc_sample_evals, "count"),
        ("mismatch.failures", counter(keys::MC_FAILURES), "count"),
        ("campaign.busy_s", time("campaign"), "s"),
        ("campaign.droop_s", time("campaign.droop"), "s"),
        (
            "campaign.trials_spent",
            counter(keys::ROBUST_TRIALS_SPENT),
            "count",
        ),
        (
            "campaign.speedup",
            ratio(campaign_replay, time("campaign")),
            "ratio",
        ),
        ("flow.unattributed_s", time("job"), "s"),
        ("trace.overhead_s", traced_wall - untraced_wall, "s"),
    ];
    let report = layer_report(workload, &tracer, untraced_wall);
    Traced {
        metrics,
        tally,
        tracer,
        report,
    }
}

/// Span names that are not layers: the replay wrappers.
const WRAPPERS: [&str; 2] = ["replay.sweep", "replay.campaign"];

/// Self-time tables for the set-up and the jobs, and the job layer that
/// took the most. The sweep and campaign calls are left out of that race:
/// the serial replay charges their time to the layers inside them.
fn layer_report(workload: Workload, tracer: &Tracer, untraced_wall: f64) -> String {
    let mut out = format!(
        "traced {}: jobs took {:.3} s traced, {untraced_wall:.3} s untraced\n",
        workload.name(),
        tracer.total("job"),
    );
    let mut dominant = None;
    for (phase, setup) in [("set-up", true), ("jobs and replays", false)] {
        let own = tracer.self_times(|s| (s.job == NO_JOB) == setup && !WRAPPERS.contains(&s.name));
        let total: f64 = own.values().sum();
        let mut rows: Vec<(&str, f64)> = own
            .iter()
            .map(|(&name, &t)| {
                (
                    if name == "job" {
                        "flow.unattributed"
                    } else {
                        name
                    },
                    t,
                )
            })
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        out += &format!("{phase}: self time per layer over {total:.3} s\n");
        for (name, t) in &rows {
            out += &format!(
                "  {name:<20} {t:>9.4} s {:>6.1}%\n",
                100.0 * ratio(*t, total)
            );
        }
        if !setup {
            dominant = rows
                .iter()
                .find(|(name, _)| !ORCHESTRATION.contains(name))
                .map(|&(name, t)| (name, 100.0 * ratio(t, total)));
        }
    }
    if let Some((name, share)) = dominant {
        out += &format!(
            "dominant layer of the jobs: {name} ({share:.1}% of their self time; \
             sweep and campaign calls broken down by the serial replay)\n"
        );
    }
    out
}
