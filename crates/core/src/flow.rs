//! The one-call co-design flow.
//!
//! Everything the paper's framework does, behind a single builder: train
//! the ADC-unaware reference, synthesize the baseline system, sweep the
//! ADC-aware grid, select under the accuracy-loss constraint, and package
//! the result with its comparisons. The `codesign` CLI, `bench_all` and
//! `table2` are thin callers of this one composition; only the figure
//! binaries that need the raw sweep (`fig5`, `bench_robust`) call the
//! explorer directly.
//!
//! ```no_run
//! use printed_codesign::flow::CodesignFlow;
//! use printed_datasets::Benchmark;
//!
//! let (train, test) = Benchmark::Seeds.load_quantized(4)?;
//! let outcome = CodesignFlow::new(&train, &test).accuracy_loss(0.01).run();
//! println!("{}", outcome.datasheet());
//! assert!(outcome.chosen.system.is_self_powered());
//! # Ok::<(), printed_datasets::DatasetError>(())
//! ```

use serde::{Deserialize, Serialize};

use printed_datasets::QuantizedDataset;
use printed_dtree::cart::train_depth_selected;
use printed_dtree::{synthesize_baseline_with, BaselineDesign};
use printed_logic::report::AnalysisConfig;
use printed_pdk::{AnalogModel, CellKind, CellLibrary};
use printed_telemetry::{keys, FieldValue, FlowTrace, Recorder, RunManifest};

use printed_datasets::Dataset;

use crate::campaign::{CampaignOutcome, RobustnessCampaign, RobustnessConstraints};
use crate::datasheet::Datasheet;
use crate::explore::{explore_core, CandidateDesign, Exploration, ExplorationConfig, ProgressFn};
use crate::system::Reduction;

/// Builder for the full co-design flow.
#[derive(Clone)]
pub struct CodesignFlow<'a> {
    train: &'a QuantizedDataset,
    test: &'a QuantizedDataset,
    accuracy_loss: f64,
    grid: ExplorationConfig,
    library: CellLibrary,
    analog: AnalogModel,
    analysis: AnalysisConfig,
    title: String,
    recorder: Recorder,
    progress: Option<ProgressFn<'a>>,
    robustness: Option<(RobustnessCampaign, &'a Dataset, RobustnessConstraints)>,
}

impl std::fmt::Debug for CodesignFlow<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CodesignFlow")
            .field("title", &self.title)
            .field("accuracy_loss", &self.accuracy_loss)
            .field("grid", &self.grid)
            .field("traced", &self.recorder.is_enabled())
            .field("progress", &self.progress.map(|_| "<callback>"))
            .finish_non_exhaustive()
    }
}

impl<'a> CodesignFlow<'a> {
    /// Starts a flow over a train/test pair with the paper's defaults
    /// (1% accuracy loss, full τ×depth grid, EGFET technology at 20 Hz).
    pub fn new(train: &'a QuantizedDataset, test: &'a QuantizedDataset) -> Self {
        Self {
            train,
            test,
            accuracy_loss: 0.01,
            grid: ExplorationConfig::paper(),
            library: CellLibrary::egfet(),
            analog: AnalogModel::egfet(),
            analysis: AnalysisConfig::printed_20hz(),
            title: train.name().to_owned(),
            recorder: Recorder::disabled(),
            progress: None,
            robustness: None,
        }
    }

    /// Sets the accuracy-loss constraint (fraction; `0.01` = one point).
    ///
    /// # Panics
    ///
    /// Panics unless `loss ∈ [0, 1)`.
    pub fn accuracy_loss(mut self, loss: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&loss),
            "loss must be in [0, 1), got {loss}"
        );
        self.accuracy_loss = loss;
        self
    }

    /// Replaces the exploration grid (e.g. [`ExplorationConfig::quick`]).
    pub fn grid(mut self, grid: ExplorationConfig) -> Self {
        self.grid = grid;
        self
    }

    /// Replaces the digital cell library.
    pub fn library(mut self, library: CellLibrary) -> Self {
        self.library = library;
        self
    }

    /// Replaces the analog cost model.
    pub fn analog(mut self, analog: AnalogModel) -> Self {
        self.analog = analog;
        self
    }

    /// Replaces the analysis conditions.
    pub fn analysis(mut self, analysis: AnalysisConfig) -> Self {
        self.analysis = analysis;
        self
    }

    /// Sets the title used in the datasheet rendering.
    pub fn title(mut self, title: impl Into<String>) -> Self {
        self.title = title.into();
        self
    }

    /// Installs a telemetry [`Recorder`]. Stage spans, per-candidate sweep
    /// spans, and Algorithm 1 counters flow into its sink; if the sink
    /// supports snapshots, [`FlowOutcome::trace`] is populated too.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Shorthand for [`CodesignFlow::recorder`] with a fresh in-memory
    /// collecting sink, so [`FlowOutcome::trace`] comes back `Some`.
    pub fn traced(self) -> Self {
        let (recorder, _sink) = Recorder::collecting();
        self.recorder(recorder)
    }

    /// Installs a live progress callback, invoked from the sweep's worker
    /// threads once per finished grid point (`k/N candidates done`). Works
    /// with or without a recorder.
    pub fn progress(mut self, callback: ProgressFn<'a>) -> Self {
        self.progress = Some(callback);
        self
    }

    /// Runs `campaign` over the sweep and selects on *robust* accuracy
    /// (mean under mismatch) instead of nominal, with default (empty)
    /// admission constraints. `analog_test` is the normalized analog test
    /// split the Monte Carlo scores on (same benchmark as the quantized
    /// pair). See [`Exploration::select_robust`].
    ///
    /// Under an [adaptive budget](RobustnessCampaign::budgeted) the flow
    /// sets the budget's admission constraints to the selection's and, when
    /// unset, its robust floor to `reference accuracy − loss`. When the
    /// grid checkpoints ([`ExplorationConfig::with_checkpoint`]), the
    /// campaign checkpoints to `<path>.robust` and resumes from it.
    pub fn robustness(self, campaign: RobustnessCampaign, analog_test: &'a Dataset) -> Self {
        self.robustness_with(campaign, analog_test, RobustnessConstraints::default())
    }

    /// [`robustness`](Self::robustness) with explicit admission
    /// constraints (minimum yield / worst-fault accuracy / droop margin).
    /// When no candidate meets the robust floor and constraints, the flow
    /// falls back to nominal selection so it still returns a design.
    pub fn robustness_with(
        mut self,
        campaign: RobustnessCampaign,
        analog_test: &'a Dataset,
        constraints: RobustnessConstraints,
    ) -> Self {
        self.robustness = Some((campaign, analog_test, constraints));
        self
    }

    /// Runs the flow.
    ///
    /// # Panics
    ///
    /// Panics if either dataset is empty or the grid is malformed (see
    /// [`ExplorationConfig::validate`]) — the grid is checked here, before
    /// any training starts.
    pub fn run(self) -> FlowOutcome {
        self.grid.validate();
        // Main-thread kernel tallies (selection-path synthesis, lint);
        // sweep workers enter their own per-thread scopes. Dropped before
        // the snapshot below so the tallies land in the trace.
        let kernel_scope = printed_telemetry::KernelScope::enter(&self.recorder);
        let max_depth = *self.grid.depths.iter().max().expect("validated");

        let stage = self.recorder.span(keys::STAGE_REFERENCE);
        let reference = train_depth_selected(self.train, self.test, max_depth);
        stage.finish();

        let stage = self.recorder.span(keys::STAGE_BASELINE);
        let baseline =
            synthesize_baseline_with(&reference.tree, &self.library, &self.analog, &self.analysis);
        stage.finish();

        let stage = self.recorder.span(keys::STAGE_SWEEP);
        let sweep = explore_core(
            self.train,
            self.test,
            &self.grid,
            &self.library,
            &self.analog,
            &self.analysis,
            &self.recorder,
            self.progress,
            true,
            reference.test_accuracy,
        );
        stage.finish();

        let campaign = self
            .robustness
            .as_ref()
            .map(|(campaign, analog_test, constraints)| {
                // Under an adaptive budget the early-exit decisions must be
                // taken against the *selection* criteria, or the sequential
                // stopping rule could discard trials that selection still
                // needed. Inject the flow's robust floor and constraints so
                // the campaign decides exactly what `select_robust` will.
                let mut campaign = campaign.clone();
                if let Some(adaptive) = campaign.adaptive.as_mut() {
                    adaptive.constraints = *constraints;
                    if adaptive.robust_floor.is_none() {
                        adaptive.robust_floor = Some(sweep.reference_accuracy - self.accuracy_loss);
                    }
                }
                // The campaign checkpoints beside a checkpointed sweep, never
                // inside it: sweep compaction rewrites that file.
                let checkpoint = self.grid.checkpoint_path.clone().map(|p| p + ".robust");
                let stage = self.recorder.span(keys::STAGE_ROBUSTNESS);
                let outcome = campaign.run_checkpointed(
                    &sweep,
                    self.test,
                    analog_test,
                    &self.analog,
                    &self.recorder,
                    checkpoint.as_deref(),
                );
                stage.finish();
                (outcome, constraints)
            });

        let stage = self.recorder.span(keys::STAGE_SELECTION);
        let robust_choice = campaign.as_ref().and_then(|(outcome, constraints)| {
            let choice = sweep.select_robust(self.accuracy_loss, outcome, constraints)?;
            let profile = outcome
                .profile_for(choice.tau, choice.depth)
                .expect("robust choice was profiled");
            self.recorder.event(
                keys::ROBUST_SELECTED_EVENT,
                vec![
                    ("tau".to_owned(), FieldValue::F64(choice.tau)),
                    ("depth".to_owned(), FieldValue::U64(choice.depth as u64)),
                    ("accuracy".to_owned(), FieldValue::F64(choice.test_accuracy)),
                    (
                        "robust_accuracy".to_owned(),
                        FieldValue::F64(profile.robust_accuracy()),
                    ),
                ],
            );
            Some(choice.clone())
        });
        let chosen = robust_choice
            .or_else(|| sweep.select(self.accuracy_loss).cloned())
            .or_else(|| sweep.most_accurate().cloned())
            .expect("non-empty grid yields candidates");
        record_selection(&self.recorder, &chosen, &self.analog);
        stage.finish();

        let stage = self.recorder.span(keys::STAGE_LINT);
        let lint = crate::lint::lint_candidate(
            &chosen,
            &self.analog,
            Some(&self.grid),
            &printed_lint::LintConfig::new(),
        );
        crate::lint::record_lint(&self.recorder, &lint);
        stage.finish();

        drop(kernel_scope);
        record_process_gauges(&self.recorder);
        let trace = self.recorder.snapshot().map(|snapshot| {
            let manifest = RunManifest::capture(self.train.name())
                .with_grid(&self.grid.taus, self.grid.depths.iter().copied())
                .with_seed(self.grid.seed)
                .with_accuracy_loss(self.accuracy_loss);
            FlowTrace::from_snapshot(&self.title, &snapshot).with_manifest(manifest)
        });
        FlowOutcome {
            title: self.title,
            accuracy_loss: self.accuracy_loss,
            reference_accuracy: sweep.reference_accuracy,
            baseline,
            sweep,
            chosen,
            robustness: campaign.map(|(outcome, _)| outcome),
            lint: Some(lint),
            trace,
        }
    }
}

/// Stamps process-level gauges ([`keys::PEAK_RSS_KB`], and the allocation
/// totals when `printed-telemetry`'s `count-allocs` feature is active)
/// into `recorder`, so the finalized trace carries a memory axis next to
/// the wall-time one. Call once, immediately before snapshotting — peak
/// RSS is monotone, so the last value is the run's high-water mark.
/// No-op when the recorder is disabled or off Linux.
pub fn record_process_gauges(recorder: &Recorder) {
    if !recorder.is_enabled() {
        return;
    }
    if let Some(kb) = printed_telemetry::peak_rss_kb() {
        recorder.gauge(keys::PEAK_RSS_KB).record_max(kb);
    }
    if let Some((count, bytes)) = printed_telemetry::alloc_counts() {
        recorder.set_gauge(keys::ALLOC_COUNT, count);
        recorder.set_gauge(keys::ALLOC_BYTES, bytes);
    }
}

/// Records a selected design into `recorder`: the [`keys::SELECTED_EVENT`]
/// headline, comparator retention and per-input ADC attribution (via
/// [`printed_adc::BespokeAdcBank::record_hardware`]), AND/OR gate tallies
/// from the synthesized netlist's cell histogram, and one
/// [`keys::CLASS_EVENT`] per class label with its two-level cover size.
/// No-op when the recorder is disabled.
///
/// [`CodesignFlow::run`] calls this at selection time.
fn record_selection(recorder: &Recorder, chosen: &CandidateDesign, analog: &AnalogModel) {
    if !recorder.is_enabled() {
        return;
    }
    let system = &chosen.system;
    recorder.event(
        keys::SELECTED_EVENT,
        vec![
            ("tau".to_owned(), FieldValue::F64(chosen.tau)),
            ("depth".to_owned(), FieldValue::U64(chosen.depth as u64)),
            ("accuracy".to_owned(), FieldValue::F64(chosen.test_accuracy)),
            (
                "area_mm2".to_owned(),
                FieldValue::F64(system.total_area().mm2()),
            ),
            (
                "power_mw".to_owned(),
                FieldValue::F64(system.total_power().mw()),
            ),
            (
                "comparators".to_owned(),
                FieldValue::U64(system.comparator_count() as u64),
            ),
        ],
    );
    system
        .classifier
        .adc_bank()
        .record_hardware(recorder, analog);
    let (mut and_gates, mut or_gates) = (0u64, 0u64);
    for &(kind, n) in &system.digital.histogram {
        match kind {
            CellKind::And2
            | CellKind::And3
            | CellKind::And4
            | CellKind::Nand2
            | CellKind::Nand3
            | CellKind::Nand4 => and_gates += n as u64,
            CellKind::Or2
            | CellKind::Or3
            | CellKind::Or4
            | CellKind::Nor2
            | CellKind::Nor3
            | CellKind::Nor4 => or_gates += n as u64,
            _ => {}
        }
    }
    recorder.add(keys::HW_AND_GATES, and_gates);
    recorder.add(keys::HW_OR_GATES, or_gates);
    for class in 0..system.classifier.n_classes() {
        let sop = system.classifier.class_sop(class);
        recorder.event(
            keys::CLASS_EVENT,
            vec![
                ("class".to_owned(), FieldValue::U64(class as u64)),
                (
                    "cubes".to_owned(),
                    FieldValue::U64(sop.cubes().len() as u64),
                ),
                (
                    "literals".to_owned(),
                    FieldValue::U64(sop.literal_count() as u64),
                ),
            ],
        );
    }
}

/// The result of [`CodesignFlow::run`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowOutcome {
    /// Title used for rendering.
    pub title: String,
    /// The accuracy-loss constraint the selection used.
    pub accuracy_loss: f64,
    /// The ADC-unaware reference's test accuracy.
    pub reference_accuracy: f64,
    /// The synthesized state-of-the-art baseline (\[2\]).
    pub baseline: BaselineDesign,
    /// The full exploration (all grid points), for custom selection.
    pub sweep: Exploration,
    /// The selected co-design.
    pub chosen: CandidateDesign,
    /// The robustness campaign's per-candidate profiles — `Some` iff the
    /// flow ran with [`CodesignFlow::robustness`].
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub robustness: Option<CampaignOutcome>,
    /// The static-analysis findings over the chosen design — `Some` for
    /// every [`CodesignFlow::run`]; `None` only when deserializing
    /// outcomes produced before the lint stage existed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub lint: Option<printed_lint::LintReport>,
    /// Telemetry summary of this run — `Some` iff a snapshot-capable
    /// recorder was installed ([`CodesignFlow::traced`] or
    /// [`CodesignFlow::recorder`] with a collecting sink).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub trace: Option<FlowTrace>,
}

impl FlowOutcome {
    /// Reduction factors of the chosen design vs the baseline.
    pub fn reduction(&self) -> Reduction {
        self.chosen.system.reduction_vs(&self.baseline)
    }

    /// The run's telemetry summary, if the flow was traced.
    pub fn trace(&self) -> Option<&FlowTrace> {
        self.trace.as_ref()
    }

    /// Renders the chosen design's datasheet.
    pub fn datasheet(&self) -> String {
        Datasheet::new(
            &self.title,
            &self.chosen.system,
            Some(self.chosen.test_accuracy),
        )
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use printed_datasets::Benchmark;

    #[test]
    fn flow_end_to_end_on_small_benchmark() {
        let (train, test) = Benchmark::Seeds.load_quantized(4).unwrap();
        let outcome = CodesignFlow::new(&train, &test)
            .accuracy_loss(0.01)
            .grid(ExplorationConfig::quick())
            .title("Seeds flow")
            .run();
        assert!(outcome.chosen.test_accuracy >= outcome.reference_accuracy - 0.01 - 1e-9);
        let r = outcome.reduction();
        assert!(r.power_factor > 1.0);
        let sheet = outcome.datasheet();
        assert!(sheet.contains("Seeds flow"));
        assert!(outcome.sweep.candidates.len() == 9);
    }

    #[test]
    fn flow_respects_custom_grid_and_loss() {
        let (train, test) = Benchmark::Vertebral2C.load_quantized(4).unwrap();
        let grid = ExplorationConfig {
            taus: vec![0.0],
            depths: vec![2, 3],
            seed: 1,
            ..ExplorationConfig::quick()
        };
        let outcome = CodesignFlow::new(&train, &test)
            .accuracy_loss(0.05)
            .grid(grid)
            .run();
        assert_eq!(outcome.sweep.candidates.len(), 2);
        assert!(outcome.chosen.depth <= 3);
    }

    #[test]
    #[should_panic(expected = "loss must be")]
    fn flow_rejects_invalid_loss() {
        let (train, test) = Benchmark::Seeds.load_quantized(4).unwrap();
        let _ = CodesignFlow::new(&train, &test).accuracy_loss(1.5);
    }

    #[test]
    #[should_panic(expected = "exploration grid has no depths")]
    fn flow_rejects_empty_grid_before_training() {
        let (train, test) = Benchmark::Seeds.load_quantized(4).unwrap();
        let grid = ExplorationConfig {
            taus: vec![0.0],
            depths: vec![],
            seed: 1,
            ..ExplorationConfig::quick()
        };
        let _ = CodesignFlow::new(&train, &test).grid(grid).run();
    }

    #[test]
    fn traced_flow_records_stages_and_candidates() {
        let (train, test) = Benchmark::Seeds.load_quantized(4).unwrap();
        let grid = ExplorationConfig::quick();
        let expected_candidates = grid.grid_size();
        let expected_taus = grid.taus.len();
        let outcome = CodesignFlow::new(&train, &test)
            .accuracy_loss(0.01)
            .grid(grid)
            .traced()
            .run();
        let trace = outcome.trace().expect("traced flow must carry a trace");
        for stage in [
            keys::STAGE_REFERENCE,
            keys::STAGE_BASELINE,
            keys::STAGE_SWEEP,
            keys::STAGE_SELECTION,
            keys::STAGE_LINT,
        ] {
            assert!(trace.stage(stage).is_some(), "missing {stage}");
        }
        // The lint stage ran, found no errors on a clean design, and its
        // counters mirror the report carried on the outcome.
        let lint = outcome.lint.as_ref().expect("flow always lints");
        assert!(!lint.has_errors(), "{}", lint.render_text());
        assert_eq!(
            trace.counter(keys::LINT_DIAGNOSTICS),
            lint.diagnostics.len() as u64
        );
        assert_eq!(trace.counter(keys::LINT_ERRORS), 0);
        assert_eq!(trace.sweep.total_candidates, expected_candidates);
        // Prefix sharing: one training per τ, the rest by truncation.
        assert_eq!(trace.counter(keys::TREES_TRAINED) as usize, expected_taus);
        assert_eq!(
            trace.counter(keys::TREES_SHARED) as usize,
            expected_candidates - expected_taus
        );
        let (s_z, s_m, s_h) = trace.split_selections();
        assert!(s_z + s_m + s_h > 0, "Algorithm 1 tallies must be populated");
        // The selection event mirrors the chosen design.
        let selected: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.name == keys::SELECTED_EVENT)
            .collect();
        assert_eq!(selected.len(), 1);
        assert_eq!(
            selected[0].field("depth").and_then(FieldValue::as_u64),
            Some(outcome.chosen.depth as u64)
        );
        assert_eq!(
            selected[0]
                .field("comparators")
                .and_then(FieldValue::as_u64),
            Some(outcome.chosen.system.comparator_count() as u64)
        );
        // Hardware attribution: comparator retention matches the chosen
        // system, and per-ADC/per-class events cover every input/class.
        assert_eq!(
            trace.counter(keys::HW_COMPARATORS_RETAINED) as usize,
            outcome.chosen.system.comparator_count()
        );
        assert!(trace.counter(keys::HW_COMPARATORS_DROPPED) > 0);
        assert!(trace.counter(keys::HW_LADDER_RESISTORS) > 0);
        assert!(trace.counter(keys::HW_AND_GATES) > 0);
        assert!(trace.counter(keys::TRAIN_NODES) > 0);
        assert_eq!(
            trace
                .events
                .iter()
                .filter(|e| e.name == keys::ADC_EVENT)
                .count(),
            outcome.chosen.system.input_count()
        );
        assert_eq!(
            trace
                .events
                .iter()
                .filter(|e| e.name == keys::CLASS_EVENT)
                .count(),
            outcome.chosen.system.classifier.n_classes()
        );
        // Provenance rides along.
        let manifest = trace
            .manifest
            .as_ref()
            .expect("traced flow stamps a manifest");
        assert_eq!(manifest.dataset, train.name());
        assert_eq!(manifest.grid_size(), expected_candidates);
        // Renderers stay usable from the outcome.
        assert!(trace.to_ndjson().contains(r#""kind":"flow""#));
        assert!(trace.render_text().contains("candidates"));
    }

    #[test]
    fn untraced_flow_carries_no_trace_and_matches_traced_results() {
        let (train, test) = Benchmark::Vertebral2C.load_quantized(4).unwrap();
        let grid = ExplorationConfig {
            taus: vec![0.0, 0.01],
            depths: vec![2, 3],
            seed: 7,
            ..ExplorationConfig::quick()
        };
        let plain = CodesignFlow::new(&train, &test).grid(grid.clone()).run();
        let traced = CodesignFlow::new(&train, &test).grid(grid).traced().run();
        assert!(plain.trace().is_none());
        assert!(traced.trace().is_some());
        // Instrumentation must not perturb the numbers.
        assert_eq!(plain.chosen, traced.chosen);
        assert_eq!(plain.sweep, traced.sweep);
        assert_eq!(plain.reference_accuracy, traced.reference_accuracy);
    }

    #[test]
    fn robust_flow_profiles_the_sweep_and_selects_robustly() {
        let (train, test) = Benchmark::Seeds.load_quantized(4).unwrap();
        let (_, analog_test) = Benchmark::Seeds.load_split().unwrap();
        let outcome = CodesignFlow::new(&train, &test)
            .accuracy_loss(0.05)
            .grid(ExplorationConfig::quick())
            .robustness(RobustnessCampaign::quick(), &analog_test)
            .traced()
            .run();
        let campaign = outcome.robustness.as_ref().expect("campaign ran");
        assert_eq!(campaign.profiles.len(), outcome.sweep.candidates.len());
        // The chosen design is one the campaign profiled.
        assert!(campaign
            .profile_for(outcome.chosen.tau, outcome.chosen.depth)
            .is_some());
        let trace = outcome.trace().expect("traced");
        assert!(trace.stage(keys::STAGE_ROBUSTNESS).is_some());
        // The robust-selection event matches the chosen design whenever
        // robust selection (not the nominal fallback) decided.
        let robust_events: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.name == keys::ROBUST_SELECTED_EVENT)
            .collect();
        if let [event] = robust_events.as_slice() {
            assert_eq!(
                event.field("depth").and_then(FieldValue::as_u64),
                Some(outcome.chosen.depth as u64)
            );
            assert!(event
                .field("robust_accuracy")
                .and_then(FieldValue::as_f64)
                .is_some());
        }
        // Flow without robustness: no campaign rides along.
        let plain = CodesignFlow::new(&train, &test)
            .accuracy_loss(0.05)
            .grid(ExplorationConfig::quick())
            .run();
        assert!(plain.robustness.is_none());
    }
    #[test]
    fn checkpointed_flow_checkpoints_the_campaign_and_resumes_from_it() {
        let (train, test) = Benchmark::Seeds.load_quantized(4).unwrap();
        let (_, analog_test) = Benchmark::Seeds.load_split().unwrap();
        let path =
            std::env::temp_dir().join(format!("printed-flow-ckpt-{}.ndjson", std::process::id()));
        let path = path.to_str().unwrap().to_owned();
        let robust_path = format!("{path}.robust");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&robust_path);
        let run = || {
            CodesignFlow::new(&train, &test)
                .accuracy_loss(0.05)
                .grid(ExplorationConfig::quick().with_checkpoint(&path))
                .robustness(RobustnessCampaign::quick(), &analog_test)
                .traced()
                .run()
        };
        let mut first = run();
        assert!(
            std::fs::metadata(&robust_path).is_ok_and(|m| m.len() > 0),
            "the campaign checkpoints beside the sweep checkpoint"
        );
        let mut resumed = run();
        let profiled = first
            .robustness
            .as_ref()
            .expect("campaign ran")
            .profiles
            .len();
        let trace = resumed.trace.take().expect("traced");
        assert_eq!(
            trace.counter(keys::ROBUST_CHECKPOINT_HITS) as usize,
            profiled,
            "every profiled candidate is restored"
        );
        assert_eq!(
            trace.counter(keys::SWEEP_CHECKPOINT_HITS) as usize,
            first.sweep.candidates.len()
        );
        first.trace = None;
        assert_eq!(resumed, first);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&robust_path);
    }
}
