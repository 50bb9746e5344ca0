//! Regression gating: compare two runs and fail loudly when the flow got
//! slower or the hardware got bigger.
//!
//! Three record kinds are gated, one per bench axis: [`TraceStats`]
//! (`bench_stats`, the committed `BENCH_all.ndjson` suite), [`KernelStats`]
//! (`kernel_stats`, `BENCH_hotpath.ndjson`) and [`RobustStats`]
//! (`robust_stats`, `BENCH_robust.ndjson`). Each describes itself once
//! through [`Stats`]: its [`Axis`] (record kinds, pairing key, history
//! columns) and its list of [`Metric`]s, each tagged with one [`Rule`].
//! Every axis then runs through the same code: [`Stats::parse_suite`]
//! reads a suite, [`diff_suites`] pairs two suites under a strict key
//! bijection (a record missing on either side is a hard `Err`),
//! [`diff`] gates one pair into a [`DiffReport`], and the
//! `printed-trace diff` subcommand turns a failed report into exit code
//! 1, which is what CI gates on.
//!
//! ## Noise-calibrated gating
//!
//! Percentage tolerances are the wrong tool for timing: a 5% gate on a
//! 2.5 ms run fires on 125 µs of scheduler jitter. Baselines produced by
//! the bench drivers therefore carry a *calibration*: the median and MAD
//! (median absolute deviation) of `k` repeat runs, plus the host
//! environment class (`cpus/threads/build`). A [`Rule::Noisy`] metric
//! then gates at
//!
//! ```text
//! median ± max(floor, MAD_Z × MAD)
//! ```
//!
//! — an absolute threshold derived from the baseline's own measured
//! noise, with a floor ([`WALL_FLOOR_US`] or [`REL_FLOOR`] of the median)
//! so a near-zero MAD cannot make the gate hair-trigger. Host-timing
//! gates refuse to judge a run from a different environment class (2-core
//! debug vs 8-core release tells you nothing); deterministic metrics are
//! still gated in that case. A bench wall time against an uncalibrated
//! baseline (a single-shot trace or `snapshot`) falls back to the
//! percentage check.
//!
//! Timing regresses only one way (faster is fine); hardware numbers are
//! checked for drift in *either* direction — the flow is deterministic,
//! so an unexplained area change is a behavior change even if it shrinks.

use printed_telemetry::{keys, FieldValue, FlowTrace, JsonLine};

use crate::history::{col, Column, Fmt};
use crate::json::{parse as parse_json, JsonValue};
use crate::parse::parse_trace;

/// Absolute floor of the calibrated wall gates, µs: the tolerated excess
/// over the baseline median is never smaller than 50 ms.
pub const WALL_FLOOR_US: u64 = 50_000;

/// MAD multiplier of every calibrated gate. 8 MADs ≈ 5.4σ for Gaussian
/// noise — far enough out that scheduler jitter essentially never fires
/// it, close enough that a real 2× regression always does.
pub const MAD_Z: f64 = 8.0;

/// Relative floor of the kernel-throughput and trials-spent gates: the
/// tolerated shift is never smaller than 25% of the baseline median.
/// Isolated kernel drivers run for milliseconds, where cross-process load
/// shifts of 10–20% are routine and invisible to an in-process MAD; the
/// regressions worth gating are step changes (an algorithmic 2×), not
/// jitter.
pub const REL_FLOOR: f64 = 0.25;

/// One bench axis: what its records are called, how they pair, how a
/// suite summary names them, and which metrics its history keeps.
#[derive(Debug, PartialEq)]
pub struct Axis {
    /// Kind of the baseline records, e.g. `"kernel_stats"`.
    pub stats_kind: &'static str,
    /// Kind of the history records, e.g. `"kernel_history"`.
    pub history_kind: &'static str,
    /// Record fields that pair a record with its counterpart, dataset
    /// first.
    pub key: &'static [&'static str],
    /// Suite summary label and noun (`hotpath: 48/48 kernels passed`).
    pub summary: (&'static str, &'static str),
    /// Title prefix of this axis' history tables.
    pub history_title: &'static str,
    /// The metrics the history keeps, in record order.
    pub history: &'static [Column],
}

/// Every gated axis, in the order history tables render.
pub const AXES: [&Axis; 3] = [TraceStats::AXIS, KernelStats::AXIS, RobustStats::AXIS];

/// How one metric is gated. The baseline's rule decides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Shown in the report, never gated.
    Info,
    /// Deterministic: must match exactly (1e-9 for floats), both ways.
    Exact,
    /// Relative drift past [`DiffConfig::max_regress`] in either direction.
    Drift,
    /// Relative rise past [`DiffConfig::max_regress`], or past
    /// [`DiffConfig::max_wall_regress`] for an uncalibrated wall time.
    Regress {
        /// Use the wall tolerance.
        wall: bool,
    },
    /// Calibrated: `median ± max(floor, MAD_Z × MAD)`.
    Noisy(Noise),
}

/// A calibrated metric's baseline noise and gate policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Noise {
    /// Median across the calibration runs.
    pub median: u64,
    /// Median absolute deviation across the calibration runs.
    pub mad: u64,
    /// Calibration runs (0 = uncalibrated: the check is skipped).
    pub runs: u64,
    /// `true` when a rise is the regression, `false` when a fall is.
    pub higher_is_worse: bool,
    /// Smallest tolerated shift.
    pub floor: Floor,
    /// Refuse to judge a run from a different environment class.
    pub env_refused: bool,
}

/// The floor of a calibrated gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Floor {
    /// An absolute amount, in the metric's unit.
    Abs(u64),
    /// A fraction of the baseline median.
    Rel(f64),
}

impl Rule {
    /// A wall-clock gate: a rise past `median + max(WALL_FLOOR_US,
    /// MAD_Z × MAD)` regresses, refused across environment classes.
    fn wall(median: u64, mad: u64, runs: u64) -> Self {
        Rule::Noisy(Noise {
            median,
            mad,
            runs,
            higher_is_worse: true,
            floor: Floor::Abs(WALL_FLOOR_US),
            env_refused: true,
        })
    }
}

/// One number of a record, with its gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Record field name; also the row name of rendered reports.
    pub key: &'static str,
    /// Name used in violations and notes.
    pub label: &'static str,
    /// The value this record reports.
    pub value: f64,
    /// How the value is gated.
    pub rule: Rule,
}

fn metric(key: &'static str, label: &'static str, value: f64, rule: Rule) -> Metric {
    Metric {
        key,
        label,
        value,
        rule,
    }
}

/// The provenance fields every record carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Provenance<'a> {
    /// Git revision that produced the record (empty when unknown).
    pub git_sha: &'a str,
    /// Logical CPUs of the producing host (0 = unknown).
    pub cpus: u64,
    /// Explicit sweep thread override (0 = auto).
    pub threads: u64,
    /// Build profile (`"release"`/`"debug"`, empty = unknown).
    pub build: &'a str,
    /// Unix timestamp (seconds) the record was produced (0 = unknown).
    pub unix_secs: u64,
}

/// A gated record kind: everything [`diff`], [`diff_suites`] and the
/// history need to know about it.
pub trait Stats: Clone + Sized {
    /// The axis this record kind belongs to.
    const AXIS: &'static Axis;

    /// Values of the [`Axis::key`] fields.
    fn key(&self) -> Vec<&str>;

    /// The provenance fields.
    fn provenance(&self) -> Provenance<'_>;

    /// Every gated or shown number, in report order. Both sides of a
    /// diff list the same metrics in the same order.
    fn metrics(&self) -> Vec<Metric>;

    /// Serializes to one JSON line — the committed-baseline format.
    fn to_json(&self) -> String;

    /// Parses one record of this kind.
    fn from_json(value: &JsonValue) -> Result<Self, String>;

    /// A violation for runs that are not comparable at all, beyond a
    /// differing key (none by default).
    fn config_drift(&self, _current: &Self) -> Option<String> {
        None
    }

    /// Reads a gate input: every record of this kind, plus parse
    /// warnings. A text holding none is an error.
    fn parse_suite(text: &str) -> Result<(Vec<Self>, Vec<String>), String> {
        let stats = records::<Self>(text)?;
        if stats.is_empty() {
            return Err(format!("no {} records found", Self::AXIS.stats_kind));
        }
        Ok((stats, Vec::new()))
    }

    /// `{cpus}cpu/{threads|auto}/{build}` — the host-environment class of
    /// the producing run (mirrors
    /// [`printed_telemetry::RunManifest::env_class`]); `None` when neither
    /// the CPU count nor the build profile is known.
    fn env_class(&self) -> Option<String> {
        let p = self.provenance();
        if p.cpus == 0 && p.build.is_empty() {
            return None;
        }
        let threads = if p.threads == 0 {
            "auto".to_owned()
        } else {
            format!("{}t", p.threads)
        };
        Some(format!("{}cpu/{threads}/{}", p.cpus, p.build))
    }
}

/// Every `*_stats` record of `text`, with its axis — the one parse loop
/// behind [`suite_axis`] and [`Stats::parse_suite`]. Lines of other kinds
/// and unparseable lines are skipped.
fn stats_records(text: &str) -> impl Iterator<Item = (&'static Axis, JsonValue)> + '_ {
    text.lines().filter_map(|line| {
        let value = parse_json(line.trim()).ok()?;
        let kind = value.get("kind")?.as_str()?;
        let axis = AXES.into_iter().find(|axis| axis.stats_kind == kind)?;
        Some((axis, value))
    })
}

fn records<S: Stats>(text: &str) -> Result<Vec<S>, String> {
    stats_records(text)
        .filter(|(axis, _)| *axis == S::AXIS)
        .map(|(_, value)| S::from_json(&value))
        .collect()
}

/// The axis of a gate input: `None` when it holds no `*_stats` record (a
/// trace dump), an error when it mixes records of more than one axis.
pub fn suite_axis(text: &str) -> Result<Option<&'static Axis>, String> {
    let mut axes: Vec<&'static Axis> = Vec::new();
    for (axis, _) in stats_records(text) {
        if !axes.contains(&axis) {
            axes.push(axis);
        }
    }
    match axes.as_slice() {
        [] => Ok(None),
        [axis] => Ok(Some(axis)),
        _ => Err(format!(
            "mixes {} records; each suite file carries exactly one axis",
            axes.iter()
                .map(|axis| axis.stats_kind)
                .collect::<Vec<_>>()
                .join(" and ")
        )),
    }
}

/// Reads the fields of one JSON record, defaulting absent ones.
pub(crate) struct Fields<'a>(pub(crate) &'a JsonValue);

impl Fields<'_> {
    pub(crate) fn s(&self, key: &str) -> String {
        self.0
            .get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_owned()
    }

    pub(crate) fn u(&self, key: &str) -> u64 {
        self.0.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
    }

    pub(crate) fn f(&self, key: &str) -> f64 {
        self.0.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
    }
}

/// `kind`, the key fields and `git_sha` — how every record line starts.
fn json_head<S: Stats>(stats: &S) -> JsonLine {
    let mut line = JsonLine::new().str("kind", S::AXIS.stats_kind);
    for (name, value) in S::AXIS.key.iter().zip(stats.key()) {
        line = line.str(name, value);
    }
    line.str("git_sha", stats.provenance().git_sha)
}

/// The environment fields (when known) and the timestamp (when set) —
/// how every record line ends.
fn json_tail<S: Stats>(stats: &S, mut line: JsonLine) -> String {
    let p = stats.provenance();
    if stats.env_class().is_some() {
        line = line
            .u64("cpus", p.cpus)
            .u64("threads", p.threads)
            .str("build", p.build);
    }
    if p.unix_secs > 0 {
        line = line.u64("unix_secs", p.unix_secs);
    }
    line.finish()
}

/// The guarded numbers of one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceStats {
    /// Benchmark/dataset name (from the manifest, else the trace title).
    pub dataset: String,
    /// Git revision that produced the run (empty when unknown).
    pub git_sha: String,
    /// τ grid of the sweep (empty when no manifest rode along).
    pub taus: Vec<f64>,
    /// Depth grid of the sweep.
    pub depths: Vec<u64>,
    /// Wall time of the run, µs. For calibrated baselines this is the
    /// median of the repeat runs (kept equal to [`wall_us_median`] so old
    /// readers see a sane number).
    ///
    /// [`wall_us_median`]: TraceStats::wall_us_median
    pub wall_us: u64,
    /// Median wall time across the calibration's repeat runs, µs
    /// (0 = uncalibrated single-shot run).
    pub wall_us_median: u64,
    /// Median absolute deviation of the repeat runs' wall times, µs.
    pub wall_us_mad: u64,
    /// Number of repeat runs behind the calibration (0 = uncalibrated).
    pub calib_runs: u64,
    /// Gini evaluations across the sweep (the training-cost proxy).
    pub gini_evals: u64,
    /// Trees trained across the sweep.
    pub trees: u64,
    /// Candidates derived by prefix-shared truncation instead of training
    /// (0 on baselines recorded before the shared sweep engine).
    pub trees_shared: u64,
    /// Selected design's total area, mm².
    pub area_mm2: f64,
    /// Selected design's total power, mW.
    pub power_mw: f64,
    /// Selected design's retained comparators.
    pub comparators: u64,
    /// Peak resident-set size of the producing process, kB (0 = not
    /// recorded).
    pub peak_rss_kb: u64,
    /// Logical CPUs of the producing host (0 = unknown).
    pub cpus: u64,
    /// Explicit sweep thread override (0 = auto).
    pub threads: u64,
    /// Build profile (`"release"`/`"debug"`, empty = unknown).
    pub build: String,
    /// Unix timestamp (seconds) the run was recorded (0 = unknown).
    pub unix_secs: u64,
}

impl TraceStats {
    /// Condenses a trace to its guarded numbers.
    pub fn from_trace(trace: &FlowTrace) -> Self {
        let selected = trace.events.iter().find(|e| e.name == keys::SELECTED_EVENT);
        let f = |key: &str| {
            selected
                .and_then(|e| e.field(key))
                .and_then(FieldValue::as_f64)
                .unwrap_or(0.0)
        };
        let u = |key: &str| {
            selected
                .and_then(|e| e.field(key))
                .and_then(FieldValue::as_u64)
                .unwrap_or(0)
        };
        let manifest = trace.manifest.as_ref();
        Self {
            dataset: manifest
                .map(|m| m.dataset.clone())
                .unwrap_or_else(|| trace.title.clone()),
            git_sha: manifest.map(|m| m.git_sha.clone()).unwrap_or_default(),
            taus: manifest.map(|m| m.taus.clone()).unwrap_or_default(),
            depths: manifest.map(|m| m.depths.clone()).unwrap_or_default(),
            wall_us: trace.wall_us,
            wall_us_median: 0,
            wall_us_mad: 0,
            calib_runs: 0,
            gini_evals: trace.counter(keys::GINI_EVALS),
            trees: trace.counter(keys::TREES_TRAINED),
            trees_shared: trace.counter(keys::TREES_SHARED),
            area_mm2: f("area_mm2"),
            power_mw: f("power_mw"),
            comparators: u("comparators"),
            peak_rss_kb: trace.gauge(keys::PEAK_RSS_KB),
            cpus: manifest.map(|m| m.cpus).unwrap_or(0),
            threads: manifest.map(|m| m.threads).unwrap_or(0),
            build: manifest.map(|m| m.build.clone()).unwrap_or_default(),
            unix_secs: manifest.map(|m| m.unix_secs).unwrap_or(0),
        }
    }

    /// Installs a wall-time calibration from `k` repeat-run wall times
    /// (builder style): `wall_us` becomes the median, and median/MAD/run
    /// count are recorded for the noise-derived gate.
    pub fn with_calibration(mut self, walls_us: &[u64]) -> Self {
        if walls_us.is_empty() {
            return self;
        }
        let (median, mad) = median_mad(walls_us);
        self.wall_us = median;
        self.wall_us_median = median;
        self.wall_us_mad = mad;
        self.calib_runs = walls_us.len() as u64;
        self
    }

    /// Serializes to one `{"kind":"bench_stats"}` JSON line.
    /// Calibration, environment, and RSS fields are emitted only when
    /// set, so single-shot stats keep the compact legacy shape.
    pub fn to_json(&self) -> String {
        let list = |items: Vec<String>| format!("[{}]", items.join(","));
        let taus = self
            .taus
            .iter()
            .map(|t| {
                let s = t.to_string();
                if s.contains(['.', 'e', 'E']) {
                    s
                } else {
                    format!("{s}.0")
                }
            })
            .collect();
        let mut line = json_head(self)
            .raw("taus", &list(taus))
            .raw(
                "depths",
                &list(self.depths.iter().map(u64::to_string).collect()),
            )
            .u64("wall_us", self.wall_us);
        if self.calib_runs > 0 {
            line = line
                .u64("wall_us_median", self.wall_us_median)
                .u64("wall_us_mad", self.wall_us_mad)
                .u64("calib_runs", self.calib_runs);
        }
        line = line
            .u64("gini_evals", self.gini_evals)
            .u64("trees", self.trees)
            .u64("trees_shared", self.trees_shared)
            .f64("area_mm2", self.area_mm2)
            .f64("power_mw", self.power_mw)
            .u64("comparators", self.comparators);
        if self.peak_rss_kb > 0 {
            line = line.u64("peak_rss_kb", self.peak_rss_kb);
        }
        json_tail(self, line)
    }

    /// Parses either format a gate input can be: a `bench_stats` JSON
    /// line (committed baseline) or a full NDJSON trace dump (fresh run).
    /// Returns the stats plus any parse warnings. Multi-record files are
    /// valid input; this returns the *first* record — use
    /// [`TraceStats::from_text_multi`] to get the whole suite.
    pub fn from_text(text: &str) -> Result<(Self, Vec<String>), String> {
        let (mut many, warnings) = Self::from_text_multi(text)?;
        Ok((many.remove(0), warnings))
    }

    /// Parses every run a gate input holds: all `bench_stats` lines of a
    /// baseline suite (e.g. `BENCH_all.ndjson`), or the single condensed
    /// record of an NDJSON trace dump. Never returns an empty vector.
    pub fn from_text_multi(text: &str) -> Result<(Vec<Self>, Vec<String>), String> {
        let stats = records::<Self>(text)?;
        if !stats.is_empty() {
            return Ok((stats, Vec::new()));
        }
        let parsed = parse_trace(text);
        if parsed.trace == FlowTrace::default() && !parsed.warnings.is_empty() {
            return Err(format!(
                "not a bench_stats file or a parseable trace ({})",
                parsed.warnings[0]
            ));
        }
        Ok((vec![Self::from_trace(&parsed.trace)], parsed.warnings))
    }
}

static BENCH_AXIS: Axis = Axis {
    stats_kind: "bench_stats",
    history_kind: "bench_history",
    key: &["dataset"],
    summary: ("suite", "benchmarks"),
    history_title: "history",
    history: &[
        col("wall_us", "wall_us", 9, Fmt::Int).delta("Δwall"),
        col("gini_evals", "gini_evals", 11, Fmt::Int),
        col("trees", "", 0, Fmt::Int),
        col("trees_shared", "", 0, Fmt::Int),
        col("area_mm2", "area_mm2", 9, Fmt::Fixed(3)),
        col("power_mw", "power_mw", 9, Fmt::Fixed(4)),
        col("comparators", "cmp", 4, Fmt::Int),
        col("peak_rss_kb", "rss_kb", 9, Fmt::Int)
            .optional()
            .delta("Δrss"),
    ],
};

impl Stats for TraceStats {
    const AXIS: &'static Axis = &BENCH_AXIS;

    fn key(&self) -> Vec<&str> {
        vec![&self.dataset]
    }

    fn provenance(&self) -> Provenance<'_> {
        Provenance {
            git_sha: &self.git_sha,
            cpus: self.cpus,
            threads: self.threads,
            build: &self.build,
            unix_secs: self.unix_secs,
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        let wall = if self.calib_runs > 0 && self.wall_us_median > 0 {
            Rule::wall(self.wall_us_median, self.wall_us_mad, self.calib_runs)
        } else {
            Rule::Regress { wall: true }
        };
        let regress = Rule::Regress { wall: false };
        vec![
            metric("wall_us", "wall time (µs)", self.wall_us as f64, wall),
            metric("gini_evals", "gini evals", self.gini_evals as f64, regress),
            metric("trees", "trees", self.trees as f64, Rule::Info),
            metric(
                "trees_shared",
                "shared trees",
                self.trees_shared as f64,
                Rule::Info,
            ),
            metric("area_mm2", "area (mm²)", self.area_mm2, Rule::Drift),
            metric("power_mw", "power (mW)", self.power_mw, Rule::Drift),
            metric(
                "comparators",
                "comparators",
                self.comparators as f64,
                Rule::Drift,
            ),
            metric(
                "peak_rss_kb",
                "peak RSS (kB)",
                self.peak_rss_kb as f64,
                Rule::Info,
            ),
        ]
    }

    fn to_json(&self) -> String {
        TraceStats::to_json(self)
    }

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let f = Fields(value);
        let mut taus = Vec::new();
        if let Some(arr) = value.get("taus").and_then(JsonValue::as_arr) {
            for v in arr {
                taus.push(v.as_f64().ok_or("tau is not a number")?);
            }
        }
        let mut depths = Vec::new();
        if let Some(arr) = value.get("depths").and_then(JsonValue::as_arr) {
            for v in arr {
                depths.push(v.as_u64().ok_or("depth is not an integer")?);
            }
        }
        Ok(Self {
            dataset: f.s("dataset"),
            git_sha: f.s("git_sha"),
            taus,
            depths,
            wall_us: f.u("wall_us"),
            // Absent from single-shot / legacy baselines; 0 = uncalibrated.
            wall_us_median: f.u("wall_us_median"),
            wall_us_mad: f.u("wall_us_mad"),
            calib_runs: f.u("calib_runs"),
            gini_evals: f.u("gini_evals"),
            trees: f.u("trees"),
            // Absent from pre-sharing baselines; defaults to 0 there.
            trees_shared: f.u("trees_shared"),
            area_mm2: f.f("area_mm2"),
            power_mw: f.f("power_mw"),
            comparators: f.u("comparators"),
            peak_rss_kb: f.u("peak_rss_kb"),
            cpus: f.u("cpus"),
            threads: f.u("threads"),
            build: f.s("build"),
            unix_secs: f.u("unix_secs"),
        })
    }

    /// Comparing different grids is apples to oranges.
    fn config_drift(&self, current: &Self) -> Option<String> {
        (!self.taus.is_empty()
            && !current.taus.is_empty()
            && (self.taus != current.taus || self.depths != current.depths))
            .then(|| {
                format!(
                    "config drift: grid changed ({}τ×{}d → {}τ×{}d)",
                    self.taus.len(),
                    self.depths.len(),
                    current.taus.len(),
                    current.depths.len(),
                )
            })
    }

    fn parse_suite(text: &str) -> Result<(Vec<Self>, Vec<String>), String> {
        Self::from_text_multi(text)
    }
}

/// One kernel's guarded numbers on one benchmark — the record format of
/// the committed `BENCH_hotpath.ndjson` baseline that `bench_hot` writes
/// and the `hotpath-gate` CI job diffs against.
///
/// The deterministic pair (`calls`, `items`) pins *how much work* the
/// kernel did; the calibrated throughput trio (`tp_median`, `tp_mad`,
/// `calib_runs`, in items/second) pins *how fast* it did it, with the
/// baseline's own measured noise setting the gate width.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KernelStats {
    /// Benchmark/dataset name.
    pub dataset: String,
    /// Kernel name (e.g. `gini_scan`), from [`printed_telemetry::Kernel`].
    pub kernel: String,
    /// Git revision that produced the record (empty when unknown).
    pub git_sha: String,
    /// Kernel invocations per isolated driver run (deterministic).
    pub calls: u64,
    /// Items processed per isolated driver run (deterministic).
    pub items: u64,
    /// Median throughput across the calibration runs, items/second
    /// (0 = uncalibrated).
    pub tp_median: u64,
    /// Median absolute deviation of the repeat runs' throughputs,
    /// items/second.
    pub tp_mad: u64,
    /// Number of repeat runs behind the calibration (0 = uncalibrated).
    pub calib_runs: u64,
    /// Logical CPUs of the producing host (0 = unknown).
    pub cpus: u64,
    /// Explicit sweep thread override (0 = auto).
    pub threads: u64,
    /// Build profile (`"release"`/`"debug"`, empty = unknown).
    pub build: String,
    /// Unix timestamp (seconds) the record was produced (0 = unknown).
    pub unix_secs: u64,
}

impl KernelStats {
    /// Installs a throughput calibration from `k` repeat-run throughput
    /// samples (items/second), builder style.
    pub fn with_calibration(mut self, throughputs: &[u64]) -> Self {
        if throughputs.is_empty() {
            return self;
        }
        let (median, mad) = median_mad(throughputs);
        self.tp_median = median;
        self.tp_mad = mad;
        self.calib_runs = throughputs.len() as u64;
        self
    }

    /// Serializes to one `{"kind":"kernel_stats"}` JSON line.
    pub fn to_json(&self) -> String {
        let line = json_head(self)
            .u64("calls", self.calls)
            .u64("items", self.items)
            .u64("tp_median", self.tp_median)
            .u64("tp_mad", self.tp_mad)
            .u64("calib_runs", self.calib_runs);
        json_tail(self, line)
    }
}

static KERNEL_AXIS: Axis = Axis {
    stats_kind: "kernel_stats",
    history_kind: "kernel_history",
    key: &["dataset", "kernel"],
    summary: ("hotpath", "kernels"),
    history_title: "kernel history",
    history: &[
        col("calls", "calls", 7, Fmt::Int),
        col("items", "items", 9, Fmt::Int),
        col("tp_median", "items/s", 14, Fmt::Int).delta("Δtp"),
    ],
};

impl Stats for KernelStats {
    const AXIS: &'static Axis = &KERNEL_AXIS;

    fn key(&self) -> Vec<&str> {
        vec![&self.dataset, &self.kernel]
    }

    fn provenance(&self) -> Provenance<'_> {
        Provenance {
            git_sha: &self.git_sha,
            cpus: self.cpus,
            threads: self.threads,
            build: &self.build,
            unix_secs: self.unix_secs,
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        let throughput = Rule::Noisy(Noise {
            median: self.tp_median,
            mad: self.tp_mad,
            runs: self.calib_runs,
            higher_is_worse: false,
            floor: Floor::Rel(REL_FLOOR),
            env_refused: true,
        });
        vec![
            metric("calls", "calls", self.calls as f64, Rule::Exact),
            metric("items", "items", self.items as f64, Rule::Exact),
            metric(
                "tp_median",
                "throughput (items/s)",
                self.tp_median as f64,
                throughput,
            ),
        ]
    }

    fn to_json(&self) -> String {
        KernelStats::to_json(self)
    }

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let f = Fields(value);
        Ok(Self {
            dataset: f.s("dataset"),
            kernel: f.s("kernel"),
            git_sha: f.s("git_sha"),
            calls: f.u("calls"),
            items: f.u("items"),
            tp_median: f.u("tp_median"),
            tp_mad: f.u("tp_mad"),
            calib_runs: f.u("calib_runs"),
            cpus: f.u("cpus"),
            threads: f.u("threads"),
            build: f.s("build"),
            unix_secs: f.u("unix_secs"),
        })
    }
}

/// One benchmark's robustness-campaign numbers — the record format of
/// the committed `BENCH_robust.ndjson` baseline that `bench_robust`
/// writes and the `robust-gate` CI job diffs against.
///
/// The campaign is fully seeded, so the selected grid point and every
/// robustness metric (yield, worst fault, droop margin, pruned-point
/// count) are deterministic and gated **exactly, in both directions** —
/// a yield that silently drifts is a behavior change even if it improves.
/// Trials spent and wall time are host-timing–shaped and gated against
/// the baseline's own measured noise (median ± MAD across the
/// calibration runs), with the wall gate refused across environment
/// classes like the other axes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RobustStats {
    /// Benchmark/dataset name.
    pub dataset: String,
    /// Git revision that produced the record (empty when unknown).
    pub git_sha: String,
    /// Gini slack τ of the robust-selected design.
    pub tau: f64,
    /// Depth cap of the robust-selected design.
    pub depth: u64,
    /// Selected design's nominal analog accuracy.
    pub nominal: f64,
    /// Selected design's mean accuracy under mismatch (the robust
    /// selection metric).
    pub robust_accuracy: f64,
    /// Selected design's parametric-yield estimate.
    pub yield_est: f64,
    /// Selected design's accuracy under the worst single stuck-at fault.
    pub worst_fault: f64,
    /// Selected design's supply-droop margin (relative sag).
    pub droop_margin: f64,
    /// Grid points the campaign's probe pre-pass pruned (deterministic).
    pub pruned_points: u64,
    /// Monte-Carlo trials an exhaustive campaign would have run.
    pub trials_budget: u64,
    /// Median Monte-Carlo trials actually spent across the calibration
    /// runs (deterministic per seed, but calibrated so an adaptive-policy
    /// tune-up only gates when it *costs* trials).
    pub trials_median: u64,
    /// Median absolute deviation of trials spent across the runs.
    pub trials_mad: u64,
    /// Median campaign wall time across the calibration runs, µs.
    pub wall_us_median: u64,
    /// Median absolute deviation of the campaign wall times, µs.
    pub wall_us_mad: u64,
    /// Number of repeat runs behind the calibration (0 = uncalibrated).
    pub calib_runs: u64,
    /// Logical CPUs of the producing host (0 = unknown).
    pub cpus: u64,
    /// Explicit sweep thread override (0 = auto).
    pub threads: u64,
    /// Build profile (`"release"`/`"debug"`, empty = unknown).
    pub build: String,
    /// Unix timestamp (seconds) the record was produced (0 = unknown).
    pub unix_secs: u64,
}

impl RobustStats {
    /// Installs the calibration from `k` repeat runs' trial spends and
    /// campaign wall times, builder style.
    pub fn with_calibration(mut self, trials_spent: &[u64], walls_us: &[u64]) -> Self {
        if trials_spent.is_empty() || walls_us.is_empty() {
            return self;
        }
        let (t_median, t_mad) = median_mad(trials_spent);
        let (w_median, w_mad) = median_mad(walls_us);
        self.trials_median = t_median;
        self.trials_mad = t_mad;
        self.wall_us_median = w_median;
        self.wall_us_mad = w_mad;
        self.calib_runs = trials_spent.len() as u64;
        self
    }

    /// Serializes to one `{"kind":"robust_stats"}` JSON line.
    pub fn to_json(&self) -> String {
        let line = json_head(self)
            .f64("tau", self.tau)
            .u64("depth", self.depth)
            .f64("nominal", self.nominal)
            .f64("robust_accuracy", self.robust_accuracy)
            .f64("yield", self.yield_est)
            .f64("worst_fault", self.worst_fault)
            .f64("droop_margin", self.droop_margin)
            .u64("pruned_points", self.pruned_points)
            .u64("trials_budget", self.trials_budget)
            .u64("trials_median", self.trials_median)
            .u64("trials_mad", self.trials_mad)
            .u64("wall_us_median", self.wall_us_median)
            .u64("wall_us_mad", self.wall_us_mad)
            .u64("calib_runs", self.calib_runs);
        json_tail(self, line)
    }
}

static ROBUST_AXIS: Axis = Axis {
    stats_kind: "robust_stats",
    history_kind: "robust_history",
    key: &["dataset"],
    summary: ("robustness", "benchmarks"),
    history_title: "robust history",
    history: &[
        col("tau", "tau", 7, Fmt::Float),
        col("depth", "depth", 5, Fmt::Int),
        col("yield", "yield", 7, Fmt::Fixed(4)),
        col("worst_fault", "worst_fault", 11, Fmt::Fixed(4)),
        col("trials_median", "trials", 7, Fmt::Int).delta("Δtrials"),
        col("trials_budget", "budget", 7, Fmt::Int),
        col("pruned_points", "pruned", 7, Fmt::Int),
    ],
};

impl Stats for RobustStats {
    const AXIS: &'static Axis = &ROBUST_AXIS;

    fn key(&self) -> Vec<&str> {
        vec![&self.dataset]
    }

    fn provenance(&self) -> Provenance<'_> {
        Provenance {
            git_sha: &self.git_sha,
            cpus: self.cpus,
            threads: self.threads,
            build: &self.build,
            unix_secs: self.unix_secs,
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        // Floats round-trip bit-exactly through the NDJSON encoding, so
        // the 1e-9 slack of `Exact` is pure defense.
        let trials = Rule::Noisy(Noise {
            median: self.trials_median,
            mad: self.trials_mad,
            runs: self.calib_runs,
            higher_is_worse: true,
            floor: Floor::Rel(REL_FLOOR),
            env_refused: false,
        });
        let wall = Rule::wall(self.wall_us_median, self.wall_us_mad, self.calib_runs);
        vec![
            metric("tau", "selected τ", self.tau, Rule::Exact),
            metric("depth", "selected depth", self.depth as f64, Rule::Exact),
            metric("nominal", "nominal accuracy", self.nominal, Rule::Exact),
            metric(
                "robust_accuracy",
                "robust accuracy",
                self.robust_accuracy,
                Rule::Exact,
            ),
            metric("yield", "yield", self.yield_est, Rule::Exact),
            metric(
                "worst_fault",
                "worst-fault accuracy",
                self.worst_fault,
                Rule::Exact,
            ),
            metric(
                "droop_margin",
                "droop margin",
                self.droop_margin,
                Rule::Exact,
            ),
            metric(
                "pruned_points",
                "pruned points",
                self.pruned_points as f64,
                Rule::Exact,
            ),
            metric(
                "trials_budget",
                "trial budget",
                self.trials_budget as f64,
                Rule::Exact,
            ),
            metric(
                "trials_median",
                "trials spent",
                self.trials_median as f64,
                trials,
            ),
            metric(
                "wall_us_median",
                "campaign wall (µs)",
                self.wall_us_median as f64,
                wall,
            ),
        ]
    }

    fn to_json(&self) -> String {
        RobustStats::to_json(self)
    }

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let f = Fields(value);
        Ok(Self {
            dataset: f.s("dataset"),
            git_sha: f.s("git_sha"),
            tau: f.f("tau"),
            depth: f.u("depth"),
            nominal: f.f("nominal"),
            robust_accuracy: f.f("robust_accuracy"),
            yield_est: f.f("yield"),
            worst_fault: f.f("worst_fault"),
            droop_margin: f.f("droop_margin"),
            pruned_points: f.u("pruned_points"),
            trials_budget: f.u("trials_budget"),
            trials_median: f.u("trials_median"),
            trials_mad: f.u("trials_mad"),
            wall_us_median: f.u("wall_us_median"),
            wall_us_mad: f.u("wall_us_mad"),
            calib_runs: f.u("calib_runs"),
            cpus: f.u("cpus"),
            threads: f.u("threads"),
            build: f.s("build"),
            unix_secs: f.u("unix_secs"),
        })
    }
}

/// Median and median-absolute-deviation of a sample, both in the
/// sample's unit. Even-length samples average the middle pair (rounding
/// down). Empty samples return `(0, 0)`.
pub fn median_mad(samples: &[u64]) -> (u64, u64) {
    fn median(sorted: &[u64]) -> u64 {
        match sorted.len() {
            0 => 0,
            n if n % 2 == 1 => sorted[n / 2],
            n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2,
        }
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let med = median(&sorted);
    let mut deviations: Vec<u64> = sorted.iter().map(|&x| x.abs_diff(med)).collect();
    deviations.sort_unstable();
    (med, median(&deviations))
}

/// Tolerances for [`diff`]. The calibrated gates take their parameters
/// from [`WALL_FLOOR_US`], [`MAD_Z`] and [`REL_FLOOR`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffConfig {
    /// Allowed relative drift for deterministic metrics (Gini evals,
    /// area, power, comparators). Default 5%.
    pub max_regress: f64,
    /// Allowed relative wall-time regression for *uncalibrated*
    /// baselines. Defaults to `max_regress`; raise it independently on
    /// noisy shared CI runners.
    pub max_wall_regress: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        Self {
            max_regress: 0.05,
            max_wall_regress: 0.05,
        }
    }
}

/// The outcome of comparing a current record against its baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport<S = TraceStats> {
    /// The committed reference record.
    pub baseline: S,
    /// The fresh run's record.
    pub current: S,
    /// Tolerances used.
    pub config: DiffConfig,
    /// One line per gate failure (empty = pass).
    pub violations: Vec<String>,
    /// Non-fatal observations (improvements, refusals, skipped checks).
    pub notes: Vec<String>,
}

impl<S: Stats> DiffReport<S> {
    /// Whether the gate passes (no violations).
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the comparison as text: metric table, then verdict.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "diff: {} (baseline {}) vs {} (current {})\n",
            self.baseline.key().join("/"),
            short(self.baseline.provenance().git_sha),
            self.current.key().join("/"),
            short(self.current.provenance().git_sha),
        );
        out.push_str(&format!(
            "  {:<15} {:>14} {:>14} {:>9}\n",
            "metric", "baseline", "current", "delta"
        ));
        for (base, cur) in self.baseline.metrics().iter().zip(self.current.metrics()) {
            out.push_str(&format!(
                "  {:<15} {:>14.4} {:>14.4} {:>9}\n",
                base.key,
                base.value,
                cur.value,
                relative_delta(base.value, cur.value)
            ));
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        for violation in &self.violations {
            out.push_str(&format!("  FAIL: {violation}\n"));
        }
        out.push_str(if self.passed() {
            "  verdict: PASS\n"
        } else {
            "  verdict: REGRESSION\n"
        });
        out
    }
}

fn relative_delta(base: f64, cur: f64) -> String {
    if base == 0.0 {
        "n/a".to_owned()
    } else {
        format!("{:+.1}%", 100.0 * (cur - base) / base)
    }
}

/// Renders a gated suite as one GitHub-flavored markdown table — a row
/// per record, a column per metric (`baseline → current (Δ)` where they
/// differ), and the verdict. Meant for CI step summaries, where the
/// per-record text blocks are too noisy to scan.
pub fn render_table<S: Stats>(reports: &[DiffReport<S>]) -> String {
    let keys: Vec<&str> = reports
        .first()
        .map(|r| r.baseline.metrics().iter().map(|m| m.key).collect())
        .unwrap_or_default();
    let mut out = format!(
        "| {} | {} | verdict |\n|---|{}---|\n",
        S::AXIS.key.join("/"),
        keys.join(" | "),
        "---:|".repeat(keys.len()),
    );
    for report in reports {
        let cells: Vec<String> = report
            .baseline
            .metrics()
            .iter()
            .zip(report.current.metrics())
            .map(|(base, cur)| {
                if base.value == cur.value {
                    cur.value.to_string()
                } else {
                    let delta = relative_delta(base.value, cur.value);
                    format!("{} → {} ({delta})", base.value, cur.value)
                }
            })
            .collect();
        out.push_str(&format!(
            "| {} | {} | {} |\n",
            report.baseline.key().join("/"),
            cells.join(" | "),
            if report.passed() {
                "pass"
            } else {
                "REGRESSION"
            },
        ));
    }
    out
}

/// First eight characters of a git SHA, or `unknown` when empty.
pub(crate) fn short(sha: &str) -> &str {
    if sha.is_empty() {
        return "unknown";
    }
    let end = sha.char_indices().nth(8).map_or(sha.len(), |(i, _)| i);
    &sha[..end]
}

/// Compares `current` against `baseline` under `config`.
pub fn diff<S: Stats>(baseline: &S, current: &S, config: DiffConfig) -> DiffReport<S> {
    let mut violations = Vec::new();
    let mut notes = Vec::new();

    // Comparing different datasets or grids is apples to oranges: fail
    // before any number is looked at.
    let (base_key, cur_key) = (baseline.key().join("/"), current.key().join("/"));
    if !base_key.is_empty() && !cur_key.is_empty() && base_key != cur_key {
        violations.push(format!(
            "config drift: baseline ran {base_key:?}, current ran {cur_key:?}"
        ));
    }
    violations.extend(baseline.config_drift(current));

    let env_mismatch = match (baseline.env_class(), current.env_class()) {
        (Some(base), Some(cur)) if base != cur => Some((base, cur)),
        _ => None,
    };
    for (base, cur) in baseline.metrics().iter().zip(current.metrics()) {
        match gate(base, cur.value, env_mismatch.as_ref(), config) {
            Some(Ok(note)) => notes.push(note),
            Some(Err(violation)) => violations.push(violation),
            None => {}
        }
    }

    DiffReport {
        baseline: baseline.clone(),
        current: current.clone(),
        config,
        violations,
        notes,
    }
}

/// Applies `base.rule` to one metric: `Err(violation)`, `Ok(note)`, or
/// nothing to say.
fn gate(
    base: &Metric,
    current: f64,
    env_mismatch: Option<&(String, String)>,
    config: DiffConfig,
) -> Option<Result<String, String>> {
    let (label, baseline) = (base.label, base.value);
    match base.rule {
        Rule::Info => None,
        Rule::Exact => ((baseline - current).abs() > 1e-9).then(|| {
            Err(format!(
                "{label} changed: {baseline} → {current} \
                 (deterministic metric must match exactly)"
            ))
        }),
        Rule::Drift if baseline == 0.0 => (current != 0.0)
            .then(|| Err(format!("{label} appeared ({current:.4}) with no baseline"))),
        Rule::Drift => {
            let tolerance = config.max_regress;
            let ratio = (current - baseline).abs() / baseline;
            (ratio > tolerance).then(|| {
                Err(format!(
                    "{label} drifted {:.1}% ({baseline:.4} → {current:.4}, tolerance {:.1}%)",
                    ratio * 100.0,
                    tolerance * 100.0,
                ))
            })
        }
        Rule::Regress { .. } if baseline <= 0.0 => {
            Some(Ok(format!("{label}: no baseline value, check skipped")))
        }
        Rule::Regress { wall } => {
            let tolerance = if wall {
                config.max_wall_regress
            } else {
                config.max_regress
            };
            let ratio = current / baseline - 1.0;
            if ratio > tolerance {
                Some(Err(format!(
                    "{label} regressed {:.1}% ({baseline:.0} → {current:.0}, tolerance {:.1}%)",
                    ratio * 100.0,
                    tolerance * 100.0,
                )))
            } else {
                (ratio < -tolerance).then(|| Ok(format!("{label} improved {:.1}%", -ratio * 100.0)))
            }
        }
        Rule::Noisy(Noise { median, runs, .. }) if runs == 0 || median == 0 => Some(Ok(format!(
            "{label}: no calibrated baseline, check skipped"
        ))),
        Rule::Noisy(noise) => Some(match env_mismatch {
            Some((base_env, cur_env)) if noise.env_refused => Ok(format!(
                "{label} gate REFUSED: environment class mismatch \
                 (baseline {base_env}, current {cur_env}) — deterministic metrics still gated"
            )),
            _ => gate_noisy(label, &noise, current as u64),
        }),
    }
}

/// The calibrated gate proper: `median ± max(floor, MAD_Z × MAD)`.
fn gate_noisy(label: &str, noise: &Noise, current: u64) -> Result<String, String> {
    let Noise {
        median, mad, runs, ..
    } = *noise;
    let (floor, floor_text) = match noise.floor {
        Floor::Abs(amount) => (amount, format!("{amount} floor")),
        Floor::Rel(fraction) => (
            (fraction * median as f64) as u64,
            format!("{:.0}% floor", fraction * 100.0),
        ),
    };
    let slack = floor.max((MAD_Z * mad as f64) as u64);
    let (threshold, regressed, improved, cmp, sign) = if noise.higher_is_worse {
        let threshold = median + slack;
        (threshold, current > threshold, current < median, '>', '+')
    } else {
        let threshold = median.saturating_sub(slack);
        (threshold, current < threshold, current > median, '<', '−')
    };
    if regressed {
        Err(format!(
            "{label} regressed: {current} {cmp} {threshold} \
             (median {median} {sign} max({floor_text}, {MAD_Z:.0}×MAD {mad}) \
             from {runs} calibration runs)"
        ))
    } else if improved {
        Ok(format!(
            "{label} improved: {median} → {current} (calibrated threshold {threshold})"
        ))
    } else {
        Ok(format!(
            "{label} {current} within calibrated threshold {threshold} \
             ({runs} runs, median {median}, MAD {mad})"
        ))
    }
}

/// Pairs two sets of records by key and diffs each pair. Both sides
/// single → paired directly (same as [`diff`]). Baseline is a suite and
/// current is a single run (or vice versa) → the single run is matched
/// against its counterpart in the suite. Anything else → the strict
/// bijection of [`diff_suites`].
pub fn diff_many<S: Stats>(
    baselines: &[S],
    currents: &[S],
    config: DiffConfig,
) -> Result<Vec<DiffReport<S>>, String> {
    let name = S::AXIS.key.join("/");
    let list = |suite: &[S]| {
        suite
            .iter()
            .map(|s| s.key().join("/"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    match (baselines, currents) {
        ([baseline], [current]) => Ok(vec![diff(baseline, current, config)]),
        (_, [current]) => {
            let baseline = find(baselines, current).ok_or_else(|| {
                format!(
                    "{name} {:?} has no baseline record (baseline has: {})",
                    current.key().join("/"),
                    list(baselines)
                )
            })?;
            Ok(vec![diff(baseline, current, config)])
        }
        ([baseline], _) => {
            let current = find(currents, baseline).ok_or_else(|| {
                format!(
                    "baseline {name} {:?} missing from the current run (current has: {})",
                    baseline.key().join("/"),
                    list(currents)
                )
            })?;
            Ok(vec![diff(baseline, current, config)])
        }
        _ => diff_suites(baselines, currents, config),
    }
}

/// Diffs two whole suites under a strict key bijection, whatever the
/// counts: every baseline record must have its counterpart in the
/// current suite and vice versa, or the comparison is a hard `Err` — a
/// record falling out of a suite (a crashed driver, a dropped kernel) is
/// exactly the kind of regression the gate exists to catch.
pub fn diff_suites<S: Stats>(
    baselines: &[S],
    currents: &[S],
    config: DiffConfig,
) -> Result<Vec<DiffReport<S>>, String> {
    if baselines.is_empty() || currents.is_empty() {
        return Err("empty stats set (nothing to compare)".to_owned());
    }
    let name = S::AXIS.key.join("/");
    let mut missing = Vec::new();
    for (side, suite, other, fate) in [
        (
            "baseline",
            baselines,
            currents,
            "missing from the current run",
        ),
        ("current", currents, baselines, "has no baseline record"),
    ] {
        for record in suite {
            if find(other, record).is_none() {
                missing.push(format!("{side} {name} {:?} {fate}", record.key().join("/")));
            }
        }
    }
    if !missing.is_empty() {
        return Err(missing.join("; "));
    }
    Ok(baselines
        .iter()
        .map(|baseline| {
            let current = find(currents, baseline).expect("bijection checked above");
            diff(baseline, current, config)
        })
        .collect())
}

fn find<'a, S: Stats>(suite: &'a [S], like: &S) -> Option<&'a S> {
    suite.iter().find(|s| s.key() == like.key())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHA: &str = "0123456789abcdef0123456789abcdef01234567";

    fn stats() -> TraceStats {
        TraceStats {
            dataset: "Seeds".into(),
            git_sha: SHA.into(),
            taus: vec![0.0, 0.005],
            depths: vec![2, 4],
            wall_us: 100_000,
            gini_evals: 4_000,
            trees: 4,
            trees_shared: 12,
            area_mm2: 12.5,
            power_mw: 1.25,
            comparators: 9,
            ..TraceStats::default()
        }
    }

    fn calibrated() -> TraceStats {
        let mut s = stats();
        s = s.with_calibration(&[98_000, 100_000, 101_000, 104_000, 99_000]);
        s.cpus = 8;
        s.threads = 0;
        s.build = "release".into();
        s.peak_rss_kb = 40_000;
        s.unix_secs = 1_750_000_000;
        s
    }

    fn kernel(dataset: &str, name: &str) -> KernelStats {
        KernelStats {
            dataset: dataset.into(),
            kernel: name.into(),
            git_sha: SHA.into(),
            calls: 7,
            items: 1_610,
            cpus: 8,
            threads: 0,
            build: "release".into(),
            unix_secs: 1_754_000_000,
            ..KernelStats::default()
        }
        // Median 1_000_000, deviations [20k, 10k, 0, 10k, 30k] → MAD 10k.
        .with_calibration(&[980_000, 990_000, 1_000_000, 1_010_000, 1_030_000])
    }

    fn robust(dataset: &str) -> RobustStats {
        RobustStats {
            dataset: dataset.into(),
            git_sha: SHA.into(),
            tau: 0.01,
            depth: 4,
            nominal: 0.9143,
            robust_accuracy: 0.9021,
            yield_est: 0.96,
            worst_fault: 0.55,
            droop_margin: 0.32,
            pruned_points: 3,
            trials_budget: 384,
            cpus: 8,
            threads: 0,
            build: "release".into(),
            unix_secs: 1_754_000_000,
            ..RobustStats::default()
        }
        // trials median 120 MAD 0; wall median 80_000 MAD 1_000.
        .with_calibration(&[120, 120, 120], &[79_000, 80_000, 81_000])
    }

    fn check<S: Stats>(base: &S, cur: &S) -> DiffReport<S> {
        diff(base, cur, DiffConfig::default())
    }

    /// Asserts `cur` passes against `base` and returns the report.
    fn passes<S: Stats + std::fmt::Debug>(base: &S, cur: &S) -> DiffReport<S> {
        let report = check(base, cur);
        assert!(report.passed(), "{:?}", report.violations);
        assert!(report.render_text().contains("verdict: PASS"));
        report
    }

    /// Asserts `cur` fails against `base` with `needle` in the first
    /// violation and returns the report.
    fn fails<S: Stats + std::fmt::Debug>(base: &S, cur: &S, needle: &str) -> DiffReport<S> {
        let report = check(base, cur);
        assert!(!report.passed(), "{needle}: {cur:?} should violate");
        assert!(
            report.violations[0].contains(needle),
            "{needle}: {:?}",
            report.violations
        );
        assert!(report.render_text().contains("verdict: REGRESSION"));
        report
    }

    fn with<S: Clone>(base: &S, edit: impl FnOnce(&mut S)) -> S {
        let mut s = base.clone();
        edit(&mut s);
        s
    }

    #[test]
    fn identical_records_pass_on_every_axis() {
        passes(&stats(), &stats());
        passes(&calibrated(), &calibrated());
        passes(&kernel("Seeds", "gini_scan"), &kernel("Seeds", "gini_scan"));
        passes(&robust("Seeds"), &robust("Seeds"));
    }

    #[test]
    fn deterministic_metrics_block_in_both_directions() {
        // Hardware drifts past 5% either way; the rest must match exactly
        // (a yield that *improves* is still a behavior change).
        let b = stats();
        for area in [11.0, 14.0] {
            fails(&b, &with(&b, |s| s.area_mm2 = area), "area");
        }
        let k = kernel("Seeds", "gini_scan");
        for calls in [6, 8] {
            fails(&k, &with(&k, |s| s.calls = calls), "calls changed");
        }
        for items in [1_609, 1_611] {
            fails(&k, &with(&k, |s| s.items = items), "items changed");
        }
        let r = robust("Seeds");
        for yield_est in [0.90, 0.99] {
            fails(&r, &with(&r, |s| s.yield_est = yield_est), "yield changed");
        }
        fails(&r, &with(&r, |s| s.depth = 2), "selected depth");
        fails(&r, &with(&r, |s| s.pruned_points = 0), "pruned points");
        // Floats get 1e-9 of slack, no more.
        passes(&r, &with(&r, |s| s.tau += 1e-12));
        fails(&r, &with(&r, |s| s.tau += 1e-6), "selected τ");
    }

    #[test]
    fn noisy_gates_flip_exactly_at_their_thresholds() {
        /// `at` passes, `past` fails naming the threshold, `better`
        /// passes with an improvement note.
        fn case<S: Stats + std::fmt::Debug>(
            base: S,
            set: impl Fn(&mut S, u64),
            (at, past, better): (u64, u64, u64),
            label: &str,
        ) {
            passes(&base, &with(&base, |s| set(s, at)));
            let report = fails(&base, &with(&base, |s| set(s, past)), label);
            assert!(
                report.violations[0].contains(&format!(" {at} (median ")),
                "{:?}",
                report.violations
            );
            assert!(report.violations[0].contains("calibration runs"));
            let report = passes(&base, &with(&base, |s| set(s, better)));
            assert!(report.notes.iter().any(|n| n.contains("improved")));
        }
        // Bench wall: 100_000 + max(50_000 floor, 8×1_000) = 150_000.
        let wall = |s: &mut TraceStats, v| s.wall_us = v;
        case(calibrated(), wall, (150_000, 150_001, 90_000), "wall time");
        // MAD above the floor: 100_000 + 8×20_000 = 260_000.
        let noisy = with(&calibrated(), |s| s.wall_us_mad = 20_000);
        case(noisy, wall, (260_000, 260_001, 90_000), "wall time");
        // Throughput, downward: 1_000_000 − max(8×40_000, 25% = 250_000).
        let tp = |s: &mut KernelStats, v| s.tp_median = v;
        let noisy = with(&kernel("Seeds", "gini_scan"), |s| s.tp_mad = 40_000);
        case(noisy, tp, (680_000, 679_999, 2_000_000), "throughput");
        // The relative floor dominates a tiny MAD: 1_000_000 − 250_000.
        let quiet = with(&kernel("Seeds", "gini_scan"), |s| s.tp_mad = 0);
        case(quiet, tp, (750_000, 749_999, 2_000_000), "throughput");
        // Trials spent, upward: 120 + max(8×0, 25%×120 = 30) = 150.
        let trials = |s: &mut RobustStats, v| s.trials_median = v;
        case(robust("Seeds"), trials, (150, 151, 60), "trials spent");
        // Campaign wall: 80_000 + max(50_000 floor, 8×1_000) = 130_000.
        let wall = |s: &mut RobustStats, v| s.wall_us_median = v;
        case(
            robust("Seeds"),
            wall,
            (130_000, 130_001, 70_000),
            "campaign wall",
        );
    }

    #[test]
    fn env_mismatch_refuses_host_timing_but_keeps_deterministic_gates() {
        /// `slow` is unjudgeable across environments; `drift` still fails.
        fn case<S: Stats + std::fmt::Debug>(
            base: S,
            to_other_env: impl Fn(&mut S),
            slow: impl Fn(&mut S),
            drift: impl Fn(&mut S),
            needle: &str,
        ) {
            let other = with(&base, to_other_env);
            let report = passes(&base, &with(&other, &slow));
            assert!(
                report.notes.iter().any(|n| n.contains("REFUSED")),
                "{:?}",
                report.notes
            );
            fails(&base, &with(&with(&other, slow), drift), needle);
        }
        case(
            calibrated(),
            |s| s.cpus = 2,
            |s| s.wall_us = 10_000_000,
            |s| s.area_mm2 = 20.0,
            "area",
        );
        case(
            kernel("Seeds", "gini_scan"),
            |s| s.cpus = 2,
            |s| s.tp_median = 1,
            |s| s.items = 999,
            "items changed",
        );
        case(
            robust("Seeds"),
            |s| s.cpus = 2,
            |s| s.wall_us_median = 10_000_000,
            |s| s.yield_est = 0.5,
            "yield changed",
        );
        // Trials spent is deterministic per seed: never refused.
        let other = with(&robust("Seeds"), |s| s.cpus = 2);
        fails(
            &robust("Seeds"),
            &with(&other, |s| s.trials_median = 151),
            "trials spent",
        );
    }

    #[test]
    fn uncalibrated_baselines_skip_timing_or_fall_back_to_percentage() {
        let k = with(&kernel("Seeds", "gini_scan"), |s| {
            (s.tp_median, s.tp_mad, s.calib_runs) = (0, 0, 0);
        });
        let report = passes(&k, &with(&k, |s| s.tp_median = 1));
        assert!(report.notes.iter().any(|n| n.contains("skipped")));
        let r = with(&robust("Seeds"), |s| {
            (s.trials_median, s.trials_mad, s.calib_runs) = (0, 0, 0);
            (s.wall_us_median, s.wall_us_mad) = (0, 0);
        });
        let cur = with(&r, |s| {
            (s.trials_median, s.wall_us_median) = (1_000_000, 1_000_000)
        });
        let report = passes(&r, &cur);
        let skipped = report.notes.iter().filter(|n| n.contains("skipped"));
        assert_eq!(skipped.count(), 2);
        // A bench wall time falls back to the percentage gate: +6% > 5%,
        // +4% passes, faster is a note.
        let b = stats();
        fails(&b, &with(&b, |s| s.wall_us = 106_000), "wall time");
        passes(&b, &with(&b, |s| s.wall_us = 104_000));
        let report = passes(&b, &with(&b, |s| s.wall_us = 50_000));
        assert!(report.notes.iter().any(|n| n.contains("improved")));
    }

    #[test]
    fn separate_wall_tolerance_relaxes_only_timing() {
        let base = stats();
        let mut cur = with(&base, |s| s.wall_us = 140_000); // +40%
        let config = DiffConfig {
            max_regress: 0.05,
            max_wall_regress: 0.50,
        };
        assert!(diff(&base, &cur, config).passed());
        cur.area_mm2 = 14.0; // hardware still gated at 5%
        assert!(!diff(&base, &cur, config).passed());
    }

    #[test]
    fn dataset_and_grid_drift_are_violations() {
        let base = stats();
        fails(
            &base,
            &with(&base, |s| s.dataset = "Vertebral".into()),
            "config drift",
        );
        fails(
            &base,
            &with(&base, |s| s.depths = vec![2, 4, 6]),
            "grid changed",
        );
    }

    #[test]
    fn suites_require_an_exact_key_bijection() {
        /// `a, b` pairs with `b, a`; `a, b` against `a, c` names both
        /// unmatched records.
        fn case<S: Stats + std::fmt::Debug>(a: S, b: S, c: S, missing: &str, extra: &str) {
            let config = DiffConfig::default();
            let pair = [a.clone(), b.clone()];
            let reports = diff_suites(&pair, &[b.clone(), a.clone()], config).expect("bijection");
            assert_eq!(reports.len(), 2);
            assert!(reports.iter().all(DiffReport::passed));
            let err = diff_suites(&pair, &[a, c], config).unwrap_err();
            assert!(err.contains(missing), "{err}");
            assert!(err.contains(extra), "{err}");
        }
        let named = |dataset: &str| with(&stats(), |s| s.dataset = dataset.into());
        case(
            named("Seeds"),
            named("Cardio"),
            named("Pendigits"),
            "\"Cardio\" missing from the current run",
            "\"Pendigits\" has no baseline record",
        );
        // The same kernel on a different dataset is NOT a counterpart.
        case(
            kernel("Seeds", "gini_scan"),
            kernel("Seeds", "cube_merge"),
            kernel("Cardio", "gini_scan"),
            "\"Seeds/cube_merge\" missing",
            "\"Cardio/gini_scan\" has no baseline",
        );
        case(
            robust("Seeds"),
            robust("Cardio"),
            robust("Pendigits"),
            "\"Cardio\" missing",
            "\"Pendigits\" has no baseline",
        );
        // diff_many routes two suites through the same bijection.
        let config = DiffConfig::default();
        let suite = [named("Seeds"), named("Cardio")];
        let err = diff_many(&suite, &[named("Seeds"), named("Pendigits")], config).unwrap_err();
        assert!(
            err.contains("\"Cardio\" missing from the current run"),
            "{err}"
        );
        assert!(diff_many(&suite, &[], config).is_err());
    }

    #[test]
    fn diff_many_matches_a_single_run_inside_a_suite() {
        let named = |dataset: &str| with(&stats(), |s| s.dataset = dataset.into());
        let (a, b) = (named("Seeds"), named("Cardio"));
        let config = DiffConfig::default();
        let reports =
            diff_many(&[a.clone(), b.clone()], std::slice::from_ref(&b), config).expect("lookup");
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].baseline.dataset, "Cardio");
        // And the reverse orientation.
        let reports =
            diff_many(std::slice::from_ref(&a), &[b.clone(), a.clone()], config).expect("lookup");
        assert_eq!(reports[0].current.dataset, "Seeds");
        // A single run with no counterpart errors.
        let err = diff_many(&[a, b], &[named("Pendigits")], config).unwrap_err();
        assert!(err.contains("no baseline record"), "{err}");
    }

    #[test]
    fn records_round_trip_through_their_json_line() {
        fn case<S: Stats + PartialEq + std::fmt::Debug>(original: S) -> String {
            let json = original.to_json();
            let kind = format!(r#"{{"kind":"{}""#, S::AXIS.stats_kind);
            assert!(json.starts_with(&kind), "{json}");
            let (parsed, warnings) = S::parse_suite(&json).expect("parses");
            assert!(warnings.is_empty());
            assert_eq!(parsed, vec![original]);
            json
        }
        case(stats());
        let json = case(calibrated());
        for field in [
            r#""wall_us_median":100000"#,
            r#""calib_runs":5"#,
            r#""peak_rss_kb":40000"#,
            r#""build":"release""#,
        ] {
            assert!(json.contains(field), "{json}");
        }
        // Single-shot stats keep the compact legacy shape.
        let json = stats().to_json();
        for field in ["wall_us_median", "peak_rss_kb", "cpus"] {
            assert!(!json.contains(field), "{json}");
        }
        case(kernel("Seeds", "gini_scan"));
        case(robust("Seeds"));
        // A kernel or robustness input holding none of its records is a
        // hard error.
        let foreign = r#"{"kind":"bench_stats"}"#;
        assert!(KernelStats::parse_suite(foreign).is_err());
        assert!(RobustStats::parse_suite(foreign).is_err());
    }

    #[test]
    fn suite_axis_names_every_kind_a_file_mixes() {
        let bench = calibrated().to_json();
        let kernel = kernel("Seeds", "gini_scan").to_json();
        assert_eq!(suite_axis("not json").unwrap(), None);
        assert_eq!(suite_axis(&kernel).unwrap(), Some(KernelStats::AXIS));
        let err = suite_axis(&format!("{bench}\n{kernel}\n")).unwrap_err();
        assert!(err.contains("bench_stats and kernel_stats"), "{err}");
    }

    #[test]
    fn markdown_table_renders_one_row_per_record() {
        let base = kernel("Seeds", "gini_scan");
        let cur = with(&base, |s| s.tp_median = 2_000_000); // a 2× improvement
        let reports =
            diff_suites(std::slice::from_ref(&base), &[cur], DiffConfig::default()).unwrap();
        let table = render_table(&reports);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3, "header + separator + one row:\n{table}");
        assert_eq!(
            lines[0],
            "| dataset/kernel | calls | items | tp_median | verdict |"
        );
        assert_eq!(
            lines[2],
            "| Seeds/gini_scan | 7 | 1610 | 1000000 → 2000000 (+100.0%) | pass |"
        );
        // A regressed record renders its verdict in the same row shape.
        let cur = with(&base, |s| s.tp_median = 100_000);
        let reports = diff_suites(&[base], &[cur], DiffConfig::default()).unwrap();
        assert!(
            render_table(&reports).contains("(-90.0%) | REGRESSION |"),
            "{}",
            render_table(&reports)
        );
    }

    #[test]
    fn median_mad_handles_odd_even_and_empty() {
        assert_eq!(median_mad(&[]), (0, 0));
        assert_eq!(median_mad(&[7]), (7, 0));
        assert_eq!(median_mad(&[1, 3]), (2, 1));
        // Median 100, deviations [2,1,0,1,4] → sorted [0,1,1,2,4] → MAD 1.
        assert_eq!(median_mad(&[98, 99, 100, 101, 104]), (100, 1));
    }

    #[test]
    fn calibration_builder_fills_the_trio() {
        let s = stats().with_calibration(&[98_000, 100_000, 101_000, 104_000, 99_000]);
        assert_eq!(s.wall_us, 100_000);
        assert_eq!(s.wall_us_median, 100_000);
        assert_eq!(s.wall_us_mad, 1_000);
        assert_eq!(s.calib_runs, 5);
        // Empty samples leave the stats untouched.
        assert_eq!(stats().with_calibration(&[]), stats());
    }

    #[test]
    fn from_text_multi_reads_a_whole_suite() {
        let a = with(&calibrated(), |s| s.dataset = "Seeds".into());
        let b = with(&calibrated(), |s| s.dataset = "Cardio".into());
        let file = format!("{}\n{}\n", a.to_json(), b.to_json());
        let (suite, warnings) = TraceStats::from_text_multi(&file).expect("parses");
        assert!(warnings.is_empty());
        assert_eq!(suite.len(), 2);
        assert_eq!(suite[0].dataset, "Seeds");
        assert_eq!(suite[1].dataset, "Cardio");
    }

    #[test]
    fn from_text_accepts_a_trace_dump() {
        use printed_telemetry::{Recorder, RunManifest};
        let (recorder, sink) = Recorder::collecting();
        let span = recorder.span(keys::STAGE_SWEEP);
        recorder.add(keys::GINI_EVALS, 777);
        recorder.set_gauge(keys::PEAK_RSS_KB, 31_000);
        recorder.event(
            keys::SELECTED_EVENT,
            vec![
                ("area_mm2".into(), FieldValue::F64(3.25)),
                ("power_mw".into(), FieldValue::F64(0.5)),
                ("comparators".into(), FieldValue::U64(6)),
            ],
        );
        span.finish();
        let trace =
            FlowTrace::from_snapshot("Seeds", &sink.snapshot()).with_manifest(RunManifest {
                dataset: "Seeds".into(),
                cpus: 8,
                build: "release".into(),
                ..RunManifest::default()
            });
        let (parsed, _) = TraceStats::from_text(&trace.to_ndjson()).expect("parses");
        assert_eq!(parsed.dataset, "Seeds");
        assert_eq!(parsed.gini_evals, 777);
        assert_eq!(parsed.comparators, 6);
        assert!((parsed.area_mm2 - 3.25).abs() < 1e-12);
        assert_eq!(parsed.peak_rss_kb, 31_000);
        assert_eq!(parsed.env_class().as_deref(), Some("8cpu/auto/release"));
    }

    #[test]
    fn garbage_input_is_a_hard_error() {
        assert!(TraceStats::from_text("definitely not json").is_err());
    }
}
