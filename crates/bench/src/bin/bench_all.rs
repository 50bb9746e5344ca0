//! Full-suite baseline generator: runs the traced paper flow on all
//! eight registry benchmarks and condenses each to one `bench_stats`
//! NDJSON record, calibrated for wall-time noise from repeat runs.
//!
//! ```sh
//! cargo run --release -p printed-bench --bin bench_all -- --runs 5 --out BENCH_all.ndjson
//! ```
//!
//! Arguments:
//! * `--runs <k>` — repeat runs per benchmark (default 5). The first
//!   run's deterministic metrics (Gini evals, trees, area, power,
//!   comparators) become the baseline; the wall times of *all* k runs
//!   feed the median + MAD calibration that `printed-trace diff` uses
//!   to gate wall-time regressions above measurement noise.
//! * `--out <path>` — output NDJSON file (default `BENCH_all.ndjson`),
//!   one `bench_stats` record per benchmark.
//! * `--paper` — the full paper τ×depth grid instead of the quick grid
//!   (slow; the committed baselines use the quick grid).
//!
//! Each run is one traced `CodesignFlow` at 1% accuracy loss — the same
//! composition the `codesign` binary calls — so a `bench_all` record
//! gates a `PRINTED_TRACE`d `codesign` run of the same dataset with 0.0%
//! deterministic drift.

use std::process::ExitCode;

use printed_bench::{stderr_progress, BITS};
use printed_codesign::explore::ExplorationConfig;
use printed_codesign::CodesignFlow;
use printed_datasets::Benchmark;
use printed_report::TraceStats;
use printed_telemetry::{FlowTrace, Recorder};

/// The selection constraint every baseline records — the paper's 1%.
const LOSS: f64 = 0.01;

struct Args {
    runs: usize,
    out: String,
    paper: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        runs: 5,
        out: "BENCH_all.ndjson".to_owned(),
        paper: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--runs" => {
                let v = argv.next().ok_or("--runs needs a value")?;
                args.runs = v.parse().map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--out" => args.out = argv.next().ok_or("--out needs a path")?,
            "--paper" => args.paper = true,
            "--help" | "-h" => {
                return Err("usage: bench_all [--runs K] [--out PATH] [--paper]".into())
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// One traced run of the paper flow on a benchmark, identical to what
/// `codesign <benchmark> --quick --loss 0.01` records under
/// `PRINTED_TRACE`.
fn run_once(benchmark: Benchmark, grid: &ExplorationConfig) -> Result<FlowTrace, String> {
    let (train, test) = benchmark
        .load_quantized(BITS)
        .map_err(|e| format!("{benchmark}: load: {e}"))?;
    let progress = stderr_progress();
    let mut trace = CodesignFlow::new(&train, &test)
        .accuracy_loss(LOSS)
        .grid(grid.clone())
        .title(benchmark.to_string())
        .recorder(Recorder::collecting().0)
        .progress(&progress)
        .run()
        .trace
        .ok_or_else(|| format!("{benchmark}: collecting recorder yielded no snapshot"))?;
    // Records key on the benchmark, not on its training split's name.
    if let Some(manifest) = trace.manifest.as_mut() {
        manifest.dataset = benchmark.to_string();
    }
    Ok(trace)
}

fn run(args: &Args) -> Result<(), String> {
    let grid = if args.paper {
        ExplorationConfig::paper()
    } else {
        ExplorationConfig::quick()
    };
    let mut lines = String::new();
    for benchmark in Benchmark::ALL {
        eprintln!("bench_all: {benchmark} — {} calibration run(s)", args.runs);
        let mut walls = Vec::with_capacity(args.runs);
        let mut first = None;
        for _ in 0..args.runs {
            let trace = run_once(benchmark, &grid)?;
            walls.push(trace.wall_us);
            if first.is_none() {
                first = Some(trace);
            }
        }
        let trace = first.expect("at least one run");
        let stats = TraceStats::from_trace(&trace).with_calibration(&walls);
        println!(
            "{:<14} wall {:>8} µs (median of {}, MAD {} µs)  gini {:>8}  area {:.3} mm²  power {:.3} mW",
            stats.dataset,
            stats.wall_us_median,
            stats.calib_runs,
            stats.wall_us_mad,
            stats.gini_evals,
            stats.area_mm2,
            stats.power_mw
        );
        lines.push_str(&stats.to_json());
        lines.push('\n');
    }
    std::fs::write(&args.out, lines).map_err(|e| format!("{}: {e}", args.out))?;
    eprintln!(
        "wrote {} bench_stats record(s) to {}",
        Benchmark::ALL.len(),
        args.out
    );
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
