//! Benchmark of the printed-ml co-design flow.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <design|robust> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times the workload's rounds for `--seconds` and
//! prints the end-to-end metrics; with `--trace 1` it runs one traced
//! round and prints the per-layer metrics. Every job's outputs are
//! checked; the last line of standard output is a JSON object with
//! `correct`, `attempted`, `failed` and `metrics`, and the exit code is
//! non-zero when any job failed. Spans of a traced run are written to
//! `.bench_out/`.

mod oracle;
mod run;
mod stats;
mod trace;
mod traced;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use run::Tally;
use workload::{setup, Inputs, Workload};

/// A timed run sets up `SETUP_REPS` times before its first job, then
/// again after each job while the set-ups so far took under its share of
/// `SETUP_BUDGET_S` — the share of the run measured so far — so the
/// set-ups are spread over the whole run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
const SETUP_BUDGET_S: f64 = 1.0;
/// Jobs a tail percentile must leave above it.
const TAIL_BEYOND: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The result line: `metrics` as `(name, value, unit)`.
fn result_json(tally: Tally, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
        );
    }
    out + "}}"
}

/// Sets the workload up once, adding the time taken to `times`.
fn timed_setup(args: &Args, times: &mut Vec<f64>) -> Inputs {
    let start = Instant::now();
    let inputs = setup(args.workload, args.seed);
    times.push(start.elapsed().as_secs_f64());
    inputs
}

fn timed(args: &Args) -> (Tally, Vec<(&'static str, f64, &'static str)>) {
    let mut setups: Vec<f64> = Vec::new();
    let inputs = timed_setup(args, &mut setups);
    while setups.len() < SETUP_REPS {
        timed_setup(args, &mut setups);
    }
    let mut setup_total: f64 = setups.iter().sum();
    let mut m = run::measure(&inputs, args.seconds, |progress| {
        while setup_total < SETUP_BUDGET_S * progress {
            timed_setup(args, &mut setups);
            setup_total += setups.last().expect("just pushed");
        }
    });
    let tail = stats::tail_or_max(&m.jobs, TAIL_BEYOND);
    let rss_mb = printed_telemetry::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0);
    let timed_jobs = m.tally.attempted;
    run::rerun_checks(&inputs, &m.prints, m.rounds.len() == 1, &mut m.tally);
    println!(
        "{} seed {}: {} set-ups, {} rounds of {} jobs on {} threads, {} untimed reruns; \
         job_tail_s is p{} of {} jobs{}",
        args.workload.name(),
        args.seed,
        setups.len(),
        m.rounds.len(),
        inputs.splits.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        m.tally.attempted - timed_jobs,
        tail.percentile,
        tail.count,
        if tail.percentile == 100 {
            " (too few jobs for ten beyond any percentile: the maximum)"
        } else {
            ""
        }
    );
    let metrics = vec![
        ("setup_s", stats::median(&setups), "s"),
        ("wall_s", stats::median(&m.rounds), "s"),
        ("job_p50_s", stats::median(&m.jobs), "s"),
        ("job_tail_s", tail.value, "s"),
        ("peak_rss_mb", rss_mb, "MB"),
    ];
    (m.tally, metrics)
}

fn traced(args: &Args) -> std::io::Result<(Tally, Vec<traced::Metric>)> {
    let t = traced::traced_run(args.workload, args.seed);
    print!("{}", t.report);
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "spans-{}-{}.ndjson",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, t.tracer.to_ndjson())?;
    println!("spans: {}", path.display());
    Ok((t.tally, t.metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!(
                "{why}\nusage: --workload <design|robust> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let (tally, metrics) = if args.trace {
        match traced(&args) {
            Ok(result) => result,
            Err(e) => {
                eprintln!("cannot write spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        timed(&args)
    };
    println!("{}", result_json(tally, &metrics));
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_the_contract_keys() {
        let line = result_json(
            Tally {
                attempted: 3,
                failed: 1,
            },
            &[("wall_s", 1.25, "s"), ("peak_rss_mb", f64::NAN, "MB")],
        );
        assert_eq!(
            line,
            r#"{"correct": false, "attempted": 3, "failed": 1, "metrics": {"wall_s": {"value": 1.25, "unit": "s"}, "peak_rss_mb": {"value": 0, "unit": "MB"}}}"#
        );
    }
}
