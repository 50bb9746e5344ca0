//! `printed-trace`: analyze NDJSON traces from the co-design flow.
//!
//! ```sh
//! # Record a trace, then profile it and attribute hardware costs:
//! PRINTED_TRACE=seeds.ndjson cargo run --release -p printed-bench --bin codesign -- seeds --quick
//! printed-trace report seeds.ndjson
//!
//! # Gate a fresh run against the committed suite baseline (exit 1 on
//! # regression; suites are paired per dataset, missing datasets fail):
//! printed-trace diff BENCH_all.ndjson current_all.ndjson --max-regress 5%
//!
//! # Tail an in-flight traced run (PRINTED_TRACE_LIVE=1) or checkpoint:
//! printed-trace watch seeds_live.ndjson
//!
//! # Render cross-PR drift from the benchmark history:
//! printed-trace history BENCH_history.ndjson --dataset Seeds
//!
//! # Condense a trace into a one-line baseline record:
//! printed-trace snapshot seeds.ndjson -o seeds_stats.json
//! ```
//!
//! Exit codes: `0` success / gate passed, `1` regression detected,
//! `2` usage or I/O error.

use std::process::ExitCode;

use printed_report::{
    diff_many, diff_suites, parse_history, parse_trace, render_history, render_table, suite_axis,
    CostReport, DiffConfig, HistoryEntry, KernelStats, Profile, RobustStats, Stats, TraceStats,
    Watcher,
};

const USAGE: &str = "\
usage: printed-trace <command> [args]

commands:
  report <trace.ndjson>
      Flame/self-time profile plus hardware-cost attribution.
  diff <baseline> <current> [--max-regress PCT] [--max-wall-regress PCT] [--table]
      Gate a run against a baseline; exits 1 on regression.
      Inputs are suites of one record kind — bench_stats (BENCH_all.ndjson
      from bench_all; a single NDJSON trace also counts), kernel_stats
      (BENCH_hotpath.ndjson from bench_hot) or robust_stats
      (BENCH_robust.ndjson from bench_robust) — and both sides must carry
      the same kind. Suites are paired by key (dataset, or dataset/kernel);
      a record missing on either side is a hard error, while a single
      trace is looked up inside a suite. Deterministic metrics gate
      exactly (kernel counts, campaign verdicts) or at PCT drift (area,
      power, comparators, Gini evals). Calibrated timings gate at
      median +/- max(floor, 8*MAD): wall times with a 50 ms floor and
      throughput (downward) with a 25% floor, both refused across
      environment classes; trials spent (upward) with a 25% floor.
      --max-wall-regress PCT gates wall time against an uncalibrated
      baseline instead (defaults to --max-regress).
      PCT accepts `5%`, `5`, or `0.05` (all mean five percent).
      --table renders the suite as one markdown table (baseline -> current
      per metric, verdict per record) — the shape CI step summaries want.
  watch <trace.ndjson> [--poll-ms N] [--once]
      Tail an in-flight traced run: rolling k/N progress, candidate
      rate, ETA, and failed-candidate alerts. Robust to torn tails and
      to the final truncate-and-rewrite. --once prints one status line
      and exits (for scripts/CI smoke checks).
  history <history.ndjson> [--dataset NAME]
      Render per-record drift from an append-only history file.
  history append <history.ndjson> <stats.ndjson>
      Append one bench_history, kernel_history or robust_history record
      per bench_stats, kernel_stats or robust_stats line (what CI runs
      after the gate passes); all three axes share the file without
      crosstalk.
  snapshot <trace.ndjson> [-o out.json]
      Condense a trace to a one-line bench_stats baseline.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("report") => cmd_report(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("history") => cmd_history(&args[1..]),
        Some("snapshot") => cmd_snapshot(&args[1..]),
        Some("--help" | "-h" | "help") => emit(&format!("{USAGE}\n")).map(|_| ExitCode::SUCCESS),
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
        None => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

/// Writes `text` to stdout. `Ok(false)` means the reader closed the pipe
/// (`printed-trace report … | head`): it wants no more output, so the
/// command ends quietly instead of panicking.
fn emit(text: &str) -> Result<bool, String> {
    use std::io::Write;
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(false),
        Err(e) => Err(format!("stdout: {e}")),
    }
}

/// `print!` through [`emit`]: once the reader has closed stdout, the
/// enclosing command returns success without printing more.
macro_rules! out {
    ($($arg:tt)*) => {
        if !emit(&format!($($arg)*))? {
            return Ok(ExitCode::SUCCESS);
        }
    };
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Runs `$run::<S>(args…)` with `S` the stats type of the record kind
/// `$kind`; anything that is not a kernel or robustness suite is the
/// bench axis (a `bench_stats` suite or a trace dump).
macro_rules! per_axis {
    ($kind:expr, $run:ident($($arg:expr),*)) => {
        match $kind {
            Some(kind) if kind == KernelStats::AXIS.stats_kind => $run::<KernelStats>($($arg),*),
            Some(kind) if kind == RobustStats::AXIS.stats_kind => $run::<RobustStats>($($arg),*),
            _ => $run::<TraceStats>($($arg),*),
        }
    };
}

/// The record kind of a gate input, `None` for a trace dump; a file
/// mixing kinds is an error.
fn suite_kind(path: &str, text: &str) -> Result<Option<&'static str>, String> {
    let axis = suite_axis(text).map_err(|e| format!("{path}: {e}"))?;
    Ok(axis.map(|axis| axis.stats_kind))
}

/// Parses a gate input of kind `S`, printing its parse warnings.
fn read_suite<S: Stats>(path: &str, text: &str) -> Result<Vec<S>, String> {
    let (stats, warnings) = S::parse_suite(text).map_err(|e| format!("{path}: {e}"))?;
    for warning in warnings {
        eprintln!("warning: {path}: {warning}");
    }
    Ok(stats)
}

fn cmd_report(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args else {
        return Err("usage: printed-trace report <trace.ndjson>".into());
    };
    let parsed = parse_trace(&read(path)?);
    for warning in &parsed.warnings {
        eprintln!("warning: {path}: {warning}");
    }
    if parsed.records == 0 {
        return Err(format!("{path}: no valid trace record"));
    }
    out!(
        "{}\n{}\n{}",
        parsed.trace.render_text(),
        Profile::from_trace(&parsed.trace).render_text(),
        CostReport::from_trace(&parsed.trace).render_text()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let mut paths = Vec::new();
    let mut config = DiffConfig::default();
    let mut wall_override = None;
    let mut table = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--table" => table = true,
            "--max-regress" => {
                let v = iter.next().ok_or("--max-regress needs a value")?;
                let tolerance = parse_pct(v)?;
                config.max_regress = tolerance;
                config.max_wall_regress = tolerance;
            }
            "--max-wall-regress" => {
                let v = iter.next().ok_or("--max-wall-regress needs a value")?;
                wall_override = Some(parse_pct(v)?);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            path => paths.push(path.to_owned()),
        }
    }
    if let Some(wall) = wall_override {
        config.max_wall_regress = wall;
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        return Err("usage: printed-trace diff <baseline> <current> [--max-regress PCT]".into());
    };
    let baseline = (baseline_path.as_str(), read(baseline_path)?);
    let current = (current_path.as_str(), read(current_path)?);
    let baseline_kind = suite_kind(baseline.0, &baseline.1)?;
    let current_kind = suite_kind(current.0, &current.1)?;
    // Gating one axis against another compares incommensurable numbers.
    let name = |kind: Option<&'static str>| kind.unwrap_or(TraceStats::AXIS.stats_kind);
    if name(baseline_kind) != name(current_kind) {
        return Err(format!(
            "cannot mix axes: {baseline_path} is a {} suite but {current_path} is a {} suite",
            name(baseline_kind),
            name(current_kind)
        ));
    }
    // Two record files are suites even when one holds a single record:
    // require the strict bijection, so a suite that silently lost records
    // cannot pass by lookup. A trace-dump input, by contrast, *is* a
    // single run and matches by lookup.
    let suites = baseline_kind.is_some() && current_kind.is_some();
    per_axis!(
        baseline_kind,
        gate(&baseline, &current, suites, config, table)
    )
}

/// Gates one suite against another and prints the reports.
fn gate<S: Stats>(
    (baseline_path, baseline_text): &(&str, String),
    (current_path, current_text): &(&str, String),
    suites: bool,
    config: DiffConfig,
    table: bool,
) -> Result<ExitCode, String> {
    let baselines = read_suite::<S>(baseline_path, baseline_text)?;
    let currents = read_suite::<S>(current_path, current_text)?;
    let reports = if suites {
        diff_suites(&baselines, &currents, config)?
    } else {
        diff_many(&baselines, &currents, config)?
    };
    let failures = reports.iter().filter(|r| !r.passed()).count();
    let text = if table {
        render_table(&reports)
    } else {
        let mut text = reports
            .iter()
            .map(|report| report.render_text())
            .collect::<Vec<_>>()
            .join("\n");
        if reports.len() > 1 {
            let (label, noun) = S::AXIS.summary;
            text += &format!(
                "{label}: {}/{} {noun} passed{}\n",
                reports.len() - failures,
                reports.len(),
                if failures > 0 {
                    format!(" ({failures} REGRESSED)")
                } else {
                    String::new()
                }
            );
        }
        text
    };
    // The verdict stands even when the reader stops reading early.
    emit(&text)?;
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_watch(args: &[String]) -> Result<ExitCode, String> {
    let mut path = None;
    let mut poll_ms: u64 = 500;
    let mut once = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--poll-ms" => {
                let v = iter.next().ok_or("--poll-ms needs a value")?;
                poll_ms = v.parse().map_err(|e| format!("bad --poll-ms {v:?}: {e}"))?;
            }
            "--once" => once = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            p => {
                if path.replace(p.to_owned()).is_some() {
                    return Err("watch takes exactly one path".into());
                }
            }
        }
    }
    let path = path.ok_or("usage: printed-trace watch <trace.ndjson> [--poll-ms N] [--once]")?;

    let mut watcher = Watcher::new();
    let mut consumed: usize = 0;
    let mut last_status = String::new();
    let mut reported_alerts = 0;
    let mut reported_notes = 0;
    loop {
        // Whole-file read each poll: traces are small (kilobytes), and it
        // makes truncation detection trivial — the file got shorter than
        // what we already consumed.
        let content = match std::fs::read_to_string(&path) {
            Ok(content) => content,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && !once => {
                // The producer may not have created the file yet.
                std::thread::sleep(std::time::Duration::from_millis(poll_ms));
                continue;
            }
            Err(e) => return Err(format!("{path}: {e}")),
        };
        if content.len() < consumed {
            out!("watch: {path} truncated (writer finalized or restarted), re-reading\n");
            watcher.reset();
            consumed = 0;
            reported_alerts = 0;
            reported_notes = 0;
        }
        watcher.push(&content[consumed..]);
        consumed = content.len();

        let state = watcher.state();
        for alert in &state.alerts[reported_alerts..] {
            out!("watch: ALERT {alert}\n");
        }
        reported_alerts = state.alerts.len();
        for note in &state.notes[reported_notes..] {
            out!("watch: note: {note}\n");
        }
        reported_notes = state.notes.len();
        let status = state.status_line();
        if status != last_status {
            out!("watch: {status}\n");
            last_status = status;
        }
        if state.finalized {
            if let Some(selected) = &state.selected {
                out!("watch: {selected}\n");
            }
            out!("watch: trace finalized, exiting\n");
            return Ok(ExitCode::SUCCESS);
        }
        if once {
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms));
    }
}

fn cmd_history(args: &[String]) -> Result<ExitCode, String> {
    if args.first().map(String::as_str) == Some("append") {
        let [_, history_path, stats_path] = args else {
            return Err(
                "usage: printed-trace history append <history.ndjson> <stats.ndjson>".into(),
            );
        };
        let stats_text = read(stats_path)?;
        let kind = suite_kind(stats_path, &stats_text)?;
        let appended = per_axis!(kind, history_lines(stats_path, &stats_text))?;
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(history_path)
            .map_err(|e| format!("{history_path}: {e}"))?;
        file.write_all(appended.concat().as_bytes())
            .map_err(|e| format!("{history_path}: {e}"))?;
        eprintln!("appended {} record(s) to {history_path}", appended.len());
        return Ok(ExitCode::SUCCESS);
    }

    let mut path = None;
    let mut dataset = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--dataset" => {
                dataset = Some(iter.next().ok_or("--dataset needs a value")?.to_owned());
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            p => {
                if path.replace(p.to_owned()).is_some() {
                    return Err("history takes exactly one path".into());
                }
            }
        }
    }
    let path = path.ok_or("usage: printed-trace history <history.ndjson> [--dataset NAME]")?;
    let (entries, warnings) = parse_history(&read(&path)?);
    for warning in warnings {
        eprintln!("warning: {path}: {warning}");
    }
    out!("{}", render_history(&entries, dataset.as_deref()));
    Ok(ExitCode::SUCCESS)
}

/// One history line per record of a stats file of kind `S`.
fn history_lines<S: Stats>(path: &str, text: &str) -> Result<Vec<String>, String> {
    let stats = read_suite::<S>(path, text)?;
    Ok(stats
        .iter()
        .map(|s| HistoryEntry::from_stats(s).to_json() + "\n")
        .collect())
}

fn cmd_snapshot(args: &[String]) -> Result<ExitCode, String> {
    let (path, out) = match args {
        [path] => (path, None),
        [path, flag, out] if flag == "-o" || flag == "--out" => (path, Some(out)),
        _ => return Err("usage: printed-trace snapshot <trace.ndjson> [-o out.json]".into()),
    };
    let (stats, warnings) =
        TraceStats::from_text(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    for warning in warnings {
        eprintln!("warning: {path}: {warning}");
    }
    let json = stats.to_json();
    match out {
        Some(out) => {
            std::fs::write(out, format!("{json}\n")).map_err(|e| format!("{out}: {e}"))?;
            eprintln!("wrote {out}");
        }
        None => out!("{json}\n"),
    }
    Ok(ExitCode::SUCCESS)
}

/// Accepts `5%`, `5`, or `0.05` — all five percent. Values above 1 are
/// read as percentages, at or below 1 as fractions.
fn parse_pct(text: &str) -> Result<f64, String> {
    let trimmed = text.trim().trim_end_matches('%');
    let value: f64 = trimmed
        .parse()
        .map_err(|e| format!("bad percentage {text:?}: {e}"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("bad percentage {text:?}"));
    }
    Ok(if text.contains('%') || value > 1.0 {
        value / 100.0
    } else {
        value
    })
}
