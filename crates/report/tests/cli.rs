//! End-to-end tests of the `printed-trace` CLI against a real traced
//! Seeds co-design run: `report` must render stage self-times and the
//! per-ADC cost table, and `diff` must exit 1 when a >5% wall-time
//! regression is injected.

use std::path::PathBuf;
use std::process::{Command, Output};

use printed_codesign::{CodesignFlow, ExplorationConfig};
use printed_datasets::Benchmark;
use printed_report::parse_trace;
use printed_telemetry::FlowTrace;

fn traced_seeds() -> FlowTrace {
    let (train, test) = Benchmark::Seeds.load_quantized(4).unwrap();
    CodesignFlow::new(&train, &test)
        .grid(ExplorationConfig::quick())
        .title("Seeds")
        .traced()
        .run()
        .trace()
        .expect("traced run carries a FlowTrace")
        .clone()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("printed-trace-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn printed_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_printed-trace"))
        .args(args)
        .output()
        .expect("printed-trace runs")
}

#[test]
fn report_renders_profile_and_cost_tables_for_a_real_run() {
    let trace = traced_seeds();
    let path = scratch("seeds_report.ndjson");
    std::fs::write(&path, trace.to_ndjson()).unwrap();

    let output = printed_trace(&["report", path.to_str().unwrap()]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);

    // Stage self-time profile with share-of-wall percentages.
    for stage in [
        "reference_training",
        "baseline_synthesis",
        "sweep",
        "selection",
    ] {
        assert!(
            stdout.contains(stage),
            "missing stage {stage} in:\n{stdout}"
        );
    }
    assert!(stdout.contains("%wall"), "{stdout}");
    assert!(stdout.contains('%'), "{stdout}");

    // Per-ADC area/power attribution table and the budget verdict.
    assert!(stdout.contains("area mm²"), "{stdout}");
    assert!(stdout.contains("power µW"), "{stdout}");
    assert!(stdout.contains("harvester budget:"), "{stdout}");
    let inputs = parse_trace(&trace.to_ndjson())
        .trace
        .events
        .iter()
        .filter(|e| e.name == printed_telemetry::keys::ADC_EVENT)
        .count();
    assert!(inputs > 0, "trace carries per-ADC events");
    for line in stdout.lines().filter(|l| l.trim_start().starts_with('x')) {
        assert!(line.split_whitespace().count() >= 5, "adc row: {line}");
    }
    // Provenance made it through the round trip.
    assert!(stdout.contains("manifest: Seeds"), "{stdout}");
}

#[test]
fn diff_exits_one_on_injected_wall_time_regression() {
    let trace = traced_seeds();
    let baseline_path = scratch("seeds_baseline.ndjson");
    std::fs::write(&baseline_path, trace.to_ndjson()).unwrap();

    // Same run, wall time inflated 10% — past the 5% gate.
    let mut slower = trace.clone();
    slower.wall_us = trace.wall_us + trace.wall_us.div_ceil(10);
    let current_path = scratch("seeds_slower.ndjson");
    std::fs::write(&current_path, slower.to_ndjson()).unwrap();

    let output = printed_trace(&[
        "diff",
        baseline_path.to_str().unwrap(),
        current_path.to_str().unwrap(),
        "--max-regress",
        "5%",
    ]);
    assert_eq!(
        output.status.code(),
        Some(1),
        "stdout: {}",
        String::from_utf8_lossy(&output.stdout)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("wall time"), "{stdout}");
    assert!(stdout.contains("verdict: REGRESSION"), "{stdout}");

    // The identical trace passes the same gate.
    let output = printed_trace(&[
        "diff",
        baseline_path.to_str().unwrap(),
        baseline_path.to_str().unwrap(),
        "--max-regress",
        "5%",
    ]);
    assert_eq!(output.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&output.stdout).contains("verdict: PASS"));

    // A relaxed wall gate lets the slower run through.
    let output = printed_trace(&[
        "diff",
        baseline_path.to_str().unwrap(),
        current_path.to_str().unwrap(),
        "--max-wall-regress",
        "50%",
    ]);
    assert_eq!(
        output.status.code(),
        Some(0),
        "stdout: {}",
        String::from_utf8_lossy(&output.stdout)
    );
}

#[test]
fn snapshot_produces_a_baseline_diff_accepts() {
    let trace = traced_seeds();
    let trace_path = scratch("seeds_snap.ndjson");
    std::fs::write(&trace_path, trace.to_ndjson()).unwrap();
    let baseline_path = scratch("BENCH_seeds.json");

    let output = printed_trace(&[
        "snapshot",
        trace_path.to_str().unwrap(),
        "-o",
        baseline_path.to_str().unwrap(),
    ]);
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let baseline = std::fs::read_to_string(&baseline_path).unwrap();
    assert!(
        baseline.starts_with("{\"kind\":\"bench_stats\""),
        "{baseline}"
    );

    // The condensed baseline gates the trace it came from: clean pass.
    let output = printed_trace(&[
        "diff",
        baseline_path.to_str().unwrap(),
        trace_path.to_str().unwrap(),
    ]);
    assert_eq!(
        output.status.code(),
        Some(0),
        "stdout: {}",
        String::from_utf8_lossy(&output.stdout)
    );
}

#[test]
fn suite_diff_pairs_by_dataset_and_fails_on_missing_counterparts() {
    use printed_report::TraceStats;
    let trace = traced_seeds();
    let seeds = TraceStats::from_trace(&trace).with_calibration(&[2400, 2468, 2500]);
    let mut cardio = seeds.clone();
    cardio.dataset = "Cardiotocography".into();

    let baseline_path = scratch("BENCH_suite.ndjson");
    std::fs::write(
        &baseline_path,
        format!("{}\n{}\n", seeds.to_json(), cardio.to_json()),
    )
    .unwrap();

    // A matching suite passes and prints the per-benchmark verdicts.
    let current_path = scratch("suite_current.ndjson");
    std::fs::write(
        &current_path,
        format!("{}\n{}\n", seeds.to_json(), cardio.to_json()),
    )
    .unwrap();
    let output = printed_trace(&[
        "diff",
        baseline_path.to_str().unwrap(),
        current_path.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("suite: 2/2 benchmarks passed"), "{stdout}");

    // A single trace diffs against its dataset's record in the suite.
    let trace_path = scratch("suite_single.ndjson");
    std::fs::write(&trace_path, trace.to_ndjson()).unwrap();
    let output = printed_trace(&[
        "diff",
        baseline_path.to_str().unwrap(),
        trace_path.to_str().unwrap(),
    ]);
    assert_eq!(
        output.status.code(),
        Some(0),
        "stdout: {}",
        String::from_utf8_lossy(&output.stdout)
    );

    // Dropping a benchmark from the current suite is a hard error (2),
    // not a silent skip.
    let partial_path = scratch("suite_partial.ndjson");
    std::fs::write(&partial_path, format!("{}\n", seeds.to_json())).unwrap();
    let output = printed_trace(&[
        "diff",
        baseline_path.to_str().unwrap(),
        partial_path.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("missing from the current run"),
        "stderr: {stderr}"
    );
}

#[test]
fn watch_once_reports_progress_from_a_live_stream() {
    // Simulate an in-flight streamed trace: manifest + two candidate
    // spans + a progress event, with a torn final line.
    let live_path = scratch("watch_live.ndjson");
    std::fs::write(
        &live_path,
        concat!(
            r#"{"kind":"manifest","dataset":"Seeds","taus":[0.0,0.01,0.03],"depths":[2,4,6]}"#,
            "\n",
            r#"{"kind":"span","name":"candidate","start_us":100,"duration_us":50,"depth":2,"tau":0.0}"#,
            "\n",
            r#"{"kind":"event","name":"progress","at_us":160,"done":1,"total":9}"#,
            "\n",
            r#"{"kind":"span","name":"candidate","start_us":150,"du"#, // torn
        ),
    )
    .unwrap();
    let output = printed_trace(&["watch", live_path.to_str().unwrap(), "--once"]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("1/9 candidates"), "{stdout}");
    assert!(stdout.contains("Seeds"), "{stdout}");

    // A finalized dump reports completion and the selection.
    let final_path = scratch("watch_final.ndjson");
    let trace = traced_seeds();
    std::fs::write(&final_path, trace.to_ndjson()).unwrap();
    let output = printed_trace(&["watch", final_path.to_str().unwrap(), "--once"]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("finalized"), "{stdout}");
    assert!(stdout.contains("selected"), "{stdout}");
}

#[test]
fn history_append_then_render_shows_drift() {
    use printed_report::TraceStats;
    let trace = traced_seeds();
    let stats = TraceStats::from_trace(&trace);
    let stats_path = scratch("hist_stats.ndjson");
    std::fs::write(&stats_path, format!("{}\n", stats.to_json())).unwrap();

    let history_path = scratch("BENCH_history_test.ndjson");
    let _ = std::fs::remove_file(&history_path);
    for _ in 0..2 {
        let output = printed_trace(&[
            "history",
            "append",
            history_path.to_str().unwrap(),
            stats_path.to_str().unwrap(),
        ]);
        assert_eq!(
            output.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }

    let output = printed_trace(&["history", history_path.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "stdout: {stdout}");
    assert!(
        stdout.contains(&format!("history: {} (2 records)", stats.dataset)),
        "{stdout}"
    );
    assert!(stdout.contains("+0.0%"), "{stdout}");

    // Filtering to an absent dataset still exits 0 with a clear message.
    let output = printed_trace(&[
        "history",
        history_path.to_str().unwrap(),
        "--dataset",
        "Nope",
    ]);
    assert_eq!(output.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&output.stdout).contains("no records for"));
}

#[test]
fn gauge_records_round_trip_losslessly_through_report_and_diff() {
    use printed_report::TraceStats;
    use printed_telemetry::keys;

    let mut trace = traced_seeds();
    trace.gauges.insert(keys::PEAK_RSS_KB.to_owned(), 31_744);
    trace
        .gauges
        .insert(keys::ALLOC_BYTES.to_owned(), 123_456_789);

    // NDJSON keeps the gauge map intact, bit for bit.
    let ndjson = trace.to_ndjson();
    let parsed = parse_trace(&ndjson);
    assert!(parsed.is_clean(), "{:?}", parsed.warnings);
    assert_eq!(parsed.trace.gauges, trace.gauges);

    // Condensing before and after the round trip yields identical
    // guarded numbers, with the RSS gauge carried into them.
    let before = TraceStats::from_trace(&trace);
    let after = TraceStats::from_trace(&parsed.trace);
    assert_eq!(before, after);
    assert_eq!(after.peak_rss_kb, 31_744);

    // The CLI accepts gauge-bearing traces on both sides of a diff and
    // surfaces the RSS axis in the rendered table.
    let path = scratch("seeds_gauges.ndjson");
    std::fs::write(&path, &ndjson).unwrap();
    let output = printed_trace(&["diff", path.to_str().unwrap(), path.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("peak_rss_kb"), "{stdout}");
}

#[test]
fn kernel_diff_cli_gates_counts_and_refuses_mixed_axes() {
    use printed_report::KernelStats;

    let base = KernelStats {
        dataset: "Seeds".into(),
        kernel: "gini_scan".into(),
        calls: 17,
        items: 785,
        ..KernelStats::default()
    }
    .with_calibration(&[980_000, 990_000, 1_000_000, 1_010_000, 1_030_000]);
    let mut thermo = base.clone();
    thermo.kernel = "thermo_encode".into();
    let suite = format!("{}\n{}\n", base.to_json(), thermo.to_json());
    let baseline_path = scratch("hot_base.ndjson");
    std::fs::write(&baseline_path, &suite).unwrap();

    // An identical current run passes with the hotpath summary line.
    let same_path = scratch("hot_same.ndjson");
    std::fs::write(&same_path, &suite).unwrap();
    let output = printed_trace(&[
        "diff",
        baseline_path.to_str().unwrap(),
        same_path.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("hotpath: 2/2 kernels passed"), "{stdout}");

    // A drifted invocation count blocks even when it *shrinks* — the
    // counts are deterministic, any change is a behavior change.
    let mut drifted = base.clone();
    drifted.calls = 16;
    let drift_path = scratch("hot_drift.ndjson");
    std::fs::write(
        &drift_path,
        format!("{}\n{}\n", drifted.to_json(), thermo.to_json()),
    )
    .unwrap();
    let output = printed_trace(&[
        "diff",
        baseline_path.to_str().unwrap(),
        drift_path.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(1), "stdout: {stdout}");
    assert!(stdout.contains("calls changed"), "{stdout}");
    assert!(stdout.contains("1 REGRESSED"), "{stdout}");

    // A kernel baseline cannot gate a bench-axis file: usage error.
    let trace_path = scratch("hot_mixed.ndjson");
    std::fs::write(&trace_path, traced_seeds().to_ndjson()).unwrap();
    let output = printed_trace(&[
        "diff",
        baseline_path.to_str().unwrap(),
        trace_path.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cannot mix axes"), "stderr: {stderr}");
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(printed_trace(&[]).status.code(), Some(2));
    assert_eq!(printed_trace(&["frobnicate"]).status.code(), Some(2));
    assert_eq!(
        printed_trace(&["report", "/nonexistent/trace.ndjson"])
            .status
            .code(),
        Some(2)
    );
    assert_eq!(printed_trace(&["--help"]).status.code(), Some(0));
}

#[test]
fn report_without_a_valid_record_names_the_file_and_exits_two() {
    let line = traced_seeds().to_ndjson();
    let first = line.lines().next().expect("a trace has records");
    for (name, text) in [
        ("empty.ndjson", String::new()),
        ("blank.ndjson", "\n\n".to_owned()),
        ("torn.ndjson", first[..first.len() / 2].to_owned()),
    ] {
        let path = scratch(name);
        std::fs::write(&path, text).unwrap();
        let path = path.to_str().unwrap();
        let output = printed_trace(&["report", path]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{name}: stderr {stderr}");
        assert!(
            stderr.contains(&format!("{path}: no valid trace record")),
            "{name}: stderr {stderr}"
        );
        assert!(output.stdout.is_empty(), "{name}: nothing rendered");
    }
}

#[test]
fn every_command_exits_quietly_into_a_closed_pipe() {
    use printed_report::TraceStats;
    use std::process::Stdio;

    let trace = traced_seeds();
    let trace_path = scratch("pipe_trace.ndjson");
    std::fs::write(&trace_path, trace.to_ndjson()).unwrap();
    let stats_path = scratch("pipe_stats.ndjson");
    let stats = TraceStats::from_trace(&trace).to_json();
    std::fs::write(&stats_path, format!("{stats}\n")).unwrap();
    let history_path = scratch("pipe_history.ndjson");
    let _ = std::fs::remove_file(&history_path);
    let status = printed_trace(&[
        "history",
        "append",
        history_path.to_str().unwrap(),
        stats_path.to_str().unwrap(),
    ])
    .status;
    assert!(status.success());

    let (trace_path, stats_path, history_path) = (
        trace_path.to_str().unwrap(),
        stats_path.to_str().unwrap(),
        history_path.to_str().unwrap(),
    );
    for args in [
        vec!["report", trace_path],
        vec!["diff", stats_path, stats_path],
        vec!["diff", stats_path, stats_path, "--table"],
        vec!["watch", trace_path, "--once"],
        vec!["history", history_path],
        vec!["snapshot", trace_path],
        vec!["--help"],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_printed-trace"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("printed-trace runs");
        // Close the read end before the first write: every write fails.
        drop(child.stdout.take());
        let output = child.wait_with_output().expect("printed-trace exits");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "{args:?}: stderr {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: stderr {stderr}");
    }
}
