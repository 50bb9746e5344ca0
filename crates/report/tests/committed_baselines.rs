//! The committed `BENCH_*.ndjson` baselines against the one gate: every
//! record re-serializes byte-identically, each suite gates cleanly against
//! itself through the CLI, and files that mix axes are usage errors.

use std::path::PathBuf;
use std::process::{Command, Output};

use printed_report::{parse_history, HistoryEntry, KernelStats, RobustStats, Stats, TraceStats};

fn committed(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

fn read(name: &str) -> String {
    std::fs::read_to_string(committed(name)).expect("committed baseline is readable")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("printed-trace-baselines-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn printed_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_printed-trace"))
        .args(args)
        .output()
        .expect("printed-trace runs")
}

/// Parses a suite of `S` records and serializes it back.
fn reserialize<S: Stats>(text: &str) -> (usize, String) {
    let (records, warnings) = S::parse_suite(text).expect("suite parses");
    assert!(warnings.is_empty(), "{warnings:?}");
    let lines: String = records.iter().map(|r| r.to_json() + "\n").collect();
    (records.len(), lines)
}

#[test]
fn committed_suites_reserialize_byte_identically() {
    for (name, (count, lines)) in [
        (
            "BENCH_all.ndjson",
            reserialize::<TraceStats>(&read("BENCH_all.ndjson")),
        ),
        (
            "BENCH_hotpath.ndjson",
            reserialize::<KernelStats>(&read("BENCH_hotpath.ndjson")),
        ),
        (
            "BENCH_robust.ndjson",
            reserialize::<RobustStats>(&read("BENCH_robust.ndjson")),
        ),
    ] {
        let text = read(name);
        assert_eq!(
            count,
            text.lines().count(),
            "{name}: every line is a record"
        );
        assert_eq!(lines, text, "{name}");
    }
}

#[test]
fn committed_history_with_every_axis_appended_reserializes_byte_identically() {
    fn appended<S: Stats>(name: &str) -> String {
        let (records, _) = S::parse_suite(&read(name)).expect("suite parses");
        records
            .iter()
            .map(|r| HistoryEntry::from_stats(r).to_json() + "\n")
            .collect()
    }
    let text = read("BENCH_history.ndjson")
        + &appended::<KernelStats>("BENCH_hotpath.ndjson")
        + &appended::<RobustStats>("BENCH_robust.ndjson");
    let (entries, warnings) = parse_history(&text);
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(entries.len(), text.lines().count());
    let lines: String = entries.iter().map(|e| e.to_json() + "\n").collect();
    assert_eq!(lines, text);
}

#[test]
fn each_committed_suite_passes_against_itself() {
    for (name, summary) in [
        ("BENCH_all.ndjson", "suite: 8/8 benchmarks passed"),
        ("BENCH_hotpath.ndjson", "hotpath: 48/48 kernels passed"),
        ("BENCH_robust.ndjson", "robustness: 8/8 benchmarks passed"),
    ] {
        let path = committed(name);
        let path = path.to_str().unwrap();
        let output = printed_trace(&["diff", path, path]);
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert_eq!(output.status.code(), Some(0), "{name}: {stdout}");
        assert!(stdout.contains(summary), "{name}: {stdout}");
        // The markdown table covers every axis, one row per record.
        let output = printed_trace(&["diff", path, path, "--table"]);
        let table = String::from_utf8_lossy(&output.stdout);
        assert_eq!(output.status.code(), Some(0), "{name}: {table}");
        assert_eq!(table.lines().count(), 2 + read(name).lines().count());
    }
}

#[test]
fn suites_of_different_axes_never_gate_each_other() {
    let kernel = committed("BENCH_hotpath.ndjson");
    let robust = committed("BENCH_robust.ndjson");
    let output = printed_trace(&["diff", kernel.to_str().unwrap(), robust.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cannot mix axes"), "stderr: {stderr}");
}

#[test]
fn a_file_mixing_axes_is_refused_by_diff_and_history_append() {
    let mixed = scratch("mixed.ndjson");
    std::fs::write(
        &mixed,
        read("BENCH_all.ndjson") + &read("BENCH_hotpath.ndjson"),
    )
    .unwrap();
    let mixed = mixed.to_str().unwrap();
    let history = scratch("mixed_history.ndjson");
    let history = history.to_str().unwrap();
    for args in [
        vec!["diff", mixed, mixed],
        vec!["history", "append", history, mixed],
    ] {
        let output = printed_trace(&args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("mixes bench_stats and kernel_stats records"),
            "{args:?}: {stderr}"
        );
    }
    assert!(!std::path::Path::new(history).exists(), "nothing appended");
}
