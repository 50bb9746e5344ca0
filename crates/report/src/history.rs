//! Cross-PR benchmark history: append-only `*_history` NDJSON and a
//! drift renderer for `printed-trace history`.
//!
//! `BENCH_all.ndjson` answers "did *this* change regress the suite?";
//! the history file answers the longitudinal question — how wall time,
//! hardware cost, kernel throughput and campaign spend moved across
//! merges. CI appends one `{"kind":"bench_history"}`,
//! `{"kind":"kernel_history"}` or `{"kind":"robust_history"}` line per
//! record per PR (git SHA, timestamp, the key fields, and the metrics the
//! record's [`Axis::history`] lists), and `printed-trace history`
//! renders each key's records in order with the per-step drift. The
//! three axes share one file without crosstalk.
//!
//! Records are one JSON object per line, so the file merges trivially
//! and a torn append (killed CI job) corrupts at most the final line —
//! the parser skips unparseable lines with a warning, never aborts.

use printed_telemetry::JsonLine;

use crate::diff::{short, Axis, Fields, Stats, AXES};
use crate::json::{parse as parse_json, JsonValue};

/// How a history column prints its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fmt {
    /// An integer (stored as a JSON integer).
    Int,
    /// A float in its shortest form.
    Float,
    /// A float with this many decimals.
    Fixed(usize),
}

/// One metric a history record keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Column {
    /// The metric's record field name ([`crate::diff::Metric::key`]).
    pub key: &'static str,
    /// Table header; empty = stored but not rendered.
    pub header: &'static str,
    /// Table column width.
    pub width: usize,
    /// Number format.
    pub fmt: Fmt,
    /// 0 means "not recorded": omitted from the JSON line, rendered `—`.
    pub optional: bool,
    /// Header of the per-step change column, when the table shows one.
    pub delta: Option<&'static str>,
}

/// A plain column (builder style; see [`Column::optional`] and
/// [`Column::delta`]).
pub(crate) const fn col(key: &'static str, header: &'static str, width: usize, fmt: Fmt) -> Column {
    Column {
        key,
        header,
        width,
        fmt,
        optional: false,
        delta: None,
    }
}

impl Column {
    /// Marks 0 as "not recorded".
    pub(crate) const fn optional(mut self) -> Self {
        self.optional = true;
        self
    }

    /// Adds a per-step change column with this header.
    pub(crate) const fn delta(mut self, header: &'static str) -> Self {
        self.delta = Some(header);
        self
    }

    fn render(&self, value: f64) -> String {
        match self.fmt {
            _ if self.optional && value == 0.0 => "—".to_owned(),
            Fmt::Int => (value as u64).to_string(),
            Fmt::Float => value.to_string(),
            Fmt::Fixed(decimals) => format!("{value:.decimals$}"),
        }
    }
}

/// One record's history numbers at one revision, on any axis.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// The axis the record belongs to.
    pub axis: &'static Axis,
    /// Git revision the record was produced at.
    pub git_sha: String,
    /// Unix timestamp (seconds) of the run.
    pub unix_secs: u64,
    /// Values of the axis' key fields, dataset first.
    pub key: Vec<String>,
    /// One value per [`Axis::history`] column.
    pub values: Vec<f64>,
}

impl HistoryEntry {
    /// Condenses a baseline record into a history record.
    pub fn from_stats<S: Stats>(stats: &S) -> Self {
        let metrics = stats.metrics();
        let provenance = stats.provenance();
        Self {
            axis: S::AXIS,
            git_sha: provenance.git_sha.to_owned(),
            unix_secs: provenance.unix_secs,
            key: stats.key().into_iter().map(str::to_owned).collect(),
            values: S::AXIS
                .history
                .iter()
                .map(|column| {
                    metrics
                        .iter()
                        .find(|m| m.key == column.key)
                        .expect("history columns name metrics of their axis")
                        .value
                })
                .collect(),
        }
    }

    /// Serializes to one `{"kind":"*_history"}` NDJSON line.
    pub fn to_json(&self) -> String {
        let mut line = JsonLine::new()
            .str("kind", self.axis.history_kind)
            .str("git_sha", &self.git_sha)
            .u64("unix_secs", self.unix_secs);
        for (name, value) in self.axis.key.iter().zip(&self.key) {
            line = line.str(name, value);
        }
        for (column, &value) in self.axis.history.iter().zip(&self.values) {
            line = match column.fmt {
                _ if column.optional && value == 0.0 => line,
                Fmt::Int => line.u64(column.key, value as u64),
                Fmt::Float | Fmt::Fixed(_) => line.f64(column.key, value),
            };
        }
        line.finish()
    }

    fn from_json(value: &JsonValue) -> Option<Self> {
        let kind = value.get("kind")?.as_str()?;
        let axis = AXES.into_iter().find(|axis| axis.history_kind == kind)?;
        let fields = Fields(value);
        Some(Self {
            axis,
            git_sha: fields.s("git_sha"),
            unix_secs: fields.u("unix_secs"),
            key: axis.key.iter().map(|name| fields.s(name)).collect(),
            values: axis
                .history
                .iter()
                .map(|column| match column.fmt {
                    Fmt::Int => fields.u(column.key) as f64,
                    Fmt::Float | Fmt::Fixed(_) => fields.f(column.key),
                })
                .collect(),
        })
    }
}

/// Parses a history file: every `*_history` line, in file order, plus
/// warnings for lines that were not parseable (torn appends). Foreign
/// record kinds are skipped silently.
pub fn parse_history(text: &str) -> (Vec<HistoryEntry>, Vec<String>) {
    let mut entries = Vec::new();
    let mut warnings = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_json(line) {
            Ok(value) => entries.extend(HistoryEntry::from_json(&value)),
            Err(e) => warnings.push(format!("line {}: unparseable ({e:?})", i + 1)),
        }
    }
    (entries, warnings)
}

/// Renders drift tables, axis by axis: one table per key with each
/// record's date, short SHA, kept metrics, and the per-step change of
/// the delta columns against the previous record of that key (a 0 is
/// "not recorded" and neither shows nor breaks a delta). `dataset`
/// filters to one benchmark.
pub fn render_history(entries: &[HistoryEntry], dataset: Option<&str>) -> String {
    let mut out = String::new();
    for axis in AXES {
        let mut keys: Vec<&[String]> = Vec::new();
        for entry in entries {
            if entry.axis == axis
                && dataset.is_none_or(|d| d == entry.key[0])
                && !keys.contains(&entry.key.as_slice())
            {
                keys.push(&entry.key);
            }
        }
        for key in keys {
            let records: Vec<&HistoryEntry> = entries
                .iter()
                .filter(|e| e.axis == axis && e.key == key)
                .collect();
            render_key(&mut out, axis, key, &records);
        }
    }
    if out.is_empty() {
        return match dataset {
            Some(d) => format!("history: no records for dataset {d:?}\n"),
            None => "history: no records\n".to_owned(),
        };
    }
    out
}

fn render_key(out: &mut String, axis: &Axis, key: &[String], records: &[&HistoryEntry]) {
    out.push_str(&format!(
        "{}: {} ({} records)\n",
        axis.history_title,
        key.join("/"),
        records.len()
    ));
    let shown: Vec<(usize, &Column)> = axis
        .history
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.header.is_empty())
        .collect();
    let deltas: Vec<(usize, &str)> = axis
        .history
        .iter()
        .enumerate()
        .filter_map(|(i, c)| Some((i, c.delta?)))
        .collect();
    let mut line = format!("  {:<10} {:<9}", "date", "sha");
    for (_, column) in &shown {
        line.push_str(&format!(" {:>w$}", column.header, w = column.width));
    }
    for (_, header) in &deltas {
        line.push_str(&format!(" {header:>8}"));
    }
    out.push_str(&line);
    out.push('\n');
    let mut previous: Vec<Option<f64>> = vec![None; deltas.len()];
    for record in records {
        let mut line = format!(
            "  {:<10} {:<9}",
            civil_date(record.unix_secs),
            short(&record.git_sha)
        );
        for &(i, column) in &shown {
            let text = column.render(record.values[i]);
            line.push_str(&format!(" {text:>w$}", w = column.width));
        }
        for (&(i, _), prev) in deltas.iter().zip(&mut previous) {
            let cur = record.values[i];
            let step = match *prev {
                Some(prev) if prev > 0.0 && cur > 0.0 => {
                    format!("{:+.1}%", 100.0 * (cur - prev) / prev)
                }
                _ => "—".to_owned(),
            };
            line.push_str(&format!(" {step:>8}"));
            if cur > 0.0 {
                *prev = Some(cur);
            }
        }
        out.push_str(&line);
        out.push('\n');
    }
}

/// `YYYY-MM-DD` from a Unix timestamp (UTC), via the standard
/// days-to-civil conversion — no date crate needed for one format.
fn civil_date(unix_secs: u64) -> String {
    if unix_secs == 0 {
        return "unknown".to_owned();
    }
    let days = (unix_secs / 86_400) as i64;
    // Howard Hinnant's civil_from_days, for day counts since 1970-01-01.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{KernelStats, RobustStats, TraceStats};

    const SHA: &str = "0123456789abcdef0123456789abcdef01234567";

    fn bench(dataset: &str, wall: u64, secs: u64) -> HistoryEntry {
        HistoryEntry::from_stats(&TraceStats {
            dataset: dataset.into(),
            git_sha: SHA.into(),
            wall_us: wall,
            gini_evals: 2231,
            trees: 3,
            trees_shared: 6,
            area_mm2: 3.482,
            power_mw: 0.1246,
            comparators: 3,
            unix_secs: secs,
            ..TraceStats::default()
        })
    }

    fn kernel(kernel: &str, tp: u64, secs: u64) -> HistoryEntry {
        HistoryEntry::from_stats(&KernelStats {
            dataset: "Seeds".into(),
            kernel: kernel.into(),
            git_sha: SHA.into(),
            calls: 7,
            items: 1_610,
            tp_median: tp,
            unix_secs: secs,
            ..KernelStats::default()
        })
    }

    fn robust(trials: u64, secs: u64) -> HistoryEntry {
        HistoryEntry::from_stats(&RobustStats {
            dataset: "Seeds".into(),
            git_sha: SHA.into(),
            tau: 0.01,
            depth: 4,
            yield_est: 0.96,
            worst_fault: 0.55,
            trials_median: trials,
            trials_budget: 384,
            pruned_points: 3,
            unix_secs: secs,
            ..RobustStats::default()
        })
    }

    #[test]
    fn entries_condense_and_round_trip_on_every_axis() {
        // (entry, kind, key, kept values in column order)
        let cases = [
            (
                bench("Seeds", 2468, 1_754_611_200),
                "bench_history",
                vec!["Seeds"],
                vec![2468.0, 2231.0, 3.0, 6.0, 3.482, 0.1246, 3.0, 0.0],
            ),
            (
                kernel("gini_scan", 1_000_000, 1_754_611_200),
                "kernel_history",
                vec!["Seeds", "gini_scan"],
                vec![7.0, 1_610.0, 1_000_000.0],
            ),
            (
                robust(120, 1_754_611_200),
                "robust_history",
                vec!["Seeds"],
                vec![0.01, 4.0, 0.96, 0.55, 120.0, 384.0, 3.0],
            ),
        ];
        for (entry, kind, key, values) in cases {
            assert_eq!(entry.key, key);
            assert_eq!(entry.values, values);
            assert_eq!(entry.unix_secs, 1_754_611_200);
            let line = entry.to_json();
            assert!(
                line.starts_with(&format!(r#"{{"kind":"{kind}","git_sha":"#)),
                "{line}"
            );
            let (parsed, warnings) = parse_history(&line);
            assert!(warnings.is_empty());
            assert_eq!(parsed, vec![entry]);
        }
    }

    #[test]
    fn the_three_axes_share_a_file_without_crosstalk() {
        let entries = vec![
            bench("Seeds", 2468, 1_754_611_200),
            kernel("gini_scan", 1_000_000, 1_754_611_200),
            robust(120, 1_754_611_200),
        ];
        // Foreign kinds (a stats line in the history) are skipped silently.
        let mut text = r#"{"kind":"bench_stats","dataset":"Seeds"}"#.to_owned();
        for entry in &entries {
            text.push('\n');
            text.push_str(&entry.to_json());
        }
        let (parsed, warnings) = parse_history(&text);
        assert!(warnings.is_empty());
        assert_eq!(parsed, entries);
        let axes: Vec<&str> = parsed.iter().map(|e| e.axis.history_kind).collect();
        assert_eq!(axes, ["bench_history", "kernel_history", "robust_history"]);
    }

    #[test]
    fn torn_final_line_warns_but_parses_the_rest() {
        let good = bench("Seeds", 2468, 1_754_611_200).to_json();
        let torn = &good[..good.len() / 2];
        let (parsed, warnings) = parse_history(&format!("{good}\n{torn}"));
        assert_eq!(parsed.len(), 1);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("line 2"), "{warnings:?}");
    }

    #[test]
    fn renders_per_key_drift_on_every_axis() {
        // (entries, substrings the unfiltered render must hold)
        let cases = [
            (
                vec![
                    bench("Seeds", 2468, 1_754_611_200),
                    bench("Cardio", 9000, 1_754_611_200),
                    bench("Seeds", 2700, 1_754_697_600),
                ],
                vec![
                    "history: Seeds (2 records)",
                    "history: Cardio (1 records)",
                    "+9.4%", // 2468 → 2700
                    "2025-08-08",
                ],
            ),
            (
                vec![
                    kernel("gini_scan", 1_000_000, 1_754_611_200),
                    kernel("cube_merge", 2_000_000, 1_754_611_200),
                    kernel("gini_scan", 1_100_000, 1_754_697_600),
                ],
                vec![
                    "kernel history: Seeds/gini_scan (2 records)",
                    "kernel history: Seeds/cube_merge (1 records)",
                    "+10.0%", // 1.0M → 1.1M
                ],
            ),
            (
                vec![robust(120, 1_754_611_200), robust(108, 1_754_697_600)],
                vec!["robust history: Seeds (2 records)", "-10.0%"], // 120 → 108
            ),
        ];
        for (entries, needles) in cases {
            let text = render_history(&entries, None);
            for needle in needles {
                assert!(text.contains(needle), "{needle}:\n{text}");
            }
            // Filtering to an unknown dataset says so.
            let none = render_history(&entries, Some("Nope"));
            assert_eq!(none, "history: no records for dataset \"Nope\"\n");
        }
        // Filtered rendering drops the other datasets.
        let entries = [bench("Seeds", 1, 0), bench("Cardio", 1, 0)];
        let seeds_only = render_history(&entries, Some("Seeds"));
        assert!(!seeds_only.contains("Cardio"), "{seeds_only}");
        assert_eq!(render_history(&[], None), "history: no records\n");
    }

    #[test]
    fn civil_date_handles_epoch_landmarks() {
        assert_eq!(civil_date(0), "unknown");
        assert_eq!(civil_date(86_400), "1970-01-02");
        assert_eq!(civil_date(951_782_400), "2000-02-29"); // leap day
        assert_eq!(civil_date(1_754_611_200), "2025-08-08");
    }

    #[test]
    fn rss_column_trends_and_tolerates_pre_rss_records() {
        let rss = |entry: HistoryEntry, kb: f64| {
            let mut entry = entry;
            *entry.values.last_mut().expect("rss column") = kb;
            entry
        };
        let with_rss = rss(bench("Seeds", 2468, 1_754_611_200), 40_000.0);
        let grown = rss(bench("Seeds", 2468, 1_754_697_600), 44_000.0);
        // Old record without RSS, then two with: the Δrss of the first
        // RSS-bearing record is "—", the second is +10.0%.
        let entries = vec![bench("Seeds", 2400, 1_754_524_800), with_rss.clone(), grown];
        let text = render_history(&entries, None);
        assert!(text.contains("rss_kb"), "{text}");
        assert!(text.contains("Δrss"), "{text}");
        assert!(text.contains("40000"), "{text}");
        assert!(text.contains("+10.0%"), "{text}");
        // The RSS field round-trips (and stays absent when unrecorded).
        let line = with_rss.to_json();
        assert!(line.contains(r#""peak_rss_kb":40000"#), "{line}");
        assert!(!bench("Seeds", 1, 0).to_json().contains("peak_rss_kb"));
        let (parsed, _) = parse_history(&line);
        assert_eq!(parsed, vec![with_rss]);
    }
}
