//! CSV import/export for datasets.
//!
//! The registry synthesizes stand-ins for the UCI benchmarks, but a user
//! with the real files (or their own sensor logs) should be able to run the
//! co-design on them. The format is deliberately minimal: comma-separated
//! numeric feature columns with the class label in the **last** column,
//! optional header line, `#` comments and blank lines ignored. Labels may
//! be non-contiguous integers or arbitrary strings; they are densified to
//! `0..n_classes` in first-appearance order.
//!
//! ```
//! use printed_datasets::io::{parse_csv, to_csv};
//!
//! let csv = "f0,f1,label\n0.1,0.9,healthy\n0.8,0.2,sick\n0.2,0.7,healthy\n";
//! let ds = parse_csv("demo", csv)?;
//! assert_eq!(ds.len(), 3);
//! assert_eq!(ds.n_features(), 2);
//! assert_eq!(ds.n_classes(), 2);
//! assert_eq!(ds.label(1), 1); // "sick" appeared second
//!
//! let out = to_csv(&ds);
//! let again = parse_csv("demo", &out)?;
//! assert_eq!(again.labels(), ds.labels());
//! # Ok::<(), printed_datasets::io::CsvError>(())
//! ```

use core::fmt;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::dataset::{Dataset, DatasetError};

/// Parses CSV text into a [`Dataset`]. See the module docs for the format.
///
/// # Errors
///
/// Returns [`CsvError`] on empty input, rows whose width differs from the
/// header's or the first row's, or feature fields that are not finite
/// numbers. Only a first row with a non-numeric field is a header; one
/// holding NaN or infinity is a [`CsvError::BadFeature`].
pub fn parse_csv(name: &str, text: &str) -> Result<Dataset, CsvError> {
    let mut rows: Vec<(Vec<f64>, usize)> = Vec::new();
    let mut label_ids: BTreeMap<String, usize> = BTreeMap::new();
    let mut label_order: Vec<String> = Vec::new();
    let mut n_features: Option<usize> = None;

    for (line_no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() < 2 {
            return Err(CsvError::TooFewColumns { line: line_no + 1 });
        }
        let feature_fields = &fields[..fields.len() - 1];
        let label_field = fields[fields.len() - 1];

        let parsed: Result<Vec<f64>, _> = feature_fields.iter().map(|f| f.parse::<f64>()).collect();
        let features = match parsed {
            Ok(v) if v.iter().all(|x| x.is_finite()) => v,
            // A non-numeric first row is a header, and it fixes the width.
            Err(_) if n_features.is_none() => {
                n_features = Some(feature_fields.len());
                continue;
            }
            _ => return Err(CsvError::BadFeature { line: line_no + 1 }),
        };
        match n_features {
            None => n_features = Some(features.len()),
            Some(expected) if expected != features.len() => {
                return Err(CsvError::Ragged {
                    line: line_no + 1,
                    expected,
                    got: features.len(),
                })
            }
            Some(_) => {}
        }
        let next_id = label_ids.len();
        let label = *label_ids.entry(label_field.to_owned()).or_insert_with(|| {
            label_order.push(label_field.to_owned());
            next_id
        });
        rows.push((features, label));
    }

    match n_features {
        Some(n_features) if !rows.is_empty() => {
            Dataset::from_rows(name, n_features, rows).map_err(CsvError::Dataset)
        }
        _ => Err(CsvError::Empty),
    }
}

/// Reads a CSV file from disk into a [`Dataset`]; the file stem becomes the
/// dataset name.
///
/// # Errors
///
/// Returns [`CsvError::Io`] on read failure, plus any [`parse_csv`] error.
pub fn read_csv(path: impl AsRef<Path>) -> Result<Dataset, CsvError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| CsvError::Io {
        message: format!("{}: {e}", path.display()),
    })?;
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("dataset");
    parse_csv(name, &text)
}

/// Serializes a dataset to the same CSV format (header `f0,…,fN,label`,
/// dense integer labels).
pub fn to_csv(dataset: &Dataset) -> String {
    let mut out = String::new();
    let header: Vec<String> = (0..dataset.n_features()).map(|f| format!("f{f}")).collect();
    let _ = writeln!(out, "{},label", header.join(","));
    for (features, label) in dataset.iter() {
        let fields: Vec<String> = features.iter().map(|v| format!("{v}")).collect();
        let _ = writeln!(out, "{},{label}", fields.join(","));
    }
    out
}

/// Writes a dataset to a CSV file.
///
/// # Errors
///
/// Returns [`CsvError::Io`] on write failure.
pub fn write_csv(dataset: &Dataset, path: impl AsRef<Path>) -> Result<(), CsvError> {
    let path = path.as_ref();
    std::fs::write(path, to_csv(dataset)).map_err(|e| CsvError::Io {
        message: format!("{}: {e}", path.display()),
    })
}

/// Errors for CSV parsing and file I/O.
#[derive(Debug)]
pub enum CsvError {
    /// No data rows were found.
    Empty,
    /// A row had fewer than two columns (one feature + label).
    TooFewColumns {
        /// 1-based line number.
        line: usize,
    },
    /// A feature field failed to parse as a finite number.
    BadFeature {
        /// 1-based line number.
        line: usize,
    },
    /// A row's feature count differed from the header's or the first
    /// row's.
    Ragged {
        /// 1-based line number.
        line: usize,
        /// Expected feature count.
        expected: usize,
        /// Actual feature count.
        got: usize,
    },
    /// Underlying dataset construction failed.
    Dataset(DatasetError),
    /// File read/write failed.
    Io {
        /// Path and OS error description.
        message: String,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Empty => write!(f, "no data rows in CSV"),
            CsvError::TooFewColumns { line } => {
                write!(
                    f,
                    "line {line}: need at least one feature column and a label"
                )
            }
            CsvError::BadFeature { line } => {
                write!(f, "line {line}: feature field is not a finite number")
            }
            CsvError::Ragged {
                line,
                expected,
                got,
            } => {
                write!(f, "line {line}: {got} features, expected {expected}")
            }
            CsvError::Dataset(e) => write!(f, "invalid dataset: {e}"),
            CsvError::Io { message } => write!(f, "io error: {message}"),
        }
    }
}

impl std::error::Error for CsvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CsvError::Dataset(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_numeric_csv() {
        let ds = parse_csv("t", "1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n").unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.n_features(), 2);
        assert_eq!(ds.sample(1), &[3.0, 4.0]);
        assert_eq!(ds.labels(), &[0, 1, 0]);
    }

    #[test]
    fn skips_header_comments_and_blank_lines() {
        let csv = "# sensor log\nf0,f1,label\n\n0.5,0.5,a\n0.6,0.4,b\n";
        let ds = parse_csv("t", csv).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.n_classes(), 2);
    }

    #[test]
    fn string_labels_densify_in_first_appearance_order() {
        let ds = parse_csv("t", "1,healthy\n2,sick\n3,healthy\n4,unknown\n").unwrap();
        assert_eq!(ds.labels(), &[0, 1, 0, 2]);
        assert_eq!(ds.n_classes(), 3);
    }

    #[test]
    fn sparse_integer_labels_densify() {
        // UCI files often label classes 1, 5, 7 — densify, don't allocate 8.
        let ds = parse_csv("t", "0.0,7\n1.0,1\n2.0,7\n").unwrap();
        assert_eq!(ds.n_classes(), 2);
        assert_eq!(ds.labels(), &[0, 1, 0]);
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ds = parse_csv("t", "0.25,1.5,0\n0.125,2.25,1\n").unwrap();
        let again = parse_csv("t", &to_csv(&ds)).unwrap();
        assert_eq!(again, ds);
    }

    #[test]
    fn parse_outcomes_by_input() {
        // Ok((rows, features)) or the error's message.
        type Outcome = Result<(usize, usize), &'static str>;
        let cases: &[(&str, Outcome)] = &[
            ("1.0,2.0,0\n3.0,4.0,1\n", Ok((2, 2))),
            ("# log\nf0,f1,label\n\n0.5,0.5,a\n0.6,0.4,b\n", Ok((2, 2))),
            ("a,b,label\n1,2,0\n", Ok((1, 2))),
            ("1,healthy\n2,sick\n", Ok((2, 1))),
            ("-1e3,0.5,0\n", Ok((1, 2))),
            ("", Err("no data rows in CSV")),
            ("# only\n", Err("no data rows in CSV")),
            ("f0,f1,label\n", Err("no data rows in CSV")),
            (
                "5\n",
                Err("line 1: need at least one feature column and a label"),
            ),
            ("1,2,0\n3,1\n", Err("line 2: 1 features, expected 2")),
            // The header fixes the width: a narrower first row is ragged.
            ("a,b,label\n1,2\n", Err("line 2: 1 features, expected 2")),
            ("a,label\n1,2,0\n", Err("line 2: 2 features, expected 1")),
            (
                "1,2,0\nxyz,2,1\n",
                Err("line 2: feature field is not a finite number"),
            ),
            // Only one header: a second non-numeric row is bad data.
            (
                "a,b,label\nc,d,label\n1,2,0\n",
                Err("line 2: feature field is not a finite number"),
            ),
            // A non-finite first row is bad data, not a second header.
            (
                "NaN,1,0\n2,3,1\n",
                Err("line 1: feature field is not a finite number"),
            ),
            (
                "f0,f1,label\n1,inf,0\n2,3,1\n",
                Err("line 2: feature field is not a finite number"),
            ),
            (
                "1,2,0\n-inf,3,1\n",
                Err("line 2: feature field is not a finite number"),
            ),
        ];
        for &(text, expected) in cases {
            let got = parse_csv("t", text)
                .map(|ds| (ds.len(), ds.n_features()))
                .map_err(|e| e.to_string());
            assert_eq!(got, expected.map_err(str::to_owned), "input {text:?}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("printed-ml-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.csv");
        let ds = parse_csv("roundtrip", "0.1,0.9,0\n0.8,0.2,1\n").unwrap();
        write_csv(&ds, &path).unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(back, ds);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quantization_pipeline_works_on_imported_data() {
        use crate::quantize::QuantizedDataset;
        let ds = parse_csv("t", "10,100,a\n20,200,b\n30,300,a\n").unwrap();
        let q = QuantizedDataset::from_dataset(&ds.normalized(), 4);
        assert_eq!(q.sample(0), &[0, 0]);
        assert_eq!(q.sample(2), &[15, 15]);
    }
}
