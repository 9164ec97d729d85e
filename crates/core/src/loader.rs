//! Shared JSON loading with positioned errors — the one parse path for
//! every surface (CLI, server, bench harnesses).
//!
//! Loading is fallible in three distinct ways — the file is unreadable,
//! the bytes are not JSON, or the JSON describes an invalid value (bad
//! shape, out-of-range capacity or similarity, conflict pair referencing
//! an unknown event). [`LoadError`] keeps the three apart and carries
//! the file path plus the line/column serde_json reported, so an
//! operator staring at a 50 MB instance file knows where to look.
//! Because the CLI and the server both call through here, a malformed
//! instance produces the *same* message with the same line/column on
//! both surfaces.

use crate::{Arrangement, Instance};
use std::io::Read;

/// Why loading an input file failed.
///
/// The variants separate the repair the user has to make: `Io` means
/// fix the path or permissions, `Syntax` means the file is not JSON at
/// all (truncated download, stray bytes), `Invalid` means the JSON is
/// well-formed but describes an impossible value. The `Syntax` and
/// `Invalid` variants carry the 1-based line/column serde_json blamed.
#[derive(Debug)]
pub enum LoadError {
    /// The file (or stdin) could not be read.
    Io {
        /// The path as the user gave it (`-` for stdin).
        path: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// The bytes are not valid JSON (includes truncated input).
    Syntax {
        /// The path as the user gave it.
        path: String,
        /// 1-based line of the first offending byte.
        line: usize,
        /// 1-based column of the first offending byte.
        column: usize,
        /// The underlying parse error.
        source: serde_json::Error,
    },
    /// Valid JSON that does not describe a valid value: wrong shape,
    /// negative or overflowing capacity, similarity outside `[0, 1]`,
    /// conflict pair referencing an unknown event, …
    Invalid {
        /// The path as the user gave it.
        path: String,
        /// 1-based line where deserialization failed.
        line: usize,
        /// 1-based column where deserialization failed.
        column: usize,
        /// The underlying semantic error.
        source: serde_json::Error,
    },
}

impl LoadError {
    /// Classify a serde_json failure for `path`: data errors (the JSON
    /// was fine, the value was not) become [`LoadError::Invalid`];
    /// syntax and unexpected-EOF errors become [`LoadError::Syntax`].
    pub fn from_json(path: &str, source: serde_json::Error) -> Self {
        let (line, column) = (source.line(), source.column());
        let path = path.to_string();
        match source.classify() {
            serde_json::error::Category::Data => LoadError::Invalid {
                path,
                line,
                column,
                source,
            },
            _ => LoadError::Syntax {
                path,
                line,
                column,
                source,
            },
        }
    }

    /// The path the error is about, as the user gave it.
    pub fn path(&self) -> &str {
        match self {
            LoadError::Io { path, .. }
            | LoadError::Syntax { path, .. }
            | LoadError::Invalid { path, .. } => path,
        }
    }
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // Parser errors already end with `at line L column C`; data
            // errors carry no position (line/column are 0), so neither
            // arm prints the fields — they exist for programmatic use.
            LoadError::Io { path, source } => write!(f, "reading {path}: {source}"),
            LoadError::Syntax { path, source, .. } => {
                write!(f, "{path}: invalid JSON: {source}")
            }
            LoadError::Invalid { path, source, .. } => {
                write!(f, "{path}: invalid value: {source}")
            }
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io { source, .. } => Some(source),
            LoadError::Syntax { source, .. } | LoadError::Invalid { source, .. } => Some(source),
        }
    }
}

/// Read an entire file, or stdin when `path` is `-`.
pub fn read_input(path: &str) -> Result<String, LoadError> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|source| LoadError::Io {
                path: path.to_string(),
                source,
            })?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|source| LoadError::Io {
            path: path.to_string(),
            source,
        })
    }
}

/// Parse `text` (already read from `path`) as JSON, classifying
/// failures per [`LoadError`]. `path` is only used for error context.
pub fn from_json_str<T: for<'de> serde::Deserialize<'de>>(
    path: &str,
    text: &str,
) -> Result<T, LoadError> {
    serde_json::from_str(text).map_err(|e| LoadError::from_json(path, e))
}

/// Load a JSON instance, classifying failures per [`LoadError`].
pub fn load_instance(path: &str) -> Result<Instance, LoadError> {
    let text = read_input(path)?;
    from_json_str(path, &text)
}

/// Load a JSON arrangement, classifying failures per [`LoadError`].
pub fn load_arrangement(path: &str) -> Result<Arrangement, LoadError> {
    let text = read_input(path)?;
    from_json_str(path, &text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_file_is_an_io_error_reporting_the_path() {
        let err = read_input("/nonexistent/geacc/file.json").unwrap_err();
        assert!(matches!(err, LoadError::Io { .. }), "{err:?}");
        assert_eq!(err.path(), "/nonexistent/geacc/file.json");
        assert!(err.to_string().contains("/nonexistent/geacc/file.json"));
    }

    #[test]
    fn syntax_and_data_errors_classify_apart() {
        let err = from_json_str::<Instance>("x.json", "{not json").unwrap_err();
        assert!(matches!(err, LoadError::Syntax { .. }), "{err:?}");
        assert!(err.to_string().contains("x.json: invalid JSON"), "{err}");

        let inst = crate::toy::table1_instance();
        let json = serde_json::to_string(&inst).unwrap();
        let bad = json.replacen("\"user_caps\":[", "\"user_caps\":[-3,", 1);
        assert_ne!(json, bad, "template lost its user_caps probe");
        let err = from_json_str::<Instance>("y.json", &bad).unwrap_err();
        assert!(matches!(err, LoadError::Invalid { .. }), "{err:?}");
        assert!(err.to_string().contains("y.json: invalid value"), "{err}");

        // Hostile documents must end as data errors, not as a panic or an
        // allocation abort: a zero dimension, a dimension whose attribute
        // buffer would need terabytes, a matrix holding fewer values than
        // its shape, packed rows of a width other than `dim`, ragged rows
        // (which do not pack), and more attribute rows than capacities.
        let values = json.find("\"values\":[").unwrap() + "\"values\":[".len();
        let values_end = values + json[values..].find(']').unwrap();
        let events = "\"event_attrs\":[[0.0],[0.0],[0.0]]";
        let users = "\"user_attrs\":[[0.0],[0.0],[0.0],[0.0],[0.0]]";
        let hostile = [
            (
                json.replacen("\"dim\":1,", "\"dim\":0,", 1),
                "dimension must be at least 1",
            ),
            (
                json.replacen("\"dim\":1,", "\"dim\":1099511627776,", 1),
                "event attribute vector of length 1, expected 1099511627776",
            ),
            (
                format!("{}0.5{}", &json[..values], &json[values_end..]),
                "declares 3×5 but holds 1 values",
            ),
            (
                json.replacen(events, "\"event_attrs\":[[0.0,0.5],[0.0,0.5],[0.0,0.5]]", 1),
                "event attribute vector of length 2, expected 1",
            ),
            (
                json.replacen(events, "\"event_attrs\":[[0.0],[0.0,0.5],[0.0]]", 1),
                "event attribute vector of length 2, expected 1",
            ),
            (
                json.replacen(
                    users,
                    "\"user_attrs\":[[0.0],[0.0],[0.0],[0.0],[0.0],[0.0]]",
                    1,
                ),
                "attribute/capacity list length mismatch",
            ),
        ];
        for (doc, why) in &hostile {
            assert_ne!(&json, doc, "template lost its probe for {why:?}");
            let err = from_json_str::<Instance>("z.json", doc).unwrap_err();
            assert!(matches!(err, LoadError::Invalid { .. }), "{err:?}");
            assert!(err.to_string().contains("z.json: invalid value"), "{err}");
            assert!(err.to_string().contains(why), "{err}");
        }
    }
}
