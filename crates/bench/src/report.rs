//! Experiment reporting: the paper-style tables every experiment binary
//! prints, in markdown by default or as machine-readable JSON under
//! `--json`.
//!
//! `streach_exp` funnels every experiment's tables through [`emit_all`], so the
//! output contract is uniform: markdown tables for humans, or — when the
//! process was invoked with `--json` — a single JSON array of
//! `{id, caption, headers, rows}` objects for scripts and CI artifacts.

use reach_obs::json::Json;
use std::fmt::Write as _;

/// A titled table with a caption tying it to the paper artifact it
/// reproduces.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment identifier (e.g. `Figure 14(a)`).
    pub id: String,
    /// Human description.
    pub caption: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, caption: &str, headers: &[&str]) -> Self {
        Self {
            id: id.into(),
            caption: caption.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Renders a GitHub-flavored markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}", self.id, self.caption);
        let _ = writeln!(out);
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain([h.len()])
                    .max()
                    .unwrap_or(1)
            })
            .collect();
        let fmt_row = |cells: &[String]| -> String {
            let mut s = String::from("|");
            for (c, w) in cells.iter().zip(&widths) {
                let _ = write!(s, " {c:w$} |");
            }
            s
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{:-<width$}|", "", width = w + 2);
        }
        let _ = writeln!(out, "{sep}");
        for r in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(r));
        }
        out
    }

    /// The table as one JSON object:
    /// `{"id": …, "caption": …, "headers": […], "rows": [[…], …]}`.
    /// All cells stay strings — the markdown cells are the contract, JSON
    /// is just a parseable container for them.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("id", Json::Str(self.id.clone())),
            ("caption", Json::Str(self.caption.clone())),
            ("headers", Json::strings(&self.headers)),
            (
                "rows",
                Json::Array(self.rows.iter().map(|r| Json::strings(r)).collect()),
            ),
        ])
    }
}

/// Emits a run's tables to stdout: markdown tables, or with `json` one
/// JSON array of table objects rendered by the [`reach_obs::json`] writer.
/// Every `streach_exp` run ends with this call.
pub fn emit_all(tables: &[Table], json: bool) {
    if json {
        print!(
            "{}",
            Json::Array(tables.iter().map(Table::to_json).collect()).render()
        );
    } else {
        for t in tables {
            println!("{}", t.to_markdown());
        }
    }
}

/// Compact float formatting for table cells.
pub fn fnum(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Duration in adaptive units.
pub fn fdur(d: std::time::Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1000.0 {
        format!("{us:.0}µs")
    } else if us < 1e6 {
        format!("{:.2}ms", us / 1000.0)
    } else {
        format!("{:.2}s", us / 1e6)
    }
}

/// Bytes in adaptive units.
pub fn fbytes(b: u64) -> String {
    const KB: f64 = 1024.0;
    let b = b as f64;
    if b < KB {
        format!("{b:.0}B")
    } else if b < KB * KB {
        format!("{:.1}KB", b / KB)
    } else if b < KB * KB * KB {
        format!("{:.1}MB", b / KB / KB)
    } else {
        format!("{:.2}GB", b / KB / KB / KB)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn markdown_shape() {
        let mut t = Table::new("Figure 0", "demo", &["a", "bee"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### Figure 0 — demo"));
        assert!(md.contains("| a   | bee |"));
        assert!(md.contains("| 333 | 4   |"));
        assert!(md
            .lines()
            .any(|l| l.starts_with("|---") || l.starts_with("|----")));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_rejected() {
        let mut t = Table::new("x", "y", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn number_formats() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(4.5678), "4.57");
        assert_eq!(fnum(42.123), "42.1");
        assert_eq!(fnum(12345.6), "12346");
        assert_eq!(fdur(Duration::from_micros(500)), "500µs");
        assert_eq!(fdur(Duration::from_millis(12)), "12.00ms");
        assert_eq!(fbytes(512), "512B");
        assert_eq!(fbytes(2048), "2.0KB");
        assert_eq!(fbytes(3 * 1024 * 1024), "3.0MB");
    }
}
