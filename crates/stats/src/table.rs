//! Result tables: aligned plain-text, CSV, and Markdown output.
//!
//! Every experiment in `od-experiments` emits one or more [`Table`]s; the
//! plain-text form goes to stdout, the Markdown and CSV forms into
//! `results/<ID>_<i>.{md,csv}` for downstream plotting (README.md,
//! § Experiments).

use std::fmt::Write as _;

/// A simple rectangular table of strings with a header row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width {} != header width {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Convenience: appends a row of displayable items.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_display_row(&mut self, row: &[&dyn std::fmt::Display]) {
        self.push_row(row.iter().map(|d| d.to_string()).collect());
    }

    /// Renders as aligned plain text.
    pub fn to_plain_text(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders as CSV (RFC-4180 quoting for cells containing commas or
    /// quotes).
    pub fn to_csv(&self) -> String {
        let quote = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|c| quote(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Renders as a GitHub-flavoured Markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.header.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.header
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }
}

/// Formats a float with engineering-friendly precision: scientific notation
/// for very small/large magnitudes, fixed otherwise.
pub fn fmt_float(x: f64) -> String {
    // od-lint: allow(F1) — exact sentinel: formatting the literal zero
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1e5 || x.abs() < 1e-3 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::new("demo", &["graph", "n", "value"]);
        t.push_row(vec!["cycle".into(), "16".into(), "0.5".into()]);
        t.push_row(vec!["complete".into(), "8".into(), "1.25".into()]);
        t
    }

    #[test]
    fn plain_text_is_aligned_and_titled() {
        let text = sample_table().to_plain_text();
        assert!(text.contains("## demo"));
        assert!(text.contains("cycle"));
        let lines: Vec<&str> = text.lines().collect();
        // header + separator + 2 rows + title line
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn csv_round_trip_basics() {
        let csv = sample_table().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "graph,n,value");
        assert_eq!(lines[1], "cycle,16,0.5");
    }

    #[test]
    fn csv_quotes_commas_and_quotes() {
        let mut t = Table::new("q", &["a"]);
        t.push_row(vec!["x,y".into()]);
        t.push_row(vec!["say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn markdown_has_separator_row() {
        let md = sample_table().to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[1], "|---|---|---|");
        assert!(lines[2].starts_with("| cycle"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("bad", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_float(0.0), "0");
        assert_eq!(fmt_float(1.5), "1.5000");
        assert!(fmt_float(1e-9).contains('e'));
        assert!(fmt_float(1e9).contains('e'));
    }

    #[test]
    fn push_display_row_stringifies() {
        let mut t = Table::new("d", &["x", "y"]);
        t.push_display_row(&[&42, &"abc"]);
        assert_eq!(t.row_count(), 1);
        assert!(t.to_csv().contains("42,abc"));
    }
}
