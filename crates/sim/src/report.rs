//! Plain-text table formatting shared by the figure-regeneration experiments.
//!
//! Every experiment of the `envy-bench` binary prints its figure or table as an
//! aligned text table plus a machine-readable CSV block, so results can be
//! both eyeballed and re-plotted.

use std::fmt::Write as _;

/// A simple column-aligned table builder.
///
/// # Example
///
/// ```
/// use envy_sim::report::Table;
///
/// let mut t = Table::new(&["locality", "greedy", "hybrid"]);
/// t.row(&["50/50".into(), "1.30".into(), "1.45".into()]);
/// let text = t.render();
/// assert!(text.contains("locality"));
/// assert!(text.contains("50/50"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells.to_vec());
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = w);
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let rule_len = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(rule_len));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Render as CSV (headers first).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Format a float with a sensible number of decimals for table output.
pub fn fmt_f64(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(&["12345".into(), "1".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains('a') && lines[0].contains("bbbb"));
        assert!(lines[2].contains("12345"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(&["only one"]);
        t.row(&["a".into(), "b".into()]);
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(&["x,y", "z"]);
        t.row(&["a\"b".into(), "plain".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("\"x,y\",z\n"));
        assert!(csv.contains("\"a\"\"b\",plain"));
    }

    #[test]
    fn fmt_f64_ranges() {
        assert_eq!(fmt_f64(12345.6), "12346");
        assert_eq!(fmt_f64(12.34), "12.3");
        assert_eq!(fmt_f64(1.2345), "1.234"); // 3 decimals below 10
    }
}
