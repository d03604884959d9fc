//! Plain-text tables for the CLI and example output.
//!
//! `perfiso-run` prints each figure's grid as an aligned table so that its
//! output can be compared side-by-side with the paper.

/// A simple column-aligned text table.
///
/// # Examples
///
/// ```
/// use telemetry::table::Table;
///
/// let mut t = Table::new(&["policy", "p99 (ms)"]);
/// t.row(&["blind", "12.4"]);
/// t.row(&["none", "349.0"]);
/// let s = t.render();
/// assert!(s.contains("blind"));
/// assert!(s.lines().count() >= 4);
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new(headers: &[&str]) -> Self {
        assert!(!headers.is_empty(), "a table needs at least one column");
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; missing cells render empty, extra cells are dropped.
    pub fn row(&mut self, cells: &[&str]) {
        let mut row: Vec<String> = cells
            .iter()
            .take(self.headers.len())
            .map(|s| s.to_string())
            .collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Appends a row from owned strings.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        let mut row = cells;
        row.truncate(self.headers.len());
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with a header separator.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a millisecond quantity with two decimals.
pub fn ms(d: simcore::SimDuration) -> String {
    format!("{:.2}", d.as_millis_f64())
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["xxxxxx", "1"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a     "));
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn pads_and_truncates_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1"]);
        t.row(&["1", "2", "3"]);
        assert_eq!(t.len(), 2);
        let s = t.render();
        assert!(!s.contains('3'));
    }

    #[test]
    fn helpers_format() {
        assert_eq!(ms(SimDuration::from_micros(12_345)), "12.35");
        assert_eq!(pct(0.123), "12.3%");
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_headers_panic() {
        let _ = Table::new(&[]);
    }
}
