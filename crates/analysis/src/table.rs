use std::fmt::Write as _;

/// A simple aligned ASCII table for terminal reports.
///
/// # Example
///
/// ```
/// use drec_analysis::Table;
///
/// let mut t = Table::new(vec!["Model".into(), "Speedup".into()]);
/// t.row(vec!["RM1".into(), "1.4x".into()]);
/// let s = t.render();
/// assert!(s.contains("RM1"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row; missing cells render empty, extra cells are kept.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns and a separator line.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.header.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        let measure = |widths: &mut Vec<usize>, row: &[String]| {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        };
        measure(&mut widths, &self.header);
        for row in &self.rows {
            measure(&mut widths, row);
        }
        let mut out = String::new();
        let write_row = |out: &mut String, row: &[String], widths: &[usize]| {
            for (i, width) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(out, "{cell:<width$}");
                if i + 1 < widths.len() {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header, &widths);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row, &widths);
        }
        out
    }
}

/// Formats seconds with an adaptive unit (`ns`/`µs`/`ms`/`s`).
pub fn fmt_seconds(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.1}ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.3}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["A".into(), "Bee".into()]);
        t.row(vec!["loooong".into(), "1".into()]);
        t.row(vec!["x".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All data lines equal width of the widest.
        assert!(lines[2].starts_with("loooong"));
        assert!(lines[3].starts_with("x      "));
    }

    #[test]
    fn handles_ragged_rows() {
        let mut t = Table::new(vec!["A".into()]);
        t.row(vec!["1".into(), "extra".into()]);
        t.row(vec![]);
        let s = t.render();
        assert!(s.contains("extra"));
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn fmt_seconds_units() {
        assert!(fmt_seconds(2.5e-9).ends_with("ns"));
        assert!(fmt_seconds(2.5e-5).ends_with("µs"));
        assert!(fmt_seconds(2.5e-2).ends_with("ms"));
        assert!(fmt_seconds(2.5).ends_with('s'));
    }
}
