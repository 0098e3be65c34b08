//! Plain-text and CSV rendering for reproduced tables and figures.

use std::fmt;

/// A simple titled table with headers and string rows, rendering as
/// aligned ASCII (for the terminal) or CSV (for plotting).
///
/// # Examples
///
/// ```
/// use uavail_travel::report::Table;
///
/// let mut t = Table::new("Table 8", vec!["N", "A(A users)", "A(B users)"]);
/// t.add_row(vec!["1".into(), "0.84235".into(), "0.76875".into()]);
/// let text = t.to_string();
/// assert!(text.contains("Table 8"));
/// assert!(t.to_csv().starts_with("N,A(A users),A(B users)"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new<S: Into<String>>(title: impl Into<String>, headers: Vec<S>) -> Self {
        Table {
            title: title.into(),
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics when the row width differs from the header width.
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} does not match header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// CSV rendering (header line first). Fields containing commas or
    /// quotes are quoted.
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| field(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:>w$}", w = w)?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Formats an availability with 5 decimal places, the paper's Table 8
/// convention.
pub fn fmt_availability(a: f64) -> String {
    format!("{a:.5}")
}

/// Formats an unavailability in scientific notation, the Figures 11–12
/// convention.
pub fn fmt_unavailability(u: f64) -> String {
    format!("{u:.3e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_rendering_aligns() {
        let mut t = Table::new("T", vec!["a", "long_header"]);
        t.add_row(vec!["1".into(), "2".into()]);
        t.add_row(vec!["333".into(), "4".into()]);
        let s = t.to_string();
        assert!(s.contains("== T =="));
        assert!(s.contains("long_header"));
        assert_eq!(t.title(), "T");
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new("T", vec!["x"]);
        t.add_row(vec!["a,b".into()]);
        t.add_row(vec!["say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("T", vec!["a", "b"]);
        t.add_row(vec!["only one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_availability(0.842349), "0.84235");
        assert_eq!(fmt_unavailability(4.415e-6), "4.415e-6");
    }
}
