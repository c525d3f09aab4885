//! Experiment report tables, rendered as markdown — what
//! `run_experiments` prints and `tests/golden/smoke.md` holds.

/// A simple labelled table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table caption (e.g. `E6: protocol comparison, 256 peers`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells, each the same length as `headers`.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics when the cell count differs from the header count.
    #[expect(clippy::disallowed_macros, reason = "`# Panics` when the cell count differs from the header count; every scenario passes a fixed-length row written beside its header list, and the committed smoke tables render every table in tier-1")]
    pub fn row<I, S>(&mut self, cells: I) -> &mut Table
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch in {:?}", self.title);
        self.rows.push(row);
        self
    }

    /// Renders as a GitHub-flavored markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("**{}**\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}|\n",
            self.headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

/// Formats a float with sensible experiment precision.
pub fn fnum(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

/// Formats virtual microseconds as milliseconds.
pub fn ms(us: u64) -> String {
    format!("{:.1}", us as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("T", &["protocol", "msgs", "recall"]);
        t.row(["Napster", "2", "1.00"]);
        t.row(["Gnutella", "410", "0.93"]);
        t
    }

    #[test]
    fn markdown_shape() {
        let md = sample().to_markdown();
        assert!(md.starts_with("**T**"));
        assert!(md.contains("| protocol | msgs | recall |"));
        assert!(md.contains("|---|---|---|"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        Table::new("T", &["a", "b"]).row(["only-one"]);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(0.1234), "0.123");
        assert_eq!(fnum(6.54321), "6.54");
        assert_eq!(fnum(1234.5), "1234"); // {:.0} rounds half to even
        assert_eq!(ms(20_500), "20.5");
    }
}
