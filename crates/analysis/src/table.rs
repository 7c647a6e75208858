//! Markdown table rendering for the experiment harness output.

use std::fmt::Write as _;

/// Builds GitHub-flavored Markdown tables (the harness prints the paper's
/// tables to stdout and into `EXPERIMENTS.md`). Headers and cells are
/// anything that converts into a `String`, so string literals need no
/// `.into()`.
///
/// # Examples
///
/// ```
/// use ag_analysis::TableBuilder;
///
/// let mut t = TableBuilder::new(["graph", "rounds"]);
/// t.row(["line".to_string(), 42.to_string()]);
/// assert_eq!(
///     t.render_markdown(),
///     "| graph | rounds |\n|---|---|\n| line | 42 |\n"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct TableBuilder {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableBuilder {
    /// Starts a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `header` is empty.
    #[must_use]
    pub fn new(header: impl IntoIterator<Item = impl Into<String>>) -> Self {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        assert!(!header.is_empty(), "table needs at least one column");
        TableBuilder {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: impl IntoIterator<Item = impl Into<String>>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as a GitHub-flavored Markdown table.
    #[must_use]
    pub fn render_markdown(&self) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TableBuilder {
        let mut t = TableBuilder::new(["a", "bbbb"]);
        t.row(["xxxxx", "1"]);
        t.row(["y".to_string(), 22.to_string()]);
        t
    }

    #[test]
    fn markdown_rendering() {
        assert_eq!(
            sample().render_markdown(),
            "| a | bbbb |\n|---|---|\n| xxxxx | 1 |\n| y | 22 |\n"
        );
    }

    #[test]
    fn length_tracking() {
        assert!(TableBuilder::new(["a"]).is_empty());
        let t = sample();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_panics() {
        let mut t = TableBuilder::new(["a"]);
        t.row(["1", "2"]);
    }
}
