//! Plain-text table rendering for the `experiments` binary and EXPERIMENTS.md.

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (shorter rows are padded with empty cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Renders the table as aligned text (also valid GitHub Markdown).
    pub fn render(&self) -> String {
        let columns = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        let all_rows = std::iter::once(&self.header).chain(self.rows.iter());
        for row in all_rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |row: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (i, width) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!(" {cell:<width$} |"));
            }
            line
        };
        out.push_str(&render_row(&self.header, &widths));
        out.push('\n');
        let mut separator = String::from("|");
        for width in &widths {
            separator.push_str(&format!("{}|", "-".repeat(width + 2)));
        }
        out.push_str(&separator);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a probability as a percentage with two decimals, like the paper's tables.
pub fn percent(p: f64) -> String {
    format!("{:.2}", p * 100.0)
}

/// Formats a raw percentage value (already in 0..100) with two decimals.
pub fn raw_percent(p: f64) -> String {
    format!("{p:.2}")
}

/// Formats a byte value with one decimal, as Table I does for packet sizes.
pub fn bytes(b: f64) -> String {
    format!("{b:.1}")
}

/// Formats a duration in seconds with four decimals, as Table I does for
/// inter-arrival times.
pub fn seconds(s: f64) -> String {
    format!("{s:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = TextTable::new(["App.", "Original (%)", "OR (%)"]);
        t.row(["br.", "37.77", "1.90"]);
        t.row(["mean", "83.24", "43.69"]);
        let rendered = t.render();
        assert!(rendered.contains("| App."));
        assert!(rendered.contains("| br. "));
        assert!(rendered.lines().count() == 4);
        // Markdown separator line present.
        assert!(rendered.lines().nth(1).unwrap().starts_with("|--"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["1"]);
        let rendered = t.render();
        assert!(rendered.lines().last().unwrap().matches('|').count() == 4);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(percent(0.4369), "43.69");
        assert_eq!(raw_percent(121.42), "121.42");
        assert_eq!(bytes(1013.24), "1013.2");
        assert_eq!(seconds(0.0284), "0.0284");
    }
}
