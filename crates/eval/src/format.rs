//! Plain-text table rendering in the style of the paper's result tables.

use crate::Stats;

/// A text table with a header row and aligned columns.
///
/// # Examples
///
/// ```
/// use taglets_eval::TextTable;
///
/// let mut t = TextTable::new(vec!["Method".into(), "1-shot".into()]);
/// t.row(vec!["Fine-tuning".into(), "57.28 ± 5.20".into()]);
/// let rendered = t.render();
/// assert!(rendered.contains("Fine-tuning"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        TextTable {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells);
    }

    /// Appends a separator row (rendered as dashes).
    pub fn separator(&mut self) {
        self.rows.push(Vec::new());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.iter().filter(|r| !r.is_empty()).count()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the table as GitHub-flavoured Markdown.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let row_line = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for c in cells {
                line.push(' ');
                line.push_str(&c.replace('|', "\\|"));
                line.push_str(" |");
            }
            line.push('\n');
            line
        };
        out.push_str(&row_line(&self.header));
        out.push('|');
        for _ in &self.header {
            out.push_str("---|");
        }
        out.push('\n');
        for row in &self.rows {
            if row.is_empty() {
                continue; // markdown tables have no separator rows
            }
            out.push_str(&row_line(row));
        }
        out
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let pad = width.saturating_sub(cell.chars().count());
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(cell);
                line.push_str(&" ".repeat(pad));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            if row.is_empty() {
                out.push_str(&"-".repeat(total));
            } else {
                out.push_str(&fmt_row(row, &widths));
            }
            out.push('\n');
        }
        out
    }
}

/// Formats a [`Stats`] like the paper's cells (`61.60 ± 2.90`).
pub fn fmt_stats(stats: &Stats) -> String {
    stats.to_string()
}

/// Formats a signed improvement in percentage points (`+3.80` / `-0.22`).
pub fn fmt_delta_pct(delta: f32) -> String {
    format!("{:+.2}", delta * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new(vec!["A".into(), "Bee".into()]);
        t.row(vec!["longer".into(), "x".into()]);
        t.row(vec!["s".into(), "yy".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        // The 'x' and 'yy' cells start at the same column.
        assert_eq!(lines[2].find('x'), lines[3].find('y'));
    }

    #[test]
    fn row_width_is_validated() {
        let mut t = TextTable::new(vec!["A".into()]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.row(vec!["a".into(), "b".into()])
        }));
        assert!(r.is_err());
    }

    #[test]
    fn delta_formatting_is_signed() {
        assert_eq!(fmt_delta_pct(0.038), "+3.80");
        assert_eq!(fmt_delta_pct(-0.0022), "-0.22");
    }

    #[test]
    fn markdown_rendering_escapes_and_skips_separators() {
        let mut t = TextTable::new(vec!["A".into(), "B".into()]);
        t.row(vec!["x|y".into(), "1".into()]);
        t.separator();
        t.row(vec!["z".into(), "2".into()]);
        let md = t.render_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4, "header + divider + 2 rows: {md}");
        assert_eq!(lines[0], "| A | B |");
        assert_eq!(lines[1], "|---|---|");
        assert!(lines[2].contains("x\\|y"));
    }

    #[test]
    fn separator_counts_no_rows() {
        let mut t = TextTable::new(vec!["A".into()]);
        t.separator();
        t.row(vec!["a".into()]);
        assert_eq!(t.len(), 1);
        assert!(t.render().lines().count() >= 4);
    }
}
