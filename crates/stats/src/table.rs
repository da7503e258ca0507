//! Minimal ASCII table renderer for the `repro` binary's figure/table
//! output. No external dependencies; pads columns to their widest cell.

/// Builds a left-aligned ASCII table row by row.
#[derive(Debug, Default, Clone)]
pub struct TableBuilder {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableBuilder {
    /// Creates a table with a title line printed above the header.
    pub fn new(title: impl Into<String>) -> Self {
        TableBuilder {
            title: title.into(),
            header: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Sets the header cells.
    pub fn header<I, S>(mut self, cells: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.header = cells.into_iter().map(Into::into).collect();
        self
    }

    /// Appends a data row. Rows shorter than the header are padded with
    /// empty cells; longer rows extend the table width.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Renders the table to a `String` (trailing newline included).
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        let measure = |widths: &mut Vec<usize>, row: &[String]| {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        };
        measure(&mut widths, &self.header);
        for row in &self.rows {
            measure(&mut widths, row);
        }

        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&self.title);
            out.push('\n');
        }
        let render_row = |row: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:<width$}"));
                if i + 1 != widths.len() {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_string()
        };
        if !self.header.is_empty() {
            let header_line = render_row(&self.header, &widths);
            let rule = "-".repeat(header_line.len());
            out.push_str(&header_line);
            out.push('\n');
            out.push_str(&rule);
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TableBuilder::new("demo").header(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["longer", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "demo");
        assert!(lines[1].starts_with("name"));
        assert!(lines[2].chars().all(|c| c == '-'));
        assert!(lines[3].starts_with("a"));
        assert!(lines[4].starts_with("longer"));
        // Columns aligned: "value" column starts at same offset in each row.
        let col = lines[1].find("value").unwrap();
        assert_eq!(&lines[3][col..col + 1], "1");
        assert_eq!(&lines[4][col..col + 2], "22");
    }

    #[test]
    fn handles_ragged_rows() {
        let mut t = TableBuilder::new("").header(["a", "b"]);
        t.row(["1"]);
        t.row(["1", "2", "3"]);
        let s = t.render();
        assert!(s.contains('3'));
    }
}
