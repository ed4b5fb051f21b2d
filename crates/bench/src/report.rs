//! One report writer: typed rows rendered as the aligned table, the CSV
//! and the rows of a `BENCH_*.json`, all from the same cells.

use crate::json::Json;
use std::path::{Path, PathBuf};

/// Where a column appears.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shown {
    /// Table, CSV and JSON.
    Everywhere,
    /// The printed table only (a derived, human-facing column).
    Table,
    /// CSV and JSON only.
    Data,
    /// Table and CSV: a group label the JSON carries once per group.
    Label,
}

/// One column: its printed header and/or its CSV/JSON key.
#[derive(Debug, Clone, Copy)]
pub struct Col {
    header: &'static str,
    key: &'static str,
    shown: Shown,
}

impl Col {
    /// A column printed under `header` and recorded under `key`.
    pub fn new(header: &'static str, key: &'static str) -> Col {
        let shown = Shown::Everywhere;
        Col { header, key, shown }
    }

    /// A column that only the printed table shows.
    pub fn table(header: &'static str) -> Col {
        let (key, shown) = ("", Shown::Table);
        Col { header, key, shown }
    }

    /// A column that only the CSV and JSON artifacts record.
    pub fn data(key: &'static str) -> Col {
        let (header, shown) = ("", Shown::Data);
        Col { header, key, shown }
    }

    /// A group label (e.g. the dataset of a multi-dataset report): in the
    /// table and the CSV, but not repeated in each JSON row.
    pub fn label(header: &'static str, key: &'static str) -> Col {
        let shown = Shown::Label;
        Col { header, key, shown }
    }

    fn in_table(&self) -> bool {
        self.shown != Shown::Data
    }

    fn in_csv(&self) -> bool {
        self.shown != Shown::Table
    }

    fn in_json(&self) -> bool {
        matches!(self.shown, Shown::Everywhere | Shown::Data)
    }
}

/// One cell: the text the table prints and the value the artifacts record.
#[derive(Debug, Clone)]
pub struct Cell {
    text: String,
    value: Json,
}

impl Cell {
    /// A cell printed as `text` and recorded as `value`.
    pub fn new(text: impl Into<String>, value: impl Into<Json>) -> Cell {
        Cell {
            text: text.into(),
            value: value.into(),
        }
    }

    /// A float printed and recorded at the same fixed precision.
    pub fn fixed(x: f64, decimals: usize) -> Cell {
        Cell::from(Json::Fixed(x, decimals))
    }
}

/// A value printed the way it is recorded (counts, names, flags, or a
/// formatted string such as `"1.2 MB"`).
impl<T: Into<Json>> From<T> for Cell {
    fn from(value: T) -> Cell {
        let value = value.into();
        Cell {
            text: value.plain(),
            value,
        }
    }
}

/// A table of typed rows under fixed columns.
#[derive(Debug, Clone)]
pub struct Report {
    cols: Vec<Col>,
    rows: Vec<Vec<Cell>>,
}

impl Report {
    /// An empty report with the given columns.
    pub fn new(cols: impl Into<Vec<Col>>) -> Report {
        Report {
            cols: cols.into(),
            rows: Vec::new(),
        }
    }

    /// Appends a row: one cell per column, in column order.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.cols.len(), "one cell per column");
        self.rows.push(cells);
    }

    /// Rows recorded so far.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// The aligned text table (right-aligned cells, dashed header rule).
    pub fn table(&self) -> String {
        let shown: Vec<usize> = (0..self.cols.len())
            .filter(|&c| self.cols[c].in_table())
            .collect();
        let widths: Vec<usize> = shown
            .iter()
            .map(|&c| {
                let cells = self.rows.iter().map(|row| row[c].text.chars().count());
                cells.fold(self.cols[c].header.chars().count(), usize::max)
            })
            .collect();
        let mut out = String::new();
        let mut line = |cells: Vec<&str>| {
            let mut text = String::new();
            for (w, cell) in widths.iter().zip(cells) {
                text.push_str(&format!("{cell:>w$}  "));
            }
            out.push_str(text.trim_end());
            out.push('\n');
        };
        line(shown.iter().map(|&c| self.cols[c].header).collect());
        let rules: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(rules.iter().map(String::as_str).collect());
        for row in &self.rows {
            line(shown.iter().map(|&c| row[c].text.as_str()).collect());
        }
        out
    }

    /// Prints [`Report::table`].
    pub fn print(&self) {
        print!("{}", self.table());
    }

    /// The rows as CSV under the column keys.
    pub fn csv(&self) -> String {
        let cols: Vec<usize> = (0..self.cols.len())
            .filter(|&c| self.cols[c].in_csv())
            .collect();
        let mut out = String::new();
        let mut line = |fields: Vec<String>| {
            out.push_str(&fields.join(","));
            out.push('\n');
        };
        line(cols.iter().map(|&c| self.cols[c].key.to_string()).collect());
        for row in &self.rows {
            line(cols.iter().map(|&c| row[c].value.plain()).collect());
        }
        out
    }

    /// Writes [`Report::csv`] to `<dir>/<name>.csv` and reports the path.
    pub fn write_csv(&self, dir: &Path, name: &str) {
        write_artifact(dir.join(format!("{name}.csv")), &self.csv());
    }

    /// Rows `first..` as a JSON array of `{key: value}` objects — the
    /// rows of one group when several groups share the report.
    pub fn json_rows_from(&self, first: usize) -> Json {
        let row_json = |row: &Vec<Cell>| {
            let members = self.cols.iter().zip(row).filter(|(col, _)| col.in_json());
            Json::obj(members.map(|(col, cell)| (col.key, cell.value.clone())))
        };
        Json::Arr(self.rows[first..].iter().map(row_json).collect())
    }

    /// Every row as a JSON array of `{key: value}` objects.
    pub fn json_rows(&self) -> Json {
        self.json_rows_from(0)
    }
}

/// Writes `doc` to `<dir>/BENCH_<name>.json` and reports the path.
pub fn write_json(dir: &Path, name: &str, doc: &Json) {
    write_artifact(
        dir.join(format!("BENCH_{name}.json")),
        &(doc.render() + "\n"),
    );
}

fn write_artifact(path: PathBuf, contents: &str) {
    std::fs::write(&path, contents)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("\n[wrote {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new([
            Col::label("dataset", "dataset"),
            Col::new("level", "level"),
            Col::new("bytes/iter", "shuffle_bytes_per_iter"),
            Col::table("vs none"),
            Col::data("bit_identical"),
        ]);
        r.row(vec![
            "tiny".into(),
            "none".into(),
            Cell::new("1.500 MB", 1_500_000.0),
            Cell::fixed(1.0, 2),
            true.into(),
        ]);
        r.row(vec![
            "tiny".into(),
            "pre-partitioned".into(),
            Cell::new("0.750 MB", 750_000.0),
            Cell::fixed(0.5, 2),
            true.into(),
        ]);
        r
    }

    #[test]
    fn table_aligns_and_hides_data_columns() {
        let expect = [
            "dataset            level  bytes/iter  vs none",
            "-------  ---------------  ----------  -------",
            "   tiny             none    1.500 MB     1.00",
            "   tiny  pre-partitioned    0.750 MB     0.50",
            "",
        ]
        .join("\n");
        assert_eq!(sample().table(), expect);
    }

    #[test]
    fn csv_records_values_under_keys() {
        let expect = "dataset,level,shuffle_bytes_per_iter,bit_identical\n\
                      tiny,none,1500000,true\n\
                      tiny,pre-partitioned,750000,true\n";
        assert_eq!(sample().csv(), expect);
    }

    #[test]
    fn json_rows_are_typed_and_sliceable() {
        let r = sample();
        assert_eq!(r.rows(), 2);
        let expect = "[\n  {\"level\": \"none\", \"shuffle_bytes_per_iter\": 1500000, \
                      \"bit_identical\": true},\n  {\"level\": \"pre-partitioned\", \
                      \"shuffle_bytes_per_iter\": 750000, \"bit_identical\": true}\n]";
        assert_eq!(r.json_rows().render(), expect);
        assert_eq!(
            r.json_rows_from(1).render(),
            "[\n  {\"level\": \"pre-partitioned\", \"shuffle_bytes_per_iter\": 750000, \
             \"bit_identical\": true}\n]"
        );
    }

    #[test]
    #[should_panic(expected = "one cell per column")]
    fn short_rows_are_rejected() {
        sample().row(vec!["only".into()]);
    }
}
