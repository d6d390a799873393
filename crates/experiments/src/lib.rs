//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section 5).
//!
//! Each `fig*`/`table*` function in [`figures`] sweeps the configurations
//! the paper swept and returns a [`Table`] of raw numbers; the `report`
//! binary renders them all as Markdown (and JSON) for EXPERIMENTS.md.
//!
//! ```no_run
//! use smt_experiments::{figures, runner::Runner};
//! use smt_workloads::Scale;
//!
//! let mut runner = Runner::new(Scale::Test);
//! let table = figures::fig03_fetch_policy_group1(&mut runner);
//! println!("{table}");
//! ```

pub mod explore;
pub mod figures;
pub mod json;
pub mod runner;
pub mod sweep;

use std::fmt;

/// The value following `flag` in a command line (`--out dir` → `dir`),
/// shared by the experiments and serve binaries.
#[must_use]
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// One cell of a result table.
#[derive(Clone, PartialEq, Debug)]
pub enum Cell {
    /// Cycle counts and other integers.
    Int(u64),
    /// Rates, percentages, speedups.
    Float(f64),
    /// Labels.
    Text(String),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Int(v) => write!(f, "{v}"),
            Cell::Float(v) => write!(f, "{v:.2}"),
            Cell::Text(s) => f.write_str(s),
        }
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::Int(v)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Float(v)
    }
}

impl From<&str> for Cell {
    fn from(v: &str) -> Self {
        Cell::Text(v.to_string())
    }
}

/// A labelled row.
#[derive(Clone, PartialEq, Debug)]
pub struct Row {
    /// Row label (benchmark or sweep point).
    pub label: String,
    /// One value per column.
    pub values: Vec<Cell>,
}

/// One regenerated table or figure.
#[derive(Clone, PartialEq, Debug)]
pub struct Table {
    /// Identifier matching the paper ("Figure 5", "Table 2", …).
    pub id: String,
    /// What the paper's caption says it shows.
    pub title: String,
    /// Column headers (the first column is the row label).
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Row>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<Cell>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match the {} columns",
            self.columns.len()
        );
        self.rows.push(Row {
            label: label.into(),
            values,
        });
    }

    /// Renders as a GitHub-flavoured Markdown table.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.id, self.title);
        let _ = writeln!(out, "| | {} |", self.columns.join(" | "));
        let _ = writeln!(out, "|---|{}", "---|".repeat(self.columns.len()));
        for row in &self.rows {
            let cells: Vec<String> = row.values.iter().map(Cell::to_string).collect();
            let _ = writeln!(out, "| {} | {} |", row.label, cells.join(" | "));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_markdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new("Figure 0", "demo", &["a", "b"]);
        t.push_row("row1", vec![Cell::Int(3), Cell::Float(1.5)]);
        let md = t.to_markdown();
        assert!(md.contains("| row1 | 3 | 1.50 |"), "{md}");
        assert!(md.contains("### Figure 0"), "{md}");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_is_enforced() {
        let mut t = Table::new("x", "y", &["a", "b"]);
        t.push_row("r", vec![Cell::Int(1)]);
    }
}
