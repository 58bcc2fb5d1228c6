//! Paper-style table rendering of experiment outcomes.

use std::fmt::Write as _;

use crate::harness::MethodOutcome;

/// A plain text table with fixed-width columns.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn push_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders with column alignment and a header separator.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, cell) in cells.iter().enumerate() {
                let _ = write!(line, " {:<width$} |", cell, width = widths[c]);
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{:-<width$}|", "", width = w + 2);
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        let _ = cols;
        out
    }
}

/// Formats a metric with 4 decimals, paper style.
pub fn fmt_metric(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats seconds with 3 decimals.
pub fn fmt_secs(x: f64) -> String {
    format!("{x:.3}")
}

/// Builds the Acc/Pre/Rec/F1 table for a list of outcomes; the best and
/// second-best F1 are marked `*` and `+` (the paper highlights them in
/// colour).
pub fn quality_table(outcomes: &[MethodOutcome]) -> TextTable {
    let mut table = TextTable::new(vec!["Method", "Acc", "Pre", "Rec", "F1", ""]);
    let mut f1s: Vec<(usize, f64)> = outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| (i, o.metrics.f1))
        .collect();
    f1s.sort_by(|a, b| b.1.total_cmp(&a.1));
    let best = f1s.first().map(|&(i, _)| i);
    let second = f1s.get(1).map(|&(i, _)| i);
    for (i, o) in outcomes.iter().enumerate() {
        let mark = if Some(i) == best {
            "*"
        } else if Some(i) == second {
            "+"
        } else {
            ""
        };
        table.push_row(vec![
            o.method.clone(),
            fmt_metric(o.metrics.accuracy),
            fmt_metric(o.metrics.precision),
            fmt_metric(o.metrics.recall),
            fmt_metric(o.metrics.f1),
            mark.to_string(),
        ]);
    }
    table
}

/// Builds the timing table of Figs. 3 and 4 (test and training seconds);
/// a method without a meta-training stage reads `-`, as the figures omit
/// it.
pub fn timing_table(outcomes: &[MethodOutcome]) -> TextTable {
    let mut table = TextTable::new(vec!["Method", "Test (s)", "Train (s)"]);
    for o in outcomes {
        table.push_row(vec![
            o.method.clone(),
            fmt_secs(o.test_seconds),
            if o.train_seconds < 1e-4 {
                "-".to_string()
            } else {
                fmt_secs(o.train_seconds)
            },
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    fn outcome(name: &str, f1: f64, test_s: f64) -> MethodOutcome {
        MethodOutcome {
            method: name.to_string(),
            metrics: Metrics {
                f1,
                accuracy: f1,
                precision: f1,
                recall: f1,
                ..Default::default()
            },
            train_seconds: 1.0,
            test_seconds: test_s,
            n_test_tasks: 2,
            n_test_queries: 10,
        }
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["A", "Bbb"]);
        t.push_row(vec!["x", "1"]);
        t.push_row(vec!["longer", "2"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(
            lines.iter().all(|l| l.len() == lines[0].len()),
            "aligned widths"
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = TextTable::new(vec!["A", "B"]);
        t.push_row(vec!["only-one"]);
    }

    #[test]
    fn quality_table_marks_best_two() {
        let outcomes = vec![
            outcome("low", 0.2, 1.0),
            outcome("best", 0.9, 1.0),
            outcome("second", 0.5, 1.0),
        ];
        let s = quality_table(&outcomes).render();
        let best_line = s.lines().find(|l| l.contains("best")).unwrap();
        assert!(best_line.contains('*'));
        let second_line = s.lines().find(|l| l.contains("second")).unwrap();
        assert!(second_line.contains('+'));
    }

    #[test]
    fn timing_table_has_all_methods() {
        let mut untrained = outcome("b", 0.2, 4.0);
        untrained.train_seconds = 0.0;
        let t = timing_table(&[outcome("a", 0.1, 3.0), untrained]);
        assert_eq!(t.n_rows(), 2);
        let s = t.render();
        assert!(s.contains("| a      | 3.000    | 1.000     |"), "{s}");
        assert!(s.contains("| b      | 4.000    | -         |"), "{s}");
    }
}
