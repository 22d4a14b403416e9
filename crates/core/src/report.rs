//! Plain-text table rendering and JSON export for evaluation results.
//!
//! The bench binaries print tables shaped like the paper's Table 1/2;
//! this module owns the formatting so tests can golden-check it.

use crate::evaluate::Evaluation;
use std::fmt::Write as _;

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, header: Vec<String>) -> Self {
        Self {
            title: title.into(),
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn push_row(&mut self, mut row: Vec<String>) {
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table as aligned text.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "{}", self.title);
        }
        let line = |w: &[usize]| -> String {
            let mut s = String::from("+");
            for width in w {
                s.push_str(&"-".repeat(width + 2));
                s.push('+');
            }
            s
        };
        let _ = writeln!(out, "{}", line(&widths));
        let mut head = String::from("|");
        for (h, w) in self.header.iter().zip(&widths) {
            let _ = write!(head, " {h:<w$} |");
        }
        let _ = writeln!(out, "{head}");
        let _ = writeln!(out, "{}", line(&widths));
        for row in &self.rows {
            let mut r = String::from("|");
            for (c, w) in row.iter().zip(&widths) {
                let _ = write!(r, " {c:<w$} |");
            }
            let _ = writeln!(out, "{r}");
        }
        let _ = writeln!(out, "{}", line(&widths));
        out
    }
}

/// Formats an error with its spread over repeats.
#[must_use]
pub fn fmt_error_pm(mean: f64, std_dev: f64) -> String {
    format!("{:.1}%±{:.1}", mean * 100.0, std_dev * 100.0)
}

/// Builds the per-workload evaluation table (one row per machine, one
/// column per method — the Table 1/2 layout).
#[must_use]
pub fn evaluation_table(workload: &str, evals: &[Evaluation], methods: &[&str]) -> Table {
    let mut header = vec!["machine".to_string()];
    header.extend(methods.iter().map(|s| (*s).to_string()));
    let mut t = Table::new(format!("workload: {workload}"), header);
    for e in evals.iter().filter(|e| e.workload == workload) {
        let mut row = vec![e.machine.clone()];
        for m in methods {
            let cell = e.methods.iter().find(|s| s.method == *m).map_or_else(
                || "n/a".to_string(),
                |s| fmt_error_pm(s.stats.mean, s.stats.std_dev),
            );
            row.push(cell);
        }
        t.push_row(row);
    }
    t
}

/// Serializes evaluations to pretty JSON (consumed by EXPERIMENTS.md
/// tooling and external analysis).
///
/// # Panics
///
/// Never panics in practice: the types serialize infallibly.
#[must_use]
pub fn to_json(evals: &[Evaluation]) -> String {
    serde_json::to_string_pretty(evals).expect("evaluation serialization cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::ErrorStats;
    use crate::metrics::Stats;

    fn eval(machine: &str, workload: &str, method: &str, mean: f64) -> Evaluation {
        Evaluation {
            machine: machine.into(),
            workload: workload.into(),
            methods: vec![ErrorStats {
                method: method.into(),
                stats: Stats::from_values(&[mean]),
                runs: vec![mean],
                mean_samples: 100.0,
                mean_skid: 1.0,
            }],
        }
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", vec!["a".into(), "bb".into()]);
        t.push_row(vec!["x".into(), "yyyy".into()]);
        t.push_row(vec!["long".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("| x    | yyyy |"));
        assert!(s.contains("| long |      |"));
    }

    #[test]
    fn error_formatting() {
        assert_eq!(fmt_error_pm(0.5, 0.01), "50.0%±1.0");
    }

    #[test]
    fn evaluation_table_fills_missing_with_na() {
        let evals = vec![eval("ivb", "k1", "classic", 0.4)];
        let t = evaluation_table("k1", &evals, &["classic", "lbr"]);
        let s = t.render();
        assert!(s.contains("40.0%"));
        assert!(s.contains("n/a"));
    }

    #[test]
    fn json_roundtrip() {
        let evals = vec![eval("wsm", "k", "lbr", 0.1)];
        let js = to_json(&evals);
        let back: Vec<Evaluation> = serde_json::from_str(&js).unwrap();
        assert_eq!(back[0].machine, "wsm");
        assert_eq!(back[0].methods[0].runs, vec![0.1]);
    }
}
