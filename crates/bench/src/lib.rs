//! Shared support code for the benchmark targets that regenerate every
//! table and figure of the paper's evaluation (§VII).
//!
//! Each bench target (`cargo bench -p cgnp-bench --bench <name>`) prints
//! the same rows/series the paper reports, at the scale selected by
//! `CGNP_SCALE` (smoke | quick | full | paper; default quick), and closes
//! with a "shape check" comparing the qualitative findings against the
//! paper's claims.

#![forbid(unsafe_code)]

use cgnp_eval::{ExperimentReport, MethodOutcome, ScaleSettings};

/// Prints the standard experiment banner.
pub fn banner(experiment: &str, paper_ref: &str, settings: &ScaleSettings) {
    println!("================================================================");
    println!("{experiment}  (reproduces {paper_ref})");
    println!(
        "scale {:?}: {} train / {} test tasks, {} epochs, hidden {}, subgraphs ≤{} nodes, {} targets/task",
        settings.scale,
        settings.n_train_tasks,
        settings.n_test_tasks,
        settings.epochs,
        settings.hidden,
        settings.subgraph_size,
        settings.n_targets
    );
    println!("================================================================");
}

/// A single shape-check line: claim from the paper, measured verdict.
pub fn shape_line(claim: &str, holds: bool, detail: &str) {
    let mark = if holds { "HOLDS " } else { "DIFFERS" };
    println!("  [{mark}] {claim} — {detail}");
}

/// True when one of the CGNP variants attains the best or second-best F1.
pub fn cgnp_in_top_two(outcomes: &[MethodOutcome]) -> bool {
    let mut ranked: Vec<&MethodOutcome> = outcomes.iter().collect();
    ranked.sort_by(|a, b| b.metrics.f1.total_cmp(&a.metrics.f1));
    ranked.iter().take(2).any(|o| o.method.starts_with("CGNP"))
}

/// Mean F1 of the CGNP variants minus the mean F1 of everything else
/// (the paper reports average advantages of 0.28 / 0.25).
pub fn cgnp_f1_advantage(outcomes: &[MethodOutcome]) -> f64 {
    let (mut cg, mut ncg) = (Vec::new(), Vec::new());
    for o in outcomes {
        if o.method.starts_with("CGNP") {
            cg.push(o.metrics.f1);
        } else {
            ncg.push(o.metrics.f1);
        }
    }
    mean(&cg) - mean(&ncg)
}

/// Mean recall of CGNP variants minus the others (the paper attributes
/// CGNP's F1 wins to recall).
pub fn cgnp_recall_advantage(outcomes: &[MethodOutcome]) -> f64 {
    let (mut cg, mut ncg) = (Vec::new(), Vec::new());
    for o in outcomes {
        if o.method.starts_with("CGNP") {
            cg.push(o.metrics.recall);
        } else {
            ncg.push(o.metrics.recall);
        }
    }
    mean(&cg) - mean(&ncg)
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Appends a JSON report to `<workspace>/target/cgnp-reports/<experiment>.json`
/// so EXPERIMENTS.md bookkeeping can reference raw numbers. (Cargo runs
/// bench targets with the package directory as CWD, so the path is
/// anchored at the workspace root explicitly.)
pub fn save_report(report: &ExperimentReport) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("target")
        .join("cgnp-reports");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!(
        "{}.json",
        report.experiment.replace([' ', '/'], "_")
    ));
    let _ = std::fs::write(path, report.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgnp_eval::Metrics;

    fn outcome(name: &str, f1: f64, recall: f64) -> MethodOutcome {
        MethodOutcome {
            method: name.into(),
            metrics: Metrics {
                f1,
                recall,
                ..Default::default()
            },
            train_seconds: 0.0,
            test_seconds: 0.0,
            n_test_tasks: 1,
            n_test_queries: 1,
        }
    }

    #[test]
    fn top_two_detection() {
        let o = vec![
            outcome("CTC", 0.9, 0.1),
            outcome("CGNP-IP", 0.8, 0.9),
            outcome("MAML", 0.1, 0.0),
        ];
        assert!(cgnp_in_top_two(&o));
        let o2 = vec![
            outcome("CTC", 0.9, 0.1),
            outcome("MAML", 0.85, 0.0),
            outcome("CGNP-IP", 0.8, 0.9),
        ];
        assert!(!cgnp_in_top_two(&o2));
    }

    #[test]
    fn advantage_math() {
        let o = vec![outcome("CGNP-IP", 0.8, 0.9), outcome("CTC", 0.4, 0.3)];
        assert!((cgnp_f1_advantage(&o) - 0.4).abs() < 1e-12);
        assert!((cgnp_recall_advantage(&o) - 0.6).abs() < 1e-12);
    }
}
