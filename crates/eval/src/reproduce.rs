//! The paper's evaluation (§VII) as one command, `cgnp reproduce`:
//! Tables I–IV and Figs. 3–5, each printed as the paper lays it out at
//! the selected scale and closed by a "shape check" comparing the
//! qualitative findings against the paper's claims, plus one flat row
//! per (experiment, cell, method) for `--out`.

use serde::{Deserialize, Serialize};

use cgnp_data::{load_dataset, single_graph_tasks, DatasetId, Scale, TaskKind, TaskSet};

use crate::experiments::{
    build_cite2cora_tasks, build_facebook_tasks, build_single_graph_tasks, run_cell, ScaleSettings,
};
use crate::harness::{evaluate_roster, HarnessConfig, MethodOutcome};
use crate::methods::{ablation_methods, MethodSelection};
use crate::metrics::Metrics;
use crate::report::{fmt_metric, quality_table, timing_table, TextTable};

/// The experiments `cgnp reproduce --exp` accepts, in the paper's order.
pub const EXPERIMENTS: [&str; 7] = [
    "table1", "table2", "table3", "table4", "fig3", "fig4", "fig5",
];

/// The seed every experiment draws its surrogates, tasks and models from.
const SEED: u64 = 42;

/// The paper's six evaluation configurations, in Table IV's order.
const PAPER_CONFIGS: [&str; 6] = [
    "Citeseer",
    "Arxiv",
    "Reddit",
    "DBLP",
    "Facebook",
    "Cite2Cora",
];

/// Fig. 5's positive/negative sample ratios, relative to the query
/// community size.
const RATIOS: [(f32, f32); 5] = [
    (0.02, 0.1),
    (0.05, 0.25),
    (0.1, 0.5),
    (0.15, 0.75),
    (0.2, 1.0),
];

/// One method's outcome on one cell of one experiment: `MethodOutcome`'s
/// fields, plus the experiment, the cell, the scale and the seed.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResultRow {
    pub experiment: String,
    pub cell: String,
    pub scale: String,
    pub seed: u64,
    pub method: String,
    pub metrics: Metrics,
    pub train_seconds: f64,
    pub test_seconds: f64,
    pub n_test_tasks: usize,
    pub n_test_queries: usize,
}

/// Runs experiment `name` (one of [`EXPERIMENTS`]) at `settings`: prints
/// its tables and shape check, and returns its rows. `None` for an
/// unknown name.
pub fn run_experiment(name: &str, settings: &ScaleSettings) -> Option<Vec<ResultRow>> {
    let run: fn(&ScaleSettings, &mut Rows) = match name {
        "table1" => table1,
        "table2" => table2,
        "table3" => table3,
        "table4" => table4,
        "fig3" => fig3,
        "fig4" => fig4,
        "fig5" => fig5,
        _ => return None,
    };
    let mut rows = Rows {
        experiment: name,
        scale: settings.scale,
        rows: Vec::new(),
    };
    run(settings, &mut rows);
    Some(rows.rows)
}

/// The task set of one of the paper's six configurations at `shots`;
/// `None` when task sampling leaves no training or no test task.
///
/// # Panics
/// Panics on a name outside the six.
fn paper_config(name: &str, shots: usize, settings: &ScaleSettings, seed: u64) -> Option<TaskSet> {
    let single = |id, kind| build_single_graph_tasks(id, kind, shots, settings, seed);
    let ts = match name {
        "Citeseer" => single(DatasetId::Citeseer, TaskKind::Sgsc),
        "Arxiv" => single(DatasetId::Arxiv, TaskKind::Sgsc),
        "Reddit" => single(DatasetId::Reddit, TaskKind::Sgdc),
        "DBLP" => single(DatasetId::Dblp, TaskKind::Sgdc),
        "Facebook" => build_facebook_tasks(shots, settings, seed),
        "Cite2Cora" => build_cite2cora_tasks(shots, settings, seed),
        other => panic!("unknown paper configuration {other:?}"),
    };
    (!ts.train.is_empty() && !ts.test.is_empty()).then_some(ts)
}

/// The rows one experiment collects.
struct Rows<'a> {
    experiment: &'a str,
    scale: Scale,
    rows: Vec<ResultRow>,
}

impl Rows<'_> {
    fn push(&mut self, cell: &str, outcomes: &[MethodOutcome]) {
        for o in outcomes {
            self.rows.push(ResultRow {
                experiment: self.experiment.to_string(),
                cell: cell.to_string(),
                scale: format!("{:?}", self.scale).to_lowercase(),
                seed: SEED,
                method: o.method.clone(),
                metrics: o.metrics,
                train_seconds: o.train_seconds,
                test_seconds: o.test_seconds,
                n_test_tasks: o.n_test_tasks,
                n_test_queries: o.n_test_queries,
            });
        }
    }
}

/// Table I — profile of the six datasets: paper statistics vs the
/// generated surrogates.
fn table1(settings: &ScaleSettings, _rows: &mut Rows) {
    banner("Table I — dataset profiles", "Table I", settings);

    let mut table = TextTable::new(vec![
        "Dataset",
        "|V| paper",
        "|E| paper",
        "|A| paper",
        "|C| paper",
        "|V| surrogate",
        "|E| surrogate",
        "|A| surrogate",
        "|C| surrogate",
    ]);
    for id in DatasetId::ALL {
        let ds = load_dataset(id, settings.scale, SEED);
        let (n, m, a, c) = ds.graphs.iter().fold((0, 0, 0, 0), |(n, m, a, c), g| {
            (
                n + g.n(),
                m + g.m(),
                a.max(g.n_attrs()),
                c + g.n_communities(),
            )
        });
        table.push_row(vec![
            id.name().to_string(),
            ds.paper.nodes.to_string(),
            ds.paper.edges.to_string(),
            ds.paper.attrs.map_or("N/A".into(), |x| x.to_string()),
            ds.paper.communities.to_string(),
            n.to_string(),
            m.to_string(),
            if a == 0 { "N/A".into() } else { a.to_string() },
            c.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "surrogates preserve the community count, attribute regime and density\n\
         ordering of Table I at reduced node counts (see README, Paper experiments)."
    );
}

/// Table II — Acc/Pre/Rec/F1 on single-graph tasks: four datasets
/// (Citeseer, Arxiv, Reddit, DBLP) × {SGSC, SGDC} × {1-shot, 5-shot},
/// twelve methods (ATC, CTC, MAML, Reptile, FeatTrans, GPN, Supervised,
/// ICS-GNN, AQD-GNN, CGNP-IP/MLP/GNN; ACQ is Facebook-only in the paper).
fn table2(settings: &ScaleSettings, rows: &mut Rows) {
    banner("Table II — single-graph tasks", "Table II", settings);

    let datasets = [
        DatasetId::Citeseer,
        DatasetId::Arxiv,
        DatasetId::Reddit,
        DatasetId::Dblp,
    ];
    let mut cells = Vec::new();
    for dataset in datasets {
        for kind in [TaskKind::Sgsc, TaskKind::Sgdc] {
            for shot in [1usize, 5] {
                let label = format!("{} {kind} {shot}-shot", dataset.name());
                println!("\n--- {label} ---");
                let tasks = build_single_graph_tasks(dataset, kind, shot, settings, SEED);
                if tasks.train.is_empty() || tasks.test.is_empty() {
                    println!("(task sampling failed for this cell — skipped)");
                    continue;
                }
                let cell = run_cell(label, &tasks, MethodSelection::All, settings, false, SEED);
                println!("{}", quality_table(&cell.outcomes).render());
                rows.push(&cell.label, &cell.outcomes);
                cells.push(cell);
            }
        }
    }

    // Shape check against the paper's reported findings.
    println!("\nshape check vs paper:");
    let top_two = cells
        .iter()
        .filter(|c| cgnp_in_top_two(&c.outcomes))
        .count();
    shape_line(
        "CGNP variants hold the best/second-best F1 in most cells",
        top_two * 2 >= cells.len(),
        &format!("{top_two}/{} cells", cells.len()),
    );
    let adv: f64 = cells
        .iter()
        .map(|c| cgnp_f1_advantage(&c.outcomes))
        .sum::<f64>()
        / cells.len() as f64;
    shape_line(
        "CGNP leads baselines on F1 by a clear margin (paper: +0.28 avg)",
        adv > 0.05,
        &format!("measured average advantage {adv:+.3}"),
    );
    let rec: f64 = cells
        .iter()
        .map(|c| cgnp_recall_advantage(&c.outcomes))
        .sum::<f64>()
        / cells.len() as f64;
    shape_line(
        "CGNP's advantage is driven by recall",
        rec > adv,
        &format!("recall advantage {rec:+.3} vs F1 advantage {adv:+.3}"),
    );
    // The paper observes MAML/Reptile degenerating under imbalanced labels
    // ("predict almost all the nodes as the negative samples"). Detect the
    // general mechanism: collapse to a single class — all-negative
    // (recall ≈ 0) or all-positive (recall ≈ 1 with precision at the
    // class prior).
    let degenerate = cells
        .iter()
        .flat_map(|c| c.outcomes.iter())
        .filter(|o| o.method == "MAML" || o.method == "Reptile" || o.method == "FeatTrans")
        .filter(|o| {
            o.metrics.recall < 0.1 || (o.metrics.recall > 0.95 && o.metrics.precision < 0.55)
        })
        .count();
    let total_mr = cells.len() * 3;
    shape_line(
        "optimisation-based meta-learners collapse to a single class on imbalanced CS labels",
        degenerate * 2 >= total_mr,
        &format!("{degenerate}/{total_mr} MAML/Reptile/FeatTrans cells degenerate"),
    );
}

/// Table III — multi-graph tasks: MGOD (Facebook ego-networks, including
/// ACQ) and MGDD (Cite2Cora cross-domain transfer), 1-shot and 5-shot.
fn table3(settings: &ScaleSettings, rows: &mut Rows) {
    banner("Table III — multi-graph tasks", "Table III", settings);

    let mut cells = Vec::new();
    for shot in [1usize, 5] {
        // MGOD: Facebook ego-networks; the paper evaluates ACQ here only
        // (the other datasets are non-attributed or time out). MGDD:
        // Cite2Cora (train Citeseer tasks, test Cora tasks).
        for (config, kind, with_acq) in [("Facebook", "MGOD", true), ("Cite2Cora", "MGDD", false)] {
            let label = format!("{config} {kind} {shot}-shot");
            println!("\n--- {label} ---");
            let Some(tasks) = paper_config(config, shot, settings, SEED) else {
                continue;
            };
            let cell = run_cell(
                label,
                &tasks,
                MethodSelection::All,
                settings,
                with_acq,
                SEED,
            );
            println!("{}", quality_table(&cell.outcomes).render());
            rows.push(&cell.label, &cell.outcomes);
            cells.push((config, cell));
        }
    }

    println!("\nshape check vs paper:");
    let cc_cells: Vec<_> = cells.iter().filter(|(k, _)| *k == "Cite2Cora").collect();
    let cc_top = cc_cells
        .iter()
        .filter(|(_, c)| cgnp_in_top_two(&c.outcomes))
        .count();
    shape_line(
        "CGNP variants dominate the top-two F1 on Cite2Cora",
        cc_top == cc_cells.len() && !cc_cells.is_empty(),
        &format!("{cc_top}/{} Cite2Cora cells", cc_cells.len()),
    );
    let adv: f64 = cells
        .iter()
        .map(|(_, c)| cgnp_f1_advantage(&c.outcomes))
        .sum::<f64>()
        / cells.len().max(1) as f64;
    shape_line(
        "CGNP leads baselines on F1 across multi-graph tasks (paper: +0.25 avg)",
        adv > 0.0,
        &format!("measured average advantage {adv:+.3}"),
    );
    // On Facebook the paper reports ICS-GNN as the strongest competitor
    // (it exploits test-query ground truth).
    let fb_competitive = cells
        .iter()
        .filter(|(k, _)| *k == "Facebook")
        .all(|(_, c)| {
            let ics = c
                .outcomes
                .iter()
                .find(|o| o.method == "ICS-GNN")
                .map(|o| o.metrics.f1)
                .unwrap_or(0.0);
            let median = {
                let mut f1s: Vec<f64> = c.outcomes.iter().map(|o| o.metrics.f1).collect();
                f1s.sort_by(|a, b| a.total_cmp(b));
                f1s[f1s.len() / 2]
            };
            ics >= median
        });
    shape_line(
        "ICS-GNN is competitive on Facebook (uses test ground truth)",
        fb_competitive,
        "ICS-GNN at or above the median F1 on Facebook cells",
    );
}

/// Table IV — ablation of the CGNP encoder layer (GCN / GAT / SAGE with ⊕
/// fixed to average) and of the commutative operation (attention / sum /
/// average with the encoder fixed to GAT), on the paper's six 5-shot
/// configurations.
fn table4(settings: &ScaleSettings, rows: &mut Rows) {
    banner("Table IV — encoder / ⊕ ablation", "Table IV", settings);

    let mut all_rows: Vec<(String, String, MethodOutcome)> = Vec::new();
    for cfg_name in PAPER_CONFIGS {
        let Some(tasks) = paper_config(cfg_name, 5, settings, SEED) else {
            println!("\n--- {cfg_name}: task sampling failed, skipped ---");
            continue;
        };
        println!("\n--- {cfg_name} (5-shot) ---");
        let template = settings.cgnp_template();
        let mut table = TextTable::new(vec!["Variant", "Acc", "Pre", "Rec", "F1"]);
        for (variant, method) in ablation_methods(&template) {
            let mut roster = vec![method];
            let outcome = evaluate_roster(
                &mut roster,
                &tasks,
                &HarnessConfig {
                    seed: SEED,
                    threshold: 0.5,
                },
            )
            .remove(0);
            table.push_row(vec![
                variant.clone(),
                fmt_metric(outcome.metrics.accuracy),
                fmt_metric(outcome.metrics.precision),
                fmt_metric(outcome.metrics.recall),
                fmt_metric(outcome.metrics.f1),
            ]);
            // Every variant is a CGNP-IP: the cell names the variant.
            rows.push(
                &format!("{cfg_name} {variant}"),
                std::slice::from_ref(&outcome),
            );
            all_rows.push((cfg_name.to_string(), variant, outcome));
        }
        println!("{}", table.render());
    }

    println!("\nshape check vs paper:");
    // GAT ≥ GCN in most configurations.
    let mut gat_wins = 0usize;
    let mut comparisons = 0usize;
    for cfg_name in PAPER_CONFIGS {
        let f1 = |variant: &str| {
            all_rows
                .iter()
                .find(|(c, v, _)| c == cfg_name && v == variant)
                .map(|(_, _, o)| o.metrics.f1)
        };
        if let (Some(gat), Some(gcn)) = (f1("layer:GAT"), f1("layer:GCN")) {
            comparisons += 1;
            if gat >= gcn - 0.02 {
                gat_wins += 1;
            }
        }
    }
    shape_line(
        "GAT encoder ≥ GCN encoder",
        gat_wins * 2 >= comparisons && comparisons > 0,
        &format!("{gat_wins}/{comparisons} configs"),
    );
    // Commutative-op differences are small relative to encoder
    // differences ("the effect of the type of commutative operation is
    // not as remarkable as that of the GNN encoder").
    let spread = |prefix: &str, cfg_name: &str| -> Option<f64> {
        let f1s: Vec<f64> = all_rows
            .iter()
            .filter(|(c, v, _)| c == cfg_name && v.starts_with(prefix))
            .map(|(_, _, o)| o.metrics.f1)
            .collect();
        if f1s.len() < 2 {
            return None;
        }
        let max = f1s.iter().cloned().fold(f64::MIN, f64::max);
        let min = f1s.iter().cloned().fold(f64::MAX, f64::min);
        Some(max - min)
    };
    let mut comm_smaller = 0usize;
    let mut spread_comparisons = 0usize;
    for cfg_name in PAPER_CONFIGS {
        if let (Some(enc), Some(comm)) = (spread("layer:", cfg_name), spread("comm:", cfg_name)) {
            spread_comparisons += 1;
            if comm <= enc + 0.02 {
                comm_smaller += 1;
            }
        }
    }
    shape_line(
        "⊕ choice matters less than encoder choice",
        comm_smaller * 2 >= spread_comparisons && spread_comparisons > 0,
        &format!("{comm_smaller}/{spread_comparisons} configs with smaller ⊕ spread"),
    );
}

/// Fig. 3 — efficiency: (a) total test time and (b) total meta-training
/// time per method on the paper's six configurations.
///
/// Timing shape (who is faster than whom, by how many orders of
/// magnitude) is the target here, not model quality, so this runs with a
/// reduced epoch budget at small scales — the per-task/per-query training
/// structure that determines the ordering is unchanged.
fn fig3(settings: &ScaleSettings, rows: &mut Rows) {
    let mut settings = *settings;
    // Timing shape needs the training *structure*, not convergence.
    settings.epochs = settings.epochs.min(10);
    banner("Fig. 3 — training & test time", "Fig. 3(a)/(b)", &settings);

    let mut all: Vec<(String, Vec<MethodOutcome>)> = Vec::new();
    for name in [
        "Citeseer",
        "Reddit",
        "DBLP",
        "Facebook",
        "Cite2Cora",
        "Arxiv",
    ] {
        let Some(tasks) = paper_config(name, 1, &settings, SEED) else {
            println!("--- {name}: task sampling failed, skipped ---");
            continue;
        };
        println!("\n--- {name} (1-shot) ---");
        let with_acq = name == "Facebook";
        let cell = run_cell(
            name,
            &tasks,
            MethodSelection::All,
            &settings,
            with_acq,
            SEED,
        );
        println!("{}", timing_table(&cell.outcomes).render());
        rows.push(&cell.label, &cell.outcomes);
        all.push((cell.label, cell.outcomes));
    }

    println!("\nshape check vs paper:");
    let mut cgnp_fastest_learned = 0usize;
    let mut total = 0usize;
    let mut cgnp_train_faster_than_maml = 0usize;
    let mut maml_cells = 0usize;
    for (_, outcomes) in &all {
        let learned: Vec<&MethodOutcome> = outcomes
            .iter()
            .filter(|o| !matches!(o.method.as_str(), "ATC" | "ACQ" | "CTC"))
            .collect();
        if learned.is_empty() {
            continue;
        }
        total += 1;
        let cgnp_best_test = learned
            .iter()
            .filter(|o| o.method.starts_with("CGNP"))
            .map(|o| o.test_seconds)
            .fold(f64::MAX, f64::min);
        let fastest_two: bool = {
            let mut times: Vec<f64> = learned.iter().map(|o| o.test_seconds).collect();
            times.sort_by(|a, b| a.total_cmp(b));
            cgnp_best_test <= times[1.min(times.len() - 1)]
        };
        if fastest_two {
            cgnp_fastest_learned += 1;
        }
        let maml_train = outcomes
            .iter()
            .find(|o| o.method == "MAML")
            .map(|o| o.train_seconds);
        let cgnp_train = outcomes
            .iter()
            .find(|o| o.method == "CGNP-IP")
            .map(|o| o.train_seconds);
        if let (Some(m), Some(c)) = (maml_train, cgnp_train) {
            maml_cells += 1;
            if c < m {
                cgnp_train_faster_than_maml += 1;
            }
        }
    }
    shape_line(
        "CGNP is among the fastest learned methods at test time (gradient-free adaptation)",
        cgnp_fastest_learned * 2 >= total && total > 0,
        &format!("{cgnp_fastest_learned}/{total} configs"),
    );
    shape_line(
        "CGNP meta-training is faster than MAML's two-level optimisation",
        cgnp_train_faster_than_maml == maml_cells && maml_cells > 0,
        &format!("{cgnp_train_faster_than_maml}/{maml_cells} configs"),
    );
}

/// Fig. 4 — scalability: test/train time of the learned methods as the
/// task-graph size grows (paper: 200 → 10,000 DBLP nodes).
fn fig4(settings: &ScaleSettings, rows: &mut Rows) {
    let mut settings = *settings;
    // Timing structure, not convergence (as in Fig. 3).
    settings.epochs = settings.epochs.min(5);
    settings.n_train_tasks = settings.n_train_tasks.min(4);
    settings.n_test_tasks = settings.n_test_tasks.min(2);
    banner("Fig. 4 — scalability on DBLP", "Fig. 4(a)/(b)", &settings);

    // The paper sweeps 200 → 10,000-node task graphs; smaller scales sweep
    // a proportional range capped by the surrogate size.
    let sizes: Vec<usize> = match settings.scale {
        Scale::Smoke => vec![100, 200, 400],
        Scale::Quick => vec![200, 500, 1000, 2000],
        Scale::Full => vec![200, 1000, 2500, 5000],
        Scale::Paper => vec![200, 1000, 5000, 10000],
    };

    let ds = load_dataset(DatasetId::Dblp, settings.scale, SEED);
    let graph = ds.single();
    println!("DBLP surrogate: {} nodes, {} edges\n", graph.n(), graph.m());

    let mut series: Vec<(usize, Vec<MethodOutcome>)> = Vec::new();
    for &size in &sizes {
        if size > graph.n() {
            println!("--- |V(G)| = {size}: exceeds surrogate size, skipped ---");
            continue;
        }
        let mut cfg = settings.task_config(1);
        cfg.subgraph_size = size;
        let tasks = single_graph_tasks(
            graph,
            TaskKind::Sgdc,
            &cfg,
            (settings.n_train_tasks, 0, settings.n_test_tasks),
            SEED,
        );
        if tasks.train.is_empty() || tasks.test.is_empty() {
            println!("--- |V(G)| = {size}: task sampling failed, skipped ---");
            continue;
        }
        println!("--- |V(G)| = {size} ---");
        let cell = run_cell(
            format!("dblp-{size}"),
            &tasks,
            MethodSelection::Learned,
            &settings,
            false,
            SEED,
        );
        println!("{}", timing_table(&cell.outcomes).render());
        rows.push(&cell.label, &cell.outcomes);
        series.push((size, cell.outcomes));
    }

    println!("\nshape check vs paper:");
    if series.len() >= 2 {
        let test_time = |outcomes: &[MethodOutcome], name: &str| {
            outcomes
                .iter()
                .find(|o| o.method == name)
                .map(|o| o.test_seconds)
                .unwrap_or(f64::NAN)
        };
        let (_, first) = &series[0];
        let (_, last) = &series[series.len() - 1];
        // CGNP test time is the smallest at the largest size.
        let cgnp = test_time(last, "CGNP-IP");
        let min_other = last
            .iter()
            .filter(|o| !o.method.starts_with("CGNP") && o.method != "FeatTrans")
            .map(|o| o.test_seconds)
            .fold(f64::MAX, f64::min);
        shape_line(
            "CGNP test time lowest at all sizes (FeatTrans closest)",
            cgnp <= min_other,
            &format!(
                "CGNP-IP {cgnp:.3}s vs best non-CGNP (excl. FeatTrans) {min_other:.3}s at max size"
            ),
        );
        // The paper's Fig. 4 shows CGNP's curve flattest in absolute
        // terms: compare absolute test-time increases over the size sweep
        // (relative growth is misleading from a millisecond-scale base).
        let slope = |name: &str| test_time(last, name) - test_time(first, name);
        shape_line(
            "per-query trainers (ICS-GNN) scale worse than CGNP at test time",
            slope("ICS-GNN") > slope("CGNP-IP"),
            &format!(
                "absolute test-time increase ICS-GNN {:+.3}s vs CGNP-IP {:+.3}s",
                slope("ICS-GNN"),
                slope("CGNP-IP")
            ),
        );
    } else {
        println!("  (need ≥2 sizes for shape checks)");
    }
}

/// Fig. 5 — effect of the ground-truth volume: F1 of the learned methods
/// as the positive/negative sample ratio grows from 2%/10% to 20%/100%
/// (of the query community size), 1-shot, on the paper's six
/// configurations (panels a–f).
fn fig5(settings: &ScaleSettings, rows: &mut Rows) {
    banner(
        "Fig. 5 — F1 vs ground-truth ratio",
        "Fig. 5(a)–(f)",
        settings,
    );
    // Panels at smoke/quick scale: a representative subset runs quickly;
    // full/paper covers all six panels (a)–(f).
    let panels: &[&str] = match settings.scale {
        Scale::Smoke => &["Citeseer", "Reddit"],
        Scale::Quick => &["Citeseer", "Reddit", "Cite2Cora"],
        _ => &PAPER_CONFIGS,
    };

    let mut panel_series: Vec<RatioSeries> = Vec::new();
    for &panel in panels {
        println!("\n=== panel: {panel} (1-shot) ===");
        let mut series = Vec::new();
        for (ri, &(rp, rn)) in RATIOS.iter().enumerate() {
            let mut s = *settings;
            s.sample_ratios = Some((rp, rn));
            let Some(tasks) = paper_config(panel, 1, &s, SEED) else {
                println!("  ratio {rp}/{rn}: sampling failed, skipped");
                continue;
            };
            let cell = run_cell(
                format!("{panel} {rp}/{rn}"),
                &tasks,
                MethodSelection::Learned,
                &s,
                false,
                SEED,
            );
            rows.push(&cell.label, &cell.outcomes);
            series.push((ri, cell.outcomes));
        }
        println!("{}", ratio_table(&series).render());
        panel_series.push(series);
    }

    println!("\nshape check vs paper:");
    let f1_of = |outcomes: &[MethodOutcome], name: &str| {
        outcomes
            .iter()
            .find(|o| o.method == name)
            .map(|o| o.metrics.f1)
    };
    // CGNP is robust to the ratio; Supervised improves steeply with more
    // ground truth.
    let mut supervised_gains = 0usize;
    let mut cgnp_stable = 0usize;
    let mut panels_counted = 0usize;
    for series in &panel_series {
        if series.len() < 2 {
            continue;
        }
        panels_counted += 1;
        let first = &series[0].1;
        let last = &series[series.len() - 1].1;
        if let (Some(a), Some(b)) = (f1_of(first, "Supervised"), f1_of(last, "Supervised")) {
            if b > a {
                supervised_gains += 1;
            }
        }
        if let (Some(a), Some(b)) = (f1_of(first, "CGNP-IP"), f1_of(last, "CGNP-IP")) {
            if (b - a).abs() < 0.25 {
                cgnp_stable += 1;
            }
        }
    }
    shape_line(
        "Supervised improves with more ground truth",
        supervised_gains * 2 >= panels_counted && panels_counted > 0,
        &format!("{supervised_gains}/{panels_counted} panels"),
    );
    shape_line(
        "CGNP is robust to the ground-truth volume (metric-based learning)",
        cgnp_stable == panels_counted && panels_counted > 0,
        &format!("{cgnp_stable}/{panels_counted} panels with |ΔF1| < 0.25"),
    );
}

/// One Fig. 5 panel: the outcomes of every ratio that sampled, keyed by
/// its index in [`RATIOS`].
type RatioSeries = Vec<(usize, Vec<MethodOutcome>)>;

/// One row per method, one column per ratio (the figure's series); a
/// ratio that did not sample reads `-` in its own column.
fn ratio_table(series: &RatioSeries) -> TextTable {
    let mut headers = vec!["Method".to_string()];
    headers.extend(
        RATIOS
            .iter()
            .map(|(p, n)| format!("{:.0}%/{:.0}%", p * 100.0, n * 100.0)),
    );
    let mut table = TextTable::new(headers);
    let Some((_, first)) = series.first() else {
        return table;
    };
    for method in first.iter().map(|o| &o.method) {
        let mut row = vec![method.clone()];
        row.extend((0..RATIOS.len()).map(|ri| {
            series
                .iter()
                .find(|(i, _)| *i == ri)
                .and_then(|(_, outcomes)| outcomes.iter().find(|o| &o.method == method))
                .map_or("-".into(), |o| format!("{:.4}", o.metrics.f1))
        }));
        table.push_row(row);
    }
    table
}

/// Prints the standard experiment banner.
fn banner(experiment: &str, paper_ref: &str, settings: &ScaleSettings) {
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
fn shape_line(claim: &str, holds: bool, detail: &str) {
    let mark = if holds { "HOLDS " } else { "DIFFERS" };
    println!("  [{mark}] {claim} — {detail}");
}

/// True when one of the CGNP variants attains the best or second-best F1.
fn cgnp_in_top_two(outcomes: &[MethodOutcome]) -> bool {
    let mut ranked: Vec<&MethodOutcome> = outcomes.iter().collect();
    ranked.sort_by(|a, b| b.metrics.f1.total_cmp(&a.metrics.f1));
    ranked.iter().take(2).any(|o| o.method.starts_with("CGNP"))
}

/// Mean F1 of the CGNP variants minus the mean F1 of everything else
/// (the paper reports average advantages of 0.28 / 0.25).
fn cgnp_f1_advantage(outcomes: &[MethodOutcome]) -> f64 {
    cgnp_advantage(outcomes, |m| m.f1)
}

/// Mean recall of CGNP variants minus the others (the paper attributes
/// CGNP's F1 wins to recall).
fn cgnp_recall_advantage(outcomes: &[MethodOutcome]) -> f64 {
    cgnp_advantage(outcomes, |m| m.recall)
}

fn cgnp_advantage(outcomes: &[MethodOutcome], metric: fn(&Metrics) -> f64) -> f64 {
    let (cg, ncg): (Vec<_>, Vec<_>) = outcomes.iter().partition(|o| o.method.starts_with("CGNP"));
    let mean = |xs: &[&MethodOutcome]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().map(|o| metric(&o.metrics)).sum::<f64>() / xs.len() as f64
        }
    };
    mean(&cg) - mean(&ncg)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn rows_round_trip_through_json() {
        let mut rows = Rows {
            experiment: "table2",
            scale: Scale::Smoke,
            rows: Vec::new(),
        };
        let mut o = outcome("CGNP-IP", 0.5, 0.25);
        o.train_seconds = 1.5;
        rows.push("Citeseer SGSC 1-shot", &[o, outcome("CTC", 0.125, 1.0)]);
        let json = serde_json::to_string_pretty(&rows.rows).unwrap();
        let back: Vec<ResultRow> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rows.rows);
        let first = &back[0];
        assert_eq!(
            (first.experiment.as_str(), first.cell.as_str()),
            ("table2", "Citeseer SGSC 1-shot")
        );
        assert_eq!((first.scale.as_str(), first.seed), ("smoke", SEED));
        assert_eq!((first.method.as_str(), first.metrics.f1), ("CGNP-IP", 0.5));
        assert_eq!(first.train_seconds, 1.5);
        assert!(json.contains("\"train_seconds\": 1.5"));
    }

    #[test]
    fn a_skipped_ratio_reads_dash_in_its_own_column() {
        let point =
            |f1s: [f64; 2]| vec![outcome("CGNP-IP", f1s[0], 0.0), outcome("GPN", f1s[1], 0.0)];
        // The second ratio did not sample.
        let series: RatioSeries = vec![
            (0, point([0.1, 0.6])),
            (2, point([0.3, 0.8])),
            (3, point([0.4, 0.9])),
            (4, point([0.5, 1.0])),
        ];
        let rendered = ratio_table(&series).render();
        let cells = |line: &str| -> Vec<String> {
            line.split('|')
                .map(|c| c.trim().to_string())
                .filter(|c| !c.is_empty())
                .collect()
        };
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(
            cells(lines[0]),
            ["Method", "2%/10%", "5%/25%", "10%/50%", "15%/75%", "20%/100%"]
        );
        assert_eq!(
            cells(lines[2]),
            ["CGNP-IP", "0.1000", "-", "0.3000", "0.4000", "0.5000"]
        );
        assert_eq!(
            cells(lines[3]),
            ["GPN", "0.6000", "-", "0.8000", "0.9000", "1.0000"]
        );
    }
}
