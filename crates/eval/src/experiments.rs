//! High-level experiment drivers shared by `cgnp` and the examples: one
//! function per experiment family, each returning paper-style outcomes.

use cgnp_baselines::BaselineHyper;
use cgnp_core::CgnpConfig;
use cgnp_data::{
    load_dataset, mgdd_tasks, mgod_tasks, single_graph_tasks, DatasetId, Scale, TaskConfig,
    TaskKind, TaskSet,
};

use crate::harness::{evaluate_roster, HarnessConfig, MethodOutcome};
use crate::methods::{standard_methods, MethodSelection};

/// Scale-dependent experiment sizes. The paper's settings are the
/// `Scale::Paper` row; smaller scales shrink task counts, epochs, widths,
/// and subgraph sizes proportionally so the full pipeline stays
/// laptop-runnable (see the README, *Paper experiments*).
#[derive(Clone, Copy, Debug)]
pub struct ScaleSettings {
    pub scale: Scale,
    pub n_train_tasks: usize,
    pub n_valid_tasks: usize,
    pub n_test_tasks: usize,
    /// Meta-training / per-task training epochs.
    pub epochs: usize,
    /// Hidden width of all models (paper: 128).
    pub hidden: usize,
    /// BFS task-subgraph size (paper: 200).
    pub subgraph_size: usize,
    /// Query-set size per task (paper: 30).
    pub n_targets: usize,
    /// Fig. 5 override: pos/neg sample ratios relative to the query
    /// community size; `None` uses the absolute paper counts (5/10).
    pub sample_ratios: Option<(f32, f32)>,
}

impl ScaleSettings {
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Smoke => Self {
                scale,
                n_train_tasks: 4,
                n_valid_tasks: 1,
                n_test_tasks: 2,
                epochs: 5,
                hidden: 16,
                subgraph_size: 60,
                n_targets: 5,
                sample_ratios: None,
            },
            Scale::Quick => Self {
                scale,
                n_train_tasks: 10,
                n_valid_tasks: 2,
                n_test_tasks: 5,
                epochs: 15,
                hidden: 32,
                subgraph_size: 100,
                n_targets: 8,
                sample_ratios: None,
            },
            Scale::Full => Self {
                scale,
                n_train_tasks: 30,
                n_valid_tasks: 5,
                n_test_tasks: 15,
                epochs: 50,
                hidden: 64,
                subgraph_size: 150,
                n_targets: 20,
                sample_ratios: None,
            },
            Scale::Paper => Self {
                scale,
                n_train_tasks: 100,
                n_valid_tasks: 50,
                n_test_tasks: 50,
                epochs: 200,
                hidden: 128,
                subgraph_size: 200,
                n_targets: 30,
                sample_ratios: None,
            },
        }
    }

    pub fn hyper(&self) -> BaselineHyper {
        BaselineHyper::paper_default(self.hidden, self.epochs)
    }

    /// CGNP template (encoder input width is bound lazily per dataset).
    pub fn cgnp_template(&self) -> CgnpConfig {
        CgnpConfig::paper_default(1, self.hidden).with_epochs(self.epochs)
    }

    pub fn task_config(&self, shots: usize) -> TaskConfig {
        TaskConfig {
            subgraph_size: self.subgraph_size,
            shots,
            n_targets: self.n_targets,
            sample_ratios: self.sample_ratios,
            ..Default::default()
        }
    }

    pub fn counts(&self) -> (usize, usize, usize) {
        (self.n_train_tasks, self.n_valid_tasks, self.n_test_tasks)
    }
}

/// One experiment cell: dataset × task kind × shots → outcomes per method.
#[derive(Clone, Debug)]
pub struct ExperimentCell {
    pub label: String,
    pub outcomes: Vec<MethodOutcome>,
}

/// Builds the task set of a single-graph experiment (SGSC/SGDC).
pub fn build_single_graph_tasks(
    dataset: DatasetId,
    kind: TaskKind,
    shots: usize,
    settings: &ScaleSettings,
    seed: u64,
) -> TaskSet {
    let ds = load_dataset(dataset, settings.scale, seed);
    single_graph_tasks(
        ds.single(),
        kind,
        &settings.task_config(shots),
        settings.counts(),
        seed,
    )
}

/// Builds the MGOD (Facebook ego-networks) task set.
pub fn build_facebook_tasks(shots: usize, settings: &ScaleSettings, seed: u64) -> TaskSet {
    let ds = load_dataset(DatasetId::Facebook, settings.scale, seed);
    let mut cfg = settings.task_config(shots);
    // Ego-networks are used whole; keep the target count modest for the
    // smallest egos.
    cfg.n_targets = cfg.n_targets.min(8);
    mgod_tasks(&ds.graphs, &cfg, seed)
}

/// Builds the MGDD (Cite2Cora) task set: train on Citeseer tasks, test on
/// Cora tasks. The two domains have incompatible attribute vocabularies,
/// so both are reduced to the shared structural-feature pathway (core
/// number + clustering coefficient), keeping model input widths equal.
pub fn build_cite2cora_tasks(shots: usize, settings: &ScaleSettings, seed: u64) -> TaskSet {
    let citeseer = load_dataset(DatasetId::Citeseer, settings.scale, seed);
    let cora = load_dataset(DatasetId::Cora, settings.scale, seed);
    mgdd_tasks(
        &citeseer.single().without_attributes(),
        &cora.single().without_attributes(),
        &settings.task_config(shots),
        settings.counts(),
        seed,
    )
}

/// Runs one experiment cell over a method selection.
pub fn run_cell(
    label: impl Into<String>,
    tasks: &TaskSet,
    selection: MethodSelection,
    settings: &ScaleSettings,
    include_acq: bool,
    seed: u64,
) -> ExperimentCell {
    let mut methods = standard_methods(
        selection,
        &settings.hyper(),
        &settings.cgnp_template(),
        include_acq,
    );
    let cfg = HarnessConfig {
        seed,
        threshold: 0.5,
    };
    let outcomes = evaluate_roster(&mut methods, tasks, &cfg);
    ExperimentCell {
        label: label.into(),
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_settings_are_monotonic() {
        let smoke = ScaleSettings::for_scale(Scale::Smoke);
        let quick = ScaleSettings::for_scale(Scale::Quick);
        let paper = ScaleSettings::for_scale(Scale::Paper);
        assert!(smoke.n_train_tasks < quick.n_train_tasks);
        assert!(quick.epochs < paper.epochs);
        assert_eq!(paper.n_train_tasks, 100, "paper settings preserved");
        assert_eq!(paper.subgraph_size, 200);
        assert_eq!(paper.n_targets, 30);
        assert_eq!(paper.hidden, 128);
    }

    #[test]
    fn single_graph_tasks_built_at_smoke_scale() {
        let settings = ScaleSettings::for_scale(Scale::Smoke);
        let ts = build_single_graph_tasks(DatasetId::Citeseer, TaskKind::Sgsc, 1, &settings, 3);
        assert_eq!(ts.train.len(), settings.n_train_tasks);
        assert_eq!(ts.test.len(), settings.n_test_tasks);
        for t in &ts.train {
            assert_eq!(t.shots(), 1);
            assert!(t.n() <= settings.subgraph_size);
        }
    }

    #[test]
    fn facebook_tasks_built_at_smoke_scale() {
        let settings = ScaleSettings::for_scale(Scale::Smoke);
        let ts = build_facebook_tasks(1, &settings, 3);
        assert!(!ts.train.is_empty());
        assert!(!ts.test.is_empty());
    }

    #[test]
    fn smoke_cell_runs_algorithms() {
        let settings = ScaleSettings::for_scale(Scale::Smoke);
        let ts = build_single_graph_tasks(DatasetId::Dblp, TaskKind::Sgsc, 1, &settings, 4);
        let cell = run_cell(
            "dblp",
            &ts,
            MethodSelection::Algorithms,
            &settings,
            false,
            4,
        );
        assert_eq!(cell.outcomes.len(), 2); // ATC + CTC
        for o in &cell.outcomes {
            assert!((0.0..=1.0).contains(&o.metrics.f1));
        }
    }
}
