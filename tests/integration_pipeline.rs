//! End-to-end pipeline integration: dataset surrogate → task sampling →
//! CGNP meta-training → gradient-free adaptation → metrics.

use cgnp_core::{meta_train, prepare_tasks, Cgnp, CgnpConfig, CommutativeOp, DecoderKind};
use cgnp_data::{
    load_dataset, model_input_dim, single_graph_tasks, DatasetId, Scale, TaskConfig, TaskKind,
};
use cgnp_eval::Metrics;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn pipeline_f1(epochs: usize, seed: u64) -> (f64, f64) {
    let ds = load_dataset(DatasetId::Citeseer, Scale::Smoke, seed);
    let tcfg = TaskConfig {
        subgraph_size: 60,
        shots: 3,
        n_targets: 5,
        ..Default::default()
    };
    let tasks = single_graph_tasks(ds.single(), TaskKind::Sgsc, &tcfg, (6, 0, 3), seed);
    assert_eq!(tasks.train.len(), 6);
    assert_eq!(tasks.test.len(), 3);

    let train = prepare_tasks(&tasks.train);
    let test = prepare_tasks(&tasks.test);
    let mut cfg = CgnpConfig::paper_default(model_input_dim(&tasks.train[0].graph), 16)
        .with_decoder(DecoderKind::InnerProduct)
        .with_commutative(CommutativeOp::Mean)
        .with_epochs(epochs);
    cfg.lr = 2e-3;
    let model = Cgnp::new(cfg, seed);
    if epochs > 0 {
        let stats = meta_train(&model, &train, seed);
        assert!(stats.final_loss().unwrap().is_finite());
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let mut per_query = Vec::new();
    for p in &test {
        for (ex, probs) in p.task.targets.iter().zip(model.predict_task(p, &mut rng)) {
            assert_eq!(probs.len(), p.task.n());
            per_query.push(Metrics::from_probs(&probs, &ex.truth, 0.5));
        }
    }
    let avg = Metrics::macro_average(&per_query);
    (avg.f1, avg.recall)
}

#[test]
fn training_improves_over_untrained_model() {
    let (untrained_f1, _) = pipeline_f1(0, 42);
    let (trained_f1, trained_recall) = pipeline_f1(40, 42);
    assert!(
        trained_f1 > untrained_f1,
        "meta-training must help: untrained {untrained_f1:.4} vs trained {trained_f1:.4}"
    );
    assert!(
        trained_recall > 0.3,
        "trained recall too low: {trained_recall:.4}"
    );
}

#[test]
fn pipeline_is_deterministic() {
    let a = pipeline_f1(5, 7);
    let b = pipeline_f1(5, 7);
    assert_eq!(a, b, "same seed must reproduce identical results");
}

#[test]
fn pipeline_varies_with_seed() {
    let a = pipeline_f1(5, 1);
    let b = pipeline_f1(5, 2);
    assert_ne!(a, b, "different seeds should differ");
}

#[test]
fn all_cgnp_variants_run_end_to_end() {
    let ds = load_dataset(DatasetId::Cora, Scale::Smoke, 3);
    let tcfg = TaskConfig {
        subgraph_size: 50,
        shots: 2,
        n_targets: 3,
        ..Default::default()
    };
    let tasks = single_graph_tasks(ds.single(), TaskKind::Sgsc, &tcfg, (3, 0, 1), 3);
    let train = prepare_tasks(&tasks.train);
    let test = prepare_tasks(&tasks.test);
    let in_dim = model_input_dim(&tasks.train[0].graph);
    for decoder in [
        DecoderKind::InnerProduct,
        DecoderKind::Mlp,
        DecoderKind::Gnn,
    ] {
        for op in [
            CommutativeOp::Sum,
            CommutativeOp::Mean,
            CommutativeOp::SelfAttention,
        ] {
            let cfg = CgnpConfig::paper_default(in_dim, 8)
                .with_decoder(decoder)
                .with_commutative(op)
                .with_epochs(2);
            let model = Cgnp::new(cfg, 5);
            let stats = meta_train(&model, &train, 5);
            assert!(
                stats.final_loss().unwrap().is_finite(),
                "{decoder:?}/{op:?} diverged"
            );
            let mut rng = StdRng::seed_from_u64(0);
            let preds = model.predict_task(&test[0], &mut rng);
            assert_eq!(preds.len(), test[0].task.targets.len());
            for probs in preds {
                assert!(probs
                    .iter()
                    .all(|p| p.is_finite() && (0.0..=1.0).contains(p)));
            }
        }
    }
}

#[test]
fn non_attributed_dataset_pipeline_runs() {
    // Arxiv-like: only structural features (input width 3).
    let ds = load_dataset(DatasetId::Arxiv, Scale::Smoke, 9);
    assert!(!ds.single().has_attributes());
    let tcfg = TaskConfig {
        subgraph_size: 60,
        shots: 2,
        n_targets: 4,
        ..Default::default()
    };
    let tasks = single_graph_tasks(ds.single(), TaskKind::Sgdc, &tcfg, (4, 0, 2), 9);
    let in_dim = model_input_dim(&tasks.train[0].graph);
    assert_eq!(in_dim, 3, "indicator + core + clustering only");
    let train = prepare_tasks(&tasks.train);
    let test = prepare_tasks(&tasks.test);
    let model = Cgnp::new(CgnpConfig::paper_default(in_dim, 8).with_epochs(3), 1);
    meta_train(&model, &train, 1);
    let mut rng = StdRng::seed_from_u64(0);
    let preds = model.predict_task(&test[0], &mut rng);
    assert!(!preds.is_empty());
}

/// `cgnp train` reports how long training took and the rate that makes —
/// the number `--threads` moves — and the checkpoint it writes does not
/// depend on `--threads`.
#[test]
fn cli_train_prints_a_rate_and_threads_leave_the_checkpoint_alone() {
    let dir = std::env::temp_dir().join(format!("cgnp-cli-train-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let train = |threads: &str| {
        let out = dir.join(format!("model-{threads}.json"));
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_cgnp"))
            .args(["train", "--dataset", "citeseer", "--scale", "smoke"])
            .args(["--shots", "3", "--threads", threads, "--out"])
            .arg(&out)
            .output()
            .expect("cgnp runs");
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let stdout = String::from_utf8(run.stdout).expect("utf-8");
        let line = stdout
            .lines()
            .find(|l| l.starts_with("trained "))
            .unwrap_or_else(|| panic!("no `trained` line in {stdout:?}"));
        let rate: f64 = line
            .split_once(" s (")
            .and_then(|(_, rest)| rest.split_once(" task-steps/s)"))
            .and_then(|(rate, _)| rate.parse().ok())
            .unwrap_or_else(|| panic!("no rate in {line:?}"));
        assert!(rate > 0.0 && rate.is_finite(), "{line:?}");
        std::fs::read(&out).expect("checkpoint written")
    };
    assert!(
        train("1") == train("3"),
        "checkpoint bytes depend on --threads"
    );
    std::fs::remove_dir_all(&dir).ok();
}
