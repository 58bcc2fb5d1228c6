//! Cross-precision serving guarantees: from one checkpoint, every
//! (precision, math) engine variant must agree on the communities it
//! returns — identical top-k member sets — while the default exact-`f32`
//! engine stays bitwise-identical to the training-side forward, and the
//! typed engines track every live-update path (graph mutations, support
//! rotation, core-column injection) without serving stale state.

use std::collections::HashSet;

use cgnp_core::{meta_train, prepare_tasks, Cgnp, CgnpConfig};
use cgnp_data::{generate_sbm, model_input_dim, sample_task, SbmConfig, Task, TaskConfig};
use cgnp_serve::{QueryRequest, ServeConfig, ServeSession, UpdateOp, UpdateRequest};
use cgnp_tensor::{Dtype, MathMode};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A smoke-scale trained model plus the task it can serve.
fn trained_model_and_task(seed: u64) -> (Cgnp, Task) {
    let ag = generate_sbm(&SbmConfig::small_test(), &mut StdRng::seed_from_u64(seed));
    let tcfg = TaskConfig {
        subgraph_size: 60,
        shots: 3,
        n_targets: 4,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let tasks: Vec<Task> = (0..2)
        .map(|_| sample_task(&ag, &tcfg, None, &mut rng).expect("task"))
        .collect();
    let cfg = CgnpConfig::paper_default(model_input_dim(&tasks[0].graph), 8).with_epochs(2);
    let model = Cgnp::new(cfg, seed);
    meta_train(&model, &prepare_tasks(&tasks), seed);
    (model, tasks[0].clone())
}

fn cfg_with(precision: Dtype, math: MathMode) -> ServeConfig {
    ServeConfig {
        batch: 4,
        threads: 1,
        seed: 9,
        precision,
        math,
        ..Default::default()
    }
}

/// All four engine variants from one checkpoint. Sessions restore the
/// checkpoint independently, so each conversion starts from the same
/// saved bits.
fn variant_sessions(path: &std::path::Path, task: &Task) -> Vec<(String, ServeSession)> {
    let mut out = Vec::new();
    for precision in [Dtype::F32, Dtype::F64] {
        for math in [MathMode::Exact, MathMode::Fast] {
            let template = CgnpConfig::paper_default(1, 8);
            let session = ServeSession::from_checkpoint(
                path,
                template,
                task.clone(),
                cfg_with(precision, math),
            )
            .expect("checkpoint restores under every precision");
            out.push((format!("{precision}/{math}"), session));
        }
    }
    out
}

#[test]
fn every_precision_variant_returns_the_same_top_k() {
    let (model, task) = trained_model_and_task(31);
    let dir = std::env::temp_dir().join("cgnp-serve-precision-topk");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("smoke.json");
    cgnp_eval::save_to_file(&model, &path).unwrap();

    let sessions = variant_sessions(&path, &task);
    for ex in &task.targets {
        let req = QueryRequest::new(1, vec![ex.query]).with_top_k(5);
        let baseline: HashSet<usize> = sessions[0].1.answer(&req).members.into_iter().collect();
        assert_eq!(baseline.len(), 5);
        for (name, session) in &sessions[1..] {
            let got: HashSet<usize> = session.answer(&req).members.into_iter().collect();
            assert_eq!(
                baseline, got,
                "{name}: top-k community for query {} diverged",
                ex.query
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exact_f32_serving_is_bitwise_identical_to_the_model() {
    // The --exact contract: whatever tier the binary was built with, the
    // (f32, exact) engine reproduces the training-side forward bit for
    // bit.
    let (model, task) = trained_model_and_task(32);
    // `trained_model_and_task` is deterministic per seed: a second build
    // carries identical weights.
    let (twin, _) = trained_model_and_task(32);
    let session =
        ServeSession::new(twin, task.clone(), cfg_with(Dtype::F32, MathMode::Exact)).unwrap();
    let prepared = cgnp_core::PreparedTask::new(task.clone());
    for ex in &task.targets {
        let direct = model.predict(&prepared, ex.query, &mut StdRng::seed_from_u64(0));
        let served = session.predict(&[ex.query], None).unwrap();
        assert_eq!(direct, *served.as_slice(), "query {}", ex.query);
    }
}

#[test]
fn f64_serving_tracks_f32_probabilities() {
    let (model, task) = trained_model_and_task(33);
    let f32_session = ServeSession::with_shared_model(
        std::sync::Arc::new(model),
        task.clone(),
        cfg_with(Dtype::F32, MathMode::Exact),
    )
    .unwrap();
    let f64_session = {
        let (model, _) = trained_model_and_task(33);
        ServeSession::new(model, task.clone(), cfg_with(Dtype::F64, MathMode::Exact)).unwrap()
    };
    for ex in &task.targets {
        let narrow = f32_session.predict(&[ex.query], None).unwrap();
        let wide = f64_session.predict(&[ex.query], None).unwrap();
        assert_eq!(narrow.len(), wide.len());
        for (a, b) in narrow.iter().zip(wide.iter()) {
            assert!((a - b).abs() < 1e-4, "query {}: {a} vs {b}", ex.query);
        }
    }
}

#[test]
fn typed_engine_follows_graph_updates() {
    // The f64 engine snapshots operators at build; a topology update must
    // re-snapshot them — predictions after the update equal a fresh f64
    // session built directly on the mutated graph.
    let (model, task) = trained_model_and_task(34);
    let (twin, _) = trained_model_and_task(34);
    let live =
        ServeSession::new(twin, task.clone(), cfg_with(Dtype::F64, MathMode::Exact)).unwrap();
    let n = task.graph.n();
    let edges = [(0usize, n / 2), (1, n / 2 + 1)];
    let frames: Vec<UpdateRequest> = edges
        .iter()
        .enumerate()
        .map(|(i, &(u, v))| UpdateRequest {
            id: i as u64,
            op: UpdateOp::AddEdge { u, v },
        })
        .collect();
    assert!(live.apply_updates(&frames).iter().all(|a| a.ok));

    let mut mutated = task.clone();
    for &(u, v) in &edges {
        mutated.graph.insert_edge(u, v).unwrap();
    }
    let fresh = ServeSession::new(model, mutated, cfg_with(Dtype::F64, MathMode::Exact)).unwrap();
    for ex in &task.targets {
        let a = live.predict(&[ex.query], None).unwrap();
        let b = fresh.predict(&[ex.query], None).unwrap();
        assert_eq!(*a, *b, "query {}: stale typed operator state", ex.query);
    }
}

#[test]
fn typed_engine_follows_support_rotation() {
    // Support-only updates leave the typed operator snapshot alone (no
    // graph epoch moved) but must still change what contexts condition
    // on: expiring down to a different prefix changes predictions.
    let (model, task) = trained_model_and_task(35);
    let session =
        ServeSession::new(model, task.clone(), cfg_with(Dtype::F64, MathMode::Exact)).unwrap();
    let q = task.targets[0].query;
    let before = session.predict(&[q], None).unwrap();
    let rotate = UpdateRequest {
        id: 1,
        op: UpdateOp::UpdateSupport {
            add: None,
            expire: task.support.len() - 1,
        },
    };
    assert!(session.apply_update(&rotate).ok);
    assert_eq!(session.max_shots(), 1);
    let after = session.predict(&[q], None).unwrap();
    assert_ne!(*before, *after, "rotated support must recondition scoring");
}

#[test]
fn summary_reports_precision_and_effective_math() {
    let (model, task) = trained_model_and_task(36);
    let session = ServeSession::new(model, task, cfg_with(Dtype::F64, MathMode::Fast)).unwrap();
    let summary = session.summary();
    assert_eq!(summary.precision, "f64");
    // The summary never claims a tier the build does not carry.
    let expected = if cgnp_tensor::fast_math_compiled() {
        "fast"
    } else {
        "exact"
    };
    assert_eq!(summary.math, expected);
}
