//! End-to-end serving guarantees: a checkpoint restored into a
//! [`ServeSession`] answers queries bitwise-identically to the in-process
//! model it was saved from, a repeated query answers the same bits, and
//! serving builds no autograd state.

use cgnp_core::{meta_train, prepare_tasks, Cgnp, CgnpConfig, PreparedTask};
use cgnp_data::{
    generate_sbm, load_dataset, model_input_dim, sample_task, DatasetId, QueryExample, SbmConfig,
    Scale, Task, TaskConfig,
};
use cgnp_nn::{GnnKind, Module};
use cgnp_serve::{
    rank_members, serve_task, QueryRequest, ServeConfig, ServeSession, UpdateOp, UpdateRequest,
};
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

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        batch: 4,
        threads: 1,
        seed: 9,
        ..Default::default()
    }
}

#[test]
fn checkpoint_to_session_roundtrip_is_bitwise_identical() {
    let (model, task) = trained_model_and_task(21);
    let dir = std::env::temp_dir().join("cgnp-serve-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("smoke.json");
    cgnp_eval::save_to_file(&model, &path).unwrap();

    // Template mirrors the training architecture; in_dim is rebound by
    // the session builder.
    let template = CgnpConfig::paper_default(1, 8);
    let session =
        ServeSession::from_checkpoint(&path, template, task.clone(), serve_cfg()).unwrap();

    // Direct in-process predictions from the model that produced the
    // checkpoint, on the same prepared task and support set.
    let prepared = PreparedTask::new(task.clone());
    let mut rng = StdRng::seed_from_u64(0);
    let direct = model.predict_task(&prepared, &mut rng);

    for (ex, expected) in task.targets.iter().zip(&direct) {
        let served = session.predict(&[ex.query], None).unwrap();
        assert_eq!(
            served.as_slice(),
            expected.as_slice(),
            "served prediction for query {} must be bitwise identical",
            ex.query
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn self_describing_checkpoint_ignores_mismatched_template() {
    // A checkpoint saved with an embedded ArchSpec must restore from its
    // own architecture: the template (standing in for wrong CLI flags) is
    // not consulted, and predictions are bitwise identical to a session
    // built with the correct template from a legacy checkpoint.
    let (model, task) = trained_model_and_task(27);
    let dir = std::env::temp_dir().join("cgnp-serve-selfdesc");
    std::fs::create_dir_all(&dir).unwrap();
    let with_arch = dir.join("with-arch.json");
    let legacy = dir.join("legacy.json");
    cgnp_eval::save_with_arch(
        &model,
        cgnp_eval::ArchSpec::from_config(model.config()),
        &with_arch,
    )
    .unwrap();
    cgnp_eval::save_to_file(&model, &legacy).unwrap();

    // Deliberately wrong hidden width and decoder: would fail on a legacy
    // checkpoint (see `from_checkpoint_rejects_mismatched_template`).
    let wrong = CgnpConfig::paper_default(1, 16).with_decoder(cgnp_core::DecoderKind::Mlp);
    let auto = ServeSession::from_checkpoint(&with_arch, wrong, task.clone(), serve_cfg())
        .expect("self-describing checkpoint must not need matching flags");
    let right = CgnpConfig::paper_default(1, 8);
    let explicit =
        ServeSession::from_checkpoint(&legacy, right, task.clone(), serve_cfg()).unwrap();

    for ex in &task.targets {
        let a = auto.predict(&[ex.query], None).unwrap();
        let b = explicit.predict(&[ex.query], None).unwrap();
        assert_eq!(a.as_slice(), b.as_slice(), "query {}", ex.query);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn from_checkpoint_rejects_mismatched_template() {
    let (model, task) = trained_model_and_task(22);
    let dir = std::env::temp_dir().join("cgnp-serve-mismatch");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("smoke.json");
    cgnp_eval::save_to_file(&model, &path).unwrap();
    // Wrong hidden width → parameter shape mismatch, reported not panicked.
    let wrong = CgnpConfig::paper_default(1, 16);
    let err = ServeSession::from_checkpoint(&path, wrong, task, serve_cfg())
        .err()
        .expect("mismatched template must fail");
    assert!(err.contains("mismatch"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_query_repeated_across_ticks_answers_the_same_bits() {
    let (model, task) = trained_model_and_task(23);
    let q = task.targets[0].query;
    let session = ServeSession::new(model, task, serve_cfg()).unwrap();
    let bits = |r: &cgnp_serve::QueryResponse| -> Vec<u32> {
        r.probs.iter().map(|p| p.to_bits()).collect()
    };

    // The same query in three ticks, a different shot count in between:
    // every repeat is scored afresh and must equal the first answer.
    let first = session.answer(&QueryRequest::new(1, vec![q]));
    assert!(first.ok && !first.cached);
    for (id, shots) in [(2, Some(1)), (3, None), (4, Some(2)), (5, None)] {
        let r = session.answer(&QueryRequest {
            shots,
            ..QueryRequest::new(id, vec![q])
        });
        assert!(r.ok && !r.cached, "id {id}: cached is always false");
        assert_eq!(r.shots, shots.unwrap_or(first.shots));
        if shots.is_none() {
            assert_eq!(r.members, first.members, "id {id}");
            assert_eq!(bits(&r), bits(&first), "id {id}");
        }
    }
}

#[test]
fn duplicate_requests_in_one_tick_share_one_computation() {
    let (model, task) = trained_model_and_task(26);
    let q = task.targets[0].query;
    let session = ServeSession::new(model, task, serve_cfg()).unwrap();
    // Four identical requests in one tick: deduplicated to one scoring
    // pass whose result every response shares.
    let reqs: Vec<QueryRequest> = (0..4).map(|i| QueryRequest::new(i, vec![q])).collect();
    let responses = session.answer_batch(&reqs);
    assert!(responses.iter().all(|r| r.ok && !r.cached));
    for r in &responses[1..] {
        assert_eq!(r.members, responses[0].members);
        assert_eq!(r.probs, responses[0].probs);
    }
}

#[test]
fn serving_forward_records_zero_tape_nodes() {
    // Serving is forward-only: context builds and full answer ticks —
    // on the caller and on the persistent workers — leave no gradient on
    // any model parameter and tape recording untouched on the calling
    // thread.
    let (model, task) = trained_model_and_task(24);
    let q = task.targets[0].query;
    let model = std::sync::Arc::new(model);
    for param in model.params() {
        param.zero_grad();
    }
    let session = ServeSession::with_shared_model(
        std::sync::Arc::clone(&model),
        task,
        ServeConfig {
            threads: 3,
            ..serve_cfg()
        },
    )
    .unwrap();
    for shots in [1, session.max_shots()] {
        let ctx = session.context_for_shots(shots);
        assert_eq!(cgnp_tensor::dispatch!(&*ctx, |m| m.rows()), session.n());
    }
    let batch: Vec<QueryRequest> = (0..6).map(|i| QueryRequest::new(i, vec![q])).collect();
    let responses = session.answer_batch(&batch);
    assert!(responses.iter().all(|r| r.ok));
    for param in model.params() {
        assert!(param.grad().is_none(), "serving accumulated a gradient");
    }
    assert!(
        cgnp_tensor::grad_enabled(),
        "answer_batch must not leak a disabled tape flag"
    );
}

#[test]
fn parallel_and_serial_micro_batches_agree() {
    // `trained_model_and_task` is deterministic per seed, so two builds
    // serve identical weights over the identical graph.
    let build = |threads: usize| {
        let (model, task) = trained_model_and_task(25);
        ServeSession::new(
            model,
            task,
            ServeConfig {
                threads,
                ..serve_cfg()
            },
        )
        .unwrap()
    };
    let serial = build(1);
    let parallel = build(4);
    let queries: Vec<usize> = {
        let (_, task) = trained_model_and_task(25);
        task.targets.iter().map(|ex| ex.query).collect()
    };
    let reqs: Vec<QueryRequest> = queries
        .iter()
        .enumerate()
        .map(|(i, &q)| QueryRequest::new(i as u64, vec![q]).with_top_k(10))
        .collect();
    let a = serial.answer_batch(&reqs);
    let b = parallel.answer_batch(&reqs);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.members, y.members);
        assert_eq!(x.probs, y.probs);
    }
}

#[test]
fn context_cache_reuses_across_ticks_without_changing_results() {
    // One session across three ticks against a fresh session per tick
    // over identical weights: the fresh ones recompute the context every
    // tick, the long-lived one caches it per shot count. Responses must
    // be bitwise identical; the long-lived session must build it once.
    let build = || {
        let (model, task) = trained_model_and_task(26);
        ServeSession::new(model, task, serve_cfg()).unwrap()
    };
    let warm = build();
    let q = {
        let (_, task) = trained_model_and_task(26);
        task.targets[0].query
    };
    let mut cold_builds = 0;
    for tick in 0..3u64 {
        let reqs = [
            QueryRequest::new(tick * 2, vec![q]),
            QueryRequest::new(tick * 2 + 1, vec![q, q.saturating_sub(1)]),
        ];
        let cold = build();
        let a = cold.answer_batch(&reqs);
        let b = warm.answer_batch(&reqs);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.members, y.members, "tick {tick}");
            assert_eq!(x.probs, y.probs, "tick {tick}");
        }
        cold_builds += cold.summary().context_builds;
    }
    let warm_summary = warm.summary();
    assert_eq!(
        cold_builds, 3,
        "a fresh session pays one context forward per tick"
    );
    assert_eq!(
        warm_summary.context_builds, 1,
        "cached session computes the context once"
    );
    assert_eq!(warm_summary.context_hits, 2);
}

#[test]
fn ragged_shot_traffic_builds_one_context_per_shot_count() {
    let (model, task) = trained_model_and_task(27);
    let q = task.targets[0].query;
    let session = ServeSession::new(model, task, serve_cfg()).unwrap();
    // Interleaved shot counts across several ticks: the pathological
    // ragged traffic the cross-tick cache exists for.
    for round in 0..3u64 {
        for shots in 1..=session.max_shots() {
            let req = QueryRequest {
                shots: Some(shots),
                ..QueryRequest::new(round * 10 + shots as u64, vec![q])
            };
            assert!(session.answer(&req).ok);
        }
    }
    let summary = session.summary();
    assert_eq!(
        summary.context_builds,
        session.max_shots() as u64,
        "one build per distinct shot count, ever"
    );
    assert_eq!(
        summary.context_hits,
        2 * session.max_shots() as u64,
        "every revisit is a cache hit"
    );
}

#[test]
fn support_expiry_invalidates_context_and_prediction_caches() {
    let (model, task) = trained_model_and_task(28);
    let q = task.targets[0].query;
    // Expiry drops the oldest examples: two of three leave the last.
    let narrowed = task.support[2..].to_vec();
    let session = ServeSession::new(model, task.clone(), serve_cfg()).unwrap();
    let rotate = |id: u64, add: Option<QueryExample>, expire: usize| {
        session.apply_update(&UpdateRequest {
            id,
            op: UpdateOp::UpdateSupport { add, expire },
        })
    };

    // Warm the context cache on the full pool.
    let before = session.answer(&QueryRequest::new(1, vec![q]));
    assert!(before.ok);

    // Narrow the conditioning data: one support example instead of three.
    assert!(rotate(10, None, 2).ok);
    assert_eq!(session.max_shots(), 1);
    let after = session.answer(&QueryRequest::new(3, vec![q]));
    assert!(after.ok);
    assert_ne!(
        before.probs, after.probs,
        "new conditioning must actually reach the encoder"
    );

    // The narrowed session behaves exactly like a session built fresh
    // on the narrowed pool — no stale context leaks into the forward.
    let (model2, _) = trained_model_and_task(28);
    let mut fresh_task = task;
    fresh_task.support = narrowed.clone();
    let fresh = ServeSession::new(model2, fresh_task, serve_cfg()).unwrap();
    let expected = fresh.answer(&QueryRequest::new(3, vec![q]));
    assert_eq!(after.members, expected.members);
    assert_eq!(after.probs, expected.probs);

    // Emptying the pool stays rejected, and so are out-of-range node
    // ids — both without disturbing the installed pool.
    assert!(!rotate(11, None, 1).ok);
    let mut bad = narrowed[0].clone();
    bad.query = session.n();
    let refused = rotate(12, Some(bad), 0);
    let err = refused.error.expect("an out-of-range example is refused");
    assert!(err.contains("out of range"), "{err}");
    assert_eq!(session.max_shots(), 1);
    let builds = session.summary().context_builds;
    let still = session.answer(&QueryRequest::new(4, vec![q]));
    assert!(still.ok);
    assert_eq!(
        session.summary().context_builds,
        builds,
        "refused frames retire nothing"
    );
    assert_eq!(still.probs, after.probs);
}

#[test]
fn a_burst_longer_than_the_mutation_log_falls_back_to_a_rebuild() {
    // A session patches the rows its graph's mutation log names, and the
    // log keeps the last 4 096 mutations: one burst longer than that
    // leaves the refresh nothing to patch from, so it must rebuild — and
    // answer like a session built fresh on the final graph.
    let ag = generate_sbm(&SbmConfig::small_test(), &mut StdRng::seed_from_u64(31));
    let task = serve_task(&ag, 3, 31).unwrap();
    let model_cfg = CgnpConfig::paper_default(model_input_dim(&task.graph), 8);
    let build = |task: Task| {
        ServeSession::new(
            Cgnp::new(model_cfg.clone(), 31),
            task,
            ServeConfig::default(),
        )
        .unwrap()
    };
    let n = task.graph.n();
    let missing: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .filter(|&(u, v)| !task.graph.graph().has_edge(u, v))
        .take(4200)
        .collect();
    assert!(missing.len() > 4096, "the burst must outrun the log");
    let burst: Vec<UpdateRequest> = (0u64..)
        .zip(&missing)
        .map(|(id, &(u, v))| UpdateRequest {
            id,
            op: UpdateOp::AddEdge { u, v },
        })
        .collect();

    let session = build(task.clone());
    let probe = |id: u64| QueryRequest::new(id, vec![0, n / 2]).with_top_k(n);
    assert!(session.answer(&probe(1)).ok, "warm the context cache first");
    assert!(session.apply_updates(&burst).iter().all(|ack| ack.ok));
    assert!(
        session.snapshot_state().graph.mutations_since(0).is_none(),
        "the log must no longer reach back to the session's last refresh"
    );
    assert!(session.summary().log_evictions > 0);

    let mut final_task = task;
    for &(u, v) in &missing {
        assert!(final_task.graph.insert_edge(u, v).unwrap());
    }
    let fresh = build(final_task);
    let (got, want) = (session.answer(&probe(2)), fresh.answer(&probe(2)));
    assert!(got.ok);
    assert_eq!(got.epoch, missing.len() as u64);
    assert_eq!(got.members, want.members);
    let bits = |r: &cgnp_serve::QueryResponse| -> Vec<u32> {
        r.probs.iter().map(|p| p.to_bits()).collect()
    };
    assert_eq!(bits(&got), bits(&want));
}

#[test]
fn full_scale_session_matches_the_taped_oracle_for_every_encoder() {
    // 3 327 nodes × hidden 64 puts every kernel past its parallel
    // threshold — the regime the small-graph pins above never reach —
    // and serving must still equal the taped forward bit for bit, for
    // each message-passing layer the executor re-implements.
    let ds = load_dataset(DatasetId::Citeseer, Scale::Full, 42);
    let task = serve_task(ds.single(), 2, 42).unwrap();
    assert!(task.n() >= 3000);
    let prepared = PreparedTask::new(task.clone());
    let bits = |v: &[f32]| v.iter().map(|p| p.to_bits()).collect::<Vec<u32>>();
    for kind in [GnnKind::Gcn, GnnKind::Gat, GnnKind::Sage] {
        let cfg =
            CgnpConfig::paper_default(model_input_dim(&task.graph), 64).with_encoder_kind(kind);
        let model = std::sync::Arc::new(Cgnp::new(cfg, 7));
        let reqs: Vec<QueryRequest> = [vec![5], vec![17, 900], vec![3000]]
            .into_iter()
            .enumerate()
            .map(|(i, nodes)| QueryRequest::new(i as u64, nodes).with_top_k(40))
            .collect();
        let oracle: Vec<Vec<f32>> = reqs
            .iter()
            .map(|r| model.predict_multi(&prepared, &r.nodes, &mut StdRng::seed_from_u64(0)))
            .collect();
        for threads in [1, 4] {
            let session = ServeSession::with_shared_model(
                std::sync::Arc::clone(&model),
                task.clone(),
                ServeConfig {
                    threads,
                    ..serve_cfg()
                },
            )
            .unwrap();
            // The micro-batch path (scoring fanned over `threads`)…
            for (r, (req, want)) in session
                .answer_batch(&reqs)
                .iter()
                .zip(reqs.iter().zip(&oracle))
            {
                let (members, probs) = rank_members(&task.graph, want, req);
                assert_eq!(r.members, members, "{kind}/{threads}t: members diverged");
                assert_eq!(
                    bits(&r.probs),
                    bits(&probs),
                    "{kind}/{threads}t: bits diverged"
                );
            }
            // …and the library path, full vectors.
            for (req, want) in reqs.iter().zip(&oracle) {
                let served = session.predict(&req.nodes, None).unwrap();
                assert_eq!(
                    bits(&served),
                    bits(want),
                    "{kind}/{threads}t: predict diverged"
                );
            }
        }
    }
}

#[test]
fn rank_members_matches_a_full_sort() {
    use rand::Rng;
    // The ranking sorts only what it returns; the rules are those of
    // sorting every candidate and cutting afterwards, spelled out here.
    let full_sort = |graph: &cgnp_graph::AttributedGraph, probs: &[f32], req: &QueryRequest| {
        let mut idx: Vec<usize> = (0..probs.len())
            .filter(|&v| req.attrs.is_empty() || req.attrs.iter().any(|&a| graph.has_attr(v, a)))
            .collect();
        idx.sort_by(|&a, &b| probs[b].total_cmp(&probs[a]).then(a.cmp(&b)));
        match req.top_k {
            Some(k) => idx.truncate(k),
            None => idx.retain(|&v| probs[v] >= 0.5),
        }
        let member_probs: Vec<f32> = idx.iter().map(|&v| probs[v]).collect();
        (idx, member_probs)
    };
    // Attribute 0 on every node, 1 on every third, 2 on node 7 alone, 3
    // on none: filters leaving all, some, one and no candidates.
    let n = 64;
    let attrs = (0..n)
        .map(|v| {
            let mut a = vec![0u32];
            a.extend((v % 3 == 0).then_some(1));
            a.extend((v == 7).then_some(2));
            a
        })
        .collect();
    let ring: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    let graph =
        cgnp_graph::AttributedGraph::new(cgnp_graph::Graph::from_edges(n, &ring), 4, attrs, vec![]);

    let mut rng = StdRng::seed_from_u64(14);
    for case in 0..200 {
        // Saturated sigmoids tie at exactly 1.0 and 0.0 by the hundred on
        // a real graph; 0.5 sits on the threshold.
        let saturated = [1.0f32, 0.0, 0.5, 1.0, 0.0][case % 5];
        let probs: Vec<f32> = (0..n)
            .map(|_| match rng.gen_range(0..4usize) {
                0 | 1 => saturated,
                2 => 1.0 - saturated,
                _ => rng.gen::<f32>(),
            })
            .collect();
        for attrs in [vec![], vec![0], vec![1], vec![2], vec![3], vec![2, 3]] {
            let candidates = (0..n)
                .filter(|&v| attrs.is_empty() || attrs.iter().any(|&a| graph.has_attr(v, a)))
                .count();
            let ks = [0, 1, 10, n - 1, n, n + 5]
                .into_iter()
                .chain([candidates.saturating_sub(1), candidates, candidates + 5])
                .map(Some)
                .chain([None]);
            for top_k in ks {
                let req = QueryRequest {
                    attrs: attrs.clone(),
                    top_k,
                    ..QueryRequest::new(case as u64, vec![0])
                };
                let (members, member_probs) = rank_members(&graph, &probs, &req);
                let (want, want_probs) = full_sort(&graph, &probs, &req);
                assert_eq!(members, want, "case {case} attrs {attrs:?} top_k {top_k:?}");
                let bits = |v: &[f32]| v.iter().map(|p| p.to_bits()).collect::<Vec<u32>>();
                assert_eq!(bits(&member_probs), bits(&want_probs));
            }
        }
    }
}
