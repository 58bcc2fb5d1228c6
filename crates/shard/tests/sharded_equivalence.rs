//! The sharded-serving contract, tested end to end: a [`ShardedSession`]
//! at any shard count, under either refresh strategy, must be **bitwise
//! indistinguishable**
//! from one unsharded [`ServeSession`] over the same graph — member
//! lists, probability bits, shot counts, error strings, ack epochs —
//! including after live-update control frames that force both the
//! incremental (grown-only halo) and the rebuild reconciliation paths.
//!
//! The serving graph is a long ring with sparse chords: its diameter is
//! far larger than any model's halo radius, so each shard genuinely sees
//! only a fraction of the graph and the equivalence is meaningful (on a
//! small-diameter graph every halo swallows everything and the test
//! would pass vacuously).

use std::sync::Arc;

use cgnp_core::{Cgnp, CgnpConfig, CommutativeOp, DecoderKind, RefreshStrategy};
use cgnp_data::{model_input_dim, QueryExample, Task};
use cgnp_graph::{AttributedGraph, Graph};
use cgnp_nn::GnnKind;
use cgnp_serve::{QueryRequest, QueryResponse, ServeConfig, ServeSession, UpdateOp, UpdateRequest};
use cgnp_shard::{halo_depth_for, ShardedConfig, ShardedSession};

const N: usize = 160;
const ARC: usize = 20; // nodes per ground-truth community (a ring arc)

/// Ring of `N` nodes with a chord every 9 nodes: diameter ≈ N/4, well
/// beyond any halo radius used here. Communities are the contiguous
/// arcs; attributes cycle through a 3-word vocabulary.
fn serving_graph() -> AttributedGraph {
    let mut edges: Vec<(usize, usize)> = (0..N).map(|v| (v, (v + 1) % N)).collect();
    edges.extend((0..N).step_by(9).map(|v| (v, (v + 2) % N)));
    let g = Graph::from_edges(N, &edges);
    let attrs = (0..N).map(|v| vec![(v % 3) as u32]).collect();
    let communities = (0..N / ARC)
        .map(|c| (c * ARC..(c + 1) * ARC).map(|v| v as u32).collect())
        .collect();
    AttributedGraph::new(g, 3, attrs, communities)
}

/// A deterministic labelled pool: one example per of the first four
/// arcs, marked nodes clustered inside the arc.
fn support_pool() -> Vec<QueryExample> {
    (0..4)
        .map(|c| {
            let base = c * ARC;
            QueryExample {
                query: base + 3,
                pos: vec![base + 4, base + 7, base + 11],
                neg: vec![(base + ARC + 5) % N],
                truth: Vec::new(),
            }
        })
        .collect()
}

fn serving_task() -> Task {
    Task {
        graph: serving_graph(),
        support: support_pool(),
        targets: Vec::new(),
    }
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        batch: 4,
        threads: 2,
        seed: 9,
        ..ServeConfig::default()
    }
}

fn model_config(kind: GnnKind, op: CommutativeOp, decoder: DecoderKind) -> CgnpConfig {
    let mut cfg = CgnpConfig::paper_default(model_input_dim(&serving_graph()), 8)
        .with_decoder(decoder)
        .with_commutative(op);
    cfg.encoder.kind = kind;
    cfg
}

/// Everything a client can observe about a response except wall-clock
/// latency, with probabilities at full bit precision.
fn norm(r: &QueryResponse) -> String {
    let bits: Vec<u32> = r.probs.iter().map(|p| p.to_bits()).collect();
    format!(
        "{:?}",
        (r.id, r.ok, &r.error, &r.code, &r.members, &bits, r.shots, r.cached, r.epoch)
    )
}

fn assert_same(oracle: &[QueryResponse], sharded: &[QueryResponse], when: &str) {
    assert_eq!(oracle.len(), sharded.len(), "{when}: response count");
    for (o, s) in oracle.iter().zip(sharded) {
        assert_eq!(norm(o), norm(s), "{when}: response for id {}", o.id);
    }
}

fn query_batches() -> Vec<Vec<QueryRequest>> {
    vec![
        vec![
            QueryRequest::new(1, vec![5]).with_top_k(10),
            QueryRequest::new(2, vec![83, 150]).with_top_k(8),
            QueryRequest::new(3, vec![40]), // threshold mode: all ≥ 0.5
            QueryRequest {
                attrs: vec![1],
                ..QueryRequest::new(4, vec![61]).with_top_k(6)
            },
        ],
        vec![
            QueryRequest {
                shots: Some(2),
                ..QueryRequest::new(5, vec![5, 27]).with_top_k(12)
            },
            QueryRequest::new(6, vec![5]).with_top_k(10), // repeat of id 1 in a later tick
            QueryRequest::new(7, vec![9999]).with_top_k(3), // out of range: error parity
            QueryRequest {
                shots: Some(999),
                ..QueryRequest::new(8, vec![118]).with_top_k(5)
            },
        ],
    ]
}

/// A burst exercising every reconciliation path at once: a local edge,
/// a long-range chord (pulls pre-existing nodes into halos → shard
/// rebuild), a node birth plus an edge onto it (grown-only forwarding),
/// a support rotation, an acknowledged duplicate-edge no-op, and an
/// invalid frame that must fail with the identical error.
fn mixed_burst(next_node: usize, pool: &[QueryExample]) -> Vec<UpdateRequest> {
    vec![
        UpdateRequest {
            id: 100,
            op: UpdateOp::AddEdge { u: 5, v: 9 },
        },
        UpdateRequest {
            id: 101,
            op: UpdateOp::AddEdge { u: 20, v: 120 },
        },
        UpdateRequest {
            id: 102,
            op: UpdateOp::AddNode { attrs: vec![1] },
        },
        UpdateRequest {
            id: 103,
            op: UpdateOp::AddEdge {
                u: next_node,
                v: 17,
            },
        },
        UpdateRequest {
            id: 104,
            op: UpdateOp::UpdateSupport {
                add: Some(pool[0].clone()),
                expire: 1,
            },
        },
        UpdateRequest {
            id: 105,
            op: UpdateOp::AddEdge { u: 5, v: 9 }, // duplicate: ack, no epoch bump
        },
        UpdateRequest {
            id: 106,
            op: UpdateOp::AddEdge { u: 0, v: 9999 }, // invalid: error parity
        },
    ]
}

fn support_only_burst(pool: &[QueryExample]) -> Vec<UpdateRequest> {
    vec![
        UpdateRequest {
            id: 200,
            op: UpdateOp::UpdateSupport {
                add: Some(pool[1].clone()),
                expire: 0, // pure append: invalidates nothing
            },
        },
        UpdateRequest {
            id: 201,
            op: UpdateOp::UpdateSupport {
                add: Some(pool[2].clone()),
                expire: 1, // rotation: invalidates everything
            },
        },
    ]
}

/// Builds the oracle and the sharded deployment over one shared model
/// and drives both through the same query batches and update bursts,
/// once per refresh strategy (the shards inherit the coordinator's).
fn check_equivalence(config: CgnpConfig, shards: usize) {
    for refresh in [RefreshStrategy::EpochSwap, RefreshStrategy::PerRow] {
        check_equivalence_under(config.clone(), shards, refresh);
    }
}

fn check_equivalence_under(config: CgnpConfig, shards: usize, refresh: RefreshStrategy) {
    let halo = halo_depth_for(&config);
    assert!(
        N / shards.max(1) > 4 * halo,
        "graph too small for the halo: shards would see everything and \
         the equivalence would be vacuous"
    );
    let model = Arc::new(Cgnp::new(config, 7));
    let task = serving_task();
    let serve = ServeConfig {
        refresh,
        ..serve_cfg()
    };
    let oracle = ServeSession::with_shared_model(Arc::clone(&model), task.clone(), serve)
        .expect("oracle session");
    let sharded = ShardedSession::with_shared_model(
        model,
        task,
        ShardedConfig {
            shards,
            replicas: 1,
            serve,
        },
    )
    .expect("sharded session");
    assert_eq!(sharded.n_shards(), shards);
    sharded
        .check_owned_rows()
        .expect("owned rows after construction");

    for (b, batch) in query_batches().iter().enumerate() {
        assert_same(
            &oracle.answer_batch(batch),
            &sharded.answer_batch(batch),
            &format!("pre-update batch {b}"),
        );
    }

    let pool = support_pool();
    let burst = mixed_burst(N, &pool);
    assert_same(
        &oracle.apply_updates(&burst),
        &sharded.apply_updates(&burst),
        "mixed-burst acks",
    );
    sharded
        .check_owned_rows()
        .expect("owned rows after the mixed burst");
    for (b, batch) in query_batches().iter().enumerate() {
        assert_same(
            &oracle.answer_batch(batch),
            &sharded.answer_batch(batch),
            &format!("post-mixed-burst batch {b}"),
        );
    }

    let burst = support_only_burst(&pool);
    assert_same(
        &oracle.apply_updates(&burst),
        &sharded.apply_updates(&burst),
        "support-burst acks",
    );
    // Single-frame path (the gateway's frame-at-a-time fallback).
    let single = UpdateRequest {
        id: 300,
        op: UpdateOp::AddEdge { u: 33, v: 140 },
    };
    assert_eq!(
        norm(&oracle.apply_update(&single)),
        norm(&sharded.apply_update(&single)),
        "single-frame ack"
    );
    sharded
        .check_owned_rows()
        .expect("owned rows after the single frame");
    for (b, batch) in query_batches().iter().enumerate() {
        assert_same(
            &oracle.answer_batch(batch),
            &sharded.answer_batch(batch),
            &format!("final batch {b}"),
        );
    }

    let summary = sharded.summary();
    let epochs = summary
        .shard_epochs
        .expect("sharded summary reports the epoch vector");
    assert_eq!(epochs.len(), shards);
    // Support rotations route to every shard, so every epoch moved.
    assert!(epochs.iter().all(|&e| e > 0), "stale shard: {epochs:?}");
    assert_eq!(summary.epoch, oracle.summary().epoch, "graph epoch parity");
    assert!(
        summary.coalesced_updates > 0,
        "batched bursts must be counted as coalesced"
    );
    assert!(oracle.summary().shard_epochs.is_none());
}

#[test]
fn replicas_other_than_one_are_refused() {
    // A shard is one session; the field survives only for callers that
    // spell the struct out, and any value but 1 is an error that says so.
    let config = model_config(GnnKind::Gat, CommutativeOp::Mean, DecoderKind::InnerProduct);
    let result = ShardedSession::new(
        Cgnp::new(config, 7),
        serving_task(),
        ShardedConfig {
            shards: 2,
            replicas: 2,
            serve: serve_cfg(),
        },
    );
    match result {
        Ok(_) => panic!("replicas: 2 must be refused, not silently served as 1"),
        Err(err) => assert!(err.contains("replicas = 2"), "unexpected error: {err}"),
    }
}

#[test]
fn gat_mean_ip_three_shards() {
    check_equivalence(
        model_config(GnnKind::Gat, CommutativeOp::Mean, DecoderKind::InnerProduct),
        3,
    );
}

#[test]
fn gcn_sum_gnn_decoder_two_shards() {
    // Deepest halo of the sweep: 3 encoder + 2 decoder layers + 1.
    check_equivalence(
        model_config(GnnKind::Gcn, CommutativeOp::Sum, DecoderKind::Gnn),
        2,
    );
}

#[test]
fn gat_mean_mlp_decoder_two_shards() {
    check_equivalence(
        model_config(GnnKind::Gat, CommutativeOp::Mean, DecoderKind::Mlp),
        2,
    );
}

#[test]
fn shard_fan_out_width_moves_no_bit() {
    // `threads` is how many shards score at once: at 1 they score one
    // after another on the calling thread, at 2 of 3 shards one pool job
    // takes two of them, at 3 each has its own. Every width must give the
    // same responses, byte for byte, before and after a burst.
    let model = Arc::new(Cgnp::new(
        model_config(GnnKind::Gat, CommutativeOp::Mean, DecoderKind::InnerProduct),
        7,
    ));
    let run = |threads: usize| -> Vec<String> {
        let sharded = ShardedSession::with_shared_model(
            Arc::clone(&model),
            serving_task(),
            ShardedConfig {
                shards: 3,
                replicas: 1,
                serve: ServeConfig {
                    threads,
                    ..serve_cfg()
                },
            },
        )
        .expect("sharded session");
        let mut out: Vec<String> = Vec::new();
        for batch in query_batches() {
            out.extend(sharded.answer_batch(&batch).iter().map(norm));
        }
        let burst = mixed_burst(N, &support_pool());
        out.extend(sharded.apply_updates(&burst).iter().map(norm));
        for batch in query_batches() {
            out.extend(sharded.answer_batch(&batch).iter().map(norm));
        }
        out
    };
    let serial = run(1);
    for threads in [2, 3] {
        assert_eq!(run(threads), serial, "threads = {threads}");
    }
}

#[test]
fn a_shot_group_wider_than_one_centroid_panel() {
    // Each shard scores a whole shot group in one `CentroidScores` pass,
    // which packs the group's centroids into panels of 8, 4, 2 and 1: 15
    // unique query sets at one shot count fill every panel width. Single
    // nodes, pairs half a ring apart and triples a quarter apart (their
    // rows come from several shards), two repeated keys and one node out
    // of range, at every shard-fan-out width, before and after a burst.
    let model = Arc::new(Cgnp::new(
        model_config(GnnKind::Gat, CommutativeOp::Mean, DecoderKind::InnerProduct),
        7,
    ));
    let wide_tick = |id0: u64, first: Vec<usize>| -> Vec<QueryRequest> {
        let mut reqs: Vec<QueryRequest> = (0..15usize)
            .map(|i| {
                let v = i * 10 + 1;
                let nodes = match i % 3 {
                    0 => vec![v],
                    1 => vec![v, (v + N / 2) % N],
                    _ => vec![v, (v + N / 4) % N, (v + 3 * N / 4) % N],
                };
                QueryRequest::new(id0 + i as u64, nodes).with_top_k(4 + i)
            })
            .collect();
        reqs[0].nodes = first;
        let (pair, triple) = (reqs[1].nodes.clone(), reqs[5].nodes.clone());
        reqs.push(QueryRequest::new(id0 + 15, pair).with_top_k(2)); // key of id0 + 1
        reqs.push(QueryRequest::new(id0 + 16, vec![3, 9999]).with_top_k(5)); // out of range
        reqs.push(QueryRequest::new(id0 + 17, triple)); // key of id0 + 5, threshold mode
        reqs
    };
    for shards in [2, 3] {
        for threads in [1, 2, 3] {
            let serve = ServeConfig {
                batch: 16,
                threads,
                ..serve_cfg()
            };
            let sharded_with = |serve: ServeConfig| {
                ShardedSession::with_shared_model(
                    Arc::clone(&model),
                    serving_task(),
                    ShardedConfig {
                        shards,
                        replicas: 1,
                        serve,
                    },
                )
                .expect("sharded session")
            };
            let oracle = ServeSession::with_shared_model(Arc::clone(&model), serving_task(), serve)
                .expect("oracle session");
            let sharded = sharded_with(serve);
            // Answers every query of a tick in a tick of its own.
            let alone = sharded_with(serve);
            let when = |phase: &str| format!("{phase}, {shards} shards, {threads} threads");
            let check = |tick: &[QueryRequest], phase: &str| {
                let wide = sharded.answer_batch(tick);
                assert_same(&oracle.answer_batch(tick), &wide, &when(phase));
                for (req, response) in tick.iter().zip(&wide) {
                    assert_eq!(
                        norm(&alone.answer(req)),
                        norm(response),
                        "{}: id {} alone",
                        when(phase),
                        req.id
                    );
                }
            };

            check(&wide_tick(0, vec![1]), "wide tick before the burst");
            let burst = mixed_burst(N, &support_pool());
            let acks = oracle.apply_updates(&burst);
            assert_same(&acks, &sharded.apply_updates(&burst), &when("burst acks"));
            assert_same(
                &acks,
                &alone.apply_updates(&burst),
                &when("burst acks alone"),
            );
            sharded
                .check_owned_rows()
                .expect("owned rows after the mixed burst");
            check(&wide_tick(100, vec![N, 1]), "wide tick after the burst");
        }
    }
}

#[test]
fn self_attention_is_rejected() {
    let config = model_config(
        GnnKind::Gat,
        CommutativeOp::SelfAttention,
        DecoderKind::InnerProduct,
    );
    let result = ShardedSession::new(
        Cgnp::new(config, 7),
        serving_task(),
        ShardedConfig {
            shards: 2,
            replicas: 1,
            serve: serve_cfg(),
        },
    );
    match result {
        Ok(_) => panic!("self-attention mixes rows globally; no finite halo is exact"),
        Err(err) => assert!(err.contains("self-attention"), "unexpected error: {err}"),
    }
}

#[test]
fn one_tick_of_mixed_shots_duplicates_and_spanning_queries_across_a_node_birth() {
    // The unsharded session scores a shot group in one batched pass; the
    // coordinator gathers each query's centroid rows from the shards that
    // own them and merges owned rows back. One tick mixes everything that
    // shapes a group — three shot counts, keys repeated within the tick
    // (scored once, ranked per request), and query sets whose nodes sit a
    // quarter-ring apart, so their centroid rows come from both shards —
    // and runs again after a node is born, which lengthens one shard's
    // owned list.
    let model = Arc::new(Cgnp::new(
        model_config(GnnKind::Gat, CommutativeOp::Mean, DecoderKind::InnerProduct),
        7,
    ));
    let oracle = ServeSession::with_shared_model(Arc::clone(&model), serving_task(), serve_cfg())
        .expect("oracle session");
    let sharded = ShardedSession::with_shared_model(
        model,
        serving_task(),
        ShardedConfig {
            shards: 2,
            replicas: 1,
            serve: serve_cfg(),
        },
    )
    .expect("sharded session");

    let with_shots = |req: QueryRequest, shots: usize| QueryRequest {
        shots: Some(shots),
        ..req
    };
    let tick = |id0: u64, newborn: Option<usize>| -> Vec<QueryRequest> {
        let spanning = vec![0, 40, 80, 120];
        let mut reqs = vec![
            QueryRequest::new(id0, spanning.clone()).with_top_k(10),
            with_shots(
                QueryRequest::new(id0 + 1, spanning.clone()).with_top_k(7),
                1,
            ),
            QueryRequest::new(id0 + 2, spanning.clone()).with_top_k(3), // key of id0
            QueryRequest::new(id0 + 3, vec![20, 100, 21]),              // threshold mode
            with_shots(QueryRequest::new(id0 + 4, vec![83]).with_top_k(N + 5), 2),
            with_shots(QueryRequest::new(id0 + 5, vec![83]).with_top_k(1), 2), // key of id0 + 4
            with_shots(QueryRequest::new(id0 + 6, vec![12, 150]).with_top_k(9), 1),
            QueryRequest {
                attrs: vec![2],
                ..QueryRequest::new(id0 + 7, vec![61, 141]).with_top_k(6)
            },
            QueryRequest::new(id0 + 8, vec![59]).with_top_k(5),
        ];
        if let Some(w) = newborn {
            reqs.push(QueryRequest::new(id0 + 9, vec![w]).with_top_k(N + 1));
            reqs.push(with_shots(
                QueryRequest::new(id0 + 10, vec![w, 90]).with_top_k(8),
                2,
            ));
        }
        reqs
    };

    let before = tick(0, None);
    assert_same(
        &oracle.answer_batch(&before),
        &sharded.answer_batch(&before),
        "tick before the birth",
    );
    // The same tick again: every context now comes from the shards'
    // per-shot caches.
    assert_same(
        &oracle.answer_batch(&before),
        &sharded.answer_batch(&before),
        "cached tick",
    );

    let birth = vec![
        UpdateRequest {
            id: 400,
            op: UpdateOp::AddNode { attrs: vec![2] },
        },
        UpdateRequest {
            id: 401,
            op: UpdateOp::AddEdge { u: N, v: 17 },
        },
    ];
    assert_same(
        &oracle.apply_updates(&birth),
        &sharded.apply_updates(&birth),
        "birth acks",
    );
    let after = tick(100, Some(N));
    assert_same(
        &oracle.answer_batch(&after),
        &sharded.answer_batch(&after),
        "tick after the birth",
    );
}
