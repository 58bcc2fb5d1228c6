//! Sharded crash recovery: the WAL is written once, at the
//! coordinator, and replay goes through the same scatter path live
//! updates take — so a recovered sharded session must be bitwise
//! indistinguishable both from a sharded session that never crashed
//! and from an unsharded oracle over the same update stream.
//!
//! The ring-with-chords serving graph is the same one the sharded
//! equivalence suite uses: its diameter dwarfs any halo radius, so the
//! shards genuinely see graph fractions and recovery has to reassemble
//! real distributed state, not a degenerate everything-in-every-halo
//! case.

use std::path::PathBuf;
use std::sync::Arc;

use cgnp_core::{Cgnp, CgnpConfig, RefreshStrategy};
use cgnp_data::{model_input_dim, QueryExample, Task};
use cgnp_graph::{AttributedGraph, Graph};
use cgnp_serve::{
    scan, DurableEngine, QueryEngine, QueryRequest, QueryResponse, ServeConfig, ServeSession,
    UpdateOp, UpdateRequest,
};
use cgnp_shard::{ShardedConfig, ShardedSession};

const N: usize = 160;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cgnp-shard-dur-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn serving_graph() -> AttributedGraph {
    let mut edges: Vec<(usize, usize)> = (0..N).map(|v| (v, (v + 1) % N)).collect();
    edges.extend((0..N).step_by(9).map(|v| (v, (v + 2) % N)));
    let g = Graph::from_edges(N, &edges);
    let attrs = (0..N).map(|v| vec![(v % 3) as u32]).collect();
    let communities = (0..8)
        .map(|c| (c * 20..(c + 1) * 20).map(|v| v as u32).collect())
        .collect();
    AttributedGraph::new(g, 3, attrs, communities)
}

fn serving_task() -> Task {
    let support = (0..4)
        .map(|c| {
            let base = c * 20;
            QueryExample {
                query: base + 3,
                pos: vec![base + 4, base + 7, base + 11],
                neg: vec![(base + 25) % N],
                truth: Vec::new(),
            }
        })
        .collect();
    Task {
        graph: serving_graph(),
        support,
        targets: Vec::new(),
    }
}

fn serve_cfg(refresh: RefreshStrategy) -> ServeConfig {
    ServeConfig {
        batch: 4,
        threads: 2,
        seed: 9,
        refresh,
        ..ServeConfig::default()
    }
}

fn model() -> Cgnp {
    Cgnp::new(
        CgnpConfig::paper_default(model_input_dim(&serving_graph()), 8),
        3,
    )
}

fn sharded_session(task: Task, refresh: RefreshStrategy) -> Arc<ShardedSession> {
    let cfg = ShardedConfig {
        shards: 4,
        replicas: 1,
        serve: serve_cfg(refresh),
    };
    Arc::new(ShardedSession::new(model(), task, cfg).expect("sharded session"))
}

fn sharded_on(task: Task, refresh: RefreshStrategy) -> Arc<dyn QueryEngine> {
    sharded_session(task, refresh)
}

fn unsharded_on(task: Task, refresh: RefreshStrategy) -> Arc<dyn QueryEngine> {
    Arc::new(ServeSession::new(model(), task, serve_cfg(refresh)).expect("session"))
}

/// A stream mixing every update kind the sharded reconciliation paths
/// distinguish: local edges, halo-crossing chords, node births, edges
/// onto new nodes, and support rotations.
fn update_stream() -> Vec<UpdateRequest> {
    let mut reqs = vec![
        UpdateRequest {
            id: 0,
            op: UpdateOp::AddEdge { u: 5, v: 9 },
        },
        UpdateRequest {
            id: 1,
            op: UpdateOp::AddEdge { u: 20, v: 120 },
        },
        UpdateRequest {
            id: 2,
            op: UpdateOp::AddNode { attrs: vec![1] },
        },
        UpdateRequest {
            id: 3,
            op: UpdateOp::AddEdge { u: N, v: 77 },
        },
        UpdateRequest {
            id: 4,
            op: UpdateOp::UpdateSupport {
                add: Some(QueryExample {
                    query: 61,
                    pos: vec![62, 65],
                    neg: vec![90],
                    truth: Vec::new(),
                }),
                expire: 1,
            },
        },
    ];
    for i in 0..6u64 {
        reqs.push(UpdateRequest {
            id: 5 + i,
            op: UpdateOp::AddEdge {
                u: (i as usize * 31) % N,
                v: (i as usize * 31 + 80) % N,
            },
        });
    }
    reqs
}

fn probes(n: usize) -> Vec<QueryRequest> {
    vec![
        QueryRequest::new(100, vec![5]).with_top_k(10),
        QueryRequest::new(101, vec![83, 150]).with_top_k(8),
        QueryRequest::new(102, vec![40]),
        QueryRequest::new(103, vec![n - 1]).with_top_k(6),
        QueryRequest {
            shots: Some(2),
            ..QueryRequest::new(104, vec![5, 27]).with_top_k(12)
        },
    ]
}

fn norm(r: &QueryResponse) -> String {
    let bits: Vec<u32> = r.probs.iter().map(|p| p.to_bits()).collect();
    format!(
        "{:?}",
        (r.id, r.ok, &r.error, &r.code, &r.members, &bits, r.shots, r.epoch)
    )
}

fn assert_same(a: &Arc<dyn QueryEngine>, b: &Arc<dyn QueryEngine>, when: &str) {
    let reqs = probes(a.n());
    for (x, y) in a
        .answer_batch(&reqs)
        .iter()
        .zip(b.answer_batch(&reqs).iter())
    {
        assert_eq!(norm(x), norm(y), "{when}: response {}", x.id);
    }
}

#[test]
fn sharded_recovery_is_bitwise_identical_to_never_crashed_and_unsharded() {
    for refresh in [RefreshStrategy::EpochSwap, RefreshStrategy::PerRow] {
        recovery_is_bitwise_under(refresh);
    }
}

fn recovery_is_bitwise_under(refresh: RefreshStrategy) {
    let dir = temp_dir(&format!("bitwise-{refresh:?}"));
    let stream = update_stream();
    let split = 7; // crash after this many acknowledged updates

    // Never-crashed references: one sharded, one unsharded, both
    // absorbing the full stream in a single life.
    let sharded_oracle = sharded_on(serving_task(), refresh);
    let unsharded_oracle = unsharded_on(serving_task(), refresh);
    for req in &stream {
        assert!(sharded_oracle.apply_update(req).ok);
        assert!(unsharded_oracle.apply_update(req).ok);
    }

    // Durable sharded life 1: crash (drop, no drain) mid-stream.
    let state = scan(&dir).expect("fresh scan");
    let life1 =
        DurableEngine::attach(sharded_on(serving_task(), refresh), &dir, 3, state).expect("attach");
    for req in &stream[..split] {
        let ack = life1.apply_update(req);
        assert!(ack.ok, "ack {}: {:?}", req.id, ack.error);
    }
    drop(life1);

    // Recovery: rebuild the *sharded* engine from the recovered global
    // snapshot — the coordinator re-partitions it — then replay the WAL
    // tail through the scatter path and finish the stream. The shards'
    // owned-row lists must match the coordinator's ownership both after
    // the replay and after the rest of the stream.
    let state = scan(&dir).expect("recovery scan");
    let task = state
        .snapshot
        .as_ref()
        .expect("snapshot")
        .restore_task()
        .expect("restore");
    let recovered = sharded_session(task, refresh);
    let life2 =
        Arc::new(DurableEngine::attach(recovered.clone(), &dir, 3, state).expect("recover"));
    recovered
        .check_owned_rows()
        .expect("owned rows after recovery");
    for req in &stream[split..] {
        let ack = life2.apply_update(req);
        assert!(ack.ok, "post-recovery ack {}: {:?}", req.id, ack.error);
    }
    recovered
        .check_owned_rows()
        .expect("owned rows after the post-recovery stream");

    let life2: Arc<dyn QueryEngine> = life2;
    assert_same(
        &life2,
        &sharded_oracle,
        "recovered vs never-crashed sharded",
    );
    assert_same(&life2, &unsharded_oracle, "recovered sharded vs unsharded");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_summary_surfaces_durability_counters() {
    let dir = temp_dir("counters");
    let state = scan(&dir).expect("scan");
    let engine = sharded_on(serving_task(), RefreshStrategy::default());
    let engine = DurableEngine::attach(engine, &dir, 0, state).expect("attach");
    let reqs: Vec<UpdateRequest> = (0..4u64)
        .map(|i| UpdateRequest {
            id: i,
            op: UpdateOp::AddEdge {
                u: (i as usize * 13) % N,
                v: (i as usize * 13 + 50) % N,
            },
        })
        .collect();
    for req in &reqs {
        assert!(engine.apply_update(req).ok);
    }
    engine.sync_durability().expect("sync");
    let summary = engine.session_summary().expect("summary");
    assert_eq!(summary.wal_appends, 4);
    assert!(summary.wal_bytes > 0);
    assert!(summary.snapshots >= 1, "drain-time snapshot");
    let _ = std::fs::remove_dir_all(&dir);
}
