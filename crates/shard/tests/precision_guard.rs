//! The sharded precision contract: every shard of a deployment scores
//! in the coordinator's dtype (each shard is built from the
//! coordinator's own `ServeConfig`, so there is nothing to mix), and a
//! sharded session answers queries identically to an unsharded session
//! of the same precision.

use std::sync::Arc;

use cgnp_core::{Cgnp, CgnpConfig, CommutativeOp};
use cgnp_data::{model_input_dim, QueryExample, Task};
use cgnp_graph::{AttributedGraph, Graph};
use cgnp_serve::{QueryRequest, ServeConfig, ServeSession};
use cgnp_shard::{ShardedConfig, ShardedSession};
use cgnp_tensor::Dtype;

const N: usize = 160;
const ARC: usize = 20;

/// Same long-diameter ring-with-chords substrate as the bitwise
/// equivalence suite: shards genuinely see only a fraction of it.
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

fn serving_task() -> Task {
    let support = (0..4)
        .map(|c| {
            let base = c * ARC;
            QueryExample {
                query: base + 3,
                pos: vec![base + 4, base + 7, base + 11],
                neg: vec![(base + ARC + 5) % N],
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

fn model() -> Arc<Cgnp> {
    let cfg = CgnpConfig::paper_default(model_input_dim(&serving_graph()), 8)
        .with_commutative(CommutativeOp::Mean);
    Arc::new(Cgnp::new(cfg, 7))
}

fn cfg_with(precision: Dtype) -> ShardedConfig {
    ShardedConfig {
        shards: 3,
        replicas: 1,
        serve: ServeConfig {
            batch: 4,
            threads: 2,
            seed: 9,
            precision,
            ..ServeConfig::default()
        },
    }
}

#[test]
fn typed_sharded_session_matches_unsharded_session() {
    // The scatter/gather (rows gathered as raw f64 bits, centroid
    // broadcast, owned-row merge) must reproduce an unsharded f64
    // session: same kernels, same accumulation order per row.
    let m = model();
    let task = serving_task();
    let scfg = cfg_with(Dtype::F64);
    let sharded = ShardedSession::with_shared_model(Arc::clone(&m), task.clone(), scfg).unwrap();
    let single = ServeSession::with_shared_model(m, task, scfg.serve).unwrap();

    for (id, nodes) in [(1u64, vec![5usize]), (2, vec![83, 150]), (3, vec![40])] {
        let req = QueryRequest::new(id, nodes).with_top_k(12);
        let a = single.answer(&req);
        let b = sharded.answer(&req);
        assert!(a.ok && b.ok);
        assert_eq!(a.members, b.members, "request {id}: member lists diverged");
        let a_bits: Vec<u32> = a.probs.iter().map(|p| p.to_bits()).collect();
        let b_bits: Vec<u32> = b.probs.iter().map(|p| p.to_bits()).collect();
        assert_eq!(a_bits, b_bits, "request {id}: probability bits diverged");
        assert_eq!(b.members.len(), 12);
    }
    assert_eq!(sharded.summary().precision, "f64");
}
