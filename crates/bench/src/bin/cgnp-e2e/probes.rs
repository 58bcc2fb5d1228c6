//! Leaf probes: the public entry points the serving and training paths
//! bottom out in, each timed alone on the workload's real inputs. They
//! call only long-lived entry points — `QueryEngine` methods,
//! `from_checkpoint`, `parse_frame`, `to_json`, `rank_members`,
//! `context_for_shots`, `infer::*` free functions, `PreparedTask::{new,
//! refresh}`, method-form `matmul`/`spmm` — so the probes keep compiling
//! across the kernel and forward-pass consolidation ROADMAP item 3 plans.

use std::time::Instant;

use cgnp_core::{infer, Cgnp, InferModel, InferState, PreparedTask, RefreshStrategy};
use cgnp_data::model_input_dim;
use cgnp_eval::{load_checkpoint_file, restore, save_with_arch, ArchSpec};
use cgnp_graph::AttributedGraph;
use cgnp_nn::GraphContext;
use cgnp_serve::{parse_frame, rank_members, serve_task, QueryRequest};
use cgnp_shard::{halo_depth_for, partition_graph};
use cgnp_tensor::Matrix;

use crate::serve_workloads::{as_query, Inputs};
use crate::server::{PROGRAM_SEED, SHOTS};
use crate::stats::median;
use crate::stream::Frame;

/// Runs `f` once and returns its result with its wall time in microseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64() * 1e6)
}

/// Median wall time of `reps` calls, in microseconds.
pub fn time_us<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| timed(|| std::hint::black_box(f())).1)
        .collect();
    median(&samples)
}

/// A dense `rows × cols` operand with values that are neither zero nor
/// all equal, so no kernel can shortcut.
fn dense(rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols)
        .map(|i| ((i * 37 % 101) as f32 - 50.0) / 64.0)
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// `spmm` and `matmul` at the shape of one prepared task, default entry
/// points only: `(spmm_us, matmul_us, nnz, rows)`.
pub fn kernels(prepared: &PreparedTask, hidden: usize) -> (f64, f64, usize, usize) {
    let adj = prepared.gctx.gcn_adj().forward();
    let x = dense(adj.n_cols(), hidden);
    let w = dense(hidden, hidden);
    (
        time_us(9, || adj.spmm(&x)),
        time_us(9, || x.matmul(&w)),
        adj.nnz(),
        adj.n_rows(),
    )
}

/// The probes of the serving shape: the 3 200-node graph, the restored
/// checkpoint, and the frames the workload sends.
pub fn serving_shape(
    inputs: &Inputs,
    frames: &[Frame],
) -> Result<Vec<(&'static str, f64)>, String> {
    let graph = inputs.graph();
    let mut out = Vec::new();

    out.push(("data.load_dataset_us", time_us(3, Inputs::dataset)));
    out.push((
        "eval.checkpoint_load_us",
        time_us(3, || load_checkpoint_file(&inputs.checkpoint)),
    ));
    let ckpt = load_checkpoint_file(&inputs.checkpoint).map_err(|e| e.to_string())?;
    let mut config = ckpt
        .arch
        .as_ref()
        .ok_or("the shared checkpoint is not self-describing")?
        .to_config()?;
    config.encoder.in_dim = model_input_dim(graph);
    let hidden = config.encoder.hidden_dim;
    let model = Cgnp::new(config, PROGRAM_SEED);
    restore(&model, &ckpt)?;
    let saved = inputs.scratch.path("probe-checkpoint.json");
    out.push((
        "eval.checkpoint_save_us",
        time_us(3, || {
            save_with_arch(&model, ArchSpec::from_config(model.config()), &saved)
        }),
    ));

    let task = serve_task(graph, SHOTS, PROGRAM_SEED)?;
    out.push((
        "nn.graph_ctx_us",
        time_us(3, || GraphContext::new(graph.graph())),
    ));
    let mut prepared = PreparedTask::new(task);
    let (spmm_us, matmul_us, nnz, rows) = kernels(&prepared, hidden);
    out.push(("tensor.spmm_us", spmm_us));
    out.push(("tensor.matmul_us", matmul_us));
    // Computed from sizes, not measured: one multiply-add per stored
    // entry and output column; CSR values (f32) + column ids (usize) +
    // row pointers, one dense operand read and one written.
    out.push(("tensor.spmm_flops", (2 * nnz * hidden) as f64));
    out.push((
        "tensor.spmm_bytes",
        (nnz * (4 + 8) + (rows + 1) * 8 + 2 * rows * hidden * 4) as f64,
    ));

    // The engine a default `cgnp serve` selects: weights and operators
    // cast to f32 once, contexts from `InferModel::context` under the
    // session's effective math mode.
    let math = Inputs::serve_config().effective_math();
    let infer = InferModel::<f32>::from_model(&model);
    let state = InferState::<f32>::from_prepared(&prepared);
    let support = prepared.task.support.clone();
    out.push((
        "core.context_us",
        time_us(3, || infer.context(&state, &support, math)),
    ));
    let context = infer.context(&state, &support, math);
    let queries: Vec<QueryRequest> = frames.iter().filter_map(as_query).take(256).collect();
    let batches: Vec<Vec<Vec<usize>>> = queries
        .chunks(8)
        .map(|tick| tick.iter().map(|q| q.nodes.clone()).collect())
        .collect();
    let threads = rayon::current_num_threads();
    let mut batch = batches.iter().cycle();
    out.push((
        "core.score_batch_us",
        time_us(batches.len(), || {
            let tick = batch.next().expect("at least one query batch");
            infer::score_batch_with_threads(&context, tick, threads, math)
        }),
    ));

    let probs = infer::score_probs(&context, &queries[0].nodes, math);
    let mut query = queries.iter().cycle();
    out.push((
        "serve.rank_us",
        time_us(queries.len(), || {
            rank_members(graph, &probs, query.next().expect("queries"))
        }),
    ));
    let session = inputs.session()?;
    let responses = session.answer_batch(&queries[..queries.len().min(64)]);
    let mut response = responses.iter().cycle();
    out.push((
        "serve.to_json_us",
        time_us(responses.len(), || {
            response.next().expect("responses").to_json()
        }),
    ));
    let mut frame = frames.iter().cycle();
    out.push((
        "serve.parse_us",
        time_us(frames.len().min(2048), || {
            parse_frame(frame.next().expect("frames").line.trim_end())
        }),
    ));

    // One inserted edge, then the refresh an update tick pays for.
    let n = graph.n();
    let mut edge = (0..n)
        .map(|i| (i, (i * 7 + n / 2) % n))
        .filter(|(u, v)| u != v);
    let mut insert_us = Vec::new();
    let mut refresh_us = Vec::new();
    for _ in 0..5 {
        let (u, v) = edge.next().expect("an edge to insert");
        insert_us.push(time_us(1, || prepared.task.graph.insert_edge(u, v)));
        refresh_us.push(time_us(1, || prepared.refresh(RefreshStrategy::EpochSwap)));
    }
    out.push(("graph.insert_edge_us", median(&insert_us)));
    out.push(("core.refresh_us", median(&refresh_us)));
    Ok(out)
}

/// Partitioning the serving graph the way `--shards` does.
pub fn partition(
    graph: &AttributedGraph,
    shards: usize,
) -> Result<Vec<(&'static str, f64)>, String> {
    let halo = halo_depth_for(&Inputs::template());
    let parts = partition_graph(graph.graph(), shards, halo, PROGRAM_SEED)?;
    Ok(vec![
        (
            "shard.partition_us",
            time_us(3, || {
                partition_graph(graph.graph(), shards, halo, PROGRAM_SEED)
            }),
        ),
        ("shard.edge_cut", parts.edge_cut(graph.graph()) as f64),
    ])
}
