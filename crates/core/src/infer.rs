//! The serving executor: the forward-only half of CGNP (Alg. 2) on the
//! plain backend. Meta-test never takes a gradient, so it never needs the
//! autodiff tape: **every** serving session — either dtype, sharded or
//! not — builds its contexts and scores its queries here, in `f32` or
//! `f64` storage; so do [`Cgnp::predict_task`] and the validation sweep,
//! in `f32`.
//!
//! There is one forward pass. [`InferModel<E>`] *is* [`Cgnp`] — the same
//! encoder, ⊕ and decoder code — holding the trained weights cast to `E`
//! once ([`InferModel::from_model`]); [`InferState<E>`] is a
//! [`PreparedTask`]'s operators and base features cast once
//! ([`InferState::from_prepared`]), read through [`cgnp_nn::Plain`].
//! Each op of the set runs the tape's kernel in the tape's order, so the
//! `f32` instantiation reproduces the taped oracle
//! ([`Cgnp::predict_multi`]) bitwise — pinned for every encoder kind,
//! decoder and ⊕ by `f32_exact_executor_is_bitwise_identical`.
//!
//! Three things exist only here, each chosen by what the code observes:
//!
//! - **The encoder's first layer, when it is GAT, runs once per support
//!   pool** rather than once per shot. The shots of a pool share the graph
//!   and the base features and differ only in the indicator column of
//!   their few marked nodes, so their first layers differ only on those
//!   nodes and their neighbours; [`SharedFirstLayer`] evaluates the
//!   indicator-free layer once and patches those rows per shot, and says
//!   why that is exact. Sharing stops there: two hops out the patched
//!   region is already a third of a graph, three hops all of it. The
//!   choice follows what is observed (first-layer kind, shot count);
//!   GCN/SAGE encoders and single shots take the per-shot path.
//! - **A task's views can spread across the pool**
//!   ([`InferModel::context_with_threads`]). On a meta-test ball of ≈ 150
//!   nodes a product is too small for the kernels to split well, so the
//!   shots' views run one per worker instead, each job on its own copy of
//!   the shared first layer, and ⊕ joins them in support order on the
//!   caller. Serving does not: its contexts cover the whole graph, where
//!   the kernels already split thousands of rows across the pool, and
//!   per-worker copies of two whole-graph matrices only add memory, so
//!   [`InferModel::context`] runs its views serially.
//! - **A tick's queries are scored in one pass over the context.** The
//!   queries of a micro-batch that condition on the same shots share the
//!   context `H` and differ only in their centroid, so
//!   [`score_batch_with_threads`] takes each query's centroid exactly as
//!   a lone query would (`select_rows(q).mean_rows()`) and hands them all
//!   to [`CentroidScores`], which reads every context row once and scores
//!   it against every centroid. A logit stays what the oracle computes —
//!   one inner product accumulated in index order from zero, then the
//!   sigmoid — and each (node, query) pair is a chain of its own that no
//!   neighbouring pair feeds, so a query's probability vector has the
//!   same bits alone, at any position of any batch, and on any number of
//!   workers. A query repeated in ticks of other shapes (it must answer
//!   the same bits each time) and sharded serving (a coordinator scores
//!   each query alone, shard by shard, where the unsharded session
//!   batches the tick) both lean on that, and
//!   `a_querys_scores_do_not_depend_on_its_batch` pins it.

use cgnp_data::{with_indicator, QueryExample};
use cgnp_nn::{AnyGnnLayer, GatLayer, GnnEncoder, Plain, PlainGraph, Trained};
use cgnp_tensor::{CentroidScores, Elem, KernelCtx, MathMode, MatrixT};

use crate::model::{marked_nodes, Cgnp, PreparedTask};
use crate::par::par_map;

/// A trained [`Cgnp`] with its weights cast to element type `E`, ready for
/// forward-only serving: the same model code on the plain backend.
pub type InferModel<E> = Cgnp<MatrixT<E>>;

impl<E: Elem> InferModel<E> {
    /// `model`'s twin, every weight cast to `E` once; the source model is
    /// not retained.
    pub fn from_model(model: &Cgnp) -> Self {
        Self::build(model.config().clone(), &mut Trained::of(model))
    }

    /// Runtime tag of this executor's element type.
    pub fn dtype(&self) -> cgnp_tensor::Dtype {
        E::DTYPE
    }

    /// Encoder view for one support pair, the taped `Cgnp::encode_view`
    /// on the plain backend.
    fn shot_view(&self, state: &InferState<E>, example: &QueryExample) -> MatrixT<E> {
        let x = with_indicator(&state.base, &marked_nodes(example));
        self.encoder.forward_from(&state.backend(), x, 0, &[])
    }

    /// The decoded task context, eval-mode [`Cgnp::context`] on the plain
    /// backend: views → ⊕ → decoder transform, all in `E`. `support` is
    /// explicit so callers can condition on any subset of a task's
    /// labelled examples (a per-request shot count).
    ///
    /// With a GAT first layer and more than one shot the views come from
    /// [`SharedFirstLayer`]; the result is the same bit for bit. The views
    /// run one after another on the caller: serving's contexts span the
    /// whole graph, where the kernels already fill the pool.
    ///
    /// `_mode` is accepted and ignored: there is one kernel tier; ROADMAP
    /// direction 2 deletes it.
    pub fn context(
        &self,
        state: &InferState<E>,
        support: &[QueryExample],
        _mode: MathMode,
    ) -> MatrixT<E> {
        self.context_with_threads(state, support, 1)
    }

    /// [`InferModel::context`] with the shots' views computed on at most
    /// `threads` pool workers, for contexts too small for the kernels to
    /// split: a task's ball of ≈ 150 nodes. Inside a view job the pool
    /// reports a width of 1, so each view's kernels run serially. With a
    /// shared first layer each job works on its own copy of the layer's
    /// two `n × d` matrices, which [`SharedFirstLayer::view`] patches in
    /// place. ⊕ takes the views in support order on the caller, so the
    /// result has the same bits for every `threads`.
    pub fn context_with_threads(
        &self,
        state: &InferState<E>,
        support: &[QueryExample],
        threads: usize,
    ) -> MatrixT<E> {
        assert!(!support.is_empty(), "CGNP requires a non-empty support set");
        let b = state.backend();
        let threads = threads.clamp(1, support.len());
        // Serially, ⊕ takes each view as it is made and the shared layer
        // is patched in place: one view alive at a time, nothing copied.
        match self.encoder.layers().first() {
            Some(AnyGnnLayer::Gat(gat)) if support.len() > 1 => {
                let mut shared = SharedFirstLayer::new(&self.encoder, gat, state, b);
                if threads == 1 {
                    let views = support.iter().map(|ex| shared.view(marked_nodes(ex)));
                    return self.join(&b, views, &[]);
                }
                let chunks: Vec<_> = support.chunks(support.len().div_ceil(threads)).collect();
                let views = par_map(&chunks, threads, |chunk| {
                    let mut own = shared.clone();
                    (chunk.iter())
                        .map(|ex| own.view(marked_nodes(ex)))
                        .collect::<Vec<_>>()
                });
                self.join(&b, views.into_iter().flatten(), &[])
            }
            _ if threads == 1 => {
                let views = support.iter().map(|ex| self.shot_view(state, ex));
                self.join(&b, views, &[])
            }
            _ => {
                let views = par_map(support, threads, |ex| self.shot_view(state, ex));
                self.join(&b, views, &[])
            }
        }
    }
}

/// The encoder's first layer, when it is GAT, evaluated once for a whole
/// support pool instead of once per shot.
///
/// Shot `q`'s input is `X_q = [1_{M_q} | base]` with `M_q` its marked
/// nodes, so the inputs of a pool differ only in column 0 of the rows
/// `M_q`. The matmul accumulates every output element in strictly
/// increasing `k` and skips a zero left operand, so row `r ∉ M_q` of `X_q·W`
/// is bitwise row `r` of `[0 | base]·W`. An attention output row reads
/// only the projection rows of its arc sources, and the arcs are
/// symmetric with self-loops, so view `q`'s layer-1 output differs from
/// the indicator-free one only on `M_q` and its neighbours. Hence:
/// project, attend and activate the indicator-free input once; per shot
/// re-project the `|M_q|` rows, recompute the reached output
/// rows through the same row kernel, and run the remaining layers as
/// before. Patched rows are swapped in and back out, so nothing
/// `n`-sized is copied per shot.
#[derive(Clone)]
struct SharedFirstLayer<'a, E: Elem> {
    encoder: &'a GnnEncoder<MatrixT<E>>,
    gat: &'a GatLayer<MatrixT<E>>,
    state: &'a InferState<E>,
    b: Plain<'a, E>,
    /// `[0 | base]·W`.
    z: MatrixT<E>,
    /// Layer-1 output for `z`, activated when a layer follows.
    h: MatrixT<E>,
}

impl<'a, E: Elem> SharedFirstLayer<'a, E> {
    fn new(
        encoder: &'a GnnEncoder<MatrixT<E>>,
        gat: &'a GatLayer<MatrixT<E>>,
        state: &'a InferState<E>,
        b: Plain<'a, E>,
    ) -> Self {
        let z = gat.project(&b, &with_indicator(&state.base, &[]));
        let h = encoder.after(0, &b, gat.attend(&b, &z), &[]);
        Self {
            encoder,
            gat,
            state,
            b,
            z,
            h,
        }
    }

    /// The encoder view whose indicator marks `marked`, bitwise what
    /// [`InferModel::shot_view`] computes from scratch.
    fn view(&mut self, mut marked: Vec<usize>) -> MatrixT<E> {
        marked.sort_unstable();
        marked.dedup();
        let mut reached: Vec<usize> = marked
            .iter()
            .flat_map(|&v| self.b.graph.arc_sources(v))
            .chain(&marked)
            .copied()
            .collect();
        reached.sort_unstable();
        reached.dedup();

        let b = &self.b;
        let mut z_rows = self.gat.project(b, &self.state.marked_rows(&marked));
        swap_rows(&mut self.z, &marked, &mut z_rows);
        let h_rows = self.gat.attend_rows(b, &self.z, &reached);
        swap_rows(&mut self.z, &marked, &mut z_rows);
        let mut h_rows = self.encoder.after(0, b, h_rows, &[]);

        swap_rows(&mut self.h, &reached, &mut h_rows);
        let h1 = match self.encoder.n_layers() {
            1 => self.h.clone(),
            _ => self.encoder.layer(1, b, &self.h, &[]),
        };
        swap_rows(&mut self.h, &reached, &mut h_rows);
        self.encoder.forward_from(b, h1, 2, &[])
    }
}

/// Exchanges row `rows[i]` of `m` with row `i` of `patch`; calling it
/// twice restores both.
fn swap_rows<E: Elem>(m: &mut MatrixT<E>, rows: &[usize], patch: &mut MatrixT<E>) {
    for (i, &r) in rows.iter().enumerate() {
        m.row_mut(r).swap_with_slice(patch.row_mut(i));
    }
}

/// A [`PreparedTask`]'s operators and base features cast to `E`.
/// Rebuild (cheap casts) whenever the prepared task refreshes.
pub struct InferState<E: Elem> {
    graph: PlainGraph<E>,
    base: MatrixT<E>,
}

impl<E: Elem> InferState<E> {
    pub fn from_prepared(prepared: &PreparedTask) -> Self {
        Self {
            graph: PlainGraph::new(&prepared.gctx),
            base: prepared.base.cast(),
        }
    }

    #[inline]
    pub fn n(&self) -> usize {
        self.base.rows()
    }

    /// The plain backend over this graph, at work-sized fan-out.
    fn backend(&self) -> Plain<'_, E> {
        Plain {
            graph: &self.graph,
            ctx: KernelCtx::default(),
        }
    }

    /// Rows `nodes` of the base features with `nodes` marked (see
    /// [`with_indicator`]).
    fn marked_rows(&self, nodes: &[usize]) -> MatrixT<E> {
        let ones = MatrixT::full(nodes.len(), 1, E::ONE);
        MatrixT::hstack(&[&ones, &self.base.select_rows(nodes)])
    }
}

/// Mean of pre-gathered context rows: the centroid of one query set, for
/// coordinators that gather query rows from several shard-local
/// contexts. Stacking the same row bits in the same order feeds the
/// identical `mean_rows` kernel, so the result is bitwise-equal to the
/// centroid [`score_batch_with_threads`] takes from one whole context.
pub fn centroid_of_rows<E: Elem>(rows: &[&[E]]) -> Vec<E> {
    assert!(!rows.is_empty(), "centroid needs at least one row");
    let d = rows[0].len();
    let mut stacked = MatrixT::zeros(rows.len(), d);
    for (r, row) in rows.iter().enumerate() {
        assert_eq!(row.len(), d, "centroid rows must share a width");
        stacked.row_mut(r).copy_from_slice(row);
    }
    stacked.mean_rows().as_slice().to_vec()
}

/// One tick's scoring: the centroid of each query set's context rows,
/// stacked, then one [`CentroidScores`] pass over the context for all of
/// them.
fn score_sets<E: Elem>(context: &MatrixT<E>, sets: &[&[usize]], ctx: KernelCtx) -> Vec<Vec<f32>> {
    let mut centroids = Vec::with_capacity(sets.len() * context.cols());
    for queries in sets {
        assert!(!queries.is_empty(), "need at least one query node");
        centroids.extend_from_slice(context.select_rows(queries).mean_rows().as_slice());
    }
    CentroidScores {
        context,
        centroids: &MatrixT::from_vec(sets.len(), context.cols(), centroids),
    }
    .forward(None, ctx)
}

/// Membership probabilities for one query set against a context (the
/// cheap half of Alg. 2): centroid of the query rows, inner products,
/// sigmoid — a batch of one through the same code as a tick.
/// Probabilities come back as `f32`, the wire format of every serving
/// response, after the logits and sigmoid are computed in `E`. `_mode`
/// is accepted and ignored: there is one kernel tier; ROADMAP direction 2
/// deletes it.
pub fn score_probs<E: Elem>(context: &MatrixT<E>, queries: &[usize], _mode: MathMode) -> Vec<f32> {
    score_sets(context, &[queries], KernelCtx::default())
        .pop()
        .expect("one vector per query set")
}

/// Scores a micro-batch of query sets against one shared context in one
/// pass over it, the context rows split across at most `threads` pool
/// workers — what a serving session calls per tick, the context itself
/// being cached across ticks. `_mode` is accepted and ignored: there is
/// one kernel tier; ROADMAP direction 2 deletes it.
pub fn score_batch_with_threads<E: Elem>(
    context: &MatrixT<E>,
    batch: &[Vec<usize>],
    threads: usize,
    _mode: MathMode,
) -> Vec<Vec<f32>> {
    let sets: Vec<&[usize]> = batch.iter().map(Vec::as_slice).collect();
    score_sets(context, &sets, KernelCtx::threads(threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CgnpConfig, CommutativeOp, DecoderKind};
    use cgnp_data::{sample_task, SbmConfig, TaskConfig, NO_QUERY};
    use cgnp_nn::GnnKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sampled_task(seed: u64, shots: usize) -> cgnp_data::Task {
        let ag =
            cgnp_data::generate_sbm(&SbmConfig::small_test(), &mut StdRng::seed_from_u64(seed));
        let cfg = TaskConfig {
            subgraph_size: 50,
            shots,
            n_targets: 4,
            ..Default::default()
        };
        sample_task(&ag, &cfg, None, &mut StdRng::seed_from_u64(seed)).expect("task")
    }

    fn prepared_task(seed: u64) -> PreparedTask {
        PreparedTask::new(sampled_task(seed, 3))
    }

    fn model_for(p: &PreparedTask, decoder: DecoderKind, op: CommutativeOp) -> Cgnp {
        let in_dim = cgnp_data::model_input_dim(&p.task.graph);
        let cfg = CgnpConfig::paper_default(in_dim, 8)
            .with_decoder(decoder)
            .with_commutative(op);
        Cgnp::new(cfg, 1)
    }

    /// The taped oracle.
    fn tensor_probs(model: &Cgnp, p: &PreparedTask, queries: &[usize]) -> Vec<f32> {
        model.predict_multi(p, queries, &mut StdRng::seed_from_u64(0))
    }

    #[test]
    fn f32_exact_executor_is_bitwise_identical() {
        // The plain backend runs the model's own forward, each op on the
        // tape's kernel in the tape's order, so the f32 instantiation must
        // reproduce the autodiff path bit-for-bit — the property serving's
        // answers lean on.
        let p = prepared_task(21);
        let state = InferState::<f32>::from_prepared(&p);
        let queries = vec![p.task.targets[0].query, p.task.targets[1].query];
        for kind in [GnnKind::Gcn, GnnKind::Gat, GnnKind::Sage] {
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
                    let in_dim = cgnp_data::model_input_dim(&p.task.graph);
                    let cfg = CgnpConfig::paper_default(in_dim, 8)
                        .with_encoder_kind(kind)
                        .with_decoder(decoder)
                        .with_commutative(op);
                    let model = Cgnp::new(cfg, 1);
                    let im = InferModel::<f32>::from_model(&model);

                    let legacy = tensor_probs(&model, &p, &queries);
                    let ctx = im.context(&state, &p.task.support, MathMode::Exact);
                    let typed = score_probs(&ctx, &queries, MathMode::Exact);
                    assert_eq!(
                        legacy, typed,
                        "{kind}/{decoder:?}/{op:?} diverged from tensor path"
                    );
                }
            }
        }
    }

    /// The per-shot path — what `context` runs for GCN/SAGE first layers
    /// and single shots — spelled out, so the shared first layer can be
    /// held against it in either dtype.
    fn per_shot_context<E: Elem>(
        im: &InferModel<E>,
        state: &InferState<E>,
        support: &[QueryExample],
    ) -> MatrixT<E> {
        let views = support.iter().map(|ex| im.shot_view(state, ex));
        im.join(&state.backend(), views, &[])
    }

    fn bits<E: Elem>(m: &MatrixT<E>) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_f64().to_bits()).collect()
    }

    #[test]
    fn shared_first_layer_is_bitwise_the_per_shot_path_and_the_oracle() {
        // A sampled 5-shot pool plus the shapes of marked set the serving
        // stack produces: a query that is also one of its positives, the
        // sharded `NO_QUERY` sentinel with nothing marked, and a marked
        // node whose only arc is its self-loop.
        let mut task = sampled_task(25, 5);
        let isolated = task.graph.add_node(vec![]).expect("add node");
        let sampled = task.support.clone();
        let example = |query: usize, pos: Vec<usize>| QueryExample {
            query,
            pos,
            neg: vec![],
            truth: vec![],
        };
        let q = sampled[0].query;
        let odd = [
            example(q, vec![q, sampled[0].pos[0]]),
            example(NO_QUERY, vec![]),
            example(isolated, vec![]),
            example(NO_QUERY, vec![sampled[1].query, isolated]),
        ];
        let pools = [&sampled[..1], &sampled[..2], &sampled[..], &odd[..]];
        let queries = vec![task.targets[0].query, isolated];
        let mut p = PreparedTask::new(task);
        let (s32, s64) = (
            InferState::<f32>::from_prepared(&p),
            InferState::<f64>::from_prepared(&p),
        );
        let in_dim = cgnp_data::model_input_dim(&p.task.graph);

        for n_layers in [1, 3] {
            for decoder in [DecoderKind::InnerProduct, DecoderKind::Gnn] {
                for op in [
                    CommutativeOp::Sum,
                    CommutativeOp::Mean,
                    CommutativeOp::SelfAttention,
                ] {
                    let mut cfg = CgnpConfig::paper_default(in_dim, 8)
                        .with_decoder(decoder)
                        .with_commutative(op);
                    cfg.encoder.n_layers = n_layers;
                    let model = Cgnp::new(cfg, 2);
                    let (m32, m64) = (
                        InferModel::<f32>::from_model(&model),
                        InferModel::<f64>::from_model(&model),
                    );
                    for pool in pools {
                        let what =
                            format!("{n_layers} layers/{decoder:?}/{op:?}/{} shots", pool.len());
                        p.task.support = pool.to_vec();
                        let oracle = tensor_probs(&model, &p, &queries);

                        let ctx = m32.context(&s32, pool, MathMode::Exact);
                        assert_eq!(
                            score_probs(&ctx, &queries, MathMode::Exact),
                            oracle,
                            "{what}"
                        );
                        // The shared layer must not move a bit of the
                        // per-shot result.
                        assert_eq!(
                            bits(&ctx),
                            bits(&per_shot_context(&m32, &s32, pool)),
                            "{what}/f32"
                        );
                        assert_eq!(
                            bits(&m64.context(&s64, pool, MathMode::Exact)),
                            bits(&per_shot_context(&m64, &s64, pool)),
                            "{what}/f64"
                        );
                        let wide = m64.context(&s64, pool, MathMode::Exact);
                        for (a, b) in
                            oracle
                                .iter()
                                .zip(score_probs(&wide, &queries, MathMode::Exact))
                        {
                            assert!((a - b).abs() < 1e-4, "{what}: f64 drifted: {a} vs {b}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn f64_executor_tracks_f32_closely() {
        let p = prepared_task(22);
        let model = model_for(&p, DecoderKind::Mlp, CommutativeOp::SelfAttention);
        let q = vec![p.task.targets[0].query];

        let legacy = tensor_probs(&model, &p, &q);
        let im = InferModel::<f64>::from_model(&model);
        let state = InferState::<f64>::from_prepared(&p);
        let ctx = im.context(&state, &p.task.support, MathMode::Exact);
        let wide = score_probs(&ctx, &q, MathMode::Exact);
        assert_eq!(legacy.len(), wide.len());
        for (a, b) in legacy.iter().zip(&wide) {
            assert!((a - b).abs() < 1e-4, "f64 drifted: {a} vs {b}");
        }
    }

    #[test]
    fn math_mode_is_accepted_and_ignored() {
        // There is one kernel tier: a context built and scored at
        // `MathMode::Fast` is the same bits as at `Exact`, in either dtype.
        fn check<E: Elem>(model: &Cgnp, p: &PreparedTask) {
            let im = InferModel::<E>::from_model(model);
            let state = InferState::<E>::from_prepared(p);
            let exact = im.context(&state, &p.task.support, MathMode::Exact);
            let fast = im.context(&state, &p.task.support, MathMode::Fast);
            assert_eq!(bits(&fast), bits(&exact), "{} context", E::DTYPE);
            let q = vec![p.task.targets[0].query];
            let batch = vec![q.clone(), vec![p.task.targets[1].query]];
            assert_eq!(
                score_probs(&fast, &q, MathMode::Fast),
                score_probs(&exact, &q, MathMode::Exact)
            );
            assert_eq!(
                score_batch_with_threads(&fast, &batch, 2, MathMode::Fast),
                score_batch_with_threads(&exact, &batch, 2, MathMode::Exact)
            );
        }
        let p = prepared_task(23);
        for decoder in [
            DecoderKind::InnerProduct,
            DecoderKind::Mlp,
            DecoderKind::Gnn,
        ] {
            let model = model_for(&p, decoder, CommutativeOp::Mean);
            check::<f32>(&model, &p);
            check::<f64>(&model, &p);
        }
    }

    #[test]
    fn centroid_scoring_matches_query_scoring() {
        let p = prepared_task(24);
        let model = model_for(&p, DecoderKind::InnerProduct, CommutativeOp::Mean);
        let im = InferModel::<f64>::from_model(&model);
        let state = InferState::<f64>::from_prepared(&p);
        let ctx = im.context(&state, &p.task.support, MathMode::Exact);
        let queries = vec![p.task.targets[0].query, p.task.targets[2].query];
        let direct = score_probs(&ctx, &queries, MathMode::Exact);

        // Coordinator-style: centroid from individually gathered rows,
        // scored on a row subset — the entries of the full vector.
        let rows: Vec<&[f64]> = queries.iter().map(|&q| ctx.row(q)).collect();
        let centroid = centroid_of_rows(&rows);
        let scores = CentroidScores {
            context: &ctx,
            centroids: &MatrixT::from_vec(1, centroid.len(), centroid),
        };
        assert_eq!(
            scores.forward(None, KernelCtx::threads(1)),
            std::slice::from_ref(&direct)
        );
        let owned: Vec<usize> = (0..ctx.rows()).rev().step_by(3).collect();
        let expect: Vec<f32> = owned.iter().map(|&v| direct[v]).collect();
        assert_eq!(
            scores.forward(Some(&owned), KernelCtx::threads(2)),
            [expect]
        );
    }

    /// A query's probability vector as raw bits, scored in `batch` at
    /// position `at`.
    fn scored_bits<E: Elem>(
        ctx: &MatrixT<E>,
        batch: &[Vec<usize>],
        at: usize,
        threads: usize,
    ) -> Vec<u32> {
        let probs = score_batch_with_threads(ctx, batch, threads, MathMode::Exact);
        assert_eq!(probs.len(), batch.len());
        probs[at].iter().map(|p| p.to_bits()).collect()
    }

    #[test]
    fn a_querys_scores_do_not_depend_on_its_batch() {
        // A query repeated in later ticks of any shape must answer the
        // same bits, and a sharded coordinator scores a query alone where
        // the unsharded session batches its tick: a vector must be the
        // same bits alone, first, last, duplicated and in a batch wider
        // than one panel, at any worker count.
        fn check<E: Elem>(
            model: &Cgnp,
            p: &PreparedTask,
            sets: &[Vec<usize>],
            oracle: Option<&[Vec<f32>]>,
        ) {
            let im = InferModel::<E>::from_model(model);
            let state = InferState::<E>::from_prepared(p);
            let filler: Vec<Vec<usize>> = (0..8).map(|i| vec![(i * 7) % p.task.n()]).collect();
            let ctx = im.context(&state, &p.task.support, MathMode::Exact);
            for (s, set) in sets.iter().enumerate() {
                let what = format!("{}/set {s}", E::DTYPE);
                let alone = scored_bits(&ctx, std::slice::from_ref(set), 0, 1);
                let single: Vec<u32> = score_probs(&ctx, set, MathMode::Exact)
                    .iter()
                    .map(|p| p.to_bits())
                    .collect();
                assert_eq!(single, alone, "{what}: score_probs");
                if let Some(oracle) = oracle {
                    let want: Vec<u32> = oracle[s].iter().map(|p| p.to_bits()).collect();
                    assert_eq!(alone, want, "{what}: taped oracle");
                }

                let mut first = vec![set.clone()];
                first.extend_from_slice(&filler[..2]);
                let mut last = filler[..3].to_vec();
                last.push(set.clone());
                let duplicated = vec![set.clone(), filler[0].clone(), set.clone()];
                let mut nine = filler.clone();
                nine.insert(5, set.clone());
                for threads in [1, 2, 3] {
                    let what = format!("{what}/{threads} threads");
                    assert_eq!(scored_bits(&ctx, &first, 0, threads), alone, "{what}");
                    assert_eq!(scored_bits(&ctx, &last, 3, threads), alone, "{what}");
                    for at in [0, 2] {
                        assert_eq!(scored_bits(&ctx, &duplicated, at, threads), alone, "{what}");
                    }
                    assert_eq!(scored_bits(&ctx, &nine, 5, threads), alone, "{what}");
                }
            }
        }

        let p = prepared_task(26);
        let model = model_for(&p, DecoderKind::Mlp, CommutativeOp::Mean);
        let t: Vec<usize> = p.task.targets.iter().map(|ex| ex.query).collect();
        let sets = [vec![t[0]], vec![t[1], t[2]], vec![t[3], t[0], t[3]]];
        let oracle: Vec<Vec<f32>> = sets
            .iter()
            .map(|set| tensor_probs(&model, &p, set))
            .collect();
        check::<f32>(&model, &p, &sets, Some(&oracle));
        check::<f64>(&model, &p, &sets, None);
    }
}
