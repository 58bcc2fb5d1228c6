//! The serving executor: the forward-only half of CGNP (Alg. 2) over
//! plain [`MatrixT<E>`] matrices. Meta-test never takes a gradient, so
//! serving never needs the autodiff tape: **every** serving session —
//! any dtype, either kernel tier, sharded or not — builds its contexts
//! and scores its queries here, in `f32` or `f64` storage, with
//! [`MathMode`] choosing the kernels.
//!
//! Training, and the evaluation oracle [`Cgnp::predict`] /
//! [`Cgnp::predict_multi`] / [`Cgnp::predict_task`], stay on the
//! [`cgnp_tensor::Tensor`] tape. This module snapshots a trained
//! [`Cgnp`]'s weights once ([`InferModel::from_model`]) and a
//! [`PreparedTask`]'s operators once ([`InferState::from_prepared`]),
//! both cast to the session's element type. Every op here mirrors its
//! tensor counterpart expression-for-expression (same accumulation
//! order, same stability tricks), so the `f32`/`Exact` instantiation
//! reproduces [`Cgnp::predict_multi`] bitwise — pinned for every encoder
//! kind, decoder and ⊕ by `f32_exact_executor_is_bitwise_identical`.
//!
//! Three places compute the same values as the tape with fewer passes:
//!
//! - **GAT layers** run [`SegmentAttention`]: scores, logits, softmax and
//!   aggregation in one arc-order pass per destination row, over the arc
//!   list indexed as a CSR ([`InferState`] keeps `dst_ptr`, not the
//!   per-arc destinations).
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
//!   workers. The prediction cache (a vector scored in one tick answers
//!   another) and sharded serving (a coordinator scores each query alone,
//!   shard by shard, where the unsharded session batches the tick) both
//!   lean on that, and
//!   `a_querys_scores_do_not_depend_on_its_batch` pins it.

use cgnp_data::{QueryExample, NO_QUERY};
use cgnp_nn::{Activation, AnyGnnLayer, GnnEncoder, Linear, Mlp};
use cgnp_tensor::{
    CentroidScores, CsrMatrixT, Elem, KernelCtx, MathMode, MatrixT, SegmentAttention,
};

use crate::commutative::Commutative;
use crate::decoder::Decoder;
use crate::model::{Cgnp, PreparedTask};

/// One message-passing layer with weights snapshotted into `E`.
enum InferLayer<E: Elem> {
    /// `H' = Â (H W) + b`.
    Gcn { w: MatrixT<E>, b: MatrixT<E> },
    /// Single-head additive attention (see [`cgnp_nn::GatLayer`]).
    Gat(InferGat<E>),
    /// `H' = H W_self + b + (D^{-1} A H) W_neigh`.
    Sage {
        w_self: MatrixT<E>,
        b_self: MatrixT<E>,
        w_neigh: MatrixT<E>,
    },
}

impl<E: Elem> InferLayer<E> {
    fn from_layer(layer: &AnyGnnLayer) -> Self {
        match layer {
            AnyGnnLayer::Gcn(l) => Self::Gcn {
                w: l.linear().weight().value().cast(),
                b: l.linear()
                    .bias()
                    .expect("GCN layers are biased")
                    .value()
                    .cast(),
            },
            AnyGnnLayer::Gat(l) => Self::Gat(InferGat {
                w: l.lin().weight().value().cast(),
                a_src: l.a_src().value().cast(),
                a_dst: l.a_dst().value().cast(),
                bias: l.bias().value().cast(),
                slope: E::from_f32(l.negative_slope()),
            }),
            AnyGnnLayer::Sage(l) => Self::Sage {
                w_self: l.w_self().weight().value().cast(),
                b_self: l
                    .w_self()
                    .bias()
                    .expect("SAGE self projection is biased")
                    .value()
                    .cast(),
                w_neigh: l.w_neigh().weight().value().cast(),
            },
        }
    }

    fn forward(&self, state: &InferState<E>, x: &MatrixT<E>, mode: MathMode) -> MatrixT<E> {
        let ctx = KernelCtx::from(mode);
        match self {
            Self::Gcn { w, b } => state
                .gcn_adj
                .spmm_in(&x.matmul_in(w, None, ctx), Some(b), ctx),
            Self::Gat(gat) => gat.attend(state, &x.matmul_in(&gat.w, None, ctx), None),
            Self::Sage {
                w_self,
                b_self,
                w_neigh,
            } => {
                let self_term = x.matmul_in(w_self, Some(b_self), ctx);
                let neigh = state
                    .mean_adj
                    .spmm_in(x, None, ctx)
                    .matmul_in(w_neigh, None, ctx);
                self_term.add(&neigh)
            }
        }
    }
}

/// A GAT layer's weights: `z = x W`, then segment attention over the
/// arcs (`a_src`/`a_dst` are `out×1` columns, `bias` a `1×out` row).
struct InferGat<E: Elem> {
    w: MatrixT<E>,
    a_src: MatrixT<E>,
    a_dst: MatrixT<E>,
    bias: MatrixT<E>,
    slope: E,
}

impl<E: Elem> InferGat<E> {
    /// Attention output for the projection `z`: every node's row, or
    /// only `rows` (see [`SegmentAttention::forward`]).
    fn attend(&self, state: &InferState<E>, z: &MatrixT<E>, rows: Option<&[usize]>) -> MatrixT<E> {
        SegmentAttention {
            dst_ptr: &state.dst_ptr,
            src: &state.arc_src,
            a_src: self.a_src.as_slice(),
            a_dst: self.a_dst.as_slice(),
            bias: self.bias.as_slice(),
            slope: self.slope,
        }
        .forward(z, rows, None)
    }
}

/// A GNN stack (encoder or GNN decoder) snapshotted into `E`.
struct InferGnn<E: Elem> {
    layers: Vec<InferLayer<E>>,
    activation: Activation,
}

impl<E: Elem> InferGnn<E> {
    fn from_encoder(enc: &GnnEncoder) -> Self {
        Self {
            layers: enc.layers().iter().map(InferLayer::from_layer).collect(),
            activation: enc.config().activation,
        }
    }

    /// The activation that follows layer `i`: none after the last.
    fn activate_after(&self, i: usize, h: &mut MatrixT<E>) {
        if i + 1 < self.layers.len() {
            apply_activation(self.activation, h);
        }
    }

    /// Layer `i` and the activation that follows it.
    fn layer(&self, i: usize, state: &InferState<E>, x: &MatrixT<E>, mode: MathMode) -> MatrixT<E> {
        let mut h = self.layers[i].forward(state, x, mode);
        self.activate_after(i, &mut h);
        h
    }

    /// Eval-mode forward through `layers[from..]` (all of them for
    /// `from = 0`, none past the end): activation between layers, none
    /// after the last, dropout elided (identity in eval mode).
    fn forward(
        &self,
        state: &InferState<E>,
        x: MatrixT<E>,
        from: usize,
        mode: MathMode,
    ) -> MatrixT<E> {
        let mut h = x;
        for i in from..self.layers.len() {
            h = self.layer(i, state, &h, mode);
        }
        h
    }
}

/// The encoder's first layer, when it is GAT, evaluated once for a whole
/// support pool instead of once per shot.
///
/// Shot `q`'s input is `X_q = [1_{M_q} | base]` with `M_q` its marked
/// nodes, so the inputs of a pool differ only in column 0 of the rows
/// `M_q`. Both matmul tiers accumulate every output element in strictly
/// increasing `k`, and a zero left operand contributes nothing (skipped
/// on the exact tier, `+0` on the fast one), so row `r ∉ M_q` of `X_q·W`
/// is bitwise row `r` of `[0 | base]·W`. An attention output row reads
/// only the projection rows of its arc sources, and the arcs are
/// symmetric with self-loops, so view `q`'s layer-1 output differs from
/// the indicator-free one only on `M_q` and its neighbours. Hence:
/// project, attend and activate the indicator-free input once; per shot
/// re-project the `|M_q|` rows (same tier), recompute the reached output
/// rows through the same row kernel, and run the remaining layers as
/// before. Patched rows are swapped in and back out, so nothing
/// `n`-sized is copied per shot.
struct SharedFirstLayer<'a, E: Elem> {
    gnn: &'a InferGnn<E>,
    gat: &'a InferGat<E>,
    state: &'a InferState<E>,
    mode: MathMode,
    /// `[0 | base]·W`.
    z: MatrixT<E>,
    /// Layer-1 output for `z`, activated when a layer follows.
    h: MatrixT<E>,
}

impl<'a, E: Elem> SharedFirstLayer<'a, E> {
    fn new(
        gnn: &'a InferGnn<E>,
        gat: &'a InferGat<E>,
        state: &'a InferState<E>,
        mode: MathMode,
    ) -> Self {
        let z = state
            .with_indicator(&[])
            .matmul_in(&gat.w, None, mode.into());
        let mut h = gat.attend(state, &z, None);
        gnn.activate_after(0, &mut h);
        Self {
            gnn,
            gat,
            state,
            mode,
            z,
            h,
        }
    }

    /// The encoder view whose indicator marks `marked`, bitwise what
    /// [`InferModel::encode_view`] computes from scratch.
    fn view(&mut self, mut marked: Vec<usize>) -> MatrixT<E> {
        marked.sort_unstable();
        marked.dedup();
        let mut reached: Vec<usize> = marked
            .iter()
            .flat_map(|&v| self.state.arc_sources(v))
            .chain(&marked)
            .copied()
            .collect();
        reached.sort_unstable();
        reached.dedup();

        let mut z_rows =
            self.state
                .marked_rows(&marked)
                .matmul_in(&self.gat.w, None, self.mode.into());
        swap_rows(&mut self.z, &marked, &mut z_rows);
        let mut h_rows = self.gat.attend(self.state, &self.z, Some(&reached));
        swap_rows(&mut self.z, &marked, &mut z_rows);
        self.gnn.activate_after(0, &mut h_rows);

        swap_rows(&mut self.h, &reached, &mut h_rows);
        let h1 = match self.gnn.layers.len() {
            1 => self.h.clone(),
            _ => self.gnn.layer(1, self.state, &self.h, self.mode),
        };
        swap_rows(&mut self.h, &reached, &mut h_rows);
        self.gnn.forward(self.state, h1, 2, self.mode)
    }
}

/// Exchanges row `rows[i]` of `m` with row `i` of `patch`; calling it
/// twice restores both.
fn swap_rows<E: Elem>(m: &mut MatrixT<E>, rows: &[usize], patch: &mut MatrixT<E>) {
    for (i, &r) in rows.iter().enumerate() {
        m.row_mut(r).swap_with_slice(patch.row_mut(i));
    }
}

/// The commutative operation ⊕ snapshotted into `E`.
enum InferCommutative<E: Elem> {
    Sum,
    Mean,
    SelfAttention {
        w1: MatrixT<E>,
        w2: MatrixT<E>,
        dim: usize,
    },
}

impl<E: Elem> InferCommutative<E> {
    fn from_commutative(c: &Commutative) -> Self {
        match c {
            Commutative::Sum => Self::Sum,
            Commutative::Mean => Self::Mean,
            Commutative::SelfAttention { w1, w2, dim } => Self::SelfAttention {
                w1: w1.value().cast(),
                w2: w2.value().cast(),
                dim: *dim,
            },
        }
    }

    /// ⊕ over the views in order. `Sum`/`Mean` fold each view into the
    /// accumulator as it is produced, so one view is alive at a time;
    /// `SelfAttention` weighs views against each other and keeps them all.
    fn combine(&self, mut views: impl Iterator<Item = MatrixT<E>>, mode: MathMode) -> MatrixT<E> {
        match self {
            Self::Sum | Self::Mean => {
                let mut acc = views.next().expect("⊕ needs at least one view");
                let mut count = 1;
                for v in views {
                    acc.add_assign(&v);
                    count += 1;
                }
                if matches!(self, Self::Mean) {
                    acc.scale_assign(E::ONE / E::from_usize(count));
                }
                acc
            }
            Self::SelfAttention { w1, w2, dim } => {
                let mut views: Vec<MatrixT<E>> = views.collect();
                if views.len() == 1 {
                    return views.pop().expect("checked non-empty");
                }
                // Eq. 15–16, mirroring `Commutative::combine`: stack the
                // per-view mean summaries, project, score, softmax, then
                // column-average into one weight per view.
                let summaries: Vec<MatrixT<E>> = views.iter().map(|v| v.mean_rows()).collect();
                let refs: Vec<&MatrixT<E>> = summaries.iter().collect();
                let m = MatrixT::vstack(&refs); // k×d
                let h1 = m.matmul_in(w1, None, mode.into());
                let h2 = m.matmul_in(w2, None, mode.into());
                let mut scores = h1.matmul_tb_in(&h2, mode.into());
                scores.scale_assign(E::ONE / E::from_usize(*dim).sqrt());
                for r in 0..scores.rows() {
                    softmax_in_place(scores.row_mut(r));
                }
                let weights = scores.mean_rows(); // 1×k, sums to 1
                let (rows, cols) = views[0].shape();
                let mut out = MatrixT::zeros(rows, cols);
                for (q, view) in views.iter().enumerate() {
                    out.add_scaled_assign(view, weights.get(0, q));
                }
                out
            }
        }
    }
}

/// The decoder ρθ snapshotted into `E`.
enum InferDecoder<E: Elem> {
    InnerProduct,
    Mlp {
        layers: Vec<(MatrixT<E>, MatrixT<E>)>,
        activation: Activation,
    },
    Gnn(InferGnn<E>),
}

impl<E: Elem> InferDecoder<E> {
    fn from_decoder(d: &Decoder) -> Self {
        match d {
            Decoder::InnerProduct => Self::InnerProduct,
            Decoder::Mlp(mlp) => Self::Mlp {
                layers: mlp_weights(mlp),
                activation: mlp.activation(),
            },
            Decoder::Gnn(gnn) => Self::Gnn(InferGnn::from_encoder(gnn)),
        }
    }

    fn transform(&self, state: &InferState<E>, ctx: MatrixT<E>, mode: MathMode) -> MatrixT<E> {
        match self {
            Self::InnerProduct => ctx,
            Self::Mlp { layers, activation } => {
                let last = layers.len() - 1;
                let mut h = ctx;
                for (i, (w, b)) in layers.iter().enumerate() {
                    h = h.matmul_in(w, Some(b), mode.into());
                    if i < last {
                        apply_activation(*activation, &mut h);
                    }
                }
                h
            }
            Self::Gnn(gnn) => gnn.forward(state, ctx, 0, mode),
        }
    }
}

fn mlp_weights<E: Elem>(mlp: &Mlp) -> Vec<(MatrixT<E>, MatrixT<E>)> {
    mlp.layers().iter().map(linear_weights).collect()
}

fn linear_weights<E: Elem>(lin: &Linear) -> (MatrixT<E>, MatrixT<E>) {
    (
        lin.weight().value().cast(),
        lin.bias().expect("MLP layers are biased").value().cast(),
    )
}

/// A trained [`Cgnp`]'s weights snapshotted into element type `E`, ready
/// for forward-only serving. Conversion happens once at construction; the
/// source model is not retained.
pub struct InferModel<E: Elem> {
    encoder: InferGnn<E>,
    commutative: InferCommutative<E>,
    decoder: InferDecoder<E>,
}

impl<E: Elem> InferModel<E> {
    pub fn from_model(model: &Cgnp) -> Self {
        Self {
            encoder: InferGnn::from_encoder(&model.encoder),
            commutative: InferCommutative::from_commutative(&model.commutative),
            decoder: InferDecoder::from_decoder(&model.decoder),
        }
    }

    /// Runtime tag of this executor's element type.
    pub fn dtype(&self) -> cgnp_tensor::Dtype {
        E::DTYPE
    }

    /// Encoder view for one support pair, mirroring [`Cgnp::encode_view`].
    fn encode_view(
        &self,
        state: &InferState<E>,
        example: &QueryExample,
        mode: MathMode,
    ) -> MatrixT<E> {
        let x = state.with_indicator(&marked_nodes(example));
        self.encoder.forward(state, x, 0, mode)
    }

    /// The decoded task context, mirroring eval-mode [`Cgnp::context`]:
    /// views → ⊕ → decoder transform, all in `E` under the selected
    /// kernel tier. `support` is explicit so callers can condition on any
    /// subset of a task's labelled examples (a per-request shot count).
    ///
    /// With a GAT first layer and more than one shot the views come from
    /// [`SharedFirstLayer`]; the result is the same bit for bit.
    pub fn context(
        &self,
        state: &InferState<E>,
        support: &[QueryExample],
        mode: MathMode,
    ) -> MatrixT<E> {
        assert!(!support.is_empty(), "CGNP requires a non-empty support set");
        let combined = match self.encoder.layers.first() {
            Some(InferLayer::Gat(gat)) if support.len() > 1 => {
                let mut shared = SharedFirstLayer::new(&self.encoder, gat, state, mode);
                let views = support.iter().map(|ex| shared.view(marked_nodes(ex)));
                self.commutative.combine(views, mode)
            }
            _ => {
                let views = support.iter().map(|ex| self.encode_view(state, ex, mode));
                self.commutative.combine(views, mode)
            }
        };
        self.decoder.transform(state, combined, mode)
    }
}

/// The nodes a support pair's indicator marks: `{q} ∪ l⁺_q` (no query for
/// the sharded [`NO_QUERY`] sentinel).
fn marked_nodes(example: &QueryExample) -> Vec<usize> {
    let mut marked = Vec::with_capacity(1 + example.pos.len());
    if example.query != NO_QUERY {
        marked.push(example.query);
    }
    marked.extend_from_slice(&example.pos);
    marked
}

/// A [`PreparedTask`]'s operators and base features snapshotted into `E`.
/// Rebuild (cheap casts) whenever the prepared task refreshes.
pub struct InferState<E: Elem> {
    n: usize,
    gcn_adj: CsrMatrixT<E>,
    mean_adj: CsrMatrixT<E>,
    /// Arc sources grouped by destination; `dst_ptr[v]..dst_ptr[v + 1]`
    /// are the arcs ending at `v` (a CSR over [`GraphContext::arcs`]).
    ///
    /// [`GraphContext::arcs`]: cgnp_nn::GraphContext::arcs
    arc_src: Vec<usize>,
    dst_ptr: Vec<usize>,
    base: MatrixT<E>,
}

impl<E: Elem> InferState<E> {
    pub fn from_prepared(prepared: &PreparedTask) -> Self {
        let (src, dst) = prepared.gctx.arcs();
        let n = prepared.gctx.n();
        let mut dst_ptr = vec![0; n + 1];
        for (i, &d) in dst.iter().enumerate() {
            assert!(
                d < n && (i == 0 || dst[i - 1] <= d),
                "arc {i} ends at node {d}: arcs must be grouped by ascending \
                 destination, the order Graph::directed_arcs emits"
            );
            dst_ptr[d + 1] += 1;
        }
        for v in 0..n {
            dst_ptr[v + 1] += dst_ptr[v];
        }
        Self {
            n,
            gcn_adj: prepared.gctx.gcn_adj().forward().cast(),
            mean_adj: prepared.gctx.mean_adj().forward().cast(),
            arc_src: src.to_vec(),
            dst_ptr,
            base: prepared.base.cast(),
        }
    }

    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Base features with the ground-truth indicator channel prepended
    /// (column 0 is 1 for marked nodes), mirroring
    /// [`cgnp_data::with_indicator`].
    fn with_indicator(&self, marked: &[usize]) -> MatrixT<E> {
        let (n, d) = self.base.shape();
        let mut out = MatrixT::zeros(n, d + 1);
        for &m in marked {
            debug_assert!(m < n);
            out.set(m, 0, E::ONE);
        }
        for r in 0..n {
            out.row_mut(r)[1..].copy_from_slice(self.base.row(r));
        }
        out
    }

    /// Rows `nodes` of [`Self::with_indicator`]`(nodes)`: each marked.
    fn marked_rows(&self, nodes: &[usize]) -> MatrixT<E> {
        let ones = MatrixT::full(nodes.len(), 1, E::ONE);
        MatrixT::hstack(&[&ones, &self.base.select_rows(nodes)])
    }

    /// Sources of the arcs ending at `v`: its neighbours and itself.
    fn arc_sources(&self, v: usize) -> &[usize] {
        &self.arc_src[self.dst_ptr[v]..self.dst_ptr[v + 1]]
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
fn score_sets<E: Elem>(
    context: &MatrixT<E>,
    sets: &[&[usize]],
    threads: Option<usize>,
) -> Vec<Vec<f32>> {
    let mut centroids = Vec::with_capacity(sets.len() * context.cols());
    for queries in sets {
        assert!(!queries.is_empty(), "need at least one query node");
        centroids.extend_from_slice(context.select_rows(queries).mean_rows().as_slice());
    }
    CentroidScores {
        context,
        centroids: &MatrixT::from_vec(sets.len(), context.cols(), centroids),
    }
    .forward(None, threads)
}

/// Membership probabilities for one query set against a context (the
/// cheap half of Alg. 2): centroid of the query rows, inner products,
/// sigmoid — a batch of one through the same code as a tick.
/// Probabilities come back as `f32`, the wire format of every serving
/// response, after the logits and sigmoid are computed in `E`. Both
/// kernel tiers accumulate a logit in index order, so `mode` selects
/// nothing here.
pub fn score_probs<E: Elem>(context: &MatrixT<E>, queries: &[usize], _mode: MathMode) -> Vec<f32> {
    score_sets(context, &[queries], None)
        .pop()
        .expect("one vector per query set")
}

/// Scores a micro-batch of query sets against one shared context in one
/// pass over it, the context rows split across at most `threads` pool
/// workers — what a serving session calls per tick, the context itself
/// being cached across ticks.
pub fn score_batch_with_threads<E: Elem>(
    context: &MatrixT<E>,
    batch: &[Vec<usize>],
    threads: usize,
    _mode: MathMode,
) -> Vec<Vec<f32>> {
    let sets: Vec<&[usize]> = batch.iter().map(Vec::as_slice).collect();
    score_sets(context, &sets, Some(threads))
}

fn apply_activation<E: Elem>(a: Activation, m: &mut MatrixT<E>) {
    match a {
        Activation::Relu => m.map_assign(|x| x.max(E::ZERO)),
        // ELU with α = 1, the only α the model family uses
        // (`Activation::apply` calls `elu(1.0)`).
        Activation::Elu => m.map_assign(|x| if x > E::ZERO { x } else { x.exp() - E::ONE }),
        Activation::Tanh => m.map_assign(|x| x.tanh()),
        Activation::None => {}
    }
}

/// In-place softmax with max-subtraction, mirroring
/// [`cgnp_tensor::ops::softmax_in_place`].
fn softmax_in_place<E: Elem>(row: &mut [E]) {
    let max = row.iter().fold(E::neg_infinity(), |m, &x| m.max(x));
    let mut sum = E::ZERO;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = E::ONE / sum.max(E::min_positive());
    for v in row {
        *v *= inv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CgnpConfig, CommutativeOp, DecoderKind};
    use cgnp_data::{sample_task, SbmConfig, TaskConfig};
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
        // Every op in this module mirrors its tensor counterpart
        // expression-for-expression, so the f32/Exact instantiation must
        // reproduce the autodiff path bit-for-bit — the property the
        // serving layer's `--exact` contract leans on.
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
    /// held against it in either dtype and kernel tier.
    fn per_shot_context<E: Elem>(
        im: &InferModel<E>,
        state: &InferState<E>,
        support: &[QueryExample],
        mode: MathMode,
    ) -> MatrixT<E> {
        let views = support.iter().map(|ex| im.encode_view(state, ex, mode));
        let combined = im.commutative.combine(views, mode);
        im.decoder.transform(state, combined, mode)
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
                        // Fast is the fast tier only under `--features
                        // fast-math`; either way the shared layer must
                        // not move a bit of the per-shot result.
                        for mode in [MathMode::Exact, MathMode::Fast] {
                            assert_eq!(
                                bits(&m32.context(&s32, pool, mode)),
                                bits(&per_shot_context(&m32, &s32, pool, mode)),
                                "{what}/f32/{mode}"
                            );
                            assert_eq!(
                                bits(&m64.context(&s64, pool, mode)),
                                bits(&per_shot_context(&m64, &s64, pool, mode)),
                                "{what}/f64/{mode}"
                            );
                        }
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
    fn fast_mode_preserves_rankings() {
        // Fast kernels reassociate sums; probabilities may move in the
        // last ulps but the induced ranking over nodes must hold for
        // every decoder/commutative combination.
        let p = prepared_task(23);
        for decoder in [
            DecoderKind::InnerProduct,
            DecoderKind::Mlp,
            DecoderKind::Gnn,
        ] {
            let model = model_for(&p, decoder, CommutativeOp::Mean);
            let im = InferModel::<f32>::from_model(&model);
            let state = InferState::<f32>::from_prepared(&p);
            let q = vec![p.task.targets[0].query];

            let exact_ctx = im.context(&state, &p.task.support, MathMode::Exact);
            let exact = score_probs(&exact_ctx, &q, MathMode::Exact);
            let fast_ctx = im.context(&state, &p.task.support, MathMode::Fast);
            let fast = score_probs(&fast_ctx, &q, MathMode::Fast);
            for (a, b) in exact.iter().zip(&fast) {
                assert!((a - b).abs() < 1e-3, "{decoder:?}: fast drifted {a} vs {b}");
            }
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
        assert_eq!(scores.forward(None, Some(1)), std::slice::from_ref(&direct));
        let owned: Vec<usize> = (0..ctx.rows()).rev().step_by(3).collect();
        let expect: Vec<f32> = owned.iter().map(|&v| direct[v]).collect();
        assert_eq!(scores.forward(Some(&owned), Some(2)), [expect]);
    }

    /// A query's probability vector as raw bits, scored in `batch` at
    /// position `at`.
    fn scored_bits<E: Elem>(
        ctx: &MatrixT<E>,
        batch: &[Vec<usize>],
        at: usize,
        threads: usize,
        mode: MathMode,
    ) -> Vec<u32> {
        let probs = score_batch_with_threads(ctx, batch, threads, mode);
        assert_eq!(probs.len(), batch.len());
        probs[at].iter().map(|p| p.to_bits()).collect()
    }

    #[test]
    fn a_querys_scores_do_not_depend_on_its_batch() {
        // The prediction LRU hands one tick's vector to later ticks of
        // any shape, and a sharded coordinator scores a query alone where
        // the unsharded session batches its tick: a vector must be the
        // same bits alone, first, last, duplicated and in a batch wider
        // than one panel, on either tier and any worker count. (`Fast` is
        // the fast tier only under `--features fast-math`.)
        fn check<E: Elem>(
            model: &Cgnp,
            p: &PreparedTask,
            sets: &[Vec<usize>],
            oracle: Option<&[Vec<f32>]>,
        ) {
            let im = InferModel::<E>::from_model(model);
            let state = InferState::<E>::from_prepared(p);
            let filler: Vec<Vec<usize>> = (0..8).map(|i| vec![(i * 7) % p.task.n()]).collect();
            for mode in [MathMode::Exact, MathMode::Fast] {
                let ctx = im.context(&state, &p.task.support, mode);
                for (s, set) in sets.iter().enumerate() {
                    let what = format!("{}/{mode}/set {s}", E::DTYPE);
                    let alone = scored_bits(&ctx, std::slice::from_ref(set), 0, 1, mode);
                    let single: Vec<u32> = score_probs(&ctx, set, mode)
                        .iter()
                        .map(|p| p.to_bits())
                        .collect();
                    assert_eq!(single, alone, "{what}: score_probs");
                    if let (Some(oracle), MathMode::Exact) = (oracle, mode) {
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
                        assert_eq!(scored_bits(&ctx, &first, 0, threads, mode), alone, "{what}");
                        assert_eq!(scored_bits(&ctx, &last, 3, threads, mode), alone, "{what}");
                        for at in [0, 2] {
                            assert_eq!(
                                scored_bits(&ctx, &duplicated, at, threads, mode),
                                alone,
                                "{what}"
                            );
                        }
                        assert_eq!(scored_bits(&ctx, &nine, 5, threads, mode), alone, "{what}");
                    }
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
