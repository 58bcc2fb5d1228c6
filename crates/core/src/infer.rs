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

use cgnp_data::{QueryExample, NO_QUERY};
use cgnp_nn::{Activation, AnyGnnLayer, GnnEncoder, Linear, Mlp};
use cgnp_tensor::{CsrMatrixT, Elem, MathMode, MatrixT};

use crate::commutative::Commutative;
use crate::decoder::Decoder;
use crate::model::{Cgnp, PreparedTask};

/// One message-passing layer with weights snapshotted into `E`.
enum InferLayer<E: Elem> {
    /// `H' = Â (H W) + b`.
    Gcn { w: MatrixT<E>, b: MatrixT<E> },
    /// Single-head additive attention (see [`cgnp_nn::GatLayer`]).
    Gat {
        w: MatrixT<E>,
        a_src: MatrixT<E>,
        a_dst: MatrixT<E>,
        bias: MatrixT<E>,
        slope: E,
    },
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
            AnyGnnLayer::Gat(l) => Self::Gat {
                w: l.lin().weight().value().cast(),
                a_src: l.a_src().value().cast(),
                a_dst: l.a_dst().value().cast(),
                bias: l.bias().value().cast(),
                slope: E::from_f32(l.negative_slope()),
            },
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
        match self {
            Self::Gcn { w, b } => state
                .gcn_adj
                .spmm_bias_mode(&x.matmul_mode(w, mode), b, mode),
            Self::Gat {
                w,
                a_src,
                a_dst,
                bias,
                slope,
            } => {
                let z = x.matmul_mode(w, mode);
                let s_src = z.matmul_mode(a_src, mode); // n×1
                let s_dst = z.matmul_mode(a_dst, mode); // n×1
                let (src, dst) = (&state.arc_src[..], &state.arc_dst[..]);
                let mut e = vec![E::ZERO; src.len()];
                for (i, ev) in e.iter_mut().enumerate() {
                    let v = s_src.get(src[i], 0) + s_dst.get(dst[i], 0);
                    *ev = if v > E::ZERO { v } else { *slope * v };
                }
                let alpha = segment_softmax(&e, dst, state.n);
                // Fused weighted scatter-add + broadcast bias, as in
                // `Tensor::weighted_scatter_rows_bias`.
                let mut out = MatrixT::zeros(state.n, z.cols());
                for r in 0..state.n {
                    out.row_mut(r).copy_from_slice(bias.row(0));
                }
                for (i, (&s, &d)) in src.iter().zip(dst).enumerate() {
                    let av = alpha[i];
                    if av == E::ZERO {
                        continue;
                    }
                    let zrow = z.row(s);
                    for (o, &zv) in out.row_mut(d).iter_mut().zip(zrow) {
                        *o += av * zv;
                    }
                }
                out
            }
            Self::Sage {
                w_self,
                b_self,
                w_neigh,
            } => {
                let self_term = x.matmul_bias_mode(w_self, b_self, mode);
                let neigh = state.mean_adj.spmm_mode(x, mode).matmul_mode(w_neigh, mode);
                self_term.add(&neigh)
            }
        }
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

    /// Eval-mode forward: activation between layers, none after the last,
    /// dropout elided (identity in eval mode).
    fn forward(&self, state: &InferState<E>, x: MatrixT<E>, mode: MathMode) -> MatrixT<E> {
        let last = self.layers.len() - 1;
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(state, &h, mode);
            if i < last {
                apply_activation(self.activation, &mut h);
            }
        }
        h
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

    fn combine(&self, views: Vec<MatrixT<E>>, mode: MathMode) -> MatrixT<E> {
        assert!(!views.is_empty(), "⊕ needs at least one view");
        if views.len() == 1 {
            return views.into_iter().next().expect("checked non-empty");
        }
        match self {
            Self::Sum => fold_sum(views),
            Self::Mean => {
                let inv = E::ONE / E::from_usize(views.len());
                let mut acc = fold_sum(views);
                acc.scale_assign(inv);
                acc
            }
            Self::SelfAttention { w1, w2, dim } => {
                // Eq. 15–16, mirroring `Commutative::combine`: stack the
                // per-view mean summaries, project, score, softmax, then
                // column-average into one weight per view.
                let summaries: Vec<MatrixT<E>> = views.iter().map(|v| v.mean_rows()).collect();
                let refs: Vec<&MatrixT<E>> = summaries.iter().collect();
                let m = MatrixT::vstack(&refs); // k×d
                let h1 = m.matmul_mode(w1, mode);
                let h2 = m.matmul_mode(w2, mode);
                let mut scores = h1.matmul_tb_mode(&h2, mode);
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

fn fold_sum<E: Elem>(views: Vec<MatrixT<E>>) -> MatrixT<E> {
    let mut it = views.into_iter();
    let mut acc = it.next().expect("checked non-empty");
    for v in it {
        acc = acc.add(&v);
    }
    acc
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
                    h = h.matmul_bias_mode(w, b, mode);
                    if i < last {
                        apply_activation(*activation, &mut h);
                    }
                }
                h
            }
            Self::Gnn(gnn) => gnn.forward(state, ctx, mode),
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
        let mut marked = Vec::with_capacity(1 + example.pos.len());
        if example.query != NO_QUERY {
            marked.push(example.query);
        }
        marked.extend_from_slice(&example.pos);
        let x = state.with_indicator(&marked);
        self.encoder.forward(state, x, mode)
    }

    /// The decoded task context, mirroring eval-mode [`Cgnp::context`]:
    /// views → ⊕ → decoder transform, all in `E` under the selected
    /// kernel tier. `support` is explicit so callers can condition on any
    /// subset of a task's labelled examples (a per-request shot count).
    pub fn context(
        &self,
        state: &InferState<E>,
        support: &[QueryExample],
        mode: MathMode,
    ) -> MatrixT<E> {
        assert!(!support.is_empty(), "CGNP requires a non-empty support set");
        let views: Vec<MatrixT<E>> = support
            .iter()
            .map(|ex| self.encode_view(state, ex, mode))
            .collect();
        let combined = self.commutative.combine(views, mode);
        self.decoder.transform(state, combined, mode)
    }
}

/// A [`PreparedTask`]'s operators and base features snapshotted into `E`.
/// Rebuild (cheap casts) whenever the prepared task refreshes.
pub struct InferState<E: Elem> {
    n: usize,
    gcn_adj: CsrMatrixT<E>,
    mean_adj: CsrMatrixT<E>,
    arc_src: Vec<usize>,
    arc_dst: Vec<usize>,
    base: MatrixT<E>,
}

impl<E: Elem> InferState<E> {
    pub fn from_prepared(prepared: &PreparedTask) -> Self {
        let (src, dst) = prepared.gctx.arcs();
        Self {
            n: prepared.gctx.n(),
            gcn_adj: prepared.gctx.gcn_adj().forward().cast(),
            mean_adj: prepared.gctx.mean_adj().forward().cast(),
            arc_src: src.to_vec(),
            arc_dst: dst.to_vec(),
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
}

/// Mean of pre-gathered context rows: the centroid half of
/// [`score_probs`], split out for coordinators that gather query rows
/// from several shard-local contexts. Stacking the same row bits in the
/// same order feeds the identical `mean_rows` kernel, so the result is
/// bitwise-equal to the unsharded centroid.
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

/// Membership probabilities of every context row against a centroid
/// (the broadcast half of scatter/gather scoring).
/// Probabilities come back as `f32` — the wire format of every serving
/// response — after the logits and sigmoid are computed in `E`.
pub fn score_with_centroid<E: Elem>(
    context: &MatrixT<E>,
    centroid: &[E],
    mode: MathMode,
) -> Vec<f32> {
    let c = MatrixT::from_vec(1, centroid.len(), centroid.to_vec());
    let logits = context.matmul_tb_mode(&c, mode);
    logits
        .as_slice()
        .iter()
        .map(|&x| stable_sigmoid(x).to_f32())
        .collect()
}

/// Membership probabilities for one query set against a context (the
/// cheap half of Alg. 2): centroid of the query rows, inner products,
/// sigmoid.
pub fn score_probs<E: Elem>(context: &MatrixT<E>, queries: &[usize], mode: MathMode) -> Vec<f32> {
    assert!(!queries.is_empty(), "need at least one query node");
    let centroid = context.select_rows(queries).mean_rows();
    score_with_centroid(context, centroid.as_slice(), mode)
}

/// Centroid of a query set as raw `E` bits, for coordinators that score
/// shard-locally against a globally gathered centroid.
pub fn centroid_of_queries<E: Elem>(context: &MatrixT<E>, queries: &[usize]) -> Vec<E> {
    context.select_rows(queries).mean_rows().as_slice().to_vec()
}

/// Scores a micro-batch of query sets against one shared context, fanned
/// across the persistent worker pool — what a serving session calls per
/// tick, the context itself being cached across ticks.
pub fn score_batch_with_threads<E: Elem>(
    context: &MatrixT<E>,
    batch: &[Vec<usize>],
    threads: usize,
    mode: MathMode,
) -> Vec<Vec<f32>> {
    crate::par::par_map(batch, threads, |queries| {
        score_probs(context, queries, mode)
    })
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

/// Softmax over segments of a column: entry `i` normalises against the
/// entries sharing `seg[i]` (the GAT edge softmax), max-subtracted per
/// segment exactly as `Tensor::segment_softmax` does.
fn segment_softmax<E: Elem>(x: &[E], seg: &[usize], n_seg: usize) -> Vec<E> {
    assert_eq!(x.len(), seg.len(), "segment index length mismatch");
    let mut maxes = vec![E::neg_infinity(); n_seg];
    for (i, &s) in seg.iter().enumerate() {
        assert!(s < n_seg, "segment id out of range");
        maxes[s] = maxes[s].max(x[i]);
    }
    let mut out = vec![E::ZERO; x.len()];
    let mut sums = vec![E::ZERO; n_seg];
    for (i, &s) in seg.iter().enumerate() {
        let e = (x[i] - maxes[s]).exp();
        out[i] = e;
        sums[s] += e;
    }
    for (i, &s) in seg.iter().enumerate() {
        out[i] = out[i] / sums[s].max(E::min_positive());
    }
    out
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

/// Branch-stable sigmoid, mirroring [`cgnp_tensor::ops::stable_sigmoid`].
fn stable_sigmoid<E: Elem>(x: E) -> E {
    if x >= E::ZERO {
        E::ONE / (E::ONE + (-x).exp())
    } else {
        let e = x.exp();
        e / (E::ONE + e)
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

    fn prepared_task(seed: u64) -> PreparedTask {
        let ag =
            cgnp_data::generate_sbm(&SbmConfig::small_test(), &mut StdRng::seed_from_u64(seed));
        let cfg = TaskConfig {
            subgraph_size: 50,
            shots: 3,
            n_targets: 4,
            ..Default::default()
        };
        let task = sample_task(&ag, &cfg, None, &mut StdRng::seed_from_u64(seed)).expect("task");
        PreparedTask::new(task)
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
        let centroid = centroid_of_queries(&ctx, &queries);
        let via_centroid = score_with_centroid(&ctx, &centroid, MathMode::Exact);
        assert_eq!(direct, via_centroid);

        // Coordinator-style: centroid from individually gathered rows.
        let rows: Vec<Vec<f64>> = queries.iter().map(|&q| ctx.row(q).to_vec()).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        assert_eq!(centroid_of_rows(&refs), centroid);
    }
}
