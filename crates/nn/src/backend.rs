//! The op set every layer, ⊕ and decoder is written over, and its two
//! backends.
//!
//! A forward pass is written once, generic over a [`Backend`]: the handle
//! that says which graph the ops read and what they run on.
//!
//! - [`GraphContext`] is the **taped** backend. Values are [`Tensor`]s;
//!   every op records its adjoint (none under [`cgnp_tensor::no_grad`])
//!   and runs on the default, exact kernel context. Meta-training and the
//!   meta-test oracle run here.
//! - [`Plain`] is the **plain** backend. Values are [`MatrixT<E>`] in `f32`
//!   or `f64`; ops run on a [`KernelCtx`] (the serving session's
//!   [`cgnp_tensor::MathMode`]) and record nothing. Every serving context
//!   is built here.
//!
//! Each op runs the same kernel with the same accumulation order on both,
//! so at `f32` on the exact tier the two agree bit for bit, one op at a
//! time (`tests::op_pairs_agree`). One op differs in shape only: GAT
//! attention is the unfused taped chain (`gather_rows` / `leaky_relu` /
//! `segment_softmax` / `weighted_scatter_rows_bias`) on the tape and one
//! [`SegmentAttention`] pass on plain matrices — the same arithmetic in the
//! same arc order. Dropout masks are drawn only on the tape (the
//! `draw_masks` of [`crate::GnnEncoder`] and [`crate::Mlp`]); a plain pass
//! is an eval pass and is handed none.

use std::sync::Arc;

use cgnp_tensor::{
    stable_softmax, CsrMatrixT, Elem, KernelCtx, Matrix, MatrixT, SegmentAttention, Tensor,
};

use crate::gat::GatLayer;
use crate::graph_ctx::GraphContext;
use crate::module::Activation;

/// Which of a graph's normalised adjacencies a propagation reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Adjacency {
    /// `D̃^{-1/2} (A + I) D̃^{-1/2}`, the GCN operator.
    Gcn,
    /// `D^{-1} A`, the mean-of-neighbours aggregator (GraphSAGE).
    Mean,
}

/// The op set a forward pass is written over. `Value` is what flows
/// between ops; `Elem` is the precision scalar constants (a `1/k`, a
/// `1/√d`) are computed in before they scale one.
pub trait Backend {
    type Value;
    type Elem: Elem;

    /// `x·W (+ b)`, the bias a `1×k` row seeding every output row.
    fn matmul(&self, x: &Self::Value, w: &Self::Value, bias: Option<&Self::Value>) -> Self::Value;
    /// `Â·x (+ b)` over the graph's `adj` operator.
    fn propagate(&self, adj: Adjacency, x: &Self::Value, bias: Option<&Self::Value>)
        -> Self::Value;
    /// `a + b`, element-wise.
    fn add(&self, a: Self::Value, b: &Self::Value) -> Self::Value;
    fn activate(&self, x: Self::Value, a: Activation) -> Self::Value;
    /// `x ⊙ mask`, an inverted-scale dropout mask drawn in `f32`.
    fn dropout(&self, x: Self::Value, mask: &Arc<Matrix>) -> Self::Value;
    /// `gat`'s single-head attention over the graph's arcs for its
    /// projection `z`, plus its bias (see [`GatLayer`]).
    fn attend(&self, z: &Self::Value, gat: &GatLayer<Self::Value>) -> Self::Value;
    /// Column means, `1×d`.
    fn mean_rows(&self, x: &Self::Value) -> Self::Value;
    /// The parts stacked top to bottom.
    fn stack_rows(&self, parts: &[Self::Value]) -> Self::Value;
    /// `a·bᵀ`.
    fn matmul_tb(&self, a: &Self::Value, b: &Self::Value) -> Self::Value;
    fn scale(&self, x: Self::Value, c: Self::Elem) -> Self::Value;
    /// Softmax of every row, max-subtracted.
    fn row_softmax(&self, x: Self::Value) -> Self::Value;
    /// `Σ_q weights[0, q] · views[q]`, folded in view order.
    fn weighted_sum(&self, weights: &Self::Value, views: &[Self::Value]) -> Self::Value;
}

/// What follows layer `i` of an `n`-layer stack: the activation, then
/// dropout under `masks[i]` if there is one — and nothing after the last
/// layer, whose output is an embedding or a logit.
pub(crate) fn between_layers<B: Backend>(
    b: &B,
    i: usize,
    n: usize,
    h: B::Value,
    activation: Activation,
    masks: &[Arc<Matrix>],
) -> B::Value {
    if i + 1 == n {
        return h;
    }
    let h = b.activate(h, activation);
    match masks.get(i) {
        Some(mask) => b.dropout(h, mask),
        None => h,
    }
}

impl GraphContext {
    /// GAT attention coefficients per arc, softmax-normalised over the
    /// arcs sharing a destination: the first half of the taped
    /// [`Backend::attend`].
    pub(crate) fn attention(&self, z: &Tensor, gat: &GatLayer) -> Tensor {
        let (src, dst) = self.arcs();
        let s_src = z.matmul(&gat.a_src).gather_rows(src);
        let e = s_src.add(&z.matmul(&gat.a_dst).gather_rows(dst));
        e.leaky_relu(gat.negative_slope)
            .segment_softmax(dst, self.n())
    }
}

impl Backend for GraphContext {
    type Value = Tensor;
    type Elem = f32;

    fn matmul(&self, x: &Tensor, w: &Tensor, bias: Option<&Tensor>) -> Tensor {
        match bias {
            Some(b) => x.matmul_bias(w, b),
            None => x.matmul(w),
        }
    }

    fn propagate(&self, adj: Adjacency, x: &Tensor, bias: Option<&Tensor>) -> Tensor {
        let op = match adj {
            Adjacency::Gcn => self.gcn_adj(),
            Adjacency::Mean => self.mean_adj(),
        };
        match bias {
            Some(b) => Tensor::spmm_bias(op, x, b),
            None => Tensor::spmm(op, x),
        }
    }

    fn add(&self, a: Tensor, b: &Tensor) -> Tensor {
        a.add(b)
    }

    fn activate(&self, x: Tensor, a: Activation) -> Tensor {
        a.apply(&x)
    }

    fn dropout(&self, x: Tensor, mask: &Arc<Matrix>) -> Tensor {
        x.dropout_with(Arc::clone(mask))
    }

    fn attend(&self, z: &Tensor, gat: &GatLayer) -> Tensor {
        let (src, dst) = self.arcs();
        let alpha = self.attention(z, gat);
        Tensor::weighted_scatter_rows_bias(&alpha, &z.gather_rows(src), dst, self.n(), &gat.bias)
    }

    fn mean_rows(&self, x: &Tensor) -> Tensor {
        x.mean_rows()
    }

    fn stack_rows(&self, parts: &[Tensor]) -> Tensor {
        Tensor::concat_rows(parts)
    }

    fn matmul_tb(&self, a: &Tensor, b: &Tensor) -> Tensor {
        a.matmul_tb(b)
    }

    fn scale(&self, x: Tensor, c: f32) -> Tensor {
        x.scale(c)
    }

    fn row_softmax(&self, x: Tensor) -> Tensor {
        x.row_softmax()
    }

    fn weighted_sum(&self, weights: &Tensor, views: &[Tensor]) -> Tensor {
        Tensor::weighted_sum_views(weights, views)
    }
}

/// A [`GraphContext`]'s operators cast to `E`, with its arc list indexed
/// as a CSR over destinations: the graph the [`Plain`] backend reads.
pub struct PlainGraph<E: Elem> {
    gcn_adj: CsrMatrixT<E>,
    mean_adj: CsrMatrixT<E>,
    /// Arc sources grouped by destination: `dst_ptr[v]..dst_ptr[v + 1]`
    /// are the arcs ending at `v` (see [`GraphContext::arcs`]).
    arc_src: Vec<usize>,
    dst_ptr: Vec<usize>,
}

impl<E: Elem> PlainGraph<E> {
    pub fn new(gctx: &GraphContext) -> Self {
        let (src, dst) = gctx.arcs();
        let n = gctx.n();
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
            gcn_adj: gctx.gcn_adj().forward().cast(),
            mean_adj: gctx.mean_adj().forward().cast(),
            arc_src: src.to_vec(),
            dst_ptr,
        }
    }

    /// Sources of the arcs ending at `v`: its neighbours and itself.
    pub fn arc_sources(&self, v: usize) -> &[usize] {
        &self.arc_src[self.dst_ptr[v]..self.dst_ptr[v + 1]]
    }
}

/// The plain backend: a [`PlainGraph`] and the kernel context every
/// product runs on.
#[derive(Clone, Copy)]
pub struct Plain<'g, E: Elem> {
    pub graph: &'g PlainGraph<E>,
    pub ctx: KernelCtx,
}

impl<'g, E: Elem> Plain<'g, E> {
    /// [`Backend::attend`] for `gat` as one fused pass over this graph's
    /// arcs, to run on a projection for every row or a subset of them.
    pub(crate) fn segment<'a>(&self, gat: &'a GatLayer<MatrixT<E>>) -> SegmentAttention<'a, E>
    where
        'g: 'a,
    {
        SegmentAttention {
            dst_ptr: &self.graph.dst_ptr,
            src: &self.graph.arc_src,
            a_src: gat.a_src.as_slice(),
            a_dst: gat.a_dst.as_slice(),
            bias: gat.bias.as_slice(),
            slope: E::from_f32(gat.negative_slope),
        }
    }
}

impl<E: Elem> Backend for Plain<'_, E> {
    type Value = MatrixT<E>;
    type Elem = E;

    fn matmul(&self, x: &MatrixT<E>, w: &MatrixT<E>, bias: Option<&MatrixT<E>>) -> MatrixT<E> {
        x.matmul_in(w, bias, self.ctx)
    }

    fn propagate(&self, adj: Adjacency, x: &MatrixT<E>, bias: Option<&MatrixT<E>>) -> MatrixT<E> {
        let op = match adj {
            Adjacency::Gcn => &self.graph.gcn_adj,
            Adjacency::Mean => &self.graph.mean_adj,
        };
        op.spmm_in(x, bias, self.ctx)
    }

    fn add(&self, mut a: MatrixT<E>, b: &MatrixT<E>) -> MatrixT<E> {
        a.add_assign(b);
        a
    }

    fn activate(&self, mut x: MatrixT<E>, a: Activation) -> MatrixT<E> {
        match a {
            Activation::Relu => x.map_assign(|v| v.max(E::ZERO)),
            // ELU with α = 1, what `Activation::apply` runs on the tape.
            Activation::Elu => x.map_assign(|v| if v > E::ZERO { v } else { v.exp() - E::ONE }),
            Activation::Tanh => x.map_assign(|v| v.tanh()),
            Activation::None => {}
        }
        x
    }

    fn dropout(&self, mut x: MatrixT<E>, mask: &Arc<Matrix>) -> MatrixT<E> {
        x.hadamard_assign(&mask.cast());
        x
    }

    fn attend(&self, z: &MatrixT<E>, gat: &GatLayer<MatrixT<E>>) -> MatrixT<E> {
        self.segment(gat).forward(z, None, None)
    }

    fn mean_rows(&self, x: &MatrixT<E>) -> MatrixT<E> {
        x.mean_rows()
    }

    fn stack_rows(&self, parts: &[MatrixT<E>]) -> MatrixT<E> {
        MatrixT::vstack(&parts.iter().collect::<Vec<_>>())
    }

    fn matmul_tb(&self, a: &MatrixT<E>, b: &MatrixT<E>) -> MatrixT<E> {
        a.matmul_tb_in(b, self.ctx)
    }

    fn scale(&self, mut x: MatrixT<E>, c: E) -> MatrixT<E> {
        x.scale_assign(c);
        x
    }

    fn row_softmax(&self, mut x: MatrixT<E>) -> MatrixT<E> {
        for r in 0..x.rows() {
            stable_softmax(x.row_mut(r));
        }
        x
    }

    fn weighted_sum(&self, weights: &MatrixT<E>, views: &[MatrixT<E>]) -> MatrixT<E> {
        let (rows, cols) = views[0].shape();
        let mut out = MatrixT::zeros(rows, cols);
        for (q, view) in views.iter().enumerate() {
            out.add_scaled_assign(view, weights.get(0, q));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Linear;
    use cgnp_graph::Graph;
    use cgnp_tensor::{no_grad, MathMode};
    use proptest::prelude::*;

    /// One draw of every op's inputs over an `n`-node graph: `x` (n×d),
    /// `w` (d×d), `bias` (1×d), `a_src`/`a_dst` (d×1), a dropout mask
    /// (n×d), and `k` views (n×d each) with their weights (1×k).
    #[derive(Debug)]
    struct Case {
        graph: Graph,
        x: Matrix,
        w: Matrix,
        bias: Matrix,
        a_src: Matrix,
        a_dst: Matrix,
        mask: Arc<Matrix>,
        views: Vec<Matrix>,
        weights: Matrix,
    }

    /// A `rows × cols` matrix whose entries are exact zeros, negative
    /// zeros (both skipped by the exact matmul) or values in `[-2, 2)`.
    fn matrix(rows: usize, cols: usize, rng: &mut TestRng) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| match rng.next_u32() % 5 {
                0 => 0.0,
                1 => -0.0,
                _ => (rng.next_u32() as f32 / u32::MAX as f32) * 4.0 - 2.0,
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// Widths from 0, one to four views, and a last node whose only arc
    /// is its self-loop.
    fn arb_case() -> impl Strategy<Value = Case> {
        (1..7usize, 0..5usize, 1..5usize).prop_perturb(|(n, d, k), mut rng| {
            let edges: Vec<(usize, usize)> = (0..2 * n)
                .map(|_| (rng.next_u32() as usize % n, rng.next_u32() as usize % n))
                .collect();
            let n = n + 1;
            let mask = (0..n * d)
                .map(|_| {
                    if rng.next_u32() % 3 == 0 {
                        0.0
                    } else {
                        1.0 / 0.7
                    }
                })
                .collect();
            Case {
                graph: Graph::from_edges(n, &edges),
                x: matrix(n, d, &mut rng),
                w: matrix(d, d, &mut rng),
                bias: matrix(1, d, &mut rng),
                a_src: matrix(d, 1, &mut rng),
                a_dst: matrix(d, 1, &mut rng),
                mask: Arc::new(Matrix::from_vec(n, d, mask)),
                views: (0..k).map(|_| matrix(n, d, &mut rng)).collect(),
                weights: matrix(1, k, &mut rng),
            }
        })
    }

    /// Every op of the set on `case`, its inputs lifted into `b`'s values.
    fn table<B: Backend>(
        b: &B,
        case: &Case,
        lift: impl Fn(&Matrix) -> B::Value,
    ) -> Vec<(String, B::Value)>
    where
        B::Value: Clone,
    {
        let [x, w, bias, a_src, a_dst, weights] = [
            &case.x,
            &case.w,
            &case.bias,
            &case.a_src,
            &case.a_dst,
            &case.weights,
        ]
        .map(&lift);
        let views: Vec<B::Value> = case.views.iter().map(&lift).collect();
        let gat = GatLayer {
            lin: Linear {
                w: w.clone(),
                b: None,
            },
            a_src,
            a_dst,
            bias: bias.clone(),
            negative_slope: 0.2,
        };
        let c = B::Elem::ONE / B::Elem::from_usize(views.len()).sqrt();
        let mut ops = vec![
            ("matmul", b.matmul(&x, &w, None)),
            ("matmul+bias", b.matmul(&x, &w, Some(&bias))),
            ("gcn", b.propagate(Adjacency::Gcn, &x, None)),
            ("gcn+bias", b.propagate(Adjacency::Gcn, &x, Some(&bias))),
            ("mean", b.propagate(Adjacency::Mean, &x, None)),
            ("add", b.add(x.clone(), &views[0])),
            ("dropout", b.dropout(x.clone(), &case.mask)),
            ("attend", b.attend(&x, &gat)),
            ("mean_rows", b.mean_rows(&x)),
            ("stack_rows", b.stack_rows(&views)),
            ("matmul_tb", b.matmul_tb(&x, &views[0])),
            ("scale", b.scale(x.clone(), c)),
            ("row_softmax", b.row_softmax(x.clone())),
            ("weighted_sum", b.weighted_sum(&weights, &views)),
        ];
        for a in [
            Activation::Relu,
            Activation::Elu,
            Activation::Tanh,
            Activation::None,
        ] {
            ops.push(("activate", b.activate(x.clone(), a)));
        }
        ops.into_iter().map(|(op, v)| (op.to_string(), v)).collect()
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Op by op: the tape under `no_grad` and plain `f32` matrices on
        /// the exact tier give the same bits; plain `f64` stays within
        /// 1e-4 of them.
        #[test]
        fn op_pairs_agree(case in arb_case()) {
            let gctx = GraphContext::new(&case.graph);
            let taped = no_grad(|| table(&gctx, &case, |m| Tensor::constant(m.clone())));
            let (g32, g64) = (PlainGraph::new(&gctx), PlainGraph::new(&gctx));
            let ctx = MathMode::Exact.into();
            let narrow = table(&Plain { graph: &g32, ctx }, &case, Matrix::clone);
            let wide = table(&Plain { graph: &g64, ctx }, &case, |m| m.cast::<f64>());
            for (((op, t), (_, f32s)), (_, f64s)) in taped.iter().zip(&narrow).zip(&wide) {
                let t = t.value();
                prop_assert!(bits(&t) == bits(f32s), "{op}: tape {t:?} vs plain {f32s:?}");
                let near = (t.as_slice().iter().zip(f64s.as_slice()))
                    .all(|(&a, &b)| (f64::from(a) - b).abs() <= 1e-4);
                prop_assert!(t.shape() == f64s.shape() && near, "{op}: f64 drifted");
            }
        }
    }
}
