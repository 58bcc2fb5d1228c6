//! Graph Attention Network layer (Veličković et al., the paper's default
//! encoder, chosen "due to its high performance" §VII-A).
//!
//! Additive single-head attention over the arc index with self-loops:
//!
//! ```text
//! z      = x W
//! e_uv   = LeakyReLU(a_srcᵀ z_u + a_dstᵀ z_v)        per arc (u → v)
//! α_uv   = softmax over arcs sharing destination v
//! h'_v   = Σ_u α_uv · z_u  + b
//! ```

use cgnp_tensor::{Elem, MatrixT, Tensor};

use crate::backend::{Backend, Plain};
use crate::linear::Linear;
use crate::module::{Module, ParamSource};

/// One single-head GAT layer.
pub struct GatLayer<P = Tensor> {
    pub(crate) lin: Linear<P>,
    pub(crate) a_src: P,
    pub(crate) a_dst: P,
    pub(crate) bias: P,
    pub(crate) negative_slope: f32,
}

impl<P> GatLayer<P> {
    pub fn new(in_dim: usize, out_dim: usize, init: &mut impl ParamSource<P>) -> Self {
        Self {
            lin: Linear::new(in_dim, out_dim, false, init),
            a_src: init.glorot(out_dim, 1),
            a_dst: init.glorot(out_dim, 1),
            bias: init.zeros(1, out_dim),
            negative_slope: 0.2,
        }
    }

    pub fn forward<B: Backend<Value = P>>(&self, b: &B, x: &P) -> P {
        self.attend(b, &self.project(b, x))
    }

    /// The shared projection `z = x W`.
    pub fn project<B: Backend<Value = P>>(&self, b: &B, x: &P) -> P {
        self.lin.forward(b, x)
    }

    /// Attention over the arcs for the projection `z`, plus the bias.
    pub fn attend<B: Backend<Value = P>>(&self, b: &B, z: &P) -> P {
        b.attend(z, self)
    }
}

impl<E: Elem> GatLayer<MatrixT<E>> {
    /// [`GatLayer::attend`] for the output rows `rows` only, each bitwise
    /// the row a full pass produces.
    pub fn attend_rows(&self, b: &Plain<'_, E>, z: &MatrixT<E>, rows: &[usize]) -> MatrixT<E> {
        b.segment(self).forward(z, Some(rows), b.ctx)
    }
}

impl Module for GatLayer {
    fn params(&self) -> Vec<Tensor> {
        let mut p = self.lin.params();
        p.push(self.a_src.clone());
        p.push(self.a_dst.clone());
        p.push(self.bias.clone());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::PlainGraph;
    use crate::GraphContext;
    use crate::Trained;
    use cgnp_graph::Graph;
    use cgnp_tensor::gradcheck::check_gradients;
    use cgnp_tensor::{no_grad, KernelCtx, Matrix, SegmentAttention};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toy() -> (GraphContext, Tensor) {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let gctx = GraphContext::new(&g);
        let mut rng = StdRng::seed_from_u64(0);
        let data = (0..4 * 3).map(|_| rng.gen_range(-1.0..1.0)).collect();
        (gctx, Tensor::constant(Matrix::from_vec(4, 3, data)))
    }

    #[test]
    fn output_shape() {
        let (gctx, x) = toy();
        let layer = GatLayer::new(3, 5, &mut StdRng::seed_from_u64(1));
        assert_eq!(layer.forward(&gctx, &x).shape(), (4, 5));
    }

    #[test]
    fn attention_normalised_per_destination() {
        let (gctx, x) = toy();
        let layer = GatLayer::new(3, 4, &mut StdRng::seed_from_u64(2));
        let z = layer.project(&gctx, &x).value();
        let [a_src, a_dst, bias] = [&layer.a_src, &layer.a_dst, &layer.bias].map(Tensor::value);
        let (_, kept) = SegmentAttention {
            arcs: gctx.arcs(),
            a_src: a_src.as_slice(),
            a_dst: a_dst.as_slice(),
            bias: bias.as_slice(),
            slope: layer.negative_slope,
        }
        .forward_keep(&z, KernelCtx::default());
        let dst_ptr = &gctx.arcs().dst_ptr;
        for v in 0..gctx.n() {
            let alpha = &kept.alpha[dst_ptr[v]..dst_ptr[v + 1]];
            assert!(alpha.iter().all(|a| (0.0..=1.0 + 1e-6).contains(a)));
            let s: f32 = alpha.iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "node {v} attention sums to {s}");
        }
    }

    #[test]
    fn taped_layer_records_one_attention_node() {
        // The four leaves, the projection, and attention as one node.
        let (gctx, x) = toy();
        let layer = GatLayer::new(3, 4, &mut StdRng::seed_from_u64(2));
        let params = layer.params().len();
        assert_eq!(layer.forward(&gctx, &x).tape_len(), params + 2);
    }

    #[test]
    fn gradcheck_through_layer() {
        let (gctx, x) = toy();
        let layer = GatLayer::new(3, 2, &mut StdRng::seed_from_u64(3));
        let params = layer.params();
        check_gradients(
            &params,
            || layer.forward(&gctx, &x).tanh().sum_all(),
            1e-2,
            3e-2,
        )
        .unwrap();
    }

    #[test]
    fn isolated_node_attends_to_itself_only() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let gctx = GraphContext::new(&g);
        let layer = GatLayer::new(2, 2, &mut StdRng::seed_from_u64(4));
        let xa = Tensor::constant(Matrix::from_vec(3, 2, vec![0., 0., 0., 0., 1., 2.]));
        let xb = Tensor::constant(Matrix::from_vec(3, 2, vec![5., 5., -5., 5., 1., 2.]));
        let ya = layer.forward(&gctx, &xa).value();
        let yb = layer.forward(&gctx, &xb).value();
        for c in 0..2 {
            assert!((ya.get(2, c) - yb.get(2, c)).abs() < 1e-6);
        }
    }

    #[test]
    fn plain_attention_is_the_taped_op_at_any_worker_count() {
        // A ring with chords over enough nodes that a forced split cuts
        // both the score halves and the output rows into several chunks.
        let n = 37;
        let edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|v| [(v, (v + 1) % n), (v, (v * 7 + 3) % n)])
            .filter(|&(u, v)| u != v)
            .collect();
        let gctx = GraphContext::new(&Graph::from_edges(n, &edges));
        let mut rng = StdRng::seed_from_u64(6);
        let x = Matrix::from_vec(n, 5, (0..n * 5).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let layer = GatLayer::new(5, 4, &mut StdRng::seed_from_u64(7));
        let taped = no_grad(|| layer.forward(&gctx, &Tensor::constant(x.clone())).value());

        let plain_layer = GatLayer::<Matrix>::new(5, 4, &mut Trained::of(&layer));
        let graph = PlainGraph::new(&gctx);
        let rows: Vec<usize> = (0..n).rev().step_by(3).collect();
        let bits = |m: &Matrix| -> Vec<u32> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
        for ctx in [KernelCtx::threads(1), KernelCtx::threads(4)] {
            let b = Plain { graph: &graph, ctx };
            let z = plain_layer.project(&b, &x);
            assert_eq!(bits(&plain_layer.attend(&b, &z)), bits(&taped), "{ctx:?}");
            assert_eq!(
                bits(&plain_layer.attend_rows(&b, &z, &rows)),
                bits(&taped.select_rows(&rows)),
                "{ctx:?} rows"
            );
        }
    }

    #[test]
    fn param_count() {
        let layer = GatLayer::new(3, 4, &mut StdRng::seed_from_u64(5));
        // W (3×4) + a_src (4) + a_dst (4) + bias (4).
        assert_eq!(layer.param_count(), 12 + 4 + 4 + 4);
    }
}
