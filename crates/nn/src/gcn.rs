//! Graph Convolutional Network layer (Kipf & Welling, the paper's `GCN`
//! encoder option in Table IV).

use cgnp_tensor::Tensor;

use crate::backend::{Adjacency, Backend};
use crate::linear::Linear;
use crate::module::{Module, ParamSource};

/// One GCN layer: `H' = Â (H W) + b` with the symmetric normalised
/// adjacency `Â = D̃^{-1/2}(A+I)D̃^{-1/2}`.
pub struct GcnLayer<P = Tensor> {
    lin: Linear<P>,
}

impl<P> GcnLayer<P> {
    pub fn new(in_dim: usize, out_dim: usize, init: &mut impl ParamSource<P>) -> Self {
        Self {
            lin: Linear::new(in_dim, out_dim, true, init),
        }
    }

    pub fn forward<B: Backend<Value = P>>(&self, b: &B, x: &P) -> P {
        // (H W) first: the projection is the cheaper operand order when
        // out_dim ≤ in_dim, and Â is sparse either way. Message passing
        // and bias run as one fused kernel.
        let projected = b.matmul(x, &self.lin.w, None);
        b.propagate(Adjacency::Gcn, &projected, self.lin.b.as_ref())
    }
}

impl Module for GcnLayer {
    fn params(&self) -> Vec<Tensor> {
        self.lin.params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphContext;
    use cgnp_graph::Graph;
    use cgnp_tensor::gradcheck::check_gradients;
    use cgnp_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toy() -> (GraphContext, Tensor) {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let gctx = GraphContext::new(&g);
        let mut rng = StdRng::seed_from_u64(0);
        let data = (0..4 * 3).map(|_| rng.gen_range(-1.0..1.0)).collect();
        (gctx, Tensor::constant(Matrix::from_vec(4, 3, data)))
    }

    #[test]
    fn output_shape() {
        let (gctx, x) = toy();
        let layer = GcnLayer::new(3, 5, &mut StdRng::seed_from_u64(1));
        assert_eq!(layer.forward(&gctx, &x).shape(), (4, 5));
    }

    #[test]
    fn constant_signal_is_preserved_up_to_affine() {
        // Â has unit row sums on a regular graph with self-loops, so a
        // constant input stays constant across rows.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let gctx = GraphContext::new(&g);
        let layer = GcnLayer::new(2, 2, &mut StdRng::seed_from_u64(2));
        let x = Tensor::constant(Matrix::full(4, 2, 1.0));
        let y = layer.forward(&gctx, &x).value();
        for r in 1..4 {
            for c in 0..2 {
                assert!((y.get(r, c) - y.get(0, c)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn gradcheck_through_layer() {
        let (gctx, x) = toy();
        let layer = GcnLayer::new(3, 2, &mut StdRng::seed_from_u64(3));
        let params = layer.params();
        check_gradients(
            &params,
            || layer.forward(&gctx, &x).tanh().sum_all(),
            1e-2,
            2e-2,
        )
        .unwrap();
    }

    #[test]
    fn isolated_node_sees_only_itself() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let gctx = GraphContext::new(&g);
        let layer = GcnLayer::new(1, 1, &mut StdRng::seed_from_u64(4));
        let x1 = Tensor::constant(Matrix::from_vec(3, 1, vec![1.0, 1.0, 5.0]));
        let x2 = Tensor::constant(Matrix::from_vec(3, 1, vec![9.0, 9.0, 5.0]));
        let y1 = layer.forward(&gctx, &x1).value();
        let y2 = layer.forward(&gctx, &x2).value();
        assert!((y1.get(2, 0) - y2.get(2, 0)).abs() < 1e-6);
        assert!((y1.get(0, 0) - y2.get(0, 0)).abs() > 1e-3);
    }
}
