//! GraphSAGE layer with mean aggregation (Hamilton et al., the paper's
//! `SAGE` encoder option in Table IV).

use cgnp_tensor::Tensor;

use crate::backend::{Adjacency, Backend};
use crate::linear::Linear;
use crate::module::{Module, ParamSource};

/// One GraphSAGE layer: `H' = H W_self + (D^{-1} A H) W_neigh + b`.
pub struct SageLayer<P = Tensor> {
    w_self: Linear<P>,
    w_neigh: Linear<P>,
}

impl<P> SageLayer<P> {
    pub fn new(in_dim: usize, out_dim: usize, init: &mut impl ParamSource<P>) -> Self {
        Self {
            w_self: Linear::new(in_dim, out_dim, true, init),
            w_neigh: Linear::new(in_dim, out_dim, false, init),
        }
    }

    pub fn forward<B: Backend<Value = P>>(&self, b: &B, x: &P) -> P {
        let self_term = self.w_self.forward(b, x);
        let mean_neigh = b.propagate(Adjacency::Mean, x, None);
        b.add(self_term, &self.w_neigh.forward(b, &mean_neigh))
    }
}

impl Module for SageLayer {
    fn params(&self) -> Vec<Tensor> {
        let mut p = self.w_self.params();
        p.extend(self.w_neigh.params());
        p
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

    #[test]
    fn output_shape_and_params() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let gctx = GraphContext::new(&g);
        let layer = SageLayer::new(4, 6, &mut StdRng::seed_from_u64(0));
        assert_eq!(layer.param_count(), 4 * 6 + 6 + 4 * 6);
        let x = Tensor::constant(Matrix::zeros(3, 4));
        assert_eq!(layer.forward(&gctx, &x).shape(), (3, 6));
    }

    #[test]
    fn isolated_node_uses_self_term_only() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let gctx = GraphContext::new(&g);
        let layer = SageLayer::new(1, 1, &mut StdRng::seed_from_u64(1));
        // Changing neighbours of node 2 (there are none) cannot change it;
        // the self term still passes its own feature through.
        let xa = Tensor::constant(Matrix::from_vec(3, 1, vec![0.0, 0.0, 2.0]));
        let xb = Tensor::constant(Matrix::from_vec(3, 1, vec![7.0, -7.0, 2.0]));
        let ya = layer.forward(&gctx, &xa).value();
        let yb = layer.forward(&gctx, &xb).value();
        assert!((ya.get(2, 0) - yb.get(2, 0)).abs() < 1e-6);
    }

    #[test]
    fn gradcheck_through_layer() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 2)]);
        let gctx = GraphContext::new(&g);
        let mut rng = StdRng::seed_from_u64(2);
        let data = (0..4 * 3).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let x = Tensor::constant(Matrix::from_vec(4, 3, data));
        let layer = SageLayer::new(3, 2, &mut rng);
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
    fn neighbour_information_flows() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let gctx = GraphContext::new(&g);
        let layer = SageLayer::new(1, 1, &mut StdRng::seed_from_u64(3));
        let xa = Tensor::constant(Matrix::from_vec(2, 1, vec![1.0, 0.0]));
        let xb = Tensor::constant(Matrix::from_vec(2, 1, vec![1.0, 10.0]));
        let ya = layer.forward(&gctx, &xa).value();
        let yb = layer.forward(&gctx, &xb).value();
        assert!(
            (ya.get(0, 0) - yb.get(0, 0)).abs() > 1e-4,
            "node 0 must react to its neighbour's feature"
        );
    }
}
