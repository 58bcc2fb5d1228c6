//! Dense affine layer.

use cgnp_tensor::Tensor;

use crate::backend::Backend;
use crate::module::{Module, ParamSource};

/// `y = x W (+ b)` with Glorot-initialised weights, over taped tensors or
/// plain matrices (`P`, see [`crate::backend`]).
pub struct Linear<P = Tensor> {
    pub(crate) w: P,
    pub(crate) b: Option<P>,
}

impl<P> Linear<P> {
    pub fn new(in_dim: usize, out_dim: usize, bias: bool, init: &mut impl ParamSource<P>) -> Self {
        Self {
            w: init.glorot(in_dim, out_dim),
            b: bias.then(|| init.zeros(1, out_dim)),
        }
    }

    pub fn forward<B: Backend<Value = P>>(&self, b: &B, x: &P) -> P {
        b.matmul(x, &self.w, self.b.as_ref())
    }
}

impl Module for Linear {
    fn params(&self) -> Vec<Tensor> {
        let mut p = vec![self.w.clone()];
        if let Some(b) = &self.b {
            p.push(b.clone());
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphContext;
    use cgnp_graph::Graph;
    use cgnp_tensor::{Matrix, Optimizer, Sgd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_and_param_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(4, 3, true, &mut rng);
        assert_eq!(lin.param_count(), 4 * 3 + 3);
        let x = Tensor::constant(Matrix::zeros(5, 4));
        let tape = GraphContext::new(&Graph::from_edges(5, &[]));
        assert_eq!(lin.forward(&tape, &x).shape(), (5, 3));
        let nobias = Linear::new(4, 3, false, &mut rng);
        assert_eq!(nobias.param_count(), 12);
    }

    #[test]
    fn learns_identity_map() {
        let mut rng = StdRng::seed_from_u64(1);
        let lin = Linear::new(2, 2, true, &mut rng);
        let mut opt = Sgd::new(lin.params(), 0.1);
        let x = Tensor::constant(Matrix::from_vec(
            4,
            2,
            vec![1., 0., 0., 1., 1., 1., -1., 0.5],
        ));
        let tape = GraphContext::new(&Graph::from_edges(4, &[]));
        for _ in 0..400 {
            opt.zero_grad();
            let loss = lin.forward(&tape, &x).sub(&x).l2_sum();
            loss.backward();
            opt.step();
        }
        let loss = lin.forward(&tape, &x).sub(&x).l2_sum().item();
        assert!(loss < 1e-3, "final loss {loss}");
    }
}
