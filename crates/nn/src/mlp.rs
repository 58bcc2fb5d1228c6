//! Multi-layer perceptron (CGNP's MLP decoder and general utility head).

use std::sync::Arc;

use cgnp_tensor::{Matrix, Tensor};

use crate::backend::{between_layers, Backend};
use crate::linear::Linear;
use crate::module::{Activation, ForwardCtx, Module, ParamSource};

/// A stack of affine layers with an activation (and optional dropout)
/// between them; no activation after the last layer.
pub struct Mlp<P = Tensor> {
    layers: Vec<Linear<P>>,
    activation: Activation,
    dropout: f32,
}

impl Mlp {
    /// The dropout masks a forward over `n_rows` rows applies: one per
    /// layer but the last, as wide as that layer's output.
    pub fn draw_masks(&self, n_rows: usize, ctx: &mut ForwardCtx<'_>) -> Vec<Arc<Matrix>> {
        let hidden = &self.layers[..self.layers.len() - 1];
        ctx.dropout_masks(n_rows, hidden.iter().map(|l| l.w.cols()), self.dropout)
    }
}

impl<P> Mlp<P> {
    /// `dims` lists the layer widths, e.g. `[64, 512, 64]` builds the
    /// paper's two-layer decoder MLP with 512 hidden units.
    ///
    /// # Panics
    /// Panics if fewer than two dims are given.
    pub fn new(
        dims: &[usize],
        activation: Activation,
        dropout: f32,
        init: &mut impl ParamSource<P>,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], true, init))
            .collect();
        Self {
            layers,
            activation,
            dropout,
        }
    }

    /// The forward pass under masks from [`Mlp::draw_masks`] (an empty
    /// slice: no dropout).
    pub fn forward<B: Backend<Value = P>>(&self, b: &B, x: P, masks: &[Arc<Matrix>]) -> P {
        let n = self.layers.len();
        (self.layers.iter().enumerate()).fold(x, |h, (i, layer)| {
            between_layers(b, i, n, layer.forward(b, &h), self.activation, masks)
        })
    }

    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }
}

impl Module for Mlp {
    fn params(&self) -> Vec<Tensor> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphContext;
    use cgnp_graph::Graph;
    use cgnp_tensor::{Optimizer, Sgd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A forward on the taped backend, masks drawn from `ctx`.
    fn forward(mlp: &Mlp, x: &Tensor, ctx: &mut ForwardCtx<'_>) -> Tensor {
        let masks = mlp.draw_masks(x.rows(), ctx);
        let tape = GraphContext::new(&Graph::from_edges(x.rows(), &[]));
        mlp.forward(&tape, x.clone(), &masks)
    }

    #[test]
    fn shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&[3, 8, 2], Activation::Relu, 0.0, &mut rng);
        assert_eq!(mlp.n_layers(), 2);
        let x = Tensor::constant(Matrix::zeros(5, 3));
        let mut ctx = ForwardCtx::eval(&mut rng);
        assert_eq!(forward(&mlp, &x, &mut ctx).shape(), (5, 2));
    }

    #[test]
    fn learns_xor_with_hidden_layer() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(&[2, 8, 1], Activation::Tanh, 0.0, &mut rng);
        let x = Tensor::constant(Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]));
        let targets = [0.0f32, 1.0, 1.0, 0.0];
        let mut opt = Sgd::new(mlp.params(), 0.5);
        for _ in 0..2000 {
            opt.zero_grad();
            let logits = {
                let mut ctx = ForwardCtx::train(&mut rng);
                forward(&mlp, &x, &mut ctx)
            };
            let loss =
                logits.bce_with_logits_at(&[0, 1, 2, 3], &targets, cgnp_tensor::Reduction::Mean);
            loss.backward();
            opt.step();
        }
        let mut ctx = ForwardCtx::eval(&mut rng);
        let out = forward(&mlp, &x, &mut ctx).sigmoid().value();
        for (i, &t) in targets.iter().enumerate() {
            let p = out.get(i, 0);
            assert!(
                (p - t).abs() < 0.25,
                "xor row {i}: predicted {p}, wanted {t}"
            );
        }
    }

    #[test]
    fn dropout_only_in_training() {
        let mut rng = StdRng::seed_from_u64(2);
        let mlp = Mlp::new(&[4, 16, 4], Activation::Relu, 0.8, &mut rng);
        let x = Tensor::constant(Matrix::full(2, 4, 1.0));
        let mut eval_rng = StdRng::seed_from_u64(3);
        let a = forward(&mlp, &x, &mut ForwardCtx::eval(&mut eval_rng)).value();
        let b = forward(&mlp, &x, &mut ForwardCtx::eval(&mut eval_rng)).value();
        assert!(a.approx_eq(&b, 0.0), "eval mode must be deterministic");
        let mut train_rng = StdRng::seed_from_u64(4);
        let c = forward(&mlp, &x, &mut ForwardCtx::train(&mut train_rng)).value();
        let d = forward(&mlp, &x, &mut ForwardCtx::train(&mut train_rng)).value();
        assert!(
            !c.approx_eq(&d, 1e-9),
            "dropout must randomise training passes"
        );
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn rejects_single_dim() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = Mlp::new(&[3], Activation::Relu, 0.0, &mut rng);
    }
}
