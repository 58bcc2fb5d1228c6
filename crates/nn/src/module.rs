//! Parameter registry shared by all neural modules.
//!
//! Meta-learning algorithms (MAML, Reptile, FeatTrans) repeatedly snapshot
//! and restore model weights; [`Module::export_weights`] /
//! [`Module::import_weights`] provide that in a layout-stable order.

use std::sync::Arc;

use cgnp_tensor::{init, Elem, Matrix, MatrixT, Tensor};
use rand::rngs::StdRng;

/// Anything holding trainable parameters.
pub trait Module {
    /// All trainable parameters, in a stable order.
    fn params(&self) -> Vec<Tensor>;

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize {
        self.params()
            .iter()
            .map(|p| {
                let (r, c) = p.shape();
                r * c
            })
            .sum()
    }

    /// Snapshot of all parameter values.
    fn export_weights(&self) -> Vec<Matrix> {
        self.params().iter().map(|p| p.value()).collect()
    }

    /// Restores parameter values from a snapshot taken by
    /// [`Module::export_weights`].
    ///
    /// # Panics
    /// Panics on length or shape mismatch.
    fn import_weights(&self, weights: &[Matrix]) {
        let params = self.params();
        assert_eq!(
            params.len(),
            weights.len(),
            "weight snapshot length mismatch"
        );
        for (p, w) in params.iter().zip(weights) {
            p.set_value(w.clone());
        }
    }

    /// Clears gradients of every parameter.
    fn zero_grad(&self) {
        for p in self.params() {
            p.zero_grad();
        }
    }
}

/// Where a module's parameters come from while its constructor builds it,
/// one call per parameter in [`Module::params`] order: fresh draws for
/// training (an [`StdRng`]), or a trained model's weights cast for the
/// plain backend ([`Trained`]).
pub trait ParamSource<P> {
    /// A `rows × cols` parameter, Glorot-uniform when drawn fresh.
    fn glorot(&mut self, rows: usize, cols: usize) -> P;
    /// A `rows × cols` parameter, zero when drawn fresh.
    fn zeros(&mut self, rows: usize, cols: usize) -> P;
}

impl ParamSource<Tensor> for StdRng {
    fn glorot(&mut self, rows: usize, cols: usize) -> Tensor {
        Tensor::parameter(init::glorot_uniform(rows, cols, self))
    }

    fn zeros(&mut self, rows: usize, cols: usize) -> Tensor {
        Tensor::parameter(init::zeros(rows, cols))
    }
}

/// A trained module's parameters, handed out in order and cast to `E`:
/// a constructor fed these builds the module's plain-backend twin.
pub struct Trained(std::vec::IntoIter<Tensor>);

impl Trained {
    pub fn of(module: &impl Module) -> Self {
        Self(module.params().into_iter())
    }
}

impl<E: Elem> ParamSource<MatrixT<E>> for Trained {
    fn glorot(&mut self, rows: usize, cols: usize) -> MatrixT<E> {
        let p = self.0.next().expect("the twin asks for more parameters");
        assert_eq!(p.shape(), (rows, cols), "the twin's parameters differ");
        p.value_ref().cast()
    }

    fn zeros(&mut self, rows: usize, cols: usize) -> MatrixT<E> {
        self.glorot(rows, cols)
    }
}

/// Per-forward-pass context: training mode (enables dropout) and the RNG
/// driving stochastic regularisation.
pub struct ForwardCtx<'a> {
    pub training: bool,
    pub rng: &'a mut StdRng,
}

impl<'a> ForwardCtx<'a> {
    pub fn train(rng: &'a mut StdRng) -> Self {
        Self {
            training: true,
            rng,
        }
    }

    pub fn eval(rng: &'a mut StdRng) -> Self {
        Self {
            training: false,
            rng,
        }
    }

    /// The inverted-scale dropout masks of a layer stack over `n_rows`
    /// rows: one `n_rows × w` mask per entry of `widths` (the activations
    /// between layers, in order), drawn as [`Tensor::dropout`] draws them;
    /// none in eval mode or at `p = 0`.
    pub(crate) fn dropout_masks(
        &mut self,
        n_rows: usize,
        widths: impl IntoIterator<Item = usize>,
        p: f32,
    ) -> Vec<Arc<Matrix>> {
        if !self.training || p == 0.0 {
            return Vec::new();
        }
        (widths.into_iter())
            .map(|w| Arc::new(Tensor::dropout_mask(n_rows, w, p, self.rng)))
            .collect()
    }
}

/// Point-wise non-linearity selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    Relu,
    Elu,
    Tanh,
    /// Identity (no non-linearity).
    None,
}

impl Activation {
    pub fn apply(&self, x: &Tensor) -> Tensor {
        match self {
            Activation::Relu => x.relu(),
            Activation::Elu => x.elu(1.0),
            Activation::Tanh => x.tanh(),
            Activation::None => x.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgnp_tensor::Matrix;

    struct Toy {
        a: Tensor,
        b: Tensor,
    }

    impl Module for Toy {
        fn params(&self) -> Vec<Tensor> {
            vec![self.a.clone(), self.b.clone()]
        }
    }

    #[test]
    fn export_import_roundtrip() {
        let toy = Toy {
            a: Tensor::parameter(Matrix::full(2, 2, 1.0)),
            b: Tensor::parameter(Matrix::full(1, 3, 2.0)),
        };
        let snapshot = toy.export_weights();
        toy.a.set_value(Matrix::full(2, 2, -9.0));
        toy.import_weights(&snapshot);
        assert!(toy.a.value().approx_eq(&Matrix::full(2, 2, 1.0), 0.0));
        assert_eq!(toy.param_count(), 7);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn import_rejects_wrong_length() {
        let toy = Toy {
            a: Tensor::parameter(Matrix::zeros(1, 1)),
            b: Tensor::parameter(Matrix::zeros(1, 1)),
        };
        toy.import_weights(&[Matrix::zeros(1, 1)]);
    }

    #[test]
    fn activations_match_tensor_ops() {
        let x = Tensor::constant(Matrix::from_vec(1, 2, vec![-1.0, 2.0]));
        assert_eq!(Activation::Relu.apply(&x).value().as_slice(), &[0.0, 2.0]);
        assert_eq!(Activation::None.apply(&x).value().as_slice(), &[-1.0, 2.0]);
        let t = Activation::Tanh.apply(&x).value();
        assert!((t.get(0, 1) - 2.0f32.tanh()).abs() < 1e-6);
    }
}
