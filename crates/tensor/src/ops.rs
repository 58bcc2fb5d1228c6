//! Differentiable operations.
//!
//! Every op computes its forward value eagerly and registers a backward
//! closure with the hand-derived adjoint. The op set is exactly what the
//! paper's models need: dense/sparse matrix products, point-wise
//! non-linearities, the row softmax, row gathers, the commutative-operation
//! aggregators of CGNP (Eq. 14–16), and the masked BCE-with-logits loss of
//! Eq. (3)/(19). GAT attention is one op of its own
//! (`Tensor::segment_attention`, in the `attention` module).

use rand::Rng;
use std::sync::Arc;

use crate::elem::Elem;
use crate::matrix::Matrix;
use crate::sparse::SparseOperator;
use crate::tensor::Tensor;

/// Loss reduction mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reduction {
    /// Sum over samples (the paper's Eq. (3)).
    Sum,
    /// Mean over samples (learning-rate robust; used by default in training).
    Mean,
}

impl Tensor {
    /// Element-wise sum. Shapes must match.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let value = self.value_ref().add(&other.value_ref());
        Tensor::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| {
                parents[0].accum_grad(g);
                parents[1].accum_grad(g);
            }),
        )
    }

    /// Element-wise difference. Shapes must match.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        let value = self.value_ref().sub(&other.value_ref());
        Tensor::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| {
                parents[0].accum_grad(g);
                parents[1].accum_grad_scaled(g, -1.0);
            }),
        )
    }

    /// Hadamard (element-wise) product. Shapes must match.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        let value = self.value_ref().hadamard(&other.value_ref());
        Tensor::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| {
                let da = {
                    let b = parents[1].value_ref();
                    g.hadamard(&b)
                };
                let db = {
                    let a = parents[0].value_ref();
                    g.hadamard(&a)
                };
                parents[0].accum_grad_owned(da);
                parents[1].accum_grad_owned(db);
            }),
        )
    }

    /// Multiplication by a compile-time constant scalar.
    pub fn scale(&self, c: f32) -> Tensor {
        let value = self.value_ref().scale(c);
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| parents[0].accum_grad_scaled(g, c)),
        )
    }

    /// Adds a `1×c` bias row to every row of an `n×c` tensor.
    pub fn add_bias(&self, bias: &Tensor) -> Tensor {
        let value = {
            let x = self.value_ref();
            let b = bias.value_ref();
            assert_eq!(b.rows(), 1, "bias must be a single row");
            assert_eq!(b.cols(), x.cols(), "bias width mismatch");
            let mut out = x.clone();
            for r in 0..out.rows() {
                let row = out.row_mut(r);
                for (o, &bv) in row.iter_mut().zip(b.row(0)) {
                    *o += bv;
                }
            }
            out
        };
        Tensor::from_op(
            value,
            vec![self.clone(), bias.clone()],
            Box::new(|g, parents| {
                parents[0].accum_grad(g);
                parents[1].accum_grad_owned(g.sum_rows());
            }),
        )
    }

    /// Dense matrix product `self @ other`.
    ///
    /// The backward computes an operand's adjoint only if that operand
    /// carries a tape: the first layer's `dX` of a constant feature matrix
    /// would be dropped by [`Tensor::accum_grad_owned`] anyway.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let value = self.value_ref().matmul(&other.value_ref());
        Tensor::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| product_grads(g, &parents[0], &parents[1])),
        )
    }

    /// Fused affine map `self @ w + bias` (one kernel, no un-biased
    /// intermediate): the hot path of every `Linear`/`Mlp` forward.
    ///
    /// `bias` is a `1×n` row broadcast over the output rows. Skips the
    /// adjoints of untaped operands like [`Tensor::matmul`].
    pub fn matmul_bias(&self, w: &Tensor, bias: &Tensor) -> Tensor {
        let value = self
            .value_ref()
            .matmul_bias(&w.value_ref(), &bias.value_ref());
        Tensor::from_op(
            value,
            vec![self.clone(), w.clone(), bias.clone()],
            Box::new(|g, parents| {
                product_grads(g, &parents[0], &parents[1]);
                parents[2].accum_grad_owned(g.sum_rows());
            }),
        )
    }

    /// `self @ other.T` (used for attention scores, Eq. 16). Skips the
    /// adjoints of untaped operands like [`Tensor::matmul`].
    pub fn matmul_tb(&self, other: &Tensor) -> Tensor {
        let value = self.value_ref().matmul_tb(&other.value_ref());
        Tensor::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| {
                // y = a bᵀ  ⇒  da = g b,  db = gᵀ a.
                let (a, b) = (&parents[0], &parents[1]);
                if a.needs_grad() {
                    a.accum_grad_owned(g.matmul(&b.value_ref()));
                }
                if b.needs_grad() {
                    b.accum_grad_owned(g.matmul_ta(&a.value_ref()));
                }
            }),
        )
    }

    /// Sparse × dense product with a fixed (non-trainable) operator: the GNN
    /// message-passing kernel `S @ x`.
    pub fn spmm(op: &Arc<SparseOperator>, x: &Tensor) -> Tensor {
        let value = op.forward().spmm(&x.value_ref());
        let op_bw = Arc::clone(op);
        Tensor::from_op(
            value,
            vec![x.clone()],
            Box::new(move |g, parents| {
                parents[0].accum_grad_owned(op_bw.transposed().spmm(g));
            }),
        )
    }

    /// Fused sparse message passing plus bias: `S @ x + bias` in one
    /// kernel (the GCN layer's `Â (H W) + b`).
    pub fn spmm_bias(op: &Arc<SparseOperator>, x: &Tensor, bias: &Tensor) -> Tensor {
        let value = op.forward().spmm_bias(&x.value_ref(), &bias.value_ref());
        let op_bw = Arc::clone(op);
        Tensor::from_op(
            value,
            vec![x.clone(), bias.clone()],
            Box::new(move |g, parents| {
                parents[0].accum_grad_owned(op_bw.transposed().spmm(g));
                parents[1].accum_grad_owned(g.sum_rows());
            }),
        )
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        let value = self.value_ref().map(|x| x.max(0.0));
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, parents| {
                let dx = {
                    let x = parents[0].value_ref();
                    g.zip_map(&x, |gv, xv| if xv > 0.0 { gv } else { 0.0 })
                };
                parents[0].accum_grad_owned(dx);
            }),
        )
    }

    /// Exponential linear unit.
    pub fn elu(&self, alpha: f32) -> Tensor {
        let value =
            Arc::new(
                self.value_ref()
                    .map(|x| if x > 0.0 { x } else { alpha * (x.exp() - 1.0) }),
            );
        let y = Arc::clone(&value);
        Tensor::from_op_shared(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                // d/dx α(eˣ−1) = αeˣ = y + α. Both sides are computed and
                // one selected, because the input's sign is a coin flip per
                // element for a branch; bitwise `reference::elu_grad`.
                let dx: Vec<f32> = {
                    let x = parents[0].value_ref();
                    g.as_slice()
                        .iter()
                        .zip(x.as_slice())
                        .zip(y.as_slice())
                        .map(|((&gv, &xv), &yv)| {
                            let neg = gv * (yv + alpha);
                            if xv <= 0.0 {
                                neg
                            } else {
                                gv
                            }
                        })
                        .collect()
                };
                parents[0].accum_grad_owned(Matrix::from_vec(g.rows(), g.cols(), dx));
            }),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        let value = Arc::new(self.value_ref().map(stable_sigmoid));
        let y = Arc::clone(&value);
        Tensor::from_op_shared(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let dx = g.zip_map(&y, |gv, yv| gv * yv * (1.0 - yv));
                parents[0].accum_grad_owned(dx);
            }),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        let value = Arc::new(self.value_ref().map(f32::tanh));
        let y = Arc::clone(&value);
        Tensor::from_op_shared(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let dx = g.zip_map(&y, |gv, yv| gv * (1.0 - yv * yv));
                parents[0].accum_grad_owned(dx);
            }),
        )
    }

    /// Inverted-scale dropout. Identity when `training` is false or `p == 0`.
    pub fn dropout<R: Rng>(&self, p: f32, training: bool, rng: &mut R) -> Tensor {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        if !training || p == 0.0 {
            return self.clone();
        }
        let (rows, cols) = self.shape();
        self.dropout_with(Arc::new(Tensor::dropout_mask(rows, cols, p, rng)))
    }

    /// The draw half of [`Tensor::dropout`]: the inverted-scale mask a
    /// training-mode call on a `rows×cols` tensor applies, consuming `rng`
    /// exactly as that call does (one `f32` per element, row-major). Drawn
    /// apart from its use, a mask can be made on the thread that owns the
    /// RNG and applied on another.
    pub fn dropout_mask<R: Rng>(rows: usize, cols: usize, p: f32, rng: &mut R) -> Matrix {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        let keep = 1.0 - p;
        let mut m = Matrix::zeros(rows, cols);
        for v in m.as_mut_slice() {
            *v = if rng.gen::<f32>() < keep {
                1.0 / keep
            } else {
                0.0
            };
        }
        m
    }

    /// The application half of [`Tensor::dropout`]: `self ⊙ mask`, with
    /// the mask shared (not copied) into the backward closure.
    pub fn dropout_with(&self, mask: Arc<Matrix>) -> Tensor {
        let value = self.value_ref().hadamard(&mask);
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| parents[0].accum_grad_owned(g.hadamard(&mask))),
        )
    }

    /// Row-wise softmax.
    pub fn row_softmax(&self) -> Tensor {
        let value = Arc::new({
            let x = self.value_ref();
            let mut out = x.clone();
            for r in 0..out.rows() {
                stable_softmax(out.row_mut(r));
            }
            out
        });
        let y = Arc::clone(&value);
        Tensor::from_op_shared(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                // dx = y ⊙ (g − Σ_row(g ⊙ y)).
                let mut dx = g.hadamard(&y);
                for r in 0..dx.rows() {
                    let dot: f32 = dx.row(r).iter().sum();
                    let yrow = y.row(r);
                    let drow = dx.row_mut(r);
                    for (d, (&gv, &yv)) in drow.iter_mut().zip(g.row(r).iter().zip(yrow)) {
                        *d = yv * (gv - dot);
                    }
                }
                parents[0].accum_grad_owned(dx);
            }),
        )
    }

    /// Selects rows by index (indices may repeat); gradient scatter-adds.
    pub fn gather_rows(&self, idx: &[usize]) -> Tensor {
        let value = self.value_ref().select_rows(idx);
        let idx: Vec<usize> = idx.to_vec();
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let (rows, cols) = parents[0].shape();
                let mut dx = Matrix::zeros(rows, cols);
                for (i, &r) in idx.iter().enumerate() {
                    let grow = g.row(i);
                    let drow = dx.row_mut(r);
                    for (d, &gv) in drow.iter_mut().zip(grow) {
                        *d += gv;
                    }
                }
                parents[0].accum_grad_owned(dx);
            }),
        )
    }

    /// Vertically stacks tensors with equal column counts.
    pub fn concat_rows(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_rows needs at least one tensor");
        let value = {
            let refs: Vec<_> = parts.iter().map(|t| t.value_ref()).collect();
            let mats: Vec<&Matrix> = refs.iter().map(|r| &**r).collect();
            Matrix::vstack(&mats)
        };
        let sizes: Vec<usize> = parts.iter().map(|t| t.rows()).collect();
        Tensor::from_op(
            value,
            parts.to_vec(),
            Box::new(move |g, parents| {
                let cols = g.cols();
                let mut offset = 0;
                for (p, &rows) in parents.iter().zip(&sizes) {
                    let part = &g.as_slice()[offset * cols..(offset + rows) * cols];
                    p.accum_grad_owned(Matrix::from_vec(rows, cols, part.to_vec()));
                    offset += rows;
                }
            }),
        )
    }

    /// Column-wise mean over rows, producing a `1×c` tensor.
    pub fn mean_rows(&self) -> Tensor {
        let value = self.value_ref().mean_rows();
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, parents| {
                let (rows, cols) = parents[0].shape();
                let mut dx = Matrix::zeros(rows, cols);
                let inv = 1.0 / rows as f32;
                for r in 0..rows {
                    let drow = dx.row_mut(r);
                    for (d, &gv) in drow.iter_mut().zip(g.row(0)) {
                        *d = gv * inv;
                    }
                }
                parents[0].accum_grad_owned(dx);
            }),
        )
    }

    /// Sum of all elements as a `1×1` tensor.
    pub fn sum_all(&self) -> Tensor {
        let value = Matrix::scalar(self.value_ref().sum());
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, parents| {
                let (rows, cols) = parents[0].shape();
                parents[0].accum_grad_owned(Matrix::full(rows, cols, g.item()));
            }),
        )
    }

    /// Sum of squared elements as a `1×1` tensor (L2 regularisation).
    pub fn l2_sum(&self) -> Tensor {
        let value = Matrix::scalar(self.value_ref().as_slice().iter().map(|x| x * x).sum());
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, parents| {
                let dx = {
                    let x = parents[0].value_ref();
                    x.scale(2.0 * g.item())
                };
                parents[0].accum_grad_owned(dx);
            }),
        )
    }

    /// Weighted sum of equally shaped views: `out = Σ_q w[0,q] · views[q]`.
    /// The attention-weighted commutative operation ⊕ of CGNP.
    pub fn weighted_sum_views(weights: &Tensor, views: &[Tensor]) -> Tensor {
        assert!(!views.is_empty(), "weighted_sum_views needs views");
        let value = {
            let w = weights.value_ref();
            assert_eq!(w.rows(), 1, "weights must be 1×k");
            assert_eq!(w.cols(), views.len(), "weights/views length mismatch");
            let (r, c) = {
                let v0 = views[0].value_ref();
                v0.shape()
            };
            let mut out = Matrix::zeros(r, c);
            for (q, view) in views.iter().enumerate() {
                let v = view.value_ref();
                assert_eq!(v.shape(), (r, c), "view shape mismatch");
                out.add_scaled_assign(&v, w.get(0, q));
            }
            out
        };
        let mut parents = Vec::with_capacity(views.len() + 1);
        parents.push(weights.clone());
        parents.extend(views.iter().cloned());
        Tensor::from_op(
            value,
            parents,
            Box::new(|g, parents| {
                let k = parents.len() - 1;
                let w = parents[0].value_ref();
                let mut dw = Matrix::zeros(1, k);
                for q in 0..k {
                    let dot = {
                        let v = parents[q + 1].value_ref();
                        g.as_slice()
                            .iter()
                            .zip(v.as_slice())
                            .map(|(&gv, &vv)| gv * vv)
                            .sum::<f32>()
                    };
                    dw.set(0, q, dot);
                    parents[q + 1].accum_grad_owned(g.scale(w.get(0, q)));
                }
                parents[0].accum_grad_owned(dw);
            }),
        )
    }

    /// Numerically stable binary cross-entropy with logits, evaluated only at
    /// the listed rows of an `n×1` logit column — the masked loss of Eq. (3):
    /// only the labelled positive/negative sample nodes contribute.
    ///
    /// Returns a `1×1` loss tensor.
    pub fn bce_with_logits_at(
        &self,
        idx: &[usize],
        targets: &[f32],
        reduction: Reduction,
    ) -> Tensor {
        assert_eq!(idx.len(), targets.len(), "idx/targets length mismatch");
        assert!(!idx.is_empty(), "empty sample set in BCE loss");
        let value = {
            let z = self.value_ref();
            assert_eq!(z.cols(), 1, "bce_with_logits_at expects n×1 logits");
            let zs = z.as_slice();
            let mut total = 0.0f32;
            for (&i, &y) in idx.iter().zip(targets) {
                let zi = zs[i];
                // max(z,0) − z·y + ln(1 + e^{−|z|})
                total += zi.max(0.0) - zi * y + (-zi.abs()).exp().ln_1p();
            }
            if reduction == Reduction::Mean {
                total /= idx.len() as f32;
            }
            Matrix::scalar(total)
        };
        let idx: Vec<usize> = idx.to_vec();
        let targets: Vec<f32> = targets.to_vec();
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let scale = match reduction {
                    Reduction::Sum => g.item(),
                    Reduction::Mean => g.item() / idx.len() as f32,
                };
                let dz = {
                    let z = parents[0].value_ref();
                    let zs = z.as_slice();
                    let mut dz = Matrix::zeros(z.rows(), 1);
                    for (&i, &y) in idx.iter().zip(&targets) {
                        dz.as_mut_slice()[i] += (stable_sigmoid(zs[i]) - y) * scale;
                    }
                    dz
                };
                parents[0].accum_grad_owned(dz);
            }),
        )
    }
}

/// Adjoints of `y = x @ w` into the operands that carry a tape:
/// `dx = g·wᵀ`, `dw = xᵀ·g`.
fn product_grads(g: &Matrix, x: &Tensor, w: &Tensor) {
    if x.needs_grad() {
        x.accum_grad_owned(g.matmul_tb(&w.value_ref()));
    }
    if w.needs_grad() {
        w.accum_grad_owned(x.value_ref().matmul_ta(g));
    }
}

/// Sigmoid that never overflows.
#[inline]
pub fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// In-place softmax over a slice with max-subtraction for stability.
pub fn stable_softmax<E: Elem>(row: &mut [E]) {
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn param(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Tensor::parameter(Matrix::from_vec(rows, cols, data))
    }

    #[test]
    fn add_sub_values() {
        let a = Tensor::constant(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let b = Tensor::constant(Matrix::from_vec(1, 2, vec![10.0, 20.0]));
        assert_eq!(a.add(&b).value().as_slice(), &[11.0, 22.0]);
        assert_eq!(a.sub(&b).value().as_slice(), &[-9.0, -18.0]);
    }

    #[test]
    fn matmul_grad_shapes() {
        let a = param(2, 3, 1);
        let b = param(3, 4, 2);
        let loss = a.matmul(&b).sum_all();
        loss.backward();
        assert_eq!(a.grad().unwrap().shape(), (2, 3));
        assert_eq!(b.grad().unwrap().shape(), (3, 4));
    }

    #[test]
    fn add_bias_broadcasts_and_grads() {
        let x = param(3, 2, 3);
        let b = Tensor::parameter(Matrix::from_vec(1, 2, vec![1.0, -1.0]));
        let y = x.add_bias(&b);
        assert_eq!(y.value().get(2, 1), x.value().get(2, 1) - 1.0);
        y.sum_all().backward();
        // Bias gradient is the column sum of ones: the row count.
        assert!(b
            .grad()
            .unwrap()
            .approx_eq(&Matrix::from_vec(1, 2, vec![3.0, 3.0]), 1e-5));
    }

    #[test]
    fn sigmoid_range_and_grad_sign() {
        let x = Tensor::parameter(Matrix::from_vec(1, 3, vec![-100.0, 0.0, 100.0]));
        let y = x.sigmoid();
        let v = y.value();
        assert!(v.get(0, 0) >= 0.0 && v.get(0, 0) < 1e-6);
        assert!((v.get(0, 1) - 0.5).abs() < 1e-6);
        assert!(v.get(0, 2) <= 1.0 && v.get(0, 2) > 1.0 - 1e-6);
        y.sum_all().backward();
        let g = x.grad().unwrap();
        // Gradient is positive everywhere and maximal at 0.
        assert!(g.as_slice().iter().all(|&gv| gv >= 0.0));
        assert!(g.get(0, 1) > g.get(0, 0) && g.get(0, 1) > g.get(0, 2));
    }

    #[test]
    fn row_softmax_rows_sum_to_one() {
        let x = param(4, 5, 7);
        let y = x.row_softmax().value();
        for r in 0..4 {
            let s: f32 = y.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn gather_rows_grad_scatter_adds_repeats() {
        let x = param(3, 2, 11);
        let y = x.gather_rows(&[1, 1, 2]);
        y.sum_all().backward();
        let g = x.grad().unwrap();
        assert!(g.approx_eq(
            &Matrix::from_vec(3, 2, vec![0.0, 0.0, 2.0, 2.0, 1.0, 1.0]),
            1e-6
        ));
    }

    #[test]
    fn weighted_sum_views_value_and_grads() {
        let w = Tensor::parameter(Matrix::from_vec(1, 2, vec![0.25, 0.75]));
        let v1 = Tensor::parameter(Matrix::full(2, 2, 1.0));
        let v2 = Tensor::parameter(Matrix::full(2, 2, 3.0));
        let out = Tensor::weighted_sum_views(&w, &[v1.clone(), v2.clone()]);
        assert!(out.value().approx_eq(&Matrix::full(2, 2, 2.5), 1e-6));
        out.sum_all().backward();
        // dW[q] = Σ views[q] = 4·value.
        assert!(w
            .grad()
            .unwrap()
            .approx_eq(&Matrix::from_vec(1, 2, vec![4.0, 12.0]), 1e-5));
        assert!(v1
            .grad()
            .unwrap()
            .approx_eq(&Matrix::full(2, 2, 0.25), 1e-6));
        assert!(v2
            .grad()
            .unwrap()
            .approx_eq(&Matrix::full(2, 2, 0.75), 1e-6));
    }

    #[test]
    fn matmul_bias_matches_unfused() {
        let x = param(4, 3, 51);
        let w = param(3, 5, 52);
        let b = param(1, 5, 53);
        let fused = x.matmul_bias(&w, &b);
        let unfused = x.matmul(&w).add_bias(&b);
        assert!(fused.value().approx_eq(&unfused.value(), 1e-5));
        fused.sum_all().backward();
        let (gx, gw, gb) = (x.grad().unwrap(), w.grad().unwrap(), b.grad().unwrap());
        x.zero_grad();
        w.zero_grad();
        b.zero_grad();
        unfused.sum_all().backward();
        assert!(gx.approx_eq(&x.grad().unwrap(), 1e-5));
        assert!(gw.approx_eq(&w.grad().unwrap(), 1e-5));
        assert!(gb.approx_eq(&b.grad().unwrap(), 1e-5));
    }

    #[test]
    fn spmm_bias_matches_unfused() {
        use crate::sparse::CsrMatrix;
        let s = Arc::new(SparseOperator::new(CsrMatrix::from_triplets(
            3,
            3,
            &[(0, 0, 0.5), (0, 2, 2.0), (1, 1, 3.0), (2, 0, -1.0)],
        )));
        let x = param(3, 4, 61);
        let b = param(1, 4, 62);
        let fused = Tensor::spmm_bias(&s, &x, &b);
        let unfused = Tensor::spmm(&s, &x).add_bias(&b);
        assert!(fused.value().approx_eq(&unfused.value(), 1e-5));
        fused.sum_all().backward();
        let (gx, gb) = (x.grad().unwrap(), b.grad().unwrap());
        x.zero_grad();
        b.zero_grad();
        unfused.sum_all().backward();
        assert!(gx.approx_eq(&x.grad().unwrap(), 1e-5));
        assert!(gb.approx_eq(&b.grad().unwrap(), 1e-5));
    }

    #[test]
    fn bce_matches_closed_form() {
        // loss(z=0, y=1) = ln 2.
        let z = Tensor::parameter(Matrix::from_vec(2, 1, vec![0.0, 0.0]));
        let loss = z.bce_with_logits_at(&[0, 1], &[1.0, 0.0], Reduction::Mean);
        assert!((loss.item() - std::f32::consts::LN_2).abs() < 1e-6);
        loss.backward();
        let g = z.grad().unwrap();
        // d/dz = (σ(0) − y)/2 = ∓0.25.
        assert!((g.get(0, 0) + 0.25).abs() < 1e-6);
        assert!((g.get(1, 0) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn bce_extreme_logits_are_finite() {
        let z = Tensor::parameter(Matrix::from_vec(2, 1, vec![80.0, -80.0]));
        let loss = z.bce_with_logits_at(&[0, 1], &[0.0, 1.0], Reduction::Sum);
        assert!(loss.item().is_finite());
        loss.backward();
        assert!(!z.grad().unwrap().has_non_finite());
    }

    #[test]
    fn dropout_eval_is_identity_train_masks() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::parameter(Matrix::full(10, 10, 1.0));
        let eval = x.dropout(0.5, false, &mut rng);
        assert!(eval.value().approx_eq(&Matrix::full(10, 10, 1.0), 0.0));
        let train = x.dropout(0.5, true, &mut rng).value();
        let zeros = train.as_slice().iter().filter(|&&v| v == 0.0).count();
        let doubled = train
            .as_slice()
            .iter()
            .filter(|&&v| (v - 2.0).abs() < 1e-6)
            .count();
        assert_eq!(zeros + doubled, 100);
        assert!(zeros > 10 && zeros < 90, "mask should be non-trivial");
    }

    #[test]
    fn dropout_is_its_mask_drawn_then_applied() {
        // The fused call, the two halves, and the loop they both replace
        // (one `f32` per element, row-major) agree on the value, on the
        // gradient, and on where they leave the RNG.
        let x = param(7, 5, 41);
        let (p, keep) = (0.3f32, 0.7f32);
        let mut fused_rng = StdRng::seed_from_u64(9);
        let mut split_rng = StdRng::seed_from_u64(9);
        let mut loop_rng = StdRng::seed_from_u64(9);

        let fused = x.dropout(p, true, &mut fused_rng);
        let mask = Tensor::dropout_mask(7, 5, p, &mut split_rng);
        let split = x.dropout_with(Arc::new(mask.clone()));
        let by_loop: Vec<f32> = x
            .value()
            .as_slice()
            .iter()
            .map(|v| {
                v * if loop_rng.gen::<f32>() < keep {
                    1.0 / keep
                } else {
                    0.0
                }
            })
            .collect();
        assert_eq!(fused.value().as_slice(), &by_loop[..]);
        assert_eq!(split.value().as_slice(), &by_loop[..]);
        let next = loop_rng.gen::<u64>();
        assert_eq!(fused_rng.gen::<u64>(), next);
        assert_eq!(split_rng.gen::<u64>(), next);

        split.sum_all().backward();
        assert_eq!(x.grad().unwrap().as_slice(), mask.as_slice());
        // Eval mode and p = 0 draw nothing.
        let _ = x.dropout(p, false, &mut fused_rng);
        let _ = x.dropout(0.0, true, &mut fused_rng);
        assert_eq!(fused_rng.gen::<u64>(), loop_rng.gen::<u64>());
    }

    #[test]
    fn concat_rows_splits_gradient() {
        let a = param(2, 3, 21);
        let b = param(1, 3, 22);
        let y = Tensor::concat_rows(&[a.clone(), b.clone()]);
        assert_eq!(y.shape(), (3, 3));
        y.sum_all().backward();
        assert!(a.grad().unwrap().approx_eq(&Matrix::full(2, 3, 1.0), 1e-6));
        assert!(b.grad().unwrap().approx_eq(&Matrix::full(1, 3, 1.0), 1e-6));
    }

    #[test]
    fn mean_rows_grad_is_uniform() {
        let x = param(4, 2, 31);
        x.mean_rows().sum_all().backward();
        assert!(x.grad().unwrap().approx_eq(&Matrix::full(4, 2, 0.25), 1e-6));
    }

    #[test]
    fn spmm_grad_uses_transpose() {
        use crate::sparse::CsrMatrix;
        let s = Arc::new(SparseOperator::new(CsrMatrix::from_triplets(
            2,
            3,
            &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)],
        )));
        let x = param(3, 2, 41);
        let y = Tensor::spmm(&s, &x);
        y.sum_all().backward();
        let g = x.grad().unwrap();
        // dX = Sᵀ @ ones(2×2): column sums of S distributed per row.
        assert!(g.approx_eq(
            &Matrix::from_vec(3, 2, vec![1.0, 1.0, 3.0, 3.0, 2.0, 2.0]),
            1e-5
        ));
    }

    #[test]
    fn l2_sum_grad() {
        let x = Tensor::parameter(Matrix::from_vec(1, 2, vec![3.0, -4.0]));
        let l = x.l2_sum();
        assert!((l.item() - 25.0).abs() < 1e-5);
        l.backward();
        assert!(x
            .grad()
            .unwrap()
            .approx_eq(&Matrix::from_vec(1, 2, vec![6.0, -8.0]), 1e-5));
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn constant(rows: usize, cols: usize, seed: u64) -> Tensor {
        param(rows, cols, seed).detach()
    }

    /// A tensor consumed by two branches of one tape: the walk moves the
    /// first contribution into its empty gradient slot and adds the
    /// second. The bits must equal cloning one contribution and adding the
    /// other, each computed on a tape of its own — for a leaf, for a leaf
    /// under a `GradSink`, and for an interior node (a cut). Each branch's
    /// output is weighted by random constants, so the contributions are
    /// not small integers whose sums any order gets right.
    fn assert_diamond_sums_contributions(x: Matrix, branch: impl Fn(&Tensor, usize) -> Tensor) {
        let loss = |x: &Tensor, i: usize| {
            let y = branch(x, i);
            let (rows, cols) = y.shape();
            y.mul(&constant(rows, cols, 1_000 + i as u64)).sum_all()
        };
        let alone = |i| {
            let x = Tensor::parameter(x.clone());
            loss(&x, i).backward();
            x.grad().expect("every branch reaches x")
        };
        let mut want = alone(0);
        want.add_assign(&alone(1));
        let both = |x: &Tensor| loss(x, 0).add(&loss(x, 1));

        let leaf = Tensor::parameter(x.clone());
        both(&leaf).backward();
        assert_eq!(bits(&leaf.grad().unwrap()), bits(&want), "leaf");

        let leaf = Tensor::parameter(x.clone());
        let ((), mut sink) = crate::GradSink::capture(|| both(&leaf).backward());
        assert!(leaf.grad().is_none());
        assert_eq!(bits(&sink.take(&leaf).unwrap()), bits(&want), "sink");

        let cut = Tensor::parameter(x).cut();
        both(&cut).backward();
        assert_eq!(bits(&cut.grad().unwrap()), bits(&want), "interior");
    }

    #[test]
    fn matmul_diamond_moves_then_adds() {
        let (w0, w1, b) = (constant(3, 4, 81), constant(3, 4, 82), constant(1, 4, 83));
        assert_diamond_sums_contributions(param(5, 3, 80).value(), |x, i| match i {
            0 => x.matmul(&w0),
            _ => x.matmul_bias(&w1, &b),
        });
        // The same tensor as the right operand.
        let (l, k) = (constant(2, 5, 84), constant(2, 3, 85));
        assert_diamond_sums_contributions(param(5, 3, 86).value(), |x, i| match i {
            0 => l.matmul(x),
            _ => k.matmul_tb(x),
        });
    }

    #[test]
    fn scatter_diamond_moves_then_adds() {
        // Segment attention scatters into `dz`: five arcs (one group of
        // four `dα` chains plus a remainder) and a node only its
        // self-loop reaches.
        let arcs = Arc::new(crate::ArcCsr::grouped(
            4,
            vec![1, 0, 2, 1, 3, 3],
            &[0, 0, 1, 2, 2, 3],
        ));
        let (a_src, a_dst, bias) = (constant(3, 1, 91), constant(3, 1, 92), constant(1, 3, 93));
        assert_diamond_sums_contributions(param(4, 3, 90).value(), |x, i| {
            let slope = [0.2, 0.5][i];
            Tensor::segment_attention(x, &a_src, &a_dst, &bias, slope, &arcs)
        });
        // The same tensor as an attention half.
        let z = constant(4, 3, 94);
        assert_diamond_sums_contributions(param(3, 1, 95).value(), |x, i| match i {
            0 => Tensor::segment_attention(&z, x, &a_dst, &bias, 0.2, &arcs),
            _ => Tensor::segment_attention(&z, &a_src, x, &bias, 0.2, &arcs),
        });
    }

    #[test]
    fn gather_diamond_moves_then_adds() {
        let k = constant(2, 3, 101);
        assert_diamond_sums_contributions(param(4, 3, 100).value(), |x, i| match i {
            0 => x.gather_rows(&[3, 0, 3]),
            _ => Tensor::concat_rows(&[k.clone(), x.clone()]),
        });
    }

    #[test]
    fn elementwise_diamond_moves_then_adds() {
        let c = constant(4, 3, 111);
        assert_diamond_sums_contributions(param(4, 3, 110).value(), |x, i| match i {
            0 => x.elu(1.0),
            _ => x.mul(&c),
        });
    }

    #[test]
    fn constant_left_operand_leaves_dw_equal_to_the_reference_product() {
        // Zeros in `x`, so `dW = xᵀ·g` takes its skip.
        let mut xv = param(6, 5, 120).value();
        for v in xv.as_mut_slice().iter_mut().step_by(4) {
            *v = 0.0;
        }
        let x = Tensor::constant(xv.clone());
        let g = param(6, 3, 121).value();
        let (w, b) = (param(5, 3, 122), param(1, 3, 123));
        let want = bits(&crate::reference::matmul_ta(&xv, &g));

        x.matmul(&w).backward_with(&g);
        assert_eq!(bits(&w.grad().unwrap()), want, "matmul");
        w.zero_grad();
        x.matmul_bias(&w, &b).backward_with(&g);
        assert_eq!(bits(&w.grad().unwrap()), want, "matmul_bias");
        assert_eq!(bits(&b.grad().unwrap()), bits(&g.sum_rows()));
        assert!(x.grad().is_none());
    }
}
