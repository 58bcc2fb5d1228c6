//! Differentiable operations.
//!
//! Every op computes its forward value eagerly and registers a backward
//! closure with the hand-derived adjoint. The op set is exactly what the
//! paper's models need: dense/sparse matrix products, point-wise
//! non-linearities, row/segment softmaxes (GAT attention, Eq. 16), gather /
//! scatter kernels for per-edge message passing, the commutative-operation
//! aggregators of CGNP (Eq. 14–16), and the masked BCE-with-logits loss of
//! Eq. (3)/(19).

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
                parents[0].accum_grad(&da);
                parents[1].accum_grad(&db);
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

    /// Negation.
    pub fn neg(&self) -> Tensor {
        self.scale(-1.0)
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
                parents[1].accum_grad(&g.sum_rows());
            }),
        )
    }

    /// Dense matrix product `self @ other`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let value = self.value_ref().matmul(&other.value_ref());
        Tensor::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| {
                let da = {
                    let b = parents[1].value_ref();
                    g.matmul_tb(&b)
                };
                let db = {
                    let a = parents[0].value_ref();
                    a.matmul_ta(g)
                };
                parents[0].accum_grad(&da);
                parents[1].accum_grad(&db);
            }),
        )
    }

    /// Fused affine map `self @ w + bias` (one kernel, no un-biased
    /// intermediate): the hot path of every `Linear`/`Mlp` forward.
    ///
    /// `bias` is a `1×n` row broadcast over the output rows.
    pub fn matmul_bias(&self, w: &Tensor, bias: &Tensor) -> Tensor {
        let value = self
            .value_ref()
            .matmul_bias(&w.value_ref(), &bias.value_ref());
        Tensor::from_op(
            value,
            vec![self.clone(), w.clone(), bias.clone()],
            Box::new(|g, parents| {
                let dx = {
                    let w = parents[1].value_ref();
                    g.matmul_tb(&w)
                };
                let dw = {
                    let x = parents[0].value_ref();
                    x.matmul_ta(g)
                };
                parents[0].accum_grad(&dx);
                parents[1].accum_grad(&dw);
                parents[2].accum_grad(&g.sum_rows());
            }),
        )
    }

    /// `self @ other.T` (used for attention scores, Eq. 16).
    pub fn matmul_tb(&self, other: &Tensor) -> Tensor {
        let value = self.value_ref().matmul_tb(&other.value_ref());
        Tensor::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| {
                // y = a bᵀ  ⇒  da = g b,  db = gᵀ a.
                let da = {
                    let b = parents[1].value_ref();
                    g.matmul(&b)
                };
                let db = {
                    let a = parents[0].value_ref();
                    g.matmul_ta(&a)
                };
                parents[0].accum_grad(&da);
                parents[1].accum_grad(&db);
            }),
        )
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let value = self.value_ref().transpose();
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, parents| parents[0].accum_grad(&g.transpose())),
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
                parents[0].accum_grad(&op_bw.transposed().spmm(g));
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
                parents[0].accum_grad(&op_bw.transposed().spmm(g));
                parents[1].accum_grad(&g.sum_rows());
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
                parents[0].accum_grad(&dx);
            }),
        )
    }

    /// Leaky ReLU with the given negative slope (GAT uses 0.2).
    pub fn leaky_relu(&self, slope: f32) -> Tensor {
        let value = self
            .value_ref()
            .map(|x| if x > 0.0 { x } else { slope * x });
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let dx = {
                    let x = parents[0].value_ref();
                    g.zip_map(&x, |gv, xv| if xv > 0.0 { gv } else { slope * gv })
                };
                parents[0].accum_grad(&dx);
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
                let dx = {
                    let x = parents[0].value_ref();
                    let mut d = g.clone();
                    for i in 0..d.len() {
                        let xv = x.as_slice()[i];
                        if xv <= 0.0 {
                            // d/dx α(eˣ−1) = αeˣ = y + α.
                            d.as_mut_slice()[i] *= y.as_slice()[i] + alpha;
                        }
                    }
                    d
                };
                parents[0].accum_grad(&dx);
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
                parents[0].accum_grad(&dx);
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
                parents[0].accum_grad(&dx);
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
            Box::new(move |g, parents| parents[0].accum_grad(&g.hadamard(&mask))),
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
                parents[0].accum_grad(&dx);
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
                parents[0].accum_grad(&dx);
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
                let mut offset = 0;
                for (p, &rows) in parents.iter().zip(&sizes) {
                    let idx: Vec<usize> = (offset..offset + rows).collect();
                    p.accum_grad(&g.select_rows(&idx));
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
                let _ = cols;
                parents[0].accum_grad(&dx);
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
                parents[0].accum_grad(&Matrix::full(rows, cols, g.item()));
            }),
        )
    }

    /// Mean of all elements as a `1×1` tensor.
    pub fn mean_all(&self) -> Tensor {
        let n = {
            let v = self.value_ref();
            (v.rows() * v.cols()) as f32
        };
        self.sum_all().scale(1.0 / n)
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
                parents[0].accum_grad(&dx);
            }),
        )
    }

    /// Softmax over segments of an `m×1` column: entry `i` belongs to segment
    /// `seg[i]` and is normalised against its segment only. This is the
    /// edge-softmax of GAT attention (grouped by destination node).
    pub fn segment_softmax(&self, seg: &[usize], n_seg: usize) -> Tensor {
        let value = {
            let x = self.value_ref();
            assert_eq!(x.cols(), 1, "segment_softmax expects an m×1 column");
            assert_eq!(x.rows(), seg.len(), "segment index length mismatch");
            let xs = x.as_slice();
            let mut maxes = vec![f32::NEG_INFINITY; n_seg];
            for (i, &s) in seg.iter().enumerate() {
                assert!(s < n_seg, "segment id out of range");
                maxes[s] = maxes[s].max(xs[i]);
            }
            let mut out = vec![0.0f32; xs.len()];
            let mut sums = vec![0.0f32; n_seg];
            for (i, &s) in seg.iter().enumerate() {
                let e = (xs[i] - maxes[s]).exp();
                out[i] = e;
                sums[s] += e;
            }
            for (i, &s) in seg.iter().enumerate() {
                out[i] /= sums[s].max(f32::MIN_POSITIVE);
            }
            Matrix::from_vec(xs.len(), 1, out)
        };
        let value = Arc::new(value);
        let y = Arc::clone(&value);
        let seg: Vec<usize> = seg.to_vec();
        Tensor::from_op_shared(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                // Per segment: dx_i = y_i (g_i − Σ_{j∈seg} g_j y_j).
                let mut dots = vec![0.0f32; n_seg];
                let gs = g.as_slice();
                let ys = y.as_slice();
                for (i, &s) in seg.iter().enumerate() {
                    dots[s] += gs[i] * ys[i];
                }
                let mut dx = Matrix::zeros(g.rows(), 1);
                for (i, &s) in seg.iter().enumerate() {
                    dx.as_mut_slice()[i] = ys[i] * (gs[i] - dots[s]);
                }
                parents[0].accum_grad(&dx);
            }),
        )
    }

    /// Per-edge weighted scatter-add: `out[dst[e]] += alpha[e] * feats[e]`.
    /// The aggregation step of GAT attention.
    ///
    /// `alpha` is `m×1`, `feats` is `m×d`, the output is `n×d`.
    pub fn weighted_scatter_rows(
        alpha: &Tensor,
        feats: &Tensor,
        dst: &[usize],
        n: usize,
    ) -> Tensor {
        let value = weighted_scatter_value(&alpha.value_ref(), &feats.value_ref(), dst, n, None);
        let dst: Vec<usize> = dst.to_vec();
        Tensor::from_op(
            value,
            vec![alpha.clone(), feats.clone()],
            Box::new(move |g, parents| {
                let (dalpha, dfeats) = weighted_scatter_grads(
                    g,
                    &parents[0].value_ref(),
                    &parents[1].value_ref(),
                    &dst,
                );
                parents[0].accum_grad(&dalpha);
                parents[1].accum_grad(&dfeats);
            }),
        )
    }

    /// Fused [`Tensor::weighted_scatter_rows`] plus a broadcast `1×d` bias
    /// row: the complete GAT aggregation `Σ_u α_uv z_u + b` in one kernel.
    pub fn weighted_scatter_rows_bias(
        alpha: &Tensor,
        feats: &Tensor,
        dst: &[usize],
        n: usize,
        bias: &Tensor,
    ) -> Tensor {
        let value = weighted_scatter_value(
            &alpha.value_ref(),
            &feats.value_ref(),
            dst,
            n,
            Some(&bias.value_ref()),
        );
        let dst: Vec<usize> = dst.to_vec();
        Tensor::from_op(
            value,
            vec![alpha.clone(), feats.clone(), bias.clone()],
            Box::new(move |g, parents| {
                let (dalpha, dfeats) = weighted_scatter_grads(
                    g,
                    &parents[0].value_ref(),
                    &parents[1].value_ref(),
                    &dst,
                );
                parents[0].accum_grad(&dalpha);
                parents[1].accum_grad(&dfeats);
                parents[2].accum_grad(&g.sum_rows());
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
                    let wq = parents[0].value_ref().get(0, q);
                    parents[q + 1].accum_grad(&g.scale(wq));
                }
                parents[0].accum_grad(&dw);
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
                parents[0].accum_grad(&dz);
            }),
        )
    }
}

impl Tensor {
    /// Element-wise exponential.
    pub fn exp(&self) -> Tensor {
        let value = Arc::new(self.value_ref().map(f32::exp));
        let y = Arc::clone(&value);
        Tensor::from_op_shared(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| parents[0].accum_grad(&g.hadamard(&y))),
        )
    }

    /// Element-wise natural logarithm of `x + eps` (clamped for safety).
    pub fn ln(&self, eps: f32) -> Tensor {
        let value = self
            .value_ref()
            .map(|x| (x + eps).max(f32::MIN_POSITIVE).ln());
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let dx = {
                    let x = parents[0].value_ref();
                    g.zip_map(&x, |gv, xv| gv / (xv + eps).max(f32::MIN_POSITIVE))
                };
                parents[0].accum_grad(&dx);
            }),
        )
    }

    /// Numerically stable softplus `ln(1 + eˣ)`.
    pub fn softplus(&self) -> Tensor {
        let value = self
            .value_ref()
            .map(|x| x.max(0.0) + (-x.abs()).exp().ln_1p());
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, parents| {
                let dx = {
                    let x = parents[0].value_ref();
                    g.zip_map(&x, |gv, xv| gv * stable_sigmoid(xv))
                };
                parents[0].accum_grad(&dx);
            }),
        )
    }

    /// Element-wise absolute value (subgradient 0 at the kink).
    pub fn abs(&self) -> Tensor {
        let value = self.value_ref().map(f32::abs);
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, parents| {
                let dx = {
                    let x = parents[0].value_ref();
                    g.zip_map(&x, |gv, xv| gv * xv.signum() * f32::from(xv != 0.0))
                };
                parents[0].accum_grad(&dx);
            }),
        )
    }

    /// Clamps values into `[lo, hi]`; gradient is zero outside the band.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        assert!(lo <= hi, "empty clamp range");
        let value = self.value_ref().map(|x| x.clamp(lo, hi));
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let dx = {
                    let x = parents[0].value_ref();
                    g.zip_map(&x, |gv, xv| if (lo..=hi).contains(&xv) { gv } else { 0.0 })
                };
                parents[0].accum_grad(&dx);
            }),
        )
    }

    /// Per-row sums, producing an `n×1` column.
    pub fn row_sums(&self) -> Tensor {
        let value = {
            let x = self.value_ref();
            let mut out = Matrix::zeros(x.rows(), 1);
            for r in 0..x.rows() {
                out.set(r, 0, x.row(r).iter().sum());
            }
            out
        };
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, parents| {
                let (rows, cols) = parents[0].shape();
                let mut dx = Matrix::zeros(rows, cols);
                for r in 0..rows {
                    let gv = g.get(r, 0);
                    for d in dx.row_mut(r) {
                        *d = gv;
                    }
                }
                parents[0].accum_grad(&dx);
            }),
        )
    }

    /// Column slice `[c0, c1)` as a new tensor.
    pub fn slice_cols(&self, c0: usize, c1: usize) -> Tensor {
        let value = {
            let x = self.value_ref();
            assert!(c0 < c1 && c1 <= x.cols(), "invalid column slice {c0}..{c1}");
            let mut out = Matrix::zeros(x.rows(), c1 - c0);
            for r in 0..x.rows() {
                out.row_mut(r).copy_from_slice(&x.row(r)[c0..c1]);
            }
            out
        };
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let (rows, cols) = parents[0].shape();
                let mut dx = Matrix::zeros(rows, cols);
                for r in 0..rows {
                    dx.row_mut(r)[c0..c1].copy_from_slice(g.row(r));
                }
                parents[0].accum_grad(&dx);
            }),
        )
    }

    /// Per-row squared L2 norm, `n×1` (used for explicit distance models).
    pub fn row_sq_norms(&self) -> Tensor {
        self.mul(self).row_sums()
    }
}

/// Forward value of the weighted scatter-add, optionally seeded with a
/// broadcast bias row instead of zeros.
fn weighted_scatter_value(
    a: &Matrix,
    f: &Matrix,
    dst: &[usize],
    n: usize,
    bias: Option<&Matrix>,
) -> Matrix {
    assert_eq!(a.cols(), 1, "alpha must be m×1");
    assert_eq!(a.rows(), f.rows(), "alpha/feats row mismatch");
    assert_eq!(a.rows(), dst.len(), "alpha/dst length mismatch");
    let mut out = match bias {
        Some(b) => {
            assert_eq!(b.rows(), 1, "bias must be a single row");
            assert_eq!(b.cols(), f.cols(), "bias width mismatch");
            let mut m = Matrix::zeros(n, f.cols());
            crate::parallel::seed_rows(m.as_mut_slice(), b.row(0));
            m
        }
        None => Matrix::zeros(n, f.cols()),
    };
    for (e, &d) in dst.iter().enumerate() {
        assert!(d < n, "destination out of range");
        let av = a.as_slice()[e];
        if av == 0.0 {
            continue;
        }
        let frow = f.row(e);
        let orow = out.row_mut(d);
        for (o, &fv) in orow.iter_mut().zip(frow) {
            *o += av * fv;
        }
    }
    out
}

/// `(dα, dfeats)` adjoints of the weighted scatter-add.
fn weighted_scatter_grads(g: &Matrix, a: &Matrix, f: &Matrix, dst: &[usize]) -> (Matrix, Matrix) {
    let m = dst.len();
    let mut dalpha = Matrix::zeros(m, 1);
    let mut dfeats = Matrix::zeros(m, f.cols());
    for (e, &d) in dst.iter().enumerate() {
        let grow = g.row(d);
        let frow = f.row(e);
        let mut dot = 0.0;
        for (&gv, &fv) in grow.iter().zip(frow) {
            dot += gv * fv;
        }
        dalpha.as_mut_slice()[e] = dot;
        let av = a.as_slice()[e];
        let drow = dfeats.row_mut(e);
        for (o, &gv) in drow.iter_mut().zip(grow) {
            *o = av * gv;
        }
    }
    (dalpha, dfeats)
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
    fn segment_softmax_normalises_per_segment() {
        let x = Tensor::parameter(Matrix::from_vec(5, 1, vec![1.0, 2.0, 3.0, 4.0, 5.0]));
        let seg = vec![0, 0, 1, 1, 1];
        let y = x.segment_softmax(&seg, 2).value();
        let s0 = y.get(0, 0) + y.get(1, 0);
        let s1 = y.get(2, 0) + y.get(3, 0) + y.get(4, 0);
        assert!((s0 - 1.0).abs() < 1e-5);
        assert!((s1 - 1.0).abs() < 1e-5);
        // Larger logits get larger mass within a segment.
        assert!(y.get(1, 0) > y.get(0, 0));
        assert!(y.get(4, 0) > y.get(2, 0));
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
    fn weighted_scatter_matches_manual() {
        let alpha = Tensor::parameter(Matrix::from_vec(3, 1, vec![0.5, 1.0, 2.0]));
        let feats = Tensor::parameter(Matrix::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]));
        let out = Tensor::weighted_scatter_rows(&alpha, &feats, &[0, 0, 1], 2);
        let v = out.value();
        assert!(v.approx_eq(&Matrix::from_vec(2, 2, vec![0.5, 1.0, 2.0, 2.0]), 1e-6));
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
    fn weighted_scatter_bias_matches_unfused() {
        let alpha = param(4, 1, 71);
        let feats = param(4, 3, 72);
        let bias = param(1, 3, 73);
        let dst = [0usize, 1, 1, 2];
        let fused = Tensor::weighted_scatter_rows_bias(&alpha, &feats, &dst, 3, &bias);
        let unfused = Tensor::weighted_scatter_rows(&alpha, &feats, &dst, 3).add_bias(&bias);
        assert!(fused.value().approx_eq(&unfused.value(), 1e-5));
        fused.sum_all().backward();
        let (ga, gf, gb) = (
            alpha.grad().unwrap(),
            feats.grad().unwrap(),
            bias.grad().unwrap(),
        );
        alpha.zero_grad();
        feats.zero_grad();
        bias.zero_grad();
        unfused.sum_all().backward();
        assert!(ga.approx_eq(&alpha.grad().unwrap(), 1e-5));
        assert!(gf.approx_eq(&feats.grad().unwrap(), 1e-5));
        assert!(gb.approx_eq(&bias.grad().unwrap(), 1e-5));
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
}
