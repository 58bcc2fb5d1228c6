//! Naive reference kernels.
//!
//! These are the original single-threaded loops the optimised backend in
//! [`crate::matrix`] / [`crate::sparse`] replaced. They stay in the tree
//! as the semantic ground truth: the blocked/parallel kernels are required
//! to produce **bitwise identical** results (same per-element accumulation
//! order, same skip of explicit zeros), and the property tests in
//! `tests/kernel_equivalence.rs` pin that contract. The micro-benchmarks
//! also measure speedups against these.

use crate::attention::SegmentAttention;
use crate::elem::Elem;
use crate::matrix::{Matrix, MatrixT};
use crate::scores::CentroidScores;
use crate::sparse::CsrMatrix;

/// Naive `a @ b` (row-major ikj loop, skipping explicit zeros of `a`).
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul dims mismatch: {:?} @ {:?}",
        a.shape(),
        b.shape()
    );
    let mut out = Matrix::zeros(a.rows(), b.cols());
    let oc = b.cols();
    for i in 0..a.rows() {
        let arow = a.row(i);
        let orow = &mut out.as_mut_slice()[i * oc..(i + 1) * oc];
        for (k, &aik) in arow.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let brow = &b.as_slice()[k * oc..(k + 1) * oc];
            for (o, &bkj) in orow.iter_mut().zip(brow) {
                *o += aik * bkj;
            }
        }
    }
    out
}

/// Naive `a @ b.T` without materialising the transpose.
pub fn matmul_tb(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_tb dims mismatch: {:?} @ {:?}.T",
        a.shape(),
        b.shape()
    );
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        let arow = a.row(i);
        let orow = &mut out.as_mut_slice()[i * b.rows()..(i + 1) * b.rows()];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = b.row(j);
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            *o = acc;
        }
    }
    out
}

/// Naive `a.T @ b` without materialising the transpose.
pub fn matmul_ta(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_ta dims mismatch: {:?}.T @ {:?}",
        a.shape(),
        b.shape()
    );
    let mut out = Matrix::zeros(a.cols(), b.cols());
    let oc = b.cols();
    for i in 0..a.rows() {
        let arow = a.row(i);
        let brow = b.row(i);
        for (k, &aik) in arow.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let orow = &mut out.as_mut_slice()[k * oc..(k + 1) * oc];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += aik * bv;
            }
        }
    }
    out
}

/// Naive CSR × dense product.
pub fn spmm(s: &CsrMatrix, x: &Matrix) -> Matrix {
    assert_eq!(
        s.n_cols(),
        x.rows(),
        "spmm dims mismatch: {}x{} @ {:?}",
        s.n_rows(),
        s.n_cols(),
        x.shape()
    );
    let mut out = Matrix::zeros(s.n_rows(), x.cols());
    let cols = x.cols();
    for r in 0..s.n_rows() {
        let orow = &mut out.as_mut_slice()[r * cols..(r + 1) * cols];
        for (c, v) in s.row_iter(r) {
            let xrow = x.row(c);
            for (o, &xv) in orow.iter_mut().zip(xrow) {
                *o += v * xv;
            }
        }
    }
    out
}

/// Naive `(dα, dfeats)` adjoints of the weighted scatter-add
/// `out[dst[e]] += α[e]·feats[e]`, one arc at a time — the loop
/// `Tensor::weighted_scatter_rows`' backward runs four arcs abreast:
/// `dα[e]` sums `g[dst[e], j]·feats[e, j]` from `+0` in column order,
/// `dfeats[e] = α[e]·g[dst[e]]`.
pub fn weighted_scatter_grads(
    g: &Matrix,
    alpha: &Matrix,
    feats: &Matrix,
    dst: &[usize],
) -> (Matrix, Matrix) {
    let m = dst.len();
    let mut dalpha = Matrix::zeros(m, 1);
    let mut dfeats = Matrix::zeros(m, feats.cols());
    for (e, &d) in dst.iter().enumerate() {
        let grow = g.row(d);
        let mut dot = 0.0;
        for (&gv, &fv) in grow.iter().zip(feats.row(e)) {
            dot += gv * fv;
        }
        dalpha.as_mut_slice()[e] = dot;
        let av = alpha.as_slice()[e];
        for (o, &gv) in dfeats.row_mut(e).iter_mut().zip(grow) {
            *o = av * gv;
        }
    }
    (dalpha, dfeats)
}

/// Naive ELU adjoint, branching on the input's sign — the loop
/// `Tensor::elu`'s backward replaced with a select: `g` where `x > 0`,
/// `g·(y + α)` elsewhere, `y` being the forward output.
pub fn elu_grad(g: &Matrix, x: &Matrix, y: &Matrix, alpha: f32) -> Matrix {
    let mut d = g.clone();
    for i in 0..d.len() {
        if x.as_slice()[i] <= 0.0 {
            d.as_mut_slice()[i] *= y.as_slice()[i] + alpha;
        }
    }
    d
}

/// Multi-pass GAT attention over an arc list — the formulation
/// [`SegmentAttention::forward`] fuses, kept as its oracle: the two
/// `n×1` score products (the naive [`matmul`] loop), one pass for the
/// edge logits, the three passes of a max-subtracted segment softmax
/// (as `Tensor::segment_softmax`), then a scatter-add of the weighted
/// source rows onto bias-seeded output rows that skips zero weights (as
/// `Tensor::weighted_scatter_rows_bias`).
pub fn segment_attention<E: Elem>(att: &SegmentAttention<'_, E>, z: &MatrixT<E>) -> MatrixT<E> {
    let n = att.dst_ptr.len().saturating_sub(1);
    let src = att.src;
    let dst: Vec<usize> = (0..n)
        .flat_map(|v| std::iter::repeat_n(v, att.dst_ptr[v + 1] - att.dst_ptr[v]))
        .collect();

    let score = |a: &[E]| -> Vec<E> {
        (0..n)
            .map(|r| {
                let mut acc = E::ZERO;
                for (&zv, &av) in z.row(r).iter().zip(a) {
                    if zv == E::ZERO {
                        continue;
                    }
                    acc += zv * av;
                }
                acc
            })
            .collect()
    };
    let (s_src, s_dst) = (score(att.a_src), score(att.a_dst));

    let mut alpha: Vec<E> = src
        .iter()
        .zip(&dst)
        .map(|(&s, &d)| {
            let v = s_src[s] + s_dst[d];
            if v > E::ZERO {
                v
            } else {
                att.slope * v
            }
        })
        .collect();

    let mut maxes = vec![E::neg_infinity(); n];
    for (&e, &d) in alpha.iter().zip(&dst) {
        maxes[d] = maxes[d].max(e);
    }
    let mut sums = vec![E::ZERO; n];
    for (e, &d) in alpha.iter_mut().zip(&dst) {
        *e = (*e - maxes[d]).exp();
        sums[d] += *e;
    }
    for (e, &d) in alpha.iter_mut().zip(&dst) {
        *e = *e / sums[d].max(E::min_positive());
    }

    let mut out = MatrixT::zeros(n, z.cols());
    crate::parallel::seed_rows(out.as_mut_slice(), att.bias);
    for ((&s, &d), &a) in src.iter().zip(&dst).zip(&alpha) {
        if a == E::ZERO {
            continue;
        }
        for (o, &zv) in out.row_mut(d).iter_mut().zip(z.row(s)) {
            *o += a * zv;
        }
    }
    out
}

/// One (query, node) at a time — the formulation
/// [`CentroidScores::forward`] batches, kept as its oracle: per centroid,
/// every context row's inner product accumulated in index order from `+0`
/// (the naive [`matmul_tb`] loop against a one-row right operand), then
/// the branch-stable sigmoid in `E` (the expression of
/// [`crate::ops::stable_sigmoid`]), cast to `f32`.
pub fn centroid_scores<E: Elem>(scores: &CentroidScores<'_, E>) -> Vec<Vec<f32>> {
    let context = scores.context;
    (0..scores.centroids.rows())
        .map(|q| {
            let centroid = scores.centroids.row(q);
            (0..context.rows())
                .map(|v| {
                    let mut acc = E::ZERO;
                    for (&hv, &cv) in context.row(v).iter().zip(centroid) {
                        acc += hv * cv;
                    }
                    let p = if acc >= E::ZERO {
                        E::ONE / (E::ONE + (-acc).exp())
                    } else {
                        let e = acc.exp();
                        e / (E::ONE + e)
                    };
                    p.to_f32()
                })
                .collect()
        })
        .collect()
}
