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
/// edge logits, the three passes of a max-subtracted segment softmax,
/// then a scatter-add of the weighted source rows onto bias-seeded output
/// rows that skips zero weights.
pub fn segment_attention<E: Elem>(att: &SegmentAttention<'_, E>, z: &MatrixT<E>) -> MatrixT<E> {
    let (dst, _, alpha) = attention_weights(att, z);
    let mut out = MatrixT::zeros(att.arcs.n(), z.cols());
    crate::parallel::seed_rows(out.as_mut_slice(), att.bias);
    for ((&s, &d), &a) in att.arcs.src.iter().zip(&dst).zip(&alpha) {
        if a == E::ZERO {
            continue;
        }
        for (o, &zv) in out.row_mut(d).iter_mut().zip(z.row(s)) {
            *o += a * zv;
        }
    }
    out
}

/// Per arc: its destination, its logit before the LeakyReLU, and its
/// normalised weight — [`segment_attention`]'s passes up to the scatter.
fn attention_weights<E: Elem>(
    att: &SegmentAttention<'_, E>,
    z: &MatrixT<E>,
) -> (Vec<usize>, Vec<E>, Vec<E>) {
    let n = att.arcs.n();
    let src = &att.arcs.src;
    let dst: Vec<usize> = att.arcs.destinations().collect();

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
    let logits: Vec<E> = src
        .iter()
        .zip(&dst)
        .map(|(&s, &d)| s_src[s] + s_dst[d])
        .collect();

    let mut alpha: Vec<E> = logits
        .iter()
        .map(|&v| if v > E::ZERO { v } else { att.slope * v })
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
    (dst, logits, alpha)
}

/// `[dz, da_src, da_dst, dbias]` of [`segment_attention`] against the
/// output gradient `g`: each of its passes differentiated on its own and
/// run in the order a tape of them runs backward — the oracle of
/// `Tensor::segment_attention`'s adjoint.
///
/// The scatter-add first: `dbias` sums `g`'s rows, `dα[e] = ⟨g[dst e],
/// z[src e]⟩` from `+0` in column order, and `α[e]·g[dst e]` is added
/// onto `dz[src e]` (zeros to start) for every arc in list order. Then
/// the segment softmax (a per-destination dot from `+0` in arc order) and
/// the LeakyReLU (a select on `logit > 0`); each logit adjoint is added
/// onto both score halves' adjoints, `ds_dst` and `ds_src` (zeros, arcs
/// in list order). Last the destination half's product, `dz += ds_dst ·
/// a_dstᵀ` and `da_dst = zᵀ·ds_dst`, then the source half's the same way
/// — the naive [`matmul_tb`] / [`matmul_ta`] loops.
pub fn segment_attention_grads(
    att: &SegmentAttention<'_, f32>,
    z: &Matrix,
    g: &Matrix,
) -> [Matrix; 4] {
    let (dst, logits, alpha) = attention_weights(att, z);
    let src = &att.arcs.src;
    let (n, d) = z.shape();
    let m = src.len();

    let mut dbias = Matrix::zeros(1, d);
    for r in 0..n {
        for (o, &gv) in dbias.row_mut(0).iter_mut().zip(g.row(r)) {
            *o += gv;
        }
    }
    let mut d_alpha = vec![0.0f32; m];
    let mut dz = Matrix::zeros(n, d);
    for e in 0..m {
        for (&gv, &zv) in g.row(dst[e]).iter().zip(z.row(src[e])) {
            d_alpha[e] += gv * zv;
        }
        for (o, &gv) in dz.row_mut(src[e]).iter_mut().zip(g.row(dst[e])) {
            *o += alpha[e] * gv;
        }
    }

    let mut dots = vec![0.0f32; n];
    for e in 0..m {
        dots[dst[e]] += d_alpha[e] * alpha[e];
    }
    let d_logit: Vec<f32> = (0..m)
        .map(|e| {
            let d_soft = alpha[e] * (d_alpha[e] - dots[dst[e]]);
            if logits[e] > 0.0 {
                d_soft
            } else {
                att.slope * d_soft
            }
        })
        .collect();

    let mut half = |ends: &[usize], a: &[f32]| {
        let mut ds = Matrix::zeros(n, 1);
        for (&v, &de) in ends.iter().zip(&d_logit) {
            ds.as_mut_slice()[v] += de;
        }
        let a = Matrix::from_vec(d, 1, a.to_vec());
        for (o, &p) in dz
            .as_mut_slice()
            .iter_mut()
            .zip(matmul_tb(&ds, &a).as_slice())
        {
            *o += p;
        }
        matmul_ta(z, &ds)
    };
    let da_dst = half(&dst, att.a_dst);
    let da_src = half(src, att.a_src);
    [dz, da_src, da_dst, dbias]
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
