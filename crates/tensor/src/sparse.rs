//! Compressed sparse row (CSR) matrices.
//!
//! GNN message passing multiplies a fixed sparse operator (the normalised
//! adjacency) with a dense embedding matrix on every layer and every task, so
//! this is the hottest kernel in the system. The CSR is immutable after
//! construction; [`SparseOperator`] additionally precomputes the transpose so
//! the autodiff backward pass (`dX = Sᵀ · dY`) never rebuilds it.
//!
//! Like the dense side, storage is generic over the element type
//! ([`CsrMatrixT<E>`]) with the [`CsrMatrix`] alias pinning the training
//! stack to `f32`, and the product has one implementation,
//! [`CsrMatrixT::spmm_in`], whose [`KernelCtx`] picks the worker count and
//! the exact or fast-math tier at runtime.

use crate::elem::Elem;
use crate::matrix::MatrixT;
use crate::mode::{KernelCtx, MathMode};

/// An immutable CSR sparse matrix over elements of type `E`.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrixT<E> {
    n_rows: usize,
    n_cols: usize,
    /// Row pointer array of length `n_rows + 1`.
    indptr: Vec<usize>,
    /// Column indices, grouped by row.
    indices: Vec<usize>,
    /// Values aligned with `indices`.
    values: Vec<E>,
}

/// The exact/training dtype (see [`crate::Matrix`]).
pub type CsrMatrix = CsrMatrixT<f32>;

impl<E: Elem> CsrMatrixT<E> {
    /// Builds a CSR matrix from unsorted COO triplets. Duplicate entries are
    /// summed.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn from_triplets(n_rows: usize, n_cols: usize, triplets: &[(usize, usize, E)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(r < n_rows && c < n_cols, "triplet ({r},{c}) out of bounds");
        }
        // Counting sort by row.
        let mut counts = vec![0usize; n_rows + 1];
        for &(r, _, _) in triplets {
            counts[r + 1] += 1;
        }
        for i in 0..n_rows {
            counts[i + 1] += counts[i];
        }
        let mut cols = vec![0usize; triplets.len()];
        let mut vals = vec![E::ZERO; triplets.len()];
        let mut cursor = counts.clone();
        for &(r, c, v) in triplets {
            let pos = cursor[r];
            cols[pos] = c;
            vals[pos] = v;
            cursor[r] += 1;
        }
        // Sort within each row and merge duplicates.
        let mut indptr = Vec::with_capacity(n_rows + 1);
        let mut indices = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        indptr.push(0);
        let mut row_buf: Vec<(usize, E)> = Vec::new();
        for r in 0..n_rows {
            row_buf.clear();
            for i in counts[r]..counts[r + 1] {
                row_buf.push((cols[i], vals[i]));
            }
            row_buf.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row_buf.len() {
                let (c, mut v) = row_buf[i];
                let mut j = i + 1;
                while j < row_buf.len() && row_buf[j].0 == c {
                    v += row_buf[j].1;
                    j += 1;
                }
                indices.push(c);
                values.push(v);
                i = j;
            }
            indptr.push(indices.len());
        }
        Self {
            n_rows,
            n_cols,
            indptr,
            indices,
            values,
        }
    }

    /// The identity operator of size `n`.
    pub fn identity(n: usize) -> Self {
        Self {
            n_rows: n,
            n_cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![E::ONE; n],
        }
    }

    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `(column, value)` pairs of row `r`.
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (usize, E)> + '_ {
        let span = self.indptr[r]..self.indptr[r + 1];
        self.indices[span.clone()]
            .iter()
            .copied()
            .zip(self.values[span].iter().copied())
    }

    /// Structure-preserving dtype conversion (values cast, index arrays
    /// shared bitwise). See [`MatrixT::cast`].
    pub fn cast<F: Elem>(&self) -> CsrMatrixT<F> {
        CsrMatrixT {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            values: self
                .values
                .iter()
                .map(|&v| F::from_f64(v.to_f64()))
                .collect(),
        }
    }

    /// Sparse × dense product `self @ x`.
    ///
    /// Rayon-parallel over output-row chunks above a work threshold;
    /// per-row accumulation stays serial, so results are bitwise
    /// identical to [`crate::reference::spmm`].
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn spmm(&self, x: &MatrixT<E>) -> MatrixT<E> {
        self.spmm_in(x, None, KernelCtx::default())
    }

    /// Fused `self @ x + bias` with a `1×cols` bias row broadcast over
    /// every output row (the GCN layer's `Â (H W) + b` in one kernel).
    pub fn spmm_bias(&self, x: &MatrixT<E>, bias: &MatrixT<E>) -> MatrixT<E> {
        self.spmm_in(x, Some(bias), KernelCtx::default())
    }

    /// `self @ x (+ bias)` on the worker count and kernel tier `ctx` names
    /// (see [`MatrixT::matmul_in`]). A bias row seeds every output row
    /// before either tier accumulates on top of it.
    ///
    /// # Panics
    /// Panics on dimension mismatch, or when `bias` is not `1×cols`.
    pub fn spmm_in(&self, x: &MatrixT<E>, bias: Option<&MatrixT<E>>, ctx: KernelCtx) -> MatrixT<E> {
        assert_eq!(
            self.n_cols,
            x.rows(),
            "spmm dims mismatch: {}x{} @ {:?}",
            self.n_rows,
            self.n_cols,
            x.shape()
        );
        let cols = x.cols();
        if let Some(bias) = bias {
            assert_eq!(bias.rows(), 1, "bias must be a single row");
            assert_eq!(bias.cols(), cols, "bias width mismatch");
        }
        let work = self.nnz().saturating_mul(cols);
        let mut out = MatrixT::zeros(self.n_rows, cols);
        crate::parallel::for_each_row_chunk(
            out.as_mut_slice(),
            self.n_rows,
            cols,
            ctx.workers(work),
            |r0, r1, chunk| {
                if let Some(bias) = bias {
                    crate::parallel::seed_rows(chunk, bias.as_slice());
                }
                match ctx.mode {
                    MathMode::Exact => self.spmm_rows(x, r0, r1, chunk),
                    MathMode::Fast => self.spmm_rows_fast(x, r0, r1, chunk),
                }
            },
        );
        out
    }

    /// Accumulates rows `[r0, r1)` of `self @ x` into `chunk`.
    fn spmm_rows(&self, x: &MatrixT<E>, r0: usize, r1: usize, chunk: &mut [E]) {
        let cols = x.cols();
        // Hoist the CSR arrays so the inner loop indexes local slices the
        // optimiser can bounds-check once per row instead of per nonzero.
        let indptr = &self.indptr[r0..=r1];
        for r in r0..r1 {
            let orow = &mut chunk[(r - r0) * cols..(r - r0 + 1) * cols];
            let span = indptr[r - r0]..indptr[r - r0 + 1];
            let idx = &self.indices[span.clone()];
            let val = &self.values[span];
            for (&c, &v) in idx.iter().zip(val) {
                let xrow = x.row(c);
                for (o, &xv) in orow.iter_mut().zip(xrow) {
                    *o += v * xv;
                }
            }
        }
    }

    /// Fast-tier spmm rows: four nonzeros fused per pass over the output
    /// row, so each output element carries four independent products per
    /// iteration and the row is loaded/stored once per 4 nonzeros.
    #[cfg(feature = "fast-math")]
    fn spmm_rows_fast(&self, x: &MatrixT<E>, r0: usize, r1: usize, chunk: &mut [E]) {
        let cols = x.cols();
        for r in r0..r1 {
            let orow = &mut chunk[(r - r0) * cols..(r - r0 + 1) * cols];
            let span = self.indptr[r]..self.indptr[r + 1];
            let idx = &self.indices[span.clone()];
            let val = &self.values[span];
            let mut i = 0;
            while i + 4 <= idx.len() {
                let (v0, v1, v2, v3) = (val[i], val[i + 1], val[i + 2], val[i + 3]);
                // Re-slice every operand to the output width so the
                // optimiser proves all five ranges once and vectorises
                // the fused loop; indexed access on the raw rows keeps a
                // bounds check per element and stays scalar.
                let x0 = &x.row(idx[i])[..cols];
                let x1 = &x.row(idx[i + 1])[..cols];
                let x2 = &x.row(idx[i + 2])[..cols];
                let x3 = &x.row(idx[i + 3])[..cols];
                let orow = &mut orow[..cols];
                for j in 0..cols {
                    orow[j] += (v0 * x0[j] + v1 * x1[j]) + (v2 * x2[j] + v3 * x3[j]);
                }
                i += 4;
            }
            for ii in i..idx.len() {
                let v = val[ii];
                let xrow = x.row(idx[ii]);
                for (o, &xv) in orow.iter_mut().zip(xrow) {
                    *o += v * xv;
                }
            }
        }
    }

    /// Without the `fast-math` feature the fast tier *is* the exact rows,
    /// so [`MathMode::Fast`] stays bitwise [`MathMode::Exact`].
    #[cfg(not(feature = "fast-math"))]
    fn spmm_rows_fast(&self, x: &MatrixT<E>, r0: usize, r1: usize, chunk: &mut [E]) {
        self.spmm_rows(x, r0, r1, chunk);
    }

    /// Transposed copy (CSC of `self` re-expressed as CSR).
    pub fn transpose(&self) -> Self {
        let mut counts = vec![0usize; self.n_cols + 1];
        for &c in &self.indices {
            counts[c + 1] += 1;
        }
        for i in 0..self.n_cols {
            counts[i + 1] += counts[i];
        }
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![E::ZERO; self.nnz()];
        let mut cursor = counts.clone();
        for r in 0..self.n_rows {
            for i in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[i];
                let pos = cursor[c];
                indices[pos] = r;
                values[pos] = self.values[i];
                cursor[c] += 1;
            }
        }
        Self {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            indptr: counts,
            indices,
            values,
        }
    }

    /// Densifies; intended for tests and debugging only.
    pub fn to_dense(&self) -> MatrixT<E> {
        let mut m = MatrixT::zeros(self.n_rows, self.n_cols);
        for r in 0..self.n_rows {
            let row = m.row_mut(r);
            for (c, v) in self.row_iter(r) {
                row[c] += v;
            }
        }
        m
    }

    /// Copy with selected rows replaced and dimensions optionally grown —
    /// the per-row refresh primitive behind live-graph updates. `updates`
    /// maps a row index to its complete new contents (sorted by column,
    /// no duplicates); rows of the old matrix not listed are copied
    /// bitwise, and new rows beyond the old row count default to empty
    /// unless listed. Equivalent to `from_triplets` on the merged
    /// contents, but untouched rows cost a memcpy instead of a sort.
    ///
    /// # Panics
    /// Panics if dimensions shrink, an update row is out of range, or an
    /// update's columns are out of range / unsorted / duplicated.
    pub fn with_updated_rows(
        &self,
        n_rows: usize,
        n_cols: usize,
        updates: &std::collections::HashMap<usize, Vec<(usize, E)>>,
    ) -> Self {
        assert!(
            n_rows >= self.n_rows && n_cols >= self.n_cols,
            "with_updated_rows cannot shrink {}x{} to {n_rows}x{n_cols}",
            self.n_rows,
            self.n_cols
        );
        for (&r, row) in updates {
            assert!(r < n_rows, "update row {r} out of range for {n_rows} rows");
            assert!(
                row.windows(2).all(|w| w[0].0 < w[1].0),
                "update row {r} must be sorted by column without duplicates"
            );
            if let Some(&(c, _)) = row.last() {
                assert!(c < n_cols, "update row {r} column {c} out of range");
            }
        }
        let mut indptr = Vec::with_capacity(n_rows + 1);
        let mut indices = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        indptr.push(0);
        for r in 0..n_rows {
            match updates.get(&r) {
                Some(row) => {
                    indices.extend(row.iter().map(|&(c, _)| c));
                    values.extend(row.iter().map(|&(_, v)| v));
                }
                None if r < self.n_rows => {
                    let span = self.indptr[r]..self.indptr[r + 1];
                    indices.extend_from_slice(&self.indices[span.clone()]);
                    values.extend_from_slice(&self.values[span]);
                }
                None => {}
            }
            indptr.push(indices.len());
        }
        Self {
            n_rows,
            n_cols,
            indptr,
            indices,
            values,
        }
    }

    /// True when the matrix equals its transpose (structure and values).
    pub fn is_symmetric(&self, tol: E) -> bool {
        if self.n_rows != self.n_cols {
            return false;
        }
        let t = self.transpose();
        self.indptr == t.indptr
            && self.indices == t.indices
            && self
                .values
                .iter()
                .zip(&t.values)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

/// A fixed sparse operator packaged with its transpose for use inside the
/// autodiff graph (see [`crate::Tensor::spmm`]).
///
/// For the symmetric normalised adjacency used by GCN the transpose equals
/// the operator itself, but e.g. the row-normalised mean aggregator of
/// GraphSAGE is not symmetric, so the transpose is always materialised.
/// Pinned to the training dtype: dtype-dispatched serving casts the
/// forward CSR once at load instead (see [`CsrMatrixT::cast`]).
#[derive(Clone, Debug)]
pub struct SparseOperator {
    forward: CsrMatrix,
    transposed: CsrMatrix,
    /// Graph epoch this operator was derived at (`0` for operators not
    /// tied to a live graph). Consumers compare against the source
    /// graph's epoch to decide between reuse, per-row refresh, and a
    /// full epoch-swap rebuild.
    epoch: u64,
}

impl SparseOperator {
    pub fn new(forward: CsrMatrix) -> Self {
        Self::at_epoch(forward, 0)
    }

    /// An operator tagged with the graph epoch it reflects.
    pub fn at_epoch(forward: CsrMatrix, epoch: u64) -> Self {
        let transposed = forward.transpose();
        Self {
            forward,
            transposed,
            epoch,
        }
    }

    /// The graph epoch this operator was built at.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    #[inline]
    pub fn forward(&self) -> &CsrMatrix {
        &self.forward
    }

    #[inline]
    pub fn transposed(&self) -> &CsrMatrix {
        &self.transposed
    }

    #[inline]
    pub fn n_rows(&self) -> usize {
        self.forward.n_rows()
    }

    #[inline]
    pub fn n_cols(&self) -> usize {
        self.forward.n_cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn sample() -> CsrMatrix {
        // [[0, 2, 0],
        //  [1, 0, 3],
        //  [0, 4, 0]]
        CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (1, 0, 1.0), (1, 2, 3.0), (2, 1, 4.0)])
    }

    #[test]
    fn from_triplets_sorts_and_dedups() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 2, 1.0), (0, 0, 2.0), (0, 2, 0.5)]);
        let row: Vec<_> = m.row_iter(0).collect();
        assert_eq!(row, vec![(0, 2.0), (2, 1.5)]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.row_iter(1).count(), 0);
    }

    #[test]
    fn spmm_matches_dense() {
        let s = sample();
        let x = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let sparse = s.spmm(&x);
        let dense = s.to_dense().matmul(&x);
        assert!(sparse.approx_eq(&dense, 1e-5));
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let s = sample();
        let t = s.transpose();
        assert!(t.to_dense().approx_eq(&s.to_dense().transpose(), 1e-6));
        // Involution.
        assert_eq!(t.transpose(), s);
    }

    #[test]
    fn identity_spmm_is_noop() {
        let i = CsrMatrix::identity(4);
        let x = Matrix::from_vec(4, 2, (0..8).map(|v| v as f32).collect());
        assert!(i.spmm(&x).approx_eq(&x, 0.0));
    }

    #[test]
    fn symmetry_detection() {
        let sym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        assert!(sym.is_symmetric(1e-6));
        assert!(!sample().is_symmetric(1e-6));
    }

    #[test]
    fn operator_precomputes_transpose() {
        let op = SparseOperator::new(sample());
        let expect = sample().to_dense().transpose();
        assert!(op.transposed().to_dense().approx_eq(&expect, 0.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn triplet_bounds_checked() {
        let _ = CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }

    #[test]
    fn row_update_matches_from_triplets() {
        let s = sample();
        // Replace row 1 and leave the others untouched; equals a scratch
        // build on the merged triplets, bitwise.
        let mut updates = std::collections::HashMap::new();
        updates.insert(1usize, vec![(0usize, 5.0f32), (1, 6.0)]);
        let patched = s.with_updated_rows(3, 3, &updates);
        let scratch =
            CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (1, 0, 5.0), (1, 1, 6.0), (2, 1, 4.0)]);
        assert_eq!(patched, scratch);
    }

    #[test]
    fn row_update_grows_dimensions() {
        let s = sample();
        let mut updates = std::collections::HashMap::new();
        updates.insert(3usize, vec![(3usize, 1.0f32)]);
        let grown = s.with_updated_rows(5, 4, &updates);
        assert_eq!(grown.n_rows(), 5);
        assert_eq!(grown.n_cols(), 4);
        assert_eq!(grown.row_iter(3).collect::<Vec<_>>(), vec![(3, 1.0)]);
        assert_eq!(grown.row_iter(4).count(), 0, "unlisted new row is empty");
        assert_eq!(
            grown.row_iter(0).collect::<Vec<_>>(),
            s.row_iter(0).collect::<Vec<_>>()
        );
        // A grown matrix still round-trips through the transpose.
        assert_eq!(grown.transpose().transpose(), grown);
    }

    #[test]
    fn row_update_can_empty_a_row() {
        let s = sample();
        let mut updates = std::collections::HashMap::new();
        updates.insert(1usize, Vec::new());
        let patched = s.with_updated_rows(3, 3, &updates);
        assert_eq!(patched.nnz(), 2);
        assert_eq!(patched.row_iter(1).count(), 0);
    }

    #[test]
    #[should_panic(expected = "sorted by column")]
    fn row_update_rejects_unsorted_rows() {
        let mut updates = std::collections::HashMap::new();
        updates.insert(0usize, vec![(2usize, 1.0f32), (0, 1.0)]);
        let _ = sample().with_updated_rows(3, 3, &updates);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn row_update_rejects_shrinking() {
        let _ = sample().with_updated_rows(2, 3, &std::collections::HashMap::new());
    }

    #[test]
    fn operator_epoch_tagging() {
        assert_eq!(SparseOperator::new(sample()).epoch(), 0);
        assert_eq!(SparseOperator::at_epoch(sample(), 7).epoch(), 7);
    }

    #[test]
    fn cast_preserves_structure_and_values() {
        let s = sample();
        let up: CsrMatrixT<f64> = s.cast();
        assert_eq!(up.nnz(), s.nnz());
        assert_eq!(
            up.row_iter(1).collect::<Vec<_>>(),
            vec![(0usize, 1.0f64), (2, 3.0)]
        );
        let back: CsrMatrix = up.cast();
        assert_eq!(back, s);
    }

    #[test]
    fn spmm_mode_agrees_across_tiers() {
        // A row with >4 nonzeros so the fast kernel's unrolled body runs.
        let mut triplets = Vec::new();
        for c in 0..7 {
            triplets.push((0usize, c, 0.5 + c as f32));
            triplets.push((1usize, 6 - c, 1.5 - 0.25 * c as f32));
        }
        let s = CsrMatrix::from_triplets(2, 7, &triplets);
        let x = Matrix::from_vec(7, 3, (0..21).map(|i| i as f32 * 0.21 - 2.0).collect());
        let bias = Matrix::from_vec(1, 3, vec![0.75, -0.5, 0.125]);
        let exact = s.spmm(&x);
        let exact_bias = s.spmm_bias(&x, &bias);
        for mode in [MathMode::Exact, MathMode::Fast] {
            assert!(s.spmm_in(&x, None, mode.into()).approx_eq(&exact, 1e-4));
            assert!(s
                .spmm_in(&x, Some(&bias), mode.into())
                .approx_eq(&exact_bias, 1e-4));
        }
    }
}
