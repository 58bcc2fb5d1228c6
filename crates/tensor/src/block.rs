//! Dtype-dispatched storage for dense and sparse matrices.
//!
//! A serving session picks its element type at load time from a CLI flag,
//! so the dtype is a runtime value while every kernel is compiled per
//! monomorphisation. [`Block`] / [`SparseBlock`] bridge the two: an enum
//! with one variant per supported [`Dtype`], plus the [`dispatch!`] /
//! [`sparse_dispatch!`] macros that open a block into its typed matrix so
//! generic code runs on the concrete type. Checkpoints stay `f32`
//! ([`crate::Matrix`]); a block is produced by casting once at load.

use crate::elem::{Dtype, Elem};
use crate::matrix::{Matrix, MatrixT};
use crate::sparse::{CsrMatrix, CsrMatrixT};

/// A dense matrix whose element type is chosen at runtime.
#[derive(Clone, Debug, PartialEq)]
pub enum Block {
    F32(MatrixT<f32>),
    F64(MatrixT<f64>),
}

/// A CSR matrix whose element type is chosen at runtime.
#[derive(Clone, Debug, PartialEq)]
pub enum SparseBlock {
    F32(CsrMatrixT<f32>),
    F64(CsrMatrixT<f64>),
}

/// Runs `$body` with `$m` bound to the typed [`MatrixT`] inside a
/// [`Block`] (any expression evaluating to a `Block`, `&Block`, or
/// `&mut Block`). The body is monomorphised once per variant, so kernels
/// inside it run on the concrete element type with no per-element
/// dispatch.
#[macro_export]
macro_rules! dispatch {
    ($block:expr, |$m:ident| $body:expr) => {
        match $block {
            $crate::Block::F32($m) => $body,
            $crate::Block::F64($m) => $body,
        }
    };
}

/// [`dispatch!`] for [`SparseBlock`].
#[macro_export]
macro_rules! sparse_dispatch {
    ($block:expr, |$m:ident| $body:expr) => {
        match $block {
            $crate::SparseBlock::F32($m) => $body,
            $crate::SparseBlock::F64($m) => $body,
        }
    };
}

impl Block {
    /// Casts a checkpoint-dtype matrix into a block of the requested
    /// dtype (the one-time load conversion; `F32` is a plain copy).
    pub fn convert(m: &Matrix, dtype: Dtype) -> Self {
        match dtype {
            Dtype::F32 => Block::F32(m.clone()),
            Dtype::F64 => Block::F64(m.cast()),
        }
    }

    /// The runtime element type tag.
    pub fn dtype(&self) -> Dtype {
        match self {
            Block::F32(_) => Dtype::F32,
            Block::F64(_) => Dtype::F64,
        }
    }

    /// `(rows, cols)` of the wrapped matrix.
    pub fn shape(&self) -> (usize, usize) {
        dispatch!(self, |m| m.shape())
    }

    pub fn rows(&self) -> usize {
        dispatch!(self, |m| m.rows())
    }

    pub fn cols(&self) -> usize {
        dispatch!(self, |m| m.cols())
    }

    /// Rounds back to the checkpoint dtype (lossy from `F64`).
    pub fn to_f32_lossy(&self) -> Matrix {
        dispatch!(self, |m| m.cast())
    }

    /// The typed matrix of dtype `E`, converting if the block stores a
    /// different dtype.
    pub fn to_typed<E: Elem>(&self) -> MatrixT<E> {
        dispatch!(self, |m| m.cast())
    }

    /// Borrows the `f32` matrix; `None` for other dtypes.
    pub fn as_f32(&self) -> Option<&MatrixT<f32>> {
        match self {
            Block::F32(m) => Some(m),
            _ => None,
        }
    }

    /// Borrows the `f64` matrix; `None` for other dtypes.
    pub fn as_f64(&self) -> Option<&MatrixT<f64>> {
        match self {
            Block::F64(m) => Some(m),
            _ => None,
        }
    }

    /// Borrows the stored matrix when the block holds exactly dtype `E`
    /// — the generic spelling of [`Block::as_f32`] / [`Block::as_f64`]
    /// for callers already parameterised over `E`.
    pub fn as_typed<E: Elem>(&self) -> Option<&MatrixT<E>> {
        match self {
            Block::F32(m) => (m as &dyn std::any::Any).downcast_ref(),
            Block::F64(m) => (m as &dyn std::any::Any).downcast_ref(),
        }
    }
}

impl SparseBlock {
    /// Casts a checkpoint-dtype CSR into a block of the requested dtype.
    pub fn convert(m: &CsrMatrix, dtype: Dtype) -> Self {
        match dtype {
            Dtype::F32 => SparseBlock::F32(m.clone()),
            Dtype::F64 => SparseBlock::F64(m.cast()),
        }
    }

    /// The runtime element type tag.
    pub fn dtype(&self) -> Dtype {
        match self {
            SparseBlock::F32(_) => Dtype::F32,
            SparseBlock::F64(_) => Dtype::F64,
        }
    }

    pub fn n_rows(&self) -> usize {
        sparse_dispatch!(self, |m| m.n_rows())
    }

    pub fn n_cols(&self) -> usize {
        sparse_dispatch!(self, |m| m.n_cols())
    }

    pub fn nnz(&self) -> usize {
        sparse_dispatch!(self, |m| m.nnz())
    }

    /// The typed CSR of dtype `E`, converting if needed.
    pub fn to_typed<E: Elem>(&self) -> CsrMatrixT<E> {
        sparse_dispatch!(self, |m| m.cast())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_conversion_round_trip() {
        let m = Matrix::from_vec(2, 2, vec![1.5, -2.25, 0.125, 4.0]);
        for dtype in [Dtype::F32, Dtype::F64] {
            let b = Block::convert(&m, dtype);
            assert_eq!(b.dtype(), dtype);
            assert_eq!(b.shape(), (2, 2));
            // These values are exactly representable in both dtypes, so
            // the round trip is bitwise.
            assert_eq!(b.to_f32_lossy().as_slice(), m.as_slice());
        }
    }

    #[test]
    fn dispatch_monomorphises_kernels() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Block::convert(&m, Dtype::F64);
        // Run a kernel through the macro: mean over rows in f64.
        let mean = dispatch!(&b, |t| t.mean_rows().cast::<f32>());
        assert_eq!(mean.as_slice(), &[2.5, 3.5, 4.5]);
        assert!(b.as_f64().is_some());
        assert!(b.as_f32().is_none());
    }

    #[test]
    fn sparse_block_casts_structure() {
        let s = CsrMatrix::from_triplets(2, 2, &[(0, 1, 2.0), (1, 0, 3.0)]);
        let b = SparseBlock::convert(&s, Dtype::F64);
        assert_eq!(b.dtype(), Dtype::F64);
        assert_eq!((b.n_rows(), b.n_cols(), b.nnz()), (2, 2, 2));
        let back: CsrMatrix = b.to_typed();
        assert_eq!(back, s);
    }
}
