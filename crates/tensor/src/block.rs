//! Dtype-dispatched storage for dense matrices.
//!
//! A serving session picks its element type at load time from a CLI flag,
//! so the dtype is a runtime value while every kernel is compiled per
//! monomorphisation. [`Block`] bridges the two: an enum with one variant
//! per supported [`crate::Dtype`], plus the [`dispatch!`] macro that opens
//! a block into its typed matrix so generic code runs on the concrete
//! type.

use crate::elem::Elem;
use crate::matrix::MatrixT;

/// A dense matrix whose element type is chosen at runtime.
#[derive(Clone, Debug, PartialEq)]
pub enum Block {
    F32(MatrixT<f32>),
    F64(MatrixT<f64>),
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

impl Block {
    /// Borrows the stored matrix when the block holds exactly dtype `E`.
    pub fn as_typed<E: Elem>(&self) -> Option<&MatrixT<E>> {
        match self {
            Block::F32(m) => (m as &dyn std::any::Any).downcast_ref(),
            Block::F64(m) => (m as &dyn std::any::Any).downcast_ref(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    #[test]
    fn dispatch_monomorphises_kernels() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Block::F64(m.cast());
        // Run a kernel through the macro: mean over rows in f64.
        let mean = dispatch!(&b, |t| t.mean_rows().cast::<f32>());
        assert_eq!(mean.as_slice(), &[2.5, 3.5, 4.5]);
        assert!(b.as_typed::<f64>().is_some());
        assert!(b.as_typed::<f32>().is_none());
    }
}
