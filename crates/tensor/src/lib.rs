//! # cgnp-tensor
//!
//! The numerical substrate of the CGNP reproduction: a dense row-major
//! `f32` matrix type, a CSR sparse-operator type, and a reverse-mode
//! automatic-differentiation engine with exactly the operator set the
//! paper's models require (dense/sparse products, point-wise
//! non-linearities, the row softmax, row gathers, fused GAT attention over
//! an arc index, masked BCE-with-logits), plus SGD/Adam optimisers and
//! seeded initialisers.
//!
//! The paper trains its models with PyTorch + PyTorch Geometric; this crate
//! replaces that stack (see the README, *Paper experiments*, for the
//! substitution rationale).
//!
//! ## Example
//!
//! ```
//! use cgnp_tensor::{Matrix, Tensor, Adam, Optimizer};
//!
//! // Fit w to minimise ‖w − 3‖².
//! let w = Tensor::parameter(Matrix::scalar(0.0));
//! let target = Tensor::constant(Matrix::scalar(3.0));
//! let mut opt = Adam::new(vec![w.clone()], 0.1);
//! for _ in 0..200 {
//!     opt.zero_grad();
//!     let loss = w.sub(&target).l2_sum();
//!     loss.backward();
//!     opt.step();
//! }
//! assert!((w.item() - 3.0).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]

pub mod attention;
pub mod block;
pub mod elem;
pub mod grad_sink;
pub mod gradcheck;
pub mod init;
pub mod matrix;
pub mod mode;
pub mod ops;
pub mod optim;
pub(crate) mod parallel;
pub mod reference;
pub mod scores;
pub mod sparse;
pub mod tensor;

pub use attention::{ArcCsr, SegmentAttention};
pub use block::Block;
pub use elem::{Dtype, Elem};
pub use grad_sink::GradSink;
pub use matrix::{Matrix, MatrixT};
pub use mode::{fast_math_compiled, KernelCtx, MathMode};
pub use ops::{stable_sigmoid, stable_softmax, Reduction};
pub use optim::{clip_grad_norm, Adam, Optimizer, Sgd};
pub use scores::CentroidScores;
pub use sparse::{CsrMatrix, CsrMatrixT, SparseOperator};
pub use tensor::{grad_enabled, no_grad, with_grad_enabled, Tensor, ValueRef};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-3.0f32..3.0, rows * cols)
            .prop_map(move |data| Matrix::from_vec(rows, cols, data))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matmul_distributes_over_addition(
            a in arb_matrix(3, 4), b in arb_matrix(3, 4), c in arb_matrix(4, 2)
        ) {
            let lhs = a.add(&b).matmul(&c);
            let rhs = a.matmul(&c).add(&b.matmul(&c));
            prop_assert!(lhs.approx_eq(&rhs, 1e-3));
        }

        #[test]
        fn matmul_associative(
            a in arb_matrix(2, 3), b in arb_matrix(3, 4), c in arb_matrix(4, 2)
        ) {
            let lhs = a.matmul(&b).matmul(&c);
            let rhs = a.matmul(&b.matmul(&c));
            prop_assert!(lhs.approx_eq(&rhs, 1e-2));
        }

        #[test]
        fn transpose_reverses_product(a in arb_matrix(3, 4), b in arb_matrix(4, 2)) {
            let lhs = a.matmul(&b).transpose();
            let rhs = b.transpose().matmul(&a.transpose());
            prop_assert!(lhs.approx_eq(&rhs, 1e-3));
        }

        #[test]
        fn fused_transpose_products_match_explicit(
            a in arb_matrix(3, 4), b in arb_matrix(5, 4)
        ) {
            prop_assert!(a.matmul_tb(&b).approx_eq(&a.matmul(&b.transpose()), 1e-4));
            let c = Matrix::from_vec(3, 2, vec![0.5; 6]);
            prop_assert!(a.matmul_ta(&c).approx_eq(&a.transpose().matmul(&c), 1e-4));
        }

        #[test]
        fn softmax_rows_are_distributions(x in arb_matrix(4, 6)) {
            let y = Tensor::constant(x).row_softmax().value();
            for r in 0..y.rows() {
                let s: f32 = y.row(r).iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-4);
                prop_assert!(y.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
            }
        }

        #[test]
        fn sigmoid_bounded_and_monotone(x in proptest::collection::vec(-20.0f32..20.0, 8)) {
            let mut sorted = x.clone();
            sorted.sort_by(f32::total_cmp);
            let y = Tensor::constant(Matrix::from_vec(1, 8, sorted)).sigmoid().value();
            let row = y.row(0);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
            prop_assert!(row.windows(2).all(|w| w[0] <= w[1] + 1e-7));
        }

        #[test]
        fn spmm_linear_in_input(
            x in arb_matrix(4, 3), y in arb_matrix(4, 3), alpha in -2.0f32..2.0
        ) {
            let s = CsrMatrix::from_triplets(3, 4, &[
                (0, 0, 1.0), (0, 2, -0.5), (1, 1, 2.0), (2, 3, 0.25), (2, 0, 1.5),
            ]);
            // S(x + αy) = Sx + αSy.
            let lhs = s.spmm(&x.add(&y.scale(alpha)));
            let rhs = s.spmm(&x).add(&s.spmm(&y).scale(alpha));
            prop_assert!(lhs.approx_eq(&rhs, 1e-3));
        }

        #[test]
        fn bce_nonnegative_and_zero_at_certainty(target in proptest::bool::ANY) {
            let y = if target { 1.0 } else { 0.0 };
            let certain = if target { 60.0 } else { -60.0 };
            let z = Tensor::parameter(Matrix::from_vec(1, 1, vec![certain]));
            let loss = z.bce_with_logits_at(&[0], &[y], Reduction::Mean).item();
            prop_assert!((0.0..1e-6).contains(&loss));
            let wrong = Tensor::parameter(Matrix::from_vec(1, 1, vec![-certain]));
            let wl = wrong.bce_with_logits_at(&[0], &[y], Reduction::Mean).item();
            prop_assert!(wl > 10.0, "confidently wrong must be expensive: {wl}");
        }

        #[test]
        fn backward_of_linear_map_matches_adjoint(
            x_data in proptest::collection::vec(-2.0f32..2.0, 6)
        ) {
            // loss = Σ (W x), dl/dx = Wᵀ·1 independent of x.
            let x = Tensor::parameter(Matrix::from_vec(3, 2, x_data));
            let w = Matrix::from_vec(2, 4, (0..8).map(|i| i as f32 * 0.25 - 1.0).collect());
            let loss = x.matmul(&Tensor::constant(w.clone())).sum_all();
            loss.backward();
            let g = x.grad().unwrap();
            let expected_row: Vec<f32> = (0..2)
                .map(|c| w.row(c).iter().sum::<f32>())
                .collect();
            for r in 0..3 {
                for (c, &exp) in expected_row.iter().enumerate() {
                    prop_assert!((g.get(r, c) - exp).abs() < 1e-4);
                }
            }
        }
    }
}
