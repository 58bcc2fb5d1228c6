//! Finite-difference gradient checking, used by the test suites of this and
//! downstream crates to validate every hand-derived adjoint.

use crate::matrix::Matrix;
use crate::tensor::Tensor;

/// Compares analytic gradients of a scalar function against central finite
/// differences.
///
/// `f` must be a deterministic function of the input tensors that returns a
/// `1×1` loss. Each input element is perturbed by ±`eps`; the numeric
/// derivative is compared to the analytic gradient with a mixed
/// absolute/relative tolerance `tol`.
///
/// Returns `Err` with a description of the first mismatch.
pub fn check_gradients(
    inputs: &[Tensor],
    f: impl Fn() -> Tensor,
    eps: f32,
    tol: f32,
) -> Result<(), String> {
    for t in inputs {
        t.zero_grad();
    }
    let loss = f();
    if loss.shape() != (1, 1) {
        return Err(format!("loss must be 1x1, got {:?}", loss.shape()));
    }
    loss.backward();
    let analytic: Vec<Matrix> = inputs
        .iter()
        .map(|t| {
            t.grad().unwrap_or_else(|| {
                let (r, c) = t.shape();
                Matrix::zeros(r, c)
            })
        })
        .collect();

    for (pi, input) in inputs.iter().enumerate() {
        let (rows, cols) = input.shape();
        for r in 0..rows {
            for c in 0..cols {
                let orig = input.value_ref().get(r, c);
                input.update_value(|m| m.set(r, c, orig + eps));
                let lp = f().item();
                input.update_value(|m| m.set(r, c, orig - eps));
                let lm = f().item();
                input.update_value(|m| m.set(r, c, orig));
                let numeric = (lp - lm) / (2.0 * eps);
                let a = analytic[pi].get(r, c);
                let err = (a - numeric).abs();
                let scale = 1.0 + a.abs().max(numeric.abs());
                if err > tol * scale {
                    return Err(format!(
                        "input {pi} element ({r},{c}): analytic {a} vs numeric {numeric} \
                         (err {err}, tol {})",
                        tol * scale
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Reduction;
    use crate::sparse::{CsrMatrix, SparseOperator};
    use crate::ArcCsr;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn rand_param(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-1.0..1.0f32))
            .collect();
        Tensor::parameter(Matrix::from_vec(rows, cols, data))
    }

    const EPS: f32 = 1e-2;
    const TOL: f32 = 2e-2;

    #[test]
    fn gradcheck_matmul_chain() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = rand_param(3, 4, &mut rng);
        let b = rand_param(4, 2, &mut rng);
        let inputs = [a.clone(), b.clone()];
        check_gradients(&inputs, || a.matmul(&b).tanh().sum_all(), EPS, TOL).unwrap();
    }

    #[test]
    fn gradcheck_matmul_tb() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = rand_param(3, 4, &mut rng);
        let b = rand_param(5, 4, &mut rng);
        let inputs = [a.clone(), b.clone()];
        check_gradients(&inputs, || a.matmul_tb(&b).sigmoid().sum_all(), EPS, TOL).unwrap();
    }

    #[test]
    fn gradcheck_add_bias_relu() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = rand_param(4, 3, &mut rng);
        let bias = rand_param(1, 3, &mut rng);
        let inputs = [x.clone(), bias.clone()];
        // Shift away from the ReLU kink so finite differences are valid.
        check_gradients(
            &inputs,
            || {
                x.add_bias(&bias)
                    .add(&Tensor::constant(Matrix::full(4, 3, 0.37)))
                    .relu()
                    .sum_all()
            },
            1e-3,
            TOL,
        )
        .unwrap();
    }

    #[test]
    fn gradcheck_row_softmax() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = rand_param(3, 5, &mut rng);
        let w = Tensor::constant({
            let mut m = Matrix::zeros(3, 5);
            for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
                *v = (i % 5) as f32 * 0.3 - 0.6;
            }
            m
        });
        let inputs = [x.clone()];
        check_gradients(&inputs, || x.row_softmax().mul(&w).sum_all(), EPS, TOL).unwrap();
    }

    /// Five nodes: one that only its self-loop reaches, one that hears
    /// from three sources, a repeated source.
    fn arcs() -> Arc<ArcCsr> {
        Arc::new(ArcCsr::grouped(
            5,
            vec![1, 0, 0, 2, 3, 1, 2, 4, 4, 3, 3],
            &[0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4],
        ))
    }

    #[test]
    fn gradcheck_segment_attention() {
        let mut rng = StdRng::seed_from_u64(5);
        let z = rand_param(5, 3, &mut rng);
        let a_src = rand_param(3, 1, &mut rng);
        let a_dst = rand_param(3, 1, &mut rng);
        let bias = rand_param(1, 3, &mut rng);
        let arcs = arcs();
        let inputs = [z.clone(), a_src.clone(), a_dst.clone(), bias.clone()];
        check_gradients(
            &inputs,
            || {
                Tensor::segment_attention(&z, &a_src, &a_dst, &bias, 0.2, &arcs)
                    .tanh()
                    .sum_all()
            },
            EPS,
            TOL,
        )
        .unwrap();
    }

    #[test]
    fn gradcheck_gather_scatter_pipeline() {
        // Gathered rows (one repeated) projected, then attended over.
        let mut rng = StdRng::seed_from_u64(6);
        let x = rand_param(4, 3, &mut rng);
        let w = rand_param(3, 2, &mut rng);
        let a_src = Tensor::constant(Matrix::from_vec(2, 1, vec![0.7, -0.4]));
        let a_dst = Tensor::constant(Matrix::from_vec(2, 1, vec![0.3, 0.9]));
        let bias = Tensor::constant(Matrix::zeros(1, 2));
        let arcs = arcs();
        let inputs = [x.clone(), w.clone()];
        check_gradients(
            &inputs,
            || {
                let z = x.gather_rows(&[2, 0, 3, 0, 1]).matmul(&w);
                Tensor::segment_attention(&z, &a_src, &a_dst, &bias, 0.2, &arcs)
                    .sigmoid()
                    .sum_all()
            },
            EPS,
            TOL,
        )
        .unwrap();
    }

    #[test]
    fn gradcheck_weighted_sum_views() {
        let mut rng = StdRng::seed_from_u64(7);
        let w = rand_param(1, 3, &mut rng);
        let v1 = rand_param(2, 2, &mut rng);
        let v2 = rand_param(2, 2, &mut rng);
        let v3 = rand_param(2, 2, &mut rng);
        let inputs = [w.clone(), v1.clone(), v2.clone(), v3.clone()];
        check_gradients(
            &inputs,
            || {
                Tensor::weighted_sum_views(&w, &[v1.clone(), v2.clone(), v3.clone()])
                    .sigmoid()
                    .sum_all()
            },
            EPS,
            TOL,
        )
        .unwrap();
    }

    #[test]
    fn gradcheck_bce_loss() {
        let mut rng = StdRng::seed_from_u64(8);
        let z = rand_param(6, 1, &mut rng);
        let idx = vec![0, 2, 4, 5];
        let y = vec![1.0, 0.0, 1.0, 0.0];
        let inputs = [z.clone()];
        check_gradients(
            &inputs,
            || z.bce_with_logits_at(&idx, &y, Reduction::Mean),
            EPS,
            TOL,
        )
        .unwrap();
    }

    #[test]
    fn gradcheck_spmm() {
        let mut rng = StdRng::seed_from_u64(9);
        let s = Arc::new(SparseOperator::new(CsrMatrix::from_triplets(
            3,
            4,
            &[
                (0, 0, 0.5),
                (0, 3, 1.5),
                (1, 1, -1.0),
                (2, 2, 2.0),
                (2, 0, 0.3),
            ],
        )));
        let x = rand_param(4, 2, &mut rng);
        let inputs = [x.clone()];
        check_gradients(&inputs, || Tensor::spmm(&s, &x).tanh().sum_all(), EPS, TOL).unwrap();
    }

    #[test]
    fn gradcheck_mean_rows_concat() {
        let mut rng = StdRng::seed_from_u64(10);
        let a = rand_param(3, 2, &mut rng);
        let b = rand_param(2, 2, &mut rng);
        let inputs = [a.clone(), b.clone()];
        check_gradients(
            &inputs,
            || {
                let stacked = Tensor::concat_rows(&[a.mean_rows(), b.mean_rows()]);
                stacked.sigmoid().sum_all()
            },
            EPS,
            TOL,
        )
        .unwrap();
    }

    #[test]
    fn gradcheck_elu() {
        let x = Tensor::parameter(Matrix::from_vec(2, 2, vec![0.5, -0.5, 1.2, -1.2]));
        let inputs = [x.clone()];
        check_gradients(&inputs, || x.elu(1.0).l2_sum(), 1e-3, TOL).unwrap();
    }
}
