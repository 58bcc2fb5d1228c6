//! Accuracy guardrails for the fast-math kernel tier.
//!
//! The fast kernels reassociate floating-point accumulation (multiple
//! independent partial sums per output element), so they cannot be pinned
//! bitwise to the exact tier. Instead every product kernel is pinned
//! within a relative-error bound:
//!
//! ```text
//! |fast - exact| <= TOL * (Σ_k |a_k| * |b_k| + eps)
//! ```
//!
//! The denominator is the sum of absolute products feeding the output
//! element, not `|exact|`: when terms cancel, `|exact|` can be tiny while
//! both tiers legitimately carry rounding proportional to the magnitudes
//! that cancelled, so a `|exact|`-relative bound would flag correct
//! results. `TOL` is `1e-5` for `f32` (≈ 100 ULP headroom over a few
//! hundred reassociated adds) and `1e-12` for `f64`.
//!
//! With the `fast-math` feature off, `MathMode::Fast` must fall back to
//! the exact kernels bitwise — also asserted here, so the same test file
//! is meaningful in both CI legs.

use cgnp_tensor::{CsrMatrixT, Elem, KernelCtx, MathMode, MatrixT};
use proptest::prelude::*;

/// Max fast-vs-exact deviation for `f32` kernels, relative to the
/// absolute-product mass of each output element.
const TOL_F32: f64 = 1e-5;
/// Same bound for `f64` kernels.
const TOL_F64: f64 = 1e-12;

fn tol_for<E: Elem>() -> f64 {
    match E::DTYPE {
        cgnp_tensor::Dtype::F32 => TOL_F32,
        cgnp_tensor::Dtype::F64 => TOL_F64,
    }
}

/// Asserts `fast` matches `exact` element-wise within the documented
/// bound, scaled by `mass` (the Σ|a||b| absolute-product matrix).
fn assert_within_bound<E: Elem>(
    exact: &MatrixT<E>,
    fast: &MatrixT<E>,
    mass: &MatrixT<E>,
    ctx: &str,
) {
    assert_eq!(exact.shape(), fast.shape(), "{ctx}: shape mismatch");
    let tol = tol_for::<E>();
    for r in 0..exact.rows() {
        for c in 0..exact.cols() {
            let e = exact.get(r, c).to_f64();
            let f = fast.get(r, c).to_f64();
            let m = mass.get(r, c).to_f64();
            let bound = tol * (m + 1e-30);
            assert!(
                (e - f).abs() <= bound,
                "{ctx}: ({r},{c}) exact={e} fast={f} |diff|={} > bound={bound}",
                (e - f).abs()
            );
        }
    }
}

/// `Σ_k |a_rk| |b_kc|` for every output element of `a @ b` — the
/// magnitude mass the error bound is relative to.
fn abs_product_mass<E: Elem>(a: &MatrixT<E>, b: &MatrixT<E>) -> MatrixT<E> {
    a.map(|x| x.abs()).matmul(&b.map(|x| x.abs()))
}

fn mats_from<E: Elem>(
    m: usize,
    k: usize,
    n: usize,
    data: &[f32],
) -> (MatrixT<E>, MatrixT<E>, MatrixT<E>) {
    let a = MatrixT::from_vec(
        m,
        k,
        data[..m * k].iter().map(|&x| E::from_f32(x)).collect(),
    );
    let b = MatrixT::from_vec(
        k,
        n,
        data[m * k..m * k + k * n]
            .iter()
            .map(|&x| E::from_f32(x))
            .collect(),
    );
    let bias = MatrixT::from_vec(
        1,
        n,
        data[m * k + k * n..m * k + k * n + n]
            .iter()
            .map(|&x| E::from_f32(x))
            .collect(),
    );
    (a, b, bias)
}

/// The fast tier at the work-sized worker count, after asserting that a
/// forced serial run and a forced three-way row split give the same bits:
/// like the exact tier, a fast row kernel computes each output element
/// from its own row range only.
fn fast_at_any_split<E: Elem>(what: &str, run: impl Fn(KernelCtx) -> MatrixT<E>) -> MatrixT<E> {
    let fast = run(KernelCtx::tier(MathMode::Fast));
    for threads in [1, 3] {
        let split = run(KernelCtx {
            threads: Some(threads),
            mode: MathMode::Fast,
        });
        assert_eq!(bits(&split), bits(&fast), "{what}: threads={threads}");
    }
    fast
}

fn bits<E: Elem>(m: &MatrixT<E>) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
}

fn check_dense_kernels<E: Elem>(m: usize, k: usize, n: usize, data: &[f32]) {
    let (a, b, bias) = mats_from::<E>(m, k, n, data);
    let mass = abs_product_mass(&a, &b);

    let exact = a.matmul(&b);
    let fast = fast_at_any_split("matmul", |ctx| a.matmul_in(&b, None, ctx));
    assert_within_bound(&exact, &fast, &mass, "matmul");

    let exact_bias = a.matmul_bias(&b, &bias);
    let fast_bias = fast_at_any_split("matmul_bias", |ctx| a.matmul_in(&b, Some(&bias), ctx));
    // Bias adds one more |term| of mass per element.
    let mut mass_bias = mass.clone();
    mass_bias.add_bias_assign(&bias.map(|x| x.abs()));
    assert_within_bound(&exact_bias, &fast_bias, &mass_bias, "matmul_bias");

    // a (m×k) @ b_t.T where b_t = b.T (n×k).
    let b_t = b.transpose();
    let exact_tb = a.matmul_tb(&b_t);
    let fast_tb = fast_at_any_split("matmul_tb", |ctx| a.matmul_tb_in(&b_t, ctx));
    assert_within_bound(&exact_tb, &fast_tb, &mass, "matmul_tb");

    // a_t.T @ b where a_t = a.T (k×m): output m×n, same mass.
    let a_t = a.transpose();
    let exact_ta = a_t.matmul_ta(&b);
    let fast_ta = fast_at_any_split("matmul_ta", |ctx| a_t.matmul_ta_in(&b, ctx));
    assert_within_bound(&exact_ta, &fast_ta, &mass, "matmul_ta");
}

fn check_sparse_kernels<E: Elem>(
    rows: usize,
    cols: usize,
    n: usize,
    triplets: &[(usize, usize, f32)],
    xdata: &[f32],
    bias_data: &[f32],
) {
    let t: Vec<(usize, usize, E)> = triplets
        .iter()
        .map(|&(r, c, v)| (r, c, E::from_f32(v)))
        .collect();
    let s = CsrMatrixT::from_triplets(rows, cols, &t);
    let x = MatrixT::from_vec(cols, n, xdata.iter().map(|&v| E::from_f32(v)).collect());
    let bias = MatrixT::from_vec(1, n, bias_data.iter().map(|&v| E::from_f32(v)).collect());

    let abs_t: Vec<(usize, usize, E)> = t.iter().map(|&(r, c, v)| (r, c, v.abs())).collect();
    let mass = CsrMatrixT::from_triplets(rows, cols, &abs_t).spmm(&x.map(|v| v.abs()));

    let exact = s.spmm(&x);
    let fast = fast_at_any_split("spmm", |ctx| s.spmm_in(&x, None, ctx));
    assert_within_bound(&exact, &fast, &mass, "spmm");

    let exact_bias = s.spmm_bias(&x, &bias);
    let fast_bias = fast_at_any_split("spmm_bias", |ctx| s.spmm_in(&x, Some(&bias), ctx));
    let mut mass_bias = mass.clone();
    mass_bias.add_bias_assign(&bias.map(|v| v.abs()));
    assert_within_bound(&exact_bias, &fast_bias, &mass_bias, "spmm_bias");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fast_dense_kernels_stay_within_rel_err(
        m in 1usize..24,
        k in 1usize..48,
        n in 1usize..24,
        seed in 0u64..u64::MAX,
    ) {
        // Deterministic data from the seed; values span sign changes and
        // magnitudes so cancellation actually occurs.
        let need = m * k + k * n + n;
        let data: Vec<f32> = (0..need)
            .map(|i| {
                let h = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
                ((h >> 11) as f32 / (1u64 << 53) as f32).mul_add(8.0, -2.0)
            })
            .collect();
        check_dense_kernels::<f32>(m, k, n, &data);
        check_dense_kernels::<f64>(m, k, n, &data);
    }

    #[test]
    fn fast_sparse_kernels_stay_within_rel_err(
        rows in 1usize..20,
        cols in 1usize..20,
        n in 1usize..16,
        nnz in 0usize..64,
        seed in 0u64..u64::MAX,
    ) {
        let mut triplets = Vec::with_capacity(nnz);
        for i in 0..nnz {
            let h = seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let r = (h >> 8) as usize % rows;
            let c = (h >> 24) as usize % cols;
            let v = ((h >> 40) & 0xFFFF) as f32 / 16384.0 - 2.0;
            triplets.push((r, c, v));
        }
        let xdata: Vec<f32> = (0..cols * n)
            .map(|i| {
                let h = seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(i as u64);
                ((h >> 16) & 0xFFFF) as f32 / 16384.0 - 2.0
            })
            .collect();
        let bias_data: Vec<f32> = (0..n).map(|i| i as f32 * 0.37 - 1.0).collect();
        check_sparse_kernels::<f32>(rows, cols, n, &triplets, &xdata, &bias_data);
        check_sparse_kernels::<f64>(rows, cols, n, &triplets, &xdata, &bias_data);
    }
}

/// With the feature off, `Fast` must be a bitwise alias of `Exact` on
/// every product — the runtime-mode contract a `--exact`-less binary
/// without fast-math compiled in relies on.
#[cfg(not(feature = "fast-math"))]
#[test]
fn fast_mode_is_bitwise_exact_without_the_feature() {
    assert!(!cgnp_tensor::fast_math_compiled());
    let a = MatrixT::<f32>::from_vec(
        13,
        29,
        (0..13 * 29).map(|i| (i as f32 * 0.173).sin()).collect(),
    );
    let b = MatrixT::<f32>::from_vec(
        29,
        11,
        (0..29 * 11).map(|i| (i as f32 * 0.089).cos()).collect(),
    );
    let bias = MatrixT::<f32>::from_vec(1, 11, (0..11).map(|i| i as f32 * 0.37 - 1.0).collect());
    let s = CsrMatrixT::<f32>::from_triplets(
        7,
        29,
        &(0..40)
            .map(|i| ((i * 13) % 7, (i * 29) % 29, i as f32 * 0.21 - 3.0))
            .collect::<Vec<_>>(),
    );
    let (b_t, a_t) = (b.transpose(), a.transpose());
    let run = |mode: MathMode| {
        let ctx = KernelCtx::tier(mode);
        [
            a.matmul_in(&b, None, ctx),
            a.matmul_in(&b, Some(&bias), ctx),
            a.matmul_tb_in(&b_t, ctx),
            a_t.matmul_ta_in(&b, ctx),
            s.spmm_in(&b, None, ctx),
            s.spmm_in(&b, Some(&bias), ctx),
        ]
        .map(|m| bits(&m))
    };
    assert_eq!(run(MathMode::Fast), run(MathMode::Exact));
}

/// With the feature on, the fast tier must actually be a different code
/// path (register-tiled) — guard against silently wiring `Fast` to the
/// exact kernels and vacuously passing the bounds above.
#[cfg(feature = "fast-math")]
#[test]
fn fast_math_feature_is_live() {
    assert!(cgnp_tensor::fast_math_compiled());
}
