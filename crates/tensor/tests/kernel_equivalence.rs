//! Property tests pinning the blocked/parallel kernels to the naive
//! reference implementations.
//!
//! The contract is **bitwise** equality: the optimised kernels reorder
//! loops and partition output rows across threads, but never change the
//! per-element floating-point accumulation order, so every output bit
//! must match `cgnp_tensor::reference`. Shapes range over degenerate
//! cases (empty, 1×1) through sizes that exercise several register-tile
//! panels, remainder rows and columns, and several parallel row chunks. The fused segment-attention kernel is held
//! to the same contract against its multi-pass reference, in `f32` and
//! `f64`, and its taped form's adjoint against the multi-pass backward.

use std::sync::Arc;

use cgnp_tensor::{
    reference, ArcCsr, CentroidScores, CsrMatrix, Elem, KernelCtx, Matrix, MatrixT,
    SegmentAttention, Tensor,
};
use proptest::prelude::*;

/// Matrices with dimensions in `[0, dim_hi)`, entries including exact
/// zeros (to exercise the zero-skip path) and denormal-adjacent values.
fn arb_matrix(
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> impl Strategy<Value = Matrix> {
    (rows, cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-4.0f32..4.0, r * c).prop_map(move |mut data| {
            // Plant exact zeros so the skip branch differs between taken
            // and untaken across cases.
            for v in data.iter_mut().step_by(7) {
                *v = 0.0;
            }
            Matrix::from_vec(r, c, data)
        })
    })
}

/// [`arb_matrix`] plus the values only a skipped term can tell apart from
/// an added one: `-0.0` (every 7th entry from the 4th) and one infinity
/// of random sign at a random entry. Drawn for the operand the zero-skip
/// never reads, an infinity meets an explicit zero of the other operand in
/// some cases, where the reference skips a term (`0·∞` would be NaN) and a
/// kernel must too.
fn arb_matrix_specials(
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> impl Strategy<Value = Matrix> {
    arb_matrix(rows, cols).prop_perturb(|mut m, mut rng| {
        let data = m.as_mut_slice();
        for v in data.iter_mut().skip(3).step_by(7) {
            *v = -0.0;
        }
        if !data.is_empty() {
            let at = (rng.next_u64() % data.len() as u64) as usize;
            data[at] = if rng.next_u32() & 1 == 0 {
                f32::INFINITY
            } else {
                f32::NEG_INFINITY
            };
        }
        m
    })
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A random CSR built from triplets (possibly empty, with duplicates).
fn arb_csr(n_rows: usize, n_cols: usize) -> impl Strategy<Value = CsrMatrix> {
    proptest::collection::vec(
        (0..n_rows.max(1), 0..n_cols.max(1), -2.0f32..2.0),
        0..4 * n_rows.max(1),
    )
    .prop_map(move |trips| {
        let trips: Vec<(usize, usize, f32)> = trips
            .into_iter()
            .filter(|&(r, c, _)| r < n_rows && c < n_cols)
            .collect();
        CsrMatrix::from_triplets(n_rows, n_cols, &trips)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn matmul_matches_reference_bitwise(
        (a, b) in (0usize..12, 0usize..12, 0usize..12).prop_flat_map(|(m, k, n)| {
            (arb_matrix(m..m + 1, k..k + 1), arb_matrix_specials(k..k + 1, n..n + 1))
        })
    ) {
        let expect = bits(&reference::matmul(&a, &b));
        prop_assert_eq!(bits(&a.matmul(&b)), expect.clone());
        // Forced multi-chunk parallel path must agree on any machine.
        prop_assert_eq!(bits(&a.matmul_in(&b, None, KernelCtx::threads(4))), expect);
    }

    #[test]
    fn matmul_tb_matches_reference_bitwise(
        (a, b) in (0usize..12, 0usize..12, 0usize..12).prop_flat_map(|(m, k, n)| {
            (arb_matrix(m..m + 1, k..k + 1), arb_matrix_specials(n..n + 1, k..k + 1))
        })
    ) {
        let expect = bits(&reference::matmul_tb(&a, &b));
        prop_assert_eq!(bits(&a.matmul_tb(&b)), expect.clone());
        prop_assert_eq!(bits(&a.matmul_tb_in(&b, KernelCtx::threads(4))), expect);
    }

    #[test]
    fn matmul_ta_matches_reference_bitwise(
        (a, b) in (0usize..12, 0usize..12, 0usize..12).prop_flat_map(|(m, k, n)| {
            (arb_matrix(m..m + 1, k..k + 1), arb_matrix_specials(m..m + 1, n..n + 1))
        })
    ) {
        let expect = bits(&reference::matmul_ta(&a, &b));
        prop_assert_eq!(bits(&a.matmul_ta(&b)), expect.clone());
        prop_assert_eq!(bits(&a.matmul_ta_in(&b, KernelCtx::threads(4))), expect);
    }

    #[test]
    fn spmm_matches_reference_bitwise(
        (s, x) in (0usize..16, 0usize..16, 0usize..9).prop_flat_map(|(r, k, n)| {
            (arb_csr(r, k), arb_matrix(k..k + 1, n..n + 1))
        })
    ) {
        let expect = bits(&reference::spmm(&s, &x));
        prop_assert_eq!(bits(&s.spmm(&x)), expect.clone());
        prop_assert_eq!(bits(&s.spmm_in(&x, None, KernelCtx::threads(4))), expect);
    }

    #[test]
    fn fused_matmul_bias_matches_composition(
        (x, w, b) in (1usize..10, 1usize..10, 1usize..10).prop_flat_map(|(m, k, n)| {
            (
                arb_matrix(m..m + 1, k..k + 1),
                arb_matrix(k..k + 1, n..n + 1),
                arb_matrix(1..2, n..n + 1),
            )
        })
    ) {
        // Fusion changes the bias-add position in the accumulation chain,
        // so this is an approximate (not bitwise) contract.
        let fused = x.matmul_bias(&w, &b);
        let mut unfused = reference::matmul(&x, &w);
        unfused.add_bias_assign(&b);
        prop_assert!(fused.approx_eq(&unfused, 1e-4));
    }
}

/// Worker counts every `*_in` entry point is held to: work-sized, serial,
/// a split that leaves a short last chunk, and more workers than rows.
const THREADS: [KernelCtx; 4] = [
    KernelCtx { threads: None },
    KernelCtx::threads(1),
    KernelCtx::threads(3),
    KernelCtx::threads(64),
];

/// Worker counts the fused attention and scoring passes are held to:
/// work-sized, serial, and splits of 2, 4 and 7.
const PASS_THREADS: [KernelCtx; 5] = [
    KernelCtx { threads: None },
    KernelCtx::threads(1),
    KernelCtx::threads(2),
    KernelCtx::threads(4),
    KernelCtx::threads(7),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dimensions reach 48, so an explicit count cuts up to six row chunks
    /// and the largest cases pass the work gate `None` fans out above.
    ///
    /// The oracle for a fused bias is the reference product with the bias
    /// as term zero — `[1 | a] @ [bias; b]`: `0 + 1·bias` is `bias`
    /// exactly, and the remaining terms follow in the same order.
    #[test]
    fn every_in_entry_point_matches_reference_at_any_thread_count(
        ((a, b, b_t), (a_t, bias, s)) in (0usize..48, 0usize..48, 0usize..48).prop_flat_map(|(m, k, n)| {
            (
                (
                    arb_matrix(m..m + 1, k..k + 1),
                    arb_matrix_specials(k..k + 1, n..n + 1),
                    arb_matrix_specials(n..n + 1, k..k + 1),
                ),
                (
                    arb_matrix_specials(m..m + 1, n..n + 1),
                    arb_matrix(1..2, n..n + 1),
                    arb_csr(m, k),
                ),
            )
        })
    ) {
        let ones = Matrix::full(a.rows(), 1, 1.0);
        let biased_b = Matrix::vstack(&[&bias, &b]);
        let mut trips: Vec<(usize, usize, f32)> = (0..s.n_rows()).map(|r| (r, 0, 1.0)).collect();
        for r in 0..s.n_rows() {
            trips.extend(s.row_iter(r).map(|(c, v)| (r, c + 1, v)));
        }
        let ones_and_s = CsrMatrix::from_triplets(s.n_rows(), s.n_cols() + 1, &trips);

        let expect = [
            reference::matmul(&a, &b),
            reference::matmul(&Matrix::hstack(&[&ones, &a]), &biased_b),
            reference::matmul_tb(&a, &b_t),
            reference::matmul_ta(&a, &a_t),
            reference::spmm(&s, &b),
            reference::spmm(&ones_and_s, &biased_b),
        ];
        for ctx in THREADS {
            let got = [
                ("matmul", a.matmul_in(&b, None, ctx)),
                ("matmul + bias", a.matmul_in(&b, Some(&bias), ctx)),
                ("matmul_tb", a.matmul_tb_in(&b_t, ctx)),
                ("matmul_ta", a.matmul_ta_in(&a_t, ctx)),
                ("spmm", s.spmm_in(&b, None, ctx)),
                ("spmm + bias", s.spmm_in(&b, Some(&bias), ctx)),
            ];
            for ((name, got), want) in got.iter().zip(&expect) {
                prop_assert!(bits(got) == bits(want), "{name} {ctx:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The pooled element-wise map is the serial one at every worker
    /// count, on ELU (what the plain backend activates with) over zeros of
    /// both signs and an infinity.
    #[test]
    fn map_assign_in_matches_map_assign_at_any_thread_count(
        m in arb_matrix_specials(0..300, 0..48)
    ) {
        let elu = |v: f32| if v > 0.0 { v } else { v.exp() - 1.0 };
        let mut serial = m.clone();
        serial.map_assign(elu);
        for ctx in THREADS {
            let mut pooled = m.clone();
            pooled.map_assign_in(elu, ctx);
            prop_assert!(bits(&pooled) == bits(&serial), "{ctx:?}");
        }
    }
}

/// The worker counts the narrow-shape tests hold a kernel to: the serial
/// path and a forced split.
const NARROW_CTXS: [KernelCtx; 2] = [KernelCtx::threads(1), KernelCtx::threads(4)];

/// The reference `matmul` loop started from a bias row instead of `+0`:
/// the oracle for a fused bias whatever its sign of zero (`[1 | a] @
/// [bias; b]` turns a `-0.0` bias into `+0`).
fn reference_matmul_seeded(a: &Matrix, b: &Matrix, bias: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        let orow = out.row_mut(i);
        orow.copy_from_slice(bias.row(0));
        for (k, &aik) in a.row(i).iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            for (o, &bv) in orow.iter_mut().zip(b.row(k)) {
                *o += aik * bv;
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Single-column products: `matmul` against an `n = 1` right operand
    /// (GAT's `z·a`), alone and seeded with a `-0.0` or drawn bias, and
    /// `matmul_ta` into an `n = 1` output (its adjoint `zᵀ·g`). Row
    /// counts reach past several 8-row chain groups and their remainders.
    #[test]
    fn single_column_products_match_reference_bitwise(
        (a, x, g, (drawn, negative_zero)) in (0usize..40, 0usize..70).prop_flat_map(|(m, k)| (
            arb_matrix(m..m + 1, k..k + 1),
            arb_matrix_specials(k..k + 1, 1..2),
            arb_matrix_specials(m..m + 1, 1..2),
            (-4.0f32..4.0, proptest::bool::ANY),
        ))
    ) {
        let bias = Matrix::scalar(if negative_zero { -0.0 } else { drawn });
        let want = [
            reference::matmul(&a, &x),
            reference_matmul_seeded(&a, &x, &bias),
            reference::matmul_ta(&a, &g),
        ];
        for ctx in NARROW_CTXS {
            let got = [
                ("matmul", a.matmul_in(&x, None, ctx)),
                ("matmul + bias", a.matmul_in(&x, Some(&bias), ctx)),
                ("matmul_ta", a.matmul_ta_in(&g, ctx)),
            ];
            for ((name, got), want) in got.iter().zip(&want) {
                prop_assert!(bits(got) == bits(want), "{name} {ctx:?}");
            }
        }
    }

    /// Single-term products (`k = 1`): outer products for `matmul` and for
    /// `matmul_tb` (the adjoint `g·aᵀ` of `z·a`), one input row for
    /// `matmul_ta`.
    #[test]
    fn single_term_products_match_reference_bitwise(
        (a, b, b_t, a_t) in (0usize..40, 0usize..40).prop_flat_map(|(m, n)| (
            arb_matrix(m..m + 1, 1..2),
            arb_matrix_specials(1..2, n..n + 1),
            arb_matrix_specials(n..n + 1, 1..2),
            arb_matrix(1..2, m..m + 1),
        ))
    ) {
        let want = [
            reference::matmul(&a, &b),
            reference::matmul_tb(&a, &b_t),
            reference::matmul_ta(&a_t, &b),
        ];
        for ctx in NARROW_CTXS {
            let got = [
                ("matmul", a.matmul_in(&b, None, ctx)),
                ("matmul_tb", a.matmul_tb_in(&b_t, ctx)),
                ("matmul_ta", a_t.matmul_ta_in(&b, ctx)),
            ];
            for ((name, got), want) in got.iter().zip(&want) {
                prop_assert!(bits(got) == bits(want), "{name} {ctx:?}");
            }
        }
    }

    /// `matmul_tb` on both sides of its form switch: 1..=16 right-operand
    /// rows, dot products below 16 and multiply-adds over the transpose
    /// at 16. Neither form skips a zero, so an infinity against a zero is
    /// NaN in the reference and must be in both.
    #[test]
    fn matmul_tb_matches_reference_on_both_forms(
        (a, b) in (0usize..40, 0usize..70, 1usize..=16).prop_flat_map(|(m, k, n)| {
            (arb_matrix(m..m + 1, k..k + 1), arb_matrix_specials(n..n + 1, k..k + 1))
        })
    ) {
        let want = bits(&reference::matmul_tb(&a, &b));
        for ctx in NARROW_CTXS {
            prop_assert!(bits(&a.matmul_tb_in(&b, ctx)) == want, "{} rows {ctx:?}", b.rows());
        }
    }

    /// ELU's backward, a select, against the branching loop it replaced:
    /// inputs of both signs, exact `±0` (the boundary the branch tests)
    /// and infinities, gradients with `-0.0` and infinities.
    #[test]
    fn elu_grad_matches_reference_bitwise(
        (x, g) in (0usize..20, 0usize..20).prop_flat_map(|(r, c)| {
            (arb_matrix_specials(r..r + 1, c..c + 1), arb_matrix_specials(r..r + 1, c..c + 1))
        })
    ) {
        for alpha in [1.0f32, 0.3] {
            let x_t = Tensor::parameter(x.clone());
            let y = x_t.elu(alpha);
            y.backward_with(&g);
            let want = reference::elu_grad(&g, &x, &y.value(), alpha);
            prop_assert!(bits(&x_t.grad().unwrap()) == bits(&want), "alpha={alpha}");
        }
    }
}

#[test]
fn single_column_skips_stay_skipped_against_infinities() {
    // 19 rows: two 8-row chain groups and a remainder of 3. Column 2 of
    // `a` is zero on the even rows and row 4 is zero throughout; `x[2]` is
    // +∞, so only a skipped term keeps an even row finite.
    let (m, k) = (19, 5);
    let mut a = Matrix::from_vec(
        m,
        k,
        (0..m * k).map(|i| ((i % 13) as f32) * 0.25 - 1.4).collect(),
    );
    for r in (0..m).step_by(2) {
        a.set(r, 2, 0.0);
    }
    for c in 0..k {
        a.set(4, c, 0.0);
    }
    let x = Matrix::from_vec(k, 1, vec![0.5, -1.25, f32::INFINITY, 2.0, -0.0]);
    let bias = Matrix::scalar(-0.0);
    // `aᵀ·g` meets ±∞ on rows 4 and 6: row 4 is all zeros, and row 6
    // only in column 2, so only output 2 stays finite.
    let mut g = Matrix::from_vec(m, 1, (0..m).map(|i| i as f32 * 0.5 - 3.0).collect());
    g.set(4, 0, f32::INFINITY);
    g.set(6, 0, f32::NEG_INFINITY);

    for ctx in NARROW_CTXS {
        let plain = a.matmul_in(&x, None, ctx);
        let seeded = a.matmul_in(&x, Some(&bias), ctx);
        assert_eq!(bits(&plain), bits(&reference::matmul(&a, &x)), "{ctx:?}");
        assert_eq!(
            bits(&seeded),
            bits(&reference_matmul_seeded(&a, &x, &bias)),
            "{ctx:?}"
        );
        for r in 0..m {
            assert_eq!(plain.get(r, 0).is_finite(), r % 2 == 0, "row {r} {ctx:?}");
        }
        // The all-zero row is its seed: `+0` alone, `-0.0` under the bias.
        assert_eq!(plain.get(4, 0).to_bits(), 0.0f32.to_bits());
        assert_eq!(seeded.get(4, 0).to_bits(), (-0.0f32).to_bits());

        let ta = a.matmul_ta_in(&g, ctx);
        assert_eq!(bits(&ta), bits(&reference::matmul_ta(&a, &g)), "{ctx:?}");
        for c in 0..k {
            assert_eq!(ta.get(c, 0).is_finite(), c == 2, "column {c} {ctx:?}");
        }
    }
}

#[test]
fn register_tile_edges_stay_bitwise() {
    // 11 rows: two 4-row tiles and 3 single rows on one worker; on three,
    // two chunks of 6 and 5 rows put the tile boundaries elsewhere. `a` is
    // nonzero but for one zero inside tile 0 (row 1, k = 5), an all-zero
    // k step (column 7), an all-zero row (9) and column 11's zeros on rows
    // 2 and 6, where `b` holds +∞ in a full panel (column 3) and in the
    // last, zero-padded one. 35 columns (two 16-wide panels and a 3-column
    // remainder) send every tile, each holding zeros, to whole-row
    // updates; 13 columns (one padded panel) send them to the per-k skip
    // dispatch, whose three branches the zeros above all take.
    let (m, k) = (11, 300);
    let mut a = Matrix::from_vec(
        m,
        k,
        (0..m * k).map(|i| ((i % 13) as f32) * 0.25 - 1.4).collect(),
    );
    a.set(1, 5, 0.0);
    for r in 0..m {
        a.set(r, 7, 0.0);
    }
    for c in 0..k {
        a.set(9, c, 0.0);
    }
    a.set(2, 11, 0.0);
    a.set(6, 11, 0.0);
    let skipped = |r: usize| [2, 6, 9].contains(&r);

    for n in [35, 13] {
        let mut b = Matrix::from_vec(
            k,
            n,
            (0..k * n)
                .map(|i| ((i % 17) as f32) * 0.125 - 1.0)
                .collect(),
        );
        let infinite = [3, n - 2];
        for c in infinite {
            b.set(11, c, f32::INFINITY);
        }
        let bias = Matrix::from_vec(
            1,
            n,
            (0..n)
                .map(|j| {
                    if j % 2 == 0 {
                        -0.0
                    } else {
                        j as f32 * 0.5 - 3.0
                    }
                })
                .collect(),
        );
        let b_t = b.transpose();

        for ctx in [KernelCtx::threads(1), KernelCtx::threads(3)] {
            let plain = a.matmul_in(&b, None, ctx);
            let seeded = a.matmul_in(&b, Some(&bias), ctx);
            assert_eq!(
                bits(&plain),
                bits(&reference::matmul(&a, &b)),
                "{n} {ctx:?}"
            );
            assert_eq!(
                bits(&seeded),
                bits(&reference_matmul_seeded(&a, &b, &bias)),
                "{n} {ctx:?}"
            );
            // The all-zero row is its seed: `+0` alone, the bias (its `-0.0`
            // included) under it.
            assert!(plain.row(9).iter().all(|v| v.to_bits() == 0), "{n} {ctx:?}");
            assert_eq!(bits(&seeded)[9 * n..10 * n], bits(&bias)[..], "{n} {ctx:?}");
            // A skipped `0·∞` leaves the row finite; `matmul_tb`, which adds
            // every term, turns it into NaN.
            let tb = a.matmul_tb_in(&b_t, ctx);
            assert_eq!(
                bits(&tb),
                bits(&reference::matmul_tb(&a, &b_t)),
                "{n} {ctx:?}"
            );
            for r in 0..m {
                for c in infinite {
                    let (p, t) = (plain.get(r, c), tb.get(r, c));
                    assert_eq!(p.is_finite(), skipped(r), "row {r} col {c} {n} {ctx:?}");
                    assert_eq!(t.is_nan(), skipped(r), "row {r} col {c} {n} {ctx:?}");
                }
            }
        }
    }
}

#[test]
fn large_matmul_crosses_tile_and_chunk_boundaries() {
    // One deterministic case big enough to span all parallel chunks:
    // 300×600 @ 600×97, six 16-wide panels plus a 1-column remainder
    // panel. Every 4-row tile of `a` holds zeros (1 in 11), so in this
    // wide product each takes whole-row updates; rows past a chunk's last
    // tile take the panel sweep's per-row loop.
    let a = Matrix::from_vec(
        300,
        600,
        (0..300 * 600)
            .map(|i| {
                if i % 11 == 0 {
                    0.0
                } else {
                    ((i % 97) as f32) * 0.03 - 1.4
                }
            })
            .collect(),
    );
    let b = Matrix::from_vec(
        600,
        97,
        (0..600 * 97)
            .map(|i| ((i % 89) as f32) * 0.02 - 0.9)
            .collect(),
    );
    let expect: Vec<u32> = reference::matmul(&a, &b)
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    for threads in [1, 2, 3, 8] {
        let got: Vec<u32> = a
            .matmul_in(&b, None, KernelCtx::threads(threads))
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(got, expect, "threads={threads}");
    }
}

#[test]
fn many_tiny_sections_reuse_the_pool_bitwise_stable() {
    // Persistent-pool stress: hundreds of sub-millisecond forced-parallel
    // sections in a row, each far below any auto-parallel gate. Every
    // section must produce bits identical to the reference — regardless
    // of which pool worker (or the helping caller) runs each chunk — and
    // the pool must survive the section churn without respawning state.
    let a = Matrix::from_vec(
        64,
        48,
        (0..64 * 48)
            .map(|i| ((i % 23) as f32) * 0.04 - 0.4)
            .collect(),
    );
    let b = Matrix::from_vec(
        48,
        32,
        (0..48 * 32)
            .map(|i| ((i % 19) as f32) * 0.05 - 0.5)
            .collect(),
    );
    let expect: Vec<u32> = reference::matmul(&a, &b)
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    for round in 0..400 {
        let got: Vec<u32> = a
            .matmul_in(&b, None, KernelCtx::threads(4))
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(got, expect, "round {round}");
    }
}

#[test]
fn nested_join_inside_scope_keeps_kernels_bitwise_identical() {
    // Kernels launched from *inside* a pool job see a thread budget of 1
    // (the nested-section invariant), and explicit joins nested in scopes
    // must not perturb results either way.
    let a = Matrix::from_vec(
        96,
        64,
        (0..96 * 64)
            .map(|i| ((i % 31) as f32) * 0.03 - 0.5)
            .collect(),
    );
    let b = Matrix::from_vec(
        64,
        40,
        (0..64 * 40)
            .map(|i| ((i % 29) as f32) * 0.02 - 0.3)
            .collect(),
    );
    let expect: Vec<u32> = reference::matmul(&a, &b)
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let bits_of = |m: &Matrix| -> Vec<u32> { m.as_slice().iter().map(|v| v.to_bits()).collect() };

    let mut from_scope: Vec<Vec<u32>> = vec![Vec::new(); 4];
    rayon::scope(|s| {
        for out in from_scope.iter_mut() {
            let (a, b) = (&a, &b);
            s.spawn(move |_| {
                // Inside a worker the auto path must resolve serially and
                // still match the reference bit-for-bit.
                let (x, y) = rayon::join(
                    || a.matmul(b),
                    || a.matmul_in(b, None, KernelCtx::threads(4)),
                );
                assert_eq!(bits_of(&x), bits_of(&y));
                *out = bits_of(&x);
            });
        }
    });
    for (i, got) in from_scope.iter().enumerate() {
        assert_eq!(got, &expect, "scope job {i}");
    }
}

#[test]
fn sequential_sections_across_kernel_types_stay_identical() {
    // Pool reuse across *different* kernels back-to-back: matmul and spmm
    // sections interleaved, all forced multi-chunk.
    let a = Matrix::from_vec(
        80,
        50,
        (0..80 * 50)
            .map(|i| ((i % 17) as f32) * 0.06 - 0.5)
            .collect(),
    );
    let b = Matrix::from_vec(
        50,
        24,
        (0..50 * 24)
            .map(|i| ((i % 13) as f32) * 0.07 - 0.4)
            .collect(),
    );
    let mut trips = Vec::new();
    for r in 0..600usize {
        for j in 0..(r % 5) {
            trips.push((r, (r * 13 + j * 7) % 200, ((r + j) % 11) as f32 * 0.1 - 0.5));
        }
    }
    let s = CsrMatrix::from_triplets(600, 200, &trips);
    let x = Matrix::from_vec(
        200,
        8,
        (0..200 * 8)
            .map(|i| ((i % 37) as f32) * 0.05 - 0.9)
            .collect(),
    );

    let mm_expect = bits(&reference::matmul(&a, &b));
    let sp_expect = bits(&reference::spmm(&s, &x));
    for round in 0..100 {
        assert_eq!(
            bits(&a.matmul_in(&b, None, KernelCtx::threads(3))),
            mm_expect,
            "mm {round}"
        );
        assert_eq!(
            bits(&s.spmm_in(&x, None, KernelCtx::threads(4))),
            sp_expect,
            "sp {round}"
        );
    }
}

#[test]
fn large_spmm_parallel_chunks_are_bitwise_stable() {
    // A 2000-row CSR with ragged row lengths across several chunks.
    let mut trips = Vec::new();
    for r in 0..2000usize {
        for j in 0..(r % 7) {
            trips.push((
                r,
                (r * 31 + j * 17) % 500,
                ((r + j) % 13) as f32 * 0.1 - 0.6,
            ));
        }
    }
    let s = CsrMatrix::from_triplets(2000, 500, &trips);
    let x = Matrix::from_vec(
        500,
        64,
        (0..500 * 64)
            .map(|i| ((i % 101) as f32) * 0.02 - 1.0)
            .collect(),
    );
    let expect: Vec<u32> = reference::spmm(&s, &x)
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    for threads in [1, 2, 5] {
        let got: Vec<u32> = s
            .spmm_in(&x, None, KernelCtx::threads(threads))
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(got, expect, "threads={threads}");
    }
}

/// One attention layer's inputs in `f32`, cast per element type under
/// test (`f32 → f64` is exact, so both runs see the same values).
#[derive(Debug, Clone)]
struct AttentionCase {
    dst_ptr: Vec<usize>,
    src: Vec<usize>,
    width: usize,
    z: Vec<f32>,
    a_src: Vec<f32>,
    a_dst: Vec<f32>,
    bias: Vec<f32>,
}

impl AttentionCase {
    fn n(&self) -> usize {
        self.dst_ptr.len() - 1
    }

    fn arcs(&self) -> ArcCsr {
        ArcCsr {
            dst_ptr: self.dst_ptr.clone(),
            src: self.src.clone(),
        }
    }

    /// The taped op ≡ the multi-pass reference, value and all four
    /// adjoints, against an output gradient with exact `±0` entries.
    fn check_grads(&self) {
        let (n, width) = (self.n(), self.width);
        let g = Matrix::from_vec(
            n,
            width,
            (0..n * width)
                .map(|i| match i % 6 {
                    1 => -0.0,
                    4 => 0.0,
                    _ => (i * 37 % 23) as f32 * 0.25 - 2.75,
                })
                .collect(),
        );
        let arcs = Arc::new(self.arcs());
        let att = SegmentAttention {
            arcs: &arcs,
            a_src: &self.a_src,
            a_dst: &self.a_dst,
            bias: &self.bias,
            slope: 0.2,
        };
        let z = Matrix::from_vec(n, width, self.z.clone());
        let want_value = reference::segment_attention(&att, &z);
        let want = reference::segment_attention_grads(&att, &z, &g);

        let [z, a_src, a_dst, bias] = [
            z,
            Matrix::from_vec(width, 1, self.a_src.clone()),
            Matrix::from_vec(width, 1, self.a_dst.clone()),
            Matrix::from_vec(1, width, self.bias.clone()),
        ]
        .map(Tensor::parameter);
        let out = Tensor::segment_attention(&z, &a_src, &a_dst, &bias, 0.2, &arcs);
        assert_eq!(bits(&out.value()), bits(&want_value), "value");
        out.backward_with(&g);
        for ((p, want), name) in [z, a_src, a_dst, bias]
            .iter()
            .zip(&want)
            .zip(["dz", "da_src", "da_dst", "dbias"])
        {
            assert_eq!(bits(&p.grad().unwrap()), bits(want), "{name}");
        }
    }

    /// Fused ≡ reference for every worker count, for the whole matrix and
    /// for a row subset (reversed, with a repeat).
    fn check<E: Elem>(&self) {
        let cast = |v: &[f32]| -> Vec<E> { v.iter().map(|&x| E::from_f32(x)).collect() };
        let z = MatrixT::from_vec(self.n(), self.width, cast(&self.z));
        let (a_src, a_dst, bias) = (cast(&self.a_src), cast(&self.a_dst), cast(&self.bias));
        let arcs = self.arcs();
        let att = SegmentAttention {
            arcs: &arcs,
            a_src: &a_src,
            a_dst: &a_dst,
            bias: &bias,
            slope: E::from_f32(0.2),
        };
        let bits = |v: &[E]| -> Vec<u64> { v.iter().map(|x| x.to_f64().to_bits()).collect() };
        let expect = reference::segment_attention(&att, &z);
        assert_eq!(expect.shape(), (self.n(), self.width));

        let mut subset: Vec<usize> = (0..self.n()).rev().step_by(2).collect();
        subset.extend(subset.first().copied());
        let expect_subset = expect.select_rows(&subset);

        for ctx in PASS_THREADS {
            let full = att.forward(&z, None, ctx);
            assert_eq!(
                bits(full.as_slice()),
                bits(expect.as_slice()),
                "{} {ctx:?}",
                E::DTYPE
            );
            let part = att.forward(&z, Some(&subset), ctx);
            assert_eq!(part.shape(), expect_subset.shape());
            assert_eq!(
                bits(part.as_slice()),
                bits(expect_subset.as_slice()),
                "{} subset {ctx:?}",
                E::DTYPE
            );
        }
    }
}

/// Random layers over `n` nodes: in-degrees drawn from a skewed mix
/// (none / a handful / several times `n`, with repeated sources), exact
/// zeros planted in `z`, and a scale that at its largest spreads one
/// row's logits by thousands — past where `exp` underflows to exactly 0
/// in either dtype, so the zero-weight skip is taken.
fn arb_attention_case() -> impl Strategy<Value = AttentionCase> {
    (0usize..24, 0usize..7, 0usize..3).prop_flat_map(|(n, width, scale)| {
        let scale = [1.0f32, 30.0, 600.0][scale];
        // Per node: a degree class and a source pool cut down to it.
        let in_arcs = (
            0usize..3,
            proptest::collection::vec(0..n.max(1), 0..3 * n.max(1)),
        )
            .prop_map(|(class, mut pool)| {
                pool.truncate([0, 3, usize::MAX][class]);
                pool
            });
        (
            proptest::collection::vec(in_arcs, n),
            proptest::collection::vec(-4.0f32..4.0, n * width),
            proptest::collection::vec(-4.0f32..4.0, 3 * width),
        )
            .prop_map(move |(in_arcs, mut z, weights)| {
                for v in z.iter_mut() {
                    *v *= scale;
                }
                for v in z.iter_mut().step_by(5) {
                    *v = 0.0;
                }
                let mut dst_ptr = vec![0];
                let mut src = Vec::new();
                for arcs in &in_arcs {
                    src.extend_from_slice(arcs);
                    dst_ptr.push(src.len());
                }
                AttentionCase {
                    dst_ptr,
                    src,
                    width,
                    z,
                    a_src: weights[..width].to_vec(),
                    a_dst: weights[width..2 * width].to_vec(),
                    bias: weights[2 * width..].to_vec(),
                }
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn segment_attention_matches_reference_bitwise(case in arb_attention_case()) {
        case.check::<f32>();
        case.check::<f64>();
    }

    #[test]
    fn segment_attention_grads_match_reference_bitwise(case in arb_attention_case()) {
        case.check_grads();
    }
}

#[test]
fn segment_attention_degenerate_sizes() {
    // No nodes; one node no arc ends at (its row is the bias); one node
    // with only its self-loop (weight exactly 1).
    let empty = AttentionCase {
        dst_ptr: vec![0],
        src: vec![],
        width: 3,
        z: vec![],
        a_src: vec![0.5; 3],
        a_dst: vec![-0.5; 3],
        bias: vec![1.0; 3],
    };
    let isolated = AttentionCase {
        dst_ptr: vec![0, 0],
        z: vec![2.0, -1.0, 0.0],
        ..empty.clone()
    };
    let self_loop = AttentionCase {
        dst_ptr: vec![0, 1],
        src: vec![0],
        ..isolated.clone()
    };
    for case in [&empty, &isolated, &self_loop] {
        case.check::<f32>();
        case.check::<f64>();
        case.check_grads();
    }
    let out = |case: &AttentionCase| {
        SegmentAttention {
            arcs: &case.arcs(),
            a_src: &case.a_src,
            a_dst: &case.a_dst,
            bias: &case.bias,
            slope: 0.2f32,
        }
        .forward(
            &Matrix::from_vec(case.n(), 3, case.z.clone()),
            None,
            KernelCtx::default(),
        )
    };
    assert_eq!(out(&isolated).as_slice(), &[1.0, 1.0, 1.0]);
    assert_eq!(out(&self_loop).as_slice(), &[3.0, 0.0, 1.0]);
}

#[test]
fn segment_attention_skips_weights_that_underflow_to_zero() {
    // Node 0 hears from itself (logit 0) and from node 1 (logit −4000
    // after the LeakyReLU): the second weight underflows to exactly 0 in
    // both dtypes, so row 0 is bias + 1·z₀ with z₁ never touched.
    let case = AttentionCase {
        dst_ptr: vec![0, 2, 3],
        src: vec![0, 1, 1],
        width: 2,
        z: vec![0.0, 3.0, -20000.0, 7.0],
        a_src: vec![1.0, 0.0],
        a_dst: vec![0.0, 0.0],
        bias: vec![0.25, -0.5],
    };
    case.check::<f32>();
    case.check::<f64>();
    case.check_grads();
    let arcs = case.arcs();
    let att = SegmentAttention {
        arcs: &arcs,
        a_src: &[1.0f64, 0.0],
        a_dst: &[0.0, 0.0],
        bias: &[0.25, -0.5],
        slope: 0.2,
    };
    let z = MatrixT::from_vec(2, 2, vec![0.0f64, 3.0, -20000.0, 7.0]);
    assert_eq!(
        att.forward(&z, None, KernelCtx::default()).row(0),
        &[0.25, 2.5]
    );
}

#[test]
fn segment_attention_grads_at_the_edges() {
    // Scores: s_src = z[0], s_dst = z[1]. Node 0 hears only itself; node
    // 1 hears from itself (logit 2), from node 2 (logit −20000: its weight
    // underflows to exactly 0) and from node 3, whose row is all zeros
    // (logit exactly 0, LeakyReLU's kink); node 2 hears from itself (a
    // weight of exactly 0 again) and from node 1; node 3 only from itself
    // (logit 0 again). Zeros in z and ±0 in g throughout.
    let case = AttentionCase {
        dst_ptr: vec![0, 1, 4, 6, 7],
        src: vec![0, 1, 2, 3, 2, 1, 3],
        width: 2,
        z: vec![0.5, -1.0, 2.0, 0.0, -20000.0, 3.0, 0.0, 0.0],
        a_src: vec![1.0, 0.0],
        a_dst: vec![0.0, 1.0],
        bias: vec![0.25, -0.5],
    };
    let arcs = case.arcs();
    let att = SegmentAttention {
        arcs: &arcs,
        a_src: &case.a_src,
        a_dst: &case.a_dst,
        bias: &case.bias,
        slope: 0.2f32,
    };
    let (_, kept) = att.forward_keep(
        &Matrix::from_vec(4, 2, case.z.clone()),
        KernelCtx::default(),
    );
    assert_eq!(kept.alpha[0], 1.0, "a lone self-loop takes all the weight");
    assert_eq!((kept.alpha[2], kept.alpha[4]), (0.0, 0.0), "underflow");
    let logit = |e: usize, v: usize| kept.scores[2 * arcs.src[e]] + kept.scores[2 * v + 1];
    assert_eq!((logit(3, 1), logit(6, 3)), (0.0, 0.0), "at the kink");
    case.check_grads();
}

#[test]
fn large_segment_attention_parallel_chunks_are_bitwise_stable() {
    // 3 000 nodes at the GNN layers' width, past the parallel gate, with
    // the degree skew of a real graph: node 0 hears from everyone, every
    // 97th node from nobody, the rest from 1–12 ragged sources.
    let (n, width) = (3000usize, 64usize);
    let mut dst_ptr = vec![0];
    let mut src = Vec::new();
    for v in 0..n {
        if v == 0 {
            src.extend(0..n);
        } else if v % 97 != 0 {
            src.extend((0..1 + v % 12).map(|j| (v * 31 + j * 17) % n));
        }
        dst_ptr.push(src.len());
    }
    let weights = |salt: usize| -> Vec<f32> {
        (0..width)
            .map(|i| ((i * 7 + salt) % 23) as f32 * 0.05 - 0.5)
            .collect()
    };
    let case = AttentionCase {
        dst_ptr,
        src,
        width,
        z: (0..n * width)
            .map(|i| {
                if i % 13 == 0 {
                    0.0
                } else {
                    ((i % 101) as f32) * 0.02 - 1.0
                }
            })
            .collect(),
        a_src: weights(1),
        a_dst: weights(2),
        bias: weights(3),
    };
    case.check::<f32>();
    case.check::<f64>();
    case.check_grads();
}

/// One tick's scoring inputs in `f32`, cast per element type under test.
#[derive(Debug, Clone)]
struct ScoresCase {
    n: usize,
    d: usize,
    context: Vec<f32>,
    centroids: Vec<f32>,
}

impl ScoresCase {
    fn n_queries(&self) -> usize {
        self.centroids.len().checked_div(self.d).unwrap_or(0)
    }

    /// Batched ≡ one (query, node) at a time, for every worker count, for
    /// every row and for a row subset (reversed, with a repeat); returns
    /// the full result.
    fn check<E: Elem>(&self, n_queries: usize) -> Vec<Vec<f32>> {
        let cast = |v: &[f32]| -> Vec<E> { v.iter().map(|&x| E::from_f32(x)).collect() };
        let context = MatrixT::from_vec(self.n, self.d, cast(&self.context));
        let centroids = MatrixT::from_vec(n_queries, self.d, cast(&self.centroids));
        let scores = CentroidScores {
            context: &context,
            centroids: &centroids,
        };
        let bits = |v: &[Vec<f32>]| -> Vec<Vec<u32>> {
            v.iter()
                .map(|p| p.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        let expect = reference::centroid_scores(&scores);
        assert_eq!(expect.len(), n_queries);
        assert!(expect.iter().all(|p| p.len() == self.n));

        let mut subset: Vec<usize> = (0..self.n).rev().step_by(2).collect();
        subset.extend(subset.first().copied());
        let expect_subset: Vec<Vec<f32>> = expect
            .iter()
            .map(|p| subset.iter().map(|&v| p[v]).collect())
            .collect();

        for ctx in PASS_THREADS {
            let what = format!(
                "{} n={} d={} B={n_queries} {ctx:?}",
                E::DTYPE,
                self.n,
                self.d
            );
            assert_eq!(bits(&scores.forward(None, ctx)), bits(&expect), "{what}");
            assert_eq!(
                bits(&scores.forward(Some(&subset), ctx)),
                bits(&expect_subset),
                "{what} subset"
            );
        }
        expect
    }

    fn check_both(&self) {
        let b = self.n_queries();
        self.check::<f32>(b);
        self.check::<f64>(b);
    }
}

/// Random contexts of 0–40 rows (past the 8-row block and its remainders)
/// and 0–70 columns against 0–9 centroids — every remainder of the
/// 8-query panel — with exact zeros planted and a scale that at its
/// largest drives the logits into the hundreds, where the sigmoid
/// saturates.
fn arb_scores_case() -> impl Strategy<Value = ScoresCase> {
    (0usize..41, 0usize..71, 0usize..10, 0usize..3).prop_flat_map(|(n, d, b, scale)| {
        let scale = [1.0f32, 8.0, 60.0][scale];
        (
            proptest::collection::vec(-1.0f32..1.0, n * d),
            proptest::collection::vec(-1.0f32..1.0, b * d),
        )
            .prop_map(move |(mut context, mut centroids)| {
                for v in context.iter_mut().chain(centroids.iter_mut()) {
                    *v *= scale;
                }
                for v in context.iter_mut().step_by(7) {
                    *v = 0.0;
                }
                ScoresCase {
                    n,
                    d,
                    context,
                    centroids,
                }
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn centroid_scores_match_reference_bitwise(case in arb_scores_case()) {
        if case.d == 0 {
            // No width to infer a batch size from: try every panel shape.
            for b in 0..10 {
                for probs in case.check::<f32>(b) {
                    prop_assert!(probs.iter().all(|&p| p == 0.5));
                }
                case.check::<f64>(b);
            }
        } else {
            case.check_both();
        }
    }
}

#[test]
fn centroid_scores_saturate_to_exactly_zero_and_one() {
    // Logits of ±d·s² for growing s: from s = 10 (±500) both halves of
    // the sigmoid saturate, to exactly 1.0 and exactly 0.0, and the f32
    // logit that overflows to ±∞ stays there rather than turning NaN.
    let d = 5;
    for s in [1.0f32, 4.0, 10.0, 1e3, 1e19, 3e19] {
        let case = ScoresCase {
            n: 3,
            d,
            context: [vec![s; d], vec![-s; d], vec![0.0; d]].concat(),
            centroids: [vec![s; d], vec![-s; d]].concat(),
        };
        case.check_both();
        let probs = case.check::<f32>(2);
        assert_eq!(probs[0][2], 0.5);
        if s >= 10.0 {
            assert_eq!(probs[0], [1.0, 0.0, 0.5], "s={s}");
            assert_eq!(probs[1], [0.0, 1.0, 0.5], "s={s}");
        } else {
            assert!(probs[0][0] > 0.99 && probs[0][1] > 0.0 && probs[0][1] < 0.01);
        }
    }
}

#[test]
fn large_centroid_scores_parallel_chunks_are_bitwise_stable() {
    // A serving-sized context (3 200 × 64) against batches of 1, 2, 8 and
    // 9: past the parallel gate at every size, so `KernelCtx::default()` splits
    // the rows, and 3 200 is no multiple of the chunk a 7-way split cuts.
    let (n, d) = (3200usize, 64usize);
    let context: Vec<f32> = (0..n * d)
        .map(|i| {
            if i % 11 == 0 {
                0.0
            } else {
                ((i * 37 % 211) as f32) * 0.01 - 1.0
            }
        })
        .collect();
    for b in [1usize, 2, 8, 9] {
        ScoresCase {
            n,
            d,
            context: context.clone(),
            centroids: (0..b * d)
                .map(|i| ((i * 13 % 89) as f32) * 0.004 - 0.17)
                .collect(),
        }
        .check_both();
    }
}
