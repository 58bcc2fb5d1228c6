//! How a product kernel call runs: [`KernelCtx`], its worker count.
//!
//! The optimised kernels in [`crate::matrix`] / [`crate::sparse`] are
//! pinned bitwise to [`crate::reference`]: same per-element accumulation
//! order, same explicit-zero skip. A register tile keeps that order (each
//! output element's accumulator adds its terms in increasing `k`), so the
//! `matmul` is one. There is one kernel tier; [`MathMode`] and
//! [`fast_math_compiled`] remain as inert names for callers that still
//! pass or print them.

/// Accepted and ignored: there is one kernel tier. Kept for callers that
/// still name a mode; ROADMAP direction 2 deletes it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MathMode {
    /// The one kernel tier.
    #[default]
    Exact,
    /// Runs exactly as [`MathMode::Exact`].
    Fast,
}

impl MathMode {
    /// The CLI / JSON spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            MathMode::Exact => "exact",
            MathMode::Fast => "fast",
        }
    }
}

impl std::fmt::Display for MathMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How one kernel call runs: on how many workers. The argument of
/// `MatrixT::{matmul_in, matmul_tb_in, matmul_ta_in}`,
/// `CsrMatrixT::spmm_in`, `SegmentAttention::{forward, forward_keep}` and
/// `CentroidScores::forward`; the plain names (`matmul`, `spmm`, …) pass
/// [`KernelCtx::default`].
///
/// The worker count never changes which output element a kernel computes
/// or the order it accumulates in, so every worker count gives the same
/// bits.
///
/// ```
/// use cgnp_tensor::{KernelCtx, Matrix};
///
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let i = Matrix::eye(2);
/// // Work-sized fan-out: what `a.matmul(&i)` runs.
/// let plain = a.matmul_in(&i, None, KernelCtx::default());
/// // An explicit worker count.
/// let split = a.matmul_in(&i, None, KernelCtx::threads(4));
/// assert_eq!(plain, a);
/// assert_eq!(split, a);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCtx {
    /// Worker count for the row split. `None` sizes it from the call's
    /// work (serial below the dispatch-cost gate, see `parallel.rs`);
    /// `Some(t)` forces up to `t` row chunks whatever the size — tests
    /// and benches use it to pin a split.
    pub threads: Option<usize>,
}

impl KernelCtx {
    /// An explicit worker count.
    pub const fn threads(threads: usize) -> Self {
        Self {
            threads: Some(threads),
        }
    }

    /// Worker count for a call of `work` multiply-accumulates.
    pub(crate) fn workers(self, work: usize) -> usize {
        self.threads
            .unwrap_or_else(|| crate::parallel::threads_for(work))
    }
}

/// Accepted and ignored: there is one kernel tier, so this is always
/// `false`. Kept for callers that still print it; ROADMAP direction 2
/// deletes it.
pub const fn fast_math_compiled() -> bool {
    false
}
