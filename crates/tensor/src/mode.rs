//! Runtime selection between the exact and fast-math kernel tiers.
//!
//! The optimised kernels in [`crate::matrix`] / [`crate::sparse`] are
//! pinned bitwise to [`crate::reference`]: same per-element accumulation
//! order, same explicit-zero skip. A register tile keeps that order (each
//! output element's accumulator adds its terms in increasing `k`), so the
//! exact `matmul` is one. What the contract forbids is splitting one
//! output's sum over several independent partial sums — the reassociation
//! a dot product needs to vectorise — so a second tier exists behind the
//! `fast-math` cargo feature.
//!
//! Selection is **runtime**, not compile-time: every product has one
//! `*_in` entry point taking a [`KernelCtx`] that names the tier, so a
//! binary built with `fast-math` still reproduces exact results when
//! asked (`cgnp serve --exact`) without a rebuild. When the feature is not
//! compiled in, [`MathMode::Fast`] silently falls back to the exact
//! kernels — same results, no speedup — which keeps the default workspace
//! build and its bitwise test suite entirely unaffected by fast-math code.

/// Which kernel tier a computation runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MathMode {
    /// Bitwise-reproducible kernels (identical to [`crate::reference`]).
    /// The default everywhere: training, gradcheck, and any session that
    /// did not opt in to fast math.
    #[default]
    Exact,
    /// Multi-accumulator kernels, and a `matmul` that adds a zero factor's
    /// term instead of skipping it. Results differ from exact only by
    /// floating-point reassociation and those `±0` terms (property-tested
    /// relative-error bounds, see `tests/fast_math.rs`). Falls back to
    /// [`MathMode::Exact`] when the `fast-math` feature is not compiled.
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

/// How one product kernel call runs: on how many workers and on which
/// tier. The argument of `MatrixT::{matmul_in, matmul_tb_in, matmul_ta_in}`
/// and `CsrMatrixT::spmm_in`; the plain names (`matmul`, `spmm`, …) pass
/// [`KernelCtx::default`].
///
/// Neither field changes which output element a kernel computes or the
/// order it accumulates in, so on one tier every worker count gives the
/// same bits.
///
/// ```
/// use cgnp_tensor::{KernelCtx, MathMode, Matrix};
///
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let i = Matrix::eye(2);
/// // Work-sized fan-out, exact tier: what `a.matmul(&i)` runs.
/// let plain = a.matmul_in(&i, None, KernelCtx::default());
/// // Tier only (the fan-out stays work-sized); `mode.into()` is the same.
/// let fast = a.matmul_in(&i, None, KernelCtx::tier(MathMode::Fast));
/// // Worker count only (exact tier).
/// let split = a.matmul_in(&i, None, KernelCtx::threads(4));
/// assert_eq!(plain, a);
/// assert_eq!(fast, a);
/// assert_eq!(split, a);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCtx {
    /// Worker count for the row split. `None` sizes it from the call's
    /// multiply-accumulate count (serial below the dispatch-cost gate, see
    /// `parallel.rs`); `Some(t)` forces up to `t` row chunks whatever the
    /// size — tests and benches use it to pin a split.
    pub threads: Option<usize>,
    /// Kernel tier.
    pub mode: MathMode,
}

impl KernelCtx {
    /// Work-sized fan-out on the given tier.
    pub const fn tier(mode: MathMode) -> Self {
        Self {
            threads: None,
            mode,
        }
    }

    /// An explicit worker count on the exact tier.
    pub const fn threads(threads: usize) -> Self {
        Self {
            threads: Some(threads),
            mode: MathMode::Exact,
        }
    }

    /// Worker count for a call of `work` multiply-accumulates.
    pub(crate) fn workers(self, work: usize) -> usize {
        self.threads
            .unwrap_or_else(|| crate::parallel::threads_for(work))
    }
}

impl From<MathMode> for KernelCtx {
    fn from(mode: MathMode) -> Self {
        Self::tier(mode)
    }
}

/// True when this build carries the fast-math kernel tier. When false,
/// [`MathMode::Fast`] is accepted everywhere but behaves exactly like
/// [`MathMode::Exact`].
pub const fn fast_math_compiled() -> bool {
    cfg!(feature = "fast-math")
}
