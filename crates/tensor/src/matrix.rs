//! Dense row-major matrix used as the storage type of the autodiff
//! engine and the dtype-dispatched serving path.
//!
//! All models in the paper operate on 2-D values (node-embedding matrices,
//! weight matrices, per-edge column vectors), so a 2-D type is sufficient;
//! scalars are represented as `1×1` matrices.
//!
//! The storage is generic over its element type ([`MatrixT<E>`]); the
//! [`Matrix`] alias pins the autodiff engine (and everything trained or
//! checkpointed) to `f32`, while inference sessions pick their dtype at
//! load via [`crate::Block`]. Every product has one implementation, its
//! `*_in` method, whose [`KernelCtx`] picks the worker count and the exact
//! or fast-math tier at runtime; the plain names call it with the default
//! context.

use std::fmt;

use crate::elem::Elem;
use crate::mode::{KernelCtx, MathMode};
use crate::parallel::{for_each_row_chunk, seed_rows};

/// A dense row-major matrix of `E` values.
#[derive(Clone, PartialEq)]
pub struct MatrixT<E> {
    rows: usize,
    cols: usize,
    data: Vec<E>,
}

/// The exact/training dtype: every autodiff tensor, optimiser state, and
/// checkpoint stores `f32`, and the bitwise-reproducibility contract is
/// recorded against this monomorphisation.
pub type Matrix = MatrixT<f32>;

impl<E: Elem> MatrixT<E> {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![E::ZERO; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: E) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<E>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of equally sized rows.
    ///
    /// # Panics
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[Vec<E>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows passed to Matrix::from_rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// A `1×1` matrix holding a single scalar.
    pub fn scalar(value: E) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    /// The identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = E::ONE;
        }
        m
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> E {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: E) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[E] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [E] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[E] {
        &self.data
    }

    /// Mutable access to the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [E] {
        &mut self.data
    }

    /// Value of a `1×1` matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not `1×1`.
    pub fn item(&self) -> E {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 matrix");
        self.data[0]
    }

    /// Lossless-where-possible conversion to another element type
    /// (`f32 → f64` is exact; `f64 → f32` rounds to nearest). The one-time
    /// cost a serving session pays at load to score in its chosen dtype.
    pub fn cast<F: Elem>(&self) -> MatrixT<F> {
        MatrixT {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| F::from_f64(x.to_f64())).collect(),
        }
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(E) -> E) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise combination of two equally shaped matrices.
    pub fn zip_map(&self, other: &Self, f: impl Fn(E, E) -> E) -> Self {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self + other`, element-wise.
    pub fn add(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a + b)
    }

    /// `self - other`, element-wise.
    pub fn sub(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a - b)
    }

    /// Hadamard (element-wise) product.
    pub fn hadamard(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a * b)
    }

    /// `self * c`, element-wise.
    pub fn scale(&self, c: E) -> Self {
        self.map(|x| x * c)
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Self) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += c * other`.
    pub fn add_scaled_assign(&mut self, other: &Self, c: E) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add_scaled_assign shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += c * b;
        }
    }

    /// In-place scaling.
    pub fn scale_assign(&mut self, c: E) {
        for a in &mut self.data {
            *a *= c;
        }
    }

    /// In-place element-wise map (no intermediate allocation).
    pub fn map_assign(&mut self, f: impl Fn(E) -> E) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// [`MatrixT::map_assign`] over row chunks on `ctx`'s workers, the
    /// element count standing in for the work a product's worker count is
    /// sized from. Every element is mapped on its own, so every split gives
    /// [`MatrixT::map_assign`]'s bits.
    pub fn map_assign_in(&mut self, f: impl Fn(E) -> E + Sync, ctx: KernelCtx) {
        let (rows, cols) = self.shape();
        let threads = ctx.workers(self.data.len());
        for_each_row_chunk(&mut self.data, rows, cols, threads, |_, _, chunk| {
            for a in chunk {
                *a = f(*a);
            }
        });
    }

    /// In-place Hadamard product.
    pub fn hadamard_assign(&mut self, other: &Self) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "hadamard_assign shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
    }

    /// Adds a `1×c` bias row to every row, in place.
    pub fn add_bias_assign(&mut self, bias: &Self) {
        assert_eq!(bias.rows, 1, "bias must be a single row");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (o, &bv) in row.iter_mut().zip(&bias.data) {
                *o += bv;
            }
        }
    }

    /// Matrix product `self @ other`.
    ///
    /// Register-tiled (4 output rows × 16 columns held in registers across
    /// the whole `k` loop, over packed 16-column panels of `other`) and
    /// rayon-parallel over output-row ranges above a work threshold; a
    /// single-column `other` (GAT's `z·a`) keeps several rows' dot chains
    /// in registers instead.
    /// Bitwise identical to
    /// [`crate::reference::matmul`]: per output element the accumulation
    /// order over `k` is unchanged and explicit zeros of `self` are
    /// skipped exactly as the naive loop does.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Self) -> Self {
        self.matmul_in(other, None, KernelCtx::default())
    }

    /// Fused `self @ w + bias` where `bias` is a `1×n` row broadcast over
    /// every output row: the affine-layer forward pass in one kernel,
    /// without materialising the un-biased product.
    pub fn matmul_bias(&self, w: &Self, bias: &Self) -> Self {
        self.matmul_in(w, Some(bias), KernelCtx::default())
    }

    /// `self @ other (+ bias)` on the worker count and kernel tier `ctx`
    /// names: `Exact` is the bitwise-pinned kernel, `Fast` the same
    /// register tile adding every term, zero factors included (the exact
    /// kernel when the `fast-math` feature is not compiled). A bias row
    /// seeds every output row before either tier accumulates on top of it.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch, or when `bias` is not `1×n`.
    pub fn matmul_in(&self, other: &Self, bias: Option<&Self>, ctx: KernelCtx) -> Self {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul dims mismatch: {:?} @ {:?}",
            self.shape(),
            other.shape()
        );
        if let Some(bias) = bias {
            assert_eq!(bias.rows, 1, "bias must be a single row");
            assert_eq!(bias.cols, other.cols, "bias width mismatch");
        }
        let work = self
            .rows
            .saturating_mul(self.cols)
            .saturating_mul(other.cols);
        let mut out = Self::zeros(self.rows, other.cols);
        for_each_row_chunk(
            &mut out.data,
            self.rows,
            other.cols,
            ctx.workers(work),
            |r0, r1, chunk| {
                if let Some(bias) = bias {
                    seed_rows(chunk, &bias.data);
                }
                match ctx.mode {
                    #[cfg(feature = "fast-math")]
                    MathMode::Fast => multiply_add_block::<E, false>(self, other, r0, r1, chunk),
                    _ => multiply_add_block::<E, true>(self, other, r0, r1, chunk),
                }
            },
        );
        out
    }

    /// `self @ other.T`.
    ///
    /// Two exact forms, picked by the shape of `other`: with few rows
    /// (`Decoder::score`'s `n×d · (1×d)ᵀ`), four dot products per pass
    /// over a row of `self`; with `TB_KMAJOR_MIN_ROWS` (16) or more, the
    /// multiply-add form of [`Matrix::matmul`] over `other.T`, transposed
    /// once per call. Both add every product in increasing `k` from `+0`,
    /// so both are bitwise identical to [`crate::reference::matmul_tb`].
    /// Rayon-parallel over output rows.
    pub fn matmul_tb(&self, other: &Self) -> Self {
        self.matmul_tb_in(other, KernelCtx::default())
    }

    /// [`Matrix::matmul_tb`] on the worker count and kernel tier `ctx`
    /// names.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul_tb_in(&self, other: &Self, ctx: KernelCtx) -> Self {
        assert_eq!(
            self.cols,
            other.cols,
            "matmul_tb dims mismatch: {:?} @ {:?}.T",
            self.shape(),
            other.shape()
        );
        let work = self
            .rows
            .saturating_mul(self.cols)
            .saturating_mul(other.rows);
        let mut out = Self::zeros(self.rows, other.rows);
        let other_t = (ctx.mode == MathMode::Exact && other.rows >= TB_KMAJOR_MIN_ROWS)
            .then(|| other.transpose());
        for_each_row_chunk(
            &mut out.data,
            self.rows,
            other.rows,
            ctx.workers(work),
            |r0, r1, chunk| match (&other_t, ctx.mode) {
                (Some(other_t), _) => multiply_add_block::<E, false>(self, other_t, r0, r1, chunk),
                #[cfg(feature = "fast-math")]
                (None, MathMode::Fast) => fast::matmul_tb_fast_block(self, other, r0, r1, chunk),
                (None, _) => matmul_tb_block(self, other, r0, r1, chunk),
            },
        );
        out
    }

    /// `self.T @ other` without materialising the transpose.
    ///
    /// Parallel over output rows (columns of `self`); each worker streams
    /// the full inputs but writes only its own row range. Bitwise
    /// identical to [`crate::reference::matmul_ta`].
    pub fn matmul_ta(&self, other: &Self) -> Self {
        self.matmul_ta_in(other, KernelCtx::default())
    }

    /// [`Matrix::matmul_ta`] on the worker count and kernel tier `ctx`
    /// names.
    ///
    /// # Panics
    /// Panics on outer-dimension mismatch.
    pub fn matmul_ta_in(&self, other: &Self, ctx: KernelCtx) -> Self {
        assert_eq!(
            self.rows,
            other.rows,
            "matmul_ta dims mismatch: {:?}.T @ {:?}",
            self.shape(),
            other.shape()
        );
        let work = self
            .rows
            .saturating_mul(self.cols)
            .saturating_mul(other.cols);
        let mut out = Self::zeros(self.cols, other.cols);
        for_each_row_chunk(
            &mut out.data,
            self.cols,
            other.cols,
            ctx.workers(work),
            |c0, c1, chunk| match ctx.mode {
                #[cfg(feature = "fast-math")]
                MathMode::Fast => fast::matmul_ta_fast_block(self, other, c0, c1, chunk),
                _ => matmul_ta_block(self, other, c0, c1, chunk),
            },
        );
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> E {
        self.data.iter().copied().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> E {
        if self.data.is_empty() {
            E::ZERO
        } else {
            self.sum() / E::from_usize(self.data.len())
        }
    }

    /// Column-wise sums as a `1×cols` matrix.
    pub fn sum_rows(&self) -> Self {
        let mut out = Self::zeros(1, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for (o, &v) in out.data.iter_mut().zip(row) {
                *o += v;
            }
        }
        out
    }

    /// Column-wise means as a `1×cols` matrix.
    pub fn mean_rows(&self) -> Self {
        let mut out = self.sum_rows();
        if self.rows > 0 {
            out.scale_assign(E::ONE / E::from_usize(self.rows));
        }
        out
    }

    /// Maximum absolute element (0 for an empty matrix).
    pub fn max_abs(&self) -> E {
        self.data.iter().fold(E::ZERO, |m, &x| m.max(x.abs()))
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Extracts the given rows into a new matrix (rows may repeat).
    pub fn select_rows(&self, idx: &[usize]) -> Self {
        let mut out = Self::zeros(idx.len(), self.cols);
        for (i, &r) in idx.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Vertically stacks matrices that share a column count.
    pub fn vstack(parts: &[&MatrixT<E>]) -> Self {
        if parts.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&p.data);
        }
        Self { rows, cols, data }
    }

    /// Horizontally concatenates matrices that share a row count.
    pub fn hstack(parts: &[&MatrixT<E>]) -> Self {
        if parts.is_empty() {
            return Self::zeros(0, 0);
        }
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Self::zeros(rows, cols);
        for r in 0..rows {
            let orow = out.row_mut(r);
            let mut off = 0;
            for p in parts {
                assert_eq!(p.rows, rows, "hstack row mismatch");
                orow[off..off + p.cols].copy_from_slice(p.row(r));
                off += p.cols;
            }
        }
        out
    }

    /// `true` when every element differs by at most `tol`.
    pub fn approx_eq(&self, other: &Self, tol: E) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

/// Register-tile height of the dense multiply-add kernel: output rows
/// whose accumulators are held across a whole `k` loop.
const MR: usize = 4;

/// Register-tile width: the output columns of one packed panel of the
/// right operand, one 16-lane vector of `f32`.
const NR: usize = 16;

/// Rows of `b` from which [`MatrixT::matmul_tb`] runs the multiply-add
/// form over `bᵀ` instead of dot products. Short output rows do not fill
/// the multiply-add form's vector loop: against a `150×64` left operand
/// it is 2–3× slower than the dot form at 2–7 rows, even at 8–12, and
/// 1.5× faster from 16 (2.4× at the 64–131 rows of a layer's `g·Wᵀ`).
const TB_KMAJOR_MIN_ROWS: usize = 16;

/// Output rows whose dot-product chains the single-column kernel keeps in
/// registers at once: independent chains hide the add latency one chain
/// would wait on.
const CHAINS: usize = 8;

/// The multiply-add kernel behind [`MatrixT::matmul`] and the wide form of
/// [`MatrixT::matmul_tb`]: `chunk += a[r0..r1] @ b`, where `chunk` may be
/// pre-seeded (a bias row) and every output element accumulates its `k`
/// terms in increasing order. `SKIP_ZEROS` skips the terms whose `a`
/// factor is an explicit zero, as the reference `matmul` loop does; the
/// reference `matmul_tb` loop adds every term. Either way the results are
/// bitwise those of the matching [`crate::reference`] loop.
///
/// Each 16-wide column panel of `b` is packed contiguously (`k × 16`) and
/// swept by register tiles ([`sweep_panel`]); the `n % 16` columns past
/// the last whole panel are one more, zero-padded, panel. How a 4-row
/// tile runs follows from the zeros in its rows of `a` ([`TileForm`]).
fn multiply_add_block<E: Elem, const SKIP_ZEROS: bool>(
    a: &MatrixT<E>,
    b: &MatrixT<E>,
    r0: usize,
    r1: usize,
    chunk: &mut [E],
) {
    let k_dim = a.cols;
    let n = b.cols;
    if n == 1 {
        return single_column_block::<E, SKIP_ZEROS>(a, &b.data, r0, r1, chunk);
    }
    if r0 == r1 {
        return;
    }
    let forms: Vec<TileForm> = (r0..r1 - (r1 - r0) % MR)
        .step_by(MR)
        .map(|i| match SKIP_ZEROS {
            true => TileForm::of(&a.data[i * k_dim..(i + MR) * k_dim], n),
            false => TileForm::Unconditional,
        })
        .collect();
    let mut packed = vec![E::ZERO; k_dim * NR];
    let pack = |packed: &mut [E], j: usize, w: usize| {
        for (k, p) in packed.chunks_exact_mut(NR).enumerate() {
            p[..w].copy_from_slice(&b.data[k * n + j..][..w]);
            p[w..].fill(E::ZERO);
        }
    };
    let full_end = n - n % NR;
    for j in (0..full_end).step_by(NR) {
        pack(&mut packed, j, NR);
        sweep_panel::<E, SKIP_ZEROS>(a, r0, r1, &forms, &packed, &mut chunk[j..], n);
    }
    if full_end < n {
        // The last `w` columns: a zero-padded panel over a padded copy of
        // those output columns, whose extra lanes are dropped.
        let w = n - full_end;
        pack(&mut packed, full_end, w);
        let mut out = vec![E::ZERO; (r1 - r0) * NR];
        for (o, c) in out.chunks_exact_mut(NR).zip(chunk.chunks_exact(n)) {
            o[..w].copy_from_slice(&c[full_end..]);
        }
        sweep_panel::<E, SKIP_ZEROS>(a, r0, r1, &forms, &packed, &mut out, NR);
        for (o, c) in out.chunks_exact(NR).zip(chunk.chunks_exact_mut(n)) {
            c[full_end..].copy_from_slice(&o[..w]);
        }
    }
    for (t, _) in forms
        .iter()
        .enumerate()
        .filter(|(_, &f)| f == TileForm::Rows)
    {
        row_update_block(a, b, r0 + t * MR, &mut chunk[t * MR * n..(t + 1) * MR * n]);
    }
}

/// How [`multiply_add_block`] runs a 4-row tile of a skipping product,
/// from the explicit zeros in its rows of `a`. A layer input after ELU has
/// none; a first layer's attribute rows (≈ 4 % nonzero) and a training
/// input after dropout or ReLU are zero-heavy. Tiles with only a few zeros
/// are ≈ 0.01 % of the tiles `serve_mixed` and `meta_learn` run.
#[derive(Clone, Copy, PartialEq)]
enum TileForm {
    /// No zero to skip: every `k` takes the unconditional update.
    Unconditional,
    /// The zero skip dispatched per `k` ([`tile_rows`]), in a product no
    /// wider than one panel.
    Skipping,
    /// Zeros in a product wider than one panel: whole output rows
    /// ([`row_update_block`]), which test each `(row, k)` once for all
    /// columns instead of once per panel.
    Rows,
}

impl TileForm {
    /// The form of a tile whose rows of `a` are `rows`, in an `n`-column
    /// product. (Counting the zeros, not stopping at the first with `any`,
    /// keeps the tile loops' codegen: on one AVX-512 core the `any` form
    /// measured 1.35× slower on a dense 3200×64 · 64×64, 2.2× on 2–15
    /// columns.)
    fn of<E: Elem>(rows: &[E], n: usize) -> Self {
        match rows.iter().filter(|&&v| v == E::ZERO).count() {
            0 => TileForm::Unconditional,
            _ if n > NR => TileForm::Rows,
            _ => TileForm::Skipping,
        }
    }
}

/// One packed panel of [`multiply_add_block`]: the first `NR` lanes of
/// `out`'s rows (stride `stride`, one per row of `a[r0..r1]`) `+=` those
/// rows of `a` times the `k × NR` panel, tile by tile as `forms` says,
/// then row by row for the rows past the last tile.
#[inline(always)]
fn sweep_panel<E: Elem, const SKIP_ZEROS: bool>(
    a: &MatrixT<E>,
    r0: usize,
    r1: usize,
    forms: &[TileForm],
    packed: &[E],
    out: &mut [E],
    stride: usize,
) {
    for (t, form) in forms.iter().enumerate() {
        let (i, out) = (r0 + t * MR, &mut out[t * MR * stride..]);
        match form {
            TileForm::Unconditional => tile_rows::<E, false>(a, i, packed, out, stride),
            TileForm::Skipping => tile_rows::<E, true>(a, i, packed, out, stride),
            TileForm::Rows => {}
        }
    }
    for ii in r0 + forms.len() * MR..r1 {
        let o = (ii - r0) * stride;
        let mut c: [E; NR] = out[o..][..NR].try_into().unwrap();
        for (&x, p) in a.row(ii).iter().zip(packed.chunks_exact(NR)) {
            if !SKIP_ZEROS || x != E::ZERO {
                axpy(&mut c, x, p.try_into().unwrap());
            }
        }
        out[o..][..NR].copy_from_slice(&c);
    }
}

/// One `MR × NR` register tile: rows `i..i + MR` of `a` times the packed
/// panel, `+=` into the first `NR` lanes of `out`'s first `MR` rows
/// (stride `stride`). The accumulators are loaded once, updated at every
/// `k` in increasing order, and stored once.
///
/// Under `SKIP_ZEROS` the skip is dispatched per `k` for the whole tile:
/// four nonzero factors take the unconditional update, four zeros are
/// skipped, and a mix updates row by row. Adding a zero term instead is
/// not the skip: `±0·b` turns a `-0` accumulator into `+0`, and `0·∞` is
/// NaN.
#[inline(always)]
fn tile_rows<E: Elem, const SKIP_ZEROS: bool>(
    a: &MatrixT<E>,
    i: usize,
    packed: &[E],
    out: &mut [E],
    stride: usize,
) {
    let k_dim = a.cols;
    let a: [&[E]; MR] = std::array::from_fn(|r| &a.data[(i + r) * k_dim..][..k_dim]);
    let mut c: [[E; NR]; MR] = std::array::from_fn(|r| out[r * stride..][..NR].try_into().unwrap());
    for (k, p) in packed.chunks_exact(NR).enumerate() {
        let p = p.try_into().unwrap();
        let v: [E; MR] = std::array::from_fn(|r| a[r][k]);
        let live = v.map(|x| !SKIP_ZEROS || x != E::ZERO);
        if live == [true; MR] {
            for r in 0..MR {
                axpy(&mut c[r], v[r], p);
            }
        } else if live != [false; MR] {
            for r in 0..MR {
                if live[r] {
                    axpy(&mut c[r], v[r], p);
                }
            }
        }
    }
    for (r, c) in c.iter().enumerate() {
        out[r * stride..][..NR].copy_from_slice(c);
    }
}

/// `c += x · p`, lane by lane: one `k` step of one register-tile row.
#[inline(always)]
fn axpy<E: Elem>(c: &mut [E; NR], x: E, p: &[E; NR]) {
    for (o, &bv) in c.iter_mut().zip(p) {
        *o += x * bv;
    }
}

/// [`multiply_add_block`] for a tile with many zeros: `out`'s rows, from
/// row `r0` of `a @ b` on, each `+=` one row of `b` per nonzero term of
/// its row of `a`, in increasing `k`.
fn row_update_block<E: Elem>(a: &MatrixT<E>, b: &MatrixT<E>, r0: usize, out: &mut [E]) {
    let n = b.cols;
    for (r, orow) in (r0..).zip(out.chunks_exact_mut(n)) {
        for (&a_rk, brow) in a.row(r).iter().zip(b.data.chunks_exact(n)) {
            if a_rk == E::ZERO {
                continue;
            }
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += a_rk * bv;
            }
        }
    }
}

/// `a @ x` term for one element: `a·x`, or `-0.0` for a skipped zero `a`.
/// Adding `-0.0` leaves every value unchanged (`+0` stays `+0`, `-0`
/// stays `-0`), so a select in place of the skip's branch gives the
/// skip's bits — even when `x` is infinite or NaN.
#[inline(always)]
fn term<E: Elem, const SKIP_ZEROS: bool>(a: E, x: E) -> E {
    if SKIP_ZEROS && a == E::ZERO {
        -E::ZERO
    } else {
        a * x
    }
}

/// [`multiply_add_block`] for a single-column `b` (`x`, `k` long): one
/// dot-product chain per output row, [`CHAINS`] rows' chains interleaved
/// in registers, each seeded from `chunk` and added to in increasing `k`.
fn single_column_block<E: Elem, const SKIP_ZEROS: bool>(
    a: &MatrixT<E>,
    x: &[E],
    r0: usize,
    r1: usize,
    chunk: &mut [E],
) {
    let mut r = r0;
    while r + CHAINS <= r1 {
        let rows: [&[E]; CHAINS] = std::array::from_fn(|i| &a.row(r + i)[..x.len()]);
        let out = &mut chunk[r - r0..r - r0 + CHAINS];
        let mut acc: [E; CHAINS] = std::array::from_fn(|i| out[i]);
        for (k, &xk) in x.iter().enumerate() {
            for (s, row) in acc.iter_mut().zip(&rows) {
                *s += term::<E, SKIP_ZEROS>(row[k], xk);
            }
        }
        out.copy_from_slice(&acc);
        r += CHAINS;
    }
    for (o, rr) in chunk[r - r0..].iter_mut().zip(r..r1) {
        for (&v, &xk) in a.row(rr).iter().zip(x) {
            *o += term::<E, SKIP_ZEROS>(v, xk);
        }
    }
}

/// Computes output rows `[r0, r1)` of `a @ b.T` into `chunk`, four dot
/// products per pass over `a`'s row. Bitwise identical to
/// [`crate::reference::matmul_tb`].
fn matmul_tb_block<E: Elem>(a: &MatrixT<E>, b: &MatrixT<E>, r0: usize, r1: usize, chunk: &mut [E]) {
    let n = b.rows;
    for r in r0..r1 {
        let arow = a.row(r);
        let orow = &mut chunk[(r - r0) * n..(r - r0 + 1) * n];
        let mut j = 0;
        while j + 4 <= n {
            let b0 = b.row(j);
            let b1 = b.row(j + 1);
            let b2 = b.row(j + 2);
            let b3 = b.row(j + 3);
            let (mut s0, mut s1, mut s2, mut s3) = (E::ZERO, E::ZERO, E::ZERO, E::ZERO);
            for (k, &av) in arow.iter().enumerate() {
                s0 += av * b0[k];
                s1 += av * b1[k];
                s2 += av * b2[k];
                s3 += av * b3[k];
            }
            orow[j] = s0;
            orow[j + 1] = s1;
            orow[j + 2] = s2;
            orow[j + 3] = s3;
            j += 4;
        }
        for (jj, o) in orow.iter_mut().enumerate().take(n).skip(j) {
            let brow = b.row(jj);
            let mut acc = E::ZERO;
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            *o = acc;
        }
    }
}

/// Computes output rows `[c0, c1)` of `a.T @ b` into `chunk`. Each worker
/// streams all of `a`/`b` but scatter-adds only into its own column band,
/// keeping the per-element accumulation order over `i` identical to
/// [`crate::reference::matmul_ta`].
///
/// A single-column `b` makes every output row one element: each `i` then
/// adds a contiguous run of `a`'s row times one scalar into the band,
/// with the skip as a select ([`term`]) so the run vectorises.
fn matmul_ta_block<E: Elem>(a: &MatrixT<E>, b: &MatrixT<E>, c0: usize, c1: usize, chunk: &mut [E]) {
    let k_dim = a.cols;
    let n = b.cols;
    if n == 1 {
        for (i, &bv) in b.data.iter().enumerate() {
            let band = &a.data[i * k_dim + c0..i * k_dim + c1];
            for (o, &v) in chunk.iter_mut().zip(band) {
                *o += term::<E, true>(v, bv);
            }
        }
        return;
    }
    for i in 0..a.rows {
        let arow = &a.data[i * k_dim..(i + 1) * k_dim];
        let brow = &b.data[i * n..(i + 1) * n];
        for c in c0..c1 {
            let v = arow[c];
            if v == E::ZERO {
                continue;
            }
            let orow = &mut chunk[(c - c0) * n..(c - c0 + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += v * bv;
            }
        }
    }
}

/// The fast-math kernel tier's own loops: multi-accumulator variants of
/// the transposed products that trade the bitwise accumulation-order
/// contract for vectorisable inner loops (its `matmul` is the exact
/// register tile without the zero skip). Selected at runtime via
/// [`MathMode::Fast`]; results are pinned to the reference within
/// relative-error bounds by `tests/fast_math.rs`.
#[cfg(feature = "fast-math")]
mod fast {
    use super::{Elem, MatrixT};

    /// Fast `a @ b.T` over output rows `[r0, r1)`: a 4-wide j-tile of dot
    /// products, each split across 4 independent k-lanes (16 partial sums
    /// in flight), reduced lane-wise at the end.
    pub(super) fn matmul_tb_fast_block<E: Elem>(
        a: &MatrixT<E>,
        b: &MatrixT<E>,
        r0: usize,
        r1: usize,
        chunk: &mut [E],
    ) {
        let n = b.rows;
        let k_dim = a.cols;
        for r in r0..r1 {
            let arow = a.row(r);
            let orow = &mut chunk[(r - r0) * n..(r - r0 + 1) * n];
            let mut j = 0;
            while j + 4 <= n {
                let rows = [b.row(j), b.row(j + 1), b.row(j + 2), b.row(j + 3)];
                let mut lanes = [[E::ZERO; 4]; 4];
                let mut k = 0;
                while k + 4 <= k_dim {
                    for (d, brow) in rows.iter().enumerate() {
                        for (l, lane) in lanes[d].iter_mut().enumerate() {
                            *lane += arow[k + l] * brow[k + l];
                        }
                    }
                    k += 4;
                }
                for (d, o) in orow[j..j + 4].iter_mut().enumerate() {
                    let mut acc = (lanes[d][0] + lanes[d][1]) + (lanes[d][2] + lanes[d][3]);
                    for kk in k..k_dim {
                        acc += arow[kk] * rows[d][kk];
                    }
                    *o = acc;
                }
                j += 4;
            }
            for (jj, o) in orow.iter_mut().enumerate().take(n).skip(j) {
                let brow = b.row(jj);
                let mut acc = E::ZERO;
                for (&av, &bv) in arow.iter().zip(brow) {
                    acc += av * bv;
                }
                *o = acc;
            }
        }
    }

    /// Fast `a.T @ b` over output rows `[c0, c1)`: four `i`-rows fused
    /// per pass, so every output row is loaded/stored once per 4 inputs
    /// and the inner loop carries 4 independent products per element.
    pub(super) fn matmul_ta_fast_block<E: Elem>(
        a: &MatrixT<E>,
        b: &MatrixT<E>,
        c0: usize,
        c1: usize,
        chunk: &mut [E],
    ) {
        let k_dim = a.cols;
        let n = b.cols;
        let rows = a.rows;
        let mut i = 0;
        while i + 4 <= rows {
            let a0 = &a.data[i * k_dim..(i + 1) * k_dim];
            let a1 = &a.data[(i + 1) * k_dim..(i + 2) * k_dim];
            let a2 = &a.data[(i + 2) * k_dim..(i + 3) * k_dim];
            let a3 = &a.data[(i + 3) * k_dim..(i + 4) * k_dim];
            let b0 = &b.data[i * n..(i + 1) * n];
            let b1 = &b.data[(i + 1) * n..(i + 2) * n];
            let b2 = &b.data[(i + 2) * n..(i + 3) * n];
            let b3 = &b.data[(i + 3) * n..(i + 4) * n];
            for c in c0..c1 {
                let (v0, v1, v2, v3) = (a0[c], a1[c], a2[c], a3[c]);
                if v0 == E::ZERO && v1 == E::ZERO && v2 == E::ZERO && v3 == E::ZERO {
                    continue;
                }
                let orow = &mut chunk[(c - c0) * n..(c - c0 + 1) * n];
                for (jj, o) in orow.iter_mut().enumerate() {
                    *o += (v0 * b0[jj] + v1 * b1[jj]) + (v2 * b2[jj] + v3 * b3[jj]);
                }
            }
            i += 4;
        }
        for ii in i..rows {
            let arow = &a.data[ii * k_dim..(ii + 1) * k_dim];
            let brow = &b.data[ii * n..(ii + 1) * n];
            for c in c0..c1 {
                let v = arow[c];
                if v == E::ZERO {
                    continue;
                }
                let orow = &mut chunk[(c - c0) * n..(c - c0 + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += v * bv;
                }
            }
        }
    }
}

impl<E: Elem> fmt::Debug for MatrixT<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for r in 0..max_rows {
            write!(f, "  [")?;
            let max_cols = 8.min(self.cols);
            for c in 0..max_cols {
                write!(f, "{:>9.4}", self.get(r, c))?;
                if c + 1 < max_cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > max_cols {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let f = Matrix::full(2, 2, 3.5);
        assert!(f.as_slice().iter().all(|&x| x == 3.5));
    }

    #[test]
    fn indexing_roundtrip() {
        let mut m = Matrix::zeros(3, 4);
        m.set(2, 1, 7.0);
        assert_eq!(m.get(2, 1), 7.0);
        assert_eq!(m.row(2), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::eye(2);
        assert!(a.matmul(&i).approx_eq(&a, 1e-6));
        assert!(i.matmul(&a).approx_eq(&a, 1e-6));
    }

    #[test]
    fn matmul_tb_matches_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1.0, -2.0, 3.0, 0.5, 5.0, -6.0]);
        let b = Matrix::from_vec(4, 3, (0..12).map(|i| i as f32 * 0.3 - 1.0).collect());
        let lhs = a.matmul_tb(&b);
        let rhs = a.matmul(&b.transpose());
        assert!(lhs.approx_eq(&rhs, 1e-5));
    }

    #[test]
    fn matmul_ta_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1.0, -2.0, 3.0, 0.5, 5.0, -6.0]);
        let b = Matrix::from_vec(3, 4, (0..12).map(|i| i as f32 * 0.3 - 1.0).collect());
        let lhs = a.matmul_ta(&b);
        let rhs = a.transpose().matmul(&b);
        assert!(lhs.approx_eq(&rhs, 1e-5));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert!(a.transpose().transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.sum_rows().as_slice(), &[4.0, 6.0]);
        assert_eq!(a.mean_rows().as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn select_rows_repeats_allowed() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = a.select_rows(&[2, 0, 2]);
        assert_eq!(s.as_slice(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn stacking() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let v = Matrix::vstack(&[&a, &b]);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[5.0, 6.0]);

        let c = Matrix::from_vec(1, 1, vec![9.0]);
        let h = Matrix::hstack(&[&a, &c]);
        assert_eq!(h.shape(), (1, 3));
        assert_eq!(h.row(0), &[1.0, 2.0, 9.0]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Matrix::scalar(4.25).item(), 4.25);
    }

    #[test]
    fn add_scaled_assign_accumulates() {
        let mut a = Matrix::full(2, 2, 1.0);
        let b = Matrix::full(2, 2, 2.0);
        a.add_scaled_assign(&b, 0.5);
        assert!(a.approx_eq(&Matrix::full(2, 2, 2.0), 1e-6));
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Matrix::zeros(1, 2);
        assert!(!a.has_non_finite());
        a.set(0, 1, f32::NAN);
        assert!(a.has_non_finite());
    }

    #[test]
    fn f64_matrix_shares_the_kernel_surface() {
        let a: MatrixT<f64> = MatrixT::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b: MatrixT<f64> = MatrixT::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
        assert_eq!(a.mean_rows().as_slice(), &[2.5, 3.5, 4.5]);
    }

    #[test]
    fn cast_round_trips_f32_exactly() {
        let a = Matrix::from_vec(2, 2, vec![0.1, -2.5, 3.75, 1e-20]);
        let up: MatrixT<f64> = a.cast();
        let back: Matrix = up.cast();
        // f32 → f64 is exact, and rounding back recovers the original.
        assert_eq!(back.as_slice(), a.as_slice());
        assert_eq!(up.get(0, 1), -2.5f64);
    }

    #[test]
    fn mode_entry_points_cover_all_products() {
        // Exact mode must be bit-identical to the default entry points in
        // any build; fast mode must agree within rounding.
        let a = Matrix::from_vec(3, 5, (0..15).map(|i| i as f32 * 0.31 - 2.0).collect());
        let b = Matrix::from_vec(5, 4, (0..20).map(|i| i as f32 * 0.17 - 1.5).collect());
        let bias = Matrix::from_vec(1, 4, vec![0.5, -0.25, 1.0, 0.0]);
        let bt = Matrix::from_vec(4, 5, (0..20).map(|i| i as f32 * 0.13 - 1.2).collect());
        let ta_b = Matrix::from_vec(3, 4, (0..12).map(|i| i as f32 * 0.21 - 1.1).collect());
        for mode in [MathMode::Exact, MathMode::Fast] {
            let ctx = mode.into();
            assert!(a.matmul_in(&b, None, ctx).approx_eq(&a.matmul(&b), 1e-4));
            assert!(a
                .matmul_in(&b, Some(&bias), ctx)
                .approx_eq(&a.matmul_bias(&b, &bias), 1e-4));
            assert!(a.matmul_tb_in(&bt, ctx).approx_eq(&a.matmul_tb(&bt), 1e-4));
            assert!(a
                .matmul_ta_in(&ta_b, ctx)
                .approx_eq(&a.matmul_ta(&ta_b), 1e-4));
        }
    }
}
