//! Centroid scoring: the cheap half of CGNP's Alg. 2 for a whole
//! micro-batch, in one pass over the decoded context.
//!
//! ```text
//! p[q][v] = σ(⟨context_v, centroid_q⟩)      for every query q, node v
//! ```
//!
//! Each logit is **one in-order chain from `+0` over `k = 0..d`** — what
//! `matmul_tb` computes for an output element on the exact tier, and what
//! the fast tier computes for the single column a one-query product gives
//! it — followed by the branch-stable sigmoid in `E` and a cast to `f32`,
//! the wire type. [`crate::reference::centroid_scores`] spells that out
//! one (query, node) at a time; this kernel computes the same chains,
//! many at once: a block of context rows is loaded once and every query
//! of the batch is scored against it before the next block, and enough
//! independent chains are kept in flight to hide the latency of the
//! dependent adds — lanes across queries (the centroids are packed
//! k-major, so a panel of them is one contiguous vector per `k`) and
//! across the rows of the block, the latter carrying a batch of one or
//! two. A chain never depends on its neighbours, so a query's vector is
//! the same bits alone or in any batch, at any position, on any number of
//! workers.

use crate::elem::Elem;
use crate::matrix::MatrixT;
use crate::parallel::{for_each_row_chunk_of_columns, threads_for};

/// A decoded task context and the query centroids to score it against,
/// borrowed for a call.
pub struct CentroidScores<'a, E> {
    /// One row per node (`n × d`).
    pub context: &'a MatrixT<E>,
    /// One row per query (`B × d`).
    pub centroids: &'a MatrixT<E>,
}

/// Context rows scored together; the last block of a chunk repeats its
/// final row to fill up (the extra chains are dropped unread).
const ROW_BLOCK: usize = 8;

/// One k-major group of centroids: `width` queries starting at `first`,
/// stored as `d` runs of `width` values from `at` in the packed buffer.
struct Panel {
    first: usize,
    width: usize,
    at: usize,
}

impl<E: Elem> CentroidScores<'_, E> {
    /// Membership probabilities, one vector per centroid, in centroid
    /// order.
    ///
    /// `rows: None` scores every context row (`n` probabilities per
    /// query); `Some(nodes)` scores only those, in the order given — each
    /// bitwise the entry a full pass would produce, for callers that
    /// consume a subset (a shard's merge reads only the rows it owns).
    /// `threads: None` applies the crate's work-size policy (work = rows ×
    /// `d` × queries); the worker count never changes a bit of the result.
    ///
    /// # Panics
    /// Panics when the widths disagree or a row index is out of range.
    pub fn forward(&self, rows: Option<&[usize]>, threads: Option<usize>) -> Vec<Vec<f32>> {
        let (n, d) = self.context.shape();
        let n_queries = self.centroids.rows();
        assert_eq!(
            self.centroids.cols(),
            d,
            "centroid scores: centroids are {} wide, the context {d}",
            self.centroids.cols()
        );
        let n_out = rows.map_or(n, <[usize]>::len);
        let mut out = vec![vec![0.0f32; n_out]; n_queries];
        let work = n_out.saturating_mul(d).saturating_mul(n_queries);
        let threads = threads.unwrap_or_else(|| threads_for(work));

        // Panels of 8 queries, then the binary digits of what is left, so
        // no lane is padding; each is transposed to k-major once.
        let mut panels = Vec::new();
        let mut packed = Vec::with_capacity(n_queries * d);
        let mut first = 0;
        while first < n_queries {
            let width = [8, 4, 2, 1]
                .into_iter()
                .find(|&w| w <= n_queries - first)
                .expect("at least one query is left");
            panels.push(Panel {
                first,
                width,
                at: packed.len(),
            });
            for k in 0..d {
                packed.extend((first..first + width).map(|q| self.centroids.get(q, k)));
            }
            first += width;
        }

        for_each_row_chunk_of_columns(&mut out, n_out, threads, |r0, r1, band| {
            for at in (r0..r1).step_by(ROW_BLOCK) {
                let len = ROW_BLOCK.min(r1 - at);
                let block: [&[E]; ROW_BLOCK] = std::array::from_fn(|j| {
                    let i = at + j.min(len - 1);
                    self.context.row(rows.map_or(i, |nodes| nodes[i]))
                });
                for p in &panels {
                    let panel = &packed[p.at..p.at + d * p.width];
                    let outs = &mut band[p.first..p.first + p.width];
                    match p.width {
                        8 => score_block::<E, 4, 8>(&block, len, panel, outs, at - r0),
                        4 => score_block::<E, 8, 4>(&block, len, panel, outs, at - r0),
                        2 => score_block::<E, 4, 2>(&block, len, panel, outs, at - r0),
                        _ => score_block::<E, 8, 1>(&block, len, panel, outs, at - r0),
                    }
                }
            }
        });
        out
    }
}

/// Scores the first `len` rows of `block` against one panel of `QB`
/// centroids, `RB` rows at a time, writing `outs[q][at..at + len]`.
fn score_block<E: Elem, const RB: usize, const QB: usize>(
    block: &[&[E]; ROW_BLOCK],
    len: usize,
    panel: &[E],
    outs: &mut [&mut [f32]],
    at: usize,
) {
    for (t, tile_rows) in block.chunks_exact(RB).enumerate() {
        let base = t * RB;
        if base >= len {
            break;
        }
        let tile_rows: &[&[E]; RB] = tile_rows.try_into().expect("chunks_exact(RB)");
        let logits = tile::<E, RB, QB>(tile_rows, panel);
        for (out, q) in outs.iter_mut().zip(0..QB) {
            let out = &mut out[at + base..at + len.min(base + RB)];
            for (o, row_logits) in out.iter_mut().zip(&logits) {
                *o = sigmoid(row_logits[q]).to_f32();
            }
        }
    }
}

/// `RB × QB` logits, each its own in-order chain over `k`; the constant
/// trip counts let the whole accumulator tile live in registers, with the
/// `QB` lanes of a row advancing as one vector.
#[inline(always)]
fn tile<E: Elem, const RB: usize, const QB: usize>(
    rows: &[&[E]; RB],
    panel: &[E],
) -> [[E; QB]; RB] {
    let d = panel.len() / QB;
    let rows: [&[E]; RB] = std::array::from_fn(|r| &rows[r][..d]);
    let mut acc = [[E::ZERO; QB]; RB];
    for (k, c) in (0..d).zip(panel.chunks_exact(QB)) {
        for (acc_row, row) in acc.iter_mut().zip(&rows) {
            let a = row[k];
            for (s, &cv) in acc_row.iter_mut().zip(c) {
                *s += a * cv;
            }
        }
    }
    acc
}

/// The branch-stable sigmoid — `1 / (1 + e^-x)` for `x ≥ 0`,
/// `e^x / (1 + e^x)` below — with the sign picking operands instead of a
/// path: both halves are `num / (1 + e^-|x|)`. Same operations on the
/// same values as the branching form, so the same bits; but a logit's
/// sign is as good as random, and as a branch it mispredicts about every
/// other element.
#[inline]
fn sigmoid<E: Elem>(x: E) -> E {
    let positive = x >= E::ZERO;
    let e = std::hint::select_unpredictable(positive, -x, x).exp();
    std::hint::select_unpredictable(positive, E::ONE, e) / (E::ONE + e)
}
