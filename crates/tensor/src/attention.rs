//! Fused segment attention: the forward half of a single-head GAT layer
//! after the projection `z = x W`, in one pass over the arc list.
//!
//! ```text
//! e_uv  = LeakyReLU(z_u·a_src + z_v·a_dst)      per arc (u → v)
//! α_uv  = softmax over the arcs ending at v
//! out_v = bias + Σ_u α_uv · z_u
//! ```
//!
//! The arcs arrive grouped by destination (a CSR over destinations:
//! `dst_ptr` + `src`), so everything a destination row needs — its
//! logits, their running max, the exponentials, their sum, the
//! normalised weights and the weighted row sum — is computed while that
//! row's arcs are hot, and rows are independent, so they split across
//! workers like every other kernel in this crate. Within a row the arcs
//! are visited in list order for the max, the sum and the accumulation,
//! which is the order the multi-pass formulation
//! ([`crate::reference::segment_attention`]: two `n×1` products, an edge
//! loop, a three-pass segment softmax, a scatter-add) visits them in, so
//! the two agree bit for bit — as do the taped ops the reference mirrors
//! (`Tensor::segment_softmax` + `Tensor::weighted_scatter_rows_bias`).

use crate::elem::Elem;
use crate::matrix::MatrixT;
use crate::parallel::{for_each_row_chunk, threads_for};

/// One attention layer's arc structure and weights, borrowed for a call.
pub struct SegmentAttention<'a, E> {
    /// `n + 1` offsets: the arcs ending at node `v` are
    /// `dst_ptr[v]..dst_ptr[v + 1]` of [`Self::src`].
    pub dst_ptr: &'a [usize],
    /// Source node of every arc, grouped by destination.
    pub src: &'a [usize],
    /// Source half of the additive attention vector (`width` long).
    pub a_src: &'a [E],
    /// Destination half of the additive attention vector.
    pub a_dst: &'a [E],
    /// Output bias row; a node no arc ends at outputs exactly this.
    pub bias: &'a [E],
    /// LeakyReLU slope applied to the logits.
    pub slope: E,
}

impl<E: Elem> SegmentAttention<'_, E> {
    /// Attention output rows for the projection `z` (`n × width`).
    ///
    /// `rows: None` computes every node's row (`n × width`);
    /// `Some(nodes)` computes only those, in the order given
    /// (`nodes.len() × width`) — each bitwise the row a full pass would
    /// produce, for callers that changed a few rows of `z` and know
    /// which outputs that reaches. `threads: None` applies the crate's
    /// work-size policy (work = arcs visited × width); the worker count
    /// never changes a bit of the result.
    ///
    /// # Panics
    /// Panics when the widths disagree, `z` has other than `n` rows, or
    /// an offset or source index is out of range.
    pub fn forward(
        &self,
        z: &MatrixT<E>,
        rows: Option<&[usize]>,
        threads: Option<usize>,
    ) -> MatrixT<E> {
        let n = self.dst_ptr.len().saturating_sub(1);
        let width = z.cols();
        assert_eq!(z.rows(), n, "segment attention: z has {} rows", z.rows());
        for (name, v) in [
            ("a_src", self.a_src),
            ("a_dst", self.a_dst),
            ("bias", self.bias),
        ] {
            assert_eq!(v.len(), width, "segment attention: {name} width mismatch");
        }
        assert_eq!(
            self.src.len(),
            self.dst_ptr.last().copied().unwrap_or(0),
            "segment attention: dst_ptr does not cover the arc list"
        );
        let n_out = rows.map_or(n, <[usize]>::len);
        let mut out = MatrixT::zeros(n_out, width);
        if width == 0 {
            return out;
        }
        let arcs = match rows {
            None => self.src.len(),
            Some(nodes) => nodes
                .iter()
                .map(|&v| self.dst_ptr[v + 1] - self.dst_ptr[v])
                .sum(),
        };
        let threads = threads.unwrap_or_else(|| threads_for(arcs.saturating_mul(width)));

        // A full pass reads every node's two score halves about once per
        // incident arc, so they are computed up front (`[src, dst]` per
        // node); a row subset touches few nodes and takes the same dots
        // on demand.
        let scores = rows.is_none().then(|| {
            let mut s = vec![E::ZERO; n * 2];
            for_each_row_chunk(&mut s, n, 2, threads, |r0, r1, chunk| {
                for (v, pair) in (r0..r1).zip(chunk.chunks_exact_mut(2)) {
                    (pair[0], pair[1]) = self.scores(z.row(v));
                }
            });
            s
        });

        for_each_row_chunk(
            out.as_mut_slice(),
            n_out,
            width,
            threads,
            |r0, r1, chunk| {
                let mut weights = Vec::new();
                for (i, out_row) in (r0..r1).zip(chunk.chunks_exact_mut(width)) {
                    let v = rows.map_or(i, |nodes| nodes[i]);
                    match &scores {
                        Some(s) => {
                            self.row(z, v, s[2 * v + 1], |u| s[2 * u], &mut weights, out_row)
                        }
                        None => self.row(
                            z,
                            v,
                            self.scores(z.row(v)).1,
                            |u| self.scores(z.row(u)).0,
                            &mut weights,
                            out_row,
                        ),
                    }
                }
            },
        );
        out
    }

    /// A node's two score halves `(z_v·a_src, z_v·a_dst)`, each
    /// accumulated in index order over the non-zero entries of `z_v`:
    /// what the exact `n×1` [`MatrixT::matmul`] accumulates for one output
    /// element. A partial sum is never `-0`, so adding `+0` in place of a
    /// skipped product is the identity, and the two chains advance
    /// together without a branch. (The fast tier's single-column product
    /// runs the same order without the skip — the same bits for finite
    /// weights, for the same reason.)
    #[inline]
    fn scores(&self, z_row: &[E]) -> (E, E) {
        let (mut s_src, mut s_dst) = (E::ZERO, E::ZERO);
        for ((&zv, &a), &b) in z_row.iter().zip(self.a_src).zip(self.a_dst) {
            let nonzero = zv != E::ZERO;
            s_src += if nonzero { zv * a } else { E::ZERO };
            s_dst += if nonzero { zv * b } else { E::ZERO };
        }
        (s_src, s_dst)
    }

    /// One destination row: logits and their max, exponentials and their
    /// sum, then the normalised weighted sum of source rows on top of the
    /// bias — every loop in arc order.
    fn row(
        &self,
        z: &MatrixT<E>,
        v: usize,
        s_dst: E,
        s_src: impl Fn(usize) -> E,
        weights: &mut Vec<E>,
        out_row: &mut [E],
    ) {
        out_row.copy_from_slice(self.bias);
        let sources = &self.src[self.dst_ptr[v]..self.dst_ptr[v + 1]];
        weights.clear();
        let mut max = E::neg_infinity();
        for &u in sources {
            let e = s_src(u) + s_dst;
            let e = if e > E::ZERO { e } else { self.slope * e };
            max = max.max(e);
            weights.push(e);
        }
        let mut sum = E::ZERO;
        for w in weights.iter_mut() {
            *w = (*w - max).exp();
            sum += *w;
        }
        let sum = sum.max(E::min_positive());
        for (&u, &w) in sources.iter().zip(weights.iter()) {
            let alpha = w / sum;
            if alpha == E::ZERO {
                continue;
            }
            for (o, &zv) in out_row.iter_mut().zip(z.row(u)) {
                *o += alpha * zv;
            }
        }
    }
}
