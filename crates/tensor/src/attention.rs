//! Fused segment attention: a single-head GAT layer after the projection
//! `z = x W`, in one pass over the arc list, and its adjoint.
//!
//! ```text
//! e_uv  = LeakyReLU(z_u·a_src + z_v·a_dst)      per arc (u → v)
//! α_uv  = softmax over the arcs ending at v
//! out_v = bias + Σ_u α_uv · z_u
//! ```
//!
//! The arcs arrive grouped by destination (an [`ArcCsr`]), so everything
//! a destination row needs — its logits, their running max, the
//! exponentials, their sum, the normalised weights and the weighted row
//! sum — is computed while that row's arcs are hot, and rows are
//! independent, so they split across workers like every other kernel in
//! this crate. Within a row the arcs are visited in list order for the
//! max, the sum and the accumulation, which is the order the multi-pass
//! formulation ([`crate::reference::segment_attention`]: two `n×1`
//! products, an edge loop, a three-pass segment softmax, a scatter-add)
//! visits them in, so the two agree bit for bit.
//!
//! [`SegmentAttention::forward`] is the pass serving runs on plain
//! matrices. [`Tensor::segment_attention`] runs the same pass on the tape,
//! keeping the per-arc weights and the per-node score halves, and has one
//! hand-written adjoint: the multi-pass formulation's backward, in the
//! order its tape would run it ([`crate::reference::segment_attention_grads`]).

use std::sync::Arc;

use crate::elem::Elem;
use crate::matrix::{Matrix, MatrixT};
use crate::mode::KernelCtx;
use crate::parallel::{for_each_row_chunk, for_each_row_chunk_with};
use crate::tensor::Tensor;

/// A graph's arcs grouped by destination: a CSR over destinations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArcCsr {
    /// `n + 1` offsets: the arcs ending at node `v` are
    /// `dst_ptr[v]..dst_ptr[v + 1]` of [`Self::src`].
    pub dst_ptr: Vec<usize>,
    /// Source node of every arc, grouped by destination.
    pub src: Vec<usize>,
}

impl ArcCsr {
    /// Indexes the arc list `src[i] → dst[i]` over `n` nodes.
    ///
    /// # Panics
    /// Panics unless the destinations are in range and ascend, i.e. the
    /// arcs are already grouped by destination.
    pub fn grouped(n: usize, src: Vec<usize>, dst: &[usize]) -> Self {
        assert_eq!(src.len(), dst.len(), "arc list: src/dst length mismatch");
        let mut dst_ptr = vec![0; n + 1];
        for (i, &d) in dst.iter().enumerate() {
            assert!(
                d < n && (i == 0 || dst[i - 1] <= d),
                "arc {i} ends at node {d}: arcs must be grouped by ascending destination"
            );
            dst_ptr[d + 1] += 1;
        }
        for v in 0..n {
            dst_ptr[v + 1] += dst_ptr[v];
        }
        Self { dst_ptr, src }
    }

    /// Node count.
    pub fn n(&self) -> usize {
        self.dst_ptr.len().saturating_sub(1)
    }

    /// Sources of the arcs ending at `v`, in list order.
    pub fn sources(&self, v: usize) -> &[usize] {
        &self.src[self.dst_ptr[v]..self.dst_ptr[v + 1]]
    }

    /// Destination of every arc, in list order.
    pub fn destinations(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n()).flat_map(|v| std::iter::repeat_n(v, self.dst_ptr[v + 1] - self.dst_ptr[v]))
    }
}

/// One attention layer's arc structure and weights, borrowed for a call.
pub struct SegmentAttention<'a, E> {
    pub arcs: &'a ArcCsr,
    /// Source half of the additive attention vector (`width` long).
    pub a_src: &'a [E],
    /// Destination half of the additive attention vector.
    pub a_dst: &'a [E],
    /// Output bias row; a node no arc ends at outputs exactly this.
    pub bias: &'a [E],
    /// LeakyReLU slope applied to the logits.
    pub slope: E,
}

/// What a full pass keeps for its adjoint.
pub struct Kept<E> {
    /// `[z_v·a_src, z_v·a_dst]` per node.
    pub scores: Vec<E>,
    /// The normalised weight of every arc, in list order.
    pub alpha: Vec<E>,
}

impl<E: Elem> SegmentAttention<'_, E> {
    /// Attention output rows for the projection `z` (`n × width`).
    ///
    /// `rows: None` computes every node's row (`n × width`);
    /// `Some(nodes)` computes only those, in the order given
    /// (`nodes.len() × width`) — each bitwise the row a full pass would
    /// produce, for callers that changed a few rows of `z` and know
    /// which outputs that reaches. `ctx` sizes the row split (work = arcs
    /// visited × width); the worker count never changes a bit of the
    /// result.
    ///
    /// # Panics
    /// Panics when the widths disagree, `z` has other than `n` rows, or
    /// an offset or source index is out of range.
    pub fn forward(&self, z: &MatrixT<E>, rows: Option<&[usize]>, ctx: KernelCtx) -> MatrixT<E> {
        self.pass(z, rows, ctx, false).0
    }

    /// [`Self::forward`] over every row, also returning the score halves
    /// and the per-arc weights it computed on the way.
    pub fn forward_keep(&self, z: &MatrixT<E>, ctx: KernelCtx) -> (MatrixT<E>, Kept<E>) {
        let (out, kept) = self.pass(z, None, ctx, true);
        (out, kept.expect("a kept pass keeps"))
    }

    fn pass(
        &self,
        z: &MatrixT<E>,
        rows: Option<&[usize]>,
        ctx: KernelCtx,
        keep: bool,
    ) -> (MatrixT<E>, Option<Kept<E>>) {
        let arcs = self.arcs;
        let n = arcs.n();
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
            arcs.src.len(),
            arcs.dst_ptr.last().copied().unwrap_or(0),
            "segment attention: dst_ptr does not cover the arc list"
        );
        let n_out = rows.map_or(n, <[usize]>::len);
        let visited = match rows {
            None => arcs.src.len(),
            Some(nodes) => nodes
                .iter()
                .map(|&v| arcs.dst_ptr[v + 1] - arcs.dst_ptr[v])
                .sum(),
        };
        let threads = ctx.workers(visited.saturating_mul(width));

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

        // A kept pass writes each row's weights to its arcs' slots; any
        // other pass has none to write.
        let mut alpha = vec![E::ZERO; if keep { arcs.src.len() } else { 0 }];
        let alpha_at = |r: usize| if keep { arcs.dst_ptr[r] } else { 0 };
        let mut out = MatrixT::zeros(n_out, width);
        for_each_row_chunk_with(
            out.as_mut_slice(),
            n_out,
            width,
            &mut alpha,
            alpha_at,
            threads,
            |r0, r1, chunk, alpha| {
                let mut weights = Vec::new();
                let at = alpha_at(r0);
                for i in r0..r1 {
                    let v = rows.map_or(i, |nodes| nodes[i]);
                    let out_row = &mut chunk[(i - r0) * width..(i - r0 + 1) * width];
                    let sum = match &scores {
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
                    };
                    let kept = &mut alpha[alpha_at(v) - at..alpha_at(v + 1) - at];
                    for (a, &w) in kept.iter_mut().zip(weights.iter()) {
                        *a = w / sum;
                    }
                }
            },
        );
        let kept = keep.then(|| Kept {
            scores: scores.expect("a kept pass covers every row"),
            alpha,
        });
        (out, kept)
    }

    /// A node's two score halves `(z_v·a_src, z_v·a_dst)`, each
    /// accumulated in index order over the non-zero entries of `z_v`:
    /// what the exact `n×1` [`MatrixT::matmul`] accumulates for one output
    /// element. A partial sum is never `-0`, so adding `+0` in place of a
    /// skipped product is the identity, and the two chains advance
    /// together without a branch.
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

    /// One destination row: logits and their max, exponentials (left in
    /// `weights`) and their sum (returned, clamped away from 0), then the
    /// normalised weighted sum of source rows on top of the bias — every
    /// loop in arc order.
    fn row(
        &self,
        z: &MatrixT<E>,
        v: usize,
        s_dst: E,
        s_src: impl Fn(usize) -> E,
        weights: &mut Vec<E>,
        out_row: &mut [E],
    ) -> E {
        out_row.copy_from_slice(self.bias);
        let sources = self.arcs.sources(v);
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
        sum
    }
}

impl Tensor {
    /// Single-head GAT attention over `arcs` for the projection `z`
    /// (`n × d`), with attention halves `a_src`, `a_dst` (`d × 1`), a
    /// `1 × d` output bias and LeakyReLU `slope`: the
    /// [`SegmentAttention`] pass as one tape node. Recording, the pass
    /// keeps its per-arc weights and score halves for the adjoint; under
    /// [`crate::no_grad`] it keeps nothing.
    pub fn segment_attention(
        z: &Tensor,
        a_src: &Tensor,
        a_dst: &Tensor,
        bias: &Tensor,
        slope: f32,
        arcs: &Arc<ArcCsr>,
    ) -> Tensor {
        let parents = vec![z.clone(), a_src.clone(), a_dst.clone(), bias.clone()];
        let (a_s, a_d, b) = (a_src.value_ref(), a_dst.value_ref(), bias.value_ref());
        let att = SegmentAttention {
            arcs,
            a_src: a_s.as_slice(),
            a_dst: a_d.as_slice(),
            bias: b.as_slice(),
            slope,
        };
        let z_value = z.value_ref();
        if !Tensor::records(&parents) {
            return Tensor::constant(att.forward(&z_value, None, KernelCtx::default()));
        }
        let (value, kept) = att.forward_keep(&z_value, KernelCtx::default());
        let arcs = Arc::clone(arcs);
        Tensor::from_op(
            value,
            parents,
            Box::new(move |g, parents| attention_grads(g, parents, &arcs, &kept, slope)),
        )
    }
}

/// Arcs whose `dα` dots [`arc_dots`] runs at once: four independent
/// chains instead of one waiting on each add.
const ARC_CHAINS: usize = 4;

/// The adjoint of [`Tensor::segment_attention`] into `[z, a_src, a_dst,
/// bias]`: the multi-pass formulation's backward — two `n×1` products,
/// three row gathers, an add, a LeakyReLU, a segment softmax and a
/// weighted scatter-add, each differentiated on its own — with each step's
/// arithmetic in the order that formulation's tape runs it, and without
/// its `E × d` gathered rows.
fn attention_grads(g: &Matrix, parents: &[Tensor], arcs: &ArcCsr, kept: &Kept<f32>, slope: f32) {
    let [z, a_src, a_dst, bias] = parents else {
        unreachable!("segment attention has four parents")
    };
    if bias.needs_grad() {
        bias.accum_grad_owned(g.sum_rows());
    }
    if !(z.needs_grad() || a_src.needs_grad() || a_dst.needs_grad()) {
        return;
    }
    let z_value = z.value_ref();
    let (n, d) = z_value.shape();
    let Kept { scores, alpha } = kept;

    // dα, then per destination the softmax adjoint (a dot from +0 in arc
    // order) and LeakyReLU's select on the logit; meanwhile dz's
    // scatter-add of α·g, every arc in list order — α = 0 arcs included,
    // which add ±0.
    let mut d_arc = arc_dots(g, &z_value, arcs);
    let mut dz = z.needs_grad().then(|| Matrix::zeros(n, d));
    for v in 0..n {
        let span = arcs.dst_ptr[v]..arcs.dst_ptr[v + 1];
        let mut dot = 0.0f32;
        for e in span.clone() {
            dot += d_arc[e] * alpha[e];
        }
        for e in span {
            let u = arcs.src[e];
            if let Some(dz) = &mut dz {
                for (o, &gv) in dz.row_mut(u).iter_mut().zip(g.row(v)) {
                    *o += alpha[e] * gv;
                }
            }
            let d_soft = alpha[e] * (d_arc[e] - dot);
            let logit = scores[2 * u] + scores[2 * v + 1];
            d_arc[e] = if logit > 0.0 { d_soft } else { slope * d_soft };
        }
    }

    // The logit adjoints gathered back onto the score halves, each from
    // +0 in arc order; then the two `z·a` products' adjoints, the
    // destination half's first.
    let mut ds_dst = Matrix::zeros(n, 1);
    let mut ds_src = Matrix::zeros(n, 1);
    for (v, &de) in arcs.destinations().zip(&d_arc) {
        ds_dst.as_mut_slice()[v] += de;
    }
    for (&u, &de) in arcs.src.iter().zip(&d_arc) {
        ds_src.as_mut_slice()[u] += de;
    }
    if let Some(mut dz) = dz {
        dz.add_assign(&ds_dst.matmul_tb(&a_dst.value_ref()));
        dz.add_assign(&ds_src.matmul_tb(&a_src.value_ref()));
        z.accum_grad_owned(dz);
    }
    if a_dst.needs_grad() {
        a_dst.accum_grad_owned(z_value.matmul_ta(&ds_dst));
    }
    if a_src.needs_grad() {
        a_src.accum_grad_owned(z_value.matmul_ta(&ds_src));
    }
}

/// `dα[e] = ⟨g[dst e], z[src e]⟩` for every arc, each from `+0` in
/// column order, [`ARC_CHAINS`] arcs at a time.
fn arc_dots(g: &Matrix, z: &Matrix, arcs: &ArcCsr) -> Vec<f32> {
    let (m, d) = (arcs.src.len(), z.cols());
    let mut dots = vec![0.0f32; m];
    let mut dst = arcs.destinations();
    let mut e = 0;
    while e + ARC_CHAINS <= m {
        let grows: [&[f32]; ARC_CHAINS] =
            std::array::from_fn(|_| &g.row(dst.next().expect("one per arc"))[..d]);
        let zrows: [&[f32]; ARC_CHAINS] = std::array::from_fn(|i| &z.row(arcs.src[e + i])[..d]);
        let mut acc = [0.0f32; ARC_CHAINS];
        for j in 0..d {
            for ((s, grow), zrow) in acc.iter_mut().zip(&grows).zip(&zrows) {
                *s += grow[j] * zrow[j];
            }
        }
        dots[e..e + ARC_CHAINS].copy_from_slice(&acc);
        e += ARC_CHAINS;
    }
    for ((dot, &u), v) in dots[e..].iter_mut().zip(&arcs.src[e..]).zip(dst) {
        for (&gv, &zv) in g.row(v).iter().zip(z.row(u)) {
            *dot += gv * zv;
        }
    }
    dots
}
