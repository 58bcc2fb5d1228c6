//! Precomputed per-graph operators consumed by the GNN layers.
//!
//! Each CS task re-runs the encoder once per support query (Fig. 2), so the
//! normalised adjacencies and the directed arc index are built once per
//! graph and shared across all forward passes (and, since the operators are behind `Arc`, across meta-test worker threads) via cheap reference-counted clones.

use std::sync::Arc;

use cgnp_graph::Graph;
use cgnp_tensor::{CsrMatrix, SparseOperator};

/// Message-passing operators derived from one graph.
#[derive(Clone)]
pub struct GraphContext {
    n: usize,
    /// Symmetric GCN operator `D̃^{-1/2} (A + I) D̃^{-1/2}`.
    gcn_adj: Arc<SparseOperator>,
    /// Row-normalised mean aggregator `D^{-1} A` (zero rows for isolates).
    mean_adj: Arc<SparseOperator>,
    /// Arc sources including self-loops (GAT edge index).
    arc_src: Arc<Vec<usize>>,
    /// Arc destinations including self-loops, aligned with `arc_src`.
    arc_dst: Arc<Vec<usize>>,
}

impl GraphContext {
    pub fn new(g: &Graph) -> Self {
        Self::at_epoch(g, 0)
    }

    /// Build from scratch, tagging both operators with `epoch`.
    pub fn at_epoch(g: &Graph, epoch: u64) -> Self {
        let (src, dst) = g.directed_arcs(true);
        Self {
            n: g.n(),
            gcn_adj: Arc::new(SparseOperator::at_epoch(gcn_normalised(g), epoch)),
            mean_adj: Arc::new(SparseOperator::at_epoch(mean_aggregator(g), epoch)),
            arc_src: Arc::new(src),
            arc_dst: Arc::new(dst),
        }
    }

    /// Epoch of the graph these operators were built from.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.gcn_adj.epoch()
    }

    /// Incrementally rebuild the operators after a mutation batch.
    ///
    /// `adj_changed` lists the nodes whose adjacency list (or mere
    /// existence) changed since this context was built; `g` is the graph
    /// *after* the mutations. Only the GCN rows of `adj_changed` and their
    /// current neighbours, and the mean rows of `adj_changed`, are
    /// recomputed — every untouched row is copied bitwise, so the result is
    /// bitwise-identical to `GraphContext::at_epoch(g, epoch)`.
    pub fn refreshed(&self, g: &Graph, adj_changed: &[usize], epoch: u64) -> Self {
        let n = g.n();
        let inv_sqrt: Vec<f32> = (0..n)
            .map(|v| 1.0 / ((g.degree(v) + 1) as f32).sqrt())
            .collect();

        // GCN rows to rewrite: a changed node's own row plus every current
        // neighbour's row (their (w, v) entry carries v's inv_sqrt).
        let mut gcn_rows: std::collections::HashSet<usize> = std::collections::HashSet::new();
        for &v in adj_changed {
            gcn_rows.insert(v);
            for &u in g.neighbors(v) {
                gcn_rows.insert(u as usize);
            }
        }
        let gcn_updates: std::collections::HashMap<usize, Vec<(usize, f32)>> = gcn_rows
            .into_iter()
            .map(|v| (v, gcn_row(g, &inv_sqrt, v)))
            .collect();
        let mean_updates: std::collections::HashMap<usize, Vec<(usize, f32)>> =
            adj_changed.iter().map(|&v| (v, mean_row(g, v))).collect();

        let gcn = self.gcn_adj.forward().with_updated_rows(n, n, &gcn_updates);
        let mean = self
            .mean_adj
            .forward()
            .with_updated_rows(n, n, &mean_updates);
        let (src, dst) = g.directed_arcs(true);
        Self {
            n,
            gcn_adj: Arc::new(SparseOperator::at_epoch(gcn, epoch)),
            mean_adj: Arc::new(SparseOperator::at_epoch(mean, epoch)),
            arc_src: Arc::new(src),
            arc_dst: Arc::new(dst),
        }
    }

    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn gcn_adj(&self) -> &Arc<SparseOperator> {
        &self.gcn_adj
    }

    #[inline]
    pub fn mean_adj(&self) -> &Arc<SparseOperator> {
        &self.mean_adj
    }

    /// `(src, dst)` arcs with self-loops, for attention layers.
    ///
    /// The order is [`Graph::directed_arcs`]`(true)`'s and is part of the
    /// contract: arcs are grouped by ascending destination — for each `v`
    /// in `0..n`, one arc from every neighbour in `neighbors(v)` order,
    /// then the self-loop `v → v` — so the list is a CSR over
    /// destinations, which [`crate::PlainGraph`] indexes it as; and `u → v`
    /// is listed exactly when `v → u` is. [`Self::refreshed`] rebuilds
    /// the list, so it holds after every mutation batch.
    #[inline]
    pub fn arcs(&self) -> (&[usize], &[usize]) {
        (&self.arc_src, &self.arc_dst)
    }
}

/// `D̃^{-1/2} (A + I) D̃^{-1/2}` where `D̃` counts the self-loop.
pub fn gcn_normalised(g: &Graph) -> CsrMatrix {
    let n = g.n();
    let inv_sqrt: Vec<f32> = (0..n)
        .map(|v| 1.0 / ((g.degree(v) + 1) as f32).sqrt())
        .collect();
    let mut triplets = Vec::with_capacity(2 * g.m() + n);
    for v in 0..n {
        triplets.push((v, v, inv_sqrt[v] * inv_sqrt[v]));
        for &u in g.neighbors(v) {
            let u = u as usize;
            triplets.push((v, u, inv_sqrt[v] * inv_sqrt[u]));
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets)
}

/// One row of the GCN operator, sorted by column — the same entries (and
/// the same float expressions) `gcn_normalised` would produce for row `v`.
fn gcn_row(g: &Graph, inv_sqrt: &[f32], v: usize) -> Vec<(usize, f32)> {
    let mut row = Vec::with_capacity(g.degree(v) + 1);
    row.push((v, inv_sqrt[v] * inv_sqrt[v]));
    for &u in g.neighbors(v) {
        let u = u as usize;
        row.push((u, inv_sqrt[v] * inv_sqrt[u]));
    }
    row.sort_unstable_by_key(|&(c, _)| c);
    row
}

/// One row of the mean aggregator, sorted by column.
fn mean_row(g: &Graph, v: usize) -> Vec<(usize, f32)> {
    let d = g.degree(v);
    if d == 0 {
        return Vec::new();
    }
    let w = 1.0 / d as f32;
    g.neighbors(v).iter().map(|&u| (u as usize, w)).collect()
}

/// `D^{-1} A`: the mean-of-neighbours aggregator (GraphSAGE). Isolated
/// nodes aggregate to zero.
pub fn mean_aggregator(g: &Graph) -> CsrMatrix {
    let n = g.n();
    let mut triplets = Vec::with_capacity(2 * g.m());
    for v in 0..n {
        let d = g.degree(v);
        if d == 0 {
            continue;
        }
        let w = 1.0 / d as f32;
        for &u in g.neighbors(v) {
            triplets.push((v, u as usize, w));
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_with_isolate() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn gcn_operator_rows() {
        let g = triangle_with_isolate();
        let adj = gcn_normalised(&g).to_dense();
        // Triangle nodes have degree 2 ⇒ D̃ = 3 everywhere in the triangle.
        assert!((adj.get(0, 0) - 1.0 / 3.0).abs() < 1e-6);
        assert!((adj.get(0, 1) - 1.0 / 3.0).abs() < 1e-6);
        // Isolated node keeps its self-loop with weight 1.
        assert!((adj.get(3, 3) - 1.0).abs() < 1e-6);
        assert_eq!(adj.get(3, 0), 0.0);
    }

    #[test]
    fn mean_aggregator_rows_sum_to_one_or_zero() {
        let g = triangle_with_isolate();
        let adj = mean_aggregator(&g).to_dense();
        for v in 0..3 {
            let s: f32 = adj.row(v).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        let s3: f32 = adj.row(3).iter().sum();
        assert_eq!(s3, 0.0);
    }

    #[test]
    fn arcs_include_self_loops() {
        let g = triangle_with_isolate();
        let ctx = GraphContext::new(&g);
        let (src, dst) = ctx.arcs();
        assert_eq!(src.len(), 2 * g.m() + g.n());
        // Every node has at least its self-loop arc.
        for v in 0..g.n() {
            assert!(src.iter().zip(dst.iter()).any(|(&s, &d)| s == v && d == v));
        }
    }

    /// The documented arc order: per destination `0..n`, its neighbours
    /// in adjacency order, then its self-loop; closed under reversal.
    fn assert_arc_order(ctx: &GraphContext, g: &Graph) {
        let (src, dst) = ctx.arcs();
        let mut expect = Vec::new();
        for v in 0..g.n() {
            expect.extend(g.neighbors(v).iter().map(|&u| (u as usize, v)));
            expect.push((v, v));
        }
        let arcs: Vec<(usize, usize)> = src.iter().copied().zip(dst.iter().copied()).collect();
        assert_eq!(arcs, expect);
        assert!(dst.windows(2).all(|w| w[0] <= w[1]), "dst-major");
        let set: std::collections::HashSet<_> = arcs.iter().copied().collect();
        assert!(
            arcs.iter().all(|&(u, v)| set.contains(&(v, u))),
            "symmetric"
        );
    }

    #[test]
    fn arcs_are_grouped_by_destination_after_every_kind_of_mutation() {
        let mut g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 1)]);
        let mut ctx = GraphContext::at_epoch(&g, 0);
        assert_arc_order(&ctx, &g);

        // An edge between existing nodes (into the isolated node 4), a new
        // node wired in, and a new node left with only its self-loop.
        g.insert_edge(4, 0);
        ctx = ctx.refreshed(&g, &[4, 0], 1);
        assert_arc_order(&ctx, &g);
        let w = g.add_node();
        g.insert_edge(w, 2);
        ctx = ctx.refreshed(&g, &[w, 2], 2);
        assert_arc_order(&ctx, &g);
        let lone = g.add_node();
        ctx = ctx.refreshed(&g, &[lone], 3);
        assert_arc_order(&ctx, &g);
        let (src, dst) = ctx.arcs();
        assert_eq!((src.last(), dst.last()), (Some(&lone), Some(&lone)));
        assert_arc_order(&GraphContext::at_epoch(&g, 3), &g);
    }

    #[test]
    fn gcn_operator_is_symmetric() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        assert!(gcn_normalised(&g).is_symmetric(1e-6));
    }

    #[test]
    fn refreshed_matches_scratch_build_bitwise() {
        let mut g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4)]);
        let stale = GraphContext::new(&g);

        // Mutate: one edge between existing nodes, one touching a former
        // isolate, and a brand-new node wired in.
        let mut changed = Vec::new();
        for (u, v) in [(1, 3), (2, 5)] {
            g.insert_edge(u, v);
            changed.extend([u, v]);
        }
        let w = g.add_node();
        g.insert_edge(w, 0);
        changed.extend([w, 0]);

        let fresh = GraphContext::at_epoch(&g, 3);
        let patched = stale.refreshed(&g, &changed, 3);
        assert_eq!(patched.n(), fresh.n());
        assert_eq!(patched.epoch(), 3);
        assert_eq!(patched.gcn_adj().forward(), fresh.gcn_adj().forward());
        assert_eq!(patched.gcn_adj().transposed(), fresh.gcn_adj().transposed());
        assert_eq!(patched.mean_adj().forward(), fresh.mean_adj().forward());
        assert_eq!(patched.arcs().0, fresh.arcs().0);
        assert_eq!(patched.arcs().1, fresh.arcs().1);
    }
}
