//! Node feature assembly (§VII-A).
//!
//! For attributed datasets (Cora, Citeseer, Facebook) the node features are
//! one-hot attribute vectors concatenated with the core number and local
//! clustering coefficient; non-attributed datasets (Arxiv, DBLP, Reddit)
//! use the two structural features alone. Every model additionally prepends
//! one indicator channel: the query identifier `I_q` for the plain GNN
//! (§IV) or the ground-truth identifier `I_l` for CGNP (Eq. 13).

use cgnp_graph::{algo, AttributedGraph};
use cgnp_tensor::{Elem, Matrix, MatrixT};

/// Width of the base feature matrix: `|A| + 2` (core number + clustering
/// coefficient).
pub fn base_feature_dim(ag: &AttributedGraph) -> usize {
    ag.n_attrs() + 2
}

/// Width of a model input: one indicator channel + base features.
pub fn model_input_dim(ag: &AttributedGraph) -> usize {
    1 + base_feature_dim(ag)
}

/// Builds the base `n × (|A| + 2)` feature matrix of a task graph.
/// Core numbers are normalised by the graph degeneracy so features stay in
/// `[0, 1]` across graphs of different density.
pub fn base_features(ag: &AttributedGraph) -> Matrix {
    base_features_with_cores(ag).0
}

/// [`base_features`] that also hands back the raw per-node core numbers
/// the core column was derived from (normalised by their maximum, the
/// graph degeneracy). Incremental refreshes cache these to detect which
/// rows of the core column a mutation actually moved.
pub fn base_features_with_cores(ag: &AttributedGraph) -> (Matrix, Vec<usize>) {
    let n = ag.n();
    let d = base_feature_dim(ag);
    let mut x = Matrix::zeros(n, d);
    let cores = algo::core_numbers(ag.graph());
    let max_core = cores.iter().copied().max().unwrap_or(1).max(1) as f32;
    let lcc = algo::local_clustering_coefficients(ag.graph());
    for v in 0..n {
        let row = x.row_mut(v);
        for &a in ag.attrs_of(v) {
            row[a as usize] = 1.0;
        }
        row[d - 2] = cores[v] as f32 / max_core;
        row[d - 1] = lcc[v];
    }
    (x, cores)
}

/// Prepends an indicator column to `base`: rows listed in `marked` get 1.
/// Used for both `I_q` (query identifier) and `I_l` (close-world
/// ground-truth identifier, Eq. 13), in the taped `f32` or any serving
/// dtype.
pub fn with_indicator<E: Elem>(base: &MatrixT<E>, marked: &[usize]) -> MatrixT<E> {
    let (n, d) = base.shape();
    let mut out = MatrixT::zeros(n, d + 1);
    for &m in marked {
        debug_assert!(m < n);
        out.set(m, 0, E::ONE);
    }
    for r in 0..n {
        out.row_mut(r)[1..].copy_from_slice(base.row(r));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgnp_graph::Graph;

    fn attributed_triangle() -> AttributedGraph {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        AttributedGraph::new(
            g,
            3,
            vec![vec![0], vec![1], vec![0, 2], vec![]],
            vec![vec![0, 1, 2]],
        )
    }

    #[test]
    fn dims_match() {
        let ag = attributed_triangle();
        assert_eq!(base_feature_dim(&ag), 5);
        assert_eq!(model_input_dim(&ag), 6);
        assert_eq!(base_features(&ag).shape(), (4, 5));
    }

    #[test]
    fn one_hot_attributes_set() {
        let ag = attributed_triangle();
        let x = base_features(&ag);
        assert_eq!(x.get(0, 0), 1.0);
        assert_eq!(x.get(0, 1), 0.0);
        assert_eq!(x.get(2, 0), 1.0);
        assert_eq!(x.get(2, 2), 1.0);
        assert_eq!(x.get(3, 0), 0.0);
    }

    #[test]
    fn structural_features_normalised() {
        let ag = attributed_triangle();
        let x = base_features(&ag);
        // Triangle nodes: core 2 (max) → 1.0; tail node: core 1 → 0.5.
        assert_eq!(x.get(0, 3), 1.0);
        assert_eq!(x.get(3, 3), 0.5);
        // Clustering: nodes 0,1 fully clustered; node 3 has degree 1.
        assert_eq!(x.get(0, 4), 1.0);
        assert_eq!(x.get(3, 4), 0.0);
        // Node 2 has 3 neighbours, 1 closed pair.
        assert!((x.get(2, 4) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn non_attributed_graph_uses_two_dims() {
        let ag = AttributedGraph::plain(Graph::from_edges(3, &[(0, 1), (1, 2)]));
        assert_eq!(base_feature_dim(&ag), 2);
        let x = base_features(&ag);
        assert_eq!(x.shape(), (3, 2));
    }

    #[test]
    fn indicator_prepends_column() {
        let ag = attributed_triangle();
        let base = base_features(&ag);
        let x = with_indicator(&base, &[1, 3]);
        assert_eq!(x.shape(), (4, 6));
        assert_eq!(x.get(0, 0), 0.0);
        assert_eq!(x.get(1, 0), 1.0);
        assert_eq!(x.get(3, 0), 1.0);
        // Base features shifted right intact.
        assert_eq!(x.get(2, 1), base.get(2, 0));
        assert_eq!(x.get(2, 5), base.get(2, 4));
    }
}
