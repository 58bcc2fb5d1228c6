//! Distance utilities: eccentricity, diameter, and the "query distance"
//! used by the CTC and ATC baselines (max distance from a node to any query
//! node).

use super::bfs::bfs_distances;
use crate::graph::Graph;

/// Eccentricity of `v` within its connected component (max finite BFS
/// distance).
pub fn eccentricity(g: &Graph, v: usize) -> usize {
    bfs_distances(g, v)
        .into_iter()
        .filter(|&d| d != usize::MAX)
        .max()
        .unwrap_or(0)
}

/// Exact diameter: the largest eccentricity over all nodes, ignoring
/// disconnected pairs. O(n·m); intended for the ≤ a-few-thousand-node task
/// graphs of this workspace.
pub fn diameter(g: &Graph) -> usize {
    (0..g.n()).map(|v| eccentricity(g, v)).max().unwrap_or(0)
}

/// Query distance of every node: `max_{q ∈ queries} dist(v, q)`, or
/// `usize::MAX` when some query is unreachable.
pub fn query_distances(g: &Graph, queries: &[usize]) -> Vec<usize> {
    let mut out = vec![0usize; g.n()];
    for &q in queries {
        let d = bfs_distances(g, q);
        for (o, dv) in out.iter_mut().zip(d) {
            *o = if dv == usize::MAX {
                usize::MAX
            } else {
                (*o).max(dv)
            };
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
    }

    #[test]
    fn path_eccentricity_and_diameter() {
        let g = path(5);
        assert_eq!(eccentricity(&g, 0), 4);
        assert_eq!(eccentricity(&g, 2), 2);
        assert_eq!(diameter(&g), 4);
    }

    #[test]
    fn diameter_ignores_disconnection() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3), (3, 4)]);
        assert_eq!(diameter(&g), 2);
    }

    #[test]
    fn query_distance_is_max_over_queries() {
        let g = path(5);
        let qd = query_distances(&g, &[0, 4]);
        assert_eq!(qd, vec![4, 3, 2, 3, 4]);
    }

    #[test]
    fn query_distance_unreachable_is_max() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let qd = query_distances(&g, &[0, 2]);
        assert!(qd.iter().all(|&d| d == usize::MAX));
    }
}
