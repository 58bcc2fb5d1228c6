//! Local clustering coefficients, used as a structural node feature by all
//! learned models (§VII-A of the paper).

use crate::graph::Graph;

/// Local clustering coefficient of every node: the fraction of realised
/// edges among each node's neighbour pairs (0 for degree < 2).
pub fn local_clustering_coefficients(g: &Graph) -> Vec<f32> {
    (0..g.n())
        .map(|v| local_clustering_coefficient(g, v))
        .collect()
}

/// Local clustering coefficient of a single node.
pub fn local_clustering_coefficient(g: &Graph, v: usize) -> f32 {
    let d = g.degree(v);
    if d < 2 {
        return 0.0;
    }
    let nbrs = g.neighbors(v);
    let mut links = 0usize;
    for (i, &u) in nbrs.iter().enumerate() {
        let nu = g.neighbors(u as usize);
        // Count neighbours of u that appear later in nbrs (each pair once).
        for &w in &nbrs[i + 1..] {
            if nu.binary_search(&w).is_ok() {
                links += 1;
            }
        }
    }
    (2 * links) as f32 / (d * (d - 1)) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_is_fully_clustered() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(local_clustering_coefficients(&g), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn path_has_zero_clustering() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(local_clustering_coefficients(&g).iter().all(|&c| c == 0.0));
    }

    #[test]
    fn half_closed_neighbourhood() {
        // Node 0 adjacent to 1,2,3; only edge (1,2) among them: 1/3 pairs.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)]);
        let c = local_clustering_coefficient(&g, 0);
        assert!((c - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn degree_below_two_is_zero() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        assert_eq!(local_clustering_coefficient(&g, 0), 0.0);
        assert_eq!(local_clustering_coefficient(&g, 2), 0.0);
    }
}
