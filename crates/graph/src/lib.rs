//! # cgnp-graph
//!
//! Graph substrate for the CGNP reproduction: an immutable CSR graph type
//! with stable undirected edge ids, attributed graphs carrying ground-truth
//! communities, and the classical algorithms the paper's pipeline depends
//! on — BFS sampling (task construction), connected components, k-core and
//! k-truss decompositions (structural features + the ACQ/ATC/CTC
//! baselines), local clustering coefficients, and distance utilities.
//!
//! ## Example
//!
//! ```
//! use cgnp_graph::{Graph, algo};
//!
//! // A 4-clique with a pendant path.
//! let g = Graph::from_edges(6, &[
//!     (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5),
//! ]);
//! let cores = algo::core_numbers(&g);
//! assert_eq!(cores[0], 3); // clique member
//! assert_eq!(cores[5], 1); // path end
//! assert_eq!(algo::k_core_community(&g, 0, 3), vec![0, 1, 2, 3]);
//! ```

#![forbid(unsafe_code)]

pub mod algo;
pub mod attributed;
pub mod graph;

pub use attributed::{AttributedGraph, GraphMutation};
pub use graph::{Graph, GraphBuilder};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
        (2..max_n).prop_flat_map(move |n| {
            proptest::collection::vec((0..n, 0..n), 0..max_m)
                .prop_map(move |edges| Graph::from_edges(n, &edges))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn degree_sum_is_twice_edges(g in arb_graph(40, 120)) {
            prop_assert_eq!(g.degree_sum(), 2 * g.m());
        }

        #[test]
        fn neighbor_lists_sorted_and_symmetric(g in arb_graph(40, 120)) {
            for v in 0..g.n() {
                let nbrs = g.neighbors(v);
                prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
                for &u in nbrs {
                    prop_assert!(g.neighbors(u as usize).contains(&(v as u32)));
                }
            }
        }

        #[test]
        fn core_numbers_invariant(g in arb_graph(30, 90)) {
            // Each node of the k-core has ≥ k neighbours within the k-core.
            let core = algo::core_numbers(&g);
            let k_max = core.iter().copied().max().unwrap_or(0);
            for k in 1..=k_max {
                let mask: Vec<bool> = core.iter().map(|&c| c >= k).collect();
                for v in 0..g.n() {
                    if mask[v] {
                        let inside = g.neighbors(v).iter()
                            .filter(|&&u| mask[u as usize]).count();
                        prop_assert!(inside >= k);
                    }
                }
            }
        }

        #[test]
        fn truss_numbers_invariant(g in arb_graph(20, 60)) {
            let truss = algo::truss_numbers(&g);
            let k_max = truss.iter().copied().max().unwrap_or(2);
            for k in 2..=k_max {
                let alive: Vec<bool> = truss.iter().map(|&t| t >= k).collect();
                let sup = algo::edge_support(&g, &alive);
                for e in 0..g.m() {
                    if alive[e] {
                        prop_assert!(sup[e] + 2 >= k);
                    }
                }
            }
        }

        #[test]
        fn components_partition_nodes(g in arb_graph(40, 80)) {
            let labels = algo::connected_components(&g);
            prop_assert_eq!(labels.len(), g.n());
            // Adjacent nodes share a label.
            for (u, v) in g.edges() {
                prop_assert_eq!(labels[u], labels[v]);
            }
            // Labels are dense 0..k.
            let k = algo::component_count(&g);
            prop_assert!(labels.iter().all(|&l| l < k));
        }

        #[test]
        fn bfs_distance_lipschitz_on_edges(g in arb_graph(30, 80)) {
            if g.n() == 0 { return Ok(()); }
            let d = algo::bfs_distances(&g, 0);
            for (u, v) in g.edges() {
                if d[u] != usize::MAX && d[v] != usize::MAX {
                    prop_assert!(d[u].abs_diff(d[v]) <= 1);
                }
            }
        }

        #[test]
        fn clustering_in_unit_interval(g in arb_graph(30, 90)) {
            for c in algo::local_clustering_coefficients(&g) {
                prop_assert!((0.0..=1.0).contains(&c));
            }
        }

        #[test]
        fn induced_subgraph_degree_bounds(g in arb_graph(30, 90)) {
            let take: Vec<usize> = (0..g.n()).step_by(2).collect();
            let (sub, back) = g.induced_subgraph(&take);
            prop_assert_eq!(sub.n(), take.len());
            for (ni, &old) in back.iter().enumerate() {
                prop_assert!(sub.degree(ni) <= g.degree(old));
            }
        }
    }
}
