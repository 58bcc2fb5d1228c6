//! k-truss decomposition by support peeling.
//!
//! The truss number of an edge is the largest `k` such that the edge
//! belongs to a k-truss (a subgraph where every edge closes ≥ k−2
//! triangles). Substrate of the CTC and ATC baselines.

use crate::graph::Graph;

/// Number of triangles through each edge, restricted to `alive` edges (pass
/// all-true for the full graph).
pub fn edge_support(g: &Graph, alive: &[bool]) -> Vec<usize> {
    assert_eq!(alive.len(), g.m(), "alive mask must cover all edges");
    let mut support = vec![0usize; g.m()];
    for eid in 0..g.m() {
        if !alive[eid] {
            continue;
        }
        let (u, v) = g.edge(eid);
        support[eid] = alive_triangles(g, alive, u, v).len();
    }
    support
}

/// Common alive-neighbourhood of `u` and `v`: for every triangle `(u,v,w)`
/// returns `(w, eid(u,w), eid(v,w))`. Both wing edges must be alive.
fn alive_triangles(g: &Graph, alive: &[bool], u: usize, v: usize) -> Vec<(usize, usize, usize)> {
    let (nu, eu) = (g.neighbors(u), g.edge_ids_of(u));
    let (nv, ev) = (g.neighbors(v), g.edge_ids_of(v));
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < nu.len() && j < nv.len() {
        match nu[i].cmp(&nv[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let (e1, e2) = (eu[i] as usize, ev[j] as usize);
                if alive[e1] && alive[e2] {
                    out.push((nu[i] as usize, e1, e2));
                }
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Truss number per edge (≥ 2 for every edge; an edge in no triangle has
/// truss number exactly 2).
pub fn truss_numbers(g: &Graph) -> Vec<usize> {
    let m = g.m();
    if m == 0 {
        return Vec::new();
    }
    let all_alive = vec![true; m];
    let mut support = edge_support(g, &all_alive);
    let max_sup = support.iter().copied().max().unwrap_or(0);

    // Bucket sort edges by support.
    let mut bin = vec![0usize; max_sup + 2];
    for &s in &support {
        bin[s + 1] += 1;
    }
    for i in 0..=max_sup {
        bin[i + 1] += bin[i];
    }
    let mut pos = vec![0usize; m];
    let mut sorted = vec![0usize; m];
    {
        let mut cursor = bin.clone();
        for e in 0..m {
            pos[e] = cursor[support[e]];
            sorted[pos[e]] = e;
            cursor[support[e]] += 1;
        }
    }

    let mut alive = vec![true; m];
    let mut truss = vec![2usize; m];
    for i in 0..m {
        let e = sorted[i];
        let s_e = support[e];
        truss[e] = s_e + 2;
        alive[e] = false;
        let (u, v) = g.edge(e);
        for (_, e1, e2) in alive_triangles(g, &alive, u, v) {
            for other in [e1, e2] {
                if support[other] > s_e {
                    // Move `other` one bucket down (swap to bucket head).
                    let so = support[other];
                    let po = pos[other];
                    let ph = bin[so].max(i + 1);
                    let h = sorted[ph];
                    if other != h {
                        sorted.swap(po, ph);
                        pos[other] = ph;
                        pos[h] = po;
                    }
                    bin[so] = ph + 1;
                    support[other] -= 1;
                }
            }
        }
    }
    truss
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4-clique {0,1,2,3}, triangle {3,4,5}, pendant edge 5-6.
    fn mixed_graph() -> Graph {
        Graph::from_edges(
            7,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (3, 5),
                (4, 5),
                (5, 6),
            ],
        )
    }

    #[test]
    fn support_counts_triangles() {
        let g = mixed_graph();
        let alive = vec![true; g.m()];
        let sup = edge_support(&g, &alive);
        let e01 = g.edge_between(0, 1).unwrap();
        assert_eq!(sup[e01], 2, "clique edge closes two triangles");
        let e56 = g.edge_between(5, 6).unwrap();
        assert_eq!(sup[e56], 0, "pendant edge closes none");
    }

    #[test]
    fn truss_numbers_on_mixed_graph() {
        let g = mixed_graph();
        let truss = truss_numbers(&g);
        // Clique edges form a 4-truss, triangle edges a 3-truss, pendant 2.
        assert_eq!(truss[g.edge_between(0, 1).unwrap()], 4);
        assert_eq!(truss[g.edge_between(2, 3).unwrap()], 4);
        assert_eq!(truss[g.edge_between(3, 4).unwrap()], 3);
        assert_eq!(truss[g.edge_between(4, 5).unwrap()], 3);
        assert_eq!(truss[g.edge_between(5, 6).unwrap()], 2);
    }

    #[test]
    fn truss_invariant_support_within_truss() {
        // Inside the edge set {truss ≥ k}, each edge closes ≥ k−2 triangles.
        let g = mixed_graph();
        let truss = truss_numbers(&g);
        for k in 2..=4 {
            let alive: Vec<bool> = truss.iter().map(|&t| t >= k).collect();
            let sup = edge_support(&g, &alive);
            for e in 0..g.m() {
                if alive[e] {
                    assert!(
                        sup[e] + 2 >= k,
                        "edge {e} has support {} in {k}-truss",
                        sup[e]
                    );
                }
            }
        }
    }

    #[test]
    fn triangle_free_graph_is_all_two() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(truss_numbers(&g).iter().all(|&t| t == 2));
    }

    #[test]
    fn empty_graph_no_truss() {
        let g = Graph::from_edges(3, &[]);
        assert!(truss_numbers(&g).is_empty());
    }
}
