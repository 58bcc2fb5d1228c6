//! Connected components via iterative depth-first search.

use crate::graph::Graph;

/// Component label per node (labels are dense, `0..k` in discovery order).
pub fn connected_components(g: &Graph) -> Vec<usize> {
    let mut label = vec![usize::MAX; g.n()];
    let mut next = 0usize;
    let mut stack = Vec::new();
    for s in 0..g.n() {
        if label[s] != usize::MAX {
            continue;
        }
        label[s] = next;
        stack.push(s);
        while let Some(v) = stack.pop() {
            for &u in g.neighbors(v) {
                let u = u as usize;
                if label[u] == usize::MAX {
                    label[u] = next;
                    stack.push(u);
                }
            }
        }
        next += 1;
    }
    label
}

/// Number of connected components.
pub fn component_count(g: &Graph) -> usize {
    if g.n() == 0 {
        return 0;
    }
    connected_components(g).iter().copied().max().unwrap() + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_components() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let labels = connected_components(&g);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_eq!(component_count(&g), 2);
    }

    #[test]
    fn isolated_nodes_are_components() {
        let g = Graph::from_edges(3, &[]);
        assert_eq!(component_count(&g), 3);
    }
}
