//! # cgnp-algos
//!
//! From-scratch implementations of the classical community-search
//! algorithms the paper compares against (§VII-A ❶–❸):
//!
//! * [`ctc`] — Closest Truss Community (k-truss + query-distance greedy).
//! * [`acq`] — Attributed Community Query (k-core + maximal shared
//!   attribute set, Apriori-style verification).
//! * [`atc`] — Attributed Truss Community ((k,d)-truss + attribute-score
//!   peeling).
//!
//! All operate on [`cgnp_graph`] types and run on the ≤ few-hundred-node
//! task graphs of the evaluation, so clarity is preferred over index
//! acceleration (the original systems' indexes change run time, not
//! output).
//!
//! ## Example
//!
//! ```
//! use cgnp_graph::Graph;
//! use cgnp_algos::closest_truss_community;
//!
//! // A 4-clique with a tail: CTC of a clique member is the clique.
//! let g = Graph::from_edges(6, &[
//!     (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5),
//! ]);
//! let r = closest_truss_community(&g, &[0]);
//! assert_eq!(r.members, vec![0, 1, 2, 3]);
//! assert_eq!(r.k, 4);
//! ```

#![forbid(unsafe_code)]

pub mod acq;
pub mod atc;
pub mod ctc;
pub mod peel;

pub use acq::{acq_members, attributed_community_query, kcore_members, AcqResult};
pub use atc::{attribute_score, attributed_truss_community, AtcResult};
pub use ctc::{closest_truss_community, CtcResult};
pub use peel::{alive_component, peel_to_k_truss, queries_connected, AliveView};

#[cfg(test)]
mod proptests {
    use super::*;
    use cgnp_graph::algo::truss_numbers;
    use cgnp_graph::Graph;
    use proptest::prelude::*;

    fn arb_graph() -> impl Strategy<Value = Graph> {
        (4..24usize).prop_flat_map(|n| {
            proptest::collection::vec((0..n, 0..n), 0..80)
                .prop_map(move |edges| Graph::from_edges(n, &edges))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn ctc_output_is_valid_truss_containing_query(g in arb_graph(), q_raw in 0usize..24) {
            let q = q_raw % g.n();
            let r = closest_truss_community(&g, &[q]);
            if r.members.is_empty() { return Ok(()); }
            prop_assert!(r.members.binary_search(&q).is_ok(), "query inside community");
            prop_assert!(r.k >= 2);
            // The returned node set supports a k-truss: peel it and verify
            // the query survives.
            let mut view = AliveView::from_nodes(&g, &r.members);
            peel_to_k_truss(&g, &mut view, r.k);
            prop_assert!(view.nodes[q], "query must survive re-peeling at k={}", r.k);
        }

        #[test]
        fn ctc_k_never_exceeds_graph_max_truss(g in arb_graph(), q_raw in 0usize..24) {
            let q = q_raw % g.n();
            let r = closest_truss_community(&g, &[q]);
            if g.m() == 0 { prop_assert!(r.members.is_empty()); return Ok(()); }
            let max_truss = truss_numbers(&g).into_iter().max().unwrap_or(0);
            prop_assert!(r.k <= max_truss);
        }

        #[test]
        fn peeled_truss_is_stable(g in arb_graph(), k in 2usize..5) {
            let mut view = AliveView::full(&g);
            peel_to_k_truss(&g, &mut view, k);
            // Idempotence: peeling again changes nothing.
            let before = view.alive_nodes();
            peel_to_k_truss(&g, &mut view, k);
            prop_assert_eq!(before, view.alive_nodes());
        }
    }
}
