//! # cgnp-nn
//!
//! Graph neural network layers on top of the `cgnp-tensor` autodiff engine:
//! GCN, single-head GAT, and GraphSAGE layers (the three encoder families
//! the paper ablates in Table IV), an MLP, a configurable K-layer
//! [`GnnEncoder`], and the [`Module`] parameter-registry trait that the
//! meta-learning algorithms use to snapshot and restore weights.
//!
//! ## Example
//!
//! ```
//! use cgnp_graph::Graph;
//! use cgnp_nn::{ForwardCtx, GnnConfig, GnnEncoder, GraphContext, Module};
//! use cgnp_tensor::{Matrix, Tensor};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
//! let gctx = GraphContext::new(&g);
//! let mut rng = StdRng::seed_from_u64(7);
//! let enc = GnnEncoder::new(&GnnConfig::paper_default(8, 16, 4), &mut rng);
//! let x = Tensor::constant(Matrix::zeros(4, 8));
//! let h = enc.forward(&gctx, &x, &mut ForwardCtx::eval(&mut rng));
//! assert_eq!(h.shape(), (4, 4));
//! assert!(enc.param_count() > 0);
//! ```

#![forbid(unsafe_code)]

pub mod encoder;
pub mod gat;
pub mod gcn;
pub mod graph_ctx;
pub mod linear;
pub mod mlp;
pub mod module;
pub mod sage;

pub use encoder::{AnyGnnLayer, GnnConfig, GnnEncoder, GnnKind};
pub use gat::GatLayer;
pub use gcn::GcnLayer;
pub use graph_ctx::{gcn_normalised, mean_aggregator, GraphContext};
pub use linear::Linear;
pub use mlp::Mlp;
pub use module::{Activation, ForwardCtx, Module};
pub use sage::SageLayer;

#[cfg(test)]
mod proptests {
    use super::*;
    use cgnp_graph::Graph;
    use cgnp_tensor::{Matrix, Tensor};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Random connected-ish graph + random features + a permutation.
    fn arb_case() -> impl Strategy<Value = (Graph, Matrix, Vec<usize>)> {
        (4..12usize).prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n, 0..n), n..3 * n);
            let feats = proptest::collection::vec(-1.0f32..1.0, n * 3);
            let perm = Just(()).prop_perturb(move |_, mut rng| {
                let mut p: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    let j = (rng.next_u32() as usize) % (i + 1);
                    p.swap(i, j);
                }
                p
            });
            (edges, feats, perm).prop_map(move |(edges, feats, perm)| {
                (
                    Graph::from_edges(n, &edges),
                    Matrix::from_vec(n, 3, feats),
                    perm,
                )
            })
        })
    }

    /// Applies a node relabelling to graph + features.
    fn permute(g: &Graph, x: &Matrix, perm: &[usize]) -> (Graph, Matrix) {
        let edges: Vec<(usize, usize)> = g.edges().map(|(u, v)| (perm[u], perm[v])).collect();
        let pg = Graph::from_edges(g.n(), &edges);
        let mut px = Matrix::zeros(x.rows(), x.cols());
        for (v, &pv) in perm.iter().enumerate() {
            px.row_mut(pv).copy_from_slice(x.row(v));
        }
        (pg, px)
    }

    fn equivariant(kind: GnnKind, g: &Graph, x: &Matrix, perm: &[usize]) -> bool {
        let layer = AnyGnnLayer::new(kind, 3, 4, &mut StdRng::seed_from_u64(7));
        let y = cgnp_tensor::no_grad(|| {
            layer
                .forward(&GraphContext::new(g), &Tensor::constant(x.clone()))
                .value()
        });
        let (pg, px) = permute(g, x, perm);
        let py = cgnp_tensor::no_grad(|| {
            layer
                .forward(&GraphContext::new(&pg), &Tensor::constant(px))
                .value()
        });
        (0..g.n()).all(|v| {
            y.row(v)
                .iter()
                .zip(py.row(perm[v]))
                .all(|(&a, &b)| (a - b).abs() < 5e-4)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn gcn_is_permutation_equivariant((g, x, perm) in arb_case()) {
            prop_assert!(equivariant(GnnKind::Gcn, &g, &x, &perm));
        }

        #[test]
        fn sage_is_permutation_equivariant((g, x, perm) in arb_case()) {
            prop_assert!(equivariant(GnnKind::Sage, &g, &x, &perm));
        }

        #[test]
        fn gat_is_permutation_equivariant((g, x, perm) in arb_case()) {
            prop_assert!(equivariant(GnnKind::Gat, &g, &x, &perm));
        }
    }
}
