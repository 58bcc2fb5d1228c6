//! The decoder ρθ (§VI): transforms the combined context `H` and scores
//! every node against the target query node by inner product (Eq. 17).

use std::sync::Arc;

use cgnp_tensor::{Matrix, Tensor};

use cgnp_nn::{Activation, Backend, ForwardCtx, GnnConfig, GnnEncoder, Mlp, Module, ParamSource};

use crate::config::DecoderKind;

/// Decoder variants. All end in the inner-product scoring of Eq. 17;
/// MLP/GNN first transform the context (the GNN additionally lets messages
/// pass between nodes).
pub enum Decoder<P = Tensor> {
    InnerProduct,
    Mlp(Mlp<P>),
    Gnn(GnnEncoder<P>),
}

impl Decoder {
    /// The dropout masks [`Decoder::transform`] applies to an `n_rows`-row
    /// context (none for the inner-product decoder).
    pub fn draw_masks(&self, n_rows: usize, fctx: &mut ForwardCtx<'_>) -> Vec<Arc<Matrix>> {
        match self {
            Self::InnerProduct => Vec::new(),
            Self::Mlp(mlp) => mlp.draw_masks(n_rows, fctx),
            Self::Gnn(gnn) => gnn.draw_masks(n_rows, fctx),
        }
    }

    /// Inner-product logits of every node against query `q` (Eq. 17,
    /// pre-sigmoid): `⟨H[q], H⟩ ∈ R^{n×1}`.
    pub fn score(transformed: &Tensor, q: usize) -> Tensor {
        let query_row = transformed.gather_rows(&[q]); // 1×d
        transformed.matmul_tb(&query_row) // n×1
    }

    /// Multi-query extension: logits against the centroid of several query
    /// nodes' embeddings, `⟨mean_q H[q], H⟩`. The paper's CGNP is
    /// single-query; this matches the query-set interface of the classical
    /// algorithms (CTC/ATC) so the library supports both.
    pub fn score_multi(transformed: &Tensor, queries: &[usize]) -> Tensor {
        assert!(!queries.is_empty(), "need at least one query node");
        let centroid = transformed.gather_rows(queries).mean_rows(); // 1×d
        transformed.matmul_tb(&centroid)
    }
}

impl<P> Decoder<P> {
    /// Builds the decoder for a context of width `dim`.
    pub fn new(
        kind: DecoderKind,
        dim: usize,
        mlp_hidden: usize,
        encoder_template: &GnnConfig,
        init: &mut impl ParamSource<P>,
    ) -> Self {
        match kind {
            DecoderKind::InnerProduct => Self::InnerProduct,
            DecoderKind::Mlp => Self::Mlp(Mlp::new(
                &[dim, mlp_hidden, dim],
                Activation::Relu,
                encoder_template.dropout,
                init,
            )),
            DecoderKind::Gnn => {
                // "a two-layer GNN which has the same configuration as the
                // encoder" (§VII-A), operating context → context.
                let cfg = GnnConfig {
                    in_dim: dim,
                    hidden_dim: dim,
                    out_dim: dim,
                    n_layers: 2,
                    ..encoder_template.clone()
                };
                Self::Gnn(GnnEncoder::new(&cfg, init))
            }
        }
    }

    pub fn kind(&self) -> DecoderKind {
        match self {
            Self::InnerProduct => DecoderKind::InnerProduct,
            Self::Mlp(_) => DecoderKind::Mlp,
            Self::Gnn(_) => DecoderKind::Gnn,
        }
    }

    /// Transforms the context matrix (identity for the inner-product
    /// decoder) under masks from [`Decoder::draw_masks`] (an empty slice:
    /// no dropout).
    pub fn transform<B: Backend<Value = P>>(&self, b: &B, context: P, masks: &[Arc<Matrix>]) -> P {
        match self {
            Self::InnerProduct => context,
            Self::Mlp(mlp) => mlp.forward(b, context, masks),
            Self::Gnn(gnn) => gnn.forward_from(b, context, 0, masks),
        }
    }
}

impl Module for Decoder {
    fn params(&self) -> Vec<Tensor> {
        match self {
            Self::InnerProduct => Vec::new(),
            Self::Mlp(m) => m.params(),
            Self::Gnn(g) => g.params(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgnp_graph::Graph;
    use cgnp_nn::GraphContext;
    use cgnp_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (GraphContext, Tensor, GnnConfig) {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let gctx = GraphContext::new(&g);
        let ctx_matrix = Tensor::constant(Matrix::from_vec(
            4,
            2,
            vec![1.0, 0.0, 0.9, 0.1, -1.0, 0.2, 0.0, 1.0],
        ));
        let template = GnnConfig::paper_default(2, 4, 2);
        (gctx, ctx_matrix, template)
    }

    #[test]
    fn inner_product_scores_favor_aligned_nodes() {
        let (_, h, _) = setup();
        let logits = Decoder::score(&h, 0).value();
        assert_eq!(logits.shape(), (4, 1));
        // Node 1 is nearly parallel to node 0; node 2 anti-parallel.
        assert!(logits.get(1, 0) > logits.get(2, 0));
        assert!(
            logits.get(0, 0) >= logits.get(1, 0),
            "self-similarity maximal here"
        );
    }

    #[test]
    fn all_kinds_preserve_shape() {
        let (gctx, h, template) = setup();
        for kind in [
            DecoderKind::InnerProduct,
            DecoderKind::Mlp,
            DecoderKind::Gnn,
        ] {
            let mut rng = StdRng::seed_from_u64(0);
            let dec = Decoder::new(kind, 2, 8, &template, &mut rng);
            assert_eq!(dec.kind(), kind);
            let masks = dec.draw_masks(h.rows(), &mut ForwardCtx::eval(&mut rng));
            let out = dec.transform(&gctx, h.clone(), &masks);
            assert_eq!(out.shape(), (4, 2), "{kind:?}");
            let logits = Decoder::score(&out, 1);
            assert_eq!(logits.shape(), (4, 1));
        }
    }

    #[test]
    fn inner_product_has_no_params() {
        let (_, _, template) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            Decoder::new(DecoderKind::InnerProduct, 2, 8, &template, &mut rng).param_count(),
            0
        );
        assert!(Decoder::new(DecoderKind::Mlp, 2, 8, &template, &mut rng).param_count() > 0);
        assert!(Decoder::new(DecoderKind::Gnn, 2, 8, &template, &mut rng).param_count() > 0);
    }

    #[test]
    fn mlp_decoder_uses_hidden_width() {
        let (_, _, template) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let dec = Decoder::new(DecoderKind::Mlp, 2, 16, &template, &mut rng);
        // 2×16 + 16 + 16×2 + 2 parameters.
        assert_eq!(dec.param_count(), 2 * 16 + 16 + 16 * 2 + 2);
    }
}
