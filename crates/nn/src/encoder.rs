//! K-layer GNN stack: the encoder ϕθ of CGNP (Fig. 2) and the base model of
//! every learned baseline in §IV.

use std::sync::Arc;

use cgnp_tensor::{Matrix, Tensor};

use crate::backend::{between_layers, Backend};
use crate::gat::GatLayer;
use crate::gcn::GcnLayer;
use crate::graph_ctx::GraphContext;
use crate::module::{Activation, ForwardCtx, Module, ParamSource};
use crate::sage::SageLayer;

/// Message-passing layer family (the paper ablates these in Table IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GnnKind {
    Gcn,
    /// The paper's default.
    Gat,
    Sage,
}

impl std::fmt::Display for GnnKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GnnKind::Gcn => write!(f, "GCN"),
            GnnKind::Gat => write!(f, "GAT"),
            GnnKind::Sage => write!(f, "SAGE"),
        }
    }
}

/// A layer of any supported family.
pub enum AnyGnnLayer<P = Tensor> {
    Gcn(GcnLayer<P>),
    Gat(GatLayer<P>),
    Sage(SageLayer<P>),
}

impl<P> AnyGnnLayer<P> {
    pub fn new(
        kind: GnnKind,
        in_dim: usize,
        out_dim: usize,
        init: &mut impl ParamSource<P>,
    ) -> Self {
        match kind {
            GnnKind::Gcn => Self::Gcn(GcnLayer::new(in_dim, out_dim, init)),
            GnnKind::Gat => Self::Gat(GatLayer::new(in_dim, out_dim, init)),
            GnnKind::Sage => Self::Sage(SageLayer::new(in_dim, out_dim, init)),
        }
    }

    pub fn forward<B: Backend<Value = P>>(&self, b: &B, x: &P) -> P {
        match self {
            Self::Gcn(l) => l.forward(b, x),
            Self::Gat(l) => l.forward(b, x),
            Self::Sage(l) => l.forward(b, x),
        }
    }
}

impl Module for AnyGnnLayer {
    fn params(&self) -> Vec<Tensor> {
        match self {
            Self::Gcn(l) => l.params(),
            Self::Gat(l) => l.params(),
            Self::Sage(l) => l.params(),
        }
    }
}

/// Architecture of a [`GnnEncoder`].
#[derive(Clone, Debug)]
pub struct GnnConfig {
    pub kind: GnnKind,
    pub in_dim: usize,
    pub hidden_dim: usize,
    pub out_dim: usize,
    pub n_layers: usize,
    pub dropout: f32,
    pub activation: Activation,
}

impl GnnConfig {
    /// The paper's encoder defaults (§VII-A): 3 GAT layers, dropout 0.2,
    /// ELU between layers. Hidden width is a parameter because the
    /// experiment scale controls it (paper: 128).
    pub fn paper_default(in_dim: usize, hidden_dim: usize, out_dim: usize) -> Self {
        Self {
            kind: GnnKind::Gat,
            in_dim,
            hidden_dim,
            out_dim,
            n_layers: 3,
            dropout: 0.2,
            activation: Activation::Elu,
        }
    }
}

/// A K-layer GNN with activation + dropout between layers (none after the
/// last layer: its output is either an embedding or a logit).
pub struct GnnEncoder<P = Tensor> {
    layers: Vec<AnyGnnLayer<P>>,
    config: GnnConfig,
}

impl GnnEncoder {
    pub fn forward(&self, gctx: &GraphContext, x: &Tensor, ctx: &mut ForwardCtx<'_>) -> Tensor {
        let masks = self.draw_masks(x.rows(), ctx);
        self.forward_from(gctx, x.clone(), 0, &masks)
    }

    /// The dropout masks one [`GnnEncoder::forward`] over `n_rows` nodes
    /// draws, in the order it draws them: one `n_rows × hidden_dim` mask
    /// per layer but the last; none in eval mode or at `dropout = 0`.
    /// Layers never touch the RNG, so drawing every mask first leaves the
    /// stream exactly where the interleaved pass would — which lets a
    /// caller draw the masks of several passes in order on one thread and
    /// run the passes themselves elsewhere.
    pub fn draw_masks(&self, n_rows: usize, ctx: &mut ForwardCtx<'_>) -> Vec<Arc<Matrix>> {
        let widths = (1..self.layers.len()).map(|_| self.config.hidden_dim);
        ctx.dropout_masks(n_rows, widths, self.config.dropout)
    }

    /// Parameters of the final layer only — the set FeatTrans fine-tunes
    /// ("the final layer of the GNN is finetuned on the support set",
    /// §VII-A ❻).
    pub fn final_layer_params(&self) -> Vec<Tensor> {
        self.layers.last().map(|l| l.params()).unwrap_or_default()
    }
}

impl<P> GnnEncoder<P> {
    pub fn new(config: &GnnConfig, init: &mut impl ParamSource<P>) -> Self {
        assert!(config.n_layers >= 1, "encoder needs at least one layer");
        let mut layers = Vec::with_capacity(config.n_layers);
        for i in 0..config.n_layers {
            let in_dim = if i == 0 {
                config.in_dim
            } else {
                config.hidden_dim
            };
            let out_dim = if i + 1 == config.n_layers {
                config.out_dim
            } else {
                config.hidden_dim
            };
            layers.push(AnyGnnLayer::new(config.kind, in_dim, out_dim, init));
        }
        Self {
            layers,
            config: config.clone(),
        }
    }

    pub fn config(&self) -> &GnnConfig {
        &self.config
    }

    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// The layer stack, in forward order.
    pub fn layers(&self) -> &[AnyGnnLayer<P>] {
        &self.layers
    }

    /// Layers `from..` over `x`, the input of layer `from` (all of them
    /// for `from = 0`, none past the end), under masks from
    /// [`GnnEncoder::draw_masks`] (an empty slice: no dropout).
    pub fn forward_from<B: Backend<Value = P>>(
        &self,
        b: &B,
        x: P,
        from: usize,
        masks: &[Arc<Matrix>],
    ) -> P {
        assert!(
            masks.is_empty() || masks.len() + 1 == self.layers.len(),
            "one mask per layer but the last"
        );
        (from..self.layers.len()).fold(x, |h, i| self.layer(i, b, &h, masks))
    }

    /// Layer `i` and what follows it ([`GnnEncoder::after`]).
    pub fn layer<B: Backend<Value = P>>(&self, i: usize, b: &B, x: &P, masks: &[Arc<Matrix>]) -> P {
        self.after(i, b, self.layers[i].forward(b, x), masks)
    }

    /// What follows layer `i`'s output `h`: the activation, then its
    /// dropout mask — nothing after the last layer.
    pub fn after<B: Backend<Value = P>>(&self, i: usize, b: &B, h: P, masks: &[Arc<Matrix>]) -> P {
        between_layers(b, i, self.layers.len(), h, self.config.activation, masks)
    }
}

impl Module for GnnEncoder {
    fn params(&self) -> Vec<Tensor> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgnp_graph::Graph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ring(n: usize) -> GraphContext {
        let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        GraphContext::new(&Graph::from_edges(n, &edges))
    }

    #[test]
    fn all_kinds_build_and_run() {
        let gctx = ring(6);
        let x = Tensor::constant(Matrix::full(6, 4, 0.5));
        for kind in [GnnKind::Gcn, GnnKind::Gat, GnnKind::Sage] {
            let cfg = GnnConfig {
                kind,
                in_dim: 4,
                hidden_dim: 8,
                out_dim: 3,
                n_layers: 3,
                dropout: 0.0,
                activation: Activation::Elu,
            };
            let mut rng = StdRng::seed_from_u64(0);
            let enc = GnnEncoder::new(&cfg, &mut rng);
            assert_eq!(enc.n_layers(), 3);
            let mut ctx = ForwardCtx::eval(&mut rng);
            let out = enc.forward(&gctx, &x, &mut ctx);
            assert_eq!(out.shape(), (6, 3), "{kind} output shape");
            assert!(!out.value().has_non_finite());
        }
    }

    #[test]
    fn masks_drawn_first_match_the_interleaved_pass() {
        // `forward`, its two halves, and the loop that draws each mask
        // where it is used agree bitwise — value, gradients, and where the
        // RNG is left — for every layer kind, in train and eval mode.
        let gctx = ring(9);
        let x = Tensor::constant(Matrix::from_vec(
            9,
            4,
            (0..36).map(|i| (i as f32 * 0.7).sin()).collect(),
        ));
        for kind in [GnnKind::Gcn, GnnKind::Gat, GnnKind::Sage] {
            for training in [true, false] {
                let cfg = GnnConfig {
                    kind,
                    dropout: 0.4,
                    ..GnnConfig::paper_default(4, 6, 3)
                };
                let enc = GnnEncoder::new(&cfg, &mut StdRng::seed_from_u64(1));
                let run = |pass: &dyn Fn(&mut ForwardCtx<'_>) -> Tensor| {
                    let mut rng = StdRng::seed_from_u64(5);
                    let out = pass(&mut ForwardCtx {
                        training,
                        rng: &mut rng,
                    });
                    enc.zero_grad();
                    out.l2_sum().backward();
                    let grads: Vec<Vec<f32>> = enc
                        .params()
                        .iter()
                        .map(|p| p.grad().expect("grad").as_slice().to_vec())
                        .collect();
                    (out.value().as_slice().to_vec(), grads, rng.gen::<u64>())
                };
                let interleaved = run(&|ctx| {
                    let mut h = x.clone();
                    for (i, layer) in enc.layers().iter().enumerate() {
                        h = layer.forward(&gctx, &h);
                        if i + 1 < enc.n_layers() {
                            h = cfg.activation.apply(&h);
                            h = h.dropout(cfg.dropout, ctx.training, ctx.rng);
                        }
                    }
                    h
                });
                let fused = run(&|ctx| enc.forward(&gctx, &x, ctx));
                let split = run(&|ctx| {
                    let masks = enc.draw_masks(x.rows(), ctx);
                    assert_eq!(masks.len(), if training { 2 } else { 0 });
                    enc.forward_from(&gctx, x.clone(), 0, &masks)
                });
                assert!(fused == interleaved, "{kind} training={training}: forward");
                assert!(split == interleaved, "{kind} training={training}: halves");
            }
        }
    }

    #[test]
    fn single_layer_maps_in_to_out() {
        let cfg = GnnConfig {
            kind: GnnKind::Gcn,
            in_dim: 5,
            hidden_dim: 99,
            out_dim: 2,
            n_layers: 1,
            dropout: 0.0,
            activation: Activation::Relu,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let enc = GnnEncoder::new(&cfg, &mut rng);
        let gctx = ring(4);
        let x = Tensor::constant(Matrix::zeros(4, 5));
        let mut ctx = ForwardCtx::eval(&mut rng);
        assert_eq!(enc.forward(&gctx, &x, &mut ctx).shape(), (4, 2));
    }

    #[test]
    fn final_layer_params_are_a_strict_subset() {
        let cfg = GnnConfig::paper_default(4, 8, 8);
        let mut rng = StdRng::seed_from_u64(2);
        let enc = GnnEncoder::new(&cfg, &mut rng);
        let all = enc.params();
        let last = enc.final_layer_params();
        assert!(!last.is_empty());
        assert!(last.len() < all.len());
        for p in &last {
            assert!(all.iter().any(|q| q.id() == p.id()));
        }
    }

    #[test]
    fn weight_snapshot_roundtrip_preserves_output() {
        let cfg = GnnConfig::paper_default(3, 6, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let enc = GnnEncoder::new(&cfg, &mut rng);
        let gctx = ring(5);
        let x = Tensor::constant(Matrix::full(5, 3, 0.3));
        let mut ctx_rng = StdRng::seed_from_u64(4);
        let before = enc
            .forward(&gctx, &x, &mut ForwardCtx::eval(&mut ctx_rng))
            .value();
        let snap = enc.export_weights();
        // Perturb, then restore.
        for p in enc.params() {
            p.update_value(|m| m.scale_assign(0.0));
        }
        enc.import_weights(&snap);
        let after = enc
            .forward(&gctx, &x, &mut ForwardCtx::eval(&mut ctx_rng))
            .value();
        assert!(before.approx_eq(&after, 1e-6));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = GnnConfig::paper_default(3, 6, 2);
        let build = || {
            let mut rng = StdRng::seed_from_u64(9);
            GnnEncoder::new(&cfg, &mut rng).export_weights()
        };
        let a = build();
        let b = build();
        for (x, y) in a.iter().zip(&b) {
            assert!(x.approx_eq(y, 0.0));
        }
    }
}
