//! CGNP model and training configuration (§VI, §VII-A).

use cgnp_nn::{GnnConfig, GnnKind};

/// The commutative operation ⊕ combining per-query views into one context
/// (Eq. 14–16; ablated in Table IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommutativeOp {
    /// Element-wise sum (Eq. 14).
    Sum,
    /// Element-wise average (the paper's ablation default).
    Mean,
    /// Self-attention with learnable per-view weights (Eq. 15–16).
    SelfAttention,
}

impl std::fmt::Display for CommutativeOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommutativeOp::Sum => write!(f, "Sum"),
            CommutativeOp::Mean => write!(f, "Ave."),
            CommutativeOp::SelfAttention => write!(f, "Att."),
        }
    }
}

/// The decoder ρθ (§VI): all three are inner-product based; MLP and GNN add
/// a parametric transform of the context first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecoderKind {
    /// Parameter-free inner product (CGNP-IP, Eq. 17).
    InnerProduct,
    /// Two-layer MLP then inner product (CGNP-MLP).
    Mlp,
    /// Two-layer GNN then inner product (CGNP-GNN).
    Gnn,
}

impl std::fmt::Display for DecoderKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecoderKind::InnerProduct => write!(f, "IP"),
            DecoderKind::Mlp => write!(f, "MLP"),
            DecoderKind::Gnn => write!(f, "GNN"),
        }
    }
}

/// Full CGNP architecture + optimisation settings.
#[derive(Clone, Debug)]
pub struct CgnpConfig {
    /// Encoder ϕθ architecture. `in_dim` must equal
    /// `1 + base_feature_dim(graph)` (indicator channel + features).
    pub encoder: GnnConfig,
    pub commutative: CommutativeOp,
    pub decoder: DecoderKind,
    /// Hidden width of the MLP decoder (paper: 512).
    pub mlp_hidden: usize,
    /// Projection width d′ of the self-attention ⊕ (Eq. 15).
    pub attention_dim: usize,
    /// Adam learning rate (paper: 5e-4).
    pub lr: f32,
    /// Meta-training epochs (paper: 200; scaled by the harness).
    pub epochs: usize,
    /// Gradient-norm clip; `None` disables.
    pub grad_clip: Option<f32>,
}

impl CgnpConfig {
    /// Paper defaults at a given input and hidden width: 3-layer GAT
    /// encoder, average ⊕, inner-product decoder.
    pub fn paper_default(in_dim: usize, hidden: usize) -> Self {
        Self {
            encoder: GnnConfig::paper_default(in_dim, hidden, hidden),
            commutative: CommutativeOp::Mean,
            decoder: DecoderKind::InnerProduct,
            mlp_hidden: 4 * hidden,
            attention_dim: hidden,
            lr: 5e-4,
            epochs: 200,
            grad_clip: Some(5.0),
        }
    }

    pub fn with_decoder(mut self, decoder: DecoderKind) -> Self {
        self.decoder = decoder;
        self
    }

    pub fn with_commutative(mut self, op: CommutativeOp) -> Self {
        self.commutative = op;
        self
    }

    pub fn with_encoder_kind(mut self, kind: GnnKind) -> Self {
        self.encoder.kind = kind;
        self
    }

    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// A variant label matching the paper's naming (CGNP-IP / -MLP / -GNN).
    pub fn variant_name(&self) -> String {
        format!("CGNP-{}", self.decoder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_7a() {
        let cfg = CgnpConfig::paper_default(10, 128);
        assert_eq!(cfg.encoder.n_layers, 3);
        assert_eq!(cfg.encoder.kind, GnnKind::Gat);
        assert!((cfg.encoder.dropout - 0.2).abs() < 1e-6);
        assert!((cfg.lr - 5e-4).abs() < 1e-9);
        assert_eq!(cfg.epochs, 200);
        assert_eq!(cfg.mlp_hidden, 512);
    }

    #[test]
    fn builders_compose() {
        let cfg = CgnpConfig::paper_default(4, 8)
            .with_decoder(DecoderKind::Gnn)
            .with_commutative(CommutativeOp::SelfAttention)
            .with_encoder_kind(GnnKind::Sage)
            .with_epochs(10);
        assert_eq!(cfg.variant_name(), "CGNP-GNN");
        assert_eq!(cfg.commutative, CommutativeOp::SelfAttention);
        assert_eq!(cfg.encoder.kind, GnnKind::Sage);
        assert_eq!(cfg.epochs, 10);
    }

    #[test]
    fn display_names() {
        assert_eq!(DecoderKind::InnerProduct.to_string(), "IP");
        assert_eq!(CommutativeOp::Mean.to_string(), "Ave.");
        assert_eq!(CommutativeOp::SelfAttention.to_string(), "Att.");
    }
}
