//! The commutative operation ⊕ (Eq. 14–16): permutation-invariant
//! aggregation of per-query views into one task context.

use cgnp_tensor::{Elem, Tensor};

use cgnp_nn::{Backend, Module, ParamSource};

use crate::config::CommutativeOp;

/// Aggregator over the views `{H_q}` produced by the encoder.
pub enum Commutative<P = Tensor> {
    Sum,
    Mean,
    /// Self-attention (Eq. 15–16): per-view mean embeddings are projected
    /// by `W1`, `W2`; softmaxed inner-product scores yield one weight per
    /// view, shared by all nodes.
    SelfAttention {
        w1: P,
        w2: P,
        dim: usize,
    },
}

impl<P> Commutative<P> {
    pub fn new(
        op: CommutativeOp,
        view_dim: usize,
        attention_dim: usize,
        init: &mut impl ParamSource<P>,
    ) -> Self {
        match op {
            CommutativeOp::Sum => Self::Sum,
            CommutativeOp::Mean => Self::Mean,
            CommutativeOp::SelfAttention => Self::SelfAttention {
                w1: init.glorot(view_dim, attention_dim),
                w2: init.glorot(view_dim, attention_dim),
                dim: attention_dim,
            },
        }
    }

    pub fn op(&self) -> CommutativeOp {
        match self {
            Self::Sum => CommutativeOp::Sum,
            Self::Mean => CommutativeOp::Mean,
            Self::SelfAttention { .. } => CommutativeOp::SelfAttention,
        }
    }

    /// Combines `k ≥ 1` equally shaped views, in order, into the context
    /// matrix `H`; one view passes through. `Sum`/`Mean` fold each view in
    /// as it arrives, so only one is alive at a time; `SelfAttention`
    /// weighs the views against each other and keeps them all.
    pub fn combine<B: Backend<Value = P>>(&self, b: &B, views: impl IntoIterator<Item = P>) -> P {
        let mut views = views.into_iter();
        let first = views.next().expect("⊕ needs at least one view");
        let Some(second) = views.next() else {
            return first;
        };
        let rest = std::iter::once(second).chain(views);
        let one = B::Elem::ONE;
        match self {
            Self::Sum | Self::Mean => {
                let (mut acc, mut k) = (first, 1);
                for v in rest {
                    acc = b.add(acc, &v);
                    k += 1;
                }
                match self {
                    Self::Mean => b.scale(acc, one / B::Elem::from_usize(k)),
                    _ => acc,
                }
            }
            Self::SelfAttention { w1, w2, dim } => {
                let views: Vec<P> = std::iter::once(first).chain(rest).collect();
                // Eq. 15–16: stack per-view summaries (mean over nodes),
                // project, score, softmax, column-average → one weight per
                // view shared by all nodes.
                let summaries: Vec<P> = views.iter().map(|v| b.mean_rows(v)).collect();
                let m = b.stack_rows(&summaries); // k×d
                let scores = b.matmul_tb(&b.matmul(&m, w1, None), &b.matmul(&m, w2, None));
                let scores = b.scale(scores, one / B::Elem::from_usize(*dim).sqrt());
                let attn = b.row_softmax(scores); // k×k, rows sum to 1
                let weights = b.mean_rows(&attn); // 1×k, sums to 1
                b.weighted_sum(&weights, &views)
            }
        }
    }
}

impl Module for Commutative {
    fn params(&self) -> Vec<Tensor> {
        match self {
            Self::Sum | Self::Mean => Vec::new(),
            Self::SelfAttention { w1, w2, .. } => vec![w1.clone(), w2.clone()],
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

    /// ⊕ on the taped backend.
    fn combine(c: &Commutative, views: &[Tensor]) -> Tensor {
        let tape = GraphContext::new(&Graph::from_edges(views[0].rows(), &[]));
        c.combine(&tape, views.iter().cloned())
    }

    fn views() -> Vec<Tensor> {
        vec![
            Tensor::parameter(Matrix::full(3, 2, 1.0)),
            Tensor::parameter(Matrix::full(3, 2, 3.0)),
        ]
    }

    #[test]
    fn sum_and_mean_values() {
        let mut rng = StdRng::seed_from_u64(0);
        let sum = Commutative::new(CommutativeOp::Sum, 2, 2, &mut rng);
        let mean = Commutative::new(CommutativeOp::Mean, 2, 2, &mut rng);
        assert!(combine(&sum, &views())
            .value()
            .approx_eq(&Matrix::full(3, 2, 4.0), 1e-6));
        assert!(combine(&mean, &views())
            .value()
            .approx_eq(&Matrix::full(3, 2, 2.0), 1e-6));
    }

    #[test]
    fn attention_weights_are_convex() {
        let mut rng = StdRng::seed_from_u64(1);
        let att = Commutative::new(CommutativeOp::SelfAttention, 2, 4, &mut rng);
        let out = combine(&att, &views()).value();
        // Convex combination of all-1 and all-3 views ⇒ values in [1, 3].
        for &v in out.as_slice() {
            assert!(
                (1.0 - 1e-5..=3.0 + 1e-5).contains(&v),
                "value {v} outside hull"
            );
        }
        // All rows identical (weights shared across nodes).
        for r in 1..3 {
            for c in 0..2 {
                assert!((out.get(r, c) - out.get(0, c)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn permutation_invariance() {
        let mut rng = StdRng::seed_from_u64(2);
        for op in [
            CommutativeOp::Sum,
            CommutativeOp::Mean,
            CommutativeOp::SelfAttention,
        ] {
            let c = Commutative::new(op, 2, 4, &mut rng);
            let vs = views();
            let fwd = combine(&c, &vs).value();
            let rev: Vec<Tensor> = vs.iter().rev().cloned().collect();
            let bwd = combine(&c, &rev).value();
            assert!(
                fwd.approx_eq(&bwd, 1e-5),
                "{op:?} not permutation-invariant"
            );
        }
    }

    #[test]
    fn single_view_passthrough() {
        let mut rng = StdRng::seed_from_u64(3);
        let att = Commutative::new(CommutativeOp::SelfAttention, 2, 4, &mut rng);
        let v = Tensor::parameter(Matrix::full(2, 2, 7.0));
        let out = combine(&att, std::slice::from_ref(&v));
        assert!(out.value().approx_eq(&Matrix::full(2, 2, 7.0), 0.0));
    }

    #[test]
    fn param_counts() {
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(
            Commutative::new(CommutativeOp::Sum, 8, 4, &mut rng).param_count(),
            0
        );
        assert_eq!(
            Commutative::new(CommutativeOp::SelfAttention, 8, 4, &mut rng).param_count(),
            2 * 8 * 4
        );
    }

    #[test]
    fn attention_gradients_reach_projections() {
        let mut rng = StdRng::seed_from_u64(5);
        let att = Commutative::new(CommutativeOp::SelfAttention, 2, 3, &mut rng);
        // Views must differ for attention gradients to be non-zero.
        let vs = vec![
            Tensor::constant(Matrix::from_vec(2, 2, vec![1.0, -1.0, 0.5, 2.0])),
            Tensor::constant(Matrix::from_vec(2, 2, vec![-2.0, 1.0, 3.0, 0.1])),
        ];
        let loss = combine(&att, &vs).l2_sum();
        loss.backward();
        for p in att.params() {
            let g = p.grad().expect("projection gradient");
            assert!(g.max_abs() > 0.0, "zero gradient on attention projection");
        }
    }
}
