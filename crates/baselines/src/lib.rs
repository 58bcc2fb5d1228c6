//! # cgnp-baselines
//!
//! The seven learned baselines of §IV / §VII-A, all built on the same
//! autodiff + GNN substrate as CGNP:
//!
//! | baseline | adaptation mechanism | meta stage |
//! |---|---|---|
//! | [`SupervisedGnn`] (❽) | train from scratch per task | – |
//! | [`FeatTrans`] (❻) | fine-tune final layer, 1 step | pre-training |
//! | [`Maml`] (❹) | inner-loop SGD (first-order) | two-level optimisation |
//! | [`Reptile`] (❺) | inner-loop SGD | parameter interpolation |
//! | [`Gpn`] (❼) | query prototypes (needs test ground truth) | episodic |
//! | [`IcsGnn`] (❾) | per-query model + subgraph growth (needs test ground truth) | – |
//! | [`AqdGnn`] (❿) | query+attribute fusion, per-task training | – |
//!
//! All implement the [`CsLearner`] trait consumed by the evaluation
//! harness.

#![forbid(unsafe_code)]

pub mod aqd_gnn;
pub mod base;
pub mod feat_trans;
pub mod gpn;
pub mod hyper;
pub mod ics_gnn;
pub mod learner;
pub mod maml;
pub mod reptile;
pub mod supervised;

pub use aqd_gnn::AqdGnn;
pub use base::{pos_neg_samples, QueryGnn};
pub use feat_trans::FeatTrans;
pub use gpn::Gpn;
pub use hyper::BaselineHyper;
pub use ics_gnn::IcsGnn;
pub use learner::CsLearner;
pub use maml::Maml;
pub use reptile::Reptile;
pub use supervised::SupervisedGnn;
