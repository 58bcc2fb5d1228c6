//! # cgnp-core
//!
//! The paper's primary contribution: **CGNP — Conditional Graph Neural
//! Process** for community search (Fang et al., ICDE 2023).
//!
//! CGNP answers community-search queries by meta-learning across tasks.
//! For a task `T = (G, Q, L)` the GNN encoder ϕθ produces one node-
//! embedding view per labelled support query (the ground-truth identifier
//! of Eq. 13 marks `{q} ∪ l⁺`), a permutation-invariant commutative
//! operation ⊕ (sum / average / self-attention, Eq. 14–16) combines the
//! views into a task context, and an inner-product decoder ρθ (optionally
//! preceded by an MLP or GNN transform) scores every node against a new
//! query node (Eq. 17). Adaptation at test time requires **zero gradient
//! steps** (Algorithm 2), which is the source of CGNP's test-time speed
//! advantage in Fig. 3.
//!
//! ## Example
//!
//! ```
//! use cgnp_core::{Cgnp, CgnpConfig, meta_train, prepare_tasks};
//! use cgnp_data::{generate_sbm, model_input_dim, sample_task, SbmConfig, TaskConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A tiny end-to-end run: one synthetic graph, two meta-training tasks.
//! let ag = generate_sbm(&SbmConfig::small_test(), &mut StdRng::seed_from_u64(0));
//! let tcfg = TaskConfig { subgraph_size: 40, shots: 2, n_targets: 3, ..Default::default() };
//! let mut rng = StdRng::seed_from_u64(1);
//! let tasks: Vec<_> = (0..2)
//!     .map(|_| sample_task(&ag, &tcfg, None, &mut rng).unwrap())
//!     .collect();
//! let prepared = prepare_tasks(&tasks);
//!
//! let cfg = CgnpConfig::paper_default(model_input_dim(&tasks[0].graph), 8).with_epochs(3);
//! let model = Cgnp::new(cfg, 7);
//! let stats = meta_train(&model, &prepared, 0);
//! assert_eq!(stats.epoch_losses.len(), 3);
//!
//! // Gradient-free adaptation + prediction on a task.
//! let probs = model.predict(&prepared[0], prepared[0].task.targets[0].query,
//!                           &mut StdRng::seed_from_u64(2));
//! assert_eq!(probs.len(), prepared[0].task.n());
//! ```

#![forbid(unsafe_code)]

pub mod commutative;
pub mod config;
pub mod decoder;
pub mod infer;
pub mod model;
pub mod par;
pub mod train;

pub use commutative::Commutative;
pub use config::{CgnpConfig, CommutativeOp, DecoderKind};
pub use decoder::Decoder;
pub use infer::{InferModel, InferState};
pub use model::{Cgnp, PreparedTask, RefreshStrategy};
pub use train::{
    meta_train, meta_train_validated, meta_train_validated_with_threads, meta_train_with_rng,
    meta_train_with_threads, prepare_tasks, prepare_tasks_with_threads, task_loss,
    validation_loss_with_threads, TrainStats, ValidatedTrainStats,
};
