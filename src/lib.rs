//! # cgnp
//!
//! Umbrella crate of the CGNP reproduction (Community Search: A
//! Meta-Learning Approach, ICDE 2023). Re-exports every workspace crate
//! under one roof so examples, integration tests, and downstream users
//! can depend on a single package.
//!
//! Crate map:
//!
//! | crate | contents |
//! |---|---|
//! | [`tensor`] | dense/CSR kernels (blocked + rayon-parallel), autodiff, optimisers |
//! | [`graph`] | undirected attributed graphs and classic graph algorithms |
//! | [`nn`] | GCN/GAT/SAGE layers, MLP, encoder stack, parameter registry |
//! | [`data`] | SBM surrogates, dataset profiles, task sampling (§VII-A) |
//! | [`core`] | the CGNP model, meta-train/meta-test loops (Alg. 1/2) |
//! | [`algos`] | CTC/ACQ/ATC community-search algorithms (❶–❸) |
//! | [`baselines`] | the seven learned baselines (❹–❿) |
//! | [`eval`] | harness, metrics, reports, checkpoints, CLI |

#![forbid(unsafe_code)]

pub use cgnp_algos as algos;
pub use cgnp_baselines as baselines;
pub use cgnp_core as core;
pub use cgnp_data as data;
pub use cgnp_eval as eval;
pub use cgnp_graph as graph;
pub use cgnp_nn as nn;
pub use cgnp_tensor as tensor;
