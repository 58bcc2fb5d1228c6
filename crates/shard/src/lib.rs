//! # cgnp-shard
//!
//! Sharded serving for the CGNP engine: an edge-cut graph
//! partitioner with halo rings ([`partition_graph`]) plus a
//! scatter/gather coordinator ([`ShardedSession`]) that answers the
//! exact serving protocol of a single [`cgnp_serve::ServeSession`] —
//! bitwise — over N partitions.
//!
//! The contract this crate is built around: **sharding is a deployment
//! choice, not a model change.** Every response a sharded deployment
//! produces — membership probabilities, ranked members, error strings,
//! ack epochs, including after live graph updates — is byte-for-byte
//! what one unsharded session over the whole graph would have produced.
//! The halo construction that makes this possible (each shard serves its
//! partition plus every node within `L+1` hops) is documented on
//! [`session::halo_depth_for`] and in the [`session`] module docs.
//!
//! ```
//! use cgnp_core::{Cgnp, CgnpConfig};
//! use cgnp_data::model_input_dim;
//! use cgnp_serve::{serve_task, QueryRequest};
//! use cgnp_shard::{ShardedConfig, ShardedSession};
//! use cgnp_data::{generate_sbm, SbmConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let ag = generate_sbm(&SbmConfig::small_test(), &mut StdRng::seed_from_u64(0));
//! let task = serve_task(&ag, 3, 0).unwrap();
//! let mut config = CgnpConfig::paper_default(model_input_dim(&task.graph), 8);
//! config.commutative = cgnp_core::CommutativeOp::Mean;
//! let model = Cgnp::new(config, 0);
//! let cfg = ShardedConfig { shards: 2, ..ShardedConfig::default() };
//! let session = ShardedSession::new(model, task, cfg).unwrap();
//!
//! let response = session.answer(&QueryRequest::new(1, vec![0]).with_top_k(5));
//! assert!(response.ok);
//! ```

#![forbid(unsafe_code)]

pub mod partition;
pub mod session;

pub use partition::{halo_ball, partition_graph, Partitioning};
pub use session::{halo_depth_for, ShardedConfig, ShardedSession};
