//! # cgnp-serve
//!
//! The online query-serving engine: the first consumer-facing path from a
//! meta-trained checkpoint to answered community-search queries, built on
//! the paper's central promise that adaptation is a single forward pass
//! (Alg. 2 — no per-query retraining).
//!
//! A [`ServeSession`] is constructed **once** — restore the model from a
//! checkpoint, precompute the graph's sparse operators and base features
//! — then answers a stream of [`QueryRequest`]s. Internally:
//!
//! * the front-end's micro-batcher (`cgnp-gateway`, for TCP peers and
//!   for the process's own stdin/stdout alike) coalesces up to `B`
//!   in-flight requests per [`QueryEngine::answer_batch`] tick,
//! * the decoded task context is computed once per shot count and cached
//!   **across ticks** (retired by the updates that invalidate it —
//!   [`ServeSession::apply_update`]); each tick only scores its
//!   queries against it, all of them in one pass over the context rows,
//!   which split across the persistent worker pool
//!   (`cgnp_core::infer::score_batch_with_threads` — forward-only, no
//!   autodiff tape anywhere on the serving path),
//! * per-request latency, batch-occupancy, and context build/hit
//!   counters accumulate into a [`ServeSummary`].
//!
//! ## Example
//!
//! ```
//! use cgnp_serve::{serve_task, QueryRequest, ServeConfig, ServeSession};
//! use cgnp_core::{Cgnp, CgnpConfig};
//! use cgnp_data::{generate_sbm, model_input_dim, SbmConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let ag = generate_sbm(&SbmConfig::small_test(), &mut StdRng::seed_from_u64(0));
//! let task = serve_task(&ag, 3, 0).unwrap();
//! let model = Cgnp::new(CgnpConfig::paper_default(model_input_dim(&task.graph), 8), 0);
//! let session = ServeSession::new(model, task, ServeConfig::default()).unwrap();
//!
//! let response = session.answer(&QueryRequest::new(1, vec![0]).with_top_k(5));
//! assert!(response.ok);
//! assert!(response.members.len() <= 5);
//! ```

#![forbid(unsafe_code)]

pub mod durable;
pub mod engine;
pub mod protocol;
pub mod session;
pub mod snapshot;
pub mod wal;

pub use durable::{scan, DurableEngine, DurableError, RecoveredState};
pub use engine::QueryEngine;
pub use protocol::{
    parse_frame, parse_frame_value, validate_request, validate_update, ErrorCode, Frame,
    ParseError, QueryRequest, QueryResponse, UpdateOp, UpdateRequest,
};
pub use session::{
    finish_burst, query_tick, rank_members, serve_task, update_burst, Applied, ServeConfig,
    ServeSession, ServeStats, ServeSummary, TickView,
};
pub use snapshot::{SnapshotPayload, SnapshotState};
pub use wal::{WalError, WalRecord, WalWriter};
