//! [`QueryEngine`]: the trait the serving front-end scores through.
//!
//! The front-end — `cgnp-gateway`, whether its connections are TCP
//! peers or the process's own stdin/stdout — speaks to an abstract
//! engine rather than a concrete session, so one binary serves a single
//! [`ServeSession`], a sharded scatter/gather coordinator, or a
//! fault-injection wrapper through the same protocol with zero wire
//! changes.

use crate::protocol::{ErrorCode, QueryRequest, QueryResponse, UpdateRequest};
use crate::session::{ServeSession, ServeSummary};
use crate::snapshot::SnapshotState;

/// The scoring back-end a serving front-end multiplexes requests into.
///
/// [`ServeSession`] is the single-box implementation; a sharded
/// coordinator fans the same calls out over many sessions; test
/// harnesses wrap engines to inject panics, delays, and scripted
/// behavior deterministically.
pub trait QueryEngine: Send + Sync + 'static {
    /// Number of nodes of the serving graph (boundary validation).
    fn n(&self) -> usize;
    /// Attribute vocabulary size of the serving graph (boundary
    /// validation of `add_node` control frames).
    fn n_attrs(&self) -> usize {
        0
    }
    /// Size of the labelled support pool (boundary validation).
    fn max_shots(&self) -> usize;
    /// Micro-batch bound: how many requests one tick coalesces.
    fn batch(&self) -> usize;
    /// Answers a micro-batch; must return one response per request, in
    /// order. May panic on poisoned input — the gateway isolates it.
    fn answer_batch(&self, reqs: &[QueryRequest]) -> Vec<QueryResponse>;
    /// Applies one live update and acknowledges it. Engines without
    /// mutable state refuse (the default).
    fn apply_update(&self, req: &UpdateRequest) -> QueryResponse {
        QueryResponse::error(
            req.id,
            ErrorCode::BadRequest,
            "engine does not support live updates",
        )
    }
    /// Applies a burst of updates, one ack per frame in order. Engines
    /// that can batch a burst into one refresh override this (sessions
    /// do); the default applies frame by frame.
    fn apply_updates(&self, reqs: &[UpdateRequest]) -> Vec<QueryResponse> {
        reqs.iter().map(|r| self.apply_update(r)).collect()
    }
    /// The engine's own serving summary, when it keeps one (sessions
    /// do); folded into the gateway's end-of-run report.
    fn session_summary(&self) -> Option<ServeSummary> {
        None
    }
    /// An epoch-consistent clone of the engine's mutable state (graph +
    /// support pool), captured under its state lock. The durability
    /// wrapper snapshots through this; engines without persistent
    /// mutable state return `None` and are WAL-only durable.
    fn snapshot_state(&self) -> Option<SnapshotState> {
        None
    }
    /// Flushes any durability buffers to stable storage. Called by the
    /// gateway on drain (for a stdin stream: at its end), before the
    /// process reports success; a no-op for ephemeral engines.
    fn sync_durability(&self) -> Result<(), String> {
        Ok(())
    }
}

impl QueryEngine for ServeSession {
    fn n(&self) -> usize {
        ServeSession::n(self)
    }

    fn n_attrs(&self) -> usize {
        ServeSession::n_attrs(self)
    }

    fn max_shots(&self) -> usize {
        ServeSession::max_shots(self)
    }

    fn batch(&self) -> usize {
        self.config().batch.max(1)
    }

    fn answer_batch(&self, reqs: &[QueryRequest]) -> Vec<QueryResponse> {
        ServeSession::answer_batch(self, reqs)
    }

    fn apply_update(&self, req: &UpdateRequest) -> QueryResponse {
        ServeSession::apply_update(self, req)
    }

    fn apply_updates(&self, reqs: &[UpdateRequest]) -> Vec<QueryResponse> {
        ServeSession::apply_updates(self, reqs)
    }

    fn session_summary(&self) -> Option<ServeSummary> {
        Some(self.summary())
    }

    fn snapshot_state(&self) -> Option<SnapshotState> {
        Some(ServeSession::snapshot_state(self))
    }
}
