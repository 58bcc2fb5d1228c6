//! The scoring side of the gateway: deadline-aware tick assembly and
//! panic isolation around the engine.
//!
//! The batcher is one thread popping micro-batches off the shared
//! admission queue. A tick is a contiguous run of queries or a
//! contiguous run of update frames (either up to the engine's batch
//! bound) — updates serialize with queries in admission order, so a
//! query admitted after an `add_edge` is always answered under the
//! post-mutation epoch, while a burst of updates shares one batched
//! apply (one operator refresh) instead of paying one per frame. Per
//! tick it (1) expires requests whose deadline passed — those are
//! answered `timeout` and **never scored** — and (2) scores/applies the
//! rest inside `catch_unwind`: a panic fails over to handling the tick
//! one request at a time, so exactly the poisoned requests get
//! `internal` responses and every healthy neighbour in the same tick is
//! still answered from the real engine.
//!
//! Responses are serialised to their NDJSON lines **here**, on the
//! batcher thread, so the event loop routes ready-made bytes instead of
//! spending its read/flush budget on JSON emission.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::Instant;

use cgnp_serve::{ErrorCode, Frame, QueryRequest, QueryResponse, UpdateRequest};

use crate::server::{Shared, State};
use crate::QueryEngine;

/// One admitted frame waiting to be scored or applied.
pub struct Pending {
    /// Connection the response routes back to.
    pub conn: u64,
    pub frame: Frame,
    /// Absolute deadline; `None` = no timeout configured.
    pub deadline: Option<Instant>,
}

impl Pending {
    fn id(&self) -> u64 {
        self.frame.id()
    }
}

/// Runs ticks until drain is signalled and the queue is empty. Every
/// popped frame is answered with exactly one serialised response pushed
/// to the outbox — scored, acknowledged, `timeout`, or `internal` —
/// never silently dropped.
pub fn run(engine: &dyn QueryEngine, shared: &Shared) {
    let batch = engine.batch().max(1);
    loop {
        let tick: Vec<Pending> = {
            let mut queue = shared.queue.lock().expect("gateway queue lock");
            loop {
                if !queue.is_empty() {
                    break;
                }
                if shared.state() == State::Draining {
                    return;
                }
                // Woken by every admission, and by `signal_drain` under
                // this lock: no timeout is needed to notice either.
                queue = shared.queue_cv.wait(queue).expect("gateway queue lock");
            }
            // Admission order is the serialization order: the tick is
            // the contiguous same-kind run at the front (queries score
            // together; updates share one batched apply), cut at the
            // first frame of the other kind.
            let front_is_update = matches!(
                queue.front().expect("non-empty queue").frame,
                Frame::Update(_)
            );
            let run = queue
                .iter()
                .take_while(|p| matches!(p.frame, Frame::Update(_)) == front_is_update)
                .count();
            let take = batch.min(run);
            queue.drain(..take).collect()
        };
        let responses = answer_tick(engine, shared, &tick);
        debug_assert_eq!(responses.len(), tick.len());
        // Applied, refused or expired, the tick is through: the boundary
        // check may trust the engine's state again (`Release` pairs with
        // the event loop's `Acquire` load).
        if matches!(tick[0].frame, Frame::Update(_)) {
            shared
                .updates_pending
                .fetch_sub(tick.len() as u64, Ordering::Release);
        }
        // Serialise on this thread; the event loop only moves bytes.
        let lines: Vec<(u64, String)> = tick
            .iter()
            .map(|p| p.conn)
            .zip(responses.iter().map(QueryResponse::to_json))
            .collect();
        shared
            .outbox
            .lock()
            .expect("gateway outbox lock")
            .extend(lines);
        shared.wake();
    }
}

/// Answers one tick: expiry split, then [`isolated`] scoring/applying.
fn answer_tick(engine: &dyn QueryEngine, shared: &Shared, tick: &[Pending]) -> Vec<QueryResponse> {
    let now = Instant::now();
    // Partition without reordering: responses must line up with `tick`.
    let mut live_reqs: Vec<QueryRequest> = Vec::with_capacity(tick.len());
    let mut live_updates: Vec<UpdateRequest> = Vec::new();
    let mut expired = vec![false; tick.len()];
    for (i, p) in tick.iter().enumerate() {
        if p.deadline.is_some_and(|d| now >= d) {
            expired[i] = true;
            shared.stats.bump(&shared.stats.timed_out);
            continue;
        }
        match &p.frame {
            Frame::Query(req) => live_reqs.push(req.clone()),
            Frame::Update(req) => live_updates.push(req.clone()),
        }
    }
    // Tick assembly guarantees a tick is homogeneous: a run of queries
    // or a run of updates, never both.
    let mut answered = if live_updates.is_empty() {
        isolated(
            shared,
            &live_reqs,
            |r| r.id,
            "request panicked during scoring (isolated; server healthy)",
            &|reqs| engine.answer_batch(reqs),
        )
    } else {
        isolated(
            shared,
            &live_updates,
            |r| r.id,
            "update panicked while applying (isolated; server healthy)",
            &|reqs| engine.apply_updates(reqs),
        )
    }
    .into_iter();
    tick.iter()
        .zip(&expired)
        .map(|(p, &is_expired)| {
            if is_expired {
                QueryResponse::error(
                    p.id(),
                    ErrorCode::Timeout,
                    "deadline expired before the request was scored",
                )
            } else {
                answered.next().expect("one response per live frame")
            }
        })
        .collect()
}

/// Runs `call` — the engine scoring a batch, or applying a run of
/// updates — with panic isolation: a batch-level panic retries one frame
/// at a time, so a poisoned frame loses itself (answered `internal` with
/// `panic_msg`) — not the server, and not its healthy neighbours in the
/// same tick.
fn isolated<R>(
    shared: &Shared,
    reqs: &[R],
    id: fn(&R) -> u64,
    panic_msg: &str,
    call: &dyn Fn(&[R]) -> Vec<QueryResponse>,
) -> Vec<QueryResponse> {
    if reqs.is_empty() {
        return Vec::new();
    }
    match catch_unwind(AssertUnwindSafe(|| call(reqs))) {
        Ok(responses) if responses.len() == reqs.len() => responses,
        Ok(mismatched) => {
            // A miscounting engine is a bug, but the wire contract
            // (exactly one response per request) still holds.
            drop(mismatched);
            reqs.iter()
                .map(|r| {
                    QueryResponse::error(
                        id(r),
                        ErrorCode::Internal,
                        "engine returned a mismatched response count",
                    )
                })
                .collect()
        }
        Err(_) if reqs.len() == 1 => {
            shared.stats.bump(&shared.stats.panics_caught);
            vec![QueryResponse::error(
                id(&reqs[0]),
                ErrorCode::Internal,
                panic_msg,
            )]
        }
        Err(_) => reqs
            .iter()
            .flat_map(|r| isolated(shared, std::slice::from_ref(r), id, panic_msg, call))
            .collect(),
    }
}
