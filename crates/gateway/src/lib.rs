//! # cgnp-gateway
//!
//! The serving engine's one stream front-end — [`Gateway::start`] for
//! many TCP peers, [`Gateway::serve_stream`] for the process's own
//! stdin/stdout as the single connection of a gateway that listens
//! nowhere — designed around failure first: the paper's value
//! proposition — answer community-search queries online, with adaptation
//! as a single forward pass — only pays off if the serving layer
//! survives real client behavior. One slow, dead, or malicious peer must
//! never stall the process or the other connections.
//!
//! ## Architecture
//!
//! Two threads, no async runtime (offline environment — no tokio; a
//! hand-rolled loop over nonblocking sockets, blocking in `poll(2)`
//! between bursts of work, is enough):
//!
//! * The **event loop** owns the listener, if any, and every connection
//!   (any [`conn::Socket`]: a TCP peer, or the socket pair behind
//!   `serve_stream`). Each pass it accepts new peers (up to `max_conns`;
//!   excess connections get one structured `overloaded` response and are
//!   closed), reads whatever bytes are available per connection into a
//!   bounded read buffer, frames NDJSON lines, parses and
//!   boundary-validates them ([`cgnp_serve::validate_request`] — a bad
//!   request is answered without consuming a queue slot; while an update
//!   is queued the state to judge against is about to change, so the
//!   check stands aside and the frame's own tick validates it), and
//!   admits the rest into the global request queue (bounded by
//!   `max_queue`; overflow is shed with an `overloaded` response). It
//!   also moves finished responses into per-connection write buffers and
//!   flushes them as sockets accept bytes — **in the order the
//!   connection sent its lines**: a reply the loop writes itself waits
//!   behind the answers the batcher still owes. A pass that did nothing
//!   ends in [`readiness::wait`]: the loop sleeps in the kernel until
//!   the listener has a peer, a connection it would read has input
//!   (`POLLIN` iff [`conn::Conn::wants_read`]), a connection holding
//!   bytes it may write now has room (`POLLOUT`), or its
//!   [`readiness::Waker`] is written — by the batcher after it extends
//!   the outbox, and by drain. There is no timer: an idle gateway is two
//!   parked threads and makes no wake-ups, and a request is read when it
//!   arrives, not at the next poll interval.
//! * The **batcher** pops up to one micro-batch per tick from the queue,
//!   expires requests whose deadline passed (`timeout` responses —
//!   expired work is *never* scored), and hands the rest to the
//!   [`QueryEngine`] inside `catch_unwind`: a poisoned request kills its
//!   request (an `internal` response), not the server — on a batch
//!   panic, the tick is retried one request at a time so only the
//!   poisoned request is lost. The autograd `no_grad` state is restored
//!   by the drop guards inside the engine, so the next tick scores
//!   bitwise-identically to an unpoisoned session. It sleeps on the
//!   queue's condvar, woken by every admission and by drain.
//!
//! ## Backpressure
//!
//! Per connection, reading stops (leaving bytes in the kernel socket
//! buffer, which propagates TCP backpressure all the way to the peer)
//! whenever that connection has `max_inflight_per_conn` unanswered
//! requests or more than `write_buffer_limit` bytes of unflushed
//! responses — a slowloris reader that never drains its responses caps
//! its own memory footprint instead of growing the process. A paused
//! socket is not polled for input either, and one with nothing to flush
//! is not in the wait set at all: `poll` reports a hang-up whatever it
//! was asked to watch, so a reset peer that cannot be read yet would
//! otherwise spin the loop. Its reset is noticed when the connection is
//! next read or written.
//!
//! ## Graceful drain
//!
//! [`GatewayHandle::drain`] stops accepting and reading, lets the
//! batcher finish every admitted request, flushes the write buffers,
//! and exits cleanly — every accepted request is answered before the
//! loop ends (bounded by `drain_grace`).

// The one foreign call (`poll`) lives in `readiness::sys`, which carries
// the only `allow`; any other use in this crate fails the build.
#![deny(unsafe_code)]

pub mod batcher;
pub mod config;
pub mod conn;
pub mod readiness;
pub mod server;
pub mod stats;
pub mod testing;

pub use cgnp_serve::{
    ErrorCode, Frame, QueryEngine, QueryRequest, QueryResponse, ServeSession, ServeSummary,
    UpdateOp, UpdateRequest,
};
pub use config::GatewayConfig;
pub use server::{Gateway, GatewayHandle};
pub use stats::{GatewayReport, GatewaySummary};
