//! Gateway counters and the end-of-run report.
//!
//! All counters are relaxed atomics: they are monotonic tallies read for
//! reporting, never used for synchronisation (the queue and outbox locks
//! order the actual work).

use std::sync::atomic::{AtomicU64, Ordering};

use cgnp_serve::ServeSummary;
use serde::Serialize;

/// Live counters shared by the event loop, the batcher, and the handle.
#[derive(Debug, Default)]
pub struct GatewayStats {
    /// Connections admitted.
    pub accepted: AtomicU64,
    /// Connections refused at the `max_conns` limit.
    pub rejected_conns: AtomicU64,
    /// Requests admitted to the scoring queue.
    pub requests: AtomicU64,
    /// Requests shed at the `max_queue` limit (`overloaded`).
    pub shed: AtomicU64,
    /// Lines answered `bad_request` (parse or boundary-validation
    /// failures) without reaching the queue.
    pub bad_requests: AtomicU64,
    /// Requests whose deadline expired before scoring (`timeout`).
    pub timed_out: AtomicU64,
    /// Requests that panicked inside the engine and were isolated
    /// (`internal`).
    pub panics_caught: AtomicU64,
    /// Responses fully handed to a connection's write buffer.
    pub responses: AtomicU64,
    /// Responses dropped because their connection had already gone away.
    pub orphaned_responses: AtomicU64,
    /// Connections that ended (EOF, reset, or write failure).
    pub disconnects: AtomicU64,
    /// Requests still in flight when drain was signalled; all of them
    /// are answered before the gateway exits.
    pub drained_in_flight: AtomicU64,
    /// High-water mark of total buffered response bytes across all
    /// connections (the number backpressure keeps bounded).
    pub peak_buffered_bytes: AtomicU64,
    /// Times the event loop's blocking wait returned (a ready socket, a
    /// wake, or the drain-grace timeout). An idle gateway adds none.
    pub polls: AtomicU64,
    /// Bytes written to the event loop's waker: wakes that were not
    /// coalesced into one still pending.
    pub wakes: AtomicU64,
}

impl GatewayStats {
    pub fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Raises `peak_buffered_bytes` to at least `bytes`.
    pub fn observe_buffered(&self, bytes: u64) {
        self.peak_buffered_bytes.fetch_max(bytes, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> GatewaySummary {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        GatewaySummary {
            accepted: get(&self.accepted),
            rejected_conns: get(&self.rejected_conns),
            requests: get(&self.requests),
            shed: get(&self.shed),
            bad_requests: get(&self.bad_requests),
            timed_out: get(&self.timed_out),
            panics_caught: get(&self.panics_caught),
            responses: get(&self.responses),
            orphaned_responses: get(&self.orphaned_responses),
            disconnects: get(&self.disconnects),
            drained_in_flight: get(&self.drained_in_flight),
            peak_buffered_bytes: get(&self.peak_buffered_bytes),
            polls: get(&self.polls),
            wakes: get(&self.wakes),
        }
    }
}

/// Point-in-time copy of [`GatewayStats`], serialisable to JSON.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct GatewaySummary {
    pub accepted: u64,
    pub rejected_conns: u64,
    pub requests: u64,
    pub shed: u64,
    pub bad_requests: u64,
    pub timed_out: u64,
    pub panics_caught: u64,
    pub responses: u64,
    pub orphaned_responses: u64,
    pub disconnects: u64,
    pub drained_in_flight: u64,
    pub peak_buffered_bytes: u64,
    pub polls: u64,
    pub wakes: u64,
}

/// The end-of-run stats report: gateway counters next to the engine's
/// own latency/occupancy/context summary (when the engine keeps one —
/// [`cgnp_serve::ServeSession`] does).
#[derive(Clone, Debug, Serialize)]
pub struct GatewayReport {
    pub gateway: GatewaySummary,
    pub session: Option<ServeSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serialises_with_nested_sections() {
        let stats = GatewayStats::default();
        stats.bump(&stats.accepted);
        stats.bump(&stats.shed);
        stats.observe_buffered(4096);
        stats.observe_buffered(128); // lower watermark must not regress
        let report = GatewayReport {
            gateway: stats.snapshot(),
            session: None,
        };
        let json = serde_json::to_string(&report).unwrap();
        let v = serde::json::parse(&json).expect("well-formed");
        let serde::json::Value::Obj(pairs) = v else {
            panic!("not an object")
        };
        let gateway = pairs
            .iter()
            .find(|(k, _)| k == "gateway")
            .map(|(_, v)| v)
            .expect("gateway section");
        let serde::json::Value::Obj(counters) = gateway else {
            panic!("gateway section not an object")
        };
        for key in [
            "accepted",
            "shed",
            "timed_out",
            "panics_caught",
            "drained_in_flight",
            "polls",
            "wakes",
        ] {
            assert!(
                counters.iter().any(|(k, _)| k == key),
                "missing counter {key}"
            );
        }
        assert!(counters
            .iter()
            .any(|(k, v)| k == "peak_buffered_bytes" && *v == serde::json::Value::Num(4096.0)));
        assert!(pairs.iter().any(|(k, _)| k == "session"));
    }
}
