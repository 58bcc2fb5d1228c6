//! Gateway tuning knobs. Every limit exists to bound a resource a
//! misbehaving client could otherwise grow without bound.

use std::time::Duration;

/// Configuration for [`crate::Gateway::start`].
#[derive(Clone, Copy, Debug)]
pub struct GatewayConfig {
    /// Connection limit. A peer accepted beyond this is sent one
    /// structured `overloaded` response and closed immediately.
    pub max_conns: usize,
    /// Global admission queue bound. A request arriving while the queue
    /// is full is shed with an `overloaded` response (the connection
    /// stays up).
    pub max_queue: usize,
    /// Per-connection in-flight quota: reading from a connection pauses
    /// while it has this many admitted-but-unanswered requests.
    pub max_inflight_per_conn: usize,
    /// Deadline attached to each request at admission; a request still
    /// queued when it expires is answered with a `timeout` error and
    /// never scored. `None` disables deadlines.
    pub request_timeout: Option<Duration>,
    /// Upper bound on how long a drain waits for in-flight work and
    /// unflushed write buffers before forcing the exit.
    pub drain_grace: Duration,
    /// Longest accepted NDJSON line. A longer line is answered with one
    /// `bad_request` response and discarded up to the next newline, so
    /// an unterminated-garbage writer cannot grow the read buffer.
    pub max_line_bytes: usize,
    /// Reading from a connection pauses while its unflushed response
    /// bytes exceed this (the slowloris-reader memory cap).
    pub write_buffer_limit: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            max_conns: 64,
            max_queue: 256,
            max_inflight_per_conn: 16,
            request_timeout: Some(Duration::from_secs(10)),
            drain_grace: Duration::from_secs(5),
            max_line_bytes: 64 * 1024,
            write_buffer_limit: 256 * 1024,
        }
    }
}

impl GatewayConfig {
    /// Normalises zero-valued limits to their smallest working value so
    /// a misconfigured gateway degrades to "tiny" rather than "wedged".
    pub fn sanitised(mut self) -> Self {
        self.max_conns = self.max_conns.max(1);
        self.max_queue = self.max_queue.max(1);
        self.max_inflight_per_conn = self.max_inflight_per_conn.max(1);
        self.max_line_bytes = self.max_line_bytes.max(1024);
        self.write_buffer_limit = self.write_buffer_limit.max(1024);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitise_lifts_zero_limits() {
        let cfg = GatewayConfig {
            max_conns: 0,
            max_queue: 0,
            max_inflight_per_conn: 0,
            max_line_bytes: 0,
            write_buffer_limit: 0,
            ..GatewayConfig::default()
        }
        .sanitised();
        assert_eq!(cfg.max_conns, 1);
        assert_eq!(cfg.max_queue, 1);
        assert_eq!(cfg.max_inflight_per_conn, 1);
        assert!(cfg.max_line_bytes >= 1024);
        assert!(cfg.write_buffer_limit >= 1024);
    }
}
