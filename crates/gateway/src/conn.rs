//! Per-connection state: a nonblocking socket with bounded read/write
//! buffers, NDJSON line framing, and in-order release of responses.
//!
//! Every buffer here has a failure story. The read buffer is bounded by
//! `max_line_bytes` — an unterminated line beyond that is answered with
//! one `bad_request` and discarded up to the next newline, so a garbage
//! writer cannot grow it. The write buffer holds responses the socket
//! has not accepted yet, and `owed` the replies waiting their turn
//! behind an answer the batcher still owes; the event loop pauses
//! reading when the two together exceed the configured limit, so a
//! reader that never drains its responses — or floods garbage behind
//! one slow request — caps its own footprint.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;

/// The byte stream under a connection: whatever the event loop can read
/// and write without blocking and hand to `poll(2)` — an accepted TCP
/// peer, or the socket pair `Gateway::serve_stream` adopts.
pub trait Socket: Read + Write + AsRawFd + Send {
    /// Puts the socket in the mode the event loop drives it in.
    fn prepare(&self) -> std::io::Result<()>;
}

impl Socket for TcpStream {
    fn prepare(&self) -> std::io::Result<()> {
        self.set_nonblocking(true)?;
        // Responses are single writes of complete lines; latency beats
        // segment coalescing for a query endpoint.
        let _ = self.set_nodelay(true);
        Ok(())
    }
}

impl Socket for UnixStream {
    fn prepare(&self) -> std::io::Result<()> {
        self.set_nonblocking(true)
    }
}

/// One framed inbound line, or the notice that a line was dropped.
#[derive(Debug, PartialEq, Eq)]
pub enum Framed {
    /// A complete line (without the trailing newline), lossily decoded —
    /// invalid UTF-8 becomes replacement characters and fails request
    /// parsing downstream rather than killing the connection.
    Line(String),
    /// A line exceeded `max_line_bytes` before its newline arrived; it
    /// is being discarded and deserves one `bad_request` response.
    Oversized,
}

/// State of one client connection inside the event loop.
pub struct Conn {
    pub stream: Box<dyn Socket>,
    /// Bytes read but not yet framed into a complete line.
    read_buf: Vec<u8>,
    /// Framed lines not yet admitted. One read gulp can frame hundreds
    /// of pipelined lines; admitting them all at once would blow past
    /// the in-flight quota, so they wait here and the event loop pops
    /// them only while flow control allows. Bounded by the read gulp
    /// (`max_line_bytes` + one chunk) because reads pause while this is
    /// non-empty.
    pending: VecDeque<Framed>,
    /// Serialized responses the socket has not accepted yet.
    write_buf: Vec<u8>,
    /// How much of `write_buf` is already written.
    write_pos: usize,
    /// One entry per admitted request the batcher still owes an answer,
    /// oldest first, holding the replies the event loop wrote itself for
    /// lines that arrived after it: they are held back so that they
    /// cannot overtake the answer, and released right behind it.
    owed: VecDeque<Vec<u8>>,
    /// Bytes held in `owed`. A counter, not a sum over `owed` on demand:
    /// the backpressure gates read it several times a pass, and summing
    /// there cost `serve_sharded` 16 % of its throughput (CHANGES.md,
    /// PR 18: behind in 10 of 10 pairs, bisected to that one expression).
    held_bytes: usize,
    /// Admitted-but-unanswered requests from this connection (the
    /// length of `owed`).
    pub inflight: usize,
    /// Inside an oversized line: drop bytes until the next newline.
    discarding: bool,
    /// Peer half-closed its write side (EOF seen); responses may still
    /// be deliverable.
    pub read_closed: bool,
    /// Socket failed (reset, broken pipe); remove at cleanup.
    pub dead: bool,
}

impl Conn {
    pub fn new(stream: impl Socket + 'static) -> std::io::Result<Self> {
        stream.prepare()?;
        Ok(Self {
            stream: Box::new(stream),
            read_buf: Vec::new(),
            pending: VecDeque::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            owed: VecDeque::new(),
            held_bytes: 0,
            inflight: 0,
            discarding: false,
            read_closed: false,
            dead: false,
        })
    }

    /// Response bytes not yet handed to the socket, held replies
    /// included (the backpressure signal).
    pub fn buffered_bytes(&self) -> usize {
        self.writable_bytes() + self.held_bytes
    }

    /// The part of [`Conn::buffered_bytes`] the socket could take now.
    /// Only this may ask for `WRITABLE` or a flush: a held reply waits
    /// for the batcher, not for room, and a socket polled on its account
    /// is ready every time with nothing to write.
    pub fn writable_bytes(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Whether the event loop should read from this socket. Reads pause
    /// while earlier frames await admission, while the in-flight quota
    /// is spent, or while the peer is not draining its responses.
    pub fn wants_read(&self, max_inflight: usize, write_buffer_limit: usize) -> bool {
        !self.dead
            && !self.read_closed
            && self.pending.is_empty()
            && self.inflight < max_inflight
            && self.buffered_bytes() < write_buffer_limit
    }

    /// Whether this connection may admit another pending frame right
    /// now (same flow-control gates as reading, minus the read states).
    pub fn can_admit(&self, max_inflight: usize, write_buffer_limit: usize) -> bool {
        !self.dead && self.inflight < max_inflight && self.buffered_bytes() < write_buffer_limit
    }

    /// Pops the next frame awaiting admission.
    pub fn next_frame(&mut self) -> Option<Framed> {
        self.pending.pop_front()
    }

    /// Reads whatever the socket has, appending to the frame buffer and
    /// framing complete lines into the pending queue. Returns the
    /// number of frames added.
    pub fn read_available(&mut self, max_line_bytes: usize) -> usize {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(k) => {
                    self.read_buf.extend_from_slice(&chunk[..k]);
                    // Keep draining the socket only while the frame
                    // buffer stays reasonable; oversized lines are
                    // resolved by `frame_lines` below.
                    if self.read_buf.len() > max_line_bytes + chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        self.frame_lines(max_line_bytes)
    }

    /// Splits the frame buffer into complete lines, enforcing the line
    /// length bound and the discard-after-oversize state machine.
    /// Returns the number of frames added to the pending queue.
    fn frame_lines(&mut self, max_line_bytes: usize) -> usize {
        let mut added = 0;
        loop {
            match self.read_buf.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    let line: Vec<u8> = self.read_buf.drain(..=pos).collect();
                    if self.discarding {
                        // Tail of an already-reported oversized line.
                        self.discarding = false;
                        continue;
                    }
                    if pos > max_line_bytes {
                        // The whole overlong line arrived in one gulp;
                        // no discard state needed — the newline already
                        // ended it.
                        self.pending.push_back(Framed::Oversized);
                        added += 1;
                        continue;
                    }
                    let text = String::from_utf8_lossy(&line[..pos]);
                    let trimmed = text.trim();
                    if !trimmed.is_empty() {
                        self.pending.push_back(Framed::Line(trimmed.to_string()));
                        added += 1;
                    }
                }
                None => {
                    if !self.discarding && self.read_buf.len() > max_line_bytes {
                        self.read_buf.clear();
                        self.discarding = true;
                        self.pending.push_back(Framed::Oversized);
                        added += 1;
                    } else if self.discarding {
                        // Still inside the oversized line; drop the bytes.
                        self.read_buf.clear();
                    }
                    break;
                }
            }
        }
        added
    }

    /// The unterminated fragment left when the peer closed mid-line
    /// (half-written request then disconnect). Consumes it.
    pub fn take_trailing_fragment(&mut self) -> Option<String> {
        if !self.read_closed
            || !self.pending.is_empty()
            || self.read_buf.is_empty()
            || self.discarding
        {
            return None;
        }
        let fragment = String::from_utf8_lossy(&self.read_buf).trim().to_string();
        self.read_buf.clear();
        (!fragment.is_empty()).then_some(fragment)
    }

    /// Records that a request was admitted: its answer is owed, and
    /// every later reply waits behind it.
    pub fn admit(&mut self) {
        self.inflight += 1;
        self.owed.push_back(Vec::new());
    }

    /// Queues a reply the event loop wrote itself (parse error, boundary
    /// rejection, shed): behind the answers still owed, if there are any.
    pub fn push_response(&mut self, json: &str) {
        if !self.owed.is_empty() {
            self.held_bytes += json.len() + 1;
        }
        let buf = self.owed.back_mut().unwrap_or(&mut self.write_buf);
        buf.extend_from_slice(json.as_bytes());
        buf.push(b'\n');
    }

    /// Queues the batcher's answer to this connection's oldest
    /// unanswered request, and behind it the replies that were waiting
    /// for it.
    pub fn push_answer(&mut self, json: &str) {
        self.inflight = self.inflight.saturating_sub(1);
        let held = self.owed.pop_front().unwrap_or_default();
        self.held_bytes -= held.len();
        self.write_buf.extend_from_slice(json.as_bytes());
        self.write_buf.push(b'\n');
        self.write_buf.extend_from_slice(&held);
    }

    /// Writes as much of the buffer as the socket accepts right now.
    /// Returns true when progress was made.
    pub fn flush_some(&mut self) -> bool {
        let mut progressed = false;
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(k) => {
                    self.write_pos += k;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        } else if self.write_pos > 64 * 1024 {
            // Reclaim the already-written prefix so a long-lived slow
            // reader does not pin it forever.
            self.write_buf.drain(..self.write_pos);
            self.write_pos = 0;
        }
        progressed
    }

    /// Whether this connection has fully finished: peer done sending,
    /// nothing awaiting admission, nothing in flight, nothing left to
    /// write (or the socket died).
    pub fn finished(&self) -> bool {
        self.dead
            || (self.read_closed
                && self.pending.is_empty()
                && self.inflight == 0
                && self.buffered_bytes() == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::readiness::{self, PollFd, READABLE};
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    fn pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (Conn::new(server).unwrap(), client)
    }

    fn drain_frames(conn: &mut Conn) -> Vec<Framed> {
        std::iter::from_fn(|| conn.next_frame()).collect()
    }

    /// Blocks until what the client just did (bytes, or a half-close)
    /// has reached the server's socket, then reads it.
    fn read_delivered(conn: &mut Conn, max_line_bytes: usize) -> usize {
        let mut readable = [PollFd::new(&*conn.stream, READABLE)];
        assert_eq!(
            readiness::wait(&mut readable, Some(Duration::from_secs(10))),
            1,
            "loopback never delivered"
        );
        conn.read_available(max_line_bytes)
    }

    #[test]
    fn frames_complete_lines_and_keeps_partials() {
        let (mut conn, mut client) = pair();
        client
            .write_all(b"{\"id\":1}\n{\"id\":2}\npartial")
            .unwrap();
        assert_eq!(read_delivered(&mut conn, 1024), 2);
        assert_eq!(
            drain_frames(&mut conn),
            vec![
                Framed::Line("{\"id\":1}".into()),
                Framed::Line("{\"id\":2}".into())
            ]
        );
        client.write_all(b" done\n").unwrap();
        assert_eq!(read_delivered(&mut conn, 1024), 1);
        assert_eq!(
            drain_frames(&mut conn),
            vec![Framed::Line("partial done".into())]
        );
    }

    #[test]
    fn oversized_line_reported_once_then_discarded_to_newline() {
        let (mut conn, mut client) = pair();
        let big = vec![b'x'; 3000];
        client.write_all(&big).unwrap();
        assert_eq!(read_delivered(&mut conn, 1024), 1);
        assert_eq!(drain_frames(&mut conn), vec![Framed::Oversized]);
        // More of the same line: no second report.
        client.write_all(&big).unwrap();
        assert_eq!(read_delivered(&mut conn, 1024), 0);
        // The newline ends the discard; the next line frames normally.
        client.write_all(b"\n{\"id\":9}\n").unwrap();
        assert_eq!(read_delivered(&mut conn, 1024), 1);
        assert_eq!(
            drain_frames(&mut conn),
            vec![Framed::Line("{\"id\":9}".into())]
        );
    }

    #[test]
    fn complete_but_overlong_line_frames_as_oversized() {
        let (mut conn, mut client) = pair();
        let mut payload = vec![b'y'; 2000];
        payload.push(b'\n');
        payload.extend_from_slice(b"{\"id\":3}\n");
        client.write_all(&payload).unwrap();
        assert_eq!(read_delivered(&mut conn, 1024), 2);
        assert_eq!(
            drain_frames(&mut conn),
            vec![Framed::Oversized, Framed::Line("{\"id\":3}".into())]
        );
    }

    #[test]
    fn pending_frames_pause_reading() {
        let (mut conn, mut client) = pair();
        client.write_all(b"{\"id\":1}\n{\"id\":2}\n").unwrap();
        assert_eq!(read_delivered(&mut conn, 1024), 2);
        assert!(
            !conn.wants_read(16, 1024),
            "unadmitted frames must pause reads"
        );
        assert!(conn.next_frame().is_some());
        assert!(conn.next_frame().is_some());
        assert!(conn.wants_read(16, 1024));
    }

    #[test]
    fn half_written_line_then_close_surfaces_fragment() {
        let (mut conn, mut client) = pair();
        client.write_all(b"{\"id\": 1, \"nodes\": [0").unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        // The bytes and the half-close may be delivered separately.
        while !conn.read_closed {
            assert_eq!(read_delivered(&mut conn, 1024), 0);
        }
        assert_eq!(
            conn.take_trailing_fragment().as_deref(),
            Some("{\"id\": 1, \"nodes\": [0")
        );
        assert_eq!(conn.take_trailing_fragment(), None, "consumed once");
    }

    #[test]
    fn backpressure_gates_reading() {
        let (mut conn, _client) = pair();
        assert!(conn.wants_read(2, 1024));
        conn.inflight = 2;
        assert!(!conn.wants_read(2, 1024), "inflight quota pauses reads");
        conn.inflight = 0;
        conn.push_response(&"y".repeat(2000));
        assert!(!conn.wants_read(2, 1024), "unflushed responses pause reads");
    }

    #[test]
    fn flush_delivers_responses() {
        let (mut conn, client) = pair();
        conn.push_response("{\"id\":1,\"ok\":true}");
        while conn.buffered_bytes() > 0 {
            conn.flush_some();
        }
        let mut reader = std::io::BufReader::new(client);
        let mut line = String::new();
        std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
        assert_eq!(line, "{\"id\":1,\"ok\":true}\n");
        assert!(conn.finished() || !conn.read_closed);
    }
}
