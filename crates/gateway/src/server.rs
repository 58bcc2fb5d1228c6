//! The gateway itself: listener (or one adopted stream), readiness
//! loop, admission control, and the drain state machine.
//!
//! The event loop runs passes — accept, read and admit, route the
//! outbox, flush, reap — for as long as a pass makes progress, and
//! otherwise blocks in [`readiness::wait`] until a socket it has a use
//! for is ready or another thread wakes it (see `EventLoop::park`).

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use cgnp_serve::{parse_frame, ErrorCode, Frame, QueryResponse};

use crate::batcher::{self, Pending};
use crate::config::GatewayConfig;
use crate::conn::{Conn, Framed, Socket};
use crate::readiness::{self, PollFd, Waker, READABLE, WRITABLE};
use crate::stats::{GatewayReport, GatewayStats, GatewaySummary};
use crate::QueryEngine;

/// Gateway lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum State {
    Running,
    /// Stop accepting and reading; answer everything admitted; exit.
    Draining,
}

/// State shared between the event loop, the batcher, and the handle.
pub struct Shared {
    /// Admitted requests waiting for a tick (bounded by `max_queue`).
    pub queue: Mutex<VecDeque<Pending>>,
    pub queue_cv: Condvar,
    /// Finished responses, already serialised to their NDJSON lines by
    /// the batcher, waiting to be routed to their connection.
    pub outbox: Mutex<Vec<(u64, String)>>,
    /// Ends the event loop's wait: see [`Shared::wake`].
    waker: Waker,
    state: AtomicU8,
    /// Requests admitted but not yet routed to a write buffer.
    pub inflight: AtomicU64,
    /// Update frames admitted and not yet through their tick (applied,
    /// refused or expired): while there are any, the engine's `n()` /
    /// `max_shots()` are about to change and the boundary check stands
    /// aside (see `EventLoop::handle_line`). Raised under the queue lock
    /// at admission, lowered by the batcher once the tick returned.
    pub updates_pending: AtomicU64,
    pub stats: GatewayStats,
}

impl Shared {
    fn new() -> std::io::Result<Self> {
        Ok(Self {
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            outbox: Mutex::new(Vec::new()),
            waker: Waker::new()?,
            state: AtomicU8::new(State::Running as u8),
            inflight: AtomicU64::new(0),
            updates_pending: AtomicU64::new(0),
            stats: GatewayStats::default(),
        })
    }

    pub fn state(&self) -> State {
        if self.state.load(Ordering::Acquire) == State::Draining as u8 {
            State::Draining
        } else {
            State::Running
        }
    }

    fn signal_drain(&self) {
        // Record how much work drain has to finish, once (the first
        // signal wins; `drained_in_flight` answers "did a drain ever
        // abandon work" — it must all be answered before exit).
        if self.state.swap(State::Draining as u8, Ordering::AcqRel) != State::Draining as u8 {
            self.stats
                .drained_in_flight
                .store(self.inflight.load(Ordering::Acquire), Ordering::Relaxed);
        }
        // Both threads may be parked with nothing to time them out. The
        // batcher reads the state under the queue lock before it waits,
        // so notifying under that lock cannot fall between its check and
        // its wait; the event loop is woken through its waker.
        {
            let _queue = self.queue.lock().expect("gateway queue lock");
            self.queue_cv.notify_all();
        }
        self.wake();
    }

    /// Wakes the event loop. Call it *after* publishing what the loop
    /// should see — an extended outbox, the drain state: the loop drains
    /// its waker before it reads either (the argument is on [`Waker`]).
    pub fn wake(&self) {
        if self.waker.wake() {
            self.stats.bump(&self.stats.wakes);
        }
    }
}

/// The gateway front-end. Construct with [`Gateway::start`].
pub struct Gateway;

impl Gateway {
    /// Binds `addr`, spawns the event loop and the batcher, and returns
    /// a handle. The gateway runs until [`GatewayHandle::drain`] /
    /// [`GatewayHandle::join`].
    pub fn start(
        engine: Arc<dyn QueryEngine>,
        addr: impl ToSocketAddrs,
        cfg: GatewayConfig,
    ) -> std::io::Result<GatewayHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Self::spawn(engine, Some(listener), None, cfg.sanitised())
    }

    /// Serves the NDJSON stream `input` → `output` (the CLI's stdin and
    /// stdout) to its end as the one connection of a gateway that
    /// listens nowhere: the framing, admission, ticks, deadlines and
    /// isolation a TCP peer gets, and no network surface. Returns once
    /// every line is answered and written, with durability synced.
    ///
    /// The event loop adopts one end of a socket pair (it polls sockets;
    /// putting fds 0/1 in its set would take `fcntl`). This thread
    /// copies `input` into the other end and a scoped one copies each
    /// answer out as it is written, so an interactive caller is not kept
    /// waiting for EOF. A read error ends serving with that error once
    /// what arrived is answered; a write error ends it at once. The
    /// connection's in-flight quota is at least `4 × engine.batch()` —
    /// one connection must be able to fill a tick — but never above
    /// `max_queue`: the only client there is waits, it is not shed.
    pub fn serve_stream(
        engine: Arc<dyn QueryEngine>,
        mut input: impl Read,
        mut output: impl Write + Send,
        cfg: GatewayConfig,
    ) -> std::io::Result<GatewayReport> {
        let mut cfg = cfg.sanitised();
        cfg.max_inflight_per_conn = cfg
            .max_inflight_per_conn
            .max(4 * engine.batch())
            .min(cfg.max_queue);
        let (near, far) = UnixStream::pair()?;
        let handle = Self::spawn(engine, None, Some(far), cfg)?;
        let (sent, written) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for line in BufReader::new(&near).split(b'\n') {
                    let mut line = line?;
                    line.push(b'\n');
                    if let Err(e) = output.write_all(&line).and_then(|()| output.flush()) {
                        // Nobody reads the answers any more: fail the
                        // copy below rather than leave it blocked on a
                        // socket the gateway has stopped draining.
                        let _ = near.shutdown(Shutdown::Both);
                        return Err(e);
                    }
                }
                Ok(())
            });
            // A pipe's last line often lacks its newline and is a whole
            // request all the same; after a complete line the extra one
            // frames a blank, which is skipped.
            let sent = std::io::copy(&mut input, &mut &near).and_then(|_| (&near).write_all(b"\n"));
            let _ = near.shutdown(Shutdown::Write);
            (sent, writer.join().expect("stream writer thread"))
        });
        let report = handle.join();
        written?;
        sent?;
        Ok(report)
    }

    /// Spawns the event loop — over `listener`, or with `adopted` as its
    /// only connection — and the batcher.
    fn spawn(
        engine: Arc<dyn QueryEngine>,
        listener: Option<TcpListener>,
        adopted: Option<UnixStream>,
        cfg: GatewayConfig,
    ) -> std::io::Result<GatewayHandle> {
        let addr = listener.as_ref().map(TcpListener::local_addr).transpose()?;
        let shared = Arc::new(Shared::new()?);

        let batcher = {
            let engine = Arc::clone(&engine);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gateway-batcher".into())
                .spawn(move || batcher::run(engine.as_ref(), &shared))?
        };
        let event = {
            let engine = Arc::clone(&engine);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gateway-events".into())
                .spawn(move || EventLoop::new(listener, engine, shared, cfg).run(adopted))?
        };
        Ok(GatewayHandle {
            addr,
            shared,
            engine,
            event: Some(event),
            batcher: Some(batcher),
        })
    }
}

/// Owner handle for a running gateway.
pub struct GatewayHandle {
    /// `None` inside `serve_stream`, whose handle never leaves it.
    addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    engine: Arc<dyn QueryEngine>,
    event: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
}

impl GatewayHandle {
    /// The bound listen address (resolves `:0` port requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr.expect("a started gateway has a listener")
    }

    /// Signals graceful drain: stop accepting and reading, answer every
    /// admitted request, flush write buffers, then the threads exit.
    pub fn drain(&self) {
        self.shared.signal_drain();
    }

    /// Live counter snapshot.
    pub fn stats(&self) -> GatewaySummary {
        self.shared.stats.snapshot()
    }

    /// Drains (if not already draining) and waits for both threads,
    /// returning the end-of-run report. Durability buffers are flushed
    /// to stable storage before the report exists: a gateway that exits
    /// cleanly has fsync'd every acknowledged update.
    pub fn join(mut self) -> GatewayReport {
        self.shared.signal_drain();
        if let Some(h) = self.event.take() {
            let _ = h.join();
        }
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
        if let Err(e) = self.engine.sync_durability() {
            eprintln!("gateway drain: durability sync failed: {e}");
        }
        GatewayReport {
            gateway: self.shared.stats.snapshot(),
            session: self.engine.session_summary(),
        }
    }
}

impl Drop for GatewayHandle {
    fn drop(&mut self) {
        self.shared.signal_drain();
        if let Some(h) = self.event.take() {
            let _ = h.join();
        }
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
    }
}

struct EventLoop {
    /// `None`: accept nothing, serve the adopted connection only.
    listener: Option<TcpListener>,
    engine: Arc<dyn QueryEngine>,
    shared: Arc<Shared>,
    cfg: GatewayConfig,
    conns: HashMap<u64, Conn>,
    next_conn_id: u64,
    drain_started: Option<Instant>,
    /// The last `accept` failed with something other than "no peer
    /// waiting" (out of descriptors, say): see [`EventLoop::park`].
    accept_failed: bool,
    /// The wait set, rebuilt for every wait (kept for its allocation).
    pollfds: Vec<PollFd>,
}

impl EventLoop {
    fn new(
        listener: Option<TcpListener>,
        engine: Arc<dyn QueryEngine>,
        shared: Arc<Shared>,
        cfg: GatewayConfig,
    ) -> Self {
        Self {
            listener,
            engine,
            shared,
            cfg,
            conns: HashMap::new(),
            next_conn_id: 1,
            drain_started: None,
            accept_failed: false,
            pollfds: Vec::new(),
        }
    }

    fn run(mut self, adopted: Option<UnixStream>) {
        if let Some(stream) = adopted {
            self.add_connection(stream);
        }
        loop {
            let draining = self.shared.state() == State::Draining;
            if draining && self.drain_started.is_none() {
                self.drain_started = Some(Instant::now());
            }
            let mut progressed = false;
            if !draining {
                progressed |= self.accept_new();
                progressed |= self.read_connections();
            }
            progressed |= self.route_outbox();
            progressed |= self.flush_connections();
            self.reap_finished();
            if draining && self.drain_complete() {
                return;
            }
            if !progressed {
                self.park();
            }
        }
    }

    /// Blocks until there is something for a pass to do. The wait set,
    /// level-triggered and rebuilt each time from what the next pass
    /// would act on:
    ///
    /// * the waker — the batcher extended the outbox, or drain was
    ///   signalled;
    /// * the listener, for a pending peer, while running;
    /// * each connection, for input iff the loop would read it
    ///   ([`Conn::wants_read`]) and for room iff it holds bytes the
    ///   socket could take ([`Conn::writable_bytes`]).
    ///
    /// A connection with neither interest is left out: `poll` reports a
    /// hang-up on every descriptor it is given, so a reset peer whose
    /// reads are paused by flow control would otherwise end every wait
    /// at once, with nothing the pass could do about it. Such a peer is
    /// noticed when the connection is next read or written. A paused
    /// socket's bytes stay in the kernel buffer unpolled, which is what
    /// carries the backpressure to the peer. The listener sits out one
    /// wait after a failed `accept` for the same reason: the pending
    /// peer keeps it readable, and retrying is the next pass's job.
    ///
    /// No timeout while running: the loop has no time-driven duty —
    /// request deadlines are enforced by the batcher at tick assembly.
    /// While draining, what is left of `drain_grace`.
    fn park(&mut self) {
        let draining = self.drain_started.is_some();
        self.pollfds.clear();
        self.pollfds.push(self.shared.waker.pollfd());
        if !draining && !self.accept_failed {
            let listener = self.listener.iter();
            self.pollfds
                .extend(listener.map(|l| PollFd::new(l, READABLE)));
        }
        let (quota, limit) = (self.cfg.max_inflight_per_conn, self.cfg.write_buffer_limit);
        for conn in self.conns.values() {
            let mut interest = 0;
            if !draining && conn.wants_read(quota, limit) {
                interest |= READABLE;
            }
            if conn.writable_bytes() > 0 {
                interest |= WRITABLE;
            }
            if interest != 0 {
                self.pollfds.push(PollFd::new(&*conn.stream, interest));
            }
        }
        let timeout = self
            .drain_started
            .map(|t| self.cfg.drain_grace.saturating_sub(t.elapsed()));
        readiness::wait(&mut self.pollfds, timeout);
        self.shared.stats.bump(&self.shared.stats.polls);
        if self.pollfds[0].ready() {
            self.shared.waker.drain();
        }
    }

    /// Drain is done when the batcher has nothing left (queue empty and
    /// no request between queue and outbox), the outbox is routed, and
    /// every write buffer is flushed — or the grace period expired.
    fn drain_complete(&self) -> bool {
        let grace_expired = self
            .drain_started
            .is_some_and(|t| t.elapsed() > self.cfg.drain_grace);
        if grace_expired {
            return true;
        }
        let queue_empty = self
            .shared
            .queue
            .lock()
            .expect("gateway queue lock")
            .is_empty();
        let outbox_empty = self
            .shared
            .outbox
            .lock()
            .expect("gateway outbox lock")
            .is_empty();
        queue_empty
            && outbox_empty
            && self.shared.inflight.load(Ordering::Acquire) == 0
            && self
                .conns
                .values()
                .all(|c| c.dead || c.buffered_bytes() == 0)
    }

    /// Accepts pending connections, up to the connection limit. Peers
    /// beyond it get one `overloaded` response, best-effort, and are
    /// closed — a structured refusal beats a silent RST.
    fn accept_new(&mut self) -> bool {
        let mut progressed = false;
        // Bounded per iteration so one accept storm cannot starve the
        // read/write phases.
        for _ in 0..32 {
            let Some(listener) = &self.listener else {
                break;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    progressed = true;
                    if self.conns.len() >= self.cfg.max_conns {
                        self.shared.stats.bump(&self.shared.stats.rejected_conns);
                        refuse_connection(stream);
                        continue;
                    }
                    self.add_connection(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.accept_failed = false;
                    break;
                }
                // An aborted handshake is consumed by the call that
                // reports it; running out of descriptors leaves the peer
                // pending. Try the next one either way: the flag records
                // how the last attempt ended.
                Err(_) => self.accept_failed = true,
            }
        }
        progressed
    }

    /// Takes a connected socket into the loop.
    fn add_connection(&mut self, stream: impl Socket + 'static) {
        match Conn::new(stream) {
            Ok(conn) => {
                self.shared.stats.bump(&self.shared.stats.accepted);
                self.conns.insert(self.next_conn_id, conn);
                self.next_conn_id += 1;
            }
            Err(_) => self.shared.stats.bump(&self.shared.stats.disconnects),
        }
    }

    /// Reads every connection that is not paused by backpressure, then
    /// admits / answers / sheds its framed lines — but only as many as
    /// flow control allows. One read gulp can frame hundreds of
    /// pipelined lines; the rest wait on the connection, and reads stay
    /// paused until they are admitted, so the in-flight quota holds at
    /// line granularity, not gulp granularity.
    fn read_connections(&mut self) -> bool {
        let mut progressed = false;
        let conn_ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in conn_ids {
            let conn = self.conns.get_mut(&id).expect("conn exists");
            if conn.wants_read(self.cfg.max_inflight_per_conn, self.cfg.write_buffer_limit) {
                progressed |= conn.read_available(self.cfg.max_line_bytes) > 0;
            }
            // Admit pending frames while the quota and write-buffer
            // gates stay open.
            loop {
                let conn = self.conns.get_mut(&id).expect("conn exists");
                if !conn.can_admit(self.cfg.max_inflight_per_conn, self.cfg.write_buffer_limit) {
                    break;
                }
                let Some(frame) = conn.next_frame() else {
                    break;
                };
                progressed = true;
                match frame {
                    Framed::Line(line) => self.handle_line(id, &line),
                    Framed::Oversized => self.reject(
                        id,
                        0,
                        format!(
                            "request line exceeds {} bytes; discarded to next newline",
                            self.cfg.max_line_bytes
                        ),
                    ),
                }
            }
            // A half-written line followed by EOF gets a best-effort
            // `bad_request` (deliverable while the peer half-closed
            // only its write side), never a hang or a crash. Only
            // surfaced once all complete frames before it are admitted.
            let conn = self.conns.get_mut(&id).expect("conn exists");
            if let Some(fragment) = conn.take_trailing_fragment() {
                progressed = true;
                self.reject(
                    id,
                    0,
                    format!(
                        "connection closed mid-line ({} unterminated bytes discarded)",
                        fragment.len()
                    ),
                );
            }
        }
        progressed
    }

    /// Parses, boundary-validates, and admits one frame line (a query
    /// or a control frame — both flow through the same admission queue,
    /// so updates serialize with queries in arrival order).
    fn handle_line(&mut self, conn_id: u64, line: &str) {
        let frame = match parse_frame(line) {
            Ok(frame) => frame,
            Err(e) => {
                self.shared.stats.bump(&self.shared.stats.bad_requests);
                self.respond_direct(conn_id, &e.to_response());
                return;
            }
        };
        // Boundary validation: an invalid frame is answered here and
        // never consumes a queue slot or a scoring tick — unless an
        // update is queued ahead of it. Then the frame may refer to what
        // that update creates (an `add_edge` to the node an `add_node`
        // is about to add), and its own tick judges it: the same rules
        // and messages, against the state the frames before it left.
        // Only this thread admits updates, so a zero read here cannot go
        // stale before the check that follows it.
        let settled = self.shared.updates_pending.load(Ordering::Acquire) == 0;
        let checked = match &frame {
            _ if !settled => Ok(()),
            Frame::Query(req) => {
                cgnp_serve::validate_request(req, self.engine.n(), self.engine.max_shots())
                    .map(|_| ())
            }
            Frame::Update(req) => {
                cgnp_serve::validate_update(req, self.engine.n(), self.engine.n_attrs())
            }
        };
        if let Err(msg) = checked {
            return self.reject(conn_id, frame.id(), msg);
        }
        // Admission control: shed instead of queuing unboundedly. The
        // in-flight count is raised *inside* the queue lock so a racing
        // drain signal either sees the request in the queue or counts
        // it — never loses it.
        let shed_id = {
            let mut queue = self.shared.queue.lock().expect("gateway queue lock");
            if queue.len() >= self.cfg.max_queue {
                Some(frame.id())
            } else {
                if matches!(frame, Frame::Update(_)) {
                    self.shared.updates_pending.fetch_add(1, Ordering::AcqRel);
                }
                queue.push_back(Pending {
                    conn: conn_id,
                    deadline: self.cfg.request_timeout.map(|t| Instant::now() + t),
                    frame,
                });
                self.shared.inflight.fetch_add(1, Ordering::AcqRel);
                None
            }
        };
        match shed_id {
            None => {
                self.shared.stats.bump(&self.shared.stats.requests);
                if let Some(conn) = self.conns.get_mut(&conn_id) {
                    conn.admit();
                }
                self.shared.queue_cv.notify_one();
            }
            Some(id) => {
                self.shared.stats.bump(&self.shared.stats.shed);
                self.respond_direct(
                    conn_id,
                    &QueryResponse::error(
                        id,
                        ErrorCode::Overloaded,
                        format!(
                            "request queue full ({} queued); retry later",
                            self.cfg.max_queue
                        ),
                    ),
                );
            }
        }
    }

    /// Routes finished responses — serialised by the batcher — into
    /// write buffers. No JSON is emitted on this thread: the event loop
    /// spends its budget on socket readiness, not string building.
    ///
    /// A line carries no request identity because it needs none: the
    /// batcher is one thread popping a FIFO, so a connection's answers
    /// come back in the order its requests were admitted, and each one
    /// belongs to that connection's oldest unanswered request.
    fn route_outbox(&mut self) -> bool {
        let finished: Vec<(u64, String)> = {
            let mut outbox = self.shared.outbox.lock().expect("gateway outbox lock");
            std::mem::take(&mut *outbox)
        };
        if finished.is_empty() {
            return false;
        }
        for (conn_id, line) in finished {
            self.shared.inflight.fetch_sub(1, Ordering::AcqRel);
            match self.conns.get_mut(&conn_id) {
                Some(conn) => {
                    conn.push_answer(&line);
                    self.shared.stats.bump(&self.shared.stats.responses);
                }
                // The peer disconnected with this request in flight;
                // its answer has nowhere to go.
                None => self
                    .shared
                    .stats
                    .bump(&self.shared.stats.orphaned_responses),
            }
        }
        true
    }

    /// Flushes write buffers and records the backpressure high-water
    /// mark.
    fn flush_connections(&mut self) -> bool {
        let mut progressed = false;
        let mut total_buffered = 0u64;
        for conn in self.conns.values_mut() {
            if conn.writable_bytes() > 0 {
                progressed |= conn.flush_some();
            }
            total_buffered += conn.buffered_bytes() as u64;
        }
        self.shared.stats.observe_buffered(total_buffered);
        progressed
    }

    /// Removes finished and dead connections.
    fn reap_finished(&mut self) {
        let done: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.finished())
            .map(|(&id, _)| id)
            .collect();
        for id in done {
            self.conns.remove(&id);
            self.shared.stats.bump(&self.shared.stats.disconnects);
        }
    }

    /// Answers a line that will not be queued with a counted `bad_request`.
    fn reject(&mut self, conn_id: u64, id: u64, msg: String) {
        self.shared.stats.bump(&self.shared.stats.bad_requests);
        self.respond_direct(
            conn_id,
            &QueryResponse::error(id, ErrorCode::BadRequest, msg),
        );
    }

    /// Serialises a reply that never reaches the batcher (parse error,
    /// boundary rejection, shed) onto its connection, where it takes its
    /// turn behind the answers still owed to earlier lines.
    fn respond_direct(&mut self, conn_id: u64, response: &QueryResponse) {
        if let Some(conn) = self.conns.get_mut(&conn_id) {
            conn.push_response(&response.to_json());
        }
    }
}

/// Best-effort `overloaded` notice for a connection refused at the
/// limit. The socket is fresh, so a single small write almost always
/// fits the kernel buffer; failure just means the peer sees a close.
fn refuse_connection(stream: TcpStream) {
    let response = QueryResponse::error(
        0,
        ErrorCode::Overloaded,
        "connection limit reached; retry later",
    );
    let _ = stream.set_nonblocking(true);
    let mut stream = stream;
    let _ = stream.write_all(format!("{}\n", response.to_json()).as_bytes());
}
