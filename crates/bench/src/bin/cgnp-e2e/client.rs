//! The load generator: closed-loop and open-loop phases over plain TCP.
//!
//! Frames are serialised before a phase starts; the timed paths only
//! write bytes, read lines and note the time. A phase never uses more
//! than [`GENERATOR_THREADS`] threads, so on the two-core boxes this runs
//! on the generator cannot crowd the server off the machine.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::stream::Frame;

/// Threads a phase runs: one per closed-loop connection, or the sender
/// and the receiver of the open-loop connection.
pub const GENERATOR_THREADS: usize = 2;
/// Frames each closed-loop connection keeps in flight — the gateway's
/// default per-connection quota, so the server never pauses reading.
pub const WINDOW: usize = 16;
/// A send this late counts against the open-loop generator.
pub const LATE_NS: u64 = 1_000_000;
/// How long a phase waits for an answer before calling it lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(15);

/// Connections a closed-loop phase opens: never more than cores.
pub fn closed_loop_conns(nproc: usize) -> usize {
    GENERATOR_THREADS.min(nproc).max(1)
}

/// The fields of a response line the generator looks at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reply {
    pub id: u64,
    pub ok: bool,
    pub epoch: u64,
}

fn leading_u64(s: &str) -> Option<u64> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    s[..end].parse().ok()
}

/// Reads `id`, `ok` and `epoch` off a response line without building a
/// JSON tree: the server emits `{"id":N,"ok":B,…,"epoch":E}`.
pub fn parse_reply(line: &str) -> Option<Reply> {
    let rest = line.strip_prefix("{\"id\":")?;
    let id = leading_u64(rest)?;
    let rest = &rest[rest.find(",\"ok\":")? + 6..];
    let ok = rest.starts_with("true");
    let epoch = leading_u64(&line[line.rfind("\"epoch\":")? + 8..])?;
    Some(Reply { id, ok, epoch })
}

/// A response line minus the two fields that differ between runs
/// (`cached`, `latency_us`) — what the output oracle compares.
pub fn strip_volatile(line: &str) -> Option<String> {
    let from = line.find(",\"cached\":")?;
    let to = line.find(",\"epoch\":")?;
    (from < to).then(|| format!("{}{}", &line[..from], &line[to..]))
}

/// What happened to one frame. Times are nanoseconds from the origin the
/// phase was given; `recv_ns == 0` means no answer arrived.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    /// Position in the phase's frame list (also the request id).
    pub index: u32,
    /// When the frame was due (open loop) or written (closed loop).
    pub due_ns: u64,
    pub sent_ns: u64,
    pub recv_ns: u64,
    pub ok: bool,
    pub epoch: u64,
    pub conn: u8,
    pub is_update: bool,
}

impl Sample {
    pub fn answered(&self) -> bool {
        self.recv_ns != 0
    }

    /// Latency as the user of an arrival schedule sees it: from when the
    /// frame was due, so a stall charges every frame queued behind it.
    pub fn latency_ns(&self) -> u64 {
        self.recv_ns.saturating_sub(self.due_ns)
    }
}

#[derive(Debug, Default)]
pub struct PhaseLog {
    pub start_ns: u64,
    pub end_ns: u64,
    pub samples: Vec<Sample>,
    /// Response lines kept for the output oracle, by frame index.
    pub kept: Vec<(u32, String)>,
    /// Responses that broke the protocol (wrong id, unparsable).
    pub protocol_errors: u64,
    /// Open loop: frames sent but unanswered when the last one left.
    pub backlog_at_last_send: usize,
}

impl PhaseLog {
    pub fn sent(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn ok(&self) -> u64 {
        self.samples.iter().filter(|s| s.answered() && s.ok).count() as u64
    }

    pub fn failed(&self) -> u64 {
        self.sent() - self.ok() + self.protocol_errors
    }

    /// Ok responses received inside the phase, per second of phase.
    pub fn throughput_per_s(&self) -> f64 {
        let inside = self
            .samples
            .iter()
            .filter(|s| s.answered() && s.ok && s.recv_ns <= self.end_ns)
            .count();
        inside as f64 / ((self.end_ns - self.start_ns) as f64 / 1e9).max(1e-9)
    }

    /// Ascending latencies (from due time) of answered frames of a kind.
    pub fn latencies_ns(&self, updates: bool) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .samples
            .iter()
            .filter(|s| s.answered() && s.is_update == updates)
            .map(Sample::latency_ns)
            .collect();
        v.sort_unstable();
        v
    }

    /// Ascending send lateness (sent − due) of every frame.
    pub fn lateness_ns(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .samples
            .iter()
            .map(|s| s.sent_ns.saturating_sub(s.due_ns))
            .collect();
        v.sort_unstable();
        v
    }

    /// Share of sends that left more than [`LATE_NS`] after they were due.
    pub fn late_frac(&self) -> f64 {
        let lateness = self.lateness_ns();
        let on_time = lateness.partition_point(|&ns| ns <= LATE_NS);
        (lateness.len() - on_time) as f64 / lateness.len().max(1) as f64
    }
}

/// One request/response connection for probes outside the timed phases.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { reader, writer })
    }

    /// Sends one frame (newline included) and returns its response line.
    pub fn call(&mut self, frame: &str) -> std::io::Result<String> {
        self.writer.write_all(frame.as_bytes())?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }
}

fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Closed loop: `conns` connections, each keeping [`WINDOW`] frames in
/// flight and sending its next frame when a response arrives, until
/// `duration` has passed or the frames run out. Connection `c` takes
/// frames `c, c + conns, …`. Every `keep_every`-th response line is kept.
pub fn closed_loop(
    addr: SocketAddr,
    frames: &[Frame],
    conns: usize,
    duration: Duration,
    origin: Instant,
    keep_every: Option<u32>,
) -> std::io::Result<PhaseLog> {
    assert!((1..=GENERATOR_THREADS).contains(&conns));
    let barrier = Barrier::new(conns);
    let mut logs: Vec<std::io::Result<PhaseLog>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    closed_conn(
                        addr, frames, c, conns, duration, origin, keep_every, barrier,
                    )
                })
            })
            .collect();
        for h in handles {
            logs.push(h.join().expect("closed-loop connection thread panicked"));
        }
    });
    let mut merged = PhaseLog {
        start_ns: u64::MAX,
        ..PhaseLog::default()
    };
    for log in logs {
        let log = log?;
        merged.start_ns = merged.start_ns.min(log.start_ns);
        merged.end_ns = merged.end_ns.max(log.end_ns);
        merged.samples.extend(log.samples);
        merged.kept.extend(log.kept);
        merged.protocol_errors += log.protocol_errors;
    }
    merged.samples.sort_unstable_by_key(|s| s.index);
    merged.kept.sort_unstable_by_key(|k| k.0);
    Ok(merged)
}

#[allow(clippy::too_many_arguments)]
fn closed_conn(
    addr: SocketAddr,
    frames: &[Frame],
    conn: usize,
    conns: usize,
    duration: Duration,
    origin: Instant,
    keep_every: Option<u32>,
    barrier: &Barrier,
) -> std::io::Result<PhaseLog> {
    let opened = TcpStream::connect(addr).and_then(|s| {
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let reader = BufReader::new(s.try_clone()?);
        Ok((s, reader))
    });
    // Everyone reaches the barrier, connected or not, or the others hang.
    barrier.wait();
    let (mut writer, mut reader) = opened?;
    let mut log = PhaseLog {
        start_ns: ns_since(origin),
        ..PhaseLog::default()
    };
    let deadline = Instant::now() + duration;
    let mut next = conn;
    let mut answered = 0usize;
    let mut line = String::new();
    let mut send = |log: &mut PhaseLog, next: &mut usize| -> std::io::Result<()> {
        let frame = &frames[*next];
        writer.write_all(frame.line.as_bytes())?;
        let now = ns_since(origin);
        log.samples.push(Sample {
            index: *next as u32,
            due_ns: now,
            sent_ns: now,
            conn: conn as u8,
            is_update: frame.is_update,
            ..Sample::default()
        });
        *next += conns;
        Ok(())
    };
    while log.samples.len() < WINDOW && next < frames.len() {
        send(&mut log, &mut next)?;
    }
    while answered < log.samples.len() {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if is_timeout(&e) => break,
            Err(e) => return Err(e),
        }
        let now = ns_since(origin);
        // Responses on one connection come back in the order sent.
        let sample = &mut log.samples[answered];
        answered += 1;
        match parse_reply(&line) {
            Some(reply) if reply.id == u64::from(sample.index) => {
                sample.recv_ns = now;
                sample.ok = reply.ok;
                sample.epoch = reply.epoch;
                if keep_every.is_some_and(|k| sample.index.is_multiple_of(k)) {
                    log.kept.push((sample.index, line.trim_end().to_string()));
                }
            }
            _ => log.protocol_errors += 1,
        }
        if next < frames.len() && Instant::now() < deadline {
            send(&mut log, &mut next)?;
        }
    }
    log.end_ns = ns_since(origin).min(log.start_ns + duration.as_nanos() as u64);
    Ok(log)
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Open loop: one connection, a sender that writes frame `i` when
/// `due_ns[i]` (from phase start) comes round whatever the server is
/// doing, and a receiver that timestamps each response.
pub fn open_loop(
    addr: SocketAddr,
    frames: &[Frame],
    due_ns: &[u64],
    origin: Instant,
) -> std::io::Result<PhaseLog> {
    let n = due_ns.len();
    assert!(frames.len() >= n, "one frame per arrival");
    let mut writer = TcpStream::connect(addr)?;
    writer.set_nodelay(true)?;
    writer.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let mut reader = BufReader::new(writer.try_clone()?);
    let received = AtomicUsize::new(0);
    let start = Instant::now();
    let start_ns = ns_since(origin);

    let (sent, replies) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> std::io::Result<(Vec<u64>, usize)> {
            let mut sent = Vec::with_capacity(n);
            for (frame, &due) in frames.iter().zip(due_ns) {
                // Sleeping, not spinning: a sender that busy-waits the last
                // stretch competes with the server for the two cores, is
                // descheduled for whole time slices while a context rebuild
                // saturates them, and sends late more often (2-3 % against
                // 1-2 % on `serve_mixed`) — while lengthening the rebuild.
                if let Some(wait) = Duration::from_nanos(due).checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                writer.write_all(frame.line.as_bytes())?;
                sent.push(ns_since(origin));
            }
            Ok((sent, n - received.load(Ordering::Relaxed).min(n)))
        });
        let receiver = scope.spawn(|| -> std::io::Result<Vec<(u64, Option<Reply>)>> {
            let mut replies = Vec::with_capacity(n);
            let mut line = String::new();
            while replies.len() < n {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e) if is_timeout(&e) => break,
                    Err(e) => return Err(e),
                }
                replies.push((ns_since(origin), parse_reply(&line)));
                received.fetch_add(1, Ordering::Relaxed);
            }
            Ok(replies)
        });
        (
            sender.join().expect("open-loop sender panicked"),
            receiver.join().expect("open-loop receiver panicked"),
        )
    });
    let (sent, backlog) = sent?;
    let replies = replies?;
    let mut log = PhaseLog {
        start_ns,
        end_ns: ns_since(origin),
        backlog_at_last_send: backlog,
        ..PhaseLog::default()
    };
    for (i, (&sent_ns, &due)) in sent.iter().zip(due_ns).enumerate() {
        let mut sample = Sample {
            index: i as u32,
            due_ns: start_ns + due,
            sent_ns,
            is_update: frames[i].is_update,
            ..Sample::default()
        };
        match replies.get(i) {
            Some(&(recv_ns, Some(reply))) if reply.id == i as u64 => {
                sample.recv_ns = recv_ns;
                sample.ok = reply.ok;
                sample.epoch = reply.epoch;
            }
            Some(_) => log.protocol_errors += 1,
            None => {}
        }
        log.samples.push(sample);
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn reply_fields_are_read_off_the_line() {
        let line = r#"{"id":42,"ok":true,"error":null,"code":null,"members":[3,1],"probs":[0.9,0.8],"shots":5,"cached":false,"latency_us":412,"epoch":7}"#;
        assert_eq!(
            parse_reply(line),
            Some(Reply {
                id: 42,
                ok: true,
                epoch: 7
            })
        );
        let stripped = strip_volatile(line).unwrap();
        assert!(stripped.ends_with(r#""shots":5,"epoch":7}"#));
        assert!(!stripped.contains("latency_us") && !stripped.contains("cached"));
        let err = r#"{"id":9,"ok":false,"error":"nope","code":"bad_request","members":[],"probs":[],"shots":0,"cached":false,"latency_us":0,"epoch":0}"#;
        assert!(!parse_reply(err).unwrap().ok);
        assert_eq!(parse_reply("garbage"), None);
    }

    #[test]
    fn generator_never_outnumbers_the_cores() {
        assert_eq!(closed_loop_conns(1), 1);
        assert_eq!(closed_loop_conns(2), 2);
        assert_eq!(closed_loop_conns(64), GENERATOR_THREADS);
    }

    /// An echo server that answers every frame in order, but sits on its
    /// hands for `stall` before answering frame `stall_at`.
    fn stalling_server(
        stall_at: u64,
        stall: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut out = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { break };
                let id = leading_u64(line.strip_prefix("{\"id\":").unwrap()).unwrap();
                if id == stall_at {
                    std::thread::sleep(stall);
                }
                let reply = format!("{{\"id\":{id},\"ok\":true,\"epoch\":0}}\n");
                if out.write_all(reply.as_bytes()).is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn open_loop_latency_counts_a_stall_from_due_time_not_send_time() {
        let stall = Duration::from_millis(120);
        let (addr, server) = stalling_server(2, stall);
        let frames: Vec<Frame> = (0..8)
            .map(|i| Frame {
                line: format!("{{\"id\":{i},\"nodes\":[0]}}\n"),
                is_update: false,
            })
            .collect();
        // One frame every 10 ms: frames 3.. are due (and sent) while the
        // server is still stalled on frame 2.
        let due: Vec<u64> = (0..8).map(|i| i * 10_000_000).collect();
        let log = open_loop(addr, &frames, &due, Instant::now()).unwrap();
        server.join().unwrap();
        assert_eq!((log.sent(), log.ok(), log.failed()), (8, 8, 0));
        let stalled = &log.samples[3];
        // Sent on schedule…
        assert!(stalled.sent_ns - stalled.due_ns < 20_000_000);
        // …but answered only after the stall ended at ≈ 20 + 120 ms, so
        // from its due time (30 ms) it waited ≈ 110 ms. Measured from the
        // moment the server got round to it, it would look instant.
        assert!(
            stalled.latency_ns() > 80_000_000,
            "stall must be charged to the queued frame: {} ns",
            stalled.latency_ns()
        );
        assert!(log.samples[0].latency_ns() < 50_000_000);
        assert!(
            log.late_frac() <= 0.25,
            "a loaded test box may delay a send or two"
        );
    }

    #[test]
    fn closed_loop_keeps_the_window_and_matches_ids() {
        let (addr, server) = stalling_server(u64::MAX, Duration::ZERO);
        let frames: Vec<Frame> = (0..200)
            .map(|i| Frame {
                line: format!("{{\"id\":{i},\"nodes\":[0]}}\n"),
                is_update: false,
            })
            .collect();
        let log = closed_loop(
            addr,
            &frames,
            1,
            Duration::from_secs(5),
            Instant::now(),
            Some(64),
        )
        .unwrap();
        server.join().unwrap();
        assert_eq!((log.sent(), log.ok(), log.failed()), (200, 200, 0));
        let kept: Vec<u32> = log.kept.iter().map(|k| k.0).collect();
        assert_eq!(kept, vec![0, 64, 128, 192]);
        assert!(log.samples.iter().all(|s| s.recv_ns >= s.sent_ns));
    }
}
