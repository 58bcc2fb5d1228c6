//! The stream front-end: `Gateway::serve_stream` — what `cgnp serve`
//! runs over stdin/stdout — is one connection on the same gateway a TCP
//! peer talks to. Pinned here: (1) both transports answer a stream of
//! lines exactly as the engine driven one frame at a time would, line
//! for line and **in request order**, including frames that refer to
//! nodes earlier frames of the same stream create; (2) everything the
//! deleted stdin loop (`serve/ndjson.rs`) promised about a stream's
//! edges — blank lines, malformed lines, a failing writer, a failing
//! reader — with the outcomes that changed asserted as changed.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use cgnp_core::{Cgnp, CgnpConfig};
use cgnp_data::{generate_sbm, model_input_dim, SbmConfig};
use cgnp_gateway::testing::{request_line, EchoEngine};
use cgnp_gateway::{Gateway, GatewayConfig, GatewayReport, QueryEngine};
use cgnp_serve::{parse_frame, serve_task, Frame, ServeConfig, ServeSession};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::Value;

/// Nodes, attribute vocabulary and support pool of [`session`]'s graph.
const NODES: usize = 120;
const ATTRS: u32 = 16;
const POOL: usize = 3;

/// A model-backed session on the small deterministic test graph; equal
/// seeds build equal sessions.
fn session(seed: u64, batch: usize) -> Arc<ServeSession> {
    let ag = generate_sbm(&SbmConfig::small_test(), &mut StdRng::seed_from_u64(seed));
    let task = serve_task(&ag, POOL, seed).expect("support pool");
    let cfg = CgnpConfig::paper_default(model_input_dim(&task.graph), 8);
    let serve = ServeConfig {
        batch,
        threads: 1,
        seed,
        ..Default::default()
    };
    let session = ServeSession::new(Cgnp::new(cfg, seed), task, serve).expect("session");
    assert_eq!((session.n(), session.n_attrs()), (NODES, ATTRS as usize));
    Arc::new(session)
}

/// No deadlines: a loaded CI box must not turn an answer into `timeout`.
fn patient() -> GatewayConfig {
    GatewayConfig {
        request_timeout: None,
        ..GatewayConfig::default()
    }
}

/// A reader that hands out its bytes in scripted pieces, then an error
/// if it was given one.
struct Pieces(VecDeque<Vec<u8>>, Option<std::io::Error>);

impl Pieces {
    fn whole(bytes: impl Into<Vec<u8>>) -> Self {
        Pieces(VecDeque::from([bytes.into()]), None)
    }
}

impl Read for Pieces {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some(mut piece) = self.0.pop_front() else {
            return self.1.take().map_or(Ok(0), Err);
        };
        let k = piece.len().min(buf.len());
        buf[..k].copy_from_slice(&piece[..k]);
        if k < piece.len() {
            self.0.push_front(piece.split_off(k));
        }
        Ok(k)
    }
}

/// `bytes` cut at `cuts` (ascending offsets).
fn cut(bytes: &[u8], cuts: &[usize]) -> VecDeque<Vec<u8>> {
    let ends = cuts.iter().copied().chain([bytes.len()]);
    let starts = [0].into_iter().chain(cuts.iter().copied());
    starts
        .zip(ends)
        .map(|(a, b)| bytes[a..b].to_vec())
        .collect()
}

fn lines_of(out: Vec<u8>) -> Vec<String> {
    let text = String::from_utf8(out).expect("responses are UTF-8");
    text.lines().map(str::to_string).collect()
}

/// Serves `input` through `Gateway::serve_stream`.
fn over_stream(
    engine: Arc<dyn QueryEngine>,
    input: impl Read,
    cfg: GatewayConfig,
) -> (Vec<String>, GatewayReport) {
    let mut out = Vec::new();
    let report = Gateway::serve_stream(engine, input, &mut out, cfg).expect("stream served");
    (lines_of(out), report)
}

/// Writes `pieces` to one TCP connection of a started gateway, half-closes
/// and reads the answers to the server's close.
fn over_tcp(
    engine: Arc<dyn QueryEngine>,
    pieces: VecDeque<Vec<u8>>,
    cfg: GatewayConfig,
) -> (Vec<String>, GatewayReport) {
    let handle = Gateway::start(engine, "127.0.0.1:0", cfg).expect("bind loopback");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    for piece in pieces {
        stream.write_all(&piece).expect("request bytes");
    }
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("answers, then close");
    (lines_of(out), handle.join())
}

/// A response line minus the field that depends on timing.
fn stable(line: &str) -> Vec<(String, Value)> {
    let Ok(Value::Obj(mut pairs)) = serde::json::parse(line) else {
        panic!("response is not a JSON object: {line}")
    };
    pairs.retain(|(key, _)| key != "latency_us");
    pairs
}

fn num(line: &str, key: &str) -> u64 {
    match stable(line).iter().find(|(k, _)| k == key) {
        Some((_, Value::Num(n))) => *n as u64,
        other => panic!("no numeric {key:?} ({other:?}) in {line}"),
    }
}

fn ids(lines: &[String]) -> Vec<u64> {
    lines.iter().map(|l| num(l, "id")).collect()
}

// ---- One differential property over both transports.

/// What the front-end owes for `script`: the engine driven directly,
/// one frame at a time, in order.
fn oracle(session: &ServeSession, script: &str) -> Vec<String> {
    let lines = script.lines().map(str::trim).filter(|l| !l.is_empty());
    lines
        .map(|line| match parse_frame(line) {
            Ok(Frame::Query(req)) => session.answer(&req),
            Ok(Frame::Update(req)) => session.apply_update(&req),
            Err(e) => e.to_response(),
        })
        .map(|response| response.to_json())
        .collect()
}

/// Runs `script`, cut at `cuts`, through `serve_stream` and through one
/// TCP connection, each over a fresh session, and compares both with the
/// oracle over a third: the same lines in the same order, and the same
/// graph epoch and support pool left behind.
fn check_both_transports(script: &str, cuts: &[usize]) -> Result<(), TestCaseError> {
    let reference = session(6, 4);
    let want = oracle(&reference, script);
    let compare = |name: &str, served: &ServeSession, got: Vec<String>| {
        prop_assert!(
            got.len() == want.len(),
            "{name} answered {got:?} for\n{script}"
        );
        for (i, (got, want)) in got.iter().zip(&want).enumerate() {
            prop_assert!(
                stable(got) == stable(want),
                "{name}, response {i} of\n{script}\n  got: {got}\n want: {want}"
            );
        }
        prop_assert_eq!(
            (served.epoch(), served.max_shots()),
            (reference.epoch(), reference.max_shots())
        );
        Ok(())
    };
    let pieces = cut(script.as_bytes(), cuts);
    let served = session(6, 4);
    let input = Pieces(pieces.clone(), None);
    let (got, _) = over_stream(served.clone(), input, patient());
    compare("serve_stream", &served, got)?;
    let served = session(6, 4);
    let (got, _) = over_tcp(served.clone(), pieces, patient());
    compare("tcp", &served, got)
}

/// A seeded stream of 1–40 lines: queries plain and decorated,
/// mutations, queries and edges that name the nodes earlier `add_node`s
/// of the same stream create (and one node past them), support
/// rotations, and everything a boundary must refuse.
fn random_script(rng: &mut StdRng) -> String {
    // How many nodes the graph has once every `add_node` so far applied.
    let mut n = NODES;
    let mut script = String::new();
    for id in 1..=rng.gen_range(1..=40u64) {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let line = match rng.gen_range(0..17) {
            0..=3 => {
                let mut q = format!("{{\"id\":{id},\"nodes\":[{u}");
                if u != v && rng.gen_bool(0.4) {
                    q.push_str(&format!(",{v}"));
                }
                q.push(']');
                if rng.gen_bool(0.6) {
                    q.push_str(&format!(",\"top_k\":{}", rng.gen_range(1..=6)));
                }
                if rng.gen_bool(0.3) {
                    q.push_str(&format!(",\"shots\":{}", rng.gen_range(1..=POOL)));
                }
                if rng.gen_bool(0.3) {
                    q.push_str(&format!(",\"attrs\":[{}]", rng.gen_range(0..ATTRS)));
                }
                q + "}"
            }
            4 | 5 => {
                n += 1;
                match rng.gen_bool(0.5) {
                    true => format!("{{\"id\":{id},\"op\":\"add_node\",\"attrs\":[]}}"),
                    false => format!(
                        "{{\"id\":{id},\"op\":\"add_node\",\"attrs\":[{}]}}",
                        rng.gen_range(0..ATTRS)
                    ),
                }
            }
            6 => format!("{{\"id\":{id},\"op\":\"add_edge\",\"u\":{u},\"v\":{v}}}"),
            // The newest node — just created by this stream, if any was.
            7 => format!(
                "{{\"id\":{id},\"op\":\"add_edge\",\"u\":{u},\"v\":{}}}",
                n - 1
            ),
            8 => format!("{{\"id\":{id},\"nodes\":[{}],\"top_k\":3}}", n - 1),
            // One past it: refused, however many nodes were added.
            9 => format!("{{\"id\":{id},\"nodes\":[{n}],\"top_k\":3}}"),
            10 => format!("{{\"id\":{id},\"op\":\"add_edge\",\"u\":{n},\"v\":{v}}}"),
            11 => {
                let add = format!("\"add\":{{\"query\":{u},\"pos\":[{v}],\"neg\":[]}}");
                let rotation = match rng.gen_range(0..3) {
                    0 => add,
                    1 => "\"expire\":1".to_string(),
                    _ => format!("{add},\"expire\":{}", rng.gen_range(1..=2)),
                };
                format!("{{\"id\":{id},\"op\":\"update_support\",{rotation}}}")
            }
            // Above the pool: clamps. Above the sanity ceiling: refused.
            12 => format!(
                "{{\"id\":{id},\"nodes\":[{u}],\"top_k\":2,\"shots\":{}}}",
                [50u64, 1 << 30][rng.gen_range(0..2usize)]
            ),
            13 => format!("{{\"id\":{id},\"op\":\"add_edge\",\"u\":{u},\"v\":{u}}}"),
            14 => format!("{{\"id\":{id},\"nodes\":[{u}],\"top_k\":0}}"),
            15 => {
                let garbage = ["not json", "{\"id\": 9, \"nodes\": \"oops\"}", "[1, 2]"];
                garbage[rng.gen_range(0..3usize)].to_string()
            }
            _ => "  ".to_string(),
        };
        script.push_str(&line);
        script.push('\n');
    }
    script
}

/// Where to cut a script into writes: nowhere (one write), a byte at a
/// time across one line boundary, or every few dozen bytes.
fn random_cuts(rng: &mut StdRng, script: &str) -> Vec<usize> {
    let len = script.len();
    match rng.gen_range(0..3) {
        0 => Vec::new(),
        1 => {
            let newlines: Vec<usize> = script.match_indices('\n').map(|(at, _)| at).collect();
            let at = newlines[rng.gen_range(0..newlines.len())];
            (at.saturating_sub(3).max(1)..(at + 4).min(len)).collect()
        }
        _ => {
            let mut at = 0;
            std::iter::from_fn(|| {
                at += rng.gen_range(1..=96usize);
                (at < len).then_some(at)
            })
            .collect()
        }
    }
}

/// The probe of ISSUE 18: at the parent commit a TCP connection answered
/// these seven lines in the order 3 4 0 1 2 5 7, refused the edge to the
/// node the stream had just created, and ended one epoch behind.
const PROBE: &str = "{\"id\":1,\"nodes\":[0],\"top_k\":2}\n\
    {\"id\":2,\"op\":\"add_node\",\"attrs\":[]}\n\
    {\"id\":3,\"op\":\"add_edge\",\"u\":0,\"v\":120}\n\
    {\"id\":4,\"nodes\":[120],\"top_k\":2}\n\
    {\"id\":5,\"nodes\":[1],\"top_k\":2}\n\
    not json\n\
    {\"id\":7,\"nodes\":[2],\"top_k\":2}\n";

#[test]
fn the_probe_is_answered_in_request_order_on_both_transports() {
    check_both_transports(PROBE, &[]).unwrap_or_else(|e| panic!("{e}"));
    // What "like the oracle" means here, spelt out once.
    let served = session(6, 4);
    let epoch0 = served.epoch();
    let (lines, report) = over_tcp(served.clone(), cut(PROBE.as_bytes(), &[]), patient());
    assert_eq!(ids(&lines), [1, 2, 3, 4, 5, 0, 7]);
    for dependent in [&lines[2], &lines[3]] {
        assert!(dependent.contains("\"ok\":true"), "{dependent}");
    }
    assert_eq!(served.epoch(), epoch0 + 2, "add_node and add_edge applied");
    // An eighth line, one node past the new one, is still refused.
    let script = format!("{PROBE}{{\"id\":8,\"nodes\":[121]}}\n");
    check_both_transports(&script, &[]).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(report.gateway.bad_requests, 1, "{:?}", report.gateway);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn both_transports_answer_a_script_like_the_engine_frame_by_frame(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let script = random_script(&mut rng);
        let cuts = random_cuts(&mut rng, &script);
        check_both_transports(&script, &cuts)?;
    }
}

// ---- What the stdin loop promised about a stream, on `serve_stream`.

#[test]
fn serves_a_stream_end_to_end() {
    let input = "{\"id\": 1, \"nodes\": [0]}\n\
                 \n\
                 {\"id\": 2, \"nodes\": [1], \"top_k\": 3}\n\
                 not json\n\
                 {\"id\": 3, \"nodes\": [99999]}\n";
    let (lines, report) = over_stream(session(5, 2), Pieces::whole(input), patient());
    assert_eq!(
        lines.len(),
        4,
        "blank line skipped, others answered: {lines:?}"
    );
    for line in &lines {
        let fields = stable(line);
        assert!(fields.iter().any(|(k, _)| k == "id"), "{line}");
        assert!(fields.iter().any(|(k, _)| k == "ok"), "{line}");
    }
    assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
    assert!(lines[1].contains("\"ok\":true"), "{}", lines[1]);
    assert!(lines[2].contains("bad request line"), "{}", lines[2]);
    assert!(lines[3].contains("out of range"), "{}", lines[3]);
    // Changed with the fold: the out-of-range node is refused at the
    // boundary — the same response bytes, but it never reaches the
    // session (the stdin loop counted 3 requests, 1 error).
    let session = report.session.expect("session summary");
    assert_eq!(session.requests, 2);
    assert_eq!(session.errors, 0);
    assert!(session.batches >= 1);
    assert_eq!(report.gateway.bad_requests, 2, "{:?}", report.gateway);
    assert_eq!(report.gateway.accepted, 1, "the stream is the connection");
}

#[test]
fn parse_failures_echo_a_recoverable_id_and_typed_code() {
    // Bad `nodes` after a good id; then garbage with no id at all.
    let input = "{\"id\": 41, \"nodes\": \"oops\"}\nnot json\n";
    let (lines, _) = over_stream(session(5, 2), Pieces::whole(input), patient());
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert_eq!(ids(&lines), [41, 0]);
    for line in &lines {
        assert!(line.contains("\"code\":\"bad_request\""), "{line}");
    }
}

#[test]
fn all_malformed_ticks_answer_without_counting_batches() {
    let input = "garbage\nmore garbage\n";
    let (lines, report) = over_stream(session(5, 2), Pieces::whole(input), patient());
    assert_eq!(lines.len(), 2, "every bad line gets a response");
    assert!(
        lines.iter().all(|l| l.contains("bad request line")),
        "{lines:?}"
    );
    let session = report.session.expect("session summary");
    assert_eq!(session.requests, 0);
    assert_eq!(session.batches, 0, "no real request, no batch counted");
    assert_eq!(session.mean_batch_occupancy, 0.0);
}

#[test]
fn write_failure_returns_instead_of_deadlocking_the_reader() {
    /// A writer whose pipe consumer has gone away.
    struct BrokenPipe;
    impl Write for BrokenPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(ErrorKind::BrokenPipe.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    // Megabytes of input, far beyond what the socket pair and the
    // gateway's buffers hold: the copy into the gateway is blocked on a
    // full socket when the first answer fails to be written, and must be
    // failed too for `serve_stream` to return.
    let input: String = (0..100_000)
        .map(|i| format!("{}\n", request_line(i, 0)))
        .collect();
    assert!(input.len() > 2 << 20);
    let engine = Arc::new(EchoEngine::new(20));
    let err = Gateway::serve_stream(engine, input.as_bytes(), BrokenPipe, patient())
        .expect_err("write failure must surface");
    assert_eq!(err.kind(), ErrorKind::BrokenPipe);
}

#[test]
fn read_errors_surface_as_err_not_clean_eof() {
    let first = b"{\"id\": 1, \"nodes\": [0]}\n".to_vec();
    let input = Pieces(
        VecDeque::from([first]),
        Some(std::io::Error::new(ErrorKind::TimedOut, "flaky mount")),
    );
    let mut out = Vec::new();
    let err = Gateway::serve_stream(session(5, 2), input, &mut out, patient())
        .expect_err("mid-stream read failure must not look like EOF");
    assert_eq!(err.kind(), ErrorKind::TimedOut);
    // The request received before the failure was still answered.
    let lines = lines_of(out);
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
}

/// Changed with the fold: `BufRead::lines` turned a line of invalid
/// UTF-8 into an `io::Error` and the stdin loop stopped serving; the
/// gateway's framing decodes lossily, so it is one malformed line.
#[test]
fn invalid_utf8_is_one_bad_request_and_the_stream_goes_on() {
    let mut input = b"{\"id\": 1, \"nodes\": [0]}\n".to_vec();
    input.extend_from_slice(&[0xff, 0xfe, b'\n']);
    input.extend_from_slice(b"{\"id\": 3, \"nodes\": [1]}\n");
    let (lines, _) = over_stream(session(5, 2), Pieces::whole(input), patient());
    assert_eq!(ids(&lines), [1, 0, 3]);
    assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
    assert!(
        lines[1].contains("\"code\":\"bad_request\""),
        "{}",
        lines[1]
    );
    assert!(lines[2].contains("\"ok\":true"), "{}", lines[2]);
}

/// Changed with the fold: the stdin loop buffered a line of any length.
#[test]
fn a_line_over_the_bound_gets_one_bad_request() {
    let cfg = GatewayConfig {
        max_line_bytes: 2048,
        ..patient()
    };
    let input = format!(
        "{}\n{}\n{}\n",
        request_line(1, 0),
        "x".repeat(20_000),
        request_line(3, 1)
    );
    let (lines, report) = over_stream(session(5, 2), Pieces::whole(input), cfg);
    assert_eq!(ids(&lines), [1, 0, 3]);
    assert!(lines[1].contains("exceeds 2048 bytes"), "{}", lines[1]);
    assert_eq!(report.gateway.bad_requests, 1);
}

#[test]
fn last_line_without_newline_is_answered() {
    let input = format!("{}\n{}", request_line(1, 0), request_line(2, 1));
    let (lines, _) = over_stream(session(5, 2), Pieces::whole(input), patient());
    assert_eq!(ids(&lines), [1, 2]);
    assert!(lines[1].contains("\"ok\":true"), "{}", lines[1]);
}

#[test]
fn control_frames_interleave_with_queries() {
    let s = session(5, 2);
    let epoch0 = s.epoch();
    let input = "{\"id\": 1, \"nodes\": [0]}\n\
                 {\"id\": 2, \"op\": \"add_edge\", \"u\": 0, \"v\": 7}\n\
                 {\"id\": 3, \"nodes\": [0]}\n\
                 {\"id\": 4, \"op\": \"update_support\", \"add\": {\"query\": 1, \"pos\": [2]}}\n\
                 {\"id\": 5, \"op\": \"add_edge\", \"u\": 9, \"v\": 9}\n";
    let (lines, report) = over_stream(s.clone(), Pieces::whole(input), patient());
    // Responses preserve arrival order.
    assert_eq!(ids(&lines), [1, 2, 3, 4, 5]);
    let epochs: Vec<u64> = lines.iter().map(|l| num(l, "epoch")).collect();
    assert!(lines[1].contains("\"ok\":true"), "{}", lines[1]);
    assert!(lines[4].contains("self-loop"), "{}", lines[4]);
    // The edge insert bumped the epoch; the query after it was answered
    // under the new one; epochs never regress.
    assert_eq!(epochs[..3], [epoch0, epoch0 + 1, epoch0 + 1]);
    assert!(epochs.windows(2).all(|w| w[0] <= w[1] || w[1] == 0));
    assert_eq!(
        s.epoch(),
        epoch0 + 1,
        "support update leaves the graph epoch"
    );
    let session = report.session.expect("session summary");
    assert_eq!(session.updates, 2, "rejected self-loop is not an update");
    assert_eq!(s.max_shots(), 4, "support example appended");
}

#[test]
fn summary_counts_batches_and_latency() {
    let input: String = (0..6)
        .map(|i| format!("{}\n", request_line(i, i as usize % 3)))
        .collect();
    let (lines, report) = over_stream(session(5, 2), Pieces::whole(input), patient());
    assert_eq!(lines.len(), 6);
    let session = report.session.as_ref().expect("session summary");
    assert_eq!(session.requests, 6);
    assert_eq!(session.errors, 0);
    assert!(session.mean_batch_occupancy >= 1.0);
    assert!(session.latency_p95_us >= session.latency_p50_us);
    // The report the CLI prints is well-formed, session object included.
    let json = serde_json::to_string(&report).unwrap();
    assert!(serde::json::parse(&json).is_ok(), "{json}");
    assert!(json.contains("\"latency_p50_us\""), "{json}");
    // Blocking on readiness reaches this front-end too: a handful of
    // waits per tick, not a spin.
    assert!(report.gateway.polls < 60, "{:?}", report.gateway);
}

/// A reply held back behind an answer still owed is waiting for the
/// batcher, not for room in the socket. Polled for room on its account,
/// the socket is ready every time with nothing to write: the first cut
/// of in-order release made 168 675 polls in the 0.3 s this stream takes.
#[test]
fn a_held_reply_does_not_poll_the_socket_for_room() {
    let engine = Arc::new(EchoEngine {
        delay: Duration::from_millis(150),
        batch: 1,
        ..EchoEngine::new(20)
    });
    let input = format!("{}\n{}\nnot json\n", request_line(1, 0), request_line(2, 1));
    let (lines, report) = over_stream(engine, Pieces::whole(input), patient());
    assert_eq!(ids(&lines), [1, 2, 0], "the error line waits its turn");
    assert!(report.gateway.polls < 40, "{:?}", report.gateway);
}
