//! The fault-injection matrix from the gateway's design brief: every
//! test drives a real gateway over loopback TCP with scripted
//! misbehaving clients, and asserts the server answers everyone it
//! accepted, sheds what it must, and survives what it cannot serve.

use std::sync::Arc;
use std::time::Duration;

use cgnp_core::{Cgnp, CgnpConfig};
use cgnp_data::{generate_sbm, model_input_dim, SbmConfig};
use cgnp_gateway::testing::{
    request_line, run_script, Action, EchoEngine, FaultInjectingEngine, QuietPanics,
};
use cgnp_gateway::{Gateway, GatewayConfig, GatewayHandle, QueryEngine};
use cgnp_serve::{serve_task, QueryRequest, ServeConfig, ServeSession};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn start(engine: Arc<dyn QueryEngine>, cfg: GatewayConfig) -> GatewayHandle {
    Gateway::start(engine, "127.0.0.1:0", cfg).expect("bind loopback")
}

fn field<'v>(pairs: &'v [(String, serde::json::Value)], key: &str) -> &'v serde::json::Value {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("response missing {key:?}"))
}

fn parse(line: &str) -> Vec<(String, serde::json::Value)> {
    match serde::json::parse(line) {
        Ok(serde::json::Value::Obj(pairs)) => pairs,
        other => panic!("response not an object: {other:?} in {line}"),
    }
}

fn code_of(line: &str) -> Option<String> {
    match field(&parse(line), "code") {
        serde::json::Value::Str(s) => Some(s.clone()),
        _ => None,
    }
}

fn id_of(line: &str) -> u64 {
    match field(&parse(line), "id") {
        serde::json::Value::Num(n) => *n as u64,
        other => panic!("bad id {other:?}"),
    }
}

/// A real model-backed session on a small deterministic graph.
fn session(seed: u64) -> ServeSession {
    let ag = generate_sbm(&SbmConfig::small_test(), &mut StdRng::seed_from_u64(seed));
    let task = serve_task(&ag, 3, seed).expect("support pool");
    let cfg = CgnpConfig::paper_default(model_input_dim(&task.graph), 8);
    let model = Cgnp::new(cfg, seed);
    ServeSession::new(
        model,
        task,
        ServeConfig {
            batch: 4,
            threads: 1,
            seed,
            ..Default::default()
        },
    )
    .expect("session")
}

#[test]
fn well_formed_concurrent_clients_round_trip() {
    let handle = start(Arc::new(EchoEngine::new(50)), GatewayConfig::default());
    let addr = handle.addr();
    let clients: Vec<_> = (0..4)
        .map(|c| {
            std::thread::spawn(move || {
                let script: Vec<Action> = (0..5)
                    .flat_map(|i| {
                        [
                            Action::SendLine(request_line(c * 100 + i, i as usize)),
                            Action::ReadLines(1),
                        ]
                    })
                    .collect();
                run_script(addr, &script).expect("script runs")
            })
        })
        .collect();
    for (c, t) in clients.into_iter().enumerate() {
        let lines = t.join().expect("client thread");
        assert_eq!(lines.len(), 5);
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(id_of(line), c as u64 * 100 + i as u64, "{line}");
            assert!(line.contains("\"ok\":true"), "{line}");
        }
    }
    let report = handle.join();
    assert_eq!(report.gateway.accepted, 4);
    assert_eq!(report.gateway.requests, 20);
    assert_eq!(report.gateway.responses, 20);
    assert_eq!(report.gateway.shed, 0);
    assert_eq!(report.gateway.panics_caught, 0);
}

#[test]
fn disconnect_with_request_in_flight_leaves_server_healthy() {
    let engine = Arc::new(EchoEngine {
        delay: Duration::from_millis(100),
        batch: 1,
        ..EchoEngine::new(20)
    });
    let handle = start(engine, GatewayConfig::default());
    let addr = handle.addr();
    // Client A: two requests; the first answer lands unread in its
    // receive buffer, then it vanishes mid-scoring of the second. The
    // unread data turns the close into a hard reset, so the server
    // reaps the connection while request 2 is still in flight — its
    // answer is orphaned, never misdelivered.
    run_script(
        addr,
        &[
            Action::SendLine(request_line(1, 0)),
            Action::SendLine(request_line(2, 0)),
            Action::Sleep(Duration::from_millis(150)),
            Action::Disconnect,
        ],
    )
    .expect("script runs");
    // Client B: full service while A's orphaned response is dropped.
    let lines = run_script(
        addr,
        &[Action::SendLine(request_line(3, 1)), Action::ReadLines(1)],
    )
    .expect("script runs");
    assert_eq!(id_of(&lines[0]), 3);
    assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
    let report = handle.join();
    assert_eq!(report.gateway.requests, 3, "all requests admitted");
    assert_eq!(
        report.gateway.responses + report.gateway.orphaned_responses,
        3,
        "every admitted request produced exactly one answer: {:?}",
        report.gateway
    );
    assert_eq!(report.gateway.orphaned_responses, 1);
}

#[test]
fn half_written_line_then_close_gets_bad_request() {
    let handle = start(Arc::new(EchoEngine::new(20)), GatewayConfig::default());
    let addr = handle.addr();
    let lines = run_script(
        addr,
        &[
            Action::SendRaw(b"{\"id\": 5, \"nodes\": [0".to_vec()),
            Action::CloseWrite,
            Action::ReadLines(1),
        ],
    )
    .expect("script runs");
    assert_eq!(code_of(&lines[0]).as_deref(), Some("bad_request"));
    assert!(lines[0].contains("mid-line"), "{}", lines[0]);
    // The server is unaffected for the next client.
    let lines = run_script(
        addr,
        &[Action::SendLine(request_line(6, 1)), Action::ReadLines(1)],
    )
    .expect("script runs");
    assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
}

#[test]
fn garbage_frames_are_answered_and_survived() {
    let cfg = GatewayConfig {
        max_line_bytes: 2048,
        ..GatewayConfig::default()
    };
    let handle = start(Arc::new(EchoEngine::new(20)), cfg);
    let addr = handle.addr();
    let oversized = "x".repeat(5000);
    let lines = run_script(
        addr,
        &[
            Action::SendLine("not json at all".into()),
            Action::ReadLines(1),
            Action::SendLine(oversized),
            Action::ReadLines(1),
            // Bad id type but well-formed JSON: id recoverable? no — id
            // is the broken field, so the error echoes id 0.
            Action::SendLine("{\"id\": \"seven\", \"nodes\": [0]}".into()),
            Action::ReadLines(1),
            // Invalid fields after a good id: the id is echoed back.
            Action::SendLine("{\"id\": 31, \"nodes\": [0], \"top_k\": 0}".into()),
            Action::ReadLines(1),
            Action::SendLine(request_line(8, 3)),
            Action::ReadLines(1),
        ],
    )
    .expect("script runs");
    assert_eq!(code_of(&lines[0]).as_deref(), Some("bad_request"));
    assert_eq!(code_of(&lines[1]).as_deref(), Some("bad_request"));
    assert!(lines[1].contains("exceeds"), "{}", lines[1]);
    assert_eq!(code_of(&lines[2]).as_deref(), Some("bad_request"));
    assert_eq!(code_of(&lines[3]).as_deref(), Some("bad_request"));
    assert_eq!(id_of(&lines[3]), 31, "recoverable id echoed on error");
    assert!(lines[4].contains("\"ok\":true"), "{}", lines[4]);
    let report = handle.join();
    assert_eq!(report.gateway.bad_requests, 4);
    assert_eq!(report.gateway.requests, 1, "only the valid line queued");
}

#[test]
fn byte_at_a_time_writer_is_served() {
    let handle = start(Arc::new(EchoEngine::new(20)), GatewayConfig::default());
    let line = request_line(77, 2);
    let lines = run_script(
        handle.addr(),
        &[
            Action::SendByteAtATime(format!("{line}\n").into_bytes(), Duration::from_millis(1)),
            Action::ReadLines(1),
        ],
    )
    .expect("script runs");
    assert_eq!(id_of(&lines[0]), 77);
    assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
}

#[test]
fn slowloris_reader_is_backpressured_not_buffered() {
    // Big responses (~9 KB each), a reader that sends 1000 requests and
    // reads nothing until the end. Without backpressure the server
    // would buffer ~9 MB; with it, unflushed bytes cap near
    // `write_buffer_limit` and the unread requests wait in the kernel.
    const REQUESTS: u64 = 1000;
    let cfg = GatewayConfig {
        max_queue: 64,
        max_inflight_per_conn: 8,
        write_buffer_limit: 32 * 1024,
        request_timeout: None,
        ..GatewayConfig::default()
    };
    let handle = start(Arc::new(EchoEngine::new(1000)), cfg);
    let mut script: Vec<Action> = (0..REQUESTS)
        .map(|i| Action::SendLine(request_line(i, i as usize % 1000)))
        .collect();
    script.push(Action::Sleep(Duration::from_millis(300)));
    script.push(Action::ReadLines(REQUESTS as usize));
    let lines = run_script(handle.addr(), &script).expect("script runs");
    assert_eq!(lines.len() as u64, REQUESTS, "no response dropped");
    assert!(lines.iter().all(|l| l.contains("\"ok\":true")));
    let report = handle.join();
    assert_eq!(report.gateway.requests, REQUESTS);
    assert_eq!(report.gateway.responses, REQUESTS);
    assert_eq!(report.gateway.shed, 0, "backpressure, not shedding");
    // The cap: the configured limit plus at most one in-flight quota of
    // responses that were already owed when the pause engaged.
    let cap = 32 * 1024 + 8 * 16 * 1024;
    assert!(
        report.gateway.peak_buffered_bytes < cap as u64,
        "peak buffered {} bytes must stay under {} (unbounded buffering?)",
        report.gateway.peak_buffered_bytes,
        cap
    );
}

#[test]
fn stalled_reader_does_not_block_other_clients() {
    let handle = start(
        Arc::new(EchoEngine::new(400)),
        GatewayConfig {
            write_buffer_limit: 16 * 1024,
            ..GatewayConfig::default()
        },
    );
    let addr = handle.addr();
    // The slowloris: floods requests, never reads.
    let stalled = std::thread::spawn(move || {
        let mut script: Vec<Action> = (0..200)
            .map(|i| Action::SendLine(request_line(1000 + i, 0)))
            .collect();
        script.push(Action::Sleep(Duration::from_millis(400)));
        script.push(Action::Disconnect);
        run_script(addr, &script).expect("script runs");
    });
    std::thread::sleep(Duration::from_millis(100));
    // A healthy client gets timely answers while the stall is live.
    let t0 = std::time::Instant::now();
    let lines = run_script(
        addr,
        &[Action::SendLine(request_line(1, 5)), Action::ReadLines(1)],
    )
    .expect("script runs");
    assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "healthy client waited {:?} behind a stalled reader",
        t0.elapsed()
    );
    stalled.join().expect("stalled client thread");
}

#[test]
fn overload_sheds_with_structured_response() {
    const SENT: u64 = 30;
    let engine = Arc::new(EchoEngine {
        delay: Duration::from_millis(30),
        batch: 1,
        ..EchoEngine::new(20)
    });
    let cfg = GatewayConfig {
        max_queue: 4,
        max_inflight_per_conn: 64,
        request_timeout: None,
        ..GatewayConfig::default()
    };
    let handle = start(engine, cfg);
    let mut script: Vec<Action> = (0..SENT)
        .map(|i| Action::SendLine(request_line(i, 1)))
        .collect();
    script.push(Action::ReadLines(SENT as usize));
    let lines = run_script(handle.addr(), &script).expect("script runs");
    let ok = lines.iter().filter(|l| l.contains("\"ok\":true")).count() as u64;
    let shed = lines
        .iter()
        .filter(|l| code_of(l).as_deref() == Some("overloaded"))
        .count() as u64;
    assert_eq!(ok + shed, SENT, "every request answered exactly once");
    assert!(shed > 0, "queue of 4 must shed a burst of {SENT}");
    assert!(ok >= 1, "admitted requests still answered");
    let report = handle.join();
    assert_eq!(report.gateway.shed, shed);
    assert_eq!(report.gateway.requests, ok);
}

#[test]
fn expired_requests_answer_timeout_and_are_never_scored() {
    let engine = Arc::new(FaultInjectingEngine::new(EchoEngine::new(20), []));
    let cfg = GatewayConfig {
        // Deadline == admission instant: everything expires before the
        // batcher can pop it. Deterministic by monotonicity.
        request_timeout: Some(Duration::ZERO),
        ..GatewayConfig::default()
    };
    let handle = start(Arc::clone(&engine) as Arc<dyn QueryEngine>, cfg);
    let lines = run_script(
        handle.addr(),
        &[
            Action::SendLine(request_line(1, 0)),
            Action::SendLine(request_line(2, 1)),
            Action::ReadLines(2),
        ],
    )
    .expect("script runs");
    for line in &lines {
        assert_eq!(code_of(line).as_deref(), Some("timeout"), "{line}");
    }
    let ids: Vec<u64> = lines.iter().map(|l| id_of(l)).collect();
    assert_eq!(ids, vec![1, 2], "timeout responses echo request ids");
    let report = handle.join();
    assert_eq!(report.gateway.timed_out, 2);
    assert!(
        engine.scored_ids().is_empty(),
        "expired requests must never reach scoring: {:?}",
        engine.scored_ids()
    );
}

#[test]
fn connection_limit_refuses_with_overloaded() {
    let handle = start(
        Arc::new(EchoEngine::new(20)),
        GatewayConfig {
            max_conns: 1,
            ..GatewayConfig::default()
        },
    );
    let addr = handle.addr();
    // Hold one connection open...
    let holder = std::net::TcpStream::connect(addr).expect("first connection");
    std::thread::sleep(Duration::from_millis(50));
    // ...so the second is refused with a structured notice.
    let lines = run_script(addr, &[Action::ReadLines(1)]).expect("script runs");
    assert_eq!(code_of(&lines[0]).as_deref(), Some("overloaded"));
    drop(holder);
    let report = handle.join();
    assert_eq!(report.gateway.accepted, 1);
    assert_eq!(report.gateway.rejected_conns, 1);
}

#[test]
fn panicking_request_is_isolated_from_its_batch() {
    let _quiet = QuietPanics::new();
    let engine = Arc::new(FaultInjectingEngine::new(EchoEngine::new(20), [7u64]));
    let handle = start(
        Arc::clone(&engine) as Arc<dyn QueryEngine>,
        GatewayConfig::default(),
    );
    let lines = run_script(
        handle.addr(),
        &[
            Action::SendLine(request_line(6, 0)),
            Action::SendLine(request_line(7, 1)),
            Action::SendLine(request_line(8, 2)),
            Action::ReadLines(3),
        ],
    )
    .expect("script runs");
    let by_id = |id: u64| {
        lines
            .iter()
            .find(|l| id_of(l) == id)
            .unwrap_or_else(|| panic!("no response for {id}"))
    };
    assert!(by_id(6).contains("\"ok\":true"), "{}", by_id(6));
    assert!(by_id(8).contains("\"ok\":true"), "{}", by_id(8));
    assert_eq!(code_of(by_id(7)).as_deref(), Some("internal"));
    assert!(by_id(7).contains("isolated"), "{}", by_id(7));
    let report = handle.join();
    assert_eq!(report.gateway.panics_caught, 1);
    assert_eq!(report.gateway.responses, 3);
}

/// The acceptance criterion: after a panicking request, a mid-request
/// disconnect, and a stalled reader, the server answers subsequent
/// well-formed requests **bitwise-identically** to a fresh
/// single-client session over the same checkpointed model.
#[test]
fn faults_leave_scoring_bitwise_identical_to_fresh_session() {
    let _quiet = QuietPanics::new();
    let poisoned = Arc::new(FaultInjectingEngine::new(session(9), [99u64]));
    let fresh = session(9);
    let handle = start(
        Arc::clone(&poisoned) as Arc<dyn QueryEngine>,
        GatewayConfig {
            write_buffer_limit: 8 * 1024,
            ..GatewayConfig::default()
        },
    );
    let addr = handle.addr();

    // Fault 1: a panicking request.
    let lines = run_script(
        addr,
        &[Action::SendLine(request_line(99, 0)), Action::ReadLines(1)],
    )
    .expect("script runs");
    assert_eq!(code_of(&lines[0]).as_deref(), Some("internal"));

    // Fault 2: mid-request disconnect.
    run_script(
        addr,
        &[Action::SendLine(request_line(50, 1)), Action::Disconnect],
    )
    .expect("script runs");

    // Fault 3: a stalled reader that floods and leaves.
    run_script(
        addr,
        &[
            Action::SendRaw(
                (0..100)
                    .map(|i| format!("{}\n", request_line(200 + i, 2)))
                    .collect::<String>()
                    .into_bytes(),
            ),
            Action::Sleep(Duration::from_millis(200)),
            Action::Disconnect,
        ],
    )
    .expect("script runs");

    // Now: well-formed requests through the battered gateway must be
    // bitwise what an untouched session answers.
    let n = QueryEngine::n(&fresh);
    let queries: Vec<usize> = vec![0, 1, n / 2, n - 1];
    let script: Vec<Action> = queries
        .iter()
        .enumerate()
        .flat_map(|(i, &q)| {
            [
                Action::SendLine(request_line(300 + i as u64, q)),
                Action::ReadLines(1),
            ]
        })
        .collect();
    let lines = run_script(addr, &script).expect("script runs");
    for (i, (&q, line)) in queries.iter().zip(&lines).enumerate() {
        let expected = fresh.answer(&QueryRequest::new(300 + i as u64, vec![q]));
        assert!(expected.ok, "oracle answer must be ok");
        let got = parse(line);
        let want = parse(&expected.to_json());
        assert_eq!(
            field(&got, "members"),
            field(&want, "members"),
            "members diverged after faults for query {q}"
        );
        assert_eq!(
            field(&got, "probs"),
            field(&want, "probs"),
            "probabilities diverged after faults for query {q}"
        );
        assert_eq!(field(&got, "shots"), field(&want, "shots"));
        assert!(line.contains("\"ok\":true"), "{line}");
    }
    let report = handle.join();
    assert_eq!(report.gateway.panics_caught, 1);
}

#[test]
fn graceful_drain_answers_every_accepted_request() {
    let engine = Arc::new(EchoEngine {
        delay: Duration::from_millis(40),
        batch: 2,
        ..EchoEngine::new(20)
    });
    let cfg = GatewayConfig {
        max_inflight_per_conn: 32,
        request_timeout: None,
        drain_grace: Duration::from_secs(10),
        ..GatewayConfig::default()
    };
    let handle = start(engine, cfg);
    let addr = handle.addr();
    const SENT: usize = 10;
    let client = std::thread::spawn(move || {
        let mut script: Vec<Action> = (0..SENT as u64)
            .map(|i| Action::SendLine(request_line(i, 0)))
            .collect();
        script.push(Action::ReadLines(SENT));
        run_script(addr, &script).expect("script runs")
    });
    // Let the requests be admitted, then drain mid-flight: 10 requests
    // at 2/tick × 40 ms means well over half are still unanswered.
    std::thread::sleep(Duration::from_millis(100));
    handle.drain();
    let report = handle.join();
    let lines = client.join().expect("client thread");
    assert_eq!(lines.len(), SENT, "all accepted requests answered");
    assert!(lines.iter().all(|l| l.contains("\"ok\":true")));
    assert_eq!(report.gateway.requests, SENT as u64);
    assert_eq!(report.gateway.responses, SENT as u64);
    assert!(
        report.gateway.drained_in_flight > 0,
        "drain must have been signalled with work in flight"
    );
    assert_eq!(report.gateway.timed_out, 0);
    assert_eq!(report.gateway.orphaned_responses, 0);
}

#[test]
fn session_summary_rides_along_in_the_report() {
    let handle = start(Arc::new(session(3)), GatewayConfig::default());
    let lines = run_script(
        handle.addr(),
        &[Action::SendLine(request_line(1, 0)), Action::ReadLines(1)],
    )
    .expect("script runs");
    assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
    let report = handle.join();
    let session = report
        .session
        .as_ref()
        .expect("sessions report their summary");
    assert_eq!(session.requests, 1);
    let json = serde_json::to_string(&report).unwrap();
    assert!(json.contains("\"gateway\""), "{json}");
    assert!(json.contains("\"latency_p50_us\""), "{json}");
}

#[test]
fn live_updates_serialize_with_queries_and_advance_the_epoch() {
    let engine = Arc::new(session(6));
    let epoch0 = {
        let s: &ServeSession = &engine;
        s.epoch()
    };
    let handle = start(engine.clone(), GatewayConfig::default());
    let lines = run_script(
        handle.addr(),
        &[
            Action::SendLine(request_line(1, 0)),
            Action::ReadLines(1),
            Action::SendLine("{\"id\": 2, \"op\": \"add_edge\", \"u\": 0, \"v\": 9}".into()),
            Action::ReadLines(1),
            Action::SendLine(request_line(3, 0)),
            Action::ReadLines(1),
            Action::SendLine(
                "{\"id\": 4, \"op\": \"update_support\", \"add\": {\"query\": 2, \"pos\": [3]}}"
                    .into(),
            ),
            Action::ReadLines(1),
            // Validation failures are answered at the boundary and never
            // consume a scoring tick.
            Action::SendLine("{\"id\": 5, \"op\": \"add_edge\", \"u\": 0, \"v\": 999999}".into()),
            Action::ReadLines(1),
        ],
    )
    .expect("script runs");
    assert_eq!(lines.len(), 5);
    let epoch_of = |line: &str| -> u64 {
        match field(&parse(line), "epoch") {
            serde::json::Value::Num(n) => *n as u64,
            other => panic!("bad epoch {other:?}"),
        }
    };
    for (i, line) in lines.iter().take(4).enumerate() {
        assert_eq!(id_of(line), i as u64 + 1, "{line}");
        assert!(line.contains("\"ok\":true"), "{line}");
    }
    assert_eq!(epoch_of(&lines[0]), epoch0);
    assert_eq!(
        epoch_of(&lines[1]),
        epoch0 + 1,
        "add_edge ack carries the new epoch"
    );
    assert_eq!(
        epoch_of(&lines[2]),
        epoch0 + 1,
        "query admitted after the update answers under the new epoch"
    );
    assert_eq!(code_of(&lines[4]).as_deref(), Some("bad_request"));
    assert!(lines[4].contains("out of range"), "{}", lines[4]);
    let report = handle.join();
    assert_eq!(report.gateway.panics_caught, 0);
    let session = report.session.expect("session summary");
    assert_eq!(
        session.updates, 2,
        "rejected update never reached the engine"
    );
    assert_eq!(session.epoch, epoch0 + 1);
}

// ---- The event loop blocks on readiness: who wakes it, and what must not.

/// Drains and joins, failing — instead of hanging the suite — when a
/// parked thread is never woken. Returns the report and how long the
/// drain took.
fn join_within(handle: GatewayHandle, limit: Duration) -> (cgnp_gateway::GatewayReport, Duration) {
    let t0 = std::time::Instant::now();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        // The receiver is gone only if the limit already failed the test.
        let _ = tx.send(handle.join());
    });
    let report = rx
        .recv_timeout(limit)
        .unwrap_or_else(|_| panic!("drain still not finished after {limit:?}"));
    (report, t0.elapsed())
}

#[test]
fn idle_gateway_parks_instead_of_polling() {
    let handle = start(Arc::new(EchoEngine::new(20)), GatewayConfig::default());
    let idle = std::net::TcpStream::connect(handle.addr()).expect("connect");
    std::thread::sleep(Duration::from_millis(100));
    let before = handle.stats();
    assert_eq!(before.accepted, 1, "the connection is open and polled");
    std::thread::sleep(Duration::from_millis(300));
    let after = handle.stats();
    // No timer and no spin: with nothing ready, the wait does not return.
    assert!(
        after.polls - before.polls <= 2,
        "an idle gateway woke {} times in 300 ms",
        after.polls - before.polls
    );
    assert_eq!(after.wakes, 0, "nobody had anything to tell the loop");
    drop(idle);
    handle.join();
}

#[test]
fn hang_up_behind_paused_reads_does_not_spin_the_loop() {
    let engine = Arc::new(EchoEngine {
        delay: Duration::from_millis(200),
        batch: 1,
        ..EchoEngine::new(20)
    });
    let cfg = GatewayConfig {
        max_inflight_per_conn: 1,
        ..GatewayConfig::default()
    };
    let handle = start(engine, cfg);
    // Three requests in one gulp against a quota of one: the second is
    // admitted when the first is answered (at ~200 ms), the third waits
    // behind it, and the connection's reads stay paused throughout. The
    // client leaves at ~300 ms with the first answer unread, which turns
    // its close into a reset: from then until the second answer is due
    // (~400 ms) the server holds a hung-up socket it can neither read
    // nor write.
    run_script(
        handle.addr(),
        &[
            Action::SendRaw(
                (1..=3)
                    .map(|id| format!("{}\n", request_line(id, 0)))
                    .collect::<String>()
                    .into_bytes(),
            ),
            Action::Sleep(Duration::from_millis(300)),
            Action::Disconnect,
        ],
    )
    .expect("script runs");
    let before = handle.stats().polls;
    std::thread::sleep(Duration::from_millis(60));
    let during = handle.stats().polls - before;
    assert!(
        during <= 3,
        "the loop woke {during} times in 60 ms for a hang-up it cannot act on"
    );
    // The server is as healthy as ever for the next client.
    let lines = run_script(
        handle.addr(),
        &[Action::SendLine(request_line(9, 1)), Action::ReadLines(1)],
    )
    .expect("script runs");
    assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
    let report = handle.join();
    assert_eq!(
        report.gateway.responses + report.gateway.orphaned_responses,
        report.gateway.requests,
        "every admitted request produced exactly one answer: {:?}",
        report.gateway
    );
    assert!(
        report.gateway.polls < 100,
        "whole run: {:?}",
        report.gateway
    );
}

#[test]
fn response_finished_while_parked_reaches_a_silent_client() {
    let engine = Arc::new(EchoEngine {
        delay: Duration::from_millis(20),
        ..EchoEngine::new(20)
    });
    let handle = start(engine, GatewayConfig::default());
    // One request and then silence: for the 20 ms the engine takes, no
    // socket has anything for the loop, so only the batcher's wake can
    // get the answer out (a missing one shows as the read timing out).
    let lines = run_script(
        handle.addr(),
        &[Action::SendLine(request_line(1, 0)), Action::ReadLines(1)],
    )
    .expect("the answer arrives without further client traffic");
    assert_eq!(id_of(&lines[0]), 1);
    assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
    let report = handle.join();
    assert!(report.gateway.wakes >= 1, "{:?}", report.gateway);
    assert!(report.gateway.polls < 50, "{:?}", report.gateway);
}

#[test]
fn drain_while_parked_does_not_wait_for_the_grace_period() {
    let cfg = GatewayConfig {
        drain_grace: Duration::from_secs(60),
        ..GatewayConfig::default()
    };
    let handle = start(Arc::new(EchoEngine::new(20)), cfg);
    let idle = std::net::TcpStream::connect(handle.addr()).expect("connect");
    // Long enough for both threads to have parked: the event loop in its
    // wait, the batcher on the empty queue — neither with a timeout.
    std::thread::sleep(Duration::from_millis(100));
    // Well inside the 60 s grace, which nothing here should wait out.
    let (report, _) = join_within(handle, Duration::from_secs(20));
    assert!(report.gateway.wakes >= 1, "drain wakes the loop");
    drop(idle);
}

#[test]
fn stalled_reader_forces_the_exit_at_drain_grace() {
    const GRACE: Duration = Duration::from_millis(300);
    let cfg = GatewayConfig {
        max_inflight_per_conn: 8,
        write_buffer_limit: 16 * 1024,
        request_timeout: None,
        drain_grace: GRACE,
        ..GatewayConfig::default()
    };
    let handle = start(Arc::new(EchoEngine::new(1000)), cfg);
    let addr = handle.addr();
    // ~9 KB per response and more of them than any socket buffer holds,
    // to a client that never reads: the server ends up with bytes it
    // cannot flush, whatever the kernel's buffer sizes.
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let stalled = std::thread::spawn(move || {
        use std::io::Write;
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        let flood: String = (0..4000)
            .map(|i| format!("{}\n", request_line(i, 0)))
            .collect();
        // Blocks once the server stops reading, and fails once it exits.
        let _ = stream.write_all(flood.as_bytes());
        let _ = done_rx.recv();
    });
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while handle.stats().peak_buffered_bytes == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "the reader never stalled the server: {:?}",
            handle.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let (report, took) = join_within(handle, GRACE + Duration::from_secs(10));
    assert!(
        took >= GRACE,
        "drain gave up on unflushed bytes after {took:?}, before the {GRACE:?} grace"
    );
    // Parked on a socket that never turns writable, not spinning on it.
    assert!(report.gateway.polls < 5_000, "{:?}", report.gateway);
    done_tx.send(()).expect("stalled client is waiting");
    stalled.join().expect("stalled client thread");
}
