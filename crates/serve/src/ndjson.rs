//! The streaming NDJSON front-end: a reader thread feeds a bounded
//! channel, and the serving loop coalesces whatever has arrived — up to
//! the micro-batch bound — into one [`QueryEngine::answer_batch`] tick.
//!
//! The coalescing is load-adaptive with no timers: while a tick is being
//! computed, new lines pile up in the channel, so a saturated client
//! naturally fills batches while an idle one gets single-request latency
//! (the first `recv` blocks, then `try_recv` drains without waiting).

use std::io::{BufRead, Write};
use std::sync::mpsc::{sync_channel, TryRecvError};

use crate::engine::QueryEngine;
use crate::protocol::{
    parse_frame, ErrorCode, Frame, ParseError, QueryRequest, QueryResponse, UpdateRequest,
};
use crate::session::ServeSummary;

/// One inbound line: a parsed frame or a parse error to report.
type Inbound = Result<Frame, ParseError>;

/// Serves NDJSON requests from `input` to `output` until EOF, then
/// returns the engine's serving summary. Responses preserve arrival
/// order within a tick; malformed lines produce `ok: false` /
/// `code: "bad_request"` responses without stopping the stream, echoing
/// the request id whenever one was recoverable from the line (`id: 0`
/// otherwise). A *read* failure on `input` (as opposed to a malformed
/// line) stops serving and returns the `io::Error` after answering
/// everything already received.
///
/// Contiguous runs of control frames within a tick are applied through
/// [`QueryEngine::apply_updates`], so a burst of mutations pays for one
/// operator refresh instead of one per frame.
pub fn serve_ndjson<E: QueryEngine + ?Sized>(
    engine: &E,
    input: impl BufRead + Send,
    output: &mut impl Write,
) -> std::io::Result<ServeSummary> {
    let batch = engine.batch().max(1);
    let (tx, rx) = sync_channel::<Inbound>(4 * batch);
    // A mid-stream read failure (broken pipe, disk error, invalid UTF-8)
    // must surface as `Err`, not masquerade as a clean EOF: the caller
    // has to be able to tell a truncated stream from a completed one.
    let read_error: std::sync::Mutex<Option<std::io::Error>> = std::sync::Mutex::new(None);
    std::thread::scope(|scope| -> std::io::Result<()> {
        let read_error = &read_error;
        scope.spawn(move || {
            for line in input.lines() {
                let line = match line {
                    Ok(line) => line,
                    Err(e) => {
                        *read_error.lock().expect("read-error lock") = Some(e);
                        break;
                    }
                };
                if line.trim().is_empty() {
                    continue;
                }
                if tx.send(parse_frame(&line)).is_err() {
                    break; // consumer gone
                }
            }
            // Dropping `tx` ends the stream for the consumer.
        });
        let mut write_result: std::io::Result<()> = Ok(());
        // Block for the first request of each tick…
        'ticks: while let Ok(first) = rx.recv() {
            let mut pending = vec![first];
            // …then coalesce whatever already arrived, up to B.
            while pending.len() < batch {
                match rx.try_recv() {
                    Ok(next) => pending.push(next),
                    Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
                }
            }
            // Answer in arrival order: contiguous query runs share one
            // batch tick and contiguous control-frame runs share one
            // refresh, while each applies at its admitted position — a
            // query arriving after an `add_edge` is always answered
            // under the post-mutation epoch. An all-malformed tick
            // computes (and counts) nothing: the engine's
            // batch/occupancy statistics only see real requests.
            let mut responses: Vec<Option<QueryResponse>> =
                (0..pending.len()).map(|_| None).collect();
            let flush_queries =
                |run: &mut Vec<(usize, QueryRequest)>,
                 responses: &mut Vec<Option<QueryResponse>>| {
                    if run.is_empty() {
                        return;
                    }
                    let reqs: Vec<QueryRequest> = run.iter().map(|(_, r)| r.clone()).collect();
                    for ((i, _), resp) in run.drain(..).zip(engine.answer_batch(&reqs)) {
                        responses[i] = Some(resp);
                    }
                };
            let flush_updates =
                |run: &mut Vec<(usize, UpdateRequest)>,
                 responses: &mut Vec<Option<QueryResponse>>| {
                    if run.is_empty() {
                        return;
                    }
                    let reqs: Vec<UpdateRequest> = run.iter().map(|(_, r)| r.clone()).collect();
                    for ((i, _), resp) in run.drain(..).zip(engine.apply_updates(&reqs)) {
                        responses[i] = Some(resp);
                    }
                };
            let mut queries: Vec<(usize, QueryRequest)> = Vec::new();
            let mut updates: Vec<(usize, UpdateRequest)> = Vec::new();
            for (i, inbound) in pending.iter().enumerate() {
                match inbound {
                    Ok(Frame::Query(req)) => {
                        flush_updates(&mut updates, &mut responses);
                        queries.push((i, req.clone()));
                    }
                    Ok(Frame::Update(req)) => {
                        flush_queries(&mut queries, &mut responses);
                        updates.push((i, req.clone()));
                    }
                    Err(e) => {
                        responses[i] = Some(QueryResponse::error(
                            e.response_id(),
                            ErrorCode::BadRequest,
                            format!("bad request line: {e}"),
                        ))
                    }
                }
            }
            flush_queries(&mut queries, &mut responses);
            flush_updates(&mut updates, &mut responses);
            for response in responses {
                let response = response.expect("every line answered");
                let written = writeln!(output, "{}", response.to_json());
                if let Err(e) = written.and_then(|()| output.flush()) {
                    write_result = Err(e);
                    break 'ticks;
                }
            }
        }
        // Drop the receiver *before* `thread::scope` joins the reader: if
        // the write side failed mid-stream, the reader may be parked in
        // `tx.send` on a full channel, and only a dead receiver makes that
        // send return so the thread can exit (otherwise: deadlock).
        drop(rx);
        write_result
    })?;
    if let Some(e) = read_error.into_inner().expect("read-error lock") {
        return Err(e);
    }
    Ok(engine.session_summary().unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{serve_task, ServeConfig, ServeSession};
    use cgnp_core::{Cgnp, CgnpConfig};
    use cgnp_data::{generate_sbm, model_input_dim, SbmConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn session() -> ServeSession {
        let ag = generate_sbm(&SbmConfig::small_test(), &mut StdRng::seed_from_u64(5));
        let task = serve_task(&ag, 3, 5).expect("support pool");
        let cfg = CgnpConfig::paper_default(model_input_dim(&task.graph), 8);
        let model = Cgnp::new(cfg, 5);
        ServeSession::new(
            model,
            task,
            ServeConfig {
                batch: 2,
                cache: 8,
                threads: 1,
                seed: 5,
                ..Default::default()
            },
        )
        .expect("session")
    }

    #[test]
    fn serves_a_stream_end_to_end() {
        let s = session();
        let input = "{\"id\": 1, \"nodes\": [0]}\n\
                     \n\
                     {\"id\": 2, \"nodes\": [1], \"top_k\": 3}\n\
                     not json\n\
                     {\"id\": 3, \"nodes\": [99999]}\n";
        let mut out = Vec::new();
        let summary = serve_ndjson(&s, input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len(),
            4,
            "blank line skipped, others answered:\n{text}"
        );
        // Every line is well-formed JSON with the protocol fields.
        for line in &lines {
            let v = serde::json::parse(line).expect("well-formed response");
            let serde::json::Value::Obj(pairs) = v else {
                panic!("response not an object")
            };
            assert!(pairs.iter().any(|(k, _)| k == "id"));
            assert!(pairs.iter().any(|(k, _)| k == "ok"));
        }
        assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
        assert!(lines[1].contains("\"ok\":true"), "{}", lines[1]);
        assert!(lines[2].contains("bad request line"), "{}", lines[2]);
        assert!(lines[3].contains("out of range"), "{}", lines[3]);
        assert_eq!(
            summary.requests, 3,
            "parse failures never reach the session"
        );
        assert_eq!(summary.errors, 1);
        assert!(summary.batches >= 1);
    }

    #[test]
    fn parse_failures_echo_a_recoverable_id_and_typed_code() {
        let s = session();
        // Bad `nodes` after a good id; then garbage with no id at all.
        let input = "{\"id\": 41, \"nodes\": \"oops\"}\nnot json\n";
        let mut out = Vec::new();
        serve_ndjson(&s, input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"id\":41"), "{}", lines[0]);
        assert!(
            lines[0].contains("\"code\":\"bad_request\""),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("\"id\":0"), "{}", lines[1]);
        assert!(
            lines[1].contains("\"code\":\"bad_request\""),
            "{}",
            lines[1]
        );
    }

    #[test]
    fn all_malformed_ticks_answer_without_counting_batches() {
        let s = session();
        let mut out = Vec::new();
        let summary = serve_ndjson(&s, &b"garbage\nmore garbage\n"[..], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2, "every bad line gets a response");
        assert!(
            text.lines().all(|l| l.contains("bad request line")),
            "{text}"
        );
        assert_eq!(summary.requests, 0);
        assert_eq!(summary.batches, 0, "no real request, no batch counted");
        assert_eq!(summary.mean_batch_occupancy, 0.0);
    }

    /// A writer whose pipe consumer has gone away.
    struct BrokenPipe;

    impl std::io::Write for BrokenPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::from(std::io::ErrorKind::BrokenPipe))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_failure_returns_instead_of_deadlocking_the_reader() {
        let s = session();
        // Far more input than the bounded channel holds (4 × batch = 8),
        // so the reader thread is parked in `send` when the first write
        // fails; serve_ndjson must still return promptly with the error.
        let input: String = (0..100)
            .map(|i| format!("{{\"id\": {i}, \"nodes\": [0]}}\n"))
            .collect();
        let err = serve_ndjson(&s, input.as_bytes(), &mut BrokenPipe)
            .expect_err("write failure must surface");
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn read_errors_surface_as_err_not_clean_eof() {
        let s = session();
        // First line valid; second line is invalid UTF-8, which
        // `BufRead::lines` reports as an `io::Error`.
        let mut input = b"{\"id\": 1, \"nodes\": [0]}\n".to_vec();
        input.extend_from_slice(&[0xff, 0xfe, b'\n']);
        let mut out = Vec::new();
        let err = serve_ndjson(&s, &input[..], &mut out)
            .expect_err("mid-stream read failure must not look like EOF");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // The request received before the failure was still answered.
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.contains("\"ok\":true"), "{text}");
    }

    #[test]
    fn control_frames_interleave_with_queries() {
        let s = session();
        let epoch0 = s.epoch();
        let input = "{\"id\": 1, \"nodes\": [0]}\n\
                     {\"id\": 2, \"op\": \"add_edge\", \"u\": 0, \"v\": 7}\n\
                     {\"id\": 3, \"nodes\": [0]}\n\
                     {\"id\": 4, \"op\": \"update_support\", \"add\": {\"query\": 1, \"pos\": [2]}}\n\
                     {\"id\": 5, \"op\": \"add_edge\", \"u\": 9, \"v\": 9}\n";
        let mut out = Vec::new();
        let summary = serve_ndjson(&s, input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "{text}");
        // Responses preserve arrival order (ids 1..=5).
        let mut epochs = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            assert!(line.contains(&format!("\"id\":{}", i + 1)), "{line}");
            let v = serde::json::parse(line).unwrap();
            let serde::json::Value::Obj(pairs) = v else {
                panic!("not an object")
            };
            let serde::json::Value::Num(e) = pairs.iter().find(|(k, _)| k == "epoch").unwrap().1
            else {
                panic!("epoch missing")
            };
            epochs.push(e as u64);
        }
        assert!(lines[1].contains("\"ok\":true"), "{}", lines[1]);
        assert!(lines[4].contains("self-loop"), "{}", lines[4]);
        // The edge insert bumped the epoch; the query after it was
        // answered under the new one; epochs never regress.
        assert_eq!(epochs[0], epoch0);
        assert_eq!(epochs[1], epoch0 + 1);
        assert_eq!(epochs[2], epoch0 + 1);
        assert!(epochs.windows(2).all(|w| w[0] <= w[1] || w[1] == 0));
        assert_eq!(
            s.epoch(),
            epoch0 + 1,
            "support update leaves the graph epoch"
        );
        assert_eq!(summary.updates, 2, "rejected self-loop is not an update");
        assert_eq!(s.max_shots(), 4, "support example appended");
    }

    #[test]
    fn summary_counts_batches_and_latency() {
        let s = session();
        let input: String = (0..6)
            .map(|i| format!("{{\"id\": {i}, \"nodes\": [{}]}}\n", i % 3))
            .collect();
        let mut out = Vec::new();
        let summary = serve_ndjson(&s, input.as_bytes(), &mut out).unwrap();
        assert_eq!(summary.requests, 6);
        assert_eq!(summary.errors, 0);
        assert!(summary.mean_batch_occupancy >= 1.0);
        assert!(summary.latency_p95_us >= summary.latency_p50_us);
        // The JSON dump the CLI prints is well-formed.
        let json = serde_json::to_string(&summary).unwrap();
        assert!(serde::json::parse(&json).is_ok(), "{json}");
    }
}
