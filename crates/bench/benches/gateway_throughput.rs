//! Gateway overhead: what the TCP front-end costs per request.
//!
//! The gateway is started over loopback with the model-free `EchoEngine`
//! so the measurement isolates the gateway's own work — NDJSON framing,
//! boundary validation, admission, the batcher hand-off, and the
//! round trip over a real socket — from model scoring. Two shapes:
//!
//! * `single_inflight`: one request on the wire at a time — the full
//!   per-request latency floor of the event loop.
//! * `pipelined_32`: 32 requests written back-to-back, 32 responses read
//!   — what a well-behaved NDJSON client gets from pipelining.
//!
//! Writes `BENCH_gateway.json` at the workspace root. The file is a
//! recorded snapshot, not a CI gate: absolute socket latency swings too
//! much across runners, and the gateway's behavior is gated end-to-end
//! by the CI soak instead.
//!
//! Acceptance shape: pipelining must beat single-in-flight on
//! requests/sec — the event loop amortises its wake-ups over every
//! line a gulp frames.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cgnp_gateway::testing::EchoEngine;
use cgnp_gateway::{Gateway, GatewayConfig, GatewayHandle};

const PIPELINE_DEPTH: usize = 32;

fn start_gateway() -> GatewayHandle {
    let engine = Arc::new(EchoEngine {
        batch: PIPELINE_DEPTH,
        ..EchoEngine::new(64)
    });
    let cfg = GatewayConfig {
        max_inflight_per_conn: PIPELINE_DEPTH,
        request_timeout: None,
        ..GatewayConfig::default()
    };
    Gateway::start(engine, "127.0.0.1:0", cfg).expect("bind loopback")
}

fn connect(handle: &GatewayHandle) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn request_lines(count: usize) -> Vec<u8> {
    (0..count)
        .map(|i| format!("{{\"id\": {i}, \"nodes\": [{}]}}\n", i % 64))
        .collect::<String>()
        .into_bytes()
}

fn gateway_throughput(c: &mut Criterion) {
    let handle = start_gateway();
    let mut g = c.benchmark_group("gateway_roundtrip");

    {
        let (mut stream, mut reader) = connect(&handle);
        let line = request_lines(1);
        let mut response = String::new();
        g.bench_function("single_inflight", |bch| {
            bch.iter(|| {
                stream.write_all(&line).expect("write");
                response.clear();
                reader.read_line(&mut response).expect("read");
                black_box(response.len())
            })
        });
    }

    {
        let (mut stream, mut reader) = connect(&handle);
        let lines = request_lines(PIPELINE_DEPTH);
        let mut response = String::new();
        g.bench_function(&format!("pipelined_{PIPELINE_DEPTH}"), |bch| {
            bch.iter(|| {
                stream.write_all(&lines).expect("write");
                let mut total = 0;
                for _ in 0..PIPELINE_DEPTH {
                    response.clear();
                    total += reader.read_line(&mut response).expect("read");
                }
                black_box(total)
            })
        });
    }

    g.finish();
    let report = handle.join();
    assert_eq!(
        report.gateway.requests, report.gateway.responses,
        "bench traffic must round-trip completely"
    );
}

/// Writes `BENCH_gateway.json`: per shape, the round-trip latency
/// percentiles and requests/sec, plus the pipelining speedup.
fn emit_gateway_baseline(c: &mut Criterion) {
    let shapes: [(&str, usize); 2] = [("single_inflight", 1), ("pipelined_32", PIPELINE_DEPTH)];
    let mut rows = Vec::new();
    let mut rps_single = None;
    for (shape, depth) in shapes {
        let name = format!("gateway_roundtrip/{shape}");
        let Some(r) = c.results().iter().find(|r| r.name == name) else {
            continue;
        };
        let rps = depth as f64 * 1e9 / r.median_ns;
        if depth == 1 {
            rps_single = Some(rps);
        }
        let speedup = rps_single
            .map(|base| format!("{:.3}", rps / base))
            .unwrap_or_else(|| "null".to_string());
        rows.push(format!(
            "    {{\"shape\": \"{shape}\", \"inflight\": {depth}, \
             \"latency_p50_us\": {:.1}, \"latency_p95_us\": {:.1}, \
             \"requests_per_sec\": {rps:.1}, \"speedup_vs_single\": {speedup}}}",
            r.median_ns / 1e3,
            r.p95_ns / 1e3
        ));
    }
    let json = format!(
        "{{\n  \"schema\": \"cgnp-gateway-baseline-v1\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gateway.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("gateway baseline written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    let find = |shape: &str| {
        c.results()
            .iter()
            .find(|r| r.name == format!("gateway_roundtrip/{shape}"))
            .map(|r| r.median_ns)
    };
    if let (Some(single), Some(pipelined)) = (find("single_inflight"), find("pipelined_32")) {
        let speedup = single * PIPELINE_DEPTH as f64 / pipelined;
        let mark = if speedup >= 2.0 { "HOLDS " } else { "DIFFERS" };
        println!(
            "  [{mark}] pipelining amortises the event loop — single: {:.0} µs/req, \
             pipelined×{PIPELINE_DEPTH}: {:.1} µs/req ({speedup:.1}×)",
            single / 1e3,
            pipelined / 1e3 / PIPELINE_DEPTH as f64
        );
    }
}

criterion_group!(benches, gateway_throughput, emit_gateway_baseline);
criterion_main!(benches);
