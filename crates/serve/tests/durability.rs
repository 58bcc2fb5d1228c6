//! Durability integration: a crash/recover cycle must be invisible.
//!
//! The contract under test is the tentpole claim: a session that was
//! SIGKILL'd (simulated here by dropping the engine without a drain
//! sync — WAL appends fsync per burst, so an un-drained drop *is* the
//! crash state) and recovered from its durability directory answers
//! every probe bitwise-identically to a session that lived through the
//! whole update stream uninterrupted. Alongside it, the WAL edge cases:
//! fresh directories, snapshots newer than the log, torn tails, corrupt
//! middles, sequence gaps, and replay determinism across thread counts.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use cgnp_core::{Cgnp, CgnpConfig, RefreshStrategy};
use cgnp_data::{generate_sbm, model_input_dim, QueryExample, SbmConfig, Task};
use cgnp_serve::{
    scan, serve_task, DurableEngine, DurableError, QueryEngine, QueryRequest, ServeConfig,
    ServeSession, UpdateOp, UpdateRequest, WalError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cgnp-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn serving_task(seed: u64) -> Task {
    let ag = generate_sbm(&SbmConfig::small_test(), &mut StdRng::seed_from_u64(seed));
    serve_task(&ag, 3, seed).expect("support pool")
}

fn model_for(task: &Task, seed: u64) -> Cgnp {
    let cfg = CgnpConfig::paper_default(model_input_dim(&task.graph), 8);
    Cgnp::new(cfg, seed)
}

/// Every test runs once per strategy: recovery replays the WAL through
/// the same refresh live updates take.
const STRATEGIES: [RefreshStrategy; 2] = [RefreshStrategy::EpochSwap, RefreshStrategy::PerRow];

fn serve_cfg(threads: usize, refresh: RefreshStrategy) -> ServeConfig {
    ServeConfig {
        batch: 4,
        threads,
        seed: 9,
        refresh,
        ..Default::default()
    }
}

fn session_on(
    task: Task,
    threads: usize,
    seed: u64,
    refresh: RefreshStrategy,
) -> Arc<dyn QueryEngine> {
    let model = model_for(&task, seed);
    Arc::new(ServeSession::new(model, task, serve_cfg(threads, refresh)).expect("session"))
}

/// Mirror of the serving state's validity bounds, so scripted updates
/// stay acceptable as nodes are added and the pool rotates.
struct Bounds {
    n: usize,
    n_attrs: usize,
    pool: usize,
}

fn scripted_update(rng: &mut StdRng, id: u64, b: &mut Bounds) -> UpdateRequest {
    let op = match rng.gen_range(0..4u32) {
        0 => {
            let u = rng.gen_range(0..b.n);
            let v = (u + 1 + rng.gen_range(0..b.n - 1)) % b.n;
            UpdateOp::AddEdge { u, v }
        }
        1 => {
            b.n += 1;
            UpdateOp::AddNode {
                attrs: vec![rng.gen_range(0..b.n_attrs) as u32],
            }
        }
        2 => {
            b.pool += 1;
            UpdateOp::UpdateSupport {
                add: Some(example(rng, b.n)),
                expire: 0,
            }
        }
        _ => {
            let expire = usize::from(b.pool > 1);
            b.pool = b.pool + 1 - expire;
            UpdateOp::UpdateSupport {
                add: Some(example(rng, b.n)),
                expire,
            }
        }
    };
    UpdateRequest { id, op }
}

fn example(rng: &mut StdRng, n: usize) -> QueryExample {
    let q = rng.gen_range(0..n);
    QueryExample {
        query: q,
        pos: vec![(q + 1) % n],
        neg: vec![(q + n / 2) % n],
        truth: Vec::new(),
    }
}

/// Probe queries spanning node ids and shot counts.
fn probes(n: usize, max_shots: usize) -> Vec<QueryRequest> {
    (0..8u64)
        .map(|i| {
            QueryRequest::new(1000 + i, vec![(i as usize * 5) % n])
                .with_shots(1 + (i as usize) % max_shots)
                .with_top_k(10)
        })
        .collect()
}

/// The bitwise-comparable projection of a response (latency excluded —
/// it is wall-clock, not state).
fn fingerprint(r: &cgnp_serve::QueryResponse) -> (bool, Vec<usize>, Vec<u32>, usize, u64) {
    (
        r.ok,
        r.members.clone(),
        r.probs.iter().map(|p| p.to_bits()).collect(),
        r.shots,
        r.epoch,
    )
}

fn assert_bitwise_equal(a: &Arc<dyn QueryEngine>, b: &Arc<dyn QueryEngine>, what: &str) {
    let reqs = probes(a.n().min(b.n()), a.max_shots().min(b.max_shots()));
    let got = a.answer_batch(&reqs);
    let want = b.answer_batch(&reqs);
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(
            fingerprint(g),
            fingerprint(w),
            "{what}: request {} diverged",
            g.id
        );
    }
}

fn recover(
    dir: &Path,
    threads: usize,
    seed: u64,
    snapshot_every: u64,
    refresh: RefreshStrategy,
) -> Arc<DurableEngine> {
    let state = scan(dir).expect("scan");
    let task = state
        .snapshot
        .as_ref()
        .expect("a snapshot must exist after a durable life")
        .restore_task()
        .expect("restore task");
    let inner = session_on(task, threads, seed, refresh);
    Arc::new(DurableEngine::attach(inner, dir, snapshot_every, state).expect("attach"))
}

#[test]
fn recovered_session_is_bitwise_identical_to_never_crashed() {
    for refresh in STRATEGIES {
        let seed = 41;
        let task = serving_task(seed);
        let dir = temp_dir("bitwise");

        // The uninterrupted oracle lives through all 35 updates in one go.
        let oracle = session_on(task.clone(), 2, seed, refresh);

        // Durable life 1: 20 updates with a 5-update snapshot cadence, then
        // a crash (drop without sync — appends are already fsync'd).
        let state = scan(&dir).expect("fresh scan");
        assert!(state.snapshot.is_none() && state.tail.is_empty());
        let life1 = DurableEngine::attach(session_on(task, 2, seed, refresh), &dir, 5, state)
            .expect("attach");

        let mut rng = StdRng::seed_from_u64(seed ^ 0xd00b);
        let mut bounds = Bounds {
            n: oracle.n(),
            n_attrs: oracle.n_attrs(),
            pool: oracle.max_shots(),
        };
        let mut updates = Vec::new();
        for i in 0..35u64 {
            updates.push(scripted_update(&mut rng, i, &mut bounds));
        }

        for req in &updates[..20] {
            let d = life1.apply_update(req);
            let o = oracle.apply_update(req);
            assert!(d.ok, "durable ack {}: {:?}", req.id, d.error);
            assert_eq!(d.epoch, o.epoch, "ack epochs diverged at {}", req.id);
        }
        let summary1 = life1.session_summary().expect("summary");
        assert_eq!(summary1.wal_appends, 20);
        assert!(summary1.wal_bytes > 0);
        // Cadence 5 over 20 acks plus the initial fresh-directory snapshot.
        assert!(summary1.snapshots >= 4, "snapshots: {}", summary1.snapshots);
        drop(life1); // crash: no sync_durability

        // Life 2: recover, finish the stream, compare against the oracle.
        let life2 = recover(&dir, 2, seed, 5, refresh);
        let recovered = life2.recovered_updates();
        assert!(
            recovered <= 20,
            "replay must be bounded by the log: {recovered}"
        );
        for req in &updates[20..] {
            let d = life2.apply_update(req);
            let o = oracle.apply_update(req);
            assert!(d.ok, "post-recovery ack {}: {:?}", req.id, d.error);
            assert_eq!(
                d.epoch, o.epoch,
                "post-recovery epochs diverged at {}",
                req.id
            );
        }
        let summary2 = life2.session_summary().expect("summary");
        assert_eq!(
            summary2.recovered_updates, recovered,
            "summary must surface the replay count"
        );

        let life2: Arc<dyn QueryEngine> = life2;
        assert_bitwise_equal(&life2, &oracle, "recovered vs never-crashed");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn every_acknowledged_update_is_in_the_wal_and_rejected_ones_are_not() {
    for refresh in STRATEGIES {
        let seed = 7;
        let task = serving_task(seed);
        let n = task.graph.n();
        let dir = temp_dir("ack-wal");
        let state = scan(&dir).expect("scan");
        let engine = DurableEngine::attach(session_on(task, 1, seed, refresh), &dir, 0, state)
            .expect("attach");

        let good = UpdateRequest {
            id: 1,
            op: UpdateOp::AddEdge { u: 0, v: n - 1 },
        };
        let bad = UpdateRequest {
            id: 2,
            op: UpdateOp::AddEdge { u: 0, v: n + 100 }, // out of range: rejected
        };
        assert!(engine.apply_update(&good).ok);
        assert!(!engine.apply_update(&bad).ok);
        engine.sync_durability().expect("sync");

        let state = scan(&dir).expect("rescan");
        // The drain-time snapshot covers the good update; union of snapshot
        // + tail must contain exactly the one acknowledged record.
        let snap_seq = state.snapshot.as_ref().map(|s| s.last_seq).unwrap_or(0);
        assert_eq!(
            snap_seq as usize + state.tail.len(),
            1,
            "exactly the acknowledged update is durable"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn empty_wal_and_no_snapshot_attaches_fresh_and_seeds_a_snapshot() {
    for refresh in STRATEGIES {
        let seed = 11;
        let dir = temp_dir("fresh");
        let state = scan(&dir).expect("scan");
        assert!(state.snapshot.is_none());
        assert!(state.tail.is_empty());
        assert_eq!(state.next_seq(), 1);

        let task = serving_task(seed);
        let engine = DurableEngine::attach(session_on(task, 1, seed, refresh), &dir, 0, state)
            .expect("attach");
        assert_eq!(engine.recovered_updates(), 0);

        // The fresh directory immediately gains a replay-free restart point.
        let rescan = scan(&dir).expect("rescan");
        let snap = rescan.snapshot.expect("initial snapshot");
        assert_eq!(snap.last_seq, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn snapshot_newer_than_wal_recovers_without_replay() {
    for refresh in STRATEGIES {
        let seed = 13;
        let task = serving_task(seed);
        let dir = temp_dir("snap-newer");
        let state = scan(&dir).expect("scan");
        let oracle = session_on(task.clone(), 1, seed, refresh);
        // Snapshot after every update, so the final snapshot covers the
        // entire log.
        let life1 = DurableEngine::attach(session_on(task, 1, seed, refresh), &dir, 1, state)
            .expect("attach");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bounds = Bounds {
            n: oracle.n(),
            n_attrs: oracle.n_attrs(),
            pool: oracle.max_shots(),
        };
        for i in 0..6u64 {
            let req = scripted_update(&mut rng, i, &mut bounds);
            assert!(life1.apply_update(&req).ok);
            assert!(oracle.apply_update(&req).ok);
        }
        drop(life1);

        // Lose the WAL entirely: the snapshot alone must carry recovery.
        std::fs::remove_file(dir.join("wal.ndjson")).expect("remove wal");
        let state = scan(&dir).expect("scan without wal");
        assert!(state.tail.is_empty(), "no records newer than the snapshot");
        assert_eq!(state.snapshot.as_ref().unwrap().last_seq, 6);

        let life2 = recover(&dir, 1, seed, 1, refresh);
        assert_eq!(life2.recovered_updates(), 0);
        let life2: Arc<dyn QueryEngine> = life2;
        assert_bitwise_equal(&life2, &oracle, "snapshot-only recovery");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_wal_tail_is_truncated_and_never_acked_write_is_dropped() {
    for refresh in STRATEGIES {
        let seed = 17;
        let task = serving_task(seed);
        let n = task.graph.n();
        let dir = temp_dir("torn");
        let state = scan(&dir).expect("scan");
        let life1 = DurableEngine::attach(session_on(task, 1, seed, refresh), &dir, 0, state)
            .expect("attach");
        for i in 0..4u64 {
            let req = UpdateRequest {
                id: i,
                op: UpdateOp::AddEdge {
                    u: i as usize,
                    v: (i as usize + n / 2) % n,
                },
            };
            assert!(life1.apply_update(&req).ok);
        }
        drop(life1);

        // A crash mid-append leaves a partial record with no trailing
        // newline — bytes that were never fsync-acknowledged.
        let wal_path = dir.join("wal.ndjson");
        let intact_len = std::fs::metadata(&wal_path).expect("wal meta").len();
        let mut raw = std::fs::read(&wal_path).expect("wal bytes");
        raw.extend_from_slice(b"{\"seq\":99,\"epoch\":99,\"update\":{\"id\":9");
        std::fs::write(&wal_path, &raw).expect("tear wal");

        let state = scan(&dir).expect("scan torn");
        assert_eq!(state.wal_valid_len, intact_len);
        assert!(state.torn_bytes > 0);
        assert_eq!(state.tail.len(), 4);

        let life2 = recover(&dir, 1, seed, 0, refresh);
        assert_eq!(life2.recovered_updates(), 4);
        // Attaching truncated the torn bytes on disk.
        assert_eq!(
            std::fs::metadata(&wal_path).expect("wal meta").len(),
            intact_len
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn corrupt_middle_record_refuses_recovery_with_a_typed_error() {
    for refresh in STRATEGIES {
        let seed = 19;
        let task = serving_task(seed);
        let n = task.graph.n();
        let dir = temp_dir("corrupt-mid");
        let state = scan(&dir).expect("scan");
        let life1 = DurableEngine::attach(session_on(task, 1, seed, refresh), &dir, 0, state)
            .expect("attach");
        for i in 0..3u64 {
            let req = UpdateRequest {
                id: i,
                op: UpdateOp::AddEdge {
                    u: i as usize,
                    v: (i as usize + 3) % n,
                },
            };
            assert!(life1.apply_update(&req).ok);
        }
        drop(life1);

        // Flip a digit inside the FIRST record's payload: damage before the
        // final record must be a hard, typed error — never silently skipped.
        let wal_path = dir.join("wal.ndjson");
        let raw = std::fs::read_to_string(&wal_path).expect("wal");
        let first_line_end = raw.find('\n').expect("one record");
        let mut damaged = raw.clone();
        let tick = raw[..first_line_end].find("\"u\":").expect("edge field") + 4;
        damaged.replace_range(tick..tick + 1, "8");
        std::fs::write(&wal_path, &damaged).expect("corrupt wal");

        match scan(&dir) {
            Err(DurableError::Wal(WalError::CorruptRecord { line, .. })) => assert_eq!(line, 1),
            other => panic!("expected a corrupt-record error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn missing_wal_history_is_a_typed_error() {
    for refresh in STRATEGIES {
        let seed = 23;
        let task = serving_task(seed);
        let n = task.graph.n();
        let dir = temp_dir("gap");
        let state = scan(&dir).expect("scan");
        let life1 = DurableEngine::attach(session_on(task, 1, seed, refresh), &dir, 0, state)
            .expect("attach");
        for i in 0..3u64 {
            let req = UpdateRequest {
                id: i,
                op: UpdateOp::AddEdge {
                    u: i as usize,
                    v: (i as usize + 4) % n,
                },
            };
            assert!(life1.apply_update(&req).ok);
        }
        drop(life1);

        // Drop the snapshots and the first WAL record: the log now starts
        // at seq 2 with nothing covering seq 1.
        for entry in std::fs::read_dir(&dir).expect("dir") {
            let p = entry.expect("entry").path();
            if p.file_name()
                .and_then(|f| f.to_str())
                .is_some_and(|f| f.starts_with("snapshot-"))
            {
                std::fs::remove_file(p).expect("remove snapshot");
            }
        }
        let wal_path = dir.join("wal.ndjson");
        let raw = std::fs::read_to_string(&wal_path).expect("wal");
        let rest = &raw[raw.find('\n').expect("newline") + 1..];
        std::fs::write(&wal_path, rest).expect("drop first record");

        match scan(&dir) {
            Err(DurableError::MissingHistory {
                expected_seq,
                found_seq,
            }) => {
                assert_eq!(expected_seq, 1);
                assert_eq!(found_seq, 2);
            }
            other => panic!("expected missing-history, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn replay_is_deterministic_across_thread_counts() {
    for refresh in STRATEGIES {
        let seed = 29;
        let task = serving_task(seed);
        let dir = temp_dir("threads");
        let state = scan(&dir).expect("scan");
        let life1 =
            DurableEngine::attach(session_on(task.clone(), 1, seed, refresh), &dir, 0, state)
                .expect("attach");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabc);
        let mut bounds = Bounds {
            n: life1.n(),
            n_attrs: life1.n_attrs(),
            pool: life1.max_shots(),
        };
        for i in 0..12u64 {
            let req = scripted_update(&mut rng, i, &mut bounds);
            assert!(life1.apply_update(&req).ok);
        }
        drop(life1);

        // Two independent recoveries with different worker-pool widths must
        // agree bitwise: replay rides the same thread-count-invariant
        // update path live traffic uses.
        let one: Arc<dyn QueryEngine> = recover(&dir, 1, seed, 0, refresh);
        let four: Arc<dyn QueryEngine> = recover(&dir, 4, seed, 0, refresh);
        assert_bitwise_equal(&one, &four, "1-thread vs 4-thread recovery");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
