//! The durability wrapper: log-before-ack, cadenced snapshots, and
//! recovery-on-start.
//!
//! [`DurableEngine`] wraps any [`QueryEngine`] (a single
//! [`crate::ServeSession`] or a sharded coordinator — updates are logged
//! once, at whatever engine the front-end talks to). Queries pass
//! through untouched; updates follow the write-ahead contract:
//!
//! 1. the inner engine applies the burst and produces acks,
//! 2. every *successful* ack's frame is appended to the WAL with the
//!    epoch the ack carries, and the file is fsync'd — one fsync per
//!    burst,
//! 3. only then are the acks returned to the front-end.
//!
//! A crash between 1 and 2 loses state no client was ever told about; a
//! crash after 2 is recovered by replay. If the append or fsync itself
//! fails, the successful acks are converted to `internal` errors — the
//! mutation is in memory but the client must not believe it durable.
//!
//! Recovery ([`scan`] + [`DurableEngine::attach`]) loads the newest
//! valid snapshot (the caller rebuilds the inner engine from it), then
//! replays the WAL tail through `apply_update`, checking each replayed
//! ack against the logged epoch. Replay goes through exactly the code
//! path live updates take — for a sharded engine that is the scatter
//! path — so a recovered session is bitwise-identical to one that never
//! crashed.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::engine::QueryEngine;
use crate::protocol::{ErrorCode, QueryRequest, QueryResponse, UpdateRequest};
use crate::session::ServeSummary;
use crate::snapshot::{
    load_latest_snapshot, prune_snapshots, write_snapshot, SnapshotPayload, SnapshotState,
};
use crate::wal::{read_wal, WalError, WalRecord, WalWriter, WAL_FILE};

/// Snapshots retained on disk: the newest plus its predecessor, the
/// fallback while the newest could still turn out torn.
const KEEP_SNAPSHOTS: usize = 2;

/// Typed durability failure.
#[derive(Clone, Debug)]
pub enum DurableError {
    /// Filesystem failure against the durability directory.
    Io(String),
    /// The WAL is damaged before its final record (see [`WalError`]).
    Wal(WalError),
    /// The WAL does not continue where the snapshot (or seq 1) left
    /// off: part of acknowledged history is missing and replay would
    /// silently skip updates.
    MissingHistory { expected_seq: u64, found_seq: u64 },
    /// A replayed update produced a different epoch than its original
    /// application — the recovered state diverged.
    ReplayDivergence {
        seq: u64,
        expected_epoch: u64,
        got_epoch: u64,
    },
    /// A logged (therefore once-acknowledged) update was rejected on
    /// replay.
    ReplayRejected { seq: u64, error: String },
    /// A recovered snapshot could not be turned back into a serving
    /// task.
    BadSnapshot(String),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durability io error: {e}"),
            DurableError::Wal(e) => write!(f, "{e}"),
            DurableError::MissingHistory {
                expected_seq,
                found_seq,
            } => write!(
                f,
                "missing wal history: expected seq {expected_seq} next but found \
                 {found_seq} — acknowledged updates are unrecoverable"
            ),
            DurableError::ReplayDivergence {
                seq,
                expected_epoch,
                got_epoch,
            } => write!(
                f,
                "replay divergence at seq {seq}: the log says epoch {expected_epoch} but \
                 replay produced {got_epoch}"
            ),
            DurableError::ReplayRejected { seq, error } => {
                write!(
                    f,
                    "replay of acknowledged update seq {seq} was rejected: {error}"
                )
            }
            DurableError::BadSnapshot(e) => write!(f, "unusable snapshot: {e}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<WalError> for DurableError {
    fn from(e: WalError) -> Self {
        match e {
            WalError::Io(io) => DurableError::Io(io),
            other => DurableError::Wal(other),
        }
    }
}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e.to_string())
    }
}

/// What a durability directory holds, as established by [`scan`].
#[derive(Debug)]
pub struct RecoveredState {
    /// Newest checksum-valid snapshot, if any. The caller rebuilds the
    /// inner engine from `snapshot.restore_task()`; `None` means build
    /// fresh from the dataset (deterministic from the serving seed).
    pub snapshot: Option<SnapshotPayload>,
    /// WAL records to replay, strictly after the snapshot.
    pub tail: Vec<WalRecord>,
    /// Intact byte length of the WAL; appends resume here.
    pub wal_valid_len: u64,
    /// Bytes of torn final record that opening the log will truncate.
    pub torn_bytes: u64,
    /// Newer snapshot candidates skipped as corrupt or partial.
    pub snapshots_skipped: usize,
}

impl RecoveredState {
    /// Sequence number the next appended record must take. Sequence
    /// numbers continue across restarts.
    pub fn next_seq(&self) -> u64 {
        let snap = self.snapshot.as_ref().map(|s| s.last_seq).unwrap_or(0);
        let tail = self.tail.last().map(|r| r.seq).unwrap_or(0);
        snap.max(tail) + 1
    }
}

/// Scans a durability directory: picks the newest valid snapshot, reads
/// and verifies the WAL, and pairs them — records the snapshot already
/// contains (`seq <= last_seq`) are dropped, the rest must continue the
/// sequence without a gap. An empty or absent directory scans as a
/// fresh state (no snapshot, no tail); the directory is created if
/// missing.
pub fn scan(dir: impl AsRef<Path>) -> Result<RecoveredState, DurableError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let (snapshot, snapshots_skipped) = match load_latest_snapshot(dir)? {
        Some((payload, _, skipped)) => (Some(payload), skipped),
        None => (None, 0),
    };
    let wal = read_wal(dir.join(WAL_FILE))?;
    let snap_seq = snapshot.as_ref().map(|s| s.last_seq).unwrap_or(0);
    let tail: Vec<WalRecord> = wal
        .records
        .into_iter()
        .filter(|r| r.seq > snap_seq)
        .collect();
    // The tail must continue seamlessly from the snapshot (or from
    // seq 1 when recovering by pure replay). A snapshot newer than the
    // whole WAL is fine — the tail is simply empty. A gap in the other
    // direction means an acknowledged update vanished: refuse.
    // `read_wal` enforces strict monotonicity, so checking each
    // consecutive pair for `+1` steps covers contiguity.
    for (expected, rec) in (snap_seq + 1..).zip(tail.iter()) {
        if rec.seq != expected {
            return Err(DurableError::MissingHistory {
                expected_seq: expected,
                found_seq: rec.seq,
            });
        }
    }
    Ok(RecoveredState {
        snapshot,
        tail,
        wal_valid_len: wal.valid_len,
        torn_bytes: wal.torn_bytes,
        snapshots_skipped,
    })
}

#[derive(Debug, Default)]
struct DurableCounters {
    wal_appends: u64,
    wal_bytes: u64,
    snapshots: u64,
    recovered_updates: u64,
    since_snapshot: u64,
}

#[derive(Debug)]
struct DurableState {
    wal: WalWriter,
    counters: DurableCounters,
}

/// A [`QueryEngine`] wrapper that makes every acknowledged update
/// durable. See the module docs for the contract.
pub struct DurableEngine {
    inner: Arc<dyn QueryEngine>,
    dir: PathBuf,
    /// Snapshot cadence in acknowledged updates; 0 disables cadenced
    /// snapshots (WAL-only, plus the drain-time snapshot).
    snapshot_every: u64,
    state: Mutex<DurableState>,
}

impl DurableEngine {
    /// Attaches durability to an engine the caller already rebuilt from
    /// `state`'s snapshot (or built fresh, when it had none): replays
    /// the WAL tail, truncates any torn bytes, opens the log for
    /// appending, and — when the directory held no snapshot — writes
    /// the initial one so the next restart has a bounded replay.
    pub fn attach(
        inner: Arc<dyn QueryEngine>,
        dir: impl AsRef<Path>,
        snapshot_every: u64,
        state: RecoveredState,
    ) -> Result<Self, DurableError> {
        let dir = dir.as_ref().to_path_buf();
        let next_seq = state.next_seq();
        // Replay frame by frame so each logged epoch is checked; burst
        // and sequential application are pinned bitwise-identical, so
        // this matches however the original bursts were grouped.
        for rec in &state.tail {
            let ack = inner.apply_update(&rec.update);
            if !ack.ok {
                return Err(DurableError::ReplayRejected {
                    seq: rec.seq,
                    error: ack.error.unwrap_or_else(|| "unknown error".into()),
                });
            }
            if ack.epoch != rec.epoch {
                return Err(DurableError::ReplayDivergence {
                    seq: rec.seq,
                    expected_epoch: rec.epoch,
                    got_epoch: ack.epoch,
                });
            }
        }
        let wal = WalWriter::open(dir.join(WAL_FILE), state.wal_valid_len, next_seq)?;
        let had_snapshot = state.snapshot.is_some();
        let engine = Self {
            inner,
            dir,
            snapshot_every,
            state: Mutex::new(DurableState {
                wal,
                counters: DurableCounters {
                    recovered_updates: state.tail.len() as u64,
                    ..DurableCounters::default()
                },
            }),
        };
        if !had_snapshot {
            let mut st = engine.state.lock().expect("durable state lock");
            engine.take_snapshot(&mut st)?;
        }
        Ok(engine)
    }

    /// The durability directory this engine logs into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// WAL records replayed when this engine was attached.
    pub fn recovered_updates(&self) -> u64 {
        self.state
            .lock()
            .expect("durable state lock")
            .counters
            .recovered_updates
    }

    /// Captures and writes a snapshot at the current WAL position.
    /// Engines without snapshottable state (no [`snapshot_state`]) stay
    /// WAL-only: every restart replays the full log.
    ///
    /// [`snapshot_state`]: QueryEngine::snapshot_state
    fn take_snapshot(&self, st: &mut DurableState) -> Result<(), DurableError> {
        let Some(snap_state) = self.inner.snapshot_state() else {
            return Ok(());
        };
        let payload = SnapshotPayload::capture(&snap_state, st.wal.last_seq());
        write_snapshot(&self.dir, &payload)?;
        prune_snapshots(&self.dir, KEEP_SNAPSHOTS);
        st.counters.snapshots += 1;
        st.counters.since_snapshot = 0;
        Ok(())
    }
}

impl QueryEngine for DurableEngine {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn n_attrs(&self) -> usize {
        self.inner.n_attrs()
    }

    fn max_shots(&self) -> usize {
        self.inner.max_shots()
    }

    fn batch(&self) -> usize {
        self.inner.batch()
    }

    fn answer_batch(&self, reqs: &[QueryRequest]) -> Vec<QueryResponse> {
        self.inner.answer_batch(reqs)
    }

    fn apply_update(&self, req: &UpdateRequest) -> QueryResponse {
        self.apply_updates(std::slice::from_ref(req))
            .pop()
            .expect("one ack per request")
    }

    fn apply_updates(&self, reqs: &[UpdateRequest]) -> Vec<QueryResponse> {
        if reqs.is_empty() {
            return Vec::new();
        }
        let mut acks = self.inner.apply_updates(reqs);
        let to_log: Vec<(u64, &UpdateRequest)> = reqs
            .iter()
            .zip(&acks)
            .filter(|(_, ack)| ack.ok)
            .map(|(req, ack)| (ack.epoch, req))
            .collect();
        if to_log.is_empty() {
            return acks;
        }
        let mut st = self.state.lock().expect("durable state lock");
        match st.wal.append_batch(&to_log) {
            Ok(bytes) => {
                st.counters.wal_appends += to_log.len() as u64;
                st.counters.wal_bytes += bytes;
                st.counters.since_snapshot += to_log.len() as u64;
                if self.snapshot_every > 0 && st.counters.since_snapshot >= self.snapshot_every {
                    // Cadenced snapshot, taken right here on the update
                    // (batcher) thread. Failure is non-fatal: the WAL
                    // already holds every ack, so keep serving and let
                    // a later burst retry.
                    let _ = self.take_snapshot(&mut st);
                }
            }
            Err(e) => {
                // The mutation is applied in memory but NOT durable:
                // the ack must not promise otherwise.
                for ack in acks.iter_mut().filter(|a| a.ok) {
                    *ack = QueryResponse::error(
                        ack.id,
                        ErrorCode::Internal,
                        format!("update applied but not durable: {e}"),
                    );
                }
            }
        }
        acks
    }

    fn session_summary(&self) -> Option<ServeSummary> {
        let mut summary = self.inner.session_summary().unwrap_or_default();
        let st = self.state.lock().expect("durable state lock");
        summary.wal_appends = st.counters.wal_appends;
        summary.wal_bytes = st.counters.wal_bytes;
        summary.snapshots = st.counters.snapshots;
        summary.recovered_updates = st.counters.recovered_updates;
        Some(summary)
    }

    fn snapshot_state(&self) -> Option<SnapshotState> {
        self.inner.snapshot_state()
    }

    fn sync_durability(&self) -> Result<(), String> {
        let mut st = self.state.lock().expect("durable state lock");
        st.wal.sync().map_err(|e| e.to_string())?;
        // A drain-time snapshot makes the next start replay-free.
        self.take_snapshot(&mut st).map_err(|e| e.to_string())
    }
}
