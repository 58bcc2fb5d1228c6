//! [`ServeSession`]: the train-once / answer-many runtime of the paper's
//! deployment story (Alg. 2 run as a service).
//!
//! A session is built from a restored checkpoint and a serving task —
//! the graph, its precomputed [`cgnp_core::PreparedTask`] (normalised
//! adjacencies, arc index, base features), and a pool of labelled
//! support examples. Every incoming query then costs an inner-product
//! scoring pass against a per-shot-count context that is computed on
//! first use and cached **across micro-batch ticks**, with an LRU cache
//! short-circuiting repeated `(nodes, shots)` requests entirely.
//!
//! The graph is **live**: [`ServeSession::apply_update`] inserts edges
//! and nodes or rotates the support pool while queries keep flowing.
//! Updates take the write half of a session-wide `RwLock`, patch the
//! operator and feature rows the burst's mutations touched (rebuilding
//! from scratch only when the graph's mutation log no longer says which
//! — either way bitwise-identical to a scratch build), and advance a
//! version watermark that retires exactly the cache entries
//! the update invalidates: graph mutations and support expiry retire
//! everything, while appending a support example retires nothing
//! (cached contexts condition on prefixes of the pool, which an append
//! leaves untouched). Every response reports the graph epoch it was
//! answered under.
//!
//! There is one forward pass: every context build runs the model's own
//! encoder, ⊕ and decoder on the plain backend
//! ([`cgnp_core::InferModel`], the trained weights cast once), in the
//! element type [`ServeConfig::precision`] picks and on the kernel tier
//! [`ServeConfig::math`] picks (`--exact` selects kernels, not an
//! engine). The autodiff tape is training's and the evaluation oracle's;
//! no serving path touches it.
//!
//! And one tick: the micro-batch sequence ([`query_tick`]) and the
//! update burst ([`update_burst`] + [`finish_burst`]) are plain functions
//! of the state they run against, so a scatter/gather coordinator runs
//! the very same code over its global graph, differing only in how a
//! shot group is scored and where an applied mutation is routed.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use cgnp_core::{infer, Cgnp, CgnpConfig, InferModel, InferState, PreparedTask, RefreshStrategy};
use cgnp_data::{model_input_dim, task_on_whole_graph, QueryExample, Task, TaskConfig};
use cgnp_graph::AttributedGraph;
use cgnp_tensor::{dispatch, fast_math_compiled, Block, Dtype, MathMode};
use rand::SeedableRng;
use serde::Serialize;

use crate::cache::{CacheStats, LruCache};
use crate::protocol::{
    validate_request, validate_update, ErrorCode, QueryRequest, QueryResponse, UpdateOp,
    UpdateRequest,
};

/// Session tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Micro-batch bound: how many in-flight queries one tick coalesces.
    pub batch: usize,
    /// LRU capacity for `(nodes, shots)` predictions; 0 disables.
    pub cache: usize,
    /// Worker fan-out for scoring a micro-batch.
    pub threads: usize,
    /// Seed for model restoration / support-pool sampling.
    pub seed: u64,
    /// How graph updates bring the prepared operators and features up to
    /// date. Every front-end serves at the default,
    /// [`RefreshStrategy::PerRow`]; the field survives for differential
    /// tests that pin the scratch rebuild against it.
    pub refresh: RefreshStrategy,
    /// Element type scoring runs in. [`Dtype::F32`] (the default) is the
    /// training dtype; [`Dtype::F64`] snapshots the weights, operators,
    /// and contexts into double precision at session build.
    pub precision: Dtype,
    /// Kernel tier scoring runs on. [`MathMode::Exact`] (the default)
    /// keeps every prediction bitwise-identical to the training-side
    /// forward; [`MathMode::Fast`] routes through the reassociating
    /// fast-math kernels when the build carries them.
    pub math: MathMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            batch: 8,
            cache: 256,
            threads: rayon::current_num_threads(),
            seed: 42,
            refresh: RefreshStrategy::PerRow,
            precision: Dtype::F32,
            math: MathMode::Exact,
        }
    }
}

impl ServeConfig {
    /// The kernel tier scoring actually runs on: the requested mode,
    /// demoted to [`MathMode::Exact`] when this build carries no
    /// fast-math tier (so summaries never claim a speedup the binary
    /// cannot deliver).
    pub fn effective_math(&self) -> MathMode {
        if fast_math_compiled() {
            self.math
        } else {
            MathMode::Exact
        }
    }
}

/// Latency samples kept for percentile reporting. A bounded ring — a
/// long-lived serving process must not grow 8 bytes per request forever
/// — so percentiles describe the most recent window, which is what a
/// serving dashboard wants anyway.
const LATENCY_WINDOW: usize = 4096;

/// Rolling serving counters (all micro-batches since session build),
/// shared by [`ServeSession`] and a scatter/gather coordinator: both feed
/// it through [`query_tick`] / [`finish_burst`] and read it back through
/// [`ServeStats::summary`].
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    requests: u64,
    errors: u64,
    batches: u64,
    occupancy_sum: u64,
    /// Updates applied (graph mutations + support rotations).
    updates: u64,
    /// Updates beyond the first in a batched [`ServeSession::apply_updates`]
    /// call: mutations that shared one operator refresh instead of paying
    /// for their own.
    coalesced_updates: u64,
    /// Context forwards actually computed (cache misses + disabled-cache
    /// computes). Each is the expensive half of a tick.
    context_builds: u64,
    /// Context forwards answered from the per-shot cache.
    context_hits: u64,
    /// Ring buffer of the last [`LATENCY_WINDOW`] per-request latencies.
    latencies_us: Vec<u64>,
    /// Next ring slot to overwrite once the buffer is full.
    latency_cursor: usize,
}

impl ServeStats {
    fn record_latency(&mut self, us: u64) {
        if self.latencies_us.len() < LATENCY_WINDOW {
            self.latencies_us.push(us);
        } else {
            self.latencies_us[self.latency_cursor] = us;
            self.latency_cursor = (self.latency_cursor + 1) % LATENCY_WINDOW;
        }
    }

    /// The counters as a [`ServeSummary`] (latency percentiles over the
    /// most recent window), for a session at `epoch` serving under `cfg`.
    /// Durability and shard fields are left at their ephemeral, unsharded
    /// values for the wrappers that own them to fill in.
    pub fn summary(
        &self,
        cache: CacheStats,
        epoch: u64,
        log_evictions: u64,
        cfg: &ServeConfig,
    ) -> ServeSummary {
        let mut lat = self.latencies_us.clone();
        lat.sort_unstable();
        let pct = |p: f64| -> u64 {
            if lat.is_empty() {
                0
            } else {
                lat[((lat.len() - 1) as f64 * p).round() as usize]
            }
        };
        ServeSummary {
            requests: self.requests,
            errors: self.errors,
            batches: self.batches,
            mean_batch_occupancy: if self.batches == 0 {
                0.0
            } else {
                self.occupancy_sum as f64 / self.batches as f64
            },
            latency_p50_us: pct(0.5),
            latency_p95_us: pct(0.95),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            context_builds: self.context_builds,
            context_hits: self.context_hits,
            updates: self.updates,
            coalesced_updates: self.coalesced_updates,
            log_evictions,
            wal_appends: 0,
            wal_bytes: 0,
            snapshots: 0,
            recovered_updates: 0,
            epoch,
            shard_epochs: None,
            precision: cfg.precision.as_str().to_string(),
            math: cfg.effective_math().as_str().to_string(),
        }
    }
}

/// A point-in-time summary of a session's serving counters, dumped as
/// JSON by the CLI when the stream ends.
#[derive(Clone, Debug, Default, Serialize)]
pub struct ServeSummary {
    pub requests: u64,
    pub errors: u64,
    pub batches: u64,
    /// Mean number of requests coalesced per micro-batch tick.
    pub mean_batch_occupancy: f64,
    pub latency_p50_us: u64,
    pub latency_p95_us: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    /// Context forwards computed vs answered from the per-shot cache.
    pub context_builds: u64,
    pub context_hits: u64,
    /// Updates applied over the session's lifetime.
    pub updates: u64,
    /// Updates that shared a batched refresh instead of paying for their
    /// own (see [`ServeSession::apply_updates`]).
    pub coalesced_updates: u64,
    /// Mutation-log entries the graph has dropped (it keeps the most
    /// recent 4 096). While this reads 0 every refresh has patched rows;
    /// past that, a single burst longer than the log forces a rebuild.
    pub log_evictions: u64,
    /// WAL records appended by the durability wrapper (0 when serving
    /// ephemerally).
    pub wal_appends: u64,
    /// Bytes appended to the WAL.
    pub wal_bytes: u64,
    /// Snapshots written (cadence + drain).
    pub snapshots: u64,
    /// WAL records replayed during recovery at startup.
    pub recovered_updates: u64,
    /// Current graph epoch.
    pub epoch: u64,
    /// Per-shard graph epochs in fixed shard order; `None` for an
    /// unsharded session.
    pub shard_epochs: Option<Vec<u64>>,
    /// Element type scoring ran in (`"f32"` / `"f64"`).
    pub precision: String,
    /// Kernel tier scoring actually ran on (`"exact"` / `"fast"`) — the
    /// effective mode, never a tier the build does not carry.
    pub math: String,
}

/// The forward-only executor every context build runs through: the
/// model's weights and the prepared task's operators and base features,
/// both cast to the session's element type. The arms are the
/// runtime dtype choice ([`ServeConfig::precision`]) and nothing else —
/// the kernel tier is an argument of every call, not a different engine.
enum Engine {
    F32(InferModel<f32>, InferState<f32>),
    F64(InferModel<f64>, InferState<f64>),
}

impl Engine {
    fn new(precision: Dtype, model: &Cgnp, prepared: &PreparedTask) -> Self {
        match precision {
            Dtype::F32 => Engine::F32(
                InferModel::from_model(model),
                InferState::from_prepared(prepared),
            ),
            Dtype::F64 => Engine::F64(
                InferModel::from_model(model),
                InferState::from_prepared(prepared),
            ),
        }
    }

    /// Re-casts the operators and base features after a refresh changed
    /// them (the weights never change).
    fn resnapshot(&mut self, prepared: &PreparedTask) {
        match self {
            Engine::F32(_, state) => *state = InferState::from_prepared(prepared),
            Engine::F64(_, state) => *state = InferState::from_prepared(prepared),
        }
    }

    /// The decoded task context for `support` (Alg. 2 l.2–4).
    fn context(&self, support: &[QueryExample], math: MathMode) -> Block {
        match self {
            Engine::F32(model, state) => Block::F32(model.context(state, support, math)),
            Engine::F64(model, state) => Block::F64(model.context(state, support, math)),
        }
    }
}

/// Monotone session version plus the cache-staleness watermark: every
/// cache entry is tagged with the version it was computed under, and
/// entries tagged `< valid_from` are stale.
#[derive(Clone, Copy, Debug, Default)]
pub struct Watermark {
    pub version: u64,
    pub valid_from: u64,
}

impl Watermark {
    /// Records one applied change. An invalidating one retires every
    /// cache entry computed before it; a pure support append does not.
    pub fn advance(&mut self, invalidate: bool) {
        self.version += 1;
        if invalidate {
            self.valid_from = self.version;
        }
    }
}

/// Everything an update mutates, behind one write lock: queries take
/// the read half for a whole micro-batch tick, so a tick sees one
/// consistent (graph, operators, support pool) triple.
struct LiveState {
    prepared: PreparedTask,
    /// The serving-dtype executor; lives here so the same write lock
    /// that refreshes the prepared operators re-casts its copy of them.
    engine: Engine,
    mark: Watermark,
}

/// An online query-answering session over one graph and one restored
/// model. `&self` everywhere — including updates: sessions are `Sync`
/// and shared across request-handling threads.
pub struct ServeSession {
    cfg: ServeConfig,
    live: RwLock<LiveState>,
    cache: Mutex<LruCache>,
    /// Decoded context per effective shot count, shared across
    /// micro-batch ticks and tagged with the session version it was
    /// built under (at most one pinned matrix per shot count, so bounded
    /// by the support-pool size). Ragged-shot traffic — many distinct
    /// shot counts interleaving — would otherwise recompute identical
    /// contexts every tick.
    contexts: Mutex<HashMap<usize, (Arc<Block>, u64)>>,
    stats: Mutex<ServeStats>,
}

impl ServeSession {
    /// Builds a session from an already-constructed model and serving
    /// task. The task's `support` is the labelled example pool requests
    /// condition on (`shots` selects a prefix of it); `targets` are
    /// ignored. Graph operators and base features are precomputed here,
    /// once.
    pub fn new(model: Cgnp, task: Task, cfg: ServeConfig) -> Result<Self, String> {
        Self::with_shared_model(Arc::new(model), task, cfg)
    }

    /// [`ServeSession::new`] over an already-shared model: the weights
    /// are only read, once, to snapshot them into the serving dtype, so
    /// any number of sessions — the shards of a sharded deployment most
    /// of all — build from one restored checkpoint.
    pub fn with_shared_model(
        model: Arc<Cgnp>,
        task: Task,
        cfg: ServeConfig,
    ) -> Result<Self, String> {
        if task.support.is_empty() {
            return Err("serving task has no support examples to condition on".into());
        }
        let expect = model_input_dim(&task.graph);
        let got = model.config().encoder.in_dim;
        if got != expect {
            return Err(format!(
                "model input width {got} does not match the serving graph (need {expect})"
            ));
        }
        let prepared = PreparedTask::new(task);
        let engine = Engine::new(cfg.precision, &model, &prepared);
        Ok(Self {
            live: RwLock::new(LiveState {
                prepared,
                engine,
                mark: Watermark::default(),
            }),
            cache: Mutex::new(LruCache::new(cfg.cache)),
            contexts: Mutex::new(HashMap::new()),
            stats: Mutex::new(ServeStats::default()),
            cfg,
        })
    }

    /// Restores a checkpoint into a fresh model
    /// ([`cgnp_eval::restore_model`]: `template` is only consulted for
    /// legacy checkpoints without an embedded architecture) and wraps it
    /// in a session.
    pub fn from_checkpoint(
        path: impl AsRef<Path>,
        template: CgnpConfig,
        task: Task,
        cfg: ServeConfig,
    ) -> Result<Self, String> {
        let in_dim = model_input_dim(&task.graph);
        let model = cgnp_eval::restore_model(path, template, in_dim, cfg.seed)?;
        Self::new(model, task, cfg)
    }

    fn read_live(&self) -> std::sync::RwLockReadGuard<'_, LiveState> {
        self.live.read().expect("live state lock")
    }

    /// Number of nodes of the serving graph.
    pub fn n(&self) -> usize {
        self.read_live().prepared.task.n()
    }

    /// Attribute vocabulary size of the serving graph.
    pub fn n_attrs(&self) -> usize {
        self.read_live().prepared.task.graph.n_attrs()
    }

    /// Size of the labelled support pool.
    pub fn max_shots(&self) -> usize {
        self.read_live().prepared.task.support.len()
    }

    /// Current graph epoch (monotone; every response reports the epoch
    /// it was answered under).
    pub fn epoch(&self) -> u64 {
        self.read_live().prepared.epoch()
    }

    /// An epoch-consistent clone of the session's mutable state: graph
    /// and support pool are copied under one read lock, so they are from
    /// the same instant even while a concurrent updater waits on the
    /// write half. This is what the durability layer snapshots.
    pub fn snapshot_state(&self) -> crate::snapshot::SnapshotState {
        let live = self.read_live();
        crate::snapshot::SnapshotState {
            graph: live.prepared.task.graph.clone(),
            support: live.prepared.task.support.clone(),
        }
    }

    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The decoded task context for a given shot count — the matrix a
    /// micro-batch shares, in the serving dtype. `Arc`ed because
    /// [`Block`] clones are deep copies and cache hits must not duplicate
    /// an n×d matrix. Repeated shot counts across ticks share one context
    /// instead of recomputing the encoder forward.
    pub fn context_for_shots(&self, shots: usize) -> Arc<Block> {
        let live = self.read_live();
        self.context_for_shots_in(&live, shots)
    }

    /// Cache-aware context build against an already-held live state (so
    /// batch answering never re-acquires the session lock: a second read
    /// acquisition could deadlock behind a queued writer).
    fn context_for_shots_in(&self, live: &LiveState, shots: usize) -> Arc<Block> {
        let shots = shots.clamp(1, live.prepared.task.support.len());
        {
            let mut contexts = self.contexts.lock().expect("context cache lock");
            match contexts.get(&shots) {
                Some((ctx, version)) if *version >= live.mark.valid_from => {
                    let ctx = Arc::clone(ctx);
                    drop(contexts);
                    self.stats.lock().expect("stats lock").context_hits += 1;
                    return ctx;
                }
                Some(_) => {
                    // Stale conditioning data: drop it on sight.
                    contexts.remove(&shots);
                }
                None => {}
            }
        }
        // Built outside the cache lock: a context forward is the
        // expensive half of a tick, and holding the map across it would
        // serialise unrelated shot counts. Two threads racing on the same
        // fresh shot count compute identical constants; last insert wins.
        let support = &live.prepared.task.support[..shots];
        let ctx = Arc::new(live.engine.context(support, self.cfg.effective_math()));
        self.stats.lock().expect("stats lock").context_builds += 1;
        self.contexts
            .lock()
            .expect("context cache lock")
            .insert(shots, (Arc::clone(&ctx), live.mark.version));
        ctx
    }

    /// Scores a micro-batch of query sets against one shared context.
    fn score_batch(&self, ctx: &Block, batch: &[Vec<usize>], threads: usize) -> Vec<Vec<f32>> {
        let math = self.cfg.effective_math();
        dispatch!(ctx, |m| infer::score_batch_with_threads(
            m, batch, threads, math
        ))
    }

    /// Applies one live update — a graph mutation or a support-pool
    /// rotation — and acknowledges it with the post-update graph epoch.
    ///
    /// Updates serialize with query ticks on the session's `RwLock`:
    /// while the write half is held the graph mutates, the prepared
    /// operators refresh (per [`ServeConfig::refresh`]), and the version
    /// watermark advances, so the next tick answers under the new epoch
    /// with no stale cache entry surviving. Appending a support example
    /// without expiry invalidates nothing: cached contexts condition on
    /// pool prefixes, which grow-only changes leave intact.
    pub fn apply_update(&self, req: &UpdateRequest) -> QueryResponse {
        self.apply_updates(std::slice::from_ref(req))
            .pop()
            .expect("one ack per update")
    }

    /// Applies a burst of updates under **one** write acquisition with
    /// **one** operator refresh at the end, instead of paying a refresh
    /// per frame. Acks (success or failure, one per frame, in order) are
    /// identical to frame-at-a-time [`ServeSession::apply_update`]: each
    /// reports the graph epoch *after its own mutation*, which the
    /// deferred refresh lands the prepared state at exactly. A frame
    /// that fails validation is acked with its error and the rest of the
    /// burst still applies. Every applied frame past the first counts
    /// toward [`ServeSummary::coalesced_updates`].
    pub fn apply_updates(&self, reqs: &[UpdateRequest]) -> Vec<QueryResponse> {
        let t0 = Instant::now();
        let mut guard = self.live.write().expect("live state lock");
        let live = &mut *guard;
        let epoch_before = live.prepared.task.graph.epoch();
        let task = &mut live.prepared.task;
        let (acks, applied) =
            update_burst(&mut task.graph, &mut task.support, &mut live.mark, reqs);
        if !applied.is_empty() {
            live.prepared.refresh(self.cfg.refresh);
            // Support-only bursts leave the graph epoch — and therefore
            // the operators and base features the engine casts —
            // untouched; re-casting them would be pure waste.
            if live.prepared.task.graph.epoch() != epoch_before {
                live.engine.resnapshot(&live.prepared);
            }
        }
        finish_burst(&self.stats, t0, applied.len(), acks)
    }

    /// Overwrites the core-number feature column with externally supplied
    /// per-node values (see [`PreparedTask::override_core_column`]) and
    /// invalidates every cached context and prediction. A sharded
    /// coordinator calls this after each topology change: core numbers
    /// are a global property, so the shard-local column is wrong at the
    /// halo fringe and the coordinator injects the globally computed one.
    pub fn override_core_column(&self, column: &[f32]) -> Result<(), String> {
        let mut live = self.live.write().expect("live state lock");
        live.prepared.override_core_column(column)?;
        // Base features changed with no epoch bump: the engine must
        // re-cast them here or keep scoring off the stale column.
        let live = &mut *live;
        live.engine.resnapshot(&live.prepared);
        live.mark.advance(true);
        Ok(())
    }

    /// Answers one request (a micro-batch of one).
    pub fn answer(&self, req: &QueryRequest) -> QueryResponse {
        self.answer_batch(std::slice::from_ref(req))
            .pop()
            .expect("one response per request")
    }

    /// Answers a micro-batch: one [`query_tick`] whose shot groups each
    /// fetch their context through the cross-tick cache (it depends only
    /// on the shot count) and score all their queries in one pass over
    /// it, the context rows split across the persistent pool. The read half of the session lock is held for the
    /// whole tick, so every request in it is answered under one
    /// consistent epoch.
    pub fn answer_batch(&self, reqs: &[QueryRequest]) -> Vec<QueryResponse> {
        let t0 = Instant::now();
        let live = self.read_live();
        let task = &live.prepared.task;
        query_tick(
            t0,
            TickView {
                graph: &task.graph,
                max_shots: task.support.len(),
                mark: live.mark,
            },
            &self.cache,
            &self.stats,
            reqs,
            |shots, batch| {
                let ctx = self.context_for_shots_in(&live, shots);
                self.score_batch(&ctx, batch, self.cfg.threads)
            },
        )
    }

    /// Full membership probability vector for a query set (the library
    /// path behind [`ServeSession::answer`], without ranking or response
    /// assembly; goes through the same cache).
    pub fn predict(&self, nodes: &[usize], shots: Option<usize>) -> Result<Arc<Vec<f32>>, String> {
        let live = self.read_live();
        let req = QueryRequest {
            shots,
            ..QueryRequest::new(0, nodes.to_vec())
        };
        let shots = validate_request(
            &req,
            live.prepared.task.n(),
            live.prepared.task.support.len(),
        )?;
        let key = (nodes.to_vec(), shots);
        if let Some(hit) = self
            .cache
            .lock()
            .expect("cache lock")
            .get(&key, live.mark.valid_from)
        {
            return Ok(hit);
        }
        let ctx = self.context_for_shots_in(&live, shots);
        let probs = self.score_batch(&ctx, std::slice::from_ref(&key.0), 1);
        let probs = Arc::new(probs.into_iter().next().expect("one result"));
        self.cache
            .lock()
            .expect("cache lock")
            .insert(key, Arc::clone(&probs), live.mark.version);
        Ok(probs)
    }

    /// Cache counters (hits/misses/evictions so far).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().expect("cache lock").stats()
    }

    /// Context forwards `(computed, answered from the per-shot cache)`
    /// so far — what a coordinator sums over its shards.
    pub fn context_counters(&self) -> (u64, u64) {
        let stats = self.stats.lock().expect("stats lock");
        (stats.context_builds, stats.context_hits)
    }

    /// Serving summary: request/batch counts, mean occupancy, latency
    /// percentiles, cache counters, update count, current epoch.
    pub fn summary(&self) -> ServeSummary {
        let (epoch, log_evictions) = {
            let live = self.read_live();
            (
                live.prepared.epoch(),
                live.prepared.task.graph.log_evictions(),
            )
        };
        let cache = self.cache_stats();
        let stats = self.stats.lock().expect("stats lock");
        stats.summary(cache, epoch, log_evictions, &self.cfg)
    }
}

/// What a [`query_tick`] reads of the serving state it runs against.
pub struct TickView<'a> {
    pub graph: &'a AttributedGraph,
    /// Size of the labelled support pool.
    pub max_shots: usize,
    pub mark: Watermark,
}

/// One micro-batch tick, the same for a single session and a
/// scatter/gather coordinator: validate each request, resolve it from the
/// prediction LRU or collect it as a miss, deduplicate misses by
/// `(nodes, shots)`, group them by shot count, score each group through
/// `score_group(shots, query sets)` (one full probability vector per
/// query set, in order), fill the cache, rank, assemble responses, and
/// record the tick in `stats`. The caller holds the read lock `view`
/// borrows from across the call, so every request is answered under one
/// consistent epoch. The wall time since `t0`, read once the last
/// response is ranked and assembled, is attributed to every request in
/// the batch: the honest latency of a coalescing server.
pub fn query_tick(
    t0: Instant,
    TickView {
        graph,
        max_shots,
        mark,
    }: TickView<'_>,
    cache: &Mutex<LruCache>,
    stats: &Mutex<ServeStats>,
    reqs: &[QueryRequest],
    mut score_group: impl FnMut(usize, &[Vec<usize>]) -> Vec<Vec<f32>>,
) -> Vec<QueryResponse> {
    /// Where a valid request's probability vector comes from.
    enum Source {
        Cached(Arc<Vec<f32>>),
        /// Index into the tick's unique misses.
        Miss(usize),
    }
    let mut resolved: Vec<Result<(usize, Source), String>> = Vec::with_capacity(reqs.len());
    // Misses deduplicated by key: identical (nodes, shots) requests in
    // one tick are computed once and share the Arc (duplicate hot
    // queries are exactly the traffic a coalescing server sees).
    let mut misses: Vec<crate::cache::CacheKey> = Vec::new();
    {
        let mut cache = cache.lock().expect("cache lock");
        for req in reqs {
            resolved.push(validate_request(req, graph.n(), max_shots).map(|shots| {
                let key = (req.nodes.clone(), shots);
                let source = match cache.get(&key, mark.valid_from) {
                    Some(probs) => Source::Cached(probs),
                    None => {
                        let m = misses
                            .iter()
                            .position(|k| *k == key)
                            .unwrap_or(misses.len());
                        if m == misses.len() {
                            misses.push(key);
                        }
                        Source::Miss(m)
                    }
                };
                (shots, source)
            }));
        }
    }
    // Group unique keys by shot count so each group shares one context.
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (m, key) in misses.iter().enumerate() {
        match groups.iter_mut().find(|(s, _)| *s == key.1) {
            Some((_, ms)) => ms.push(m),
            None => groups.push((key.1, vec![m])),
        }
    }
    let mut scored: Vec<Option<Arc<Vec<f32>>>> = vec![None; misses.len()];
    for (shots, ms) in groups {
        let batch: Vec<Vec<usize>> = ms.iter().map(|&m| misses[m].0.clone()).collect();
        let probs = score_group(shots, &batch);
        let mut cache = cache.lock().expect("cache lock");
        for (&m, prob) in ms.iter().zip(probs) {
            let prob = Arc::new(prob);
            cache.insert(misses[m].clone(), Arc::clone(&prob), mark.version);
            scored[m] = Some(prob);
        }
    }
    let epoch = graph.epoch();
    let mut responses: Vec<QueryResponse> = reqs
        .iter()
        .zip(resolved)
        .map(|(req, r)| match r {
            Err(e) => QueryResponse::error(req.id, ErrorCode::BadRequest, e),
            Ok((shots, source)) => {
                let (probs, cached) = match &source {
                    Source::Cached(probs) => (probs, true),
                    Source::Miss(m) => (scored[*m].as_ref().expect("every miss is scored"), false),
                };
                let (members, member_probs) = rank_members(graph, probs, req);
                QueryResponse {
                    id: req.id,
                    ok: true,
                    error: None,
                    code: None,
                    members,
                    probs: member_probs,
                    shots,
                    cached,
                    latency_us: 0,
                    epoch,
                }
            }
        })
        .collect();
    let latency_us = t0.elapsed().as_micros() as u64;
    for response in responses.iter_mut().filter(|r| r.ok) {
        response.latency_us = latency_us;
    }
    let mut stats = stats.lock().expect("stats lock");
    stats.requests += reqs.len() as u64;
    stats.errors += responses.iter().filter(|r| !r.ok).count() as u64;
    stats.batches += 1;
    stats.occupancy_sum += reqs.len() as u64;
    for _ in &responses {
        stats.record_latency(latency_us);
    }
    responses
}

/// A mutation one update burst applied, in burst order — what the caller
/// refreshes its derived state from (a coordinator routes each to the
/// shards it touches).
pub enum Applied {
    Edge(usize, usize),
    Node(usize),
    Support {
        add: Option<QueryExample>,
        expire: usize,
    },
}

/// The state half of an update burst, the same for a single session and
/// a coordinator: validates each frame against the state *as the frames
/// before it left it*, mutates the graph or rotates the support pool,
/// advances the watermark, and acks every frame in order with the graph
/// epoch after its own mutation (a frame that fails is acked with its
/// error and the rest of the burst still applies). The applied mutations
/// are handed back so the caller — still holding its write lock —
/// refreshes what it derives from the graph once, then closes the burst
/// with [`finish_burst`].
pub fn update_burst(
    graph: &mut AttributedGraph,
    support: &mut Vec<QueryExample>,
    mark: &mut Watermark,
    reqs: &[UpdateRequest],
) -> (Vec<QueryResponse>, Vec<Applied>) {
    let mut acks = Vec::with_capacity(reqs.len());
    let mut applied = Vec::new();
    for req in reqs {
        let reject = |e: String| QueryResponse::error(req.id, ErrorCode::BadRequest, e);
        if let Err(e) = validate_update(req, graph.n(), graph.n_attrs()) {
            acks.push(reject(e));
            continue;
        }
        let mut members = Vec::new();
        // Err: refused; Ok(None): an acknowledged no-op; Ok(Some): applied.
        let outcome = match &req.op {
            UpdateOp::AddEdge { u, v } => graph
                .insert_edge(*u, *v)
                // Inserting an existing edge is an acknowledged no-op.
                .map(|inserted| inserted.then_some(Applied::Edge(*u, *v))),
            UpdateOp::AddNode { attrs } => graph.add_node(attrs.clone()).map(|v| {
                members.push(v);
                Some(Applied::Node(v))
            }),
            UpdateOp::UpdateSupport { add, expire } => {
                if *expire > support.len() {
                    Err(format!(
                        "cannot expire {expire} of {} support examples",
                        support.len()
                    ))
                } else if support.len() - expire + add.iter().len() == 0 {
                    Err("support pool must stay non-empty".to_string())
                } else {
                    support.drain(..*expire);
                    support.extend(add.iter().cloned());
                    Ok(Some(Applied::Support {
                        add: add.clone(),
                        expire: *expire,
                    }))
                }
            }
        };
        match outcome {
            Err(e) => {
                acks.push(reject(e));
                continue;
            }
            Ok(None) => {}
            Ok(Some(mutation)) => {
                // A pure support append leaves every pool prefix — and
                // therefore every cached context and prediction —
                // untouched; everything else invalidates.
                mark.advance(!matches!(mutation, Applied::Support { expire: 0, .. }));
                applied.push(mutation);
            }
        }
        // Derived state is refreshed once after the burst; the *graph*
        // epoch is exactly what a per-frame refresh would have landed it
        // at.
        let mut ack = QueryResponse::ack(req.id, graph.epoch());
        ack.members = members;
        acks.push(ack);
    }
    (acks, applied)
}

/// Closes an update burst once the caller has refreshed its derived
/// state: counts the `applied` frames (every one past the first shared
/// the refresh — [`ServeSummary::coalesced_updates`]) and stamps the
/// whole-burst wall time on every successful ack.
pub fn finish_burst(
    stats: &Mutex<ServeStats>,
    t0: Instant,
    applied: usize,
    mut acks: Vec<QueryResponse>,
) -> Vec<QueryResponse> {
    if applied > 0 {
        let mut stats = stats.lock().expect("stats lock");
        stats.updates += applied as u64;
        stats.coalesced_updates += applied as u64 - 1;
    }
    let latency_us = t0.elapsed().as_micros() as u64;
    for ack in acks.iter_mut().filter(|a| a.ok) {
        ack.latency_us = latency_us;
    }
    acks
}

/// Ranks community members for a response: optional attribute filter,
/// then probability-descending order (node id breaks ties), capped at
/// `top_k` or thresholded at 0.5. The order is total over distinct ids,
/// so selecting the members first — the `top_k` best by selection, or
/// those at or above the threshold — and sorting only them returns what
/// sorting every candidate would, without sorting what is dropped.
/// Public so a scatter/gather coordinator ranks its merged global
/// probability vector with byte-for-byte the same rules a single session
/// applies.
pub fn rank_members(
    graph: &AttributedGraph,
    probs: &[f32],
    req: &QueryRequest,
) -> (Vec<usize>, Vec<f32>) {
    let by_rank = |a: &usize, b: &usize| probs[*b].total_cmp(&probs[*a]).then(a.cmp(b));
    let mut idx: Vec<usize> = (0..probs.len())
        .filter(|&v| req.attrs.is_empty() || req.attrs.iter().any(|&a| graph.has_attr(v, a)))
        .filter(|&v| req.top_k.is_some() || probs[v] >= 0.5)
        .collect();
    if let Some(k) = req.top_k.filter(|&k| k < idx.len()) {
        idx.select_nth_unstable_by(k, by_rank);
        idx.truncate(k);
    }
    idx.sort_unstable_by(by_rank);
    let member_probs = idx.iter().map(|&v| probs[v]).collect();
    (idx, member_probs)
}

/// Builds a serving task over a whole graph: a pool of `max_shots`
/// labelled support examples drawn from its known communities, no
/// targets. This is the session substrate when serving a dataset graph
/// directly (the CLI path); callers with their own labelled examples
/// construct a [`Task`] instead.
pub fn serve_task(graph: &AttributedGraph, max_shots: usize, seed: u64) -> Result<Task, String> {
    let cfg = TaskConfig {
        shots: max_shots,
        n_targets: 0,
        ..Default::default()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    task_on_whole_graph(graph, &cfg, &mut rng)
        .ok_or_else(|| "could not sample a support pool from the serving graph".into())
}
