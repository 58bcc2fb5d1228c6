//! [`ShardedSession`]: N per-partition [`ServeSession`]s behind one
//! scatter/gather coordinator, answering the same wire protocol as a
//! single session — bitwise.
//!
//! The coordinator runs the session's own tick ([`query_tick`]), update
//! burst ([`update_burst`]) and counters ([`ServeStats`]) over the
//! global graph; what lives here is only what sharding adds —
//! partitioning, halo reconciliation, the scatter/gather that scores a
//! shot group (one `scatter_gather<E>` over the forward-only executor's
//! contexts, whatever the dtype or kernel tier: every query set's
//! centroid gathered first, then one fan-out in which each shard scores
//! the whole group in one pass), the owned-row merge, and shard epochs.
//!
//! A shard's halo exists only to make its owned rows exact, so scoring
//! reads owned rows alone: each shard keeps the local ids of the nodes
//! it owns (`owned_local`, position for position with the coordinator's
//! owned list) and scores only those. The shards together then score
//! each node once, however much of the graph their halos cover.
//!
//! ## Why the merge is bitwise-deterministic
//!
//! Each shard serves the subgraph induced by its partition plus a
//! halo of [`halo_depth_for`] hops (one more than the model's total
//! message-passing depth). By induction over layers, every **owned**
//! row of a shard's encoder/decoder output is computed from exactly the
//! same neighborhoods, degrees, and base features as the unsharded
//! forward. The induced node lists are sorted ascending by global id,
//! so local ids are order-isomorphic to global ids and every CSR
//! accumulation (spmm rows, GAT arc segments, softmax segments) visits
//! the same values in the same order — equal floating-point results,
//! not merely close ones. Two global quantities are handled centrally:
//! core-number features (normalised by the *global* degeneracy, so the
//! coordinator injects the globally computed column into every shard)
//! and the query centroids (gathered from owning shards and broadcast,
//! so every shard scores against identical bits). `CentroidScores`
//! computes each (row, query) chain on its own, so the owned rows a
//! shard scores hold exactly the full pass's entries, whichever other
//! queries share the group. Merging then writes each shard's scores to
//! the global ids of its owned list in fixed shard order — no node is
//! owned twice, so the merge is a permutation, not a reduction.
//!
//! ## Epochs
//!
//! Each shard is one session over its induced subgraph, all sharing one
//! model `Arc`. Live updates apply to the global graph, then route to
//! every shard whose local set they touch; each routed frame bumps that
//! shard's epoch, and the summary reports the full epoch vector.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use cgnp_core::{infer, Cgnp, CgnpConfig, CommutativeOp, DecoderKind};
use cgnp_data::{model_input_dim, QueryExample, Task};
use cgnp_graph::{algo, AttributedGraph, Graph};
use cgnp_serve::{
    finish_burst, query_tick, update_burst, Applied, QueryEngine, QueryRequest, QueryResponse,
    ServeConfig, ServeSession, ServeStats, ServeSummary, TickView, UpdateOp, UpdateRequest,
};
use cgnp_tensor::{Block, CentroidScores, Dtype, Elem, MatrixT};

use crate::partition::{halo_ball, partition_graph};

/// Sharded-deployment knobs on top of the per-session [`ServeConfig`].
#[derive(Clone, Copy, Debug)]
pub struct ShardedConfig {
    /// Number of graph partitions (≥ 1).
    pub shards: usize,
    /// Sessions per shard. Only `1` is supported — a shard is one
    /// session — and [`ShardedSession::with_shared_model`] refuses any
    /// other value; the field exists for callers that spell the whole
    /// struct out.
    pub replicas: usize,
    /// Per-session tuning; `seed` also seeds the partitioner. The
    /// coordinator owns the scoring fan-out (`threads` becomes
    /// shard-parallelism: at most that many shards score at once, and at
    /// 1 they score one after another on the calling thread), so
    /// per-shard sessions score single-threaded.
    pub serve: ServeConfig,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            replicas: 1,
            serve: ServeConfig::default(),
        }
    }
}

/// Hop radius a shard's halo needs for bitwise-exact owned rows: the
/// model's total message-passing depth plus one. The extra hop keeps
/// every *consumed* degree, clustering coefficient, and adjacency row
/// exact — nodes on the outermost ring may carry truncated features,
/// but only nodes strictly inside it are ever read when computing an
/// owned row (see the module docs for the induction).
pub fn halo_depth_for(config: &CgnpConfig) -> usize {
    let decoder_layers = match config.decoder {
        // "a two-layer GNN which has the same configuration as the
        // encoder" (§VII-A) — see `cgnp_core::Decoder::new`.
        DecoderKind::Gnn => 2,
        DecoderKind::InnerProduct | DecoderKind::Mlp => 0,
    };
    config.encoder.n_layers + decoder_layers + 1
}

/// The core-number feature column of the **global** graph, exactly as
/// `cgnp_data::base_features` computes it (same expression, same
/// normalisation by the global degeneracy) — the bits the coordinator
/// injects into every shard.
fn global_core_column(g: &Graph) -> Vec<f32> {
    let cores = algo::core_numbers(g);
    let max_core = cores.iter().copied().max().unwrap_or(1).max(1) as f32;
    cores.iter().map(|&c| c as f32 / max_core).collect()
}

/// Restricts a global support example to a shard: the indicator-marked
/// set `{query} ∪ pos` intersected with the shard's local nodes, in
/// canonical (sorted, deduplicated) local ids. An example whose marked
/// set misses the shard entirely becomes the unmarked sentinel view
/// (`query = NO_QUERY`) — its indicator column is all-zero on this
/// shard, exactly like the global view restricted to these rows.
/// `neg`/`truth` never reach the encoder, so they are dropped.
fn translate_example(ex: &QueryExample, local_of: &HashMap<usize, usize>) -> QueryExample {
    let mut marked: Vec<usize> = std::iter::once(ex.query)
        .chain(ex.pos.iter().copied())
        .filter_map(|v| local_of.get(&v).copied())
        .collect();
    marked.sort_unstable();
    marked.dedup();
    match marked.split_first() {
        Some((&query, pos)) => QueryExample {
            query,
            pos: pos.to_vec(),
            neg: Vec::new(),
            truth: Vec::new(),
        },
        None => QueryExample {
            query: cgnp_data::NO_QUERY,
            pos: Vec::new(),
            neg: Vec::new(),
            truth: Vec::new(),
        },
    }
}

/// One partition: its local (owned ∪ halo) node list, session, and
/// update epoch.
struct Shard {
    /// Local node list, ascending by global id; local id = position.
    local: Vec<usize>,
    /// Inverse of `local`: global id → local id.
    local_of: HashMap<usize, usize>,
    /// Local ids of this shard's owned nodes, position for position with
    /// `Global::owned` — the only rows scoring reads.
    owned_local: Vec<usize>,
    /// The session over the induced subgraph.
    session: ServeSession,
    /// Bumped once per live update routed to this shard.
    epoch: u64,
}

/// Everything a live update mutates, behind one write lock (queries
/// hold the read half for a whole tick, mirroring [`ServeSession`]).
struct Global {
    /// The full serving graph; the oracle all shard state derives from.
    graph: AttributedGraph,
    /// The global support pool; shards hold per-partition translations.
    support: Vec<QueryExample>,
    /// Owning shard per node.
    owner: Vec<usize>,
    /// Per shard: owned nodes, ascending.
    owned: Vec<Vec<usize>>,
    shards: Vec<Shard>,
    /// The globally computed core column as last injected into shards.
    core_col: Vec<f32>,
}

/// A scatter/gather serving coordinator over N partitions,
/// wire-compatible (and bitwise response-compatible) with a single
/// [`ServeSession`] over the same graph.
pub struct ShardedSession {
    model: Arc<Cgnp>,
    cfg: ShardedConfig,
    halo: usize,
    global: RwLock<Global>,
    stats: Mutex<ServeStats>,
}

impl ShardedSession {
    /// Partitions the task graph and builds every per-shard session.
    /// Fails on a self-attention aggregator (it mixes rows across the
    /// whole graph, which no finite halo can make exact), on an empty
    /// support pool, on more shards than nodes, and on `replicas != 1`.
    pub fn new(model: Cgnp, task: Task, cfg: ShardedConfig) -> Result<Self, String> {
        Self::with_shared_model(Arc::new(model), task, cfg)
    }

    /// [`ShardedSession::new`] over an already-shared model.
    pub fn with_shared_model(
        model: Arc<Cgnp>,
        task: Task,
        cfg: ShardedConfig,
    ) -> Result<Self, String> {
        if model.config().commutative == CommutativeOp::SelfAttention {
            return Err(
                "self-attention aggregation reads every node's row and cannot be sharded \
                 with a finite halo; use sum or mean aggregation"
                    .into(),
            );
        }
        if cfg.replicas != 1 {
            return Err(format!(
                "replicas = {} is not supported: each shard is exactly one session \
                 (set replicas to 1)",
                cfg.replicas
            ));
        }
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
        let n_shards = cfg.shards.max(1);
        let halo = halo_depth_for(model.config());
        let parts = partition_graph(task.graph.graph(), n_shards, halo, cfg.serve.seed)?;
        let core_col = global_core_column(task.graph.graph());
        let shards = parts
            .local
            .iter()
            .zip(&parts.owned)
            .map(|(local, owned)| {
                build_shard(
                    &model,
                    &task.graph,
                    &task.support,
                    local,
                    owned,
                    &cfg.serve,
                    &core_col,
                )
            })
            .collect::<Result<Vec<Shard>, String>>()?;
        Ok(Self {
            model,
            halo,
            global: RwLock::new(Global {
                graph: task.graph,
                support: task.support,
                owner: parts.owner,
                owned: parts.owned,
                shards,
                core_col,
            }),
            stats: Mutex::new(ServeStats::default()),
            cfg,
        })
    }

    /// Restores a checkpoint and wraps it in a sharded session (same
    /// architecture resolution as [`ServeSession::from_checkpoint`]).
    pub fn from_checkpoint(
        path: impl AsRef<Path>,
        template: CgnpConfig,
        task: Task,
        cfg: ShardedConfig,
    ) -> Result<Self, String> {
        let in_dim = model_input_dim(&task.graph);
        let model = cgnp_eval::restore_model(path, template, in_dim, cfg.serve.seed)?;
        Self::new(model, task, cfg)
    }

    fn read_global(&self) -> std::sync::RwLockReadGuard<'_, Global> {
        self.global.read().expect("sharded state lock")
    }

    /// Number of nodes of the (global) serving graph.
    pub fn n(&self) -> usize {
        self.read_global().graph.n()
    }

    /// Attribute vocabulary size of the serving graph.
    pub fn n_attrs(&self) -> usize {
        self.read_global().graph.n_attrs()
    }

    /// Size of the global labelled support pool.
    pub fn max_shots(&self) -> usize {
        self.read_global().support.len()
    }

    /// Current global graph epoch.
    pub fn epoch(&self) -> u64 {
        self.read_global().graph.epoch()
    }

    /// Per-shard update epochs, in fixed shard order.
    pub fn shard_epochs(&self) -> Vec<u64> {
        self.read_global().shards.iter().map(|s| s.epoch).collect()
    }

    pub fn n_shards(&self) -> usize {
        self.read_global().shards.len()
    }

    /// Checks the row bookkeeping scoring relies on: for every shard `s`,
    /// its owned local ids name, position for position, the nodes the
    /// coordinator assigns to it (`local[owned_local[i]] == owned[s][i]`).
    /// A stale list would score the wrong rows yet pass any comparison
    /// whose queries never rank the affected nodes, so the test suites
    /// call this after every path that builds or grows a shard.
    pub fn check_owned_rows(&self) -> Result<(), String> {
        let global = self.read_global();
        for (s, (shard, owned)) in global.shards.iter().zip(&global.owned).enumerate() {
            if shard.owned_local.len() != owned.len() {
                return Err(format!(
                    "shard {s}: {} owned local ids for {} owned nodes",
                    shard.owned_local.len(),
                    owned.len()
                ));
            }
            for (i, (&li, &gv)) in shard.owned_local.iter().zip(owned).enumerate() {
                if shard.local.get(li) != Some(&gv) {
                    return Err(format!(
                        "shard {s}: owned position {i} is local id {li}, which is not node {gv}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Answers one request (a micro-batch of one).
    pub fn answer(&self, req: &QueryRequest) -> QueryResponse {
        self.answer_batch(std::slice::from_ref(req))
            .pop()
            .expect("one response per request")
    }

    /// Answers a micro-batch by scatter/gather — the same
    /// [`query_tick`] a single session runs, with its own way of scoring
    /// a shot group: each shard contributes one decoded context
    /// (cached across ticks inside its session); every query set's
    /// centroid is gathered from the owning shards' exact rows, the
    /// group's centroids are broadcast together, each shard scores its
    /// owned rows against all of them in one pass (shards in parallel:
    /// one fan-out per group), and each query's scores are merged in
    /// fixed shard order.
    pub fn answer_batch(&self, reqs: &[QueryRequest]) -> Vec<QueryResponse> {
        let t0 = Instant::now();
        let global = self.read_global();
        let view = TickView {
            graph: &global.graph,
            max_shots: global.support.len(),
        };
        query_tick(t0, view, &self.stats, reqs, |shots, batch| {
            let ctxs: Vec<Arc<Block>> = global
                .shards
                .iter()
                .map(|sh| sh.session.context_for_shots(shots))
                .collect();
            let threads = self.cfg.serve.threads;
            match self.cfg.serve.precision {
                Dtype::F32 => scatter_gather::<f32>(&ctxs, &global, batch, threads),
                Dtype::F64 => scatter_gather::<f64>(&ctxs, &global, batch, threads),
            }
        })
    }

    /// Applies one live update (see [`ShardedSession::apply_updates`]).
    pub fn apply_update(&self, req: &UpdateRequest) -> QueryResponse {
        self.apply_updates(std::slice::from_ref(req))
            .pop()
            .expect("one ack per update")
    }

    /// Applies a burst of updates to the global graph under one write
    /// acquisition, then reconciles every shard **once**: halos are
    /// recomputed, shards whose local node set gained pre-existing
    /// nodes are rebuilt, and every other touched shard receives its
    /// translated frames as one batched [`ServeSession::apply_updates`]
    /// call (one refresh per shard per burst). The globally computed
    /// core column is re-injected wherever it changed. Acks — ids,
    /// errors, members, per-frame graph epochs — are identical to an
    /// unsharded session applying the same burst.
    pub fn apply_updates(&self, reqs: &[UpdateRequest]) -> Vec<QueryResponse> {
        let t0 = Instant::now();
        let mut guard = self.global.write().expect("sharded state lock");
        let global = &mut *guard;
        let old_n = global.graph.n();
        let (acks, applied) = update_burst(&mut global.graph, &mut global.support, reqs);
        if !applied.is_empty() {
            self.reconcile(global, &applied, old_n);
        }
        finish_burst(&self.stats, t0, applied.len(), acks)
    }

    /// Post-burst shard reconciliation; see [`ShardedSession::apply_updates`].
    fn reconcile(&self, global: &mut Global, applied: &[Applied], old_n: usize) {
        let any_topo = applied
            .iter()
            .any(|a| matches!(a, Applied::Edge(..) | Applied::Node(_)));
        // New nodes join the least-loaded shard (lowest index on ties) —
        // deterministic, and keeps the balance drift bounded.
        for w in old_n..global.graph.n() {
            let o = (0..global.owned.len())
                .min_by_key(|&s| (global.owned[s].len(), s))
                .expect("at least one shard");
            global.owner.push(o);
            global.owned[o].push(w); // new ids are maximal: stays sorted
        }
        let Global {
            graph,
            support,
            owned,
            shards,
            core_col,
            ..
        } = global;
        if any_topo {
            let new_col = global_core_column(graph.graph());
            let new_locals: Vec<Vec<usize>> = owned
                .iter()
                .map(|o| halo_ball(graph.graph(), o, self.halo))
                .collect();
            for ((shard, new_local), owned) in shards.iter_mut().zip(new_locals).zip(owned.iter()) {
                self.reconcile_shard(
                    graph, support, core_col, shard, new_local, owned, &new_col, applied, old_n,
                );
            }
            *core_col = new_col;
        } else {
            // Support-only burst: forward the translated frames to every
            // shard (one batched apply each; the sessions' refresh
            // no-ops because no graph epoch moved, so the injected core
            // column survives).
            for shard in shards.iter_mut() {
                let frames = translate_frames(applied, graph, &shard.local_of);
                forward(&shard.session, &frames);
            }
        }
        // Epoch attribution: one bump per routed frame. Edges route to
        // shards whose (post-burst) local set holds an endpoint, nodes
        // to shards that absorbed them, support rotations to everyone.
        for shard in shards.iter_mut() {
            for a in applied {
                let touched = match *a {
                    Applied::Edge(u, v) => {
                        shard.local_of.contains_key(&u) || shard.local_of.contains_key(&v)
                    }
                    Applied::Node(w) => shard.local_of.contains_key(&w),
                    Applied::Support { .. } => true,
                };
                if touched {
                    shard.epoch += 1;
                }
            }
        }
    }

    /// Brings one shard up to date after a topology-changing burst:
    /// forwards translated frames when the local set only gained the
    /// burst's own new nodes, rebuilds the shard otherwise (adding
    /// edges only shrinks distances, so halos only grow — a pre-existing
    /// node entering the halo is the one case incremental forwarding
    /// cannot express). `owned` is the shard's owned list after the
    /// burst: the old one plus any newborns assigned to it.
    #[allow(clippy::too_many_arguments)]
    fn reconcile_shard(
        &self,
        graph: &AttributedGraph,
        support: &[QueryExample],
        old_core_col: &[f32],
        shard: &mut Shard,
        new_local: Vec<usize>,
        owned: &[usize],
        new_col: &[f32],
        applied: &[Applied],
        old_n: usize,
    ) {
        let grown_only = new_local.len() >= shard.local.len()
            && new_local[..shard.local.len()] == shard.local[..]
            && new_local[shard.local.len()..].iter().all(|&v| v >= old_n);
        if grown_only {
            for (li, &gv) in new_local.iter().enumerate().skip(shard.local.len()) {
                shard.local_of.insert(gv, li);
            }
            shard.local = new_local;
            let newborns = &owned[shard.owned_local.len()..];
            shard
                .owned_local
                .extend(newborns.iter().map(|w| shard.local_of[w]));
            let frames = translate_frames(applied, graph, &shard.local_of);
            let topo_forwarded = frames
                .iter()
                .any(|f| matches!(f.op, UpdateOp::AddEdge { .. } | UpdateOp::AddNode { .. }));
            forward(&shard.session, &frames);
            // Any session-side refresh recomputed the core column from
            // the *local* graph; the injected global column also goes
            // stale whenever the global cores moved under this shard.
            let col: Vec<f32> = shard.local.iter().map(|&v| new_col[v]).collect();
            let col_changed = shard
                .local
                .iter()
                .zip(&col)
                .any(|(&v, c)| old_core_col.get(v) != Some(c));
            if topo_forwarded || col_changed {
                shard
                    .session
                    .override_core_column(&col)
                    .expect("column length matches the shard graph");
            }
        } else {
            let rebuilt = build_shard(
                &self.model,
                graph,
                support,
                &new_local,
                owned,
                &self.cfg.serve,
                new_col,
            )
            .expect("rebuilding a shard from already-validated state");
            let epoch = shard.epoch;
            *shard = rebuilt;
            shard.epoch = epoch;
        }
    }

    /// Serving summary. `shard_epochs` reports the per-shard update
    /// epochs in fixed shard order; `context_builds`/`context_hits`
    /// aggregate over every shard.
    pub fn summary(&self) -> ServeSummary {
        let global = self.read_global();
        let (mut context_builds, mut context_hits) = (0u64, 0u64);
        for shard in &global.shards {
            let (builds, hits) = shard.session.context_counters();
            context_builds += builds;
            context_hits += hits;
        }
        let shard_epochs: Vec<u64> = global.shards.iter().map(|s| s.epoch).collect();
        let epoch = global.graph.epoch();
        let log_evictions = global.graph.log_evictions();
        drop(global);
        let stats = self.stats.lock().expect("stats lock");
        ServeSummary {
            context_builds,
            context_hits,
            shard_epochs: Some(shard_epochs),
            ..stats.summary(epoch, log_evictions, &self.cfg.serve)
        }
    }
}

/// Translates a burst's applied mutations into a shard's local frames,
/// preserving burst order. Edges forward only when both endpoints are
/// local (a cut edge whose inner endpoint sits on the halo fringe is, by
/// the halo-growth argument, never consumed by an owned row); nodes
/// forward when the shard absorbed them into its local set (newly added
/// ids are maximal and the local list is ascending, so session-side
/// appends land at exactly the planned local ids); support rotations
/// always forward, with the added example restricted to the shard.
fn translate_frames(
    applied: &[Applied],
    graph: &AttributedGraph,
    local_of: &HashMap<usize, usize>,
) -> Vec<UpdateRequest> {
    let mut frames = Vec::new();
    for a in applied {
        let op = match a {
            Applied::Edge(u, v) => match (local_of.get(u), local_of.get(v)) {
                (Some(&lu), Some(&lv)) => Some(UpdateOp::AddEdge { u: lu, v: lv }),
                _ => None,
            },
            Applied::Node(w) => local_of.contains_key(w).then(|| UpdateOp::AddNode {
                attrs: graph.attrs_of(*w).to_vec(),
            }),
            Applied::Support { add, expire } => Some(UpdateOp::UpdateSupport {
                add: add.as_ref().map(|ex| translate_example(ex, local_of)),
                expire: *expire,
            }),
        };
        if let Some(op) = op {
            frames.push(UpdateRequest { id: 0, op });
        }
    }
    frames
}

/// Scatter/gather scoring of one shot group in one fan-out. First, for
/// every query set, gather the exact (owned) query rows from the shards
/// owning them and build the centroid centrally — the same kernel, same
/// bits as the unsharded `select_rows(queries).mean_rows()` — stacking
/// the group's `B` centroids into one `B × d` matrix. Then broadcast it:
/// each shard scores its owned rows (`owned_local`; halo rows are never
/// read) against all `B` centroids in one [`CentroidScores`] pass, which
/// reads those rows once for the whole group. Last, merge each query's
/// vector. At most `threads` shards score at once, each a run of adjacent
/// shards on one pool job; at one thread every shard scores on the
/// calling thread, in shard order. Every (row, query) logit is its own
/// chain, so neither the row subset, a query's place in the group, nor
/// the schedule moves a bit. Rows are gathered and the centroids
/// broadcast as raw `E` bits, which is why every shard serves the
/// coordinator's dtype (each shard's config is the coordinator's
/// [`ServeConfig`]).
fn scatter_gather<E: Elem>(
    ctxs: &[Arc<Block>],
    global: &Global,
    batch: &[Vec<usize>],
    threads: usize,
) -> Vec<Vec<f32>> {
    let mats: Vec<&MatrixT<E>> = ctxs
        .iter()
        .map(|b| {
            b.as_typed::<E>()
                .expect("all shards serve the coordinator's dtype")
        })
        .collect();
    let d = mats[0].cols();
    let mut centroids = Vec::with_capacity(batch.len() * d);
    for nodes in batch {
        let rows: Vec<&[E]> = nodes
            .iter()
            .map(|&q| {
                let s = global.owner[q];
                mats[s].row(global.shards[s].local_of[&q])
            })
            .collect();
        centroids.extend(infer::centroid_of_rows(&rows));
    }
    let centroids = &MatrixT::from_vec(batch.len(), d, centroids);
    let score = |slots: &mut [Vec<Vec<f32>>], contexts: &[&MatrixT<E>], shards: &[Shard]| {
        for ((slot, &context), shard) in slots.iter_mut().zip(contexts).zip(shards) {
            *slot =
                CentroidScores { context, centroids }.forward(Some(&shard.owned_local), Some(1));
        }
    };
    let per_job = mats.len().div_ceil(threads.max(1));
    let mut per_shard: Vec<Vec<Vec<f32>>> = vec![Vec::new(); mats.len()];
    if per_job == mats.len() {
        score(&mut per_shard, &mats, &global.shards);
    } else {
        rayon::scope(|scope| {
            let jobs = per_shard
                .chunks_mut(per_job)
                .zip(mats.chunks(per_job))
                .zip(global.shards.chunks(per_job));
            for ((slots, contexts), shards) in jobs {
                scope.spawn(move |_| score(slots, contexts, shards));
            }
        });
    }
    (0..batch.len())
        .map(|q| merge_owned(global, per_shard.iter().map(|scores| scores[q].as_slice())))
        .collect()
}

/// Gather for one query: shard `s`'s vector belongs, position for
/// position, to `Global::owned[s]`; written in fixed shard order. Each
/// node is owned exactly once, so this is a permutation of shard outputs,
/// not a floating-point reduction.
fn merge_owned<'a>(global: &Global, per_shard: impl Iterator<Item = &'a [f32]>) -> Vec<f32> {
    let mut probs = vec![0.0f32; global.graph.n()];
    for (owned, scores) in global.owned.iter().zip(per_shard) {
        for (&gv, &p) in owned.iter().zip(scores) {
            probs[gv] = p;
        }
    }
    probs
}

/// Applies translated frames to one shard's session, asserting they all
/// land — they were validated against the same state globally.
fn forward(session: &ServeSession, frames: &[UpdateRequest]) {
    if frames.is_empty() {
        return;
    }
    for ack in session.apply_updates(frames) {
        debug_assert!(ack.ok, "translated frame refused: {:?}", ack.error);
    }
}

/// Builds one shard: induced subgraph on `local`, the local ids of
/// `owned` (which `local` contains), translated support, one session
/// (single-threaded scoring — parallelism fans across shards), global
/// core column injected.
fn build_shard(
    model: &Arc<Cgnp>,
    graph: &AttributedGraph,
    support: &[QueryExample],
    local: &[usize],
    owned: &[usize],
    serve: &ServeConfig,
    core_col: &[f32],
) -> Result<Shard, String> {
    let (sub, _back) = graph.induced_subgraph(local);
    let local_of: HashMap<usize, usize> = local.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let task = Task {
        graph: sub,
        support: support
            .iter()
            .map(|ex| translate_example(ex, &local_of))
            .collect(),
        targets: Vec::new(),
    };
    let session_cfg = ServeConfig {
        threads: 1,
        ..*serve
    };
    let session = ServeSession::with_shared_model(Arc::clone(model), task, session_cfg)?;
    let col: Vec<f32> = local.iter().map(|&v| core_col[v]).collect();
    session.override_core_column(&col)?;
    Ok(Shard {
        local: local.to_vec(),
        owned_local: owned.iter().map(|v| local_of[v]).collect(),
        local_of,
        session,
        epoch: 0,
    })
}

impl QueryEngine for ShardedSession {
    fn n(&self) -> usize {
        ShardedSession::n(self)
    }

    fn n_attrs(&self) -> usize {
        ShardedSession::n_attrs(self)
    }

    fn max_shots(&self) -> usize {
        ShardedSession::max_shots(self)
    }

    fn batch(&self) -> usize {
        self.cfg.serve.batch.max(1)
    }

    fn answer_batch(&self, reqs: &[QueryRequest]) -> Vec<QueryResponse> {
        ShardedSession::answer_batch(self, reqs)
    }

    fn apply_update(&self, req: &UpdateRequest) -> QueryResponse {
        ShardedSession::apply_update(self, req)
    }

    fn apply_updates(&self, reqs: &[UpdateRequest]) -> Vec<QueryResponse> {
        ShardedSession::apply_updates(self, reqs)
    }

    fn session_summary(&self) -> Option<ServeSummary> {
        Some(self.summary())
    }

    fn snapshot_state(&self) -> Option<cgnp_serve::snapshot::SnapshotState> {
        // The coordinator's global graph + pool are the oracle all shard
        // state derives from, so they are the whole durable state: a
        // recovered coordinator rebuilds its shards from them and is
        // bitwise-identical to one that never crashed.
        let global = self.read_global();
        Some(cgnp_serve::snapshot::SnapshotState {
            graph: global.graph.clone(),
            support: global.support.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 160;

    /// A ring with a chord every 9 nodes: its diameter dwarfs the halo,
    /// so every shard holds only part of the graph.
    fn ring_task() -> Task {
        let mut edges: Vec<(usize, usize)> = (0..N).map(|v| (v, (v + 1) % N)).collect();
        edges.extend((0..N).step_by(9).map(|v| (v, (v + 2) % N)));
        let attrs = (0..N).map(|v| vec![(v % 3) as u32]).collect();
        let communities = (0..8)
            .map(|c| (c * 20..(c + 1) * 20).map(|v| v as u32).collect())
            .collect();
        let support = (0..4)
            .map(|c| QueryExample {
                query: c * 20 + 3,
                pos: vec![c * 20 + 4, c * 20 + 7],
                neg: Vec::new(),
                truth: Vec::new(),
            })
            .collect();
        Task {
            graph: AttributedGraph::new(Graph::from_edges(N, &edges), 3, attrs, communities),
            support,
            targets: Vec::new(),
        }
    }

    fn locals(session: &ShardedSession) -> Vec<Vec<usize>> {
        let global = session.read_global();
        global.shards.iter().map(|s| s.local.clone()).collect()
    }

    fn apply(session: &ShardedSession, ops: Vec<UpdateOp>) {
        let reqs: Vec<UpdateRequest> = ops
            .into_iter()
            .map(|op| UpdateRequest { id: 0, op })
            .collect();
        for ack in session.apply_updates(&reqs) {
            assert!(ack.ok, "update refused: {:?}", ack.error);
        }
    }

    #[test]
    fn owned_rows_follow_ownership_through_a_birth_and_a_rebuild() {
        let task = ring_task();
        let mut config = CgnpConfig::paper_default(model_input_dim(&task.graph), 8);
        config.commutative = CommutativeOp::Mean;
        let cfg = ShardedConfig {
            shards: 3,
            replicas: 1,
            serve: ServeConfig {
                seed: 9,
                ..ServeConfig::default()
            },
        };
        let session = ShardedSession::new(Cgnp::new(config, 7), task, cfg).unwrap();
        session.check_owned_rows().unwrap();

        // A birth joined to a node the least-loaded shard owns: that shard
        // takes the newborn, and no shard's halo gains an older node, so
        // every shard takes the grown-only path.
        let (least_loaded, anchor) = {
            let global = session.read_global();
            let s = (0..3).min_by_key(|&s| (global.owned[s].len(), s)).unwrap();
            (s, global.owned[s][0])
        };
        let before = locals(&session);
        apply(
            &session,
            vec![
                UpdateOp::AddNode { attrs: vec![1] },
                UpdateOp::AddEdge { u: N, v: anchor },
            ],
        );
        for (old, new) in before.iter().zip(locals(&session)) {
            assert_eq!(new[..old.len()], old[..], "birth rebuilt a shard");
            assert!(new[old.len()..].iter().all(|&v| v == N));
        }
        assert_eq!(session.read_global().owned[least_loaded].last(), Some(&N));
        session.check_owned_rows().unwrap();

        // A chord across the ring pulls older nodes into some halo, which
        // only a rebuild can express.
        let before = locals(&session);
        apply(&session, vec![UpdateOp::AddEdge { u: 20, v: 120 }]);
        let rebuilt = before
            .iter()
            .zip(locals(&session))
            .any(|(old, new)| new.iter().any(|&v| v < N && old.binary_search(&v).is_err()));
        assert!(rebuilt, "the chord should force a shard rebuild");
        session.check_owned_rows().unwrap();
    }
}
