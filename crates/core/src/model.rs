//! The CGNP model (Fig. 2): GNN encoder ϕθ → commutative ⊕ → decoder ρθ.
//!
//! [`Cgnp`] is written once over the op set of [`cgnp_nn::Backend`]; its
//! type parameter is the parameter type. `Cgnp` (taped tensors, the
//! default) is what meta-training differentiates through, and what
//! [`Cgnp::predict`] / [`Cgnp::predict_multi`] run under `no_grad` as the
//! oracle every executor result is pinned bitwise against. The same code
//! over plain matrices, with the weights cast once
//! ([`crate::infer::InferModel`]), runs serving, the evaluation
//! harness's meta-test ([`Cgnp::predict_task`]) and the validation sweep.
//!
//! The taped context comes in two halves. [`Cgnp::encode_views`] runs the
//! K encoder passes — independent by construction: same graph, same
//! weights, one indicator column apart — on up to `threads` pool workers;
//! [`Cgnp::decode`] joins them (`⊕`, then the decoder transform:
//! [`Cgnp::join`], the half both backends share) on the caller.
//! [`Cgnp::context`] is the two composed at the pool's width, so the
//! oracle fans out whenever it is not already inside a fan-out, and the
//! training step (`crate::train`) puts a tape cut between the halves to
//! send the backward pass out the same way. [`Cgnp::encode_view`] stays
//! the serial building block and the oracle the fan-out is tested
//! against.

use std::collections::BTreeSet;
use std::sync::Arc;

use cgnp_data::{base_features_with_cores, with_indicator, QueryExample, Task, NO_QUERY};
use cgnp_graph::{algo, GraphMutation};
use cgnp_nn::{Backend, ForwardCtx, GnnEncoder, GraphContext, Module, ParamSource};
use cgnp_tensor::{MathMode, Matrix, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::commutative::Commutative;
use crate::config::CgnpConfig;
use crate::decoder::Decoder;
use crate::infer::{self, InferModel, InferState};
use crate::par::par_map;

/// How a stale [`PreparedTask`] catches up with its mutated graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RefreshStrategy {
    /// Rebuild operators and base features from scratch at the new epoch.
    EpochSwap,
    /// Patch only the operator/feature rows the mutation log touches;
    /// falls back to a full rebuild when the log has been truncated.
    #[default]
    PerRow,
}

/// A task with its graph operators and base features precomputed; built
/// once and reused across epochs and queries.
pub struct PreparedTask {
    pub task: Task,
    pub gctx: GraphContext,
    /// Base node features (`attrs ‖ core ‖ lcc`), without the indicator
    /// channel.
    pub base: Matrix,
    /// Raw core numbers the core column was derived from, so a per-row
    /// refresh can patch only the rows a mutation actually moved. `None`
    /// after [`PreparedTask::override_core_column`]: the column no longer
    /// derives from this graph's cores, so the next per-row refresh must
    /// rewrite it wholesale.
    cores: Option<Vec<usize>>,
}

impl PreparedTask {
    pub fn new(task: Task) -> Self {
        let epoch = task.graph.epoch();
        let gctx = GraphContext::at_epoch(task.graph.graph(), epoch);
        let (base, cores) = base_features_with_cores(&task.graph);
        Self {
            task,
            gctx,
            base,
            cores: Some(cores),
        }
    }

    /// Overwrites the core-number feature column with externally supplied
    /// per-node values (one per node, already normalised). Sharded
    /// serving uses this: core numbers are a global property of the full
    /// graph, so a shard's locally computed column is wrong at the halo
    /// fringe and the coordinator injects the global one instead. After
    /// an override the column no longer derives from this graph, so the
    /// cached cores are dropped and the next per-row refresh rewrites the
    /// column from local state (the coordinator re-injects afterwards).
    pub fn override_core_column(&mut self, column: &[f32]) -> Result<(), String> {
        let n = self.task.n();
        if column.len() != n {
            return Err(format!(
                "core column has {} entries but the graph has {n} nodes",
                column.len()
            ));
        }
        let d = self.task.graph.n_attrs() + 2;
        for (v, &c) in column.iter().enumerate() {
            self.base.row_mut(v)[d - 2] = c;
        }
        self.cores = None;
        Ok(())
    }

    /// Graph epoch the operators and features were derived at.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.gctx.epoch()
    }

    /// True when the underlying graph has mutated past the derived state.
    #[inline]
    pub fn is_stale(&self) -> bool {
        self.task.graph.epoch() != self.epoch()
    }

    /// Brings operators and base features up to the graph's current epoch.
    ///
    /// Both strategies yield state bitwise-identical to a scratch
    /// [`PreparedTask::new`] on the mutated graph; `PerRow` merely touches
    /// fewer rows when the mutation batch is small relative to the graph.
    pub fn refresh(&mut self, strategy: RefreshStrategy) {
        let target = self.task.graph.epoch();
        let since = self.epoch();
        if target == since {
            return;
        }
        let log: Option<Vec<GraphMutation>> = match strategy {
            RefreshStrategy::EpochSwap => None,
            RefreshStrategy::PerRow => self.task.graph.mutations_since(since).map(|m| m.to_vec()),
        };
        match log {
            Some(muts) => self.refresh_per_row(&muts, target),
            None => {
                self.gctx = GraphContext::at_epoch(self.task.graph.graph(), target);
                let (base, cores) = base_features_with_cores(&self.task.graph);
                self.base = base;
                self.cores = Some(cores);
            }
        }
    }

    fn refresh_per_row(&mut self, muts: &[GraphMutation], target: u64) {
        let ag = &self.task.graph;
        let g = ag.graph();
        let n = g.n();
        let d = ag.n_attrs() + 2;

        // Rows whose adjacency list changed (operator rows), whose local
        // clustering coefficient may have changed, or whose attribute
        // one-hot block must be written (new nodes). Affected sets are
        // computed on the *final* graph: adjacency only grows under the
        // mutation API, so these are supersets of the truly-changed rows,
        // and every row is recomputed from the final graph anyway.
        let mut adj_changed: BTreeSet<usize> = BTreeSet::new();
        let mut lcc_rows: BTreeSet<usize> = BTreeSet::new();
        let mut attr_rows: BTreeSet<usize> = BTreeSet::new();
        for m in muts {
            match *m {
                GraphMutation::EdgeInserted { u, v } => {
                    adj_changed.extend([u, v]);
                    lcc_rows.extend([u, v]);
                    // Common neighbours gain a closed triangle.
                    let (nu, nv) = (g.neighbors(u), g.neighbors(v));
                    let (mut i, mut j) = (0, 0);
                    while i < nu.len() && j < nv.len() {
                        match nu[i].cmp(&nv[j]) {
                            std::cmp::Ordering::Less => i += 1,
                            std::cmp::Ordering::Greater => j += 1,
                            std::cmp::Ordering::Equal => {
                                lcc_rows.insert(nu[i] as usize);
                                i += 1;
                                j += 1;
                            }
                        }
                    }
                }
                GraphMutation::NodeAdded { v } => {
                    adj_changed.insert(v);
                    lcc_rows.insert(v);
                    attr_rows.insert(v);
                }
            }
        }

        let adj: Vec<usize> = adj_changed.into_iter().collect();
        self.gctx = self.gctx.refreshed(g, &adj, target);

        // Grow the feature matrix if nodes were added, copying the old
        // rows bitwise; new rows are filled below (every new node appears
        // in `attr_rows` and `lcc_rows` via its NodeAdded record).
        if self.base.rows() < n {
            let mut grown = Matrix::zeros(n, d);
            for v in 0..self.base.rows() {
                grown.row_mut(v).copy_from_slice(self.base.row(v));
            }
            self.base = grown;
        }

        // Core numbers normalise by the global degeneracy. The column is
        // only rewritten wholesale when a mutation actually moved that
        // normalisation (or the column was externally overridden);
        // otherwise only the rows whose raw core number changed are
        // patched — the same expression as `base_features` either way.
        let cores = algo::core_numbers(g);
        let max_core_raw = cores.iter().copied().max().unwrap_or(1).max(1);
        let max_core = max_core_raw as f32;
        let unchanged_norm = self
            .cores
            .as_ref()
            .is_some_and(|old| old.iter().copied().max().unwrap_or(1).max(1) == max_core_raw);
        if unchanged_norm {
            let old = self.cores.as_ref().expect("checked above");
            for (v, &core) in cores.iter().enumerate().take(n) {
                if old.get(v) != Some(&core) {
                    self.base.row_mut(v)[d - 2] = core as f32 / max_core;
                }
            }
        } else {
            for (v, &core) in cores.iter().enumerate().take(n) {
                self.base.row_mut(v)[d - 2] = core as f32 / max_core;
            }
        }
        self.cores = Some(cores);
        for &v in &lcc_rows {
            self.base.row_mut(v)[d - 1] = algo::local_clustering_coefficient(g, v);
        }
        for &v in &attr_rows {
            let row = self.base.row_mut(v);
            row[..d - 2].fill(0.0);
            for &a in self.task.graph.attrs_of(v) {
                row[a as usize] = 1.0;
            }
        }
    }
}

/// The Conditional Graph Neural Process, its parameters of type `P`.
pub struct Cgnp<P = Tensor> {
    config: CgnpConfig,
    pub(crate) encoder: GnnEncoder<P>,
    pub(crate) commutative: Commutative<P>,
    pub(crate) decoder: Decoder<P>,
}

impl<P> Cgnp<P> {
    /// Builds a CGNP with its parameters taken from `init`, in
    /// [`Module::params`] order.
    pub(crate) fn build(config: CgnpConfig, init: &mut impl ParamSource<P>) -> Self {
        let (enc, dim) = (&config.encoder, config.encoder.out_dim);
        let encoder = GnnEncoder::new(enc, init);
        let commutative = Commutative::new(config.commutative, dim, config.attention_dim, init);
        let decoder = Decoder::new(config.decoder, dim, config.mlp_hidden, enc, init);
        Self {
            config,
            encoder,
            commutative,
            decoder,
        }
    }

    pub fn config(&self) -> &CgnpConfig {
        &self.config
    }

    /// `⊕` over the views, in order, then the decoder transform under
    /// masks from [`Decoder::draw_masks`]: the part of the context every
    /// view feeds.
    pub fn join<B: Backend<Value = P>>(
        &self,
        b: &B,
        views: impl IntoIterator<Item = P>,
        masks: &[Arc<Matrix>],
    ) -> P {
        let combined = self.commutative.combine(b, views);
        self.decoder.transform(b, combined, masks)
    }
}

impl Cgnp {
    /// Builds a CGNP with weights drawn from `seed`.
    pub fn new(config: CgnpConfig, seed: u64) -> Self {
        Self::build(config, &mut StdRng::seed_from_u64(seed))
    }

    /// The encoder's input for one support pair `(q, l_q)` (Eq. 13 +
    /// Fig. 2): the indicator marks `{q} ∪ l⁺_q` under the close-world
    /// assumption.
    fn view_input(prepared: &PreparedTask, example: &QueryExample) -> Tensor {
        Tensor::constant(with_indicator(&prepared.base, &marked_nodes(example)))
    }

    /// Encoder view for one support pair: the serial building block, one
    /// pass drawing its dropout masks from `fctx` as it goes.
    pub fn encode_view(
        &self,
        prepared: &PreparedTask,
        example: &QueryExample,
        fctx: &mut ForwardCtx<'_>,
    ) -> Tensor {
        let x = Self::view_input(prepared, example);
        self.encoder.forward(&prepared.gctx, &x, fctx)
    }

    /// The views of `support`, in support order, computed on at most
    /// `threads` pool workers — bitwise what a loop over
    /// [`Cgnp::encode_view`] returns, and it leaves `fctx`'s RNG where
    /// that loop would. The views share nothing but the weights, so the
    /// only state to carry across the fan-out is thread-local: the RNG
    /// stays on the caller, which draws view 1's dropout masks, then view
    /// 2's, … (the order the loop draws them) before any pass runs; and
    /// the caller's `no_grad` state travels with the jobs ([`par_map`]).
    pub fn encode_views(
        &self,
        prepared: &PreparedTask,
        support: &[QueryExample],
        fctx: &mut ForwardCtx<'_>,
        threads: usize,
    ) -> Vec<Tensor> {
        assert!(!support.is_empty(), "CGNP requires a non-empty support set");
        let n = prepared.base.rows();
        let work: Vec<_> = support
            .iter()
            .map(|ex| (ex, self.encoder.draw_masks(n, fctx)))
            .collect();
        par_map(&work, threads, |(ex, masks)| {
            let x = Self::view_input(prepared, ex);
            self.encoder.forward_from(&prepared.gctx, x, 0, masks)
        })
    }

    /// [`Cgnp::join`] on the tape, its dropout masks drawn from `fctx`:
    /// the part of the context every view feeds, on the calling thread.
    pub fn decode(
        &self,
        prepared: &PreparedTask,
        views: &[Tensor],
        fctx: &mut ForwardCtx<'_>,
    ) -> Tensor {
        let masks = self.decoder.draw_masks(prepared.gctx.n(), fctx);
        self.join(&prepared.gctx, views.iter().cloned(), &masks)
    }

    /// The task context `H = ⊕_{(q,l) ∈ S} ϕθ(q, l, G)` (Alg. 1 l.5–7,
    /// Alg. 2 l.2–4) followed by the decoder transform. The K encoder
    /// passes fan out across the pool ([`Cgnp::encode_views`]) unless the
    /// caller is itself a pool job, where the width is 1.
    pub fn context(
        &self,
        prepared: &PreparedTask,
        support: &[QueryExample],
        fctx: &mut ForwardCtx<'_>,
    ) -> Tensor {
        let views = self.encode_views(prepared, support, fctx, rayon::current_num_threads());
        self.decode(prepared, &views, fctx)
    }

    /// Membership logits of every node for query `q*` given the decoded
    /// context (Eq. 17, pre-sigmoid).
    pub fn logits(&self, transformed_context: &Tensor, q_star: usize) -> Tensor {
        Decoder::score(transformed_context, q_star)
    }

    /// The eval-mode context over the task's own support, under
    /// `no_grad`, read by `read`: the shared prologue of the taped
    /// meta-test entry points.
    fn with_eval_context<R>(
        &self,
        prepared: &PreparedTask,
        rng: &mut StdRng,
        read: impl FnOnce(&Tensor) -> R,
    ) -> R {
        cgnp_tensor::no_grad(|| {
            let mut fctx = ForwardCtx::eval(rng);
            read(&self.context(prepared, &prepared.task.support, &mut fctx))
        })
    }

    /// Meta-test (Algorithm 2): adapt to the task's support set with zero
    /// gradient steps and return membership probabilities for `q*`. Runs
    /// on the tape under `no_grad`: the oracle [`Cgnp::predict_task`] and
    /// serving are pinned against.
    pub fn predict(&self, prepared: &PreparedTask, q_star: usize, rng: &mut StdRng) -> Vec<f32> {
        self.with_eval_context(prepared, rng, |ctx| probs(&self.logits(ctx, q_star)))
    }

    /// Multi-query extension (see [`Decoder::score_multi`]): membership
    /// probabilities for the community containing **all** of `queries`.
    /// Taped like [`Cgnp::predict`], and the oracle of a multi-node
    /// serving query.
    pub fn predict_multi(
        &self,
        prepared: &PreparedTask,
        queries: &[usize],
        rng: &mut StdRng,
    ) -> Vec<f32> {
        self.with_eval_context(prepared, rng, |ctx| {
            probs(&Decoder::score_multi(ctx, queries))
        })
    }

    /// Predictions for every target query of a task, sharing one context
    /// computation (the decisive efficiency property in Fig. 3: adaptation
    /// is forward-only and the context is reused across queries).
    ///
    /// Runs on the serving executor: the weights and the task's operators
    /// cast once per call, the context built by
    /// [`InferModel::context_with_threads`] with its views across the pool
    /// (serially inside a pool job), every target scored in one
    /// [`infer::score_batch_with_threads`] pass. Each vector has the bits
    /// [`Cgnp::predict`] returns for that target. Eval-mode forwards draw
    /// nothing, so `_rng` is left untouched.
    pub fn predict_task(&self, prepared: &PreparedTask, _rng: &mut StdRng) -> Vec<Vec<f32>> {
        self.predict_task_with_threads(prepared, rayon::current_num_threads())
    }

    /// [`Cgnp::predict_task`] on at most `threads` workers; the bits do not
    /// depend on `threads`.
    fn predict_task_with_threads(&self, prepared: &PreparedTask, threads: usize) -> Vec<Vec<f32>> {
        let model = InferModel::<f32>::from_model(self);
        let state = InferState::from_prepared(prepared);
        let support = &prepared.task.support;
        let context = model.context_with_threads(&state, support, MathMode::Exact, threads);
        let batch: Vec<Vec<usize>> = (prepared.task.targets.iter())
            .map(|ex| vec![ex.query])
            .collect();
        infer::score_batch_with_threads(&context, &batch, threads, MathMode::Exact)
    }
}

/// The nodes a support pair's indicator marks: `{q} ∪ l⁺_q` (no query for
/// the sharded [`NO_QUERY`] sentinel).
pub(crate) fn marked_nodes(example: &QueryExample) -> Vec<usize> {
    let query = (example.query != NO_QUERY).then_some(example.query);
    query
        .into_iter()
        .chain(example.pos.iter().copied())
        .collect()
}

/// Membership probabilities from logits.
fn probs(logits: &Tensor) -> Vec<f32> {
    logits.sigmoid().value_ref().as_slice().to_vec()
}

impl Module for Cgnp {
    fn params(&self) -> Vec<Tensor> {
        let mut p = self.encoder.params();
        p.extend(self.commutative.params());
        p.extend(self.decoder.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CommutativeOp, DecoderKind};
    use crate::train::{task_loss, validation_loss_with_threads};
    use cgnp_data::{sample_task, SbmConfig, TaskConfig};
    use cgnp_nn::GnnKind;
    use rand::Rng;

    fn prepared_task(seed: u64) -> PreparedTask {
        let ag =
            cgnp_data::generate_sbm(&SbmConfig::small_test(), &mut StdRng::seed_from_u64(seed));
        let cfg = TaskConfig {
            subgraph_size: 50,
            shots: 3,
            n_targets: 4,
            ..Default::default()
        };
        let task = sample_task(&ag, &cfg, None, &mut StdRng::seed_from_u64(seed)).expect("task");
        PreparedTask::new(task)
    }

    fn model_for(p: &PreparedTask, decoder: DecoderKind, op: CommutativeOp) -> Cgnp {
        let in_dim = cgnp_data::model_input_dim(&p.task.graph);
        let cfg = CgnpConfig::paper_default(in_dim, 8)
            .with_decoder(decoder)
            .with_commutative(op);
        Cgnp::new(cfg, 1)
    }

    #[test]
    fn model_and_prepared_task_cross_threads() {
        // The parallel meta-test path shares one model and the prepared
        // operators across pool workers by reference; this pins the
        // `Send + Sync` bounds that sharing relies on.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Cgnp>();
        assert_send_sync::<PreparedTask>();
    }

    #[test]
    fn predictions_are_probabilities_for_all_variants() {
        let p = prepared_task(3);
        for decoder in [
            DecoderKind::InnerProduct,
            DecoderKind::Mlp,
            DecoderKind::Gnn,
        ] {
            for op in [
                CommutativeOp::Sum,
                CommutativeOp::Mean,
                CommutativeOp::SelfAttention,
            ] {
                let model = model_for(&p, decoder, op);
                let mut rng = StdRng::seed_from_u64(0);
                let probs = model.predict(&p, p.task.targets[0].query, &mut rng);
                assert_eq!(probs.len(), p.task.n());
                assert!(
                    probs.iter().all(|&x| (0.0..=1.0).contains(&x)),
                    "{decoder:?}/{op:?} produced non-probability"
                );
            }
        }
    }

    #[test]
    fn predict_task_covers_all_targets() {
        let p = prepared_task(4);
        let model = model_for(&p, DecoderKind::InnerProduct, CommutativeOp::Mean);
        let mut rng = StdRng::seed_from_u64(0);
        let preds = model.predict_task(&p, &mut rng);
        assert_eq!(preds.len(), p.task.targets.len());
        for probs in preds {
            assert_eq!(probs.len(), p.task.n());
        }
    }

    #[test]
    fn inference_is_deterministic() {
        let p = prepared_task(5);
        let model = model_for(&p, DecoderKind::Mlp, CommutativeOp::Mean);
        let q = p.task.targets[0].query;
        let a = model.predict(&p, q, &mut StdRng::seed_from_u64(7));
        let b = model.predict(&p, q, &mut StdRng::seed_from_u64(8));
        assert_eq!(a, b, "eval-mode predictions must not depend on the RNG");
    }

    #[test]
    fn query_node_scores_high_for_itself() {
        // ⟨H[q], H[q]⟩ = ‖H[q]‖² ≥ 0 ⇒ p(q) ≥ 0.5 for the IP decoder.
        let p = prepared_task(6);
        let model = model_for(&p, DecoderKind::InnerProduct, CommutativeOp::Mean);
        let q = p.task.targets[0].query;
        let probs = model.predict(&p, q, &mut StdRng::seed_from_u64(0));
        assert!(probs[q] >= 0.5 - 1e-6);
    }

    #[test]
    fn param_registry_covers_all_components() {
        let p = prepared_task(7);
        let ip = model_for(&p, DecoderKind::InnerProduct, CommutativeOp::Mean);
        let mlp = model_for(&p, DecoderKind::Mlp, CommutativeOp::Mean);
        let att = model_for(&p, DecoderKind::InnerProduct, CommutativeOp::SelfAttention);
        assert!(
            mlp.param_count() > ip.param_count(),
            "decoder params registered"
        );
        assert!(
            att.param_count() > ip.param_count(),
            "attention params registered"
        );
    }

    #[test]
    fn multi_query_with_single_query_matches_predict() {
        let p = prepared_task(9);
        let model = model_for(&p, DecoderKind::InnerProduct, CommutativeOp::Mean);
        let q = p.task.targets[0].query;
        let mut rng = StdRng::seed_from_u64(0);
        let single = model.predict(&p, q, &mut rng);
        let multi = model.predict_multi(&p, &[q], &mut rng);
        assert_eq!(single, multi);
    }

    #[test]
    fn multi_query_probabilities_valid() {
        let p = prepared_task(10);
        let model = model_for(&p, DecoderKind::Mlp, CommutativeOp::Mean);
        let qs: Vec<usize> = p.task.targets.iter().take(3).map(|e| e.query).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let probs = model.predict_multi(&p, &qs, &mut rng);
        assert_eq!(probs.len(), p.task.n());
        assert!(probs.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    /// The serving executor's decoded context for `support`.
    fn infer_context(model: &Cgnp, p: &PreparedTask, support: &[QueryExample]) -> Matrix {
        InferModel::<f32>::from_model(model).context(
            &InferState::from_prepared(p),
            support,
            MathMode::Exact,
        )
    }

    #[test]
    fn batched_inference_matches_predict_multi() {
        let p = prepared_task(11);
        let model = model_for(&p, DecoderKind::Mlp, CommutativeOp::Mean);
        let batch: Vec<Vec<usize>> = p
            .task
            .targets
            .iter()
            .map(|ex| vec![ex.query])
            .chain([p.task.targets.iter().map(|ex| ex.query).take(2).collect()])
            .collect();
        let ctx = infer_context(&model, &p, &p.task.support);
        let serial = infer::score_batch_with_threads(&ctx, &batch, 1, MathMode::Exact);
        let parallel = infer::score_batch_with_threads(&ctx, &batch, 3, MathMode::Exact);
        assert_eq!(serial, parallel, "fan-out must not change results");
        for (qs, probs) in batch.iter().zip(&serial) {
            let mut rng = StdRng::seed_from_u64(99);
            assert_eq!(probs, &model.predict_multi(&p, qs, &mut rng));
        }
    }

    #[test]
    fn batched_inference_respects_shot_subsets() {
        // Conditioning on fewer support examples changes the context, so
        // the shot parameter must actually reach the encoder.
        let p = prepared_task(12);
        let model = model_for(&p, DecoderKind::InnerProduct, CommutativeOp::Mean);
        let q = vec![p.task.targets[0].query];
        let score = |support: &[QueryExample]| {
            infer::score_probs(&infer_context(&model, &p, support), &q, MathMode::Exact)
        };
        assert_ne!(
            score(&p.task.support),
            score(&p.task.support[..1]),
            "support subsetting must affect predictions"
        );
    }

    #[test]
    fn eval_context_builds_no_tape() {
        // What the taped `predict` and `predict_multi` do (`predict_task`
        // and the validation sweep build theirs on the executor, with no
        // tape at all): an eval-mode context under `no_grad` is a constant.
        let p = prepared_task(13);
        let model = model_for(&p, DecoderKind::Gnn, CommutativeOp::SelfAttention);
        let ctx = cgnp_tensor::no_grad(|| {
            let mut rng = StdRng::seed_from_u64(0);
            model.context(&p, &p.task.support, &mut ForwardCtx::eval(&mut rng))
        });
        assert!(!ctx.needs_grad());
        assert_eq!(
            ctx.tape_len(),
            0,
            "eval context must record zero tape nodes"
        );
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn fanned_views_match_the_serial_loop_and_leave_the_rng_where_it_does() {
        // Training mode, so dropout masks are drawn: the caller draws them
        // in the loop's order whatever the width.
        let p = prepared_task(17);
        let model = model_for(&p, DecoderKind::InnerProduct, CommutativeOp::Mean);
        let mut rng = StdRng::seed_from_u64(3);
        let mut fctx = ForwardCtx::train(&mut rng);
        let serial: Vec<Vec<u32>> = p
            .task
            .support
            .iter()
            .map(|ex| bits(&model.encode_view(&p, ex, &mut fctx).value()))
            .collect();
        let next = rng.gen::<u64>();
        for threads in [1, 2, 4, 16] {
            let mut rng = StdRng::seed_from_u64(3);
            let mut fctx = ForwardCtx::train(&mut rng);
            let fanned: Vec<Vec<u32>> = model
                .encode_views(&p, &p.task.support, &mut fctx, threads)
                .iter()
                .map(|v| bits(&v.value()))
                .collect();
            assert_eq!(fanned, serial, "{threads} threads");
            assert_eq!(rng.gen::<u64>(), next, "{threads} threads: RNG state");
        }
    }

    #[test]
    fn views_on_other_threads_keep_their_callers_tape_state() {
        // Whether ops record is thread-local, and a view's job runs on
        // whoever takes it: a pool worker (recording, by default) or
        // another section's owner helping out in *its* state. Two plain
        // threads in opposite states hammer the global pool side by side,
        // so each keeps finding the other's jobs — on a pool with no
        // workers they are the only ones who can run them. Meta-test must
        // come back tape-free (else `predict_task` silently builds tapes
        // on the workers) and the taped caller must get its tape (else a
        // training step silently loses a view); both must equal the
        // serial loop bitwise.
        const ROUNDS: usize = 60;
        let p = prepared_task(18);
        let model = model_for(&p, DecoderKind::Gnn, CommutativeOp::SelfAttention);
        let eval_views = |threads: Option<usize>| -> Vec<Tensor> {
            let mut rng = StdRng::seed_from_u64(0);
            let mut fctx = ForwardCtx::eval(&mut rng);
            match threads {
                Some(t) => model.encode_views(&p, &p.task.support, &mut fctx, t),
                None => (p.task.support.iter())
                    .map(|ex| model.encode_view(&p, ex, &mut fctx))
                    .collect(),
            }
        };
        let oracle: Vec<Vec<u32>> = cgnp_tensor::no_grad(|| eval_views(None))
            .iter()
            .map(|v| bits(&v.value()))
            .collect();
        let oracle_preds = cgnp_tensor::no_grad(|| {
            let mut rng = StdRng::seed_from_u64(0);
            let ctx = model.decode(&p, &eval_views(None), &mut ForwardCtx::eval(&mut rng));
            (p.task.targets.iter())
                .map(|ex| {
                    model
                        .logits(&ctx, ex.query)
                        .sigmoid()
                        .value()
                        .as_slice()
                        .to_vec()
                })
                .collect::<Vec<_>>()
        });
        // One rendezvous, before anything can fail: a barrier per round
        // would hang the survivor when the other side's assertion fires.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for _ in 0..ROUNDS {
                    let views = cgnp_tensor::no_grad(|| eval_views(Some(4)));
                    for (v, want) in views.iter().zip(&oracle) {
                        assert!(!v.needs_grad(), "meta-test view carries a tape");
                        assert_eq!(&bits(&v.value()), want);
                    }
                    let preds = model.predict_task(&p, &mut StdRng::seed_from_u64(0));
                    assert_eq!(preds, oracle_preds);
                }
            });
            s.spawn(|| {
                start.wait();
                for _ in 0..2 * ROUNDS {
                    for (v, want) in eval_views(Some(4)).iter().zip(&oracle) {
                        assert!(v.tape_len() > 1, "taped caller got a constant view");
                        assert_eq!(&bits(&v.value()), want);
                    }
                }
            });
        });
    }

    #[test]
    fn executor_meta_test_is_the_taped_oracle_at_every_width() {
        // `predict_task` and the validation sweep build their contexts on
        // the serving executor, a pool's views on one shared first layer
        // (GAT, more than one shot) or one by one (GCN, SAGE, one shot):
        // at every width and shot count they must give the bits of the
        // taped forward — `predict` per target, and a taped sweep.
        let full = prepared_task(19);
        let shots = full.task.support.len();
        let mut valid: Vec<PreparedTask> = (20..20 + shots as u64).map(prepared_task).collect();
        for (k, v) in valid.iter_mut().enumerate() {
            v.task.support.truncate(k + 1);
        }
        let mut untargeted = PreparedTask::new(full.task.clone());
        untargeted.task.targets.clear();
        let in_dim = cgnp_data::model_input_dim(&full.task.graph);
        for kind in [GnnKind::Gcn, GnnKind::Gat, GnnKind::Sage] {
            for decoder in [
                DecoderKind::InnerProduct,
                DecoderKind::Mlp,
                DecoderKind::Gnn,
            ] {
                for op in [
                    CommutativeOp::Sum,
                    CommutativeOp::Mean,
                    CommutativeOp::SelfAttention,
                ] {
                    let cfg = CgnpConfig::paper_default(in_dim, 8)
                        .with_encoder_kind(kind)
                        .with_decoder(decoder)
                        .with_commutative(op);
                    let model = Cgnp::new(cfg, 1);
                    let what = format!("{kind}/{decoder:?}/{op:?}");
                    for k in 1..=shots {
                        let mut p = PreparedTask::new(full.task.clone());
                        p.task.support.truncate(k);
                        let oracle: Vec<Vec<f32>> = (p.task.targets.iter())
                            .map(|ex| model.predict(&p, ex.query, &mut StdRng::seed_from_u64(0)))
                            .collect();
                        let mut rng = StdRng::seed_from_u64(5);
                        assert_eq!(model.predict_task(&p, &mut rng), oracle, "{what}/{k} shots");
                        for threads in [1, 2, 3, 8] {
                            assert_eq!(
                                model.predict_task_with_threads(&p, threads),
                                oracle,
                                "{what}/{k} shots/{threads} threads"
                            );
                        }
                    }
                    let mut rng = StdRng::seed_from_u64(5);
                    assert!(model.predict_task(&untargeted, &mut rng).is_empty());

                    let losses: Vec<f32> = cgnp_tensor::no_grad(|| {
                        (valid.iter())
                            .map(|v| {
                                let mut rng = StdRng::seed_from_u64(0);
                                let mut fctx = ForwardCtx::eval(&mut rng);
                                let context = model.context(v, &v.task.support, &mut fctx);
                                task_loss(&model, &context, &v.task).item()
                            })
                            .collect()
                    });
                    let taped = losses.iter().sum::<f32>() / valid.len() as f32;
                    for threads in [1, 2, 3, 8] {
                        assert_eq!(
                            validation_loss_with_threads(&model, &valid, threads).to_bits(),
                            taped.to_bits(),
                            "{what}: validation at {threads} threads"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty support")]
    fn empty_support_rejected() {
        let p = prepared_task(8);
        let model = model_for(&p, DecoderKind::InnerProduct, CommutativeOp::Mean);
        let mut rng = StdRng::seed_from_u64(0);
        let mut fctx = ForwardCtx::eval(&mut rng);
        let _ = model.context(&p, &[], &mut fctx);
    }

    /// Applies a mixed mutation batch to a prepared task's graph without
    /// refreshing: two new edges and a new attributed node wired in.
    fn mutate(p: &mut PreparedTask) {
        let n = p.task.graph.n();
        assert!(p.task.graph.insert_edge(0, n / 2).expect("insert"));
        assert!(p.task.graph.insert_edge(1, n - 1).expect("insert"));
        let attrs = if p.task.graph.n_attrs() > 0 {
            vec![0]
        } else {
            vec![]
        };
        let w = p.task.graph.add_node(attrs).expect("add node");
        assert!(p.task.graph.insert_edge(w, 2).expect("insert"));
    }

    #[test]
    fn refresh_strategies_match_scratch_build_bitwise() {
        for strategy in [RefreshStrategy::EpochSwap, RefreshStrategy::PerRow] {
            let mut p = prepared_task(14);
            let before = p.epoch();
            mutate(&mut p);
            assert!(p.is_stale());
            p.refresh(strategy);
            assert!(!p.is_stale());
            assert!(p.epoch() > before);

            let scratch = PreparedTask::new(p.task.clone());
            assert_eq!(scratch.epoch(), p.epoch());
            assert!(
                p.base == scratch.base,
                "{strategy:?}: base features diverged"
            );
            assert_eq!(
                p.gctx.gcn_adj().forward(),
                scratch.gctx.gcn_adj().forward(),
                "{strategy:?}: gcn operator diverged"
            );
            assert_eq!(
                p.gctx.gcn_adj().transposed(),
                scratch.gctx.gcn_adj().transposed(),
                "{strategy:?}: gcn transpose diverged"
            );
            assert_eq!(
                p.gctx.mean_adj().forward(),
                scratch.gctx.mean_adj().forward(),
                "{strategy:?}: mean operator diverged"
            );
            assert_eq!(p.gctx.arcs(), scratch.gctx.arcs());
        }
    }

    #[test]
    fn refresh_predictions_match_scratch_session() {
        let mut p = prepared_task(15);
        mutate(&mut p);
        p.refresh(RefreshStrategy::PerRow);
        let scratch = PreparedTask::new(p.task.clone());
        let model = model_for(&p, DecoderKind::InnerProduct, CommutativeOp::Mean);
        let q = p.task.targets[0].query;
        let mut rng = StdRng::seed_from_u64(0);
        let live = model.predict(&p, q, &mut rng);
        let fresh = model.predict(&scratch, q, &mut rng);
        assert_eq!(
            live, fresh,
            "refreshed task must predict bitwise-identically"
        );
    }

    #[test]
    fn refresh_on_unchanged_graph_is_a_no_op() {
        let mut p = prepared_task(16);
        let before = p.epoch();
        p.refresh(RefreshStrategy::PerRow);
        assert_eq!(p.epoch(), before);
    }
}
