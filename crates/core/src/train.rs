//! Meta-training (Algorithm 1) and meta-testing (Algorithm 2).
//!
//! Training iterates over tasks; for each task the support set is encoded
//! into a context and the negative log-likelihood of the query set's
//! labelled samples (Eq. 19 = the BCE of Eq. 3) is minimised by Adam.
//! Adaptation at test time is gradient-free: the support set is simply
//! encoded (Alg. 2).
//!
//! ## The step: K views out, one short tape, K views back
//!
//! The context is `H = ⊕_{(q,l)∈S} ϕθ(q, l, G)`: K encoder passes over one
//! graph that share nothing but the weights, joined by an operation chosen
//! for being permutation-invariant. `task_backward` — the one training
//! step — runs it in four stages:
//!
//! 1. **Views forward**, fanned across at most `threads` pool workers
//!    ([`Cgnp::encode_views`]; the caller draws every dropout mask first,
//!    in the serial order, so the RNG stream does not see the fan-out).
//! 2. **One short serial tape** from the views to the loss: each view is
//!    [`Tensor::cut`], then `⊕`, the decoder and the loss are built on the
//!    cuts and `loss.backward()` walks just that — decoder and attention-⊕
//!    leaves get their gradients here, and each cut collects the gradient
//!    its view would have received.
//! 3. **Views backward**, fanned out the same way, *last view first*, each
//!    `view.backward_with(cut gradient)` into a private [`GradSink`].
//! 4. **Fold** the sinks into the leaves in that order, on the caller.
//!
//! At width 1 (or inside a pool job, where the pool reports width 1) this
//! is the same arithmetic in the same order as one `loss.backward()` over
//! the whole tape, and at any width the leaves end up with the same bits:
//!
//! * `backward` walks the reverse of a post-order over `parents` in index
//!   order, and `⊕` lists the views in support order (`fold_sum`'s chain
//!   of `add`s, `weighted_sum_views`' parent list, the attention
//!   summaries' `concat_rows`), so the whole-tape walk runs view K's
//!   sub-tape, then K−1's, …, then view 1's. Last-to-first is therefore
//!   the order in which each encoder leaf receives its K contributions.
//! * A view's sub-tape walked alone visits its nodes in the same relative
//!   order as inside the whole tape: the only nodes it shares with
//!   anything else are leaves, which have no closure to run.
//! * `add` / `scale` / `weighted_sum_views` hand a view exactly the
//!   gradient matrix its cut receives, and a view with several consumers
//!   (attention ⊕: the weighted sum and `mean_rows`) receives them at the
//!   cut in the same order.
//! * **Precondition:** every encoder layer (GAT, GCN, SAGE) uses each leaf
//!   *once per view*, so a per-view sink holds single contributions and
//!   the fold's "first moves in, the rest add" is the leaf's own
//!   `None → clone, Some → add_assign`. A layer that used one leaf twice
//!   inside a view would have the pair summed `(a + b)` in the sink before
//!   joining the total — different bits. `tests/batched_training.rs` pins
//!   every layer kind against a whole-tape replica for this reason.
//!
//! That is one Adam step per task, exactly the paper's loop (Alg. 1);
//! `threads` bounds the view fan-out and nothing else, so a fixed seed
//! gives bitwise-identical runs for every `threads` value.

use std::time::Instant;

use cgnp_tensor::{clip_grad_norm, Adam, GradSink, MathMode, Matrix, Optimizer, Reduction, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cgnp_data::Task;
use cgnp_nn::{ForwardCtx, Module};

use crate::infer::{InferModel, InferState};
use crate::model::{Cgnp, PreparedTask};
use crate::par::par_map;

/// Per-epoch training statistics.
#[derive(Clone, Debug, Default)]
pub struct TrainStats {
    /// Mean query-set loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Wall time of the whole run, in seconds.
    pub train_seconds: f64,
}

impl TrainStats {
    pub fn final_loss(&self) -> Option<f32> {
        self.epoch_losses.last().copied()
    }
}

/// Query-set loss of one task given a decoded context (Eq. 19): BCE over
/// the positive/negative samples of every query in the query set.
pub fn task_loss(model: &Cgnp, context: &Tensor, task: &Task) -> Tensor {
    let mut losses = Vec::with_capacity(task.targets.len());
    for ex in &task.targets {
        let logits = model.logits(context, ex.query);
        let mut idx = Vec::with_capacity(ex.pos.len() + ex.neg.len());
        let mut y = Vec::with_capacity(idx.capacity());
        for &p in &ex.pos {
            idx.push(p);
            y.push(1.0);
        }
        for &n in &ex.neg {
            idx.push(n);
            y.push(0.0);
        }
        losses.push(logits.bce_with_logits_at(&idx, &y, Reduction::Mean));
    }
    let mut acc = losses[0].clone();
    for l in &losses[1..] {
        acc = acc.add(l);
    }
    acc.scale(1.0 / losses.len() as f32)
}

/// Fisher–Yates shuffle driven by the training RNG (Alg. 1 line 2).
fn shuffle(order: &mut [usize], rng: &mut StdRng) {
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
}

/// One task's forward and backward — the staged step of the module docs —
/// leaving the task's gradient in `params` and returning its loss.
/// `threads` bounds both view fan-outs; the result does not depend on it.
fn task_backward(
    model: &Cgnp,
    prepared: &PreparedTask,
    params: &[Tensor],
    fctx: &mut ForwardCtx<'_>,
    threads: usize,
) -> f32 {
    let views = model.encode_views(prepared, &prepared.task.support, fctx, threads);
    let cuts: Vec<Tensor> = views.iter().map(Tensor::cut).collect();
    let loss = task_loss(model, &model.decode(prepared, &cuts, fctx), &prepared.task);
    loss.backward();
    // Last view first: the order the whole tape would reach them in. A
    // view the loss does not depend on has no gradient and no walk.
    let seeded: Vec<(&Tensor, Matrix)> = views
        .iter()
        .zip(&cuts)
        .rev()
        .filter_map(|(view, cut)| Some((view, cut.grad()?)))
        .collect();
    let mut sinks = par_map(&seeded, threads, |(view, seed)| {
        GradSink::capture(|| view.backward_with(seed)).1
    });
    fold_sinks(params, &mut sinks);
    loss.item()
}

/// Folds captured leaf gradients into `params`, sink by sink in slice
/// order: per leaf, the first gradient moves in and the rest add — the
/// leaf's own accumulation rule, so the sum has the bits of one thread
/// having produced the contributions in that order.
fn fold_sinks(params: &[Tensor], sinks: &mut [GradSink]) {
    for p in params {
        for sink in sinks.iter_mut() {
            if let Some(g) = sink.take(p) {
                p.accum_grad_owned(g);
            }
        }
    }
}

/// Algorithm 1: trains `model` on `tasks` for `model.config().epochs`
/// epochs, shuffling tasks per epoch and taking one Adam step per task; a
/// step's views fan out across the persistent worker pool.
pub fn meta_train(model: &Cgnp, tasks: &[PreparedTask], seed: u64) -> TrainStats {
    meta_train_with_threads(model, tasks, seed, rayon::current_num_threads())
}

/// [`meta_train`] with an explicit width for the view fan-out. Results are
/// bitwise identical for every `threads` value; the knob exists for tests
/// and for callers that pin worker counts.
pub fn meta_train_with_threads(
    model: &Cgnp,
    tasks: &[PreparedTask],
    seed: u64,
    threads: usize,
) -> TrainStats {
    meta_train_with_rng(model, tasks, &mut StdRng::seed_from_u64(seed), threads)
}

/// [`meta_train_with_threads`] drawing from the caller's RNG. Shuffles
/// and dropout masks are all that consume it, on the calling thread and
/// in serial order, so the state it is left in is part of the determinism
/// contract too: the same for every `threads`.
pub fn meta_train_with_rng(
    model: &Cgnp,
    tasks: &[PreparedTask],
    rng: &mut StdRng,
    threads: usize,
) -> TrainStats {
    let stats = train_epochs(model, tasks, &[], rng, threads);
    TrainStats {
        epoch_losses: stats.epoch_losses,
        train_seconds: stats.train_seconds,
    }
}

/// Prepares raw tasks for training/inference (graph operators + features),
/// fanning the per-task precompute across the persistent worker pool.
pub fn prepare_tasks(tasks: &[Task]) -> Vec<PreparedTask> {
    prepare_tasks_with_threads(tasks, rayon::current_num_threads())
}

/// [`prepare_tasks`] with an explicit fan-out width. Each task's operator
/// and feature precompute is independent, so the result is identical to
/// the serial path for every `threads` value.
pub fn prepare_tasks_with_threads(tasks: &[Task], threads: usize) -> Vec<PreparedTask> {
    par_map(tasks, threads, |task| PreparedTask::new(task.clone()))
}

/// Statistics of a validated training run.
#[derive(Clone, Debug, Default)]
pub struct ValidatedTrainStats {
    pub epoch_losses: Vec<f32>,
    /// Mean validation loss per epoch.
    pub valid_losses: Vec<f32>,
    /// Epoch index whose weights were kept (best validation loss).
    pub best_epoch: usize,
    /// Wall time of the whole run — training epochs and the validation
    /// sweep after each — in seconds.
    pub train_seconds: f64,
}

/// Algorithm 1 with early model selection: trains like [`meta_train`] but
/// evaluates the validation tasks after every epoch and restores the
/// weights of the best-validating epoch at the end (the role of the
/// paper's 50 validation tasks, §VII-A).
pub fn meta_train_validated(
    model: &Cgnp,
    train: &[PreparedTask],
    valid: &[PreparedTask],
    seed: u64,
) -> ValidatedTrainStats {
    meta_train_validated_with_threads(model, train, valid, seed, rayon::current_num_threads())
}

/// [`meta_train_validated`] with an explicit fan-out width for both the
/// training steps (see [`meta_train_with_threads`]) and the per-epoch
/// validation sweep (results are bitwise identical for every `threads`
/// value). With no validation tasks this is [`meta_train_with_threads`]:
/// `valid_losses` stays empty and `best_epoch` is the last one.
pub fn meta_train_validated_with_threads(
    model: &Cgnp,
    train: &[PreparedTask],
    valid: &[PreparedTask],
    seed: u64,
    threads: usize,
) -> ValidatedTrainStats {
    train_epochs(
        model,
        train,
        valid,
        &mut StdRng::seed_from_u64(seed),
        threads,
    )
}

/// The one epoch loop behind every `meta_train*` entry point: per epoch,
/// shuffle (Alg. 1 line 2), then one clipped Adam step per task with the
/// epoch RNG threaded through every step (dropout is its only consumer
/// there), then — when there are validation tasks — the sweep that picks
/// the weights to keep. Without them the last epoch's weights stay.
fn train_epochs(
    model: &Cgnp,
    train: &[PreparedTask],
    valid: &[PreparedTask],
    rng: &mut StdRng,
    threads: usize,
) -> ValidatedTrainStats {
    assert!(!train.is_empty(), "meta_train requires at least one task");
    let started = Instant::now();
    let cfg = model.config();
    let params = model.params();
    let mut opt = Adam::new(model.params(), cfg.lr);
    let mut order: Vec<usize> = (0..train.len()).collect();
    let mut stats = ValidatedTrainStats::default();
    let mut best: Option<(f32, Vec<Matrix>)> = None;

    for epoch in 0..cfg.epochs {
        shuffle(&mut order, rng);
        let mut epoch_loss = 0.0f32;
        for &ti in &order {
            opt.zero_grad();
            let mut fctx = ForwardCtx::train(rng);
            epoch_loss += task_backward(model, &train[ti], &params, &mut fctx, threads);
            if let Some(max_norm) = cfg.grad_clip {
                clip_grad_norm(&params, max_norm);
            }
            opt.step();
        }
        stats.epoch_losses.push(epoch_loss / train.len() as f32);
        if valid.is_empty() {
            stats.best_epoch = epoch;
        } else {
            let vloss = validation_loss_with_threads(model, valid, threads);
            stats.valid_losses.push(vloss);
            if best.as_ref().is_none_or(|(b, _)| vloss < *b) {
                best = Some((vloss, model.export_weights()));
                stats.best_epoch = epoch;
            }
        }
    }
    if let Some((_, weights)) = best {
        model.import_weights(&weights);
    }
    stats.train_seconds = started.elapsed().as_secs_f64();
    stats
}

/// Mean query-set loss over the validation tasks (eval mode, no tape),
/// the per-task losses computed on at most `threads` workers and summed in
/// task order, so the mean has the same bits for every `threads` value.
/// Each context comes from the serving executor (one [`InferModel`] per
/// sweep; a task's views across the pool when the sweep runs on the
/// caller), bitwise the taped [`Cgnp::context`], and the unchanged
/// [`task_loss`] reads it as a constant.
pub fn validation_loss_with_threads(model: &Cgnp, valid: &[PreparedTask], threads: usize) -> f32 {
    if valid.is_empty() {
        return f32::NAN;
    }
    let executor = InferModel::<f32>::from_model(model);
    // `par_map` hands this thread's `no_grad` on to its jobs.
    let losses = cgnp_tensor::no_grad(|| {
        par_map(valid, threads, |prepared| {
            let state = InferState::from_prepared(prepared);
            let width = threads.min(rayon::current_num_threads());
            let support = &prepared.task.support;
            let context = executor.context_with_threads(&state, support, MathMode::Exact, width);
            task_loss(model, &Tensor::constant(context), &prepared.task).item()
        })
    });
    losses.iter().sum::<f32>() / valid.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CgnpConfig, CommutativeOp, DecoderKind};
    use cgnp_data::{generate_sbm, model_input_dim, sample_task, SbmConfig, TaskConfig};

    fn tiny_tasks(n_tasks: usize, seed: u64) -> Vec<PreparedTask> {
        let ag = generate_sbm(&SbmConfig::small_test(), &mut StdRng::seed_from_u64(seed));
        let cfg = TaskConfig {
            subgraph_size: 40,
            shots: 2,
            n_targets: 4,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_tasks)
            .map(|_| PreparedTask::new(sample_task(&ag, &cfg, None, &mut rng).expect("task")))
            .collect()
    }

    fn small_model(tasks: &[PreparedTask], epochs: usize) -> Cgnp {
        let in_dim = model_input_dim(&tasks[0].task.graph);
        let mut cfg = CgnpConfig::paper_default(in_dim, 16)
            .with_decoder(DecoderKind::InnerProduct)
            .with_commutative(CommutativeOp::Mean)
            .with_epochs(epochs);
        // Tiny-scale test models learn faster with a larger step size.
        cfg.lr = 5e-3;
        Cgnp::new(cfg, 42)
    }

    #[test]
    fn loss_decreases_over_training() {
        let tasks = tiny_tasks(4, 1);
        let model = small_model(&tasks, 30);
        let stats = meta_train(&model, &tasks, 0);
        assert_eq!(stats.epoch_losses.len(), 30);
        let first = stats.epoch_losses[0];
        let last = stats.final_loss().unwrap();
        assert!(
            last < first * 0.9,
            "loss should drop by ≥10%: first {first}, last {last}"
        );
        assert!(last.is_finite());
    }

    #[test]
    fn training_improves_target_separation() {
        // After training, positive-sample probabilities should exceed
        // negative-sample probabilities on a held-out task from the same
        // generator.
        let tasks = tiny_tasks(9, 2);
        let (train, test) = tasks.split_at(8);
        let model = small_model(train, 60);
        meta_train(&model, train, 0);
        let mut rng = StdRng::seed_from_u64(9);
        let p = &test[0];
        let mut pos_mean = 0.0f32;
        let mut neg_mean = 0.0f32;
        let mut n_pos = 0usize;
        let mut n_neg = 0usize;
        for ex in &p.task.targets {
            let probs = model.predict(p, ex.query, &mut rng);
            for (v, &t) in probs.iter().zip(ex.truth.iter()) {
                if t {
                    pos_mean += v;
                    n_pos += 1;
                } else {
                    neg_mean += v;
                    n_neg += 1;
                }
            }
        }
        pos_mean /= n_pos as f32;
        neg_mean /= n_neg as f32;
        assert!(
            pos_mean > neg_mean + 0.03,
            "community members should score higher: pos {pos_mean:.3} vs neg {neg_mean:.3}"
        );
    }

    #[test]
    fn task_loss_is_finite_and_positive() {
        let tasks = tiny_tasks(1, 3);
        let model = small_model(&tasks, 1);
        let mut rng = StdRng::seed_from_u64(0);
        let mut fctx = ForwardCtx::eval(&mut rng);
        let ctx = model.context(&tasks[0], &tasks[0].task.support, &mut fctx);
        let loss = task_loss(&model, &ctx, &tasks[0].task);
        assert!(loss.item() > 0.0);
        assert!(loss.item().is_finite());
    }

    type GradBits = Vec<Option<Vec<u32>>>;

    fn grad_bits(g: Option<Matrix>) -> Option<Vec<u32>> {
        g.map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect())
    }

    /// The step's oracle: the views one after the other on this thread,
    /// then one `loss.backward()` over the whole tape. Returns the loss
    /// and every parameter's gradient, and leaves the leaves cleared.
    fn whole_tape_step(model: &Cgnp, prepared: &PreparedTask, seed: u64) -> (u32, GradBits) {
        model.zero_grad();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fctx = ForwardCtx::train(&mut rng);
        let views: Vec<Tensor> = (prepared.task.support.iter())
            .map(|ex| model.encode_view(prepared, ex, &mut fctx))
            .collect();
        let loss = task_loss(
            model,
            &model.decode(prepared, &views, &mut fctx),
            &prepared.task,
        );
        loss.backward();
        let grads = model.params().iter().map(|p| grad_bits(p.grad())).collect();
        model.zero_grad();
        (loss.item().to_bits(), grads)
    }

    #[test]
    fn panic_in_a_view_job_propagates_and_leaks_nothing() {
        let tasks = tiny_tasks(2, 9);
        let model = small_model(&tasks, 1);
        let params = model.params();
        // A support pair naming a node the graph does not have: building
        // that one view's input panics, inside its job.
        let mut poisoned = PreparedTask::new(tasks[0].task.clone());
        let n = poisoned.task.n();
        poisoned.task.support[1].pos.push(n + 7);
        let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            GradSink::capture(|| {
                let mut rng = StdRng::seed_from_u64(1);
                task_backward(
                    &model,
                    &poisoned,
                    &params,
                    &mut ForwardCtx::train(&mut rng),
                    4,
                )
            })
        }));
        assert!(step.is_err(), "the job's panic must reach the caller");
        let meta_test = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            model.predict_task(&poisoned, &mut StdRng::seed_from_u64(1))
        }));
        assert!(meta_test.is_err());

        // Neither this thread nor any worker the jobs ran on is left
        // tape-less or with a sink installed ...
        assert!(cgnp_tensor::grad_enabled());
        let probes: Vec<Tensor> = (0..8)
            .map(|_| Tensor::parameter(Matrix::scalar(1.0)))
            .collect();
        let seen = par_map(&probes, 4, |p| {
            p.scale(3.0).backward();
            (cgnp_tensor::grad_enabled(), p.grad().map(|g| g.item()))
        });
        assert!(seen.iter().all(|s| *s == (true, Some(3.0))), "{seen:?}");
        // ... and the next step on the same pool is the oracle's, bitwise.
        let (want_loss, want) = whole_tape_step(&model, &tasks[1], 2);
        let mut rng = StdRng::seed_from_u64(2);
        let loss = task_backward(
            &model,
            &tasks[1],
            &params,
            &mut ForwardCtx::train(&mut rng),
            4,
        );
        assert_eq!(loss.to_bits(), want_loss);
        let got: GradBits = params.iter().map(|p| grad_bits(p.grad())).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn train_seconds_is_reported_on_every_path() {
        let tasks = tiny_tasks(3, 10);
        let (train, valid) = tasks.split_at(2);
        let model = small_model(train, 2);
        assert!(meta_train(&model, train, 0).train_seconds > 0.0);
        assert!(super::meta_train_validated(&model, train, valid, 0).train_seconds > 0.0);
        assert!(super::meta_train_validated(&model, train, &[], 0).train_seconds > 0.0);
    }

    #[test]
    fn training_is_deterministic_for_fixed_seeds() {
        let tasks = tiny_tasks(3, 4);
        let run = || {
            let model = small_model(&tasks, 5);
            meta_train(&model, &tasks, 11).epoch_losses
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn empty_task_set_rejected() {
        let tasks = tiny_tasks(1, 5);
        let model = small_model(&tasks, 1);
        let _ = meta_train(&model, &[], 0);
    }

    #[test]
    fn validated_training_restores_best_epoch() {
        let tasks = tiny_tasks(6, 6);
        let (train, valid) = tasks.split_at(4);
        let model = small_model(train, 12);
        let stats = super::meta_train_validated(&model, train, valid, 3);
        assert_eq!(stats.epoch_losses.len(), 12);
        assert_eq!(stats.valid_losses.len(), 12);
        assert!(stats.best_epoch < 12);
        // The restored weights reproduce the recorded best validation loss.
        let restored = validation_loss_with_threads(&model, valid, rayon::current_num_threads());
        let best = stats.valid_losses[stats.best_epoch];
        assert!(
            (restored - best).abs() < 0.15 * best.abs().max(1e-3) + 0.05,
            "restored {restored} vs best recorded {best}"
        );
        // And the best epoch really had the minimum validation loss.
        let min = stats.valid_losses.iter().cloned().fold(f32::MAX, f32::min);
        assert_eq!(stats.valid_losses[stats.best_epoch], min);
    }

    #[test]
    fn validated_training_without_valid_falls_back() {
        let tasks = tiny_tasks(2, 7);
        let model = small_model(&tasks, 3);
        let stats = super::meta_train_validated(&model, &tasks, &[], 0);
        assert_eq!(stats.epoch_losses.len(), 3);
        assert!(stats.valid_losses.is_empty());
        assert_eq!(stats.best_epoch, 2);
    }
}
