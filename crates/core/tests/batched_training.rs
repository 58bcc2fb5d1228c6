//! Determinism contract of meta-training.
//!
//! Three guarantees, all bitwise:
//! 1. The live trainer — whose step fans a task's support views across
//!    the pool, forward and backward — reproduces a frozen replica of the
//!    loop it replaced, which runs the views one after the other and walks
//!    the whole tape in one `loss.backward()`: same losses, same final
//!    weights, same RNG state afterwards, for every encoder layer kind,
//!    ⊕, decoder, shot count and fan-out width. If it ever diverges from
//!    the replica, seeds stop reproducing published runs.
//! 2. Validated training is identical across fan-out widths (1 vs 4
//!    workers), sweep and model selection included.
//! 3. `prepare_tasks` and the validation sweep parallelise without
//!    changing their results.

use cgnp_core::{
    meta_train, meta_train_validated_with_threads, meta_train_with_rng, prepare_tasks,
    prepare_tasks_with_threads, task_loss, validation_loss_with_threads, Cgnp, CgnpConfig,
    CommutativeOp, DecoderKind, PreparedTask,
};
use cgnp_data::{generate_sbm, model_input_dim, sample_task, SbmConfig, Task, TaskConfig};
use cgnp_nn::{ForwardCtx, GnnKind, Module};
use cgnp_tensor::{clip_grad_norm, Adam, Optimizer, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn raw_tasks(n_tasks: usize, seed: u64) -> Vec<Task> {
    raw_tasks_with_shots(n_tasks, seed, 2)
}

fn raw_tasks_with_shots(n_tasks: usize, seed: u64, shots: usize) -> Vec<Task> {
    let ag = generate_sbm(&SbmConfig::small_test(), &mut StdRng::seed_from_u64(seed));
    let cfg = TaskConfig {
        subgraph_size: 40,
        shots,
        n_targets: 3,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_tasks)
        .map(|_| sample_task(&ag, &cfg, None, &mut rng).expect("task"))
        .collect()
}

fn tiny_tasks(n_tasks: usize, seed: u64) -> Vec<PreparedTask> {
    prepare_tasks(&raw_tasks(n_tasks, seed))
}

fn small_model(tasks: &[PreparedTask], epochs: usize) -> Cgnp {
    let in_dim = model_input_dim(&tasks[0].task.graph);
    let mut cfg = CgnpConfig::paper_default(in_dim, 8)
        .with_decoder(DecoderKind::InnerProduct)
        .with_commutative(CommutativeOp::Mean)
        .with_epochs(epochs);
    cfg.lr = 5e-3;
    Cgnp::new(cfg, 42)
}

/// One task's forward and backward the way every trainer before the
/// staged step ran it: the views one after the other on this thread, each
/// drawing its dropout masks from the one RNG as it goes, then a single
/// `loss.backward()` over the whole tape. Uses none of the fan-out.
fn whole_tape_step(model: &Cgnp, prepared: &PreparedTask, rng: &mut StdRng) -> f32 {
    let mut fctx = ForwardCtx::train(rng);
    let views: Vec<Tensor> = prepared
        .task
        .support
        .iter()
        .map(|ex| model.encode_view(prepared, ex, &mut fctx))
        .collect();
    let context = model.decode(prepared, &views, &mut fctx);
    let loss = task_loss(model, &context, &prepared.task);
    loss.backward();
    loss.item()
}

/// Frozen replica of the trainer as it stood before the staged step: one
/// RNG threaded through shuffle and every training forward, one Adam step
/// per task with gradients accumulated directly in the leaves (the
/// original `meta_train`, verbatim) — all on this thread. Returns the
/// epoch losses and the next `u64` the RNG yields.
fn old_sequential_meta_train(model: &Cgnp, tasks: &[PreparedTask], seed: u64) -> (Vec<f32>, u64) {
    let cfg = model.config().clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut opt = Adam::new(model.params(), cfg.lr);
    let params = model.params();
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    let mut epoch_losses = Vec::new();
    for _epoch in 0..cfg.epochs {
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut epoch_loss = 0.0f32;
        for &ti in &order {
            opt.zero_grad();
            epoch_loss += whole_tape_step(model, &tasks[ti], &mut rng);
            if let Some(max_norm) = cfg.grad_clip {
                clip_grad_norm(&params, max_norm);
            }
            opt.step();
        }
        epoch_losses.push(epoch_loss / tasks.len() as f32);
    }
    (epoch_losses, rng.gen())
}

fn bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| l.to_bits()).collect()
}

fn weights_bits(model: &Cgnp) -> Vec<Vec<u32>> {
    model
        .export_weights()
        .iter()
        .map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn live_trainer_matches_old_sequential_loop_bitwise() {
    let tasks = tiny_tasks(5, 11);

    let reference = small_model(&tasks, 4);
    let (ref_losses, _) = old_sequential_meta_train(&reference, &tasks, 7);

    let live = small_model(&tasks, 4);
    let live_losses = meta_train(&live, &tasks, 7).epoch_losses;

    assert_eq!(
        live_losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        ref_losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        "the trainer must reproduce the old sequential losses bitwise"
    );
    assert_eq!(
        weights_bits(&live),
        weights_bits(&reference),
        "the trainer must reproduce the old sequential weights bitwise"
    );
}

/// The staged step against the whole-tape replica, over everything that
/// shapes the tape or the fan-out. Every encoder layer kind is here
/// because the step's bitwise argument has a precondition on them (each
/// leaf used once per view); 1 shot is the nothing-to-fan-out case; 3
/// workers split 5 views unevenly and 8 are more than there are views.
#[test]
fn staged_step_matches_whole_tape_replica_bitwise() {
    for shots in [5, 1] {
        let tasks = prepare_tasks(&raw_tasks_with_shots(4, 21, shots));
        assert_eq!(tasks[0].task.support.len(), shots);
        let in_dim = model_input_dim(&tasks[0].task.graph);
        for kind in [GnnKind::Gat, GnnKind::Gcn, GnnKind::Sage] {
            for op in [
                CommutativeOp::Sum,
                CommutativeOp::Mean,
                CommutativeOp::SelfAttention,
            ] {
                for decoder in [
                    DecoderKind::InnerProduct,
                    DecoderKind::Mlp,
                    DecoderKind::Gnn,
                ] {
                    let build = || {
                        let mut cfg = CgnpConfig::paper_default(in_dim, 8)
                            .with_encoder_kind(kind)
                            .with_commutative(op)
                            .with_decoder(decoder)
                            .with_epochs(2);
                        cfg.lr = 5e-3;
                        Cgnp::new(cfg, 42)
                    };
                    let reference = build();
                    let (ref_losses, ref_next) = old_sequential_meta_train(&reference, &tasks, 7);
                    let expect = (bits(&ref_losses), weights_bits(&reference), ref_next);
                    for threads in [1, 2, 3, 8] {
                        let live = build();
                        let mut rng = StdRng::seed_from_u64(7);
                        let stats = meta_train_with_rng(&live, &tasks, &mut rng, threads);
                        let got = (
                            bits(&stats.epoch_losses),
                            weights_bits(&live),
                            rng.gen::<u64>(),
                        );
                        assert!(
                            got == expect,
                            "{kind} / {op} / {decoder}, {shots} shots, {threads} threads: \
                             losses, weights or RNG state diverged from the whole-tape replica"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn validated_training_is_identical_across_thread_counts() {
    let tasks = tiny_tasks(8, 15);
    let (train, valid) = tasks.split_at(6);
    let run = |threads: usize| {
        let model = small_model(train, 4);
        let stats = meta_train_validated_with_threads(&model, train, valid, 2, threads);
        (
            stats
                .epoch_losses
                .iter()
                .chain(&stats.valid_losses)
                .map(|l| l.to_bits())
                .collect::<Vec<_>>(),
            stats.best_epoch,
            weights_bits(&model),
        )
    };
    assert_eq!(run(1), run(4));
}

#[test]
fn validation_sweep_is_identical_across_thread_counts() {
    let tasks = tiny_tasks(5, 16);
    let model = small_model(&tasks, 1);
    let serial = validation_loss_with_threads(&model, &tasks, 1);
    let fanned = validation_loss_with_threads(&model, &tasks, 4);
    assert_eq!(serial.to_bits(), fanned.to_bits());
}

#[test]
fn parallel_prepare_tasks_matches_serial() {
    let raw = raw_tasks(6, 17);
    let serial = prepare_tasks_with_threads(&raw, 1);
    let fanned = prepare_tasks_with_threads(&raw, 4);
    assert_eq!(serial.len(), fanned.len());
    for (a, b) in serial.iter().zip(&fanned) {
        assert_eq!(a.base.as_slice(), b.base.as_slice(), "base features differ");
        assert_eq!(a.task.support.len(), b.task.support.len());
        // The prepared operators must encode the same graph: probe them
        // through a forward pass of one shared model.
        let model = small_model(&serial, 1);
        let mut ra = StdRng::seed_from_u64(0);
        let mut rb = StdRng::seed_from_u64(0);
        let q = a.task.targets[0].query;
        let pa = model.predict(a, q, &mut ra);
        let pb = model.predict(b, q, &mut rb);
        assert_eq!(
            pa.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            pb.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "prepared operators must be interchangeable"
        );
    }
}
