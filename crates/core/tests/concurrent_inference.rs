//! Stress test for the lock-free tensor core under concurrent
//! inference: many threads drive the taped forward (`predict_multi`,
//! `predict_task`) against ONE shared `Cgnp` (and one shared
//! `PreparedTask`) at the same time, while every result must stay
//! bitwise identical to the single-threaded path. This is the traffic
//! shape of `CsLearner`'s pool-parallel meta-test, and it guards the
//! value/tape split: forward values are immutable and read without
//! locks, so no interleaving may perturb them.

use cgnp_core::{Cgnp, CgnpConfig, CommutativeOp, DecoderKind, PreparedTask};
use cgnp_data::{generate_sbm, model_input_dim, sample_task, SbmConfig, TaskConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn prepared_task(seed: u64) -> PreparedTask {
    let ag = generate_sbm(&SbmConfig::small_test(), &mut StdRng::seed_from_u64(seed));
    let cfg = TaskConfig {
        subgraph_size: 60,
        shots: 4,
        n_targets: 5,
        ..Default::default()
    };
    let task = sample_task(&ag, &cfg, None, &mut StdRng::seed_from_u64(seed)).expect("task");
    PreparedTask::new(task)
}

fn model_for(p: &PreparedTask, decoder: DecoderKind, op: CommutativeOp) -> Cgnp {
    let in_dim = model_input_dim(&p.task.graph);
    let cfg = CgnpConfig::paper_default(in_dim, 8)
        .with_decoder(decoder)
        .with_commutative(op);
    Cgnp::new(cfg, 5)
}

fn query_batch(p: &PreparedTask) -> Vec<Vec<usize>> {
    p.task
        .targets
        .iter()
        .map(|ex| vec![ex.query])
        .chain([p.task.targets.iter().map(|ex| ex.query).take(3).collect()])
        .collect()
}

/// One pass of taped inference over the batch: every query set through
/// `predict_multi`, then the task's own targets through `predict_task`.
/// Each caller seeds its own RNG — eval-mode forwards never consume it.
fn infer_all(model: &Cgnp, p: &PreparedTask, batch: &[Vec<usize>], seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<Vec<f32>> = batch
        .iter()
        .map(|qs| model.predict_multi(p, qs, &mut rng))
        .collect();
    out.extend(model.predict_task(p, &mut rng));
    out
}

#[test]
fn concurrent_predict_multi_batch_matches_serial_bitwise() {
    let p = prepared_task(31);
    let model = model_for(&p, DecoderKind::Mlp, CommutativeOp::SelfAttention);
    let batch = query_batch(&p);
    let serial = infer_all(&model, &p, &batch, 0);

    // 8 threads hammer the same model/prepared-task handles at once, each
    // repeatedly, so lock-free value reads interleave with each other and
    // with the kernels' own pool fan-out.
    const CALLERS: usize = 8;
    const ROUNDS: usize = 4;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|caller| {
                let (model, p, batch, serial) = (&model, &p, &batch, &serial);
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        let out = infer_all(model, p, batch, (caller * ROUNDS + round) as u64);
                        assert_eq!(&out, serial, "caller {caller} round {round} diverged");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("stress caller panicked");
        }
    });
}

#[test]
fn concurrent_inference_under_every_decoder_is_stable() {
    // Narrower sweep over all decoder/⊕ variants: every forward code path
    // (MLP decoder dropout plumbing, GNN decoder message passing,
    // attention ⊕) must be safe to share.
    let p = prepared_task(32);
    for decoder in [
        DecoderKind::InnerProduct,
        DecoderKind::Mlp,
        DecoderKind::Gnn,
    ] {
        for op in [CommutativeOp::Mean, CommutativeOp::SelfAttention] {
            let model = model_for(&p, decoder, op);
            let batch = query_batch(&p);
            let serial = infer_all(&model, &p, &batch, 0);
            std::thread::scope(|s| {
                for caller in 0..4 {
                    let (model, p, batch, serial) = (&model, &p, &batch, &serial);
                    s.spawn(move || {
                        let out = infer_all(model, p, batch, caller);
                        assert_eq!(&out, serial, "{decoder:?}/{op:?} diverged under threads");
                    });
                }
            });
        }
    }
}

#[test]
fn concurrent_inference_leaves_no_autograd_state() {
    // Shared-model inference must not grow tape state on any thread: after
    // the stampede, the model's parameters hold no gradients and tape
    // recording is still enabled on the main thread.
    let p = prepared_task(33);
    let model = model_for(&p, DecoderKind::InnerProduct, CommutativeOp::Mean);
    let batch = query_batch(&p);
    std::thread::scope(|s| {
        for caller in 0..6 {
            let (model, p, batch) = (&model, &p, &batch);
            s.spawn(move || {
                let _ = infer_all(model, p, batch, caller);
            });
        }
    });
    use cgnp_nn::Module;
    for param in model.params() {
        assert!(param.grad().is_none(), "inference accumulated a gradient");
    }
    assert!(cgnp_tensor::grad_enabled(), "tape flag leaked");
}
