//! The `meta_learn` workload: the paper's own two costs, in process,
//! through the calls `cgnp train` and `cgnp evaluate` make — task
//! sampling, `prepare_tasks`, validated meta-training (the only place the
//! taped forward and backward run), then forward-only meta-testing.

use std::time::{Duration, Instant};

use cgnp_core::{
    meta_train_validated_with_threads, prepare_tasks_with_threads, validation_loss_with_threads,
    Cgnp, PreparedTask,
};
use cgnp_data::{load_dataset, model_input_dim, DatasetId, Scale, TaskKind};
use cgnp_eval::{
    build_single_graph_tasks, load_checkpoint_file, save_with_arch, ArchSpec, Metrics,
    ScaleSettings,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::probes::{kernels, time_us};
use crate::report::RunOutput;
use crate::server::{bench_dir, peak_rss_mb_of, Scratch, SHOTS};
use crate::stats::{median, percentile_us};
use crate::trace::{spans_to_json, Span, Tracer};

/// Set-ups measured per run; `setup_s` is their median.
const SETUPS: usize = 31;
/// `--seconds` at which training runs the full `--scale full` schedule
/// (30 tasks × 50 epochs); shorter runs train proportionally fewer epochs.
const FULL_SCHEDULE_S: f64 = 20.0;
/// Macro F1 the trained model must reach on the test queries, once it
/// has trained for [`MIN_F1_EPOCHS`] (shorter smoke runs only have to
/// lower their loss).
const MIN_F1: f64 = 0.6;
const MIN_F1_EPOCHS: usize = 10;

struct Prepared {
    train: Vec<PreparedTask>,
    valid: Vec<PreparedTask>,
    test: Vec<PreparedTask>,
}

fn epochs_for(settings: &ScaleSettings, seconds: f64) -> usize {
    let share = (seconds / FULL_SCHEDULE_S).min(1.0);
    ((settings.epochs as f64 * share).round() as usize).clamp(2, settings.epochs)
}

/// Runs `f` in a span when the run is traced, bare when it is not.
fn spanned<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, Vec::new(), f),
        None => f(),
    }
}

/// What `cgnp train` does before its first epoch.
fn set_up(
    settings: &ScaleSettings,
    seed: u64,
    threads: usize,
    tracer: Option<&Tracer>,
) -> Prepared {
    let tasks = spanned(tracer, "data.build_tasks", || {
        build_single_graph_tasks(DatasetId::Citeseer, TaskKind::Sgsc, SHOTS, settings, seed)
    });
    spanned(tracer, "core.prepare_tasks", || Prepared {
        train: prepare_tasks_with_threads(&tasks.train, threads),
        valid: prepare_tasks_with_threads(&tasks.valid, threads),
        test: prepare_tasks_with_threads(&tasks.test, threads),
    })
}

fn span_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<RunOutput, String> {
    let mut out = RunOutput::new("meta_learn", traced);
    // The traced run does the same work at a quarter length.
    let seconds = if traced { seconds / 4.0 } else { seconds };
    let settings = ScaleSettings::for_scale(Scale::Full);
    let epochs = epochs_for(&settings, seconds);
    let threads = rayon::current_num_threads();
    let origin = Instant::now();
    // End-to-end figures are measured with tracing off.
    let tracer = traced.then(|| Tracer::new(origin));
    let tracer = tracer.as_deref();

    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        prepared = Some(set_up(&settings, seed, threads, tracer));
        setups.push(started.elapsed().as_secs_f64());
    }
    let Prepared { train, valid, test } = prepared.expect("at least one set-up");
    if train.is_empty() || test.is_empty() {
        return Err("task sampling produced no tasks".into());
    }

    let mut cfg = settings.cgnp_template().with_epochs(epochs);
    cfg.encoder.in_dim = model_input_dim(&train[0].task.graph);
    let hidden = cfg.encoder.hidden_dim;
    let model = Cgnp::new(cfg, seed);
    let started = Instant::now();
    let stats = spanned(tracer, "core.meta_train", || {
        meta_train_validated_with_threads(&model, &train, &valid, seed, threads)
    });
    let train_s = started.elapsed().as_secs_f64();
    let task_steps = (epochs * train.len()) as u64;
    out.count_phase("train_task_steps", task_steps, task_steps, 0);
    let (first, last) = (
        stats.epoch_losses.first().copied().unwrap_or(f32::NAN),
        stats.epoch_losses.last().copied().unwrap_or(f32::NAN),
    );
    out.require(last < first, || {
        format!("training loss did not fall: first epoch {first}, last epoch {last}")
    });

    // Meta-test: one forward pass per task adapts to it and answers all of
    // its target queries. The first sweep is scored, then the sweep
    // repeats until the time is up.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut per_query = Vec::new();
    let mut bad_probs = 0usize;
    for p in &test {
        for (ex, probs) in p.task.targets.iter().zip(model.predict_task(p, &mut rng)) {
            bad_probs += probs.iter().filter(|x| !(0.0..=1.0).contains(*x)).count();
            per_query.push(Metrics::from_probs(&probs, &ex.truth, 0.5));
        }
    }
    let f1 = Metrics::macro_average(&per_query).f1;
    out.require(bad_probs == 0, || {
        format!("{bad_probs} predicted probabilities fall outside [0, 1]")
    });
    if epochs >= MIN_F1_EPOCHS {
        out.require(f1 >= MIN_F1, || {
            format!("test F1 {f1:.4} is below {MIN_F1}")
        });
    }
    // Per-query time is taken per sweep of all test tasks, so it averages
    // over their sizes; the median over sweeps then drops the odd stall.
    let deadline = Instant::now() + Duration::from_secs_f64(seconds / 4.0);
    let mut sweep_query_ns = Vec::new();
    let mut queries = 0u64;
    let mut calls = 0u64;
    let test_started = Instant::now();
    while sweep_query_ns.is_empty() || Instant::now() < deadline {
        let started = Instant::now();
        let mut answered = 0u64;
        for p in &test {
            spanned(tracer, "core.predict_task", || {
                std::hint::black_box(model.predict_task(p, &mut rng))
            });
            answered += p.task.targets.len() as u64;
        }
        sweep_query_ns.push(started.elapsed().as_nanos() as u64 / answered.max(1));
        queries += answered;
        calls += test.len() as u64;
    }
    let test_s = test_started.elapsed().as_secs_f64();
    out.count_phase("predict_task_calls", calls, calls, 0);
    sweep_query_ns.sort_unstable();

    let Some(tracer) = tracer else {
        out.set("setup_s", median(&setups));
        // The harness has every workload report throughput and latency;
        // here they are the paper's two costs.
        out.set("throughput_rps", task_steps as f64 / train_s);
        out.set("latency_p50_us", percentile_us(&sweep_query_ns, 0.5));
        out.set(
            "peak_rss_mb",
            peak_rss_mb_of("/proc/self/status").unwrap_or(0.0),
        );
        out.set("train_tasks_per_s", task_steps as f64 / train_s);
        out.set("test_queries_per_s", queries as f64 / test_s);
        out.set("test_f1", f1);
        out.extras.push(("train_epochs", epochs as f64, "count"));
        return Ok(out.finish());
    };

    let spans = tracer.spans();
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum();
    out.set(
        "trace.accounted_frac",
        covered as f64 / origin.elapsed().as_nanos().max(1) as f64,
    );
    let tasks = (train.len() + valid.len() + test.len()) as f64;
    out.set(
        "data.build_tasks_us",
        median(&span_us(&spans, "data.build_tasks")),
    );
    out.set(
        "core.prepare_task_us",
        median(&span_us(&spans, "core.prepare_tasks")) / tasks,
    );
    out.set("core.train_epoch_us", train_s * 1e6 / epochs as f64);
    out.set(
        "core.forward_task_us",
        time_us(3, || validation_loss_with_threads(&model, &train, threads)) / train.len() as f64,
    );
    out.set(
        "core.predict_task_us",
        median(&span_us(&spans, "core.predict_task")),
    );
    out.set("core.train_tasks_per_s", task_steps as f64 / train_s);
    out.set("core.test_queries_per_s", queries as f64 / test_s);
    out.set("eval.test_f1", f1);
    let (spmm_us, matmul_us, _, _) = kernels(&train[0], hidden);
    out.set("tensor.spmm_small_us", spmm_us);
    out.set("tensor.matmul_small_us", matmul_us);
    out.set(
        "data.load_dataset_us",
        time_us(3, || load_dataset(DatasetId::Citeseer, Scale::Full, seed)),
    );
    let scratch = Scratch::new()?;
    let saved = scratch.path("meta-learn-checkpoint.json");
    out.set(
        "eval.checkpoint_save_us",
        time_us(3, || {
            save_with_arch(&model, ArchSpec::from_config(model.config()), &saved)
        }),
    );
    out.set(
        "eval.checkpoint_load_us",
        time_us(3, || load_checkpoint_file(&saved)),
    );
    let trace_file = bench_dir()?.join("trace-meta_learn.json");
    std::fs::write(&trace_file, spans_to_json(&spans, &[]))
        .map_err(|e| format!("writing {}: {e}", trace_file.display()))?;
    Ok(out.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_scale_with_seconds_up_to_the_full_schedule() {
        let settings = ScaleSettings::for_scale(Scale::Full);
        assert_eq!(epochs_for(&settings, 20.0), 50);
        assert_eq!(epochs_for(&settings, 60.0), 50);
        assert_eq!(epochs_for(&settings, 10.0), 25);
        assert_eq!(epochs_for(&settings, 0.1), 2);
    }
}
