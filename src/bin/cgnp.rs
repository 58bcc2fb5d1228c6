//! `cgnp` — command-line interface to the CGNP community-search library.
//!
//! ```text
//! cgnp datasets
//!     List the dataset surrogates (paper Table I vs generated).
//!
//! cgnp train --dataset citeseer [--kind sgsc|sgdc] [--shots N] [--scale S]
//!            [--seed N] [--decoder ip|mlp|gnn] [--out model.json]
//!            [--threads N]
//!     Meta-train a CGNP model (with validation-based model selection)
//!     and optionally save a checkpoint: the paper's loop, one Adam step
//!     per task. --threads workers share the step's support views,
//!     forward and backward; a fixed seed reproduces bitwise for any
//!     --threads, and the run prints its task-steps/s so what --threads
//!     buys can be read off.
//!
//! cgnp evaluate --dataset citeseer [--kind ...] [--shots N] [--scale S]
//!               [--seed N] [--model model.json]
//!     Evaluate a (fresh or checkpointed) CGNP model on held-out tasks.
//!
//! cgnp serve --checkpoint model.json [--dataset citeseer] [--scale S]
//!            [--decoder ip|mlp|gnn] [--shots N] [--seed N]
//!            [--threads N] [--batch B]
//!            [--precision f32|f64] [--exact]
//!            [--shards N]
//!            [--listen ADDR] [--max-conns N] [--max-queue N]
//!            [--request-timeout-ms MS] [--drain MS]
//!            [--durable DIR] [--snapshot-every N]
//!     Answer newline-delimited JSON queries using a restored checkpoint
//!     (micro-batched; see README "Serving" and "Operations"). The
//!     front-end is the gateway either way, and a connection reads its
//!     responses in the order it sent its lines. Without --listen,
//!     stdin/stdout is its one connection, nothing is bound, and serving
//!     ends when stdin does. With --listen ADDR (e.g. 127.0.0.1:7878,
//!     port 0 for ephemeral), it multiplexes many concurrent NDJSON
//!     clients into the same micro-batcher; the bound address is printed
//!     to stderr. stdin then becomes the control channel: a "drain" line
//!     or EOF triggers a graceful drain (stop accepting, answer
//!     everything admitted, flush, exit 0), bounded by the --drain grace
//!     period in milliseconds. --request-timeout-ms 0 disables
//!     per-request deadlines. All but --max-conns apply without --listen.
//!     --precision selects the element type scoring runs in (f32, the
//!     training dtype and default, or f64). Serving defaults to the
//!     fast-math kernel tier when the binary carries it (build with
//!     --features fast-math); --exact pins scoring to the bitwise-
//!     reproducible kernels instead — with f32, predictions are then
//!     bit-for-bit identical to the training-side forward. The summary
//!     reports the precision and the kernel tier actually used.
//!     With --shards N (> 1), the graph is partitioned and queries are
//!     answered by a scatter/gather coordinator over N per-partition
//!     sessions — same protocol, bitwise-identical responses (see README
//!     "Sharding").
//!     With --durable DIR, every acknowledged update is appended to a
//!     checksummed, fsync'd write-ahead log in DIR *before* the ack is
//!     emitted, and epoch-consistent snapshots of the mutated graph +
//!     support pool are written every --snapshot-every N acknowledged
//!     updates (default 256; 0 = WAL-only). On start, the newest valid
//!     snapshot is loaded and the WAL tail replayed, so a crashed server
//!     resumes bitwise-identical to one that never crashed (see README
//!     "Durability & recovery").
//!     Checkpoints written by `cgnp train` are self-describing: the
//!     architecture embedded in the file is used and --scale/--decoder
//!     are ignored. For legacy checkpoints without an embedded
//!     architecture, the flags must match the ones used at training time
//!     so the restored architecture lines up. At exit one line is
//!     printed to stderr, `gateway report: {"gateway":{..},"session":{..}}`:
//!     the front-end's counters next to the serving summary (latency
//!     percentiles, batch occupancy, context counters).
//!
//! A flag the subcommand does not read is a usage error (exit 2), not
//! something to ignore.
//! ```

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::time::Duration;

use cgnp_core::{
    meta_train_validated_with_threads, prepare_tasks, prepare_tasks_with_threads, Cgnp, DecoderKind,
};
use cgnp_data::{load_dataset, model_input_dim, DatasetId, Scale};
use cgnp_eval::{
    build_single_graph_tasks, restore_model, save_with_arch, ArchSpec, Metrics, ScaleSettings,
    TaskKind, TextTable,
};
use cgnp_gateway::{Gateway, GatewayConfig, GatewayReport};
use cgnp_nn::Module;
use cgnp_serve::{serve_task, ServeConfig, ServeSession};
use cgnp_shard::{ShardedConfig, ShardedSession};
use rand::rngs::StdRng;
use rand::SeedableRng;

type Flags = HashMap<String, String>;

/// A subcommand: its name, every flag it reads, and its entry point.
struct Subcommand {
    name: &'static str,
    flags: &'static [&'static str],
    run: fn(&Flags) -> Result<(), String>,
}

const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "datasets",
        flags: &["scale"],
        run: cmd_datasets,
    },
    Subcommand {
        name: "train",
        flags: &[
            "dataset", "kind", "shots", "scale", "seed", "decoder", "out", "threads",
        ],
        run: cmd_train,
    },
    Subcommand {
        name: "evaluate",
        flags: &[
            "dataset", "kind", "shots", "scale", "seed", "decoder", "model",
        ],
        run: cmd_evaluate,
    },
    Subcommand {
        name: "serve",
        flags: &[
            "dataset",
            "kind",
            "shots",
            "scale",
            "seed",
            "decoder",
            "checkpoint",
            "threads",
            "batch",
            "precision",
            "exact",
            "shards",
            "listen",
            "max-conns",
            "max-queue",
            "request-timeout-ms",
            "drain",
            "durable",
            "snapshot-every",
        ],
        run: cmd_serve,
    },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: cgnp <datasets|train|evaluate|serve> [flags]; see --help");
        std::process::exit(2);
    };
    let usage_error = |e: String| -> ! {
        eprintln!("error: {e}");
        std::process::exit(2);
    };
    let flags = parse_flags(rest).unwrap_or_else(|e| usage_error(e));
    let result = match SUBCOMMANDS.iter().find(|c| c.name == command) {
        Some(sub) => {
            // Before anything is loaded: a misspelt flag must not cost a
            // training run at the default it was meant to change.
            check_known(sub, &flags).unwrap_or_else(|e| usage_error(e));
            (sub.run)(&flags)
        }
        None if matches!(command.as_str(), "--help" | "help") => {
            println!("subcommands: datasets | train | evaluate | serve");
            Ok(())
        }
        None => Err(format!("unknown subcommand {command:?}")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Refuses any flag `sub` does not read, by name.
fn check_known(sub: &Subcommand, flags: &Flags) -> Result<(), String> {
    // The first in name order, so the flag named is the same on every run.
    let unknown = flags.keys().filter(|n| !sub.flags.contains(&n.as_str()));
    match unknown.min() {
        Some(name) => Err(format!("unknown flag --{name} for {}", sub.name)),
        None => Ok(()),
    }
}

/// Flags that take no value: presence alone sets them.
const BOOLEAN_FLAGS: &[&str] = &["exact"];

/// Parses `--key value` pairs (and valueless [`BOOLEAN_FLAGS`]).
fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --flag, got {key:?}"));
        };
        if BOOLEAN_FLAGS.contains(&name) {
            flags.insert(name.to_string(), "true".to_string());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn parse_dataset(s: &str) -> Result<DatasetId, String> {
    match s.to_ascii_lowercase().as_str() {
        "cora" => Ok(DatasetId::Cora),
        "citeseer" => Ok(DatasetId::Citeseer),
        "arxiv" => Ok(DatasetId::Arxiv),
        "dblp" => Ok(DatasetId::Dblp),
        "reddit" => Ok(DatasetId::Reddit),
        "facebook" => Ok(DatasetId::Facebook),
        other => Err(format!("unknown dataset {other:?}")),
    }
}

fn parse_scale(s: &str) -> Result<Scale, String> {
    match s.to_ascii_lowercase().as_str() {
        "smoke" => Ok(Scale::Smoke),
        "quick" => Ok(Scale::Quick),
        "full" => Ok(Scale::Full),
        "paper" => Ok(Scale::Paper),
        other => Err(format!("unknown scale {other:?}")),
    }
}

fn parse_kind(s: &str) -> Result<TaskKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "sgsc" => Ok(TaskKind::Sgsc),
        "sgdc" => Ok(TaskKind::Sgdc),
        other => Err(format!("unknown task kind {other:?} (sgsc|sgdc)")),
    }
}

fn parse_decoder(s: &str) -> Result<DecoderKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "ip" => Ok(DecoderKind::InnerProduct),
        "mlp" => Ok(DecoderKind::Mlp),
        "gnn" => Ok(DecoderKind::Gnn),
        other => Err(format!("unknown decoder {other:?} (ip|mlp|gnn)")),
    }
}

struct CommonArgs {
    dataset: DatasetId,
    kind: TaskKind,
    shots: usize,
    seed: u64,
    settings: ScaleSettings,
    decoder: DecoderKind,
}

fn common_args(flags: &Flags) -> Result<CommonArgs, String> {
    let dataset = parse_dataset(
        flags
            .get("dataset")
            .map(String::as_str)
            .unwrap_or("citeseer"),
    )?;
    if dataset == DatasetId::Facebook {
        return Err(
            "the CLI drives single-graph tasks; use the ego_networks example for MGOD".into(),
        );
    }
    let kind = parse_kind(flags.get("kind").map(String::as_str).unwrap_or("sgsc"))?;
    let shots: usize = flags
        .get("shots")
        .map(String::as_str)
        .unwrap_or("5")
        .parse()
        .map_err(|e| format!("bad --shots: {e}"))?;
    let seed: u64 = flags
        .get("seed")
        .map(String::as_str)
        .unwrap_or("42")
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let scale = parse_scale(flags.get("scale").map(String::as_str).unwrap_or("quick"))?;
    let decoder = parse_decoder(flags.get("decoder").map(String::as_str).unwrap_or("ip"))?;
    Ok(CommonArgs {
        dataset,
        kind,
        shots,
        seed,
        settings: ScaleSettings::for_scale(scale),
        decoder,
    })
}

fn cmd_datasets(flags: &Flags) -> Result<(), String> {
    let scale = parse_scale(flags.get("scale").map(String::as_str).unwrap_or("quick"))?;
    let mut table = TextTable::new(vec![
        "Dataset",
        "paper |V|",
        "paper |E|",
        "surrogate |V|",
        "surrogate |E|",
        "|C|",
        "attrs",
    ]);
    for id in DatasetId::ALL {
        let ds = load_dataset(id, scale, 42);
        let (n, m, c) = ds.graphs.iter().fold((0, 0, 0), |(n, m, c), g| {
            (n + g.n(), m + g.m(), c + g.n_communities())
        });
        table.push_row(vec![
            id.name().to_string(),
            ds.paper.nodes.to_string(),
            ds.paper.edges.to_string(),
            n.to_string(),
            m.to_string(),
            c.to_string(),
            ds.paper.attrs.map_or("-".into(), |a| a.to_string()),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let args = common_args(flags)?;
    let tasks = build_single_graph_tasks(
        args.dataset,
        args.kind,
        args.shots,
        &args.settings,
        args.seed,
    );
    if tasks.train.is_empty() {
        return Err("task sampling produced no training tasks".into());
    }
    let threads = parse_usize(flags, "threads", rayon::current_num_threads())?.max(1);
    println!(
        "{} {} {}-shot: {} train / {} valid tasks ({threads} threads)",
        args.dataset.name(),
        args.kind,
        args.shots,
        tasks.train.len(),
        tasks.valid.len()
    );
    let train = prepare_tasks_with_threads(&tasks.train, threads);
    let valid = prepare_tasks_with_threads(&tasks.valid, threads);
    let mut cfg = args.settings.cgnp_template().with_decoder(args.decoder);
    cfg.encoder.in_dim = model_input_dim(&tasks.train[0].graph);
    let model = Cgnp::new(cfg, args.seed);
    let stats = meta_train_validated_with_threads(&model, &train, &valid, args.seed, threads);
    let epochs = stats.epoch_losses.len();
    println!(
        "trained {epochs} epochs in {:.1} s ({:.1} task-steps/s); best validation epoch {} (valid loss {:.4})",
        stats.train_seconds,
        (epochs * train.len()) as f64 / stats.train_seconds,
        stats.best_epoch,
        stats
            .valid_losses
            .get(stats.best_epoch)
            .copied()
            .unwrap_or(f32::NAN)
    );
    if let Some(path) = flags.get("out") {
        // Embed the architecture so `cgnp serve`/`evaluate` can restore
        // the checkpoint without the operator repeating these flags.
        save_with_arch(&model, ArchSpec::from_config(model.config()), path)
            .map_err(|e| format!("saving checkpoint: {e}"))?;
        println!(
            "checkpoint written to {path} ({} parameters, self-describing)",
            model.param_count()
        );
    }
    Ok(())
}

fn cmd_evaluate(flags: &Flags) -> Result<(), String> {
    let args = common_args(flags)?;
    let tasks = build_single_graph_tasks(
        args.dataset,
        args.kind,
        args.shots,
        &args.settings,
        args.seed,
    );
    if tasks.test.is_empty() {
        return Err("task sampling produced no test tasks".into());
    }
    let test = prepare_tasks(&tasks.test);
    let template = args.settings.cgnp_template().with_decoder(args.decoder);
    let in_dim = model_input_dim(&tasks.test[0].graph);
    let model = match flags.get("model") {
        Some(path) => {
            // Self-describing checkpoints rebuild their own architecture;
            // legacy ones fall back to the --scale/--decoder flags.
            let model = restore_model(path, template, in_dim, args.seed)?;
            println!("loaded checkpoint {path}");
            model
        }
        None => {
            let mut cfg = template;
            cfg.encoder.in_dim = in_dim;
            println!("note: evaluating an untrained model (pass --model to load weights)");
            Cgnp::new(cfg, args.seed)
        }
    };
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut per_query = Vec::new();
    for p in &test {
        for (ex, probs) in p.task.targets.iter().zip(model.predict_task(p, &mut rng)) {
            per_query.push(Metrics::from_probs(&probs, &ex.truth, 0.5));
        }
    }
    let avg = Metrics::macro_average(&per_query);
    println!(
        "{} queries on {} test tasks:\n  accuracy {:.4}  precision {:.4}  recall {:.4}  F1 {:.4}",
        per_query.len(),
        test.len(),
        avg.accuracy,
        avg.precision,
        avg.recall,
        avg.f1
    );
    Ok(())
}

fn parse_usize(flags: &Flags, name: &str, default: usize) -> Result<usize, String> {
    flags
        .get(name)
        .map(|s| s.parse().map_err(|e| format!("bad --{name}: {e}")))
        .unwrap_or(Ok(default))
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let args = common_args(flags)?;
    let checkpoint = flags
        .get("checkpoint")
        .ok_or("serve needs --checkpoint <model.json>")?;
    let precision =
        cgnp_tensor::Dtype::parse(flags.get("precision").map(String::as_str).unwrap_or("f32"))?;
    // The CLI opts into the fast tier by default — the binary only
    // carries it when built with `--features fast-math`, and `--exact`
    // pins scoring back to the bitwise-reproducible kernels without a
    // rebuild. (The *library* default stays exact.)
    let math = if flags.contains_key("exact") {
        cgnp_tensor::MathMode::Exact
    } else {
        cgnp_tensor::MathMode::Fast
    };
    let cfg = ServeConfig {
        batch: parse_usize(flags, "batch", ServeConfig::default().batch)?.max(1),
        threads: parse_usize(flags, "threads", rayon::current_num_threads())?.max(1),
        seed: args.seed,
        precision,
        math,
        ..ServeConfig::default()
    };
    let shards = parse_usize(flags, "shards", 1)?.max(1);
    let durable_dir = flags.get("durable").map(std::path::PathBuf::from);
    let snapshot_every = parse_usize(flags, "snapshot-every", 256)? as u64;
    // Scan the durability directory before building anything: when a
    // valid snapshot exists, the engine starts from the mutated state
    // it captured, not from the fresh dataset.
    let recovered = match &durable_dir {
        Some(dir) => {
            Some(cgnp_serve::scan(dir).map_err(|e| format!("recovering {}: {e}", dir.display()))?)
        }
        None => None,
    };
    let ds = load_dataset(args.dataset, args.settings.scale, args.seed);
    let task = match recovered.as_ref().and_then(|r| r.snapshot.as_ref()) {
        Some(snap) => snap
            .restore_task()
            .map_err(|e| format!("restoring snapshot: {e}"))?,
        None => serve_task(ds.single(), args.shots.max(1), args.seed)?,
    };
    let template = args.settings.cgnp_template().with_decoder(args.decoder);
    // Sharding is a deployment choice, not a protocol change: both
    // engines answer the same NDJSON stream with bitwise-identical
    // responses, so the front-ends below only see `dyn QueryEngine`.
    let engine: std::sync::Arc<dyn cgnp_serve::QueryEngine> = if shards > 1 {
        let sharded = ShardedSession::from_checkpoint(
            checkpoint,
            template,
            task,
            ShardedConfig {
                shards,
                serve: cfg,
                ..ShardedConfig::default()
            },
        )?;
        eprintln!("sharded serving: {} shards", sharded.n_shards());
        std::sync::Arc::new(sharded)
    } else {
        std::sync::Arc::new(ServeSession::from_checkpoint(
            checkpoint, template, task, cfg,
        )?)
    };
    // Durability wraps *outside* sharding: updates are logged once at
    // the coordinator and recovery replays them through the same
    // scatter path live updates take.
    let engine: std::sync::Arc<dyn cgnp_serve::QueryEngine> = match (durable_dir, recovered) {
        (Some(dir), Some(state)) => {
            let snap_seq = state.snapshot.as_ref().map(|s| s.last_seq);
            let replayed = state.tail.len();
            let torn = state.torn_bytes;
            let skipped = state.snapshots_skipped;
            let durable = cgnp_serve::DurableEngine::attach(engine, &dir, snapshot_every, state)
                .map_err(|e| format!("attaching durability at {}: {e}", dir.display()))?;
            eprintln!(
                "durable serving in {}: snapshot {}, {replayed} wal records replayed, \
                 {torn} torn bytes truncated, {skipped} corrupt snapshots skipped, \
                 snapshot every {snapshot_every} updates",
                dir.display(),
                snap_seq.map_or("none".to_string(), |s| format!("seq {s}")),
            );
            std::sync::Arc::new(durable)
        }
        _ => engine,
    };
    eprintln!(
        "serving {} ({} nodes, {} support examples) from {checkpoint}: batch {}, {} threads, {} {} math",
        args.dataset.name(),
        engine.n(),
        engine.max_shots(),
        cfg.batch,
        cfg.threads,
        cfg.precision,
        cfg.effective_math()
    );
    let defaults = GatewayConfig::default();
    let timeout_ms = parse_usize(flags, "request-timeout-ms", 10_000)?;
    let gateway_cfg = GatewayConfig {
        max_conns: parse_usize(flags, "max-conns", defaults.max_conns)?,
        max_queue: parse_usize(flags, "max-queue", defaults.max_queue)?,
        request_timeout: (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms as u64)),
        drain_grace: Duration::from_millis(parse_usize(flags, "drain", 5_000)? as u64),
        ..defaults
    };
    // One front-end either way: stdin/stdout is a connection on the same
    // gateway a `--listen` peer talks to, without the listener.
    let report = match flags.get("listen") {
        Some(listen) => serve_gateway(engine, listen, gateway_cfg)?,
        None => {
            let (stdin, stdout) = (std::io::stdin().lock(), std::io::stdout());
            Gateway::serve_stream(engine, stdin, stdout, gateway_cfg)
                .map_err(|e| format!("serving stream failed: {e}"))?
        }
    };
    let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
    eprintln!("gateway report: {json}");
    Ok(())
}

/// Runs the TCP gateway until stdin says stop, then drains gracefully.
fn serve_gateway(
    engine: std::sync::Arc<dyn cgnp_serve::QueryEngine>,
    listen: &str,
    gateway_cfg: GatewayConfig,
) -> Result<GatewayReport, String> {
    use std::io::BufRead;

    let handle = Gateway::start(engine, listen, gateway_cfg)
        .map_err(|e| format!("binding {listen}: {e}"))?;
    // The address line is load-bearing: with `--listen 127.0.0.1:0` it
    // is how scripts learn the ephemeral port.
    eprintln!("gateway listening on {}", handle.addr());
    eprintln!("control: send \"drain\" (or close stdin) for graceful shutdown");
    for line in std::io::stdin().lock().lines() {
        match line {
            Ok(cmd) if matches!(cmd.trim(), "drain" | "quit" | "stop") => break,
            Ok(cmd) if cmd.trim().is_empty() => continue,
            Ok(cmd) => eprintln!("unknown control command {:?} (try \"drain\")", cmd.trim()),
            Err(_) => break,
        }
    }
    eprintln!("draining: accepting no new connections, finishing in-flight work");
    Ok(handle.join())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["--dataset", "cora", "--shots", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = parse_flags(&args).unwrap();
        assert_eq!(flags["dataset"], "cora");
        assert_eq!(flags["shots"], "5");
        assert!(parse_flags(&["--lonely".to_string()]).is_err());
        assert!(parse_flags(&["positional".to_string()]).is_err());
    }

    /// `check_known` on a command line given as one string.
    fn check(name: &str, line: &str) -> Result<(), String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        let sub = SUBCOMMANDS.iter().find(|c| c.name == name).unwrap();
        check_known(sub, &parse_flags(&args).unwrap())
    }

    #[test]
    fn flags_a_subcommand_does_not_read_are_refused_by_name() {
        // Three flags no subcommand has (all once serve's), a typo, two
        // flags of another subcommand; of several, the first in name
        // order is reported.
        for (name, line, flag) in [
            ("serve", "--seed 1 --refresh swap", "--refresh"),
            ("serve", "--seed 1 --replicas 2", "--replicas"),
            ("serve", "--seed 1 --cache 8", "--cache"),
            ("serve", "--refesh per-row --exact", "--refesh"),
            ("train", "--batch 8 --seed 1", "--batch"),
            ("evaluate", "--checkpoint m.json", "--checkpoint"),
            ("datasets", "--zeta 1 --alpha 2", "--alpha"),
        ] {
            let err = check(name, line).unwrap_err();
            assert_eq!(err, format!("unknown flag {flag} for {name}"));
        }
    }

    #[test]
    fn flags_the_benchmark_ci_and_soaks_pass_are_accepted() {
        // cgnp-e2e's `ensure_checkpoint` and CI's train steps.
        let train = "--dataset citeseer --scale full --shots 5 --seed 42 --out m.json --threads 2";
        check("train", train).unwrap();
        // cgnp-e2e's `ServerChild::spawn` with each workload's extras,
        // CI's serve smoke, `gateway_soak.py` and `crash_soak.py`.
        let spawn = "--checkpoint m.json --dataset citeseer --scale smoke --listen 127.0.0.1:0";
        for extra in [
            "",
            "--durable d",
            "--shards 2",
            "--batch 2",
            "--batch 4 --request-timeout-ms 30000 --drain 20000 --durable d --snapshot-every 5",
            // The rest of what the usage text documents.
            "--exact --precision f64 --max-conns 4 --max-queue 64 --decoder ip",
        ] {
            check("serve", &format!("{spawn} {extra}")).unwrap();
        }
        check("evaluate", "--model m.json --scale smoke --kind sgsc").unwrap();
        check("datasets", "--scale smoke").unwrap();
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let args: Vec<String> = ["--exact", "--precision", "f64"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = parse_flags(&args).unwrap();
        assert_eq!(flags["exact"], "true");
        assert_eq!(flags["precision"], "f64");
    }

    #[test]
    fn enum_parsing() {
        assert_eq!(parse_dataset("Reddit").unwrap(), DatasetId::Reddit);
        assert!(parse_dataset("imaginary").is_err());
        assert_eq!(parse_kind("SGDC").unwrap(), TaskKind::Sgdc);
        assert!(parse_kind("mgod").is_err());
        assert_eq!(parse_decoder("mlp").unwrap(), DecoderKind::Mlp);
        assert!(parse_scale("huge").is_err());
    }

    #[test]
    fn common_args_defaults() {
        let flags = HashMap::new();
        let args = common_args(&flags).unwrap();
        assert_eq!(args.dataset, DatasetId::Citeseer);
        assert_eq!(args.shots, 5);
        assert_eq!(args.seed, 42);
        assert_eq!(args.decoder, DecoderKind::InnerProduct);
    }

    #[test]
    fn facebook_rejected_for_single_graph_cli() {
        let mut flags = HashMap::new();
        flags.insert("dataset".to_string(), "facebook".to_string());
        assert!(common_args(&flags).is_err());
    }

    #[test]
    fn serve_flags() {
        let mut flags = HashMap::new();
        assert_eq!(parse_usize(&flags, "batch", 8).unwrap(), 8);
        flags.insert("batch".to_string(), "32".to_string());
        assert_eq!(parse_usize(&flags, "batch", 8).unwrap(), 32);
        flags.insert("batch".to_string(), "lots".to_string());
        assert!(parse_usize(&flags, "batch", 8).is_err());
        assert!(
            cmd_serve(&HashMap::new()).is_err(),
            "serve requires --checkpoint"
        );
    }
}
