//! `cgnp-e2e` — the repository's end-to-end benchmark.
//!
//! One command runs the *released* `cgnp` binary under four workloads,
//! checks its outputs, and prints every metric by name with unit,
//! direction and regression bound; a traced run attributes the time to
//! the layers. See `README.md` beside this file, and `BENCHMARK.json` at
//! the repository root for the contract.
//!
//! ```text
//! cgnp-e2e [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]]
//!          [--repeat N] [--verify] [--out FILE]
//! ```
//!
//! * `--workload` — `meta_learn`, `serve_read`, `serve_mixed`,
//!   `serve_sharded`, or `all` (default).
//! * `--seed` — seeds the generated inputs (request streams and arrival
//!   times; task sampling and model initialisation on `meta_learn`). The
//!   program under test only ever sees the generated frames.
//! * `--seconds` — length of the timed phases of one run (default 20,
//!   the `run_seconds` of `BENCHMARK.json`).
//! * `--trace` — run the traced variant and report per-layer metrics
//!   instead of end-to-end ones. `--trace 0` is the same as no flag.
//! * `--repeat N --verify` — run N sets and fail if the spread of any
//!   end-to-end metric, on any workload that emits it, exceeds that
//!   metric's own bound.
//! * `--out FILE` — also write everything, machine descriptor included,
//!   as JSON.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! The exit code is non-zero when any output check failed.

mod client;
mod machine;
mod meta_learn;
mod probes;
mod report;
mod serve_workloads;
mod server;
mod stats;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use machine::Machine;
use report::{json_array, json_object, json_string, RunOutput, END_TO_END, WORKLOADS};
use serve_workloads::Kind;

#[derive(Debug, PartialEq)]
struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    verify: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 42,
        seconds: 20.0,
        trace: false,
        repeat: 1,
        verify: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                parsed.workloads = match name.as_str() {
                    "all" => WORKLOADS.to_vec(),
                    one => vec![*WORKLOADS
                        .iter()
                        .find(|w| **w == one)
                        .ok_or_else(|| format!("unknown workload {one:?} (try {WORKLOADS:?})"))?],
                };
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--repeat" => {
                parsed.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("bad --repeat: {e}"))?;
                if parsed.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => parsed.out = Some(value("--out")?),
            "--verify" => parsed.verify = true,
            "--trace" => {
                // The harness passes `--trace 0|1`; people pass `--trace`.
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.verify && parsed.repeat < 2 {
        return Err("--verify compares run sets: give --repeat 2 or more".into());
    }
    Ok(parsed)
}

fn run_one(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunOutput, String> {
    match workload {
        "meta_learn" => meta_learn::run(seed, seconds, trace),
        "serve_read" => serve_workloads::run(Kind::Read, seed, seconds, trace),
        "serve_mixed" => serve_workloads::run(Kind::Mixed, seed, seconds, trace),
        "serve_sharded" => serve_workloads::run(Kind::Sharded, seed, seconds, trace),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Spread of every end-to-end metric across run sets, on each workload
/// that emits it, against the metric's own bound. A bound of zero means
/// the values must be identical. Returns the violations.
fn verify_spreads(sets: &[Vec<RunOutput>]) -> Vec<String> {
    let mut by_metric: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for run in sets.iter().flatten().filter(|r| !r.traced) {
        for m in run.reported() {
            by_metric
                .entry((run.workload, m.name))
                .or_default()
                .push(run.value(m.name));
        }
    }
    let mut violations = Vec::new();
    println!("\n== spread across {} run sets ==", sets.len());
    for ((workload, name), values) in &by_metric {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == *name)
            .map_or(0.0, |m| m.bound);
        let spread = if values.iter().all(|v| v == &values[0]) {
            0.0
        } else {
            stats::spread(values).unwrap_or(f64::INFINITY)
        };
        let exceeded = spread > bound;
        println!(
            "  {workload:<14} {name:<18} spread {:>6.2} %  bound {:>5.1} %{}",
            spread * 100.0,
            bound * 100.0,
            if exceeded { "  EXCEEDED" } else { "" }
        );
        if exceeded {
            violations.push(format!(
                "{workload}/{name}: spread {spread:.3} exceeds bound {bound}"
            ));
        }
    }
    violations
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cgnp-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let machine = Machine::describe(args.seed);
    println!("cgnp-e2e on {}", machine.to_json());

    // The repeats of one workload run back to back, `meta_learn` first:
    // its peak RSS is this process's own, and must not be read after a
    // serve workload has grown the heap.
    let mut sets: Vec<Vec<RunOutput>> = vec![Vec::new(); args.repeat];
    for workload in &args.workloads {
        for (set, runs) in sets.iter_mut().enumerate() {
            eprintln!(
                "cgnp-e2e: set {}/{} workload {workload} seed {} trace {}",
                set + 1,
                args.repeat,
                args.seed,
                args.trace
            );
            match run_one(workload, args.seed, args.seconds, args.trace) {
                Ok(run) => {
                    run.print_table();
                    runs.push(run);
                }
                Err(e) => {
                    // No result line: the run could not be made at all.
                    eprintln!("cgnp-e2e: {workload}: {e}");
                    return ExitCode::from(1);
                }
            }
        }
    }

    let mut violations = Vec::new();
    if args.verify {
        violations = verify_spreads(&sets);
        for v in &violations {
            eprintln!("cgnp-e2e: {v}");
        }
    }
    if let Some(path) = &args.out {
        let all: Vec<String> = sets
            .iter()
            .map(|set| json_array(&set.iter().map(RunOutput::to_json).collect::<Vec<_>>()))
            .collect();
        let doc = json_object(&[
            ("machine", machine.to_json()),
            ("seconds", report::json_number(args.seconds)),
            ("sets", json_array(&all)),
            (
                "spread_violations",
                json_array(
                    &violations
                        .iter()
                        .map(|v| json_string(v))
                        .collect::<Vec<_>>(),
                ),
            ),
        ]);
        if let Err(e) = std::fs::write(path, doc + "\n") {
            eprintln!("cgnp-e2e: writing {path}: {e}");
            return ExitCode::from(1);
        }
    }

    // One workload, one set: the harness's result line. Otherwise one
    // object with a result per workload of the last set.
    let last = sets.last().expect("at least one set");
    let all_correct = sets.iter().flatten().all(RunOutput::correct);
    println!();
    if let [only] = last.as_slice() {
        println!("{}", only.contract_line());
    } else {
        let per_workload: Vec<(&str, String)> = last
            .iter()
            .map(|r| (r.workload, r.contract_line()))
            .collect();
        println!(
            "{}",
            json_object(&[
                ("correct", all_correct.to_string()),
                ("workloads", json_object(&per_workload)),
            ])
        );
    }
    if all_correct && violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn harness_and_human_spellings_of_trace() {
        let harness = args(&[
            "--workload",
            "serve_read",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(harness.workloads, vec!["serve_read"]);
        assert_eq!(
            (harness.seed, harness.seconds, harness.trace),
            (7, 20.0, false)
        );
        assert!(args(&["--trace", "1"]).unwrap().trace);
        assert!(args(&["--trace"]).unwrap().trace);
        let mixed = args(&["--trace", "--workload", "meta_learn"]).unwrap();
        assert!(mixed.trace && mixed.workloads == vec!["meta_learn"]);
        assert_eq!(args(&[]).unwrap().workloads, WORKLOADS.to_vec());
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--verify"]).is_err());
        assert!(args(&["--repeat", "2", "--verify"]).is_ok());
        assert!(args(&["--frobnicate"]).is_err());
    }

    #[test]
    fn verify_flags_a_metric_whose_spread_exceeds_its_bound() {
        let run = |throughput: f64, f1: f64| {
            let mut r = RunOutput::new("meta_learn", false);
            for m in END_TO_END.iter().filter(|m| m.emitted_on("meta_learn")) {
                r.set(m.name, 100.0);
            }
            r.set("throughput_rps", throughput);
            r.set("test_f1", f1);
            r.finish()
        };
        let steady = vec![vec![run(1000.0, 0.77)], vec![run(1010.0, 0.77)]];
        assert!(verify_spreads(&steady).is_empty());
        let noisy = vec![vec![run(1000.0, 0.77)], vec![run(1300.0, 0.77)]];
        let violations = verify_spreads(&noisy);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].starts_with("meta_learn/throughput_rps"));
        // A bound of zero: any change at all is a violation.
        let drifted = vec![vec![run(1000.0, 0.77)], vec![run(1000.0, 0.7701)]];
        let violations = verify_spreads(&drifted);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].starts_with("meta_learn/test_f1"));
    }

    /// The benchmark is a package of its own; its release profile must be
    /// the one the workspace builds `cgnp` with, or `meta_learn` and the
    /// traced runs would measure differently compiled libraries.
    #[test]
    fn standalone_manifest_builds_like_the_workspace() {
        let profile = |manifest: &str| -> Vec<String> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| l.trim().to_string())
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        };
        let own = profile(include_str!("Cargo.toml"));
        assert!(!own.is_empty());
        assert_eq!(own, profile(include_str!("../../../../../Cargo.toml")));
    }
}
