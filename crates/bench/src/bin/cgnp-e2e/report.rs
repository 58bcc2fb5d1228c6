//! The metric catalogue — the names `BENCHMARK.json` fixes — and the
//! result of one run, printed for people and for the harness.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end: the share of the reference median by which the metric
    /// may worsen; 0 means it must not change at all at a fixed seed.
    /// Per-layer metrics have no bound (0).
    pub bound: f64,
    /// End-to-end: the workloads that emit it. Per-layer: all of them (a
    /// metric a workload's path does not touch reads 0 there).
    pub emitted_by: &'static [&'static str],
    /// End-to-end: what it means on each workload. Per-layer: the
    /// end-to-end metric it should move, and where.
    pub note: &'static str,
}

impl MetricDef {
    pub fn emitted_on(&self, workload: &str) -> bool {
        self.emitted_by.contains(&workload)
    }

    /// The harness that gates later PRs has every workload report every
    /// end-to-end metric, never zero, each with a bound above zero. The
    /// metrics that can do that are the ones `BENCHMARK.json` lists; the
    /// others are printed, written to `--out` and gated by `--verify`.
    pub fn in_contract(&self) -> bool {
        self.emitted_by.len() == WORKLOADS.len() && self.bound > 0.0
    }
}

pub const WORKLOADS: [&str; 4] = ["meta_learn", "serve_read", "serve_mixed", "serve_sharded"];
const MIXED: &[&str] = &["serve_mixed"];
const META: &[&str] = &["meta_learn"];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    emitted_by: &'static [&'static str],
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        emitted_by,
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        emitted_by: &WORKLOADS,
        note,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, from the untraced run against the
/// released binary: the eleven names ISSUE 11 fixes. Bounds start at the
/// issue's 0.10 and are wider only where `BASELINE.json` records the
/// spread that forced it.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25, &WORKLOADS,
        "serve_*: spawn -> listening -> first correct answer (median of 9 fresh starts); meta_learn: dataset + task sampling + prepare_tasks (median of 31)"),
    e2e("throughput_rps", "1/s", Higher, 0.25, &WORKLOADS,
        "serve_*: ok responses / s over the closed loop; meta_learn: its train_tasks_per_s, the learner's unit of work"),
    e2e("latency_p50_us", "us", Lower, 0.25, &WORKLOADS,
        "serve_*: open-loop query latency from due time; meta_learn: meta-test time per target query, context forward included"),
    e2e("latency_p99_us", "us", Lower, 0.25, MIXED,
        "open-loop query tail from due time: the rebuild stall"),
    e2e("update_ack_p50_us", "us", Lower, 0.25, MIXED,
        "open-loop update frame, due -> ack; the ack follows the fsync"),
    e2e("recover_s", "s", Lower, 0.25, MIXED,
        "respawn after SIGKILL -> first probe answered, 200 WAL records replayed"),
    e2e("peak_rss_mb", "MiB", Lower, 0.25, &WORKLOADS,
        "serve_*: largest VmHWM of the server children of the timed phases (serve_mixed: recovery servers included); meta_learn: of the benchmark process"),
    e2e("train_tasks_per_s", "1/s", Higher, 0.25, META,
        "task-steps (30 tasks x epochs) / training wall time"),
    e2e("test_queries_per_s", "1/s", Higher, 0.25, META,
        "target queries predicted / s over the meta-test sweeps, context forward per task included"),
    e2e("test_f1", "ratio", Higher, 0.0, META,
        "macro F1 over the test queries; numerics guard, identical at a fixed seed"),
    e2e("fail_frac", "ratio", Lower, 0.0, &WORKLOADS,
        "failed, refused, timed-out or wrong operations / attempted; must be 0"),
];

/// Single layers, named `<crate>.<metric>`, from the traced run. A metric
/// a workload's path does not touch reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("client.sent", "count", Higher, "frames the generator sent in the traced phases"),
    layer("client.ok", "count", Higher, "ok responses in the traced phases"),
    layer("client.failed", "count", Lower, "failed, refused, timed-out or wrong responses"),
    layer("client.late_frac", "ratio", Lower, "open-loop sends more than 1 ms late; validity of latency_*"),
    layer("client.rtt_p50_us", "us", Lower, "closed-loop round trip; tracks throughput_rps"),
    layer("client.rtt_p99_us", "us", Lower, "closed-loop round-trip tail"),
    layer("client.open_p99_us", "us", Lower, "open-loop tail from due time; scheduler noise on serve_read, rebuild stall on serve_mixed"),
    layer("client.over_50ms_frac", "ratio", Lower, "open-loop frames slower than 50 ms; share caught by a rebuild on serve_mixed"),
    layer("gateway.admit_wait_p50_us", "us", Lower, "send -> engine call starts (read, frame, parse, queue) -> latency_p50_us, throughput_rps on serve_read"),
    layer("gateway.reply_p50_us", "us", Lower, "engine call ends -> client has the line -> latency_p50_us on serve_read"),
    layer("gateway.ticks", "count", Lower, "engine ticks in the child run -> throughput_rps"),
    layer("gateway.mean_tick_size", "count", Higher, "frames coalesced per tick -> throughput_rps"),
    layer("gateway.shed", "count", Lower, "requests shed at the queue bound; must stay 0"),
    layer("gateway.timed_out", "count", Lower, "requests expired in the queue; must stay 0"),
    layer("gateway.bad_requests", "count", Lower, "lines refused at the boundary; must stay 0"),
    layer("gateway.peak_buffered_bytes", "bytes", Lower, "response bytes buffered at peak -> peak_rss_mb"),
    layer("serve.parse_us", "us", Lower, "parse_frame per frame -> throughput_rps on serve_read"),
    layer("serve.to_json_us", "us", Lower, "QueryResponse::to_json per response -> throughput_rps on serve_read"),
    layer("serve.rank_us", "us", Lower, "rank_members (full sort) per query -> throughput_rps, latency_p50_us on serve_read"),
    layer("serve.answer_batch_us", "us", Lower, "session tick self time, context fetch excluded -> throughput_rps on serve_read"),
    layer("serve.cache_hit_ratio", "ratio", Higher, "prediction-LRU hits / lookups; ~0 on serve_read, >0 on serve_mixed"),
    layer("serve.context_build_us", "us", Lower, "one context rebuild -> throughput_rps and the open-loop tail on serve_mixed; no move on serve_read"),
    layer("serve.context_builds", "count", Lower, "context forwards computed; 1 on serve_read"),
    layer("serve.context_hits", "count", Higher, "context fetches served from the cache"),
    layer("serve.context_share", "ratio", Lower, "share of closed-loop round-trip time spent behind a context rebuild; largest on serve_mixed, <1% on serve_read"),
    layer("serve.apply_updates_us", "us", Lower, "session update tick (mutate + operator refresh) -> update_ack_p50_us"),
    layer("serve.wal_sync_us", "us", Lower, "durable wrapper minus inner engine on update ticks (append + fsync) -> update_ack_p50_us"),
    layer("serve.wal_appends", "count", Higher, "WAL records appended"),
    layer("serve.wal_bytes", "bytes", Lower, "WAL bytes appended"),
    layer("serve.snapshots", "count", Lower, "snapshots written"),
    layer("serve.snapshot_write_us", "us", Lower, "sync_durability: WAL sync + one snapshot -> setup_s, serve.update_ack_p50_us at the cadence"),
    layer("serve.recover_scan_us", "us", Lower, "scan of a 200-record durability directory -> recover_s"),
    layer("serve.session_build_us", "us", Lower, "ServeSession::from_checkpoint -> setup_s, recover_s"),
    layer("serve.update_ack_p50_us", "us", Lower, "update_ack_p50_us of the traced in-process run"),
    layer("serve.recover_s", "s", Lower, "scan + rebuild + replay of 200 WAL records, in process -> recover_s"),
    layer("shard.partition_us", "us", Lower, "partition_graph into 2 shards -> setup_s on serve_sharded"),
    layer("shard.session_build_us", "us", Lower, "ShardedSession::from_checkpoint -> setup_s on serve_sharded"),
    layer("shard.answer_batch_us", "us", Lower, "coordinator tick -> throughput_rps on serve_sharded only"),
    layer("shard.overhead_ratio", "ratio", Lower, "shard.answer_batch_us / unsharded session on the identical ticks"),
    layer("shard.edge_cut", "count", Lower, "edges cut by the 2-way partition -> halo size, peak_rss_mb"),
    layer("core.context_us", "us", Lower, "InferModel::context (f32, the served engine) at the serving shape -> serve.context_build_us"),
    layer("core.score_batch_us", "us", Lower, "infer::score_batch_with_threads, 8 queries -> serve.answer_batch_us"),
    layer("core.refresh_us", "us", Lower, "PreparedTask::refresh after one edge -> serve.apply_updates_us"),
    layer("core.prepare_task_us", "us", Lower, "PreparedTask::new per 150-node task -> setup_s on meta_learn"),
    layer("core.train_epoch_us", "us", Lower, "one epoch over 30 tasks incl. validation sweep -> train_tasks_per_s"),
    layer("core.forward_task_us", "us", Lower, "validation_loss_with_threads per task; epoch - forward = backward + Adam"),
    layer("core.predict_task_us", "us", Lower, "Cgnp::predict_task per test task -> test_queries_per_s, latency_p50_us on meta_learn"),
    layer("core.train_tasks_per_s", "1/s", Higher, "task-steps / s in the traced training run"),
    layer("core.test_queries_per_s", "1/s", Higher, "target queries predicted / s, context forward per task included"),
    layer("tensor.spmm_us", "us", Lower, "normalised adjacency (3200 rows) x 3200x64 -> serve_mixed; predicted no move on serve_read"),
    layer("tensor.matmul_us", "us", Lower, "3200x64 . 64x64 -> serve_mixed; predicted no move on serve_read"),
    layer("tensor.spmm_small_us", "us", Lower, "150-node task adjacency x 150x64 -> meta_learn"),
    layer("tensor.matmul_small_us", "us", Lower, "150x64 . 64x64 -> meta_learn"),
    layer("tensor.spmm_flops", "count", Lower, "2 x nnz x 64 at the serving shape, computed from sizes"),
    layer("tensor.spmm_bytes", "bytes", Lower, "CSR + dense in + dense out at the serving shape, computed from sizes"),
    layer("nn.graph_ctx_us", "us", Lower, "GraphContext::new on the serving graph -> setup_s, serve.apply_updates_us"),
    layer("graph.insert_edge_us", "us", Lower, "AttributedGraph::insert_edge -> serve.apply_updates_us"),
    layer("data.load_dataset_us", "us", Lower, "load_dataset(citeseer, full) -> setup_s"),
    layer("data.build_tasks_us", "us", Lower, "build_single_graph_tasks (50 tasks) -> setup_s on meta_learn"),
    layer("eval.checkpoint_save_us", "us", Lower, "save_with_arch -> training wall time"),
    layer("eval.checkpoint_load_us", "us", Lower, "load_checkpoint_file -> setup_s on serve_*"),
    layer("eval.test_f1", "ratio", Higher, "macro F1 over the test queries; numerics guard (oracle requires >= 0.6)"),
    layer("trace.overhead_frac", "ratio", Lower, "1 - traced / untraced closed-loop throughput on the same stream length"),
    layer("trace.accounted_frac", "ratio", Higher, "share of closed-loop round-trip time during which a recorded span was running; acceptance >= 0.9"),
    layer("trace.unaccounted_frac", "ratio", Lower, "round-trip time of requests no recorded tick answered"),
    layer("gateway.before_tick_frac", "ratio", Lower, "round-trip time with no span running, before the request's own tick: read, frame, parse, queue hand-off"),
    layer("gateway.after_tick_frac", "ratio", Lower, "round-trip time with no span running, after the request's own tick: serialise, route, write, client read"),
];

/// Requests sent, answered and failed in one phase.
#[derive(Clone, Debug)]
pub struct PhaseCount {
    pub name: String,
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
}

/// The result of one run of one workload.
#[derive(Clone, Debug)]
pub struct RunOutput {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Oracle misses and validity failures; any entry makes the run
    /// incorrect and the command exit non-zero.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Figures that help read the metrics but are not metrics themselves
    /// (send lateness, spawn -> listening, epochs trained).
    pub extras: Vec<(&'static str, f64, &'static str)>,
    pub phases: Vec<PhaseCount>,
}

impl RunOutput {
    pub fn new(workload: &'static str, traced: bool) -> Self {
        Self {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: BTreeMap::new(),
            extras: Vec::new(),
            phases: Vec::new(),
        }
    }

    pub fn catalogue(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            self.catalogue().iter().any(|m| m.name == name),
            "{name} is not in the catalogue"
        );
        if value.is_finite() {
            self.metrics.insert(name, value);
        } else {
            self.problems.push(format!("{name} is not a finite number"));
        }
    }

    pub fn count_phase(&mut self, name: &str, sent: u64, ok: u64, failed: u64) {
        self.attempted += sent;
        self.failed += failed;
        self.phases.push(PhaseCount {
            name: name.to_string(),
            sent,
            ok,
            failed,
        });
    }

    /// Checks an output condition: a miss is a failed operation.
    pub fn require(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// The metrics this run reports: the end-to-end ones its workload
    /// emits, or every per-layer one.
    pub fn reported(&self) -> impl Iterator<Item = &'static MetricDef> + '_ {
        self.catalogue()
            .iter()
            .filter(|m| m.emitted_on(self.workload))
    }

    /// Fills in `fail_frac`. Every end-to-end metric the workload emits
    /// must then be present, and non-zero unless zero is its target; a
    /// per-layer metric off the workload's path reads 0.
    pub fn finish(mut self) -> Self {
        self.attempted = self.attempted.max(1);
        if !self.traced {
            self.set("fail_frac", self.failed as f64 / self.attempted as f64);
            let missing: Vec<&str> = self
                .reported()
                .filter(|m| match self.metrics.get(m.name) {
                    Some(&v) => v <= 0.0 && m.name != "fail_frac",
                    None => true,
                })
                .map(|m| m.name)
                .collect();
            for name in missing {
                self.problems
                    .push(format!("end-to-end metric {name} was not measured"));
            }
        }
        self
    }

    /// The one-line result the harness reads, last line of stdout: the
    /// metrics `BENCHMARK.json` lists and no others.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<(&str, String)> = self
            .catalogue()
            .iter()
            .filter(|m| self.traced || m.in_contract())
            .map(|m| {
                (
                    m.name,
                    json_object(&[
                        ("value", json_number(self.value(m.name))),
                        ("unit", json_string(m.unit)),
                    ]),
                )
            })
            .collect();
        json_object(&[
            ("correct", self.correct().to_string()),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            ("metrics", json_object(&metrics)),
        ])
    }

    /// Everything, for `--out`.
    pub fn to_json(&self) -> String {
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| {
                json_object(&[
                    ("name", json_string(&p.name)),
                    ("sent", p.sent.to_string()),
                    ("ok", p.ok.to_string()),
                    ("failed", p.failed.to_string()),
                ])
            })
            .collect();
        let extras: Vec<(&str, String)> = self
            .extras
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name,
                    json_object(&[("value", json_number(value)), ("unit", json_string(unit))]),
                )
            })
            .collect();
        let problems: Vec<String> = self.problems.iter().map(|p| json_string(p)).collect();
        let metrics: Vec<(&str, String)> = self
            .reported()
            .map(|m| {
                (
                    m.name,
                    json_object(&[
                        ("value", json_number(self.value(m.name))),
                        ("unit", json_string(m.unit)),
                        ("better", json_string(m.better.as_str())),
                        ("bound", json_number(m.bound)),
                    ]),
                )
            })
            .collect();
        json_object(&[
            ("workload", json_string(self.workload)),
            ("traced", self.traced.to_string()),
            ("result", self.contract_line()),
            ("metrics", json_object(&metrics)),
            ("extras", json_object(&extras)),
            ("phases", json_array(&phases)),
            ("problems", json_array(&problems)),
        ])
    }

    /// Every metric by name, with unit, direction and regression bound.
    pub fn print_table(&self) {
        println!(
            "\n== {} ({}) ==",
            self.workload,
            if self.traced {
                "traced run, per-layer"
            } else {
                "untraced run against the released binary, end-to-end"
            }
        );
        for p in &self.phases {
            println!(
                "  phase {:<22} sent {:>7}  ok {:>7}  failed {:>3}",
                p.name, p.sent, p.ok, p.failed
            );
        }
        for m in self.reported() {
            let bound = if self.traced {
                String::new()
            } else {
                format!("  bound {:.2}", m.bound)
            };
            println!(
                "  {:<28} {:>16.4} {:<6} {:<6}{}  # {}",
                m.name,
                self.value(m.name),
                m.unit,
                m.better.as_str(),
                bound,
                m.note
            );
        }
        for &(name, value, unit) in &self.extras {
            println!("  {name:<28} {value:>16.4} {unit:<6} (not a metric)");
        }
        for p in &self.problems {
            println!("  PROBLEM: {p}");
        }
    }
}

// The vendored `serde_json` serialises strings, numbers and vectors, but
// has no dynamic value to build objects from; these join its pieces.

pub fn json_string(s: &str) -> String {
    serde_json::to_string(&s).expect("strings always serialise")
}

/// A float with all its digits (the shortest text that reads back to the
/// same bits); `null` when it is not finite.
pub fn json_number(v: f64) -> String {
    serde_json::to_string(&v).expect("numbers always serialise")
}

/// `pairs` are keys and already-serialised values.
pub fn json_object(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_string(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

pub fn json_array(items: &[String]) -> String {
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root is the contract; the
    /// catalogue here is what the binary emits. They must name the same
    /// metrics with the same units, directions and bounds.
    const CONTRACT: &str = include_str!("../../../../../BENCHMARK.json");

    fn entry(m: &MetricDef, bounded: bool) -> String {
        let bound = if bounded {
            format!(", \"bound\": {}", m.bound)
        } else {
            String::new()
        };
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name,
            m.unit,
            m.better.as_str()
        )
    }

    #[test]
    fn benchmark_json_and_the_catalogue_agree() {
        let gated: Vec<&MetricDef> = END_TO_END.iter().filter(|m| m.in_contract()).collect();
        for m in &gated {
            assert!(
                CONTRACT.contains(&entry(m, true)),
                "missing {}",
                entry(m, true)
            );
            assert!(m.bound <= 0.25);
        }
        for m in PER_LAYER {
            assert!(
                CONTRACT.contains(&entry(m, false)),
                "missing {}",
                entry(m, false)
            );
        }
        let named = CONTRACT.matches("{\"name\": ").count();
        assert_eq!(named, WORKLOADS.len() + gated.len() + PER_LAYER.len());
        for w in WORKLOADS {
            assert!(CONTRACT.contains(&format!("{{\"name\": \"{w}\", \"why\": ")));
        }
        assert!(gated.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128 && gated.len() <= 16);
    }

    #[test]
    fn the_eleven_issue_metrics_and_who_emits_them() {
        assert_eq!(END_TO_END.len(), 11);
        let on = |w: &str| END_TO_END.iter().filter(|m| m.emitted_on(w)).count();
        assert_eq!((on("meta_learn"), on("serve_read")), (8, 5));
        assert_eq!((on("serve_mixed"), on("serve_sharded")), (8, 5));
        // Zero-valued or fixed-seed metrics cannot go to the harness.
        assert!(!END_TO_END.iter().any(|m| m.in_contract() && m.bound == 0.0));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} used twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_the_contract_metrics() {
        let mut out = RunOutput::new("serve_mixed", false);
        for (i, m) in END_TO_END.iter().enumerate() {
            if m.emitted_on("serve_mixed") && m.name != "fail_frac" {
                out.set(m.name, 1.5 + i as f64);
            }
        }
        out.count_phase("closed", 10, 10, 0);
        out.require(true, || unreachable!());
        let out = out.finish();
        assert!(out.correct(), "{:?}", out.problems);
        let line = out.contract_line();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":11,\"failed\":0,\"metrics\":{"));
        for m in END_TO_END {
            let present = line.contains(&format!("\"{}\":{{\"value\":", m.name));
            assert_eq!(present, m.in_contract(), "{}", m.name);
        }
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        // `--out` carries every metric the workload emits.
        assert!(out.to_json().contains("\"recover_s\":{\"value\":"));
        assert!(!out.to_json().contains("\"test_f1\""));

        let mut unmeasured = RunOutput::new("serve_mixed", false);
        unmeasured.set("setup_s", 1.0);
        assert!(!unmeasured.finish().correct());

        let mut bad = RunOutput::new("serve_read", true);
        bad.require(false, || "oracle mismatch".to_string());
        let bad = bad.finish();
        assert!(!bad.correct());
        assert!(bad
            .contract_line()
            .starts_with("{\"correct\":false,\"attempted\":1,\"failed\":1,"));
        assert!(bad
            .contract_line()
            .contains("\"client.sent\":{\"value\":0,\"unit\":\"count\"}"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
    }
}
