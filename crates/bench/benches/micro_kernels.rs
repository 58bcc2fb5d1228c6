//! Criterion micro-benchmarks of what the end-to-end benchmark
//! (`cgnp-e2e`) has no metric for: each product kernel against its naive
//! reference (blocked, parallel and fast-math variants through the `*_in`
//! entry points), and what dispatching a parallel section costs — the
//! numbers `cgnp_tensor`'s `parallel.rs` cites for its work gate. Writes
//! `BENCH_kernels.json` at the workspace root.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cgnp_data::{generate_sbm, SbmConfig};
use cgnp_graph::Graph;
use cgnp_tensor::{CsrMatrix, KernelCtx, MathMode, Matrix};

fn bench_graph(n: usize, seed: u64) -> Graph {
    let mut cfg = SbmConfig::small_test();
    cfg.n = n;
    cfg.n_attrs = 0;
    generate_sbm(&cfg, &mut StdRng::seed_from_u64(seed))
        .graph()
        .clone()
}

/// Acceptance-target shapes for the optimised backend: naive reference vs
/// blocked single-thread vs blocked+parallel, on a 512×512×512 `matmul`
/// and a 10k-node CSR `spmm` at 64 feature columns.
fn kernel_backend_comparison(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(17);
    let pool = KernelCtx::threads(rayon::current_num_threads());
    let one = KernelCtx::threads(1);
    let fast = |ctx: KernelCtx| KernelCtx {
        mode: MathMode::Fast,
        ..ctx
    };

    // Dense matmul, 512^3.
    let a = Matrix::from_vec(
        512,
        512,
        (0..512 * 512)
            .map(|_| rng.gen_range(-1.0..1.0f32))
            .collect(),
    );
    let b = Matrix::from_vec(
        512,
        512,
        (0..512 * 512)
            .map(|_| rng.gen_range(-1.0..1.0f32))
            .collect(),
    );
    {
        let mut g = c.benchmark_group("matmul_512x512x512");
        g.bench_function("naive", |bch| {
            bch.iter(|| black_box(cgnp_tensor::reference::matmul(black_box(&a), &b)))
        });
        g.bench_function("blocked_1t", |bch| {
            bch.iter(|| black_box(a.matmul_in(black_box(&b), None, one)))
        });
        g.bench_function("parallel", |bch| {
            bch.iter(|| black_box(a.matmul_in(black_box(&b), None, pool)))
        });
        // Fast-math tier, recorded only when the feature is compiled so
        // the rows never silently report the exact fallback as "fast".
        // The workspace dtype is f32, so `fast_1t` isolates the serial
        // register-tiling win and `fast_f32` is the full serving-tier
        // configuration (fast kernels + f32 + the whole pool).
        if cgnp_tensor::fast_math_compiled() {
            g.bench_function("fast_1t", |bch| {
                bch.iter(|| black_box(a.matmul_in(black_box(&b), None, fast(one))))
            });
            g.bench_function("fast_f32", |bch| {
                bch.iter(|| black_box(a.matmul_in(black_box(&b), None, fast(pool))))
            });
        }
        g.finish();
    }

    // Sparse spmm: 10k-node graph operator × 64-column features.
    let g10k = bench_graph(10_000, 23);
    let op = cgnp_nn::gcn_normalised(&g10k);
    let x = Matrix::from_vec(
        g10k.n(),
        64,
        (0..g10k.n() * 64)
            .map(|_| rng.gen_range(-1.0..1.0f32))
            .collect(),
    );
    {
        let mut g = c.benchmark_group("spmm_10000n_64d");
        g.bench_function("naive", |bch| {
            bch.iter(|| black_box(cgnp_tensor::reference::spmm(black_box(&op), &x)))
        });
        g.bench_function("rows_1t", |bch| {
            bch.iter(|| black_box(op.spmm_in(black_box(&x), None, one)))
        });
        g.bench_function("parallel", |bch| {
            bch.iter(|| black_box(op.spmm_in(black_box(&x), None, pool)))
        });
        if cgnp_tensor::fast_math_compiled() {
            g.bench_function("fast_1t", |bch| {
                bch.iter(|| black_box(op.spmm_in(black_box(&x), None, fast(one))))
            });
            g.bench_function("fast_f32", |bch| {
                bch.iter(|| black_box(op.spmm_in(black_box(&x), None, fast(pool))))
            });
        }
        g.finish();
    }

    // Transpose-fused products at training-shaped sizes (backward pass).
    let big = Matrix::from_vec(
        1024,
        256,
        (0..1024 * 256)
            .map(|_| rng.gen_range(-1.0..1.0f32))
            .collect(),
    );
    let grad = Matrix::from_vec(
        1024,
        256,
        (0..1024 * 256)
            .map(|_| rng.gen_range(-1.0..1.0f32))
            .collect(),
    );
    {
        let mut g = c.benchmark_group("matmul_ta_1024x256x256");
        g.bench_function("naive", |bch| {
            bch.iter(|| black_box(cgnp_tensor::reference::matmul_ta(black_box(&big), &grad)))
        });
        g.bench_function("parallel", |bch| {
            bch.iter(|| black_box(big.matmul_ta_in(black_box(&grad), pool)))
        });
        g.finish();
    }
    {
        let mut g = c.benchmark_group("matmul_tb_1024x256x1024");
        g.bench_function("naive", |bch| {
            bch.iter(|| black_box(cgnp_tensor::reference::matmul_tb(black_box(&big), &grad)))
        });
        g.bench_function("parallel", |bch| {
            bch.iter(|| black_box(big.matmul_tb_in(black_box(&grad), pool)))
        });
        g.finish();
    }
}

/// Cost of *dispatching* a parallel section, measured with trivial job
/// bodies: the persistent work-stealing pool (a deque push + wakeup per
/// job) vs spawning scoped OS threads per section — what the pre-pool
/// vendored rayon did, and the overhead the old `PAR_MIN_WORK = 1<<18`
/// gate existed to amortise. The measured gap is the justification for
/// the lower threshold in `cgnp_tensor`'s `parallel` module.
fn dispatch_overhead(c: &mut Criterion) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let sink = AtomicUsize::new(0);
    let mut g = c.benchmark_group("parallel_dispatch_4jobs");
    // "naive" = per-section OS threads, so `speedup_vs_naive` records the
    // pool's dispatch advantage in BENCH_kernels.json.
    g.bench_function("naive", |bch| {
        bch.iter(|| {
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| sink.fetch_add(1, Ordering::Relaxed));
                }
            })
        })
    });
    g.bench_function("pool", |bch| {
        bch.iter(|| {
            rayon::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|_| {
                        sink.fetch_add(1, Ordering::Relaxed);
                    });
                }
            })
        })
    });
    g.finish();
}

/// Workloads *below* the old `1<<18` multiply-accumulate gate, which the
/// per-section-spawn backend kept serial unconditionally. With the
/// persistent pool the gate sits at `1<<16`, so the auto variants now
/// chunk across workers; the forced 4-chunk variants bound the dispatch
/// cost even on a single-core recording machine (where the auto path
/// resolves to one thread and these sections are pure overhead).
fn small_workload_comparison(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(29);
    // 96×64×32 = 196 608 MACs: under the old gate, over the new one.
    let a = Matrix::from_vec(
        96,
        64,
        (0..96 * 64).map(|_| rng.gen_range(-1.0..1.0f32)).collect(),
    );
    let b = Matrix::from_vec(
        64,
        32,
        (0..64 * 32).map(|_| rng.gen_range(-1.0..1.0f32)).collect(),
    );
    {
        let mut g = c.benchmark_group("small_matmul_96x64x32");
        g.bench_function("naive", |bch| {
            bch.iter(|| black_box(cgnp_tensor::reference::matmul(black_box(&a), &b)))
        });
        g.bench_function("auto", |bch| {
            bch.iter(|| black_box(a.matmul(black_box(&b))))
        });
        g.bench_function("forced_4t", |bch| {
            bch.iter(|| black_box(a.matmul_in(black_box(&b), None, KernelCtx::threads(4))))
        });
        g.finish();
    }

    // A sparse message-passing shape: 2000 ragged rows, ~6k non-zeros,
    // 16 feature columns → ≈96k MACs, well under the old gate.
    let mut trips = Vec::new();
    for r in 0..2000usize {
        for j in 0..(r % 7) {
            trips.push((
                r,
                (r * 31 + j * 17) % 500,
                ((r + j) % 13) as f32 * 0.1 - 0.6,
            ));
        }
    }
    let op = CsrMatrix::from_triplets(2000, 500, &trips);
    let x = Matrix::from_vec(
        500,
        16,
        (0..500 * 16).map(|_| rng.gen_range(-1.0..1.0f32)).collect(),
    );
    {
        let mut g = c.benchmark_group("small_spmm_2000x500_16d");
        g.bench_function("naive", |bch| {
            bch.iter(|| black_box(cgnp_tensor::reference::spmm(black_box(&op), &x)))
        });
        g.bench_function("auto", |bch| bch.iter(|| black_box(op.spmm(black_box(&x)))));
        g.bench_function("forced_4t", |bch| {
            bch.iter(|| black_box(op.spmm_in(black_box(&x), None, KernelCtx::threads(4))))
        });
        g.finish();
    }
}

/// Worker count a `(group, variant)` row actually ran with. Recorded
/// per row (schema v2) so a multi-core runner regenerating the baseline
/// no longer overwrites the single-thread rows' semantics with its own
/// core count, as the old top-level `threads` field did.
fn variant_threads(group: &str, variant: &str) -> usize {
    let pool = rayon::current_num_threads();
    // Fixed-fan-out dispatch comparison: both variants issue 4 jobs.
    if group.starts_with("parallel_dispatch") {
        return 4;
    }
    match variant {
        "naive" | "blocked_1t" | "rows_1t" | "fast_1t" => 1,
        "forced_4t" => 4,
        // parallel / fast_f32 / auto all run on the pool
        // (auto's `threads_for` is capped by the pool size).
        _ => pool,
    }
}

/// Writes `BENCH_kernels.json` at the workspace root: a machine-readable
/// baseline of the naive/blocked/parallel comparison for the perf
/// trajectory across PRs.
fn emit_kernel_baseline(c: &mut Criterion) {
    let results = c.results();
    let mut naive_ns: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    for r in results {
        if let Some((group, variant)) = r.name.rsplit_once('/') {
            if variant == "naive" {
                naive_ns.insert(group.to_string(), r.median_ns);
            }
        }
    }
    let mut entries = Vec::new();
    for r in results {
        let Some((group, variant)) = r.name.rsplit_once('/') else {
            continue;
        };
        // `null` (not NaN, which is invalid JSON) when the naive variant
        // did not run, e.g. under a `cargo bench -- <filter>`.
        let speedup = naive_ns
            .get(group)
            .map(|&n| format!("{:.3}", n / r.median_ns))
            .unwrap_or_else(|| "null".to_string());
        entries.push(format!(
            "    {{\"kernel\": \"{group}\", \"variant\": \"{variant}\", \
             \"threads\": {}, \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \
             \"speedup_vs_naive\": {speedup}}}",
            variant_threads(group, variant),
            r.median_ns,
            r.mean_ns
        ));
    }
    // `fast_math` tells the regression gate whether this run could have
    // produced fast-tier rows at all: a default build legitimately lacks
    // them, a fast-math build losing them is a vanished comparison.
    let json = format!(
        "{{\n  \"schema\": \"cgnp-kernel-baseline-v2\",\n  \
         \"pool_threads\": {},\n  \"fast_math\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        rayon::current_num_threads(),
        cgnp_tensor::fast_math_compiled(),
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("kernel baseline written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    // Acceptance shapes: the fast-math tier must give the dense hot
    // path real serial headroom, and the single-thread spmm row-chunk fix
    // must keep `rows_1t` at or above naive.
    let speedup = |group: &str, variant: &str| {
        let med = |v: &str| {
            results
                .iter()
                .find(|r| r.name == format!("{group}/{v}"))
                .map(|r| r.median_ns)
        };
        Some(med("naive")? / med(variant)?)
    };
    if let Some(s) = speedup("spmm_10000n_64d", "rows_1t") {
        let mark = if s >= 1.0 { "HOLDS " } else { "DIFFERS" };
        println!("  [{mark}] single-thread spmm ≥ naive — rows_1t at {s:.2}×");
    }
    if cgnp_tensor::fast_math_compiled() {
        if let Some(s) = speedup("matmul_512x512x512", "fast_1t") {
            let mark = if s >= 2.0 { "HOLDS " } else { "DIFFERS" };
            println!("  [{mark}] fast-math matmul ≥ 2× naive — fast_1t at {s:.2}×");
        }
    }
}

criterion_group!(
    benches,
    kernel_backend_comparison,
    dispatch_overhead,
    small_workload_comparison,
    emit_kernel_baseline
);
criterion_main!(benches);
