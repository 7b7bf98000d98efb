//! Similarity-kernel benchmark: naive vs blocked GEMM (SIMD and scalar
//! micro-kernels) vs fused top-k, plus pool-vs-spawn dispatch overhead.
//!
//! Unlike the wall-clock microbenches, this target emits a machine-readable
//! artifact — `BENCH_kernels.json` — recording GFLOP/s and wall time for
//! every (kernel, n, d) configuration, so the perf trajectory of the
//! similarity hot path is tracked in-repo. The `blocked` rows use the
//! runtime-dispatched micro-kernel (AVX2 where available); the
//! `blocked_scalar` rows force the scalar reference kernel, so the pair is
//! the in-repo simd-vs-scalar comparison. The `blocked_f16` /
//! `blocked_int8` rows run the dequantize-fused kernels (pack at the
//! reduced precision + multiply, matching `blocked`'s repack-per-call
//! semantics) — the quantized-storage throughput comparison. The `par_pool`/`par_spawn` rows
//! run the same many-small-calls row sweep through the persistent
//! work-stealing pool and through per-call `thread::scope` spawning — the
//! dispatch-overhead comparison that motivated the pool. The JSON is
//! self-checked after writing: the run fails if it does not parse back or
//! if the naive / blocked / blocked_scalar entries are missing.
//!
//! Modes:
//! * default — 2k and 10k entities, dims 64/128/300 (dense kernels at 2k,
//!   all kernels at 10k/d=128);
//! * `--full` — adds a 30k-entity fused-only configuration (the dense
//!   output matrix alone would be 3.6 GB, which is exactly the point of
//!   the fused kernel);
//! * `ENTMATCHER_BENCH_QUICK=1` / `--test` / `--quick` — CI smoke: one
//!   tiny configuration, still exercising measurement, JSON write and
//!   self-check.
//!
//! Output path: `ENTMATCHER_KERNEL_BENCH_OUT` if set; otherwise
//! `BENCH_kernels.json` in the workspace root (quick mode defaults into
//! the temp dir so `cargo test` runs do not dirty the tree).

use entmatcher_linalg::parallel::{self, par_row_chunks_mut};
use entmatcher_linalg::{
    fused_topk, matmul_blocked, matmul_blocked_packed, matmul_blocked_with, matmul_naive, Matrix,
    PackedAny, Precision, SimdLevel,
};
use entmatcher_support::alloc::{self, CountingAlloc};
use entmatcher_support::json::{self, Json, Map, ToJson};
use entmatcher_support::rng::{Rng, SeedableRng, StdRng};
use std::hint::black_box;
use std::time::Instant;

// Backs the per-kernel measured heap column: the first repetition of every
// measurement runs under a counting-allocator scope.
#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// One measured configuration.
struct Entry {
    kernel: &'static str,
    m: usize,
    n: usize,
    d: usize,
    seconds: f64,
    gflops: f64,
    reps: u32,
    heap_peak_bytes: u64,
}

impl ToJson for Entry {
    fn to_json(&self) -> Json {
        let mut map = Map::new();
        map.insert("kernel", self.kernel);
        map.insert("m", self.m);
        map.insert("n", self.n);
        map.insert("d", self.d);
        map.insert("seconds", self.seconds);
        map.insert("gflops", self.gflops);
        map.insert("reps", self.reps);
        map.insert("heap_peak_bytes", self.heap_peak_bytes);
        Json::Obj(map)
    }
}

fn random_embeddings(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(n, d, |_, _| rng.gen::<f32>() - 0.5)
}

/// Times `body` with adaptive repetitions: at least one rep, and more
/// (up to `max_reps`) until the measurement exceeds ~0.3 s, so tiny
/// configurations are not noise-dominated while 10k+ ones run once.
/// The first repetition runs under a counting-allocator scope so every
/// entry also records its measured peak heap (the counting overhead on
/// that single rep is < 3% — see the memory bench's overhead row).
fn measure(tag: &str, max_reps: u32, mut body: impl FnMut()) -> (f64, u32, u64) {
    let mem_was = alloc::enabled();
    alloc::set_enabled(true);
    let start = Instant::now();
    let ((), heap_peak) = alloc::measure_peak(tag, &mut body);
    alloc::set_enabled(mem_was);
    let mut reps = 1u32;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if reps >= max_reps || elapsed > 0.3 {
            return (elapsed / reps as f64, reps, heap_peak);
        }
        body();
        reps += 1;
    }
}

fn bench_config(
    entries: &mut Vec<Entry>,
    n: usize,
    d: usize,
    dense: bool,
    fused_k: usize,
    max_reps: u32,
) {
    let a = random_embeddings(n, d, 0xA5);
    let b = random_embeddings(n, d, 0x5A);
    // One multiply + one add per (i, j, d) triple.
    let flops = 2.0 * (n as f64) * (n as f64) * (d as f64);
    if dense {
        let (secs, reps, heap_peak_bytes) = measure("naive", max_reps, || {
            black_box(matmul_naive(&a, &b).unwrap());
        });
        entries.push(Entry {
            kernel: "naive",
            m: n,
            n,
            d,
            seconds: secs,
            gflops: flops / secs / 1e9,
            reps,
            heap_peak_bytes,
        });
        eprintln!("kernels: naive   n={n} d={d}: {secs:.3}s ({:.2} GFLOP/s)", flops / secs / 1e9);
        let (secs, reps, heap_peak_bytes) = measure("blocked", max_reps, || {
            black_box(matmul_blocked(&a, &b).unwrap());
        });
        entries.push(Entry {
            kernel: "blocked",
            m: n,
            n,
            d,
            seconds: secs,
            gflops: flops / secs / 1e9,
            reps,
            heap_peak_bytes,
        });
        eprintln!("kernels: blocked n={n} d={d}: {secs:.3}s ({:.2} GFLOP/s)", flops / secs / 1e9);
        let (secs, reps, heap_peak_bytes) = measure("blocked_scalar", max_reps, || {
            black_box(matmul_blocked_with(&a, &b, SimdLevel::Scalar).unwrap());
        });
        entries.push(Entry {
            kernel: "blocked_scalar",
            m: n,
            n,
            d,
            seconds: secs,
            gflops: flops / secs / 1e9,
            reps,
            heap_peak_bytes,
        });
        eprintln!("kernels: blocked_scalar n={n} d={d}: {secs:.3}s ({:.2} GFLOP/s)", flops / secs / 1e9);
        // Dequantize-fused kernels: pack-at-precision + multiply per rep,
        // mirroring `blocked` (which also repacks B every call) so the
        // GFLOP/s columns are directly comparable. The gate requires these
        // to hold >= 0.6x the f32 blocked throughput.
        for (kernel, precision) in [
            ("blocked_f16", Precision::F16),
            ("blocked_int8", Precision::Int8),
        ] {
            let (secs, reps, heap_peak_bytes) = measure(kernel, max_reps, || {
                let packed = PackedAny::pack(&b, precision);
                black_box(matmul_blocked_packed(&a, &packed).unwrap());
            });
            entries.push(Entry {
                kernel,
                m: n,
                n,
                d,
                seconds: secs,
                gflops: flops / secs / 1e9,
                reps,
                heap_peak_bytes,
            });
            eprintln!(
                "kernels: {kernel} n={n} d={d}: {secs:.3}s ({:.2} GFLOP/s)",
                flops / secs / 1e9
            );
        }
    }
    let (secs, reps, heap_peak_bytes) = measure("fused_topk", max_reps, || {
        black_box(fused_topk(&a, &b, fused_k).unwrap());
    });
    entries.push(Entry {
        kernel: "fused_topk",
        m: n,
        n,
        d,
        seconds: secs,
        gflops: flops / secs / 1e9,
        reps,
        heap_peak_bytes,
    });
    eprintln!("kernels: fused   n={n} d={d} k={fused_k}: {secs:.3}s ({:.2} GFLOP/s)", flops / secs / 1e9);
}

/// The row sweep both dispatch strategies execute: one multiply and one
/// add per element — trivially cheap on purpose, so the measurement is
/// dominated by how the work gets onto threads, not by the work itself.
fn sweep_rows(chunk: &mut [f32]) {
    for v in chunk.iter_mut() {
        *v = *v * 0.999 + 1e-6;
    }
}

/// Measures `calls` back-to-back parallel row sweeps dispatched through
/// the persistent pool (`par_pool`) and through a fresh `thread::scope`
/// with static contiguous chunks per call (`par_spawn` — the strategy the
/// pool replaced).
fn bench_pool_vs_spawn(
    entries: &mut Vec<Entry>,
    rows: usize,
    cols: usize,
    calls: usize,
    max_reps: u32,
) {
    let mut m = random_embeddings(rows, cols, 0x77);
    let flops = 2.0 * (rows * cols * calls) as f64;
    let (secs, reps, heap_peak_bytes) = measure("par_pool", max_reps, || {
        for _ in 0..calls {
            par_row_chunks_mut(m.as_mut_slice(), cols, |_, chunk| sweep_rows(chunk));
        }
        black_box(&mut m);
    });
    entries.push(Entry {
        kernel: "par_pool",
        m: rows,
        n: calls,
        d: cols,
        seconds: secs,
        gflops: flops / secs / 1e9,
        reps,
        heap_peak_bytes,
    });
    eprintln!(
        "kernels: par_pool  rows={rows} d={cols} calls={calls}: {secs:.4}s ({:.2} GFLOP/s)",
        flops / secs / 1e9
    );

    let workers = parallel::workers();
    let chunk_rows = rows.div_ceil(workers).max(1);
    let (secs, reps, heap_peak_bytes) = measure("par_spawn", max_reps, || {
        for _ in 0..calls {
            let data = m.as_mut_slice();
            std::thread::scope(|scope| {
                for chunk in data.chunks_mut(chunk_rows * cols) {
                    scope.spawn(|| sweep_rows(chunk));
                }
            });
        }
        black_box(&mut m);
    });
    entries.push(Entry {
        kernel: "par_spawn",
        m: rows,
        n: calls,
        d: cols,
        seconds: secs,
        gflops: flops / secs / 1e9,
        reps,
        heap_peak_bytes,
    });
    eprintln!(
        "kernels: par_spawn rows={rows} d={cols} calls={calls}: {secs:.4}s ({:.2} GFLOP/s)",
        flops / secs / 1e9
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = std::env::var("ENTMATCHER_BENCH_QUICK").ok().as_deref() == Some("1")
        || args.iter().any(|a| a == "--test" || a == "--quick");
    let full = args.iter().any(|a| a == "--full");

    let out_path = std::env::var("ENTMATCHER_KERNEL_BENCH_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| {
            if quick {
                std::env::temp_dir().join("BENCH_kernels.json")
            } else {
                // cargo runs bench targets with CWD = package dir; the
                // canonical artifact lives in the workspace root.
                let root = std::env::var("CARGO_MANIFEST_DIR")
                    .map(|p| {
                        std::path::Path::new(&p)
                            .ancestors()
                            .nth(2)
                            .expect("workspace root")
                            .to_path_buf()
                    })
                    .unwrap_or_else(|_| std::path::PathBuf::from("."));
                root.join("BENCH_kernels.json")
            }
        });

    let mut entries = Vec::new();
    if quick {
        bench_config(&mut entries, 256, 64, true, 10, 3);
        bench_pool_vs_spawn(&mut entries, 64, 64, 20, 2);
    } else {
        bench_config(&mut entries, 2000, 64, true, 10, 5);
        bench_config(&mut entries, 2000, 128, true, 10, 5);
        bench_config(&mut entries, 2000, 300, true, 10, 5);
        // The acceptance configuration: 10k x 10k, d = 128.
        bench_config(&mut entries, 10_000, 128, true, 10, 2);
        // Dispatch overhead: many cheap parallel calls on a small matrix.
        bench_pool_vs_spawn(&mut entries, 512, 128, 200, 3);
        if full {
            // Dense would materialize a 30k x 30k (3.6 GB) matrix; only
            // the fused kernel runs at this scale.
            bench_config(&mut entries, 30_000, 128, false, 10, 1);
        }
    }

    let mut doc = Map::new();
    doc.insert("schema", "entmatcher/kernel-bench/v1");
    doc.insert(
        "note",
        "flops = 2*m*n*d per pass; fused_topk includes the top-k reduction",
    );
    doc.insert("threads", std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    doc.insert("pool_width", parallel::workers());
    doc.insert("simd", entmatcher_linalg::simd::active().name());
    doc.insert("quick", quick);
    doc.insert("entries", &entries);
    let text = Json::Obj(doc).pretty();
    std::fs::write(&out_path, &text).expect("write BENCH_kernels.json");

    // Self-check: the artifact must parse back and contain both dense
    // kernels (the perf comparison the repo tracks) with finite numbers.
    let parsed = json::Json::parse(&text).expect("BENCH_kernels.json must parse");
    let entries_json = parsed
        .get("entries")
        .and_then(|e| e.as_array())
        .expect("entries array");
    for kernel in [
        "naive",
        "blocked",
        "blocked_scalar",
        "blocked_f16",
        "blocked_int8",
        "par_pool",
        "par_spawn",
    ] {
        let found = entries_json.iter().any(|e| {
            e.get("kernel").and_then(|k| k.as_str()) == Some(kernel)
                && e.get("gflops")
                    .and_then(|g| g.as_f64())
                    .is_some_and(|g| g.is_finite() && g > 0.0)
        });
        assert!(found, "self-check: no valid '{kernel}' entry in artifact");
    }
    println!(
        "kernels bench: wrote {} ({} entries, self-check ok)",
        out_path.display(),
        entries_json.len()
    );
}
