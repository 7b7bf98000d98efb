//! Similarity-kernel benchmark: naive vs blocked GEMM (SIMD and scalar
//! micro-kernels) vs fused top-k, plus pool-vs-spawn dispatch overhead.
//!
//! Unlike the wall-clock microbenches, this target writes a ledger —
//! `BENCH_kernels.json` ([`Ledger`]) — recording GFLOP/s and wall time for
//! every (kernel, n, d) configuration, so the perf trajectory of the
//! similarity hot path is tracked in-repo. The `blocked` rows use the
//! runtime-dispatched micro-kernel (AVX2 where available); the
//! `blocked_scalar` rows force the scalar reference kernel, so the pair is
//! the in-repo simd-vs-scalar comparison. The `blocked_f16` /
//! `blocked_int8` rows run the dequantize-fused kernels (pack at the
//! reduced precision + multiply, matching `blocked`'s repack-per-call
//! semantics) — the quantized-storage throughput comparison. The
//! `fused_topk_row` / `fused_topk_row_f16` / `fused_topk_row_int8` rows
//! answer the same `n x n` top-k one query row per call against a target
//! packed once at that precision — the single-entity lookup that serving
//! and each IVF list probe run, on the one-row register block. The
//! `par_pool`/`par_spawn` rows run the same many-small-calls row sweep
//! through the persistent work-stealing pool and through per-call
//! `thread::scope` spawning — the dispatch-overhead comparison that
//! motivated the pool. The ledger is self-checked after writing: the run
//! fails if it does not parse back or if any kernel's GFLOP/s is missing.
//! The `bench_gate` binary gates the four `blocked*` kernels
//! (`entmatcher_bench::gate::kernels`).
//!
//! Modes:
//! * default — 2k and 10k entities, dims 64/128/300 (dense kernels at 2k,
//!   all kernels at 10k/d=128);
//! * `--full` — adds a 30k-entity fused-only configuration (the dense
//!   output matrix alone would be 3.6 GB, which is exactly the point of
//!   the fused kernel);
//! * quick ([`artifact::quick_mode`]) — CI smoke: one tiny configuration,
//!   still exercising measurement, JSON write and self-check.

use entmatcher_bench::artifact::{self, Ledger, Metric, Suite};
use entmatcher_linalg::parallel::{self, par_row_chunks_mut};
use entmatcher_linalg::{
    fused_topk, fused_topk_packed, matmul_blocked, matmul_blocked_packed, matmul_blocked_with,
    matmul_naive, Matrix, PackedAny, Precision, SimdLevel,
};
use entmatcher_support::alloc::{self, CountingAlloc};
use entmatcher_support::rng::{Rng, SeedableRng, StdRng};
use std::hint::black_box;
use std::time::Instant;

/// Neighbours per row of the fused top-k kernels.
const FUSED_K: usize = 10;

// Backs the per-kernel measured heap column: the first repetition of every
// measurement runs under a counting-allocator scope.
#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn random_embeddings(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(n, d, |_, _| rng.gen::<f32>() - 0.5)
}

/// Times `body` as one `m x n x d` pass of `kernel` (2·m·n·d flops) and
/// records its row. Repetitions are adaptive: at least one, and more (up
/// to `max_reps`) until the measurement exceeds ~0.3 s, so tiny
/// configurations are not noise-dominated while 10k+ ones run once. The
/// first repetition runs under a counting-allocator scope so every entry
/// also records its measured peak heap (the counting overhead on that
/// single rep is < 3% — see the memory bench's overhead record).
fn record(
    ledger: &mut Ledger,
    kernel: &str,
    (m, n, d): (usize, usize, usize),
    max_reps: u32,
    mut body: impl FnMut(),
) {
    let mem_was = alloc::enabled();
    alloc::set_enabled(true);
    let start = Instant::now();
    let ((), heap_peak_bytes) = alloc::measure_peak(&mut body);
    alloc::set_enabled(mem_was);
    let mut reps = 1u32;
    while reps < max_reps && start.elapsed().as_secs_f64() <= 0.3 {
        body();
        reps += 1;
    }
    let seconds = start.elapsed().as_secs_f64() / reps as f64;
    let gflops = 2.0 * (m * n * d) as f64 / seconds / 1e9;
    eprintln!("kernels: {kernel} m={m} n={n} d={d}: {seconds:.4}s ({gflops:.2} GFLOP/s)");
    for (metric, value) in [
        (Metric::M, m as f64),
        (Metric::Seconds, seconds),
        (Metric::Gflops, gflops),
        (Metric::Reps, reps.into()),
        (Metric::HeapPeakBytes, heap_peak_bytes as f64),
    ] {
        ledger.push(kernel, n, d, metric, value);
    }
}

fn bench_config(ledger: &mut Ledger, n: usize, d: usize, dense: bool, max_reps: u32) {
    let a = random_embeddings(n, d, 0xA5);
    let b = random_embeddings(n, d, 0x5A);
    let shape = (n, n, d);
    if dense {
        record(ledger, "naive", shape, max_reps, || {
            black_box(matmul_naive(&a, &b).unwrap());
        });
        record(ledger, "blocked", shape, max_reps, || {
            black_box(matmul_blocked(&a, &b).unwrap());
        });
        record(ledger, "blocked_scalar", shape, max_reps, || {
            black_box(matmul_blocked_with(&a, &b, SimdLevel::Scalar).unwrap());
        });
        // Dequantize-fused kernels: pack-at-precision + multiply per rep,
        // mirroring `blocked` (which also repacks B every call) so the
        // GFLOP/s columns are directly comparable. The gate requires these
        // to hold >= 0.6x the f32 blocked throughput.
        for (kernel, precision) in [
            ("blocked_f16", Precision::F16),
            ("blocked_int8", Precision::Int8),
        ] {
            record(ledger, kernel, shape, max_reps, || {
                let packed = PackedAny::pack(&b, precision);
                black_box(matmul_blocked_packed(&a, &packed).unwrap());
            });
        }
    }
    record(ledger, "fused_topk", shape, max_reps, || {
        black_box(fused_topk(&a, &b, FUSED_K).unwrap());
    });
    // The same top-k, one query row per call against a target packed once
    // (outside the timing, as a serving index is): the flops match the
    // batched row above, so the GFLOP/s columns compare directly.
    let queries: Vec<Matrix> = (0..n)
        .map(|i| a.select_rows(&[i]).expect("row in range"))
        .collect();
    for (kernel, precision) in [
        ("fused_topk_row", Precision::F32),
        ("fused_topk_row_f16", Precision::F16),
        ("fused_topk_row_int8", Precision::Int8),
    ] {
        let packed = PackedAny::pack(&b, precision);
        record(ledger, kernel, shape, max_reps, || {
            for q in &queries {
                black_box(fused_topk_packed(q, &packed, FUSED_K).unwrap());
            }
        });
    }
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
/// pool replaced). Rows record `m = rows`, `n = calls`, `d = cols`.
fn bench_pool_vs_spawn(ledger: &mut Ledger, rows: usize, cols: usize, calls: usize, max_reps: u32) {
    let mut m = random_embeddings(rows, cols, 0x77);
    record(ledger, "par_pool", (rows, calls, cols), max_reps, || {
        for _ in 0..calls {
            par_row_chunks_mut(m.as_mut_slice(), cols, |_, chunk| sweep_rows(chunk));
        }
        black_box(&mut m);
    });
    let chunk_rows = rows.div_ceil(parallel::workers()).max(1);
    record(ledger, "par_spawn", (rows, calls, cols), max_reps, || {
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
}

fn main() {
    let quick = artifact::quick_mode();
    let full = std::env::args().any(|a| a == "--full");

    let mut ledger = Ledger::new(Suite::Kernels, quick);
    if quick {
        bench_config(&mut ledger, 256, 64, true, 3);
        bench_pool_vs_spawn(&mut ledger, 64, 64, 20, 2);
    } else {
        bench_config(&mut ledger, 2000, 64, true, 5);
        bench_config(&mut ledger, 2000, 128, true, 5);
        bench_config(&mut ledger, 2000, 300, true, 5);
        // The acceptance configuration: 10k x 10k, d = 128.
        bench_config(&mut ledger, 10_000, 128, true, 2);
        // Dispatch overhead: many cheap parallel calls on a small matrix.
        bench_pool_vs_spawn(&mut ledger, 512, 128, 200, 3);
        if full {
            // Dense would materialize a 30k x 30k (3.6 GB) matrix; only
            // the fused kernel runs at this scale.
            bench_config(&mut ledger, 30_000, 128, false, 1);
        }
    }
    let (path, ledger) = ledger.write();

    // Self-check: every kernel (the perf comparisons the repo tracks) has
    // a finite positive throughput.
    for kernel in [
        "naive",
        "blocked",
        "blocked_scalar",
        "blocked_f16",
        "blocked_int8",
        "fused_topk",
        "fused_topk_row",
        "fused_topk_row_f16",
        "fused_topk_row_int8",
        "par_pool",
        "par_spawn",
    ] {
        let mut gflops = ledger.lookup(Metric::Gflops, Some(kernel));
        let found = gflops.any(|r| r.value.is_finite() && r.value > 0.0);
        assert!(
            found,
            "self-check: no valid '{kernel}' GFLOP/s in the ledger"
        );
    }
    println!(
        "kernels bench: wrote {} ({} records, self-check ok)",
        path.display(),
        ledger.records.len()
    );
}
