//! Measured-memory benchmark: per-stage peak heap, bytes/entity, and the
//! counting-allocator overhead — `BENCH_memory.json` ([`MemoryBench`]).
//!
//! Where the kernels bench tracks throughput, this target tracks the
//! *memory trajectory* of the pipeline stages the paper's Figure 5 /
//! Table 6 analyze: each stage runs once under a counting-allocator scope
//! ([`entmatcher_support::alloc`]) and records its measured peak live
//! heap next to the modeled byte estimate the `ExecutionReport` is built
//! from, normalized to bytes per entity so two scales are comparable. A
//! regression in bytes/entity means a stage started materializing
//! something new — the `bench_gate` binary (`entmatcher_bench::gate`)
//! fails any (stage, n) row more than `gate::TOLERANCE` (20%) above the
//! committed baseline.
//!
//! Stages, at each scale `n` (d = 64):
//! * `gemm`        — blocked similarity product (dense n x n output);
//! * `sinkhorn`    — Sinkhorn on an n x n score matrix (scaling form in
//!                   place: the input clone dominates; aux is u, v, the
//!                   column sums and one column partial per row block of
//!                   at most 64, so O(n));
//! * `rinf_wr`     — RInf-wr on an n x n score matrix (input + output
//!                   cells, no transposed copies);
//! * `csls_stream` — streaming CSLS over the fused cosine path (O(n)
//!                   state, the sub-quadratic contrast to the above);
//! * `ivf_train` / `ivf_probe` — IVF-flat index build and search;
//! * `pack_f32` / `pack_f16` / `pack_int8` — packed-operand footprint per
//!   storage precision (the bytes/entity rows behind the quantization
//!   claim: int8 must stay `gate::QUANT_RATIO_FLOOR` (3.5x) smaller than
//!   f32, gated);
//! * `stream_pack_int8` — out-of-core snapshot pack in 256-row chunks
//!   (aux above the packed output is O(chunk), not O(n)).
//!
//! The `alloc_overhead_pct` field times the blocked GEMM with counting
//! off vs on (best-of-reps); `--full` mode asserts it stays under 3%,
//! default mode only records it (CI machines are too noisy for a hard
//! floor).
//!
//! Modes: default — n = 2000 and 5000; `--full` — adds n = 10000 and the
//! overhead assertion; quick ([`artifact::quick_mode`]) — one tiny scale.
//! Output: `BENCH_memory.json` in `ENTMATCHER_BENCH_OUT_DIR` when set, else
//! in the workspace root, or the temp dir for a quick run
//! ([`artifact::out_dir`]).

use entmatcher_bench::artifact::{self, Artifact, MemoryBench, MemoryEntry};
use entmatcher_core::score::rinf::RInf;
use entmatcher_core::score::sinkhorn::Sinkhorn;
use entmatcher_core::score::ScoreOptimizer;
use entmatcher_core::similarity::SimilarityMetric;
use entmatcher_core::streaming::{streaming_aux_bytes, streaming_csls};
use entmatcher_core::{IvfIndex, IvfParams};
use entmatcher_linalg::{
    matmul_blocked, pack_snapshot_stream, snapshot, Matrix, PackedAny, Precision,
};
use entmatcher_support::alloc::{self, CountingAlloc};
use entmatcher_support::rng::{Rng, SeedableRng, StdRng};
use std::hint::black_box;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const DIM: usize = 64;

fn random_embeddings(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(n, d, |_, _| rng.gen::<f32>() - 0.5)
}

/// Runs one stage body under a counting scope and records its row.
fn stage(
    entries: &mut Vec<MemoryEntry>,
    name: &'static str,
    n: usize,
    modeled_bytes: u64,
    body: impl FnOnce(),
) {
    alloc::set_enabled(true);
    let start = Instant::now();
    let ((), heap_peak_bytes) = alloc::measure_peak(body);
    let seconds = start.elapsed().as_secs_f64();
    alloc::set_enabled(false);
    let bytes_per_entity = heap_peak_bytes as f64 / n as f64;
    eprintln!(
        "memory: {name:<12} n={n}: peak {:.1} MB ({bytes_per_entity:.0} B/entity, \
         modeled {:.1} MB) in {seconds:.2}s",
        heap_peak_bytes as f64 / 1e6,
        modeled_bytes as f64 / 1e6,
    );
    entries.push(MemoryEntry {
        stage: name.to_string(),
        n,
        d: DIM,
        heap_peak_bytes,
        bytes_per_entity,
        modeled_bytes,
        seconds,
    });
}

fn bench_scale(entries: &mut Vec<MemoryEntry>, n: usize) {
    let a = random_embeddings(n, DIM, 0xC1);
    let b = random_embeddings(n, DIM, 0xC2);
    let cell = (n * n * 4) as u64;

    // Dense similarity product: output cell + packed operand strips.
    stage(entries, "gemm", n, cell + (2 * n * DIM * 4) as u64, || {
        black_box(matmul_blocked(&a, &b).unwrap());
    });

    // The score-optimizer stages own their input (the pipeline moves the
    // score matrix in), so the clone is part of each stage's footprint.
    let scores = random_embeddings(n, n, 0xC3);
    let sinkhorn = Sinkhorn {
        iterations: 20,
        ..Sinkhorn::default()
    };
    stage(
        entries,
        "sinkhorn",
        n,
        cell + sinkhorn.aux_bytes(n, n) as u64,
        || {
            black_box(sinkhorn.apply(scores.clone()));
        },
    );
    let rinf_wr = RInf::without_ranking();
    stage(
        entries,
        "rinf_wr",
        n,
        2 * cell + rinf_wr.aux_bytes(n, n) as u64,
        || {
            black_box(rinf_wr.apply(scores.clone()));
        },
    );
    drop(scores);

    // Streaming CSLS (fused cosine path): normalized copies + O(n) state.
    let stream_model = streaming_aux_bytes(n, n, 10, 1024, DIM) as u64 + (2 * n * DIM * 4) as u64;
    stage(entries, "csls_stream", n, stream_model, || {
        black_box(streaming_csls(&a, &b, SimilarityMetric::Cosine, 10, 1024));
    });

    // IVF-flat: train (packed lists + k-means scratch), then probe.
    let params = IvfParams::default();
    let nlist = ((n as f64).sqrt().round() as usize).max(1);
    let build_model = (2 * n * DIM * 4 + n * nlist * 4 + n * 8 + nlist * DIM * 8) as u64;
    let mut index = None;
    stage(entries, "ivf_train", n, build_model, || {
        index = Some(IvfIndex::build(&b, &params));
    });
    let index = index.expect("ivf_train ran");
    let probe_model = (n * (10 * 16 + nlist * 8)) as u64;
    stage(entries, "ivf_probe", n, probe_model, || {
        black_box(index.search(&a, 10, index.default_nprobe()));
    });
    drop(index);

    // Packed-operand footprint per storage precision. The modeled bytes
    // are the exact packed payload; the measured peak adds only the strip
    // scratch, so bytes/entity tracks ~4d / ~2d / ~(d+4) directly.
    let mut int8_packed_bytes = 0u64;
    for (name, precision) in [
        ("pack_f32", Precision::F32),
        ("pack_f16", Precision::F16),
        ("pack_int8", Precision::Int8),
    ] {
        let modeled = PackedAny::pack(&b, precision).packed_bytes() as u64;
        if precision == Precision::Int8 {
            int8_packed_bytes = modeled;
        }
        stage(entries, name, n, modeled, || {
            black_box(PackedAny::pack(&b, precision));
        });
    }

    // Out-of-core pack: the snapshot is streamed in fixed-size row chunks,
    // so the peak is the packed output plus O(chunk) read/quantize scratch
    // — never the full f32 matrix.
    let chunk = 256usize;
    let snap = std::env::temp_dir().join(format!("entmatcher_bench_snap_{n}.emtx"));
    std::fs::write(&snap, snapshot::to_bytes(&b)).expect("write bench snapshot");
    let stream_model = int8_packed_bytes + (chunk * DIM * 4) as u64;
    stage(entries, "stream_pack_int8", n, stream_model, || {
        black_box(pack_snapshot_stream(&snap, Precision::Int8, chunk).unwrap());
    });
    let _ = std::fs::remove_file(&snap);
}

/// Counting-allocator overhead on the blocked GEMM: best-of-`reps` time
/// with counting off vs on, as a percentage (negative = noise). The two
/// configurations are interleaved rep by rep so clock/cache drift hits
/// both equally instead of biasing whichever runs second.
fn gemm_overhead_pct(n: usize, reps: u32) -> f64 {
    let a = random_embeddings(n, DIM, 0xD1);
    let b = random_embeddings(n, DIM, 0xD2);
    let one = |counting: bool| -> f64 {
        alloc::set_enabled(counting);
        let start = Instant::now();
        // Under a scope, so the counting path exercises attribution
        // too — the configuration ENTMATCHER_MEM runs actually pay.
        let scope = alloc::HeapScope::open();
        black_box(matmul_blocked(&a, &b).unwrap());
        scope.finish();
        let secs = start.elapsed().as_secs_f64();
        alloc::set_enabled(false);
        secs
    };
    one(false); // warm-up: page in the operands and the code path
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        off = off.min(one(false));
        on = on.min(one(true));
    }
    (on - off) / off * 100.0
}

fn main() {
    let quick = artifact::quick_mode();
    let full = std::env::args().any(|a| a == "--full");

    let mut entries = Vec::new();
    let overhead_pct = if quick {
        bench_scale(&mut entries, 400);
        gemm_overhead_pct(400, 2)
    } else {
        bench_scale(&mut entries, 2000);
        bench_scale(&mut entries, 5000);
        if full {
            bench_scale(&mut entries, 10_000);
        }
        gemm_overhead_pct(2000, 7)
    };
    eprintln!("memory: counting-allocator overhead on blocked GEMM: {overhead_pct:.2}%");
    if full {
        assert!(
            overhead_pct < 3.0,
            "counting-allocator overhead {overhead_pct:.2}% breaches the 3% budget"
        );
    }

    let doc = MemoryBench {
        schema: MemoryBench::SCHEMA.into(),
        note: MemoryBench::NOTE.into(),
        dim: DIM,
        alloc_overhead_pct: overhead_pct,
        quick,
        entries,
    };
    let (path, doc) = artifact::write(&doc, quick);

    // Self-check: every stage present with a positive measured peak, and
    // the GEMM peak covers at least its output matrix.
    for stage in [
        "gemm",
        "sinkhorn",
        "rinf_wr",
        "csls_stream",
        "ivf_train",
        "ivf_probe",
        "pack_f32",
        "pack_f16",
        "pack_int8",
        "stream_pack_int8",
    ] {
        assert!(
            doc.entries
                .iter()
                .any(|e| e.stage == stage && e.heap_peak_bytes > 0),
            "self-check: no measured '{stage}' row in artifact"
        );
    }
    for e in doc.entries.iter().filter(|e| e.stage == "gemm") {
        assert!(
            e.heap_peak_bytes >= (e.n * e.n * 4) as u64,
            "self-check: gemm peak {} below its own output matrix",
            e.heap_peak_bytes
        );
    }
    println!(
        "memory bench: wrote {} ({} entries, overhead {:.2}%, self-check ok)",
        path.display(),
        doc.entries.len(),
        overhead_pct
    );
}
