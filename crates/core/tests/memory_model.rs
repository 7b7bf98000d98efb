//! Model-vs-measured memory cross-check: every pipeline stage's modeled
//! `aux_bytes` estimate is validated against the counting allocator's
//! *measured* peak live heap (`entmatcher_support::alloc`).
//!
//! The envelopes are deliberately loose (small-n runs carry allocator
//! headers, `Vec` growth slack, and per-call bookkeeping the models
//! ignore) but directional claims are pinned hard: in-place stages must
//! measure far below the matrix they operate on, streaming stages must
//! measure linear in `n` rather than quadratic, and the full-RInf
//! transposed copies must actually show up on the heap.
//!
//! Every measurement forces `ENTMATCHER_THREADS=1` (set before the global
//! pool is first touched, so it is built at width 1 and the serial fast
//! path keeps all stage allocations on the measuring thread) and
//! serializes on one lock — the counting switch is process-global.

use entmatcher_core::matching::greedy::Greedy;
use entmatcher_core::matching::hungarian::Hungarian;
use entmatcher_core::matching::{MatchContext, Matcher};
use entmatcher_core::pipeline::MatchPipeline;
use entmatcher_core::score::csls::Csls;
use entmatcher_core::score::rinf::RInf;
use entmatcher_core::score::sinkhorn::Sinkhorn;
use entmatcher_core::score::ScoreOptimizer;
use entmatcher_core::similarity::SimilarityMetric;
use entmatcher_core::streaming::{streaming_aux_bytes, streaming_csls};
use entmatcher_core::IvfIndex;
use entmatcher_core::IvfParams;
use entmatcher_linalg::{matmul_blocked, Matrix, PackedAny, Precision};
use entmatcher_support::alloc::{self, CountingAlloc};
use entmatcher_support::rng::{Rng, SeedableRng, StdRng};
use std::hint::black_box;
use std::sync::Mutex;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Loose additive slack every envelope carries: allocator headers, `Vec`
/// doubling, telemetry bookkeeping.
const SLACK: u64 = 256 << 10;

fn locked() -> std::sync::MutexGuard<'static, ()> {
    // Before any stage can touch the global pool: width 1 keeps every
    // stage allocation on this thread, where the measuring scope is open.
    std::env::set_var("ENTMATCHER_THREADS", "1");
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Measured peak live heap of `f`, in bytes.
fn measured<T>(f: impl FnOnce() -> T) -> u64 {
    alloc::set_enabled(true);
    let (out, peak) = alloc::measure_peak(f);
    alloc::set_enabled(false);
    black_box(out);
    peak
}

fn random_embeddings(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(n, d, |_, _| rng.gen::<f32>() - 0.5)
}

/// Blocked GEMM: measured peak covers the result matrix plus packing
/// buffers, and nothing quadratically worse.
#[test]
fn gemm_measured_peak_within_envelope() {
    let _lock = locked();
    let a = random_embeddings(256, 64, 1);
    let b = random_embeddings(320, 64, 2);
    let out_bytes = (a.rows() * b.rows() * 4) as u64;
    let peak = measured(|| matmul_blocked(&a, &b).unwrap());
    assert!(
        peak >= out_bytes,
        "the result matrix alone is {out_bytes} B; measured only {peak}"
    );
    // Result + packed strips of both operands, generously doubled.
    let model = out_bytes + 2 * ((a.rows() + b.rows()) * a.cols() * 4) as u64;
    assert!(
        peak <= 2 * model + SLACK,
        "measured {peak} B blows the modeled GEMM envelope {model} B"
    );
}

/// Sinkhorn runs in place: its measured auxiliary peak is the column-sum
/// vectors, orders of magnitude below the matrix it normalizes.
#[test]
fn sinkhorn_measured_aux_is_in_place() {
    let _lock = locked();
    let n = 400usize;
    let scores = random_embeddings(n, n, 3);
    let matrix_bytes = (n * n * 4) as u64;
    let opt = Sinkhorn::default();
    let model = opt.aux_bytes(n, n) as u64;
    // The score matrix is allocated *before* the scope opens, so the scope
    // sees only the stage's true auxiliary allocations.
    let peak = measured(|| opt.apply(scores));
    assert!(peak > 0, "the column-sum vector must be visible");
    assert!(
        peak <= 8 * model + 128 << 10,
        "Sinkhorn modeled {model} B aux; measured {peak} B"
    );
    assert!(
        peak < matrix_bytes / 4,
        "in-place Sinkhorn measured {peak} B against a {matrix_bytes} B matrix"
    );
}

/// The Hungarian solver's measured peak stays inside its O(n + m) model
/// for square, wide and tall inputs: tall ones are read in place, with no
/// transposed copy of the matrix.
#[test]
fn hungarian_measured_aux_is_linear_for_every_shape() {
    let _lock = locked();
    for (n_s, n_t) in [(600, 600), (600, 900), (900, 600)] {
        let scores = random_embeddings(n_s, n_t, 5);
        let matrix_bytes = (n_s * n_t * 4) as u64;
        let model = Hungarian.aux_bytes(n_s, n_t) as u64;
        let peak = measured(|| {
            Hungarian.run(&scores, &MatchContext::default())
        });
        assert!(
            peak <= model,
            "{n_s}x{n_t}: modeled {model} B aux; measured {peak} B"
        );
        assert!(
            peak < matrix_bytes / 16,
            "{n_s}x{n_t}: measured {peak} B against a {matrix_bytes} B matrix"
        );
    }
}

/// Full RInf materializes transposed/rank copies (~4 extra cells); the
/// without-ranking variant allocates only the output cell plus O(n) max
/// vectors. The counting allocator must see exactly that asymmetry.
#[test]
fn rinf_variants_measured_against_their_models() {
    let _lock = locked();
    let n = 300usize;
    let cell = (n * n * 4) as u64;
    let run = |opt: RInf| {
        let scores = random_embeddings(n, n, 4);
        measured(|| opt.apply(scores))
    };
    let full = run(RInf::default());
    let wr = run(RInf::without_ranking());
    // wr: one output cell + O(n) vectors (model says (n_s+n_t)*4 aux).
    let wr_model = cell + RInf::without_ranking().aux_bytes(n, n) as u64;
    assert!(wr >= cell, "RInf-wr must allocate its output: {wr} B");
    assert!(
        wr <= 2 * wr_model + SLACK,
        "RInf-wr modeled {wr_model} B; measured {wr} B"
    );
    // Full RInf: output + >= 2 simultaneously-live extra cells on top.
    assert!(
        full >= 3 * cell,
        "full RInf's rank copies must be measurable: {full} B vs cell {cell} B"
    );
    assert!(
        wr * 2 < full,
        "RInf-wr ({wr} B) must measure well below full RInf ({full} B)"
    );
}

/// Streaming CSLS measured peak tracks `streaming_aux_bytes` and — the
/// scalability claim — grows linearly in `n`, not quadratically.
#[test]
fn streaming_csls_measured_linear_in_n() {
    let _lock = locked();
    let (d, k, block) = (32usize, 5usize, 128usize);
    let run = |n: usize, seed: u64| {
        let s = random_embeddings(n, d, seed);
        let t = random_embeddings(n, d, seed + 1);
        // Distance metric: the strip-at-a-time path whose footprint
        // streaming_aux_bytes models directly.
        measured(|| {
            streaming_csls(&s, &t, SimilarityMetric::Euclidean, k, block)
        })
    };
    let p1 = run(256, 5);
    let p2 = run(512, 7);
    let model = streaming_aux_bytes(512, 512, k, block, d) as u64;
    assert!(
        p2 >= (block * 512 * 4) as u64,
        "one similarity strip must be measurable: {p2} B"
    );
    assert!(
        p2 <= 3 * model + SLACK,
        "streaming CSLS modeled {model} B; measured {p2} B"
    );
    // Doubling n must not quadruple the peak: the strip, heaps, and
    // per-source state are all linear (a dense pass would scale 4x).
    assert!(
        p2 < 3 * p1,
        "peak must scale linearly: n=256 -> {p1} B, n=512 -> {p2} B"
    );
    let dense = (512u64 * 512 * 4) * 2; // corrected + raw matrices
    assert!(
        p2 < dense,
        "streaming CSLS ({p2} B) must undercut the dense footprint ({dense} B)"
    );
}

/// IVF train + probe: the index (packed posting lists + centroids) and
/// the k-means scratch dominate training; probing stays far below any
/// dense score matrix.
#[test]
fn ivf_train_and_probe_within_envelope() {
    let _lock = locked();
    let (n, d) = (2000usize, 32usize);
    let t = random_embeddings(n, d, 8);
    let params = IvfParams {
        nlist: 32,
        nprobe: 8,
        train_iters: 4,
        seed: 9,
        ..IvfParams::default()
    };
    alloc::set_enabled(true);
    let (index, build_peak) =
        alloc::measure_peak(|| IvfIndex::build(&t, &params));
    alloc::set_enabled(false);
    // Packed members (~n*d*4 twice: select_rows copy + packed strips),
    // k-means assignment scratch (n*nlist*4), ids and centroid copies.
    let build_model =
        (2 * n * d * 4 + n * params.nlist * 4 + n * 8 + params.nlist * d * 8) as u64;
    assert!(
        build_peak >= (n * d * 4) as u64,
        "packed posting lists must be measurable: {build_peak} B"
    );
    assert!(
        build_peak <= 4 * build_model + SLACK,
        "IVF build modeled {build_model} B; measured {build_peak} B"
    );

    let queries = random_embeddings(500, d, 10);
    let probe_peak = measured(|| {
        black_box(index.search(&queries, 10, params.nprobe))
    });
    let dense = (queries.rows() * n * 4) as u64;
    assert!(probe_peak > 0);
    assert!(
        probe_peak < dense / 4,
        "probing ({probe_peak} B) must stay far below a dense score pass ({dense} B)"
    );
    assert!(
        probe_peak < build_peak,
        "probe ({probe_peak} B) must be cheaper than training ({build_peak} B)"
    );
}

/// Quantized packing: the measured peak of a one-shot pack is the packed
/// buffer plus bounded transients, and the int8 pack really does measure
/// ~4x below the f32 pack of the same operand. The row count is not a
/// multiple of the strip height, so a pack that copied the matrix into
/// the builder's tail carry would show up on the f32 peak.
#[test]
fn quantized_pack_measured_peak_shrinks_with_element_width() {
    let _lock = locked();
    let (n, d) = (4093usize, 64usize);
    let t = random_embeddings(n, d, 21);
    let run = |precision: Precision| {
        alloc::set_enabled(true);
        let (packed, peak) = alloc::measure_peak(|| PackedAny::pack(&t, precision));
        alloc::set_enabled(false);
        let bytes = packed.packed_bytes() as u64;
        black_box(packed);
        (bytes, peak)
    };
    let (f32_bytes, f32_peak) = run(Precision::F32);
    let (i8_bytes, i8_peak) = run(Precision::Int8);
    // Each pack's peak covers its own buffer and little more.
    assert!(f32_peak >= f32_bytes, "packed f32 buffer must be measurable");
    assert!(i8_peak >= i8_bytes, "packed int8 buffer must be measurable");
    assert!(
        f32_peak <= f32_bytes + SLACK,
        "f32 pack measured {f32_peak} B for a {f32_bytes} B buffer"
    );
    assert!(
        i8_peak <= 2 * i8_bytes + SLACK,
        "int8 pack measured {i8_peak} B for a {i8_bytes} B buffer"
    );
    // The headline claim: int8 storage is >= 3.5x smaller, measured.
    assert!(
        i8_peak * 7 <= f32_peak * 2 + 7 * SLACK,
        "int8 pack peak {i8_peak} B not ~1/3.5 of f32 peak {f32_peak} B"
    );
}

/// Out-of-core streaming: packing a snapshot through
/// `pack_snapshot_stream` with a small chunk size must peak at the packed
/// buffer plus O(chunk) transients — NOT the full f32 matrix the one-shot
/// path materializes. This is the aux-memory-independent-of-snapshot-size
/// property of the streaming loader.
#[test]
fn snapshot_stream_pack_peaks_at_chunk_not_matrix() {
    use entmatcher_linalg::{pack_snapshot_stream, snapshot};

    let _lock = locked();
    let (n, d, chunk) = (8192usize, 64usize, 256usize);
    let t = random_embeddings(n, d, 22);
    let matrix_bytes = (n * d * 4) as u64;
    let dir = std::env::temp_dir().join(format!("entmatcher-memmodel-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream.emb");
    std::fs::write(&path, snapshot::to_bytes(&t)).unwrap();
    drop(t);

    alloc::set_enabled(true);
    let (packed, peak) = alloc::measure_peak(|| {
        pack_snapshot_stream(&path, Precision::Int8, chunk).unwrap()
    });
    alloc::set_enabled(false);
    let packed_bytes = packed.packed_bytes() as u64;
    black_box(packed);
    let _ = std::fs::remove_dir_all(&dir);

    assert!(peak >= packed_bytes, "packed operand must be measurable");
    // Envelope: final packed buffer + chunk transients (f32 chunk matrix,
    // read buffer) with slack. The full f32 matrix (~2 MiB here) must NOT
    // appear: the packed int8 buffer is ~1/4 of it, so peaking below
    // matrix_bytes/2 proves the streamed path never materialized it.
    let chunk_bytes = (chunk * d * 4) as u64;
    assert!(
        peak <= packed_bytes + 4 * chunk_bytes + SLACK,
        "stream pack measured {peak} B for packed {packed_bytes} B + chunk {chunk_bytes} B"
    );
    assert!(
        peak < matrix_bytes / 2,
        "stream pack peak {peak} B should undercut the {matrix_bytes} B f32 matrix"
    );
}

/// A snapshot header that lies about its shape allocates only the bytes
/// that arrive: a 40-byte stream declaring 1 x 2^26 columns (a 256 MiB
/// payload) is a `CorruptSnapshot` with a peak far below the claim.
#[test]
fn lying_snapshot_header_allocates_only_what_arrives() {
    use entmatcher_linalg::snapshot::{self, SnapshotReader};
    use entmatcher_linalg::LinalgError;

    let _lock = locked();
    let mut raw = snapshot::to_bytes(&Matrix::zeros(1, 4));
    raw[16..24].copy_from_slice(&(1u64 << 26).to_le_bytes());
    assert_eq!(raw.len(), 40);
    let mut reader = SnapshotReader::from_reader(std::io::Cursor::new(raw)).unwrap();
    assert_eq!((reader.rows(), reader.cols()), (1, 1 << 26));
    let mut chunk = None;
    let peak = measured(|| chunk = Some(reader.next_chunk(1)));
    assert!(
        matches!(chunk, Some(Err(LinalgError::CorruptSnapshot(_)))),
        "expected CorruptSnapshot, got {chunk:?}"
    );
    assert!(peak < 1 << 20, "a 40-byte stream peaked at {peak} B");
}

/// End-to-end: `ExecutionReport::measured_heap_peak_bytes` is populated
/// from the pipeline span, covers the score matrix, sits inside the
/// modeled `peak_aux_bytes` envelope, and agrees with the exported trace.
#[test]
fn pipeline_report_measures_heap_within_modeled_envelope() {
    use entmatcher_data::{clustered_embeddings, EmbeddingSpec};
    use entmatcher_support::telemetry;

    let _lock = locked();
    let pair = clustered_embeddings(&EmbeddingSpec {
        entities: 300,
        dim: 32,
        clusters: 12,
        spread: 0.25,
        noise: 0.05,
        seed: 11,
    });
    let p = MatchPipeline::new(
        SimilarityMetric::Cosine,
        Box::new(Csls::default()),
        Box::new(Greedy),
    );

    // Counting off: the measured field must stay zero.
    alloc::set_enabled(false);
    let cold = p.execute(&pair.source, &pair.target, &MatchContext::default());
    assert_eq!(cold.measured_heap_peak_bytes, 0);

    telemetry::reset();
    telemetry::set_enabled(true);
    alloc::set_enabled(true);
    let r = p.execute(&pair.source, &pair.target, &MatchContext::default());
    alloc::set_enabled(false);
    telemetry::set_enabled(false);
    let trace = telemetry::snapshot();
    telemetry::reset();

    let sim_bytes = (pair.source.rows() * pair.target.rows() * 4) as u64;
    let measured = r.measured_heap_peak_bytes;
    assert!(
        measured >= sim_bytes,
        "the score matrix ({sim_bytes} B) is allocated inside the pipeline \
         span; measured only {measured} B"
    );
    // Envelope: modeled peak + the normalized embedding copies the model
    // excludes, with generous multiplicative slack for transients.
    let copies = ((pair.source.rows() + pair.target.rows()) * pair.source.cols() * 4) as u64;
    let envelope = 4 * (r.peak_aux_bytes as u64 + copies) + (1 << 20);
    assert!(
        measured <= envelope,
        "measured {measured} B blows the modeled envelope {envelope} B \
         (peak_aux_bytes {})",
        r.peak_aux_bytes
    );

    // The trace tells the same story: the pipeline span's recorded peak is
    // at least what the report captured (the report reads the scope just
    // before the span closes), and the similarity stage saw the matrix.
    let pipeline_span = trace
        .spans_named("pipeline")
        .find(|sp| sp.duration_ns == r.elapsed.as_nanos() as u64)
        .expect("pipeline span recorded");
    assert!(pipeline_span.heap_live_peak >= measured);
    let sim_span = trace
        .spans_named("similarity")
        .find(|sp| sp.parent == Some(pipeline_span.id))
        .expect("similarity span under pipeline");
    assert!(
        sim_span.heap_allocated >= sim_bytes,
        "similarity span must be charged for the score matrix: {} B",
        sim_span.heap_allocated
    );
}
