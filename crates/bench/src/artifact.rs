//! The four committed perf artifacts — `BENCH_kernels.json`,
//! `BENCH_ann.json`, `BENCH_memory.json` and `BENCH_serve.json` — as typed
//! documents.
//!
//! This module is the one owner of their formats: each struct's fields are
//! the file's keys in the file's order, so the benches that write the files
//! and the [`crate::gate`] that reads them never name a key. It also holds
//! the rules the four artifact benches share: when a run is a quick smoke
//! ([`quick_mode`]), which directory its file goes to ([`out_dir`]), and
//! writing the file then parsing it back ([`write`]).

use entmatcher_linalg::{parallel, simd};
use entmatcher_support::impl_json_struct;
use entmatcher_support::json::{self, FromJson, ToJson};
use std::path::{Path, PathBuf};

/// A typed artifact document.
pub trait Artifact: ToJson + FromJson {
    /// Canonical file name, in the workspace root and in [`out_dir`].
    const FILE: &'static str;
    /// The `schema` field's value.
    const SCHEMA: &'static str;
    /// The `note` field's value: how the numbers are defined.
    const NOTE: &'static str;
}

/// Declares a public artifact struct whose fields, in order, are the file's
/// keys, and derives its JSON impls from the same field list.
macro_rules! artifact_struct {
    ($(#[$doc:meta])* $name:ident { $($(#[$fdoc:meta])* $field:ident: $ty:ty,)+ }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct $name {
            $($(#[$fdoc])* pub $field: $ty,)+
        }
        impl_json_struct!($name { $($field),+ });
    };
}

artifact_struct! {
    /// One measured kernel configuration of `BENCH_kernels.json`.
    KernelEntry {
        /// Kernel name (`blocked`, `blocked_int8`, `par_pool`, ...).
        kernel: String,
        /// Query rows.
        m: usize,
        /// Target rows (calls, for the dispatch rows).
        n: usize,
        /// Dimensionality.
        d: usize,
        /// Mean wall seconds per repetition.
        seconds: f64,
        /// `2·m·n·d / seconds`, in GFLOP/s.
        gflops: f64,
        /// Timed repetitions.
        reps: u32,
        /// Measured peak heap of the first repetition.
        heap_peak_bytes: u64,
    }
}

artifact_struct! {
    /// `BENCH_kernels.json`: similarity-kernel throughput.
    KernelBench {
        /// [`Artifact::SCHEMA`].
        schema: String,
        /// [`Artifact::NOTE`].
        note: String,
        /// Available parallelism of the host.
        threads: usize,
        /// Width of the worker pool the kernels ran on.
        pool_width: usize,
        /// Active SIMD level.
        simd: String,
        /// Whether this was a quick smoke run.
        quick: bool,
        /// One row per (kernel, configuration).
        entries: Vec<KernelEntry>,
    }
}

impl Artifact for KernelBench {
    const FILE: &'static str = "BENCH_kernels.json";
    const SCHEMA: &'static str = "entmatcher/kernel-bench/v1";
    const NOTE: &'static str = "flops = 2*m*n*d per pass; fused_topk includes the top-k reduction";
}

artifact_struct! {
    /// One probe width of the `BENCH_ann.json` sweep.
    AnnEntry {
        /// Lists probed per query.
        nprobe: usize,
        /// Fraction of the exact top-10 the probe found.
        recall_at_10: f64,
        /// Wall seconds of the probe over all queries.
        probe_seconds: f64,
        /// Wall seconds of the index build, charged to every row.
        train_seconds: f64,
        /// `exact_seconds / (train_seconds + probe_seconds)`.
        speedup: f64,
    }
}

artifact_struct! {
    /// `BENCH_ann.json`: IVF recall@10 against end-to-end speedup.
    AnnBench {
        /// [`Artifact::SCHEMA`].
        schema: String,
        /// [`Artifact::NOTE`].
        note: String,
        /// Entities per side.
        n: usize,
        /// Dimensionality.
        d: usize,
        /// Neighbours per query.
        k: usize,
        /// Inverted lists of the index.
        nlist: usize,
        /// Wall seconds of the exact oracle pass.
        exact_seconds: f64,
        /// Wall seconds of the index build.
        train_seconds: f64,
        /// Available parallelism of the host.
        threads: usize,
        /// Width of the worker pool.
        pool_width: usize,
        /// Active SIMD level.
        simd: String,
        /// Whether this was a quick smoke run.
        quick: bool,
        /// One row per probe width, in increasing `nprobe`.
        entries: Vec<AnnEntry>,
    }
}

impl Artifact for AnnBench {
    const FILE: &'static str = "BENCH_ann.json";
    const SCHEMA: &'static str = "entmatcher/ann-bench/v1";
    const NOTE: &'static str =
        "speedup = exact_seconds / (train_seconds + probe_seconds); oracle = fused_topk";
}

artifact_struct! {
    /// One (stage, n) row of `BENCH_memory.json`.
    MemoryEntry {
        /// Pipeline stage (`gemm`, `pack_int8`, ...).
        stage: String,
        /// Entities per side.
        n: usize,
        /// Dimensionality.
        d: usize,
        /// Measured peak live heap of the stage.
        heap_peak_bytes: u64,
        /// `heap_peak_bytes / n`.
        bytes_per_entity: f64,
        /// The byte estimate the execution reports model.
        modeled_bytes: u64,
        /// Wall seconds of the stage.
        seconds: f64,
    }
}

artifact_struct! {
    /// `BENCH_memory.json`: measured peak heap per pipeline stage.
    MemoryBench {
        /// [`Artifact::SCHEMA`].
        schema: String,
        /// [`Artifact::NOTE`].
        note: String,
        /// Dimensionality of every stage.
        dim: usize,
        /// Counting-allocator overhead on the blocked GEMM, in percent.
        alloc_overhead_pct: f64,
        /// Whether this was a quick smoke run.
        quick: bool,
        /// One row per (stage, n).
        entries: Vec<MemoryEntry>,
    }
}

impl Artifact for MemoryBench {
    const FILE: &'static str = "BENCH_memory.json";
    const SCHEMA: &'static str = "entmatcher/memory-bench/v1";
    const NOTE: &'static str = "heap_peak_bytes measured by the counting allocator per stage \
         scope; modeled_bytes is the aux_bytes-style estimate the reports use";
}

artifact_struct! {
    /// One connection mode of `BENCH_serve.json`.
    ServeMode {
        /// `fresh_conn` or `keepalive`.
        mode: String,
        /// Requests answered.
        requests: usize,
        /// Wall seconds of the whole load.
        wall_seconds: f64,
        /// `requests / wall_seconds`.
        qps: f64,
        /// Median client-seen latency, from the sorted samples.
        p50_ms: f64,
        /// 99th-percentile client-seen latency, from the sorted samples.
        p99_ms: f64,
        /// Mean batch size the answering passes ran at.
        mean_batch: f64,
        /// TCP connections the clients opened.
        conns_opened: u64,
        /// `requests / conns_opened`.
        requests_per_conn: f64,
    }
}

artifact_struct! {
    /// `BENCH_serve.json`: serving qps and latency over real HTTP.
    ServeBench {
        /// [`Artifact::SCHEMA`].
        schema: String,
        /// [`Artifact::NOTE`].
        note: String,
        /// Entities per side.
        n: usize,
        /// Dimensionality.
        d: usize,
        /// Neighbours per query.
        k: usize,
        /// Concurrent clients.
        clients: usize,
        /// Requests per mode, over all clients.
        requests_per_mode: usize,
        /// One row per connection mode.
        modes: Vec<ServeMode>,
        /// Available parallelism of the host.
        threads: usize,
        /// Width of the worker pool.
        pool_width: usize,
        /// Active SIMD level.
        simd: String,
        /// Whether this was a quick smoke run.
        quick: bool,
    }
}

impl Artifact for ServeBench {
    const FILE: &'static str = "BENCH_serve.json";
    const SCHEMA: &'static str = "entmatcher/serve-bench/v2";
    const NOTE: &'static str = "per-mode qps over full HTTP round trips at fixed concurrency; \
         p50/p99 from sorted samples; cache off; fresh_conn reconnects per request, keepalive \
         holds one socket per client";
}

/// The host fields `(threads, pool_width, simd)` of this process.
pub fn host() -> (usize, usize, String) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    (
        threads,
        parallel::workers(),
        simd::active().name().to_string(),
    )
}

/// Whether this bench run is a quick smoke: `ENTMATCHER_BENCH_QUICK=1`, or
/// `--test`/`--quick` on the command line (cargo passes `--test` when it
/// runs a bench target as a test).
pub fn quick_mode() -> bool {
    std::env::var("ENTMATCHER_BENCH_QUICK").ok().as_deref() == Some("1")
        || std::env::args()
            .skip(1)
            .any(|a| a == "--test" || a == "--quick")
}

/// The workspace root, where the committed baselines live.
pub fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(2)
        .expect("crates/bench is two levels deep")
        .to_path_buf()
}

/// Where an artifact bench writes its file: `ENTMATCHER_BENCH_OUT_DIR`
/// when set; otherwise a quick smoke writes to the temp dir, so test runs
/// leave the tree clean, and a full run replaces the baseline in the
/// workspace root.
pub fn out_dir(quick: bool) -> PathBuf {
    match std::env::var_os("ENTMATCHER_BENCH_OUT_DIR") {
        Some(dir) => PathBuf::from(dir),
        None if quick => std::env::temp_dir(),
        None => workspace_root(),
    }
}

/// Reads and parses `dir/`[`Artifact::FILE`].
pub fn read<A: Artifact>(dir: &Path) -> Result<A, String> {
    let path = dir.join(A::FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes `doc` pretty-printed into [`out_dir`] and parses the file back,
/// so a bench's self-check reads exactly what the gate will read.
pub fn write<A: Artifact>(doc: &A, quick: bool) -> (PathBuf, A) {
    let dir = out_dir(quick);
    let path = dir.join(A::FILE);
    std::fs::write(&path, doc.to_json().pretty())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    let back = read(&dir).unwrap_or_else(|e| panic!("artifact must parse back: {e}"));
    (path, back)
}
