//! The four committed perf ledgers — `BENCH_kernels.json`,
//! `BENCH_ann.json`, `BENCH_memory.json` and `BENCH_serve.json` — as one
//! typed document, [`Ledger`]: a header (schema, suite, note, host, quick)
//! and a flat list of [`Record`]s `(case, n, d, metric, value)`.
//!
//! Metric names are declared once, in [`Metric`], so the benches that write
//! the files and the [`crate::gate`] that reads them never spell one. This
//! module also holds the rules the four benches share: which directory a
//! ledger goes to ([`out_dir`]: `ENTMATCHER_BENCH_OUT_DIR` when set, the temp
//! dir for a quick smoke, else the workspace root), and writing it then
//! parsing it back ([`Ledger::write`]).

use entmatcher_linalg::{parallel, simd};
use entmatcher_support::impl_json_struct;
use entmatcher_support::json::{self, FromJson, Json, JsonError, ToJson};
use std::path::{Path, PathBuf};

pub use entmatcher_support::bench::quick_mode;

/// Declares a unit enum whose JSON image is each variant's name string.
macro_rules! named_enum {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $variant:ident = $text:literal,)+ }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[$vdoc])* $variant,)+
        }
        impl $name {
            /// The name in the files.
            pub fn name(self) -> &'static str {
                match self {
                    $(Self::$variant => $text,)+
                }
            }
        }
        impl ToJson for $name {
            fn to_json(&self) -> Json {
                Json::Str(self.name().into())
            }
        }
        impl FromJson for $name {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v.as_str() {
                    $(Some($text) => Ok(Self::$variant),)+
                    _ => Err(JsonError::new(format!("unknown {} {v}", stringify!($name)))),
                }
            }
        }
    };
}

named_enum! {
    /// Which bench wrote a ledger; names its file `BENCH_<suite>.json`.
    Suite {
        /// Similarity-kernel throughput.
        Kernels = "kernels",
        /// IVF recall@10 against end-to-end speedup.
        Ann = "ann",
        /// Measured peak heap per pipeline stage.
        Memory = "memory",
        /// Serving qps and latency over real HTTP.
        Serve = "serve",
    }
}

impl Suite {
    /// The ledger's file name, in the workspace root and in [`out_dir`].
    pub fn file(self) -> String {
        format!("BENCH_{}.json", self.name())
    }

    /// How the suite's numbers are defined.
    pub fn note(self) -> &'static str {
        match self {
            Suite::Kernels => "flops = 2*m*n*d per pass; fused_topk includes the top-k reduction",
            Suite::Ann => {
                "speedup = exact seconds / (ivf_train seconds + nprobe=N seconds); \
                 oracle = fused_topk"
            }
            Suite::Memory => {
                "heap_peak_bytes measured by the counting allocator per stage scope; \
                 modeled_bytes is the aux_bytes-style estimate the reports use; \
                 alloc_overhead_pct is the counting cost on gemm"
            }
            Suite::Serve => {
                "per-mode qps over full HTTP round trips at fixed concurrency; p50/p99 \
                 from sorted samples; cache off; fresh_conn reconnects per request, \
                 keepalive holds one socket per client"
            }
        }
    }
}

named_enum! {
    /// What a record's value measures or configures.
    Metric {
        /// Query rows of a kernel pass (`n` is its target rows).
        M = "m",
        /// Timed repetitions.
        Reps = "reps",
        /// Wall seconds: per kernel repetition, else of the whole stage, pass or load.
        Seconds = "seconds",
        /// `2·m·n·d / seconds`, in GFLOP/s.
        Gflops = "gflops",
        /// Measured peak live heap, in bytes.
        HeapPeakBytes = "heap_peak_bytes",
        /// `heap_peak_bytes / n`.
        BytesPerEntity = "bytes_per_entity",
        /// The byte estimate the execution reports model.
        ModeledBytes = "modeled_bytes",
        /// Counting-allocator overhead, in percent.
        AllocOverheadPct = "alloc_overhead_pct",
        /// Neighbours per query.
        K = "k",
        /// Inverted lists of the IVF index.
        Nlist = "nlist",
        /// Fraction of the exact top-10 a probe width found.
        RecallAt10 = "recall_at_10",
        /// Exact seconds over IVF train plus probe seconds.
        Speedup = "speedup",
        /// Concurrent serving clients.
        Clients = "clients",
        /// Requests the clients send per connection mode.
        RequestsPerMode = "requests_per_mode",
        /// Requests answered.
        Requests = "requests",
        /// `requests / seconds`.
        Qps = "qps",
        /// Median client-seen latency, from the sorted samples.
        P50Ms = "p50_ms",
        /// 99th-percentile client-seen latency, from the sorted samples.
        P99Ms = "p99_ms",
        /// Mean batch size the answering passes ran at.
        MeanBatch = "mean_batch",
        /// TCP connections the clients opened.
        ConnsOpened = "conns_opened",
        /// `requests / conns_opened`.
        RequestsPerConn = "requests_per_conn",
    }
}

/// Declares a public struct whose fields, in order, are the file's keys,
/// and derives its JSON impls from the same field list.
macro_rules! json_struct {
    ($(#[$doc:meta])* $name:ident { $($(#[$fdoc:meta])* $field:ident: $ty:ty,)+ }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            $($(#[$fdoc])* pub $field: $ty,)+
        }
        impl_json_struct!($name { $($field),+ });
    };
}

json_struct! {
    /// The machine a ledger was recorded on.
    Host {
        /// Available parallelism.
        threads: usize,
        /// Width of the worker pool.
        pool_width: usize,
        /// Active SIMD level.
        simd: String,
    }
}

json_struct! {
    /// One value: `metric` of `case` at `n` entities (rows, calls) and `d`
    /// dimensions.
    Record {
        /// Kernel, stage, connection mode or probe width (`nprobe=4`).
        case: String,
        /// Entities per side, target rows, or calls.
        n: usize,
        /// Dimensionality.
        d: usize,
        /// What `value` is.
        metric: Metric,
        /// The value.
        value: f64,
    }
}

json_struct! {
    /// One `BENCH_<suite>.json` file.
    Ledger {
        /// [`Ledger::SCHEMA`].
        schema: String,
        /// The bench that wrote it.
        suite: Suite,
        /// [`Suite::note`].
        note: String,
        /// Where it ran.
        host: Host,
        /// Whether this was a quick smoke run.
        quick: bool,
        /// Every value, in the order the bench recorded them.
        records: Vec<Record>,
    }
}

impl Ledger {
    /// The `schema` field's value.
    pub const SCHEMA: &'static str = "entmatcher/ledger/v1";

    /// An empty ledger of `suite` for this process's host.
    pub fn new(suite: Suite, quick: bool) -> Ledger {
        let host = Host {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pool_width: parallel::workers(),
            simd: simd::active().name().to_string(),
        };
        Ledger {
            schema: Ledger::SCHEMA.into(),
            suite,
            note: suite.note().into(),
            host,
            quick,
            records: Vec::new(),
        }
    }

    /// Appends one record.
    pub fn push(&mut self, case: &str, n: usize, d: usize, metric: Metric, value: f64) {
        let case = case.to_string();
        self.records.push(Record {
            case,
            n,
            d,
            metric,
            value,
        });
    }

    /// The records of `metric`, only `case`'s when given, in file order.
    pub fn lookup<'a>(
        &'a self,
        metric: Metric,
        case: Option<&'a str>,
    ) -> impl Iterator<Item = &'a Record> + 'a {
        let wanted = move |r: &&Record| {
            r.metric == metric && (case.is_none() || case == Some(r.case.as_str()))
        };
        self.records.iter().filter(wanted)
    }

    /// The value of `case`'s first `metric` record.
    pub fn value(&self, metric: Metric, case: &str) -> Option<f64> {
        self.lookup(metric, Some(case)).next().map(|r| r.value)
    }

    /// The file text: the header pretty-printed, one record per line.
    pub fn to_text(&self) -> String {
        let lines: Vec<String> = self.records.iter().map(|r| r.to_json().dump()).collect();
        let records = format!("\"records\": [\n    {}\n  ]", lines.join(",\n    "));
        let header = Ledger {
            records: Vec::new(),
            ..self.clone()
        };
        let text = header.to_json().pretty();
        text.replacen("\"records\": []", &records, 1)
    }

    /// Reads and parses `dir/BENCH_<suite>.json`.
    pub fn read(dir: &Path, suite: Suite) -> Result<Ledger, String> {
        let path = dir.join(suite.file());
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Writes the ledger into [`out_dir`] and parses the file back, so a
    /// bench's self-check reads exactly what the gate will read.
    pub fn write(&self) -> (PathBuf, Ledger) {
        let dir = out_dir(self.quick);
        let path = dir.join(self.suite.file());
        std::fs::write(&path, self.to_text())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        let back = Ledger::read(&dir, self.suite)
            .unwrap_or_else(|e| panic!("ledger must parse back: {e}"));
        (path, back)
    }
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

/// Where a bench writes its ledger: `ENTMATCHER_BENCH_OUT_DIR` when set;
/// otherwise a quick smoke writes to the temp dir, so test runs leave the
/// tree clean, and a full run replaces the baseline in the workspace root.
pub fn out_dir(quick: bool) -> PathBuf {
    match std::env::var_os("ENTMATCHER_BENCH_OUT_DIR") {
        Some(dir) => PathBuf::from(dir),
        None if quick => std::env::temp_dir(),
        None => workspace_root(),
    }
}
