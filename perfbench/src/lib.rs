//! The repository benchmark.
//!
//! One command runs one workload in its own process and prints, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. An untraced run (`--trace 0`) reports the
//! [`END_TO_END`] metrics; a traced run (`--trace 1`) records spans from this
//! crate's own code around every layer call into a private telemetry
//! registry and reports the [`PER_LAYER`] metrics. See `README.md` in this
//! directory for why each workload exists and what every metric means.

pub mod dense;
pub mod host;
pub mod inputs;
pub mod serve;
pub mod stats;
pub mod stream;
pub mod tracing;

use entmatcher_support::json::{Json, Map};
use std::path::{Path, PathBuf};

/// End-to-end metrics `(name, unit)`, measured with tracing off. Every
/// untraced run reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("dinf_s", "s"),
    ("csls_s", "s"),
    ("rinf_s", "s"),
    ("rinf_wr_s", "s"),
    ("rinf_pb_s", "s"),
    ("sinkhorn_s", "s"),
    ("hungarian_s", "s"),
    ("smat_s", "s"),
    ("rl_s", "s"),
    ("f1_mean", "ratio"),
    ("heap_peak_mb", "MB"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("max_qps", "req/s"),
];

/// Per-layer metrics `(name, unit)` of the traced run. A layer the workload
/// never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // core::similarity + linalg::gemm
    ("similarity_s", "s"),
    ("similarity_heap_mb", "MB"),
    ("similarity_gflops", "GFLOP/s"),
    // core::score
    ("score.csls_s", "s"),
    ("score.csls_heap_mb", "MB"),
    ("score.rinf_s", "s"),
    ("score.rinf_heap_mb", "MB"),
    ("score.rinf_wr_s", "s"),
    ("score.rinf_wr_heap_mb", "MB"),
    ("score.rinf_pb_s", "s"),
    ("score.rinf_pb_heap_mb", "MB"),
    ("score.sinkhorn_s", "s"),
    ("score.sinkhorn_heap_mb", "MB"),
    // core::matching
    ("match.greedy_s", "s"),
    ("match.greedy_heap_mb", "MB"),
    ("match.hungarian_s", "s"),
    ("match.hungarian_heap_mb", "MB"),
    ("match.stable_s", "s"),
    ("match.stable_heap_mb", "MB"),
    ("match.rl_s", "s"),
    ("match.rl_heap_mb", "MB"),
    // core::streaming + linalg::fused
    ("stream.dinf_s", "s"),
    ("stream.dinf_heap_mb", "MB"),
    ("stream.csls_s", "s"),
    ("stream.csls_heap_mb", "MB"),
    ("fused.argmax_affine_s", "s"),
    ("fused.argmax_affine_heap_mb", "MB"),
    ("fused.topk_means_s", "s"),
    ("fused.topk_means_heap_mb", "MB"),
    ("fused.gflops", "GFLOP/s"),
    // core::ann + linalg::quant
    ("ann.train_s", "s"),
    ("ann.train_heap_mb", "MB"),
    ("ann.probe_ms", "ms"),
    ("ann.probe_heap_mb", "MB"),
    ("ann.recall_at_10", "ratio"),
    ("ann.posting_mb", "MB"),
    // core::serve
    ("serve.top_k_hit_ms", "ms"),
    ("serve.top_k_hit_heap_mb", "MB"),
    ("serve.top_k_miss_ms", "ms"),
    ("serve.top_k_miss_heap_mb", "MB"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.batch_size_mean", "rows"),
    // support::telemetry::expose + support::json, client side
    ("http.write_us", "us"),
    ("http.ttfb_ms", "ms"),
    ("http.read_us", "us"),
    ("json.parse_us", "us"),
    // support::pool
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
    // host
    ("host.calib_s", "s"),
    ("host.nproc", "count"),
    ("host.pool_width", "count"),
    ("host.simd", "level"),
    // self time per layer, per traced round
    ("self.similarity_s", "s"),
    ("self.score_s", "s"),
    ("self.match_s", "s"),
    ("self.stream_s", "s"),
    ("self.fused_s", "s"),
    ("self.normalize_s", "s"),
    ("self.ann_s", "s"),
    ("self.serve_s", "s"),
    ("self.http_s", "s"),
    ("self.json_s", "s"),
    // unattributed remainder of each traced operation
    ("unattributed.dinf_s", "s"),
    ("unattributed.csls_s", "s"),
    ("unattributed.rinf_s", "s"),
    ("unattributed.rinf_wr_s", "s"),
    ("unattributed.rinf_pb_s", "s"),
    ("unattributed.sinkhorn_s", "s"),
    ("unattributed.hungarian_s", "s"),
    ("unattributed.smat_s", "s"),
    ("unattributed.rl_s", "s"),
    ("unattributed.stream_dinf_s", "s"),
    ("unattributed.stream_csls_s", "s"),
    ("unattributed.request_ms", "ms"),
    // traced minus untraced, in the same process
    ("trace.overhead_pct", "%"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's main experiment: nine presets on an SRPRS-like pair.
    PaperDense,
    /// The paper's large-scale setting: streaming DInf/CSLS at 12k.
    LargeStream,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::PaperDense, Workload::LargeStream];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperDense => "paper-dense",
            Workload::LargeStream => "large-stream",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: `Full` is the benchmark; `Tiny` keeps every code path but
/// shrinks inputs so the smoke tests finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` is defined on.
    Full,
    /// Smoke-test sizes.
    Tiny,
}

/// One invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Directory for generated inputs and the exported trace.
    pub work_root: PathBuf,
}

/// Operation and check accounting shared by the workloads. An operation is
/// one call whose output is checked; it fails when the call errors or its
/// output is wrong. A check is any other correctness assertion.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Messages of failed operations and checks (first few kept).
    pub errors: Vec<String>,
    checks_failed: u64,
}

impl Checks {
    /// Records one operation with its verdict (`Err` = what was wrong).
    pub fn op(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = verdict {
            self.failed += 1;
            self.note(msg);
        }
    }

    /// Records a correctness check that is not itself an operation.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.checks_failed += 1;
            self.note(msg());
        }
    }

    fn note(&mut self, msg: String) {
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks_failed == 0
    }
}

/// Metric values in report order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    /// Sets `name` (replacing an earlier value).
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        if let Some(slot) = self.0.iter_mut().find(|(n, _, _)| n == name) {
            *slot = (name.to_owned(), value, unit.to_owned());
        } else {
            self.0.push((name.to_owned(), value, unit.to_owned()));
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// `(name, value, unit)` triples in report order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &str)> {
        self.0.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str()))
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation and check accounting.
    pub checks: Checks,
    /// Reported metrics (one of the two lists above).
    pub metrics: Metrics,
    /// `key=value` lines printed before the result (input digest, host).
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut metrics = Map::new();
        for (name, value, unit) in self.metrics.iter() {
            let mut m = Map::new();
            m.insert("value", value);
            m.insert("unit", unit);
            metrics.insert(name, Json::Obj(m));
        }
        let mut doc = Map::new();
        doc.insert("correct", self.checks.correct());
        doc.insert("attempted", self.checks.attempted);
        doc.insert("failed", self.checks.failed);
        doc.insert("metrics", Json::Obj(metrics));
        Json::Obj(doc).dump()
    }
}

/// A run that could not measure (input synthesis, set-up or I/O failed);
/// nothing is reported.
#[derive(Debug)]
pub struct Invalid(pub String);

/// Runs one workload. `Err` means the run could not measure and nothing may
/// be reported.
pub fn run(opts: &Options) -> Result<Outcome, Invalid> {
    let work = WorkDir::create(&opts.work_root, opts.workload, opts.seed)
        .map_err(|e| Invalid(format!("work dir: {e}")))?;
    // The traced run counts allocations throughout, so every layer call's
    // heap growth is exact; the untraced run counts only in its untimed
    // heap pass.
    entmatcher_support::alloc::set_enabled(opts.trace);
    let result = match opts.workload {
        Workload::PaperDense => dense::run(opts, &work),
        Workload::LargeStream => stream::run(opts, &work),
    };
    entmatcher_support::alloc::set_enabled(false);
    let mut out = result?;
    let fp = host::Fingerprint::detect();
    out.notes.push(fp.describe());
    let wanted = if opts.trace {
        fp.report(&mut out.metrics);
        PER_LAYER
    } else {
        END_TO_END
    };
    // Report exactly the wanted list, in its order.
    let mut ordered = Metrics::default();
    for (name, unit) in wanted {
        let value = match out.metrics.get(name) {
            Some(v) => v,
            // A layer the workload never calls reports 0.
            None if opts.trace => 0.0,
            None => {
                out.checks
                    .check(false, || format!("metric {name} was not measured"));
                0.0
            }
        };
        ordered.put(name, value, unit);
    }
    out.metrics = ordered;
    Ok(out)
}

/// The per-run directory for generated inputs, removed when dropped.
pub struct WorkDir {
    /// The run's own directory.
    pub path: PathBuf,
    /// Where the exported trace goes (kept after the run).
    pub trace_file: PathBuf,
}

impl WorkDir {
    fn create(root: &Path, workload: Workload, seed: u64) -> std::io::Result<WorkDir> {
        let path = root.join(format!("{}-{seed}-{}", workload.name(), std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir {
            trace_file: root.join(format!("trace-{}-{seed}.json", workload.name())),
            path,
        })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_operation_or_check_makes_the_result_incorrect() {
        let mut out = Outcome::default();
        out.checks.op(Ok(()));
        assert!(out.checks.correct());
        out.checks.op(Err("wrong".into()));
        out.checks.check(false, || "also wrong".into());
        assert!(!out.checks.correct());
        assert_eq!((out.checks.attempted, out.checks.failed), (2, 1));
        out.metrics.put("setup_s", 0.5, "s");
        assert_eq!(
            out.result_line(),
            r#"{"correct":false,"attempted":2,"failed":1,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("serve"), None);
    }
}
