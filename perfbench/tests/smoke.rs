//! Tiny-size smoke of every workload in both modes: each run must pass its
//! own output checks and report exactly the metrics `BENCHMARK.json` lists,
//! with the units it lists.

use entmatcher_support::alloc::CountingAlloc;
use entmatcher_support::json::Json;
use perfbench::{Options, Outcome, Scale, Workload};
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// Workloads toggle process-wide telemetry and allocation counting.
static SERIAL: Mutex<()> = Mutex::new(());

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: Workload, trace: bool) -> Outcome {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let opts = Options {
        workload,
        seed: 3,
        seconds: 0.2,
        trace,
        scale: Scale::Tiny,
        work_root: std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
    };
    perfbench::run(&opts).expect("a tiny run is valid")
}

fn assert_reports(out: &Outcome, list: &str) {
    assert!(
        out.checks.correct(),
        "checks failed: {:?}",
        out.checks.errors
    );
    assert!(out.checks.attempted > 0);
    let reported: Vec<(String, String)> = out
        .metrics
        .iter()
        .map(|(n, _, u)| (n.to_owned(), u.to_owned()))
        .collect();
    assert_eq!(reported, listed(&benchmark_json(), list));
    // The result line is one JSON object with exactly the four keys.
    let line = Json::parse(&out.result_line()).expect("result line parses");
    let keys: Vec<&str> = line
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k)
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
}

#[test]
fn paper_dense_reports_every_end_to_end_metric() {
    let out = run(Workload::PaperDense, false);
    assert_reports(&out, "end_to_end");
    assert!(
        out.metrics.iter().all(|(_, v, _)| v > 0.0),
        "an end-to-end metric is 0"
    );
}

#[test]
fn paper_dense_traced_reports_every_per_layer_metric() {
    let out = run(Workload::PaperDense, true);
    assert_reports(&out, "per_layer");
    let m = &out.metrics;
    assert!(m.get("similarity_s").unwrap() > 0.0);
    assert!(m.get("match.hungarian_s").unwrap() > 0.0);
    // paper-dense never reaches streaming, serving or the IVF index.
    assert_eq!(m.get("stream.csls_s"), Some(0.0));
    assert_eq!(m.get("serve.top_k_miss_ms"), Some(0.0));
    assert_eq!(m.get("ann.probe_ms"), Some(0.0));
}

#[test]
fn large_stream_reports_every_end_to_end_metric() {
    let out = run(Workload::LargeStream, false);
    assert_reports(&out, "end_to_end");
    assert!(
        out.metrics.iter().all(|(_, v, _)| v > 0.0),
        "an end-to-end metric is 0"
    );
}

#[test]
fn large_stream_traced_reports_every_per_layer_metric() {
    let out = run(Workload::LargeStream, true);
    assert_reports(&out, "per_layer");
    let m = &out.metrics;
    for name in [
        "stream.csls_s",
        "fused.topk_means_s",
        "fused.gflops",
        "serve.top_k_miss_ms",
        "http.ttfb_ms",
        "json.parse_us",
        "ann.probe_ms",
        "ann.recall_at_10",
        "self.serve_s",
        "unattributed.request_ms",
    ] {
        assert!(m.get(name).unwrap() > 0.0, "{name} was not measured");
    }
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "paper-dense", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "paper-dense",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
