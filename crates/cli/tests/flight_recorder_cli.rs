//! End-to-end flight-recorder tests against the real `entmatcher` binary:
//! live metrics scraped over HTTP while a command runs, Chrome trace
//! export selected by environment, and the folded `--profile` and
//! `--mem-profile` files. Each test
//! spawns a child process, so environment variables and the global
//! telemetry registry never race with other tests in this process.

use entmatcher_support::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_entmatcher");

/// Generates a tiny dataset and name embeddings in-process (neither step
/// touches the flight-recorder flags) and returns (data, embeddings).
fn setup(tag: &str) -> (PathBuf, PathBuf, PathBuf) {
    let root = std::env::temp_dir().join(format!(
        "entmatcher-recorder-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let data = root.join("data");
    let emb = root.join("emb");
    let run = |parts: &[&str]| {
        let argv: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        entmatcher_cli::run(&argv).unwrap()
    };
    run(&[
        "generate",
        "--preset",
        "S-W",
        "--scale",
        "0.02",
        "--out",
        data.to_str().unwrap(),
    ]);
    run(&[
        "encode",
        "--data",
        data.to_str().unwrap(),
        "--encoder",
        "name",
        "--out",
        emb.to_str().unwrap(),
    ]);
    (root, data, emb)
}

fn match_args(data: &std::path::Path, emb: &std::path::Path, out: &std::path::Path) -> Vec<String> {
    [
        "match",
        "--data",
        data.to_str().unwrap(),
        "--embeddings",
        emb.to_str().unwrap(),
        "--algorithm",
        "csls",
        "--out",
        out.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// One HTTP GET against the child's metrics server.
fn http_get(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics server");
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

#[test]
fn metrics_flag_serves_scrapable_prometheus_endpoint() {
    let (root, data, emb) = setup("metrics");
    let pairs = root.join("pairs.tsv");
    let mut child = Command::new(BIN)
        .args(match_args(&data, &emb, &pairs))
        .args(["--metrics", "127.0.0.1:0"])
        // Linger keeps the server scrapable after the (fast) command.
        .env("ENTMATCHER_METRICS_LINGER_MS", "4000")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn entmatcher");

    // The bound address is announced on stderr before the command runs.
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut addr = None;
    let mut line = String::new();
    while stderr.read_line(&mut line).unwrap() > 0 {
        if let Some(rest) = line.trim().strip_prefix("metrics: serving http://") {
            addr = Some(rest.trim_end_matches("/metrics").to_string());
            break;
        }
        line.clear();
    }
    let addr = addr.expect("metrics address line on stderr");

    // Poll /metrics until the command's counters land in a published
    // snapshot (the publisher re-renders every 250 ms).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut body;
    loop {
        body = http_get(&addr, "/metrics");
        if body.contains("entmatcher_csls_neighborhoods_total")
            || std::time::Instant::now() > deadline
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(body.starts_with("HTTP/1.1 200 OK"), "response: {body}");
    assert!(
        body.contains("text/plain; version=0.0.4"),
        "wrong content type: {body}"
    );
    assert!(body.contains("entmatcher_up 1"), "missing up gauge: {body}");
    assert!(
        body.contains("entmatcher_csls_neighborhoods_total"),
        "missing csls counter: {body}"
    );
    assert!(body.contains("entmatcher_span_seconds_total{span=\"pipeline\"}"));
    // RSS is a process gauge: exported even without ENTMATCHER_MEM.
    assert!(
        body.contains("entmatcher_rss_bytes"),
        "missing RSS gauge: {body}"
    );
    // Counting is off in this run, so the heap gauges must be absent.
    assert!(
        !body.contains("entmatcher_heap_live_bytes"),
        "heap gauges must require ENTMATCHER_MEM: {body}"
    );
    let health = http_get(&addr, "/healthz");
    assert!(health.starts_with("HTTP/1.1 200 OK"));
    assert!(health.ends_with("ok\n"));

    let status = child.wait().expect("child exits after linger");
    assert!(status.success(), "entmatcher --metrics run failed");
    assert!(pairs.exists(), "match output missing");
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn trace_format_env_switches_export_to_chrome() {
    let (root, data, emb) = setup("chrome-env");
    let pairs = root.join("pairs.tsv");
    let trace = root.join("trace.json");
    let output = Command::new(BIN)
        .args(match_args(&data, &emb, &pairs))
        .args(["--trace", trace.to_str().unwrap()])
        .env("ENTMATCHER_TRACE_FORMAT", "chrome")
        .output()
        .expect("spawn entmatcher");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    let doc = Json::parse(&std::fs::read_to_string(&trace).unwrap())
        .expect("chrome trace must be valid JSON");
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    let pipeline = events
        .iter()
        .find(|e| e["ph"] == "X" && e["name"] == "pipeline")
        .expect("pipeline complete event");
    assert!(pipeline["tid"].as_f64().unwrap() >= 1.0, "thread lane missing");
    assert!(events
        .iter()
        .any(|e| e["ph"] == "X" && e["name"] == "similarity"));
    std::fs::remove_dir_all(&root).unwrap();
}

/// A whitespace-only `ENTMATCHER_TRACE` is off, like unset: the run
/// writes no trace file into its working directory, and the env dump
/// agrees that the switch is disabled.
#[test]
fn whitespace_only_trace_switch_is_off() {
    let dir = std::env::temp_dir().join(format!(
        "entmatcher-recorder-blank-trace-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let output = Command::new(BIN)
        .arg("help")
        .current_dir(&dir)
        .env("ENTMATCHER_TRACE", " ")
        .env("ENTMATCHER_ENV_DUMP", "1")
        .output()
        .expect("spawn entmatcher");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "stderr: {stderr}");
    let written: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(written.is_empty(), "blank switch wrote {written:?}");
    assert!(
        stderr.contains("ENTMATCHER_TRACE=\" \" (disabled)"),
        "stderr: {stderr}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `ENTMATCHER_TRACE=<path>` writes the command's trace to that path,
/// alone and next to `--trace FILE`; with both, the two files name the
/// same spans.
#[test]
fn trace_switch_path_exports_the_command_trace() {
    let (root, data, emb) = setup("env-trace");
    let run = |tag: &str, extra: &[&str]| {
        let dump = root.join(format!("{tag}-dump.json"));
        let output = Command::new(BIN)
            .args(match_args(&data, &emb, &root.join(format!("{tag}.tsv"))))
            .args(extra)
            .env("ENTMATCHER_TRACE", &dump)
            .env_remove("ENTMATCHER_TRACE_FORMAT")
            .output()
            .expect("spawn entmatcher");
        assert!(
            output.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        dump
    };
    let span_names = |path: &std::path::Path| -> Vec<String> {
        let text = std::fs::read_to_string(path).expect("trace written");
        let trace: entmatcher_support::telemetry::Trace =
            entmatcher_support::json::from_str(&text).expect("trace parses");
        let mut names: Vec<String> = trace.spans.into_iter().map(|s| s.name).collect();
        names.sort();
        names
    };

    let alone = span_names(&run("alone", &[]));
    assert!(alone.iter().any(|n| n == "pipeline"), "spans: {alone:?}");

    let flag = root.join("flag.json");
    let dump = span_names(&run("both", &["--trace", flag.to_str().unwrap()]));
    assert!(dump.iter().any(|n| n == "pipeline"), "spans: {dump:?}");
    assert_eq!(dump, span_names(&flag));
    std::fs::remove_dir_all(&root).unwrap();
}

/// Runs one `match` with an extra profile flag writing to `file`, checks
/// the report line and the folded file's shape, and returns the file's
/// `(stack, weight)` lines.
fn folded_profile(tag: &str, flag: &str, note: &str) -> (Vec<(String, u64)>, PathBuf, PathBuf) {
    let (root, data, emb) = setup(tag);
    let pairs = root.join("pairs.tsv");
    let folded = root.join("profile.folded");
    let output = Command::new(BIN)
        .args(match_args(&data, &emb, &pairs))
        .args([flag, folded.to_str().unwrap()])
        .output()
        .expect("spawn entmatcher");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let report = String::from_utf8_lossy(&output.stdout);
    assert!(report.contains(note), "report: {report}");
    // Every line is `frames weight` with `;`-joined frame names and a
    // positive weight.
    let text = std::fs::read_to_string(&folded).expect("folded profile written");
    let lines = text
        .lines()
        .map(|line| {
            let (stack, weight) = line.rsplit_once(' ').expect("folded line shape");
            assert!(!stack.is_empty());
            let weight = weight.parse::<u64>().unwrap();
            assert!(weight > 0, "bad weight in {line:?}");
            (stack.to_owned(), weight)
        })
        .collect();
    (lines, root, data)
}

/// `--profile FILE` folds the command's own trace, so even a match that
/// takes a few milliseconds writes its pipeline stacks on the first run.
#[test]
fn profile_flag_writes_collapsed_stacks() {
    let (lines, root, _) = folded_profile("profile", "--profile", "profile written to");
    assert!(
        lines.iter().any(|(stack, _)| stack == "pipeline;similarity"),
        "no pipeline;similarity stack: {lines:?}"
    );
    std::fs::remove_dir_all(&root).unwrap();
}

/// `--mem-profile FILE` charges the score matrix, one allocation of
/// n_s * n_t f32 cells, to the similarity stage that allocates it.
#[test]
fn mem_profile_flag_charges_the_score_matrix_to_similarity() {
    let (lines, root, data) =
        folded_profile("memprofile", "--mem-profile", "memory profile written to");
    // The candidate split depends on the generator seed, as in `match`.
    let spec = std::fs::read_to_string(data.join("spec.json")).unwrap();
    let seed = entmatcher_support::json::from_str::<entmatcher_data::PairSpec>(&spec)
        .unwrap()
        .seed;
    let pair = entmatcher_graph::io::load_pair_dir(&data, seed).unwrap();
    let task = entmatcher_eval::MatchTask::from_pair(&pair);
    let matrix_bytes = (task.num_sources() * task.num_targets() * 4) as u64;
    let similarity: u64 = lines
        .iter()
        .filter(|(stack, _)| {
            stack == "pipeline;similarity" || stack.starts_with("pipeline;similarity;")
        })
        .map(|(_, weight)| weight)
        .sum();
    assert!(
        similarity >= matrix_bytes,
        "similarity charged {similarity} B, below the {matrix_bytes} B score matrix: {lines:?}"
    );
    std::fs::remove_dir_all(&root).unwrap();
}

/// `ENTMATCHER_MEM=1`: the match report prints the measured peak, the
/// exported trace's spans carry measured heap fields, the `mem.*`
/// counters land in the trace, and `/metrics` exports the heap gauges
/// alongside RSS — the full measured-memory surface in one child run.
#[test]
fn mem_env_measures_heap_across_trace_report_and_metrics() {
    let (root, data, emb) = setup("mem");
    let pairs = root.join("pairs.tsv");
    let trace_file = root.join("trace.json");
    let mut child = Command::new(BIN)
        .args(match_args(&data, &emb, &pairs))
        .args(["--trace", trace_file.to_str().unwrap()])
        .args(["--metrics", "127.0.0.1:0"])
        .env("ENTMATCHER_MEM", "1")
        .env("ENTMATCHER_METRICS_LINGER_MS", "4000")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn entmatcher");

    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut addr = None;
    let mut line = String::new();
    while stderr.read_line(&mut line).unwrap() > 0 {
        if let Some(rest) = line.trim().strip_prefix("metrics: serving http://") {
            addr = Some(rest.trim_end_matches("/metrics").to_string());
            break;
        }
        line.clear();
    }
    let addr = addr.expect("metrics address line on stderr");

    // Poll until the publisher renders a snapshot with the heap gauges.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut body;
    loop {
        body = http_get(&addr, "/metrics");
        if body.contains("entmatcher_heap_live_bytes") || std::time::Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(
        body.contains("entmatcher_heap_live_bytes"),
        "heap gauge missing with ENTMATCHER_MEM=1: {body}"
    );
    assert!(body.contains("entmatcher_heap_peak_bytes"));
    assert!(body.contains("entmatcher_alloc_total"));
    assert!(
        body.contains("entmatcher_rss_bytes"),
        "RSS gauge missing: {body}"
    );

    let mut stdout = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut stdout)
        .unwrap();
    let status = child.wait().expect("child exits after linger");
    assert!(status.success(), "ENTMATCHER_MEM run failed");
    assert!(
        stdout.contains("measured peak"),
        "match report must print the measured peak: {stdout}"
    );

    // The exported trace carries per-span measured heap fields plus the
    // folded-in process counters.
    let text = std::fs::read_to_string(&trace_file).unwrap();
    let trace: entmatcher_support::telemetry::Trace =
        entmatcher_support::json::from_str(&text).unwrap();
    let pipeline = trace.span("pipeline").expect("pipeline span");
    assert!(
        pipeline.heap_live_peak > 0,
        "pipeline span must measure a heap peak"
    );
    let sim = trace.span("similarity").expect("similarity span");
    assert!(
        sim.heap_allocated > 0,
        "similarity span must be charged for the score matrix"
    );
    assert!(
        pipeline.heap_live_peak >= sim.heap_live_peak.min(pipeline.heap_live_peak),
        "inclusive attribution"
    );
    assert!(trace.counter("mem.heap_peak_bytes").unwrap_or(0) > 0);
    assert!(trace.counter("mem.alloc_total").unwrap_or(0) > 0);

    // The rendered tree surfaces the measured columns.
    let rendered = entmatcher_cli::run(&[
        "trace".to_string(),
        "--file".to_string(),
        trace_file.to_str().unwrap().to_string(),
    ])
    .unwrap();
    assert!(
        rendered.contains("heap peak"),
        "trace render must show measured heap: {rendered}"
    );
    std::fs::remove_dir_all(&root).unwrap();
}
