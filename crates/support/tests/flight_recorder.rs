//! Integration tests for the flight-recorder surfaces: golden Chrome
//! `trace_event` output, Prometheus text-format conformance, the
//! exposition server's bind/serve/shutdown lifecycle, and the folded
//! profile of a trace recorded on several threads.

use entmatcher_support::json::Json;
use entmatcher_support::telemetry::chrome::to_chrome_string;
use entmatcher_support::telemetry::expose::{
    render_prometheus, MetricsServer, Response, Routes, ServerConfig,
};
use entmatcher_support::telemetry::profile::{fold, to_folded, Weight};
use entmatcher_support::telemetry::Telemetry;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The exposition server holds the registry for a thread's lifetime, so
/// tests give it `'static` standalone registries.
fn leaked_registry() -> &'static Telemetry {
    Box::leak(Box::new(Telemetry::new()))
}

// ---------------------------------------------------------------------------
// Chrome / Perfetto export
// ---------------------------------------------------------------------------

/// Builds a trace with the shapes the Chrome exporter must handle:
/// nesting, multiple thread lanes, byte attribution, and names that need
/// JSON escaping.
fn recorder_trace(t: &Telemetry) -> entmatcher_support::telemetry::Trace {
    t.set_enabled(true);
    {
        let mut root = t.span("pipeline");
        root.add_bytes(1024);
        {
            let _child = t.span("similarity \"cosine\"\nblocked");
        }
        std::thread::scope(|scope| {
            scope.spawn(|| {
                drop(t.span("worker-lane"));
            });
        });
    }
    t.add("gemm.tiles", 42);
    t.observe("loss", 0.5);
    t.snapshot()
}

#[test]
fn chrome_export_is_valid_trace_event_json() {
    let t = Telemetry::new();
    let trace = recorder_trace(&t);
    let text = to_chrome_string(&trace);

    // Golden structural properties, checked on the re-parsed document so
    // escaping bugs cannot hide in string comparison.
    let doc = Json::parse(&text).expect("chrome export must be valid JSON");
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    assert_eq!(doc["displayTimeUnit"], "ms");

    // Every non-metadata event is a complete event with the required keys.
    let complete: Vec<&Json> = events.iter().filter(|e| e["ph"] == "X").collect();
    assert_eq!(complete.len(), trace.spans.len());
    for e in &complete {
        assert!(e["name"].as_str().is_some());
        assert!(e["ts"].as_f64().is_some());
        assert!(e["dur"].as_f64().unwrap() >= 0.0);
        assert_eq!(e["pid"].as_f64(), Some(1.0));
        assert!(e["tid"].as_f64().unwrap() >= 1.0, "thread lane missing");
    }

    // The escaped name survives the round trip exactly.
    assert!(
        complete
            .iter()
            .any(|e| e["name"] == "similarity \"cosine\"\nblocked"),
        "escaped span name must round-trip"
    );

    // Parent nesting: the child event's args.parent is the root's args.id.
    let root = complete.iter().find(|e| e["name"] == "pipeline").unwrap();
    let child = complete
        .iter()
        .find(|e| e["name"].as_str().is_some_and(|n| n.starts_with("similarity")))
        .unwrap();
    assert_eq!(child["args"]["parent"], root["args"]["id"].clone());
    assert_eq!(root["args"]["bytes"].as_f64(), Some(1024.0));

    // Thread lanes: the worker span sits on a different tid than the root.
    let worker = complete.iter().find(|e| e["name"] == "worker-lane").unwrap();
    assert_ne!(worker["tid"].as_f64(), root["tid"].as_f64());

    // Timestamps are microseconds: child starts at or after the root and
    // within it.
    let (rts, rdur) = (root["ts"].as_f64().unwrap(), root["dur"].as_f64().unwrap());
    let cts = child["ts"].as_f64().unwrap();
    assert!(cts >= rts && cts <= rts + rdur);

    // Counters appear as counter events.
    let counter = events.iter().find(|e| e["ph"] == "C").expect("counter event");
    assert_eq!(counter["name"], "gemm.tiles");
    assert_eq!(counter["args"]["value"].as_f64(), Some(42.0));
}

// ---------------------------------------------------------------------------
// Prometheus text-format conformance
// ---------------------------------------------------------------------------

fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_sample_value(v: &str) -> Option<f64> {
    match v {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        other => other.parse().ok(),
    }
}

/// A minimal text-format (0.0.4) conformance check: every line is a
/// `# HELP`/`# TYPE` comment or a `name[{labels}] value` sample with a
/// valid metric name, balanced/escaped labels, and a parseable value.
/// Returns the samples as `(name, labels, value)`.
fn check_exposition(text: &str) -> Vec<(String, String, f64)> {
    let mut samples = Vec::new();
    let mut declared_types: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            assert!(
                rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                "unknown comment form: {line}"
            );
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts.next().expect("TYPE needs a metric name");
                let kind = parts.next().expect("TYPE needs a kind");
                assert!(is_valid_metric_name(name), "bad TYPE name {name:?}");
                assert!(
                    ["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind),
                    "bad TYPE kind {kind:?}"
                );
                assert!(
                    !declared_types.contains(&name.to_string()),
                    "metric {name} TYPE-declared twice"
                );
                declared_types.push(name.to_string());
            }
            continue;
        }
        // Sample line: name{labels} value  |  name value
        let (name_labels, value) = line.rsplit_once(' ').expect("sample needs a value");
        let (name, labels) = match name_labels.split_once('{') {
            Some((n, rest)) => {
                let labels = rest.strip_suffix('}').expect("unbalanced label braces");
                // Label values must be quoted, with ", \, and newline
                // escaped (a backslash escapes exactly \, ", or n).
                for pair in labels.split("\",") {
                    let (k, v) = pair.split_once("=\"").expect("label needs =\"");
                    assert!(is_valid_metric_name(k), "bad label name {k:?}");
                    let v = v.strip_suffix('"').unwrap_or(v);
                    assert!(!v.contains('\n'), "raw newline in label value {v:?}");
                    let mut chars = v.chars();
                    while let Some(c) = chars.next() {
                        match c {
                            '\\' => assert!(
                                matches!(chars.next(), Some('\\' | '"' | 'n')),
                                "bad escape in label value {v:?}"
                            ),
                            '"' => panic!("unescaped quote in label value {v:?}"),
                            _ => {}
                        }
                    }
                }
                (n, labels.to_string())
            }
            None => (name_labels, String::new()),
        };
        assert!(is_valid_metric_name(name), "bad metric name {name:?}");
        let value = parse_sample_value(value).unwrap_or_else(|| panic!("bad value in {line:?}"));
        samples.push((name.to_string(), labels, value));
    }
    samples
}

#[test]
fn prometheus_exposition_conforms() {
    let t = Telemetry::new();
    t.set_enabled(true);
    {
        let mut s = t.span("pipeline");
        s.add_bytes(2048);
        drop(t.span("similarity"));
    }
    // A span name that needs label escaping.
    drop(t.span("cell:\"D-Z\"/R-CSLS"));
    t.add("sinkhorn.iterations", 100);
    t.add("grid.heartbeat", 3);
    for v in [0.25, 1.0, 4.0, 0.0, f64::NAN] {
        t.observe("sinkhorn.col_dev", v);
    }
    let text = render_prometheus(&t.snapshot());
    let samples = check_exposition(&text);

    let get = |name: &str, labels: &str| {
        samples
            .iter()
            .find(|(n, l, _)| n == name && l.contains(labels))
            .map(|&(_, _, v)| v)
            .unwrap_or_else(|| panic!("missing sample {name}{{{labels}}} in:\n{text}"))
    };
    assert_eq!(get("entmatcher_up", ""), 1.0);
    assert_eq!(get("entmatcher_sinkhorn_iterations_total", ""), 100.0);
    assert_eq!(get("entmatcher_grid_heartbeat_total", ""), 3.0);

    // Histogram invariants: cumulative buckets are non-decreasing in le
    // order and +Inf equals _count.
    let mut buckets: Vec<(f64, f64)> = samples
        .iter()
        .filter(|(n, _, _)| n == "entmatcher_sinkhorn_col_dev_bucket")
        .map(|(_, l, v)| {
            let le = l
                .split("le=\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .map(|s| parse_sample_value(s).unwrap())
                .unwrap();
            (le, *v)
        })
        .collect();
    buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    assert!(buckets.windows(2).all(|w| w[0].1 <= w[1].1), "{buckets:?}");
    assert_eq!(buckets.last().unwrap().0, f64::INFINITY);
    assert_eq!(
        buckets.last().unwrap().1,
        get("entmatcher_sinkhorn_col_dev_count", "")
    );
    assert_eq!(get("entmatcher_sinkhorn_col_dev_sum", ""), 5.25);

    // Span aggregates, including the escaped cell name.
    assert_eq!(get("entmatcher_span_calls_total", "span=\"pipeline\""), 1.0);
    assert!(get("entmatcher_span_bytes_total", "span=\"pipeline\"") >= 2048.0);
    assert_eq!(
        get("entmatcher_span_calls_total", "span=\"cell:\\\"D-Z\\\"/R-CSLS\""),
        1.0
    );
}

// ---------------------------------------------------------------------------
// Exposition server lifecycle
// ---------------------------------------------------------------------------

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics server");
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    // One request per connection: ask the keep-alive server to close so
    // read_to_string terminates without waiting out the idle timeout.
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a head/body split");
    (head.to_string(), body.to_string())
}

#[test]
fn metrics_server_binds_serves_and_shuts_down() {
    let t = leaked_registry();
    t.set_enabled(true);
    t.add("lifecycle.test", 9);
    let cfg = ServerConfig::default();
    let server = MetricsServer::start_with_config(t, "127.0.0.1:0", cfg, None)
        .expect("bind ephemeral port");
    let addr = server.addr();
    assert_ne!(addr.port(), 0, "port 0 must resolve to a real port");

    // /healthz is immediate.
    let (head, body) = http_get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ok\n");

    // /metrics reflects counters recorded before startup...
    let (head, body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("text/plain"), "{head}");
    assert!(body.contains("entmatcher_up 1"), "{body}");
    assert!(body.contains("entmatcher_lifecycle_test_total 9"), "{body}");

    // ...and picks up live increments via the snapshot publisher.
    t.add("lifecycle.test", 1);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (_, body) = http_get(addr, "/metrics");
        if body.contains("entmatcher_lifecycle_test_total 10") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "publisher never refreshed the page:\n{body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Unknown paths 404; non-GET methods are rejected.
    let (head, _) = http_get(addr, "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    // Shutdown joins the threads and releases the port.
    server.shutdown();
    let gone = TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_err();
    assert!(gone, "server still accepting after shutdown");
}

/// Sends raw bytes and returns the full response text (empty if the
/// server closed without answering).
fn http_raw(addr: std::net::SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(request).expect("send request");
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

#[test]
fn server_hardening_against_real_clients() {
    let t = leaked_registry();
    t.set_enabled(true);
    let routes = Routes {
        paths: vec!["/echo".to_owned()],
        handler: Arc::new(|req| {
            if req.path == "/echo" && req.method == "POST" {
                Some(Response::json(String::from_utf8_lossy(&req.body).into_owned()))
            } else {
                None
            }
        }),
    };
    let cfg = ServerConfig::default();
    let server = MetricsServer::start_with_config(t, "127.0.0.1:0", cfg, Some(routes))
        .expect("bind ephemeral port");
    let addr = server.addr();

    // A client asking for Connection: close gets it echoed (the
    // keep-alive default is pinned in tests/keepalive.rs).
    let (head, _) = http_get(addr, "/healthz");
    assert!(head.contains("Connection: close"), "{head}");

    // HEAD answers like GET minus the body: same status, real
    // Content-Length, nothing after the blank line.
    let resp = http_raw(addr, b"HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    let (head, body) = resp.split_once("\r\n\r\n").expect("head/body split");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("Content-Length: 3"), "{head}");
    assert!(body.is_empty(), "HEAD must not send a body: {body:?}");

    // Wrong method on a known path is 405, not 404 — for built-ins and
    // custom routes alike.
    let resp = http_raw(addr, b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");
    let resp = http_raw(addr, b"DELETE /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");
    let resp = http_raw(addr, b"GET /echo HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");
    // ...but an unknown path stays 404 regardless of method.
    let resp = http_raw(addr, b"POST /nope HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");

    // A custom route sees the request body (Content-Length framing).
    let resp = http_raw(
        addr,
        b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
    );
    let (head, body) = resp.split_once("\r\n\r\n").expect("head/body split");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "hello");

    // Partial request reads are tolerated: a client that disconnects
    // mid-head gets a 400, not a hung or crashed server thread.
    let resp = http_raw(addr, b"GET /hea");
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");

    // A malformed request line is a 400 too.
    let resp = http_raw(addr, b"nonsense\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");

    // Oversized request heads are rejected with 431 instead of being
    // buffered without bound.
    let mut big = b"GET /metrics HTTP/1.1\r\nX-Junk: ".to_vec();
    big.extend(std::iter::repeat_n(b'a', 10_000));
    big.extend_from_slice(b"\r\n\r\n");
    let resp = http_raw(addr, &big);
    assert!(resp.starts_with("HTTP/1.1 431"), "{resp}");

    // An oversized declared body is rejected with 413 before reading it.
    let resp = http_raw(
        addr,
        b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 99999999\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");

    // The server survives all of the above and still serves.
    let (head, body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(body.contains("entmatcher_up 1"), "{body}");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Folded profiles
// ---------------------------------------------------------------------------

#[test]
fn trace_from_many_threads_folds_to_each_lane() {
    let t = Telemetry::new();
    t.set_enabled(true);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                let _outer = t.span("grid");
                let _inner = t.span("cell");
                std::thread::sleep(Duration::from_millis(80));
            });
        }
    });
    let trace = t.snapshot();
    let mut lanes: Vec<u64> = trace.spans_named("grid").map(|s| s.tid).collect();
    lanes.sort_unstable();
    lanes.dedup();
    assert_eq!(lanes.len(), 3, "one lane per thread: {lanes:?}");
    // Each lane on its own folds to the same stack, weighted by the time
    // its thread slept inside it.
    for lane in lanes {
        let mut one = trace.clone();
        one.spans.retain(|s| s.tid == lane);
        let stacks = fold(&one, Weight::Micros);
        assert!(
            stacks.get("grid;cell").copied().unwrap_or(0) >= 80_000,
            "lane {lane}: {}",
            to_folded(&stacks)
        );
    }
    // Together, the three lanes' time lands on one line per stack.
    let stacks = fold(&trace, Weight::Micros);
    assert!(stacks["grid;cell"] >= 3 * 80_000, "{}", to_folded(&stacks));
    for line in to_folded(&stacks).lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("folded line shape");
        assert!(stack == "grid" || stack == "grid;cell", "{line}");
        assert!(weight.parse::<u64>().unwrap() > 0);
    }
}

#[test]
fn disabled_span_fast_path_records_nothing() {
    let t = Telemetry::new();
    // Recording off: guards stay inert (no ids), nothing reaches the
    // trace, and the fast path stays fast.
    let start = Instant::now();
    for _ in 0..100_000 {
        let span = t.span("hot");
        assert!(span.id().is_none());
        drop(span);
    }
    let elapsed = start.elapsed();
    let trace = t.snapshot();
    assert!(trace.spans.is_empty());
    assert!(fold(&trace, Weight::Micros).is_empty());
    // Loose bound: 100k disabled spans are ~one atomic load + Instant
    // each; even heavily loaded CI finishes far under a second.
    assert!(
        elapsed < Duration::from_secs(1),
        "disabled span fast path too slow: {elapsed:?}"
    );
}
