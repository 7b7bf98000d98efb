//! Serving benchmark: queries/sec and tail latency for `MatchService`
//! behind the real HTTP listener, at fixed client concurrency, in two
//! connection modes.
//!
//! The full-size configuration loads a 20k x 64 clustered pair, starts
//! the service exactly as `entmatcher serve` does (normalized rows, warm
//! packed operand, batching queue, real `support::http` listener with the
//! service's `/match/topk` route), and drives it with 8 client threads issuing
//! sequential `POST /match/topk` requests — each request is a full
//! request / parse round trip, so the measured numbers include the
//! listener and HTTP glue, not just the GEMM. The query cache is disabled
//! so every request exercises the batch worker; each mode's `mean_batch`
//! shows how much the queue coalesces under that load.
//!
//! Modes (both measured against the same warm service, sequentially):
//! * `fresh_conn` — every request opens its own TCP connection
//!   (`Connection: close`), the worst-case client;
//! * `keepalive` — each client holds one persistent socket for its whole
//!   request stream, the intended production shape. `conns_opened` and
//!   `requests_per_conn` make connection-reuse regressions visible
//!   directly, not just through aggregate qps.
//!
//! `BENCH_serve.json` ([`Ledger`]) records one case per mode with qps plus
//! exact p50/p99 latency (computed from the sorted per-request samples, not
//! histogram buckets), and the load (`k`, `clients`, `requests_per_mode`)
//! as the `load` case. The `bench_gate` binary gates **both** modes
//! (`entmatcher_bench::gate::serve`).
//!
//! Sizes:
//! * default — 20k entities, d = 64, 8 clients x 250 requests per mode;
//! * quick ([`artifact::quick_mode`]) — CI smoke: 2k entities, 4 clients x
//!   30 requests.

use entmatcher_bench::artifact::{self, Ledger, Metric, Suite};
use entmatcher_bench::gate::SERVE_MODES;
use entmatcher_core::{MatchService, ServeConfig, TargetIndex};
use entmatcher_data::{clustered_embeddings, EmbeddingSpec};
use entmatcher_linalg::normalize_rows_l2;
use entmatcher_support::http::{Server, ServerConfig};
use entmatcher_support::json::Json;
use entmatcher_support::telemetry;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const K: usize = 10;

/// One measured request round trip.
struct Sample {
    latency: Duration,
    batch_size: u64,
}

fn topk_body(ids: &[u32], k: usize) -> String {
    let id_list = ids
        .iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{\"ids\": [{id_list}], \"k\": {k}}}")
}

/// Extracts `batch_size` from a 200 response payload.
fn parse_batch_size(payload: &str) -> u64 {
    let doc = Json::parse(payload).expect("response JSON");
    doc.get("batch_size")
        .and_then(|v| v.as_f64())
        .expect("batch_size field") as u64
}

/// POSTs one top-k query over a fresh connection and parses the reply —
/// the `fresh_conn` client: connect, one request, `Connection: close`.
fn query_fresh(addr: &str, ids: &[u32], k: usize) -> Sample {
    let body = topk_body(ids, k);
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect to serve listener");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    write!(
        stream,
        "POST /match/topk HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let latency = started.elapsed();
    assert!(
        response.starts_with("HTTP/1.1 200 OK"),
        "bad response: {response}"
    );
    let payload = response.split_once("\r\n\r\n").expect("body split").1;
    Sample {
        latency,
        batch_size: parse_batch_size(payload),
    }
}

/// The `keepalive` client: one persistent socket per client thread,
/// reconnecting (and counting it) only if the server drops the
/// connection. Responses are framed by `Content-Length` off a carried
/// buffer, the keep-alive client discipline.
struct KeepAliveClient {
    addr: String,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    conns_opened: u64,
}

impl KeepAliveClient {
    fn new(addr: &str) -> KeepAliveClient {
        KeepAliveClient {
            addr: addr.to_string(),
            stream: None,
            buf: Vec::new(),
            conns_opened: 0,
        }
    }

    fn ensure_connected(&mut self) -> &mut TcpStream {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr).expect("connect to serve listener");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("set read timeout");
            let _ = stream.set_nodelay(true);
            self.conns_opened += 1;
            self.buf.clear();
            self.stream = Some(stream);
        }
        self.stream.as_mut().expect("stream present")
    }

    fn query(&mut self, ids: &[u32], k: usize) -> Sample {
        let body = topk_body(ids, k);
        let addr = self.addr.clone();
        let started = Instant::now();
        // One reconnect retry: the server may have evicted an idle socket
        // between requests (not under sustained load, but cheap to handle
        // correctly).
        for attempt in 0..2 {
            let request = format!(
                "POST /match/topk HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let stream = self.ensure_connected();
            if stream.write_all(request.as_bytes()).is_err() {
                self.stream = None;
                assert!(attempt == 0, "server refused a reconnected socket");
                continue;
            }
            match self.read_response() {
                Some((head, payload)) => {
                    assert!(
                        head.starts_with("HTTP/1.1 200 OK"),
                        "bad response: {head}\n{payload}"
                    );
                    if head.to_ascii_lowercase().contains("connection: close") {
                        self.stream = None;
                    }
                    return Sample {
                        latency: started.elapsed(),
                        batch_size: parse_batch_size(&payload),
                    };
                }
                None => {
                    self.stream = None;
                    assert!(attempt == 0, "server closed a reconnected socket");
                }
            }
        }
        unreachable!("retry loop returns or asserts");
    }

    /// Reads one `Content-Length`-framed response; `None` if the server
    /// closed before a full response arrived (reconnect and retry).
    fn read_response(&mut self) -> Option<(String, String)> {
        let stream = self.stream.as_mut().expect("stream present");
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
            }
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().expect("numeric Content-Length"))
            })
            .expect("response declares Content-Length");
        while self.buf.len() < head_end + content_length {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
        let payload =
            String::from_utf8_lossy(&self.buf[head_end..head_end + content_length]).into_owned();
        self.buf.drain(..head_end + content_length);
        Some((head, payload))
    }
}

/// Runs the fixed-concurrency load in the given mode and reduces it to
/// the mode's records.
fn drive(
    addr: &str,
    mode: &str,
    clients: usize,
    requests: usize,
    n_source: usize,
) -> [(Metric, f64); 8] {
    let started = Instant::now();
    let per_client: Vec<(Vec<Sample>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.to_string();
                let mode = mode.to_string();
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(requests);
                    let mut keepalive = (mode == "keepalive").then(|| KeepAliveClient::new(&addr));
                    for r in 0..requests {
                        // Distinct id pairs per request; the cache is off,
                        // so this just spreads the query rows around.
                        let a = ((c * requests + r) * 7919) % n_source;
                        let b = (a + 13) % n_source;
                        let ids = [a as u32, b as u32];
                        out.push(match keepalive.as_mut() {
                            Some(client) => client.query(&ids, K),
                            None => query_fresh(&addr, &ids, K),
                        });
                    }
                    let conns = match keepalive {
                        Some(client) => client.conns_opened,
                        // Fresh mode opens exactly one connection per
                        // request by construction.
                        None => requests as u64,
                    };
                    (out, conns)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_seconds = started.elapsed().as_secs_f64();
    let mut samples = Vec::with_capacity(clients * requests);
    let mut conns_opened = 0;
    for (s, c) in per_client {
        samples.extend(s);
        conns_opened += c;
    }

    let total = samples.len();
    let qps = total as f64 / wall_seconds;
    let mean_batch = samples.iter().map(|s| s.batch_size as f64).sum::<f64>() / total as f64;
    let mut sorted: Vec<Duration> = samples.iter().map(|s| s.latency).collect();
    sorted.sort();
    let p50_ms = percentile_ms(&sorted, 0.50);
    let p99_ms = percentile_ms(&sorted, 0.99);
    let requests_per_conn = total as f64 / conns_opened as f64;
    eprintln!(
        "serve[{mode}]: {total} requests in {wall_seconds:.2}s = {qps:.0} qps, \
         p50 {p50_ms:.2}ms p99 {p99_ms:.2}ms, mean batch {mean_batch:.1}, \
         {conns_opened} conns ({requests_per_conn:.1} req/conn)"
    );
    [
        (Metric::Requests, total as f64),
        (Metric::Seconds, wall_seconds),
        (Metric::Qps, qps),
        (Metric::P50Ms, p50_ms),
        (Metric::P99Ms, p99_ms),
        (Metric::MeanBatch, mean_batch),
        (Metric::ConnsOpened, conns_opened as f64),
        (Metric::RequestsPerConn, requests_per_conn),
    ]
}

fn percentile_ms(sorted: &[Duration], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx].as_secs_f64() * 1e3
}

fn main() {
    let quick = artifact::quick_mode();
    let (entities, dim, clusters, clients, requests) = if quick {
        (2000, 32, 50, 4, 30)
    } else {
        (20_000, 64, 200, 8, 250)
    };

    eprintln!("serve: generating {entities} x {dim} clustered pair ({clusters} clusters)...");
    let pair = clustered_embeddings(&EmbeddingSpec {
        entities,
        dim,
        clusters,
        spread: 0.25,
        noise: 0.05,
        seed: 0x5E12,
    });
    let (mut source, mut target) = (pair.source, pair.target);
    normalize_rows_l2(&mut source);
    normalize_rows_l2(&mut target);
    let n_source = source.rows();

    // Cache off: every request must cross the batching queue and the
    // fused pass, so qps/p99 measure the serving stack, not replay.
    let cfg = ServeConfig {
        cache_capacity: 0,
        batch_wait: Duration::from_micros(200),
        ..ServeConfig::default()
    };
    let service =
        Arc::new(MatchService::start(source, TargetIndex::Matrix(target), cfg).expect("service"));
    let server = Server::bind(
        telemetry::global(),
        "127.0.0.1:0",
        ServerConfig::default(),
        service.routes(),
    )
    .expect("bind serve listener");
    let addr = server.addr().to_string();
    eprintln!("serve: listening on {addr}, warming up...");

    // Warmup: fill the pool and fault in the packed operand.
    for w in 0..8 {
        let _ = query_fresh(&addr, &[w as u32], K);
    }

    eprintln!("serve: driving {clients} clients x {requests} requests per mode (k={K})...");
    let mut ledger = Ledger::new(Suite::Serve, quick);
    for (metric, value) in [
        (Metric::K, K),
        (Metric::Clients, clients),
        (Metric::RequestsPerMode, clients * requests),
    ] {
        ledger.push("load", entities, dim, metric, value as f64);
    }
    for mode in SERVE_MODES {
        for (metric, value) in drive(&addr, mode, clients, requests, n_source) {
            ledger.push(mode, entities, dim, metric, value);
        }
    }

    server.shutdown();
    service.stop();
    let (path, ledger) = ledger.write();

    // Self-check: both modes with finite, sane numbers. The thresholds
    // against the committed baseline are the gate's.
    for mode in SERVE_MODES {
        let get = |metric| ledger.value(metric, mode).unwrap_or(f64::NAN);
        let (qps, p50, p99) = (get(Metric::Qps), get(Metric::P50Ms), get(Metric::P99Ms));
        assert!(
            qps.is_finite() && qps > 0.0,
            "self-check[{mode}]: bad qps {qps}"
        );
        assert!(
            p99.is_finite() && p99 >= p50 && p50 > 0.0,
            "self-check[{mode}]: bad latency quantiles p50={p50} p99={p99}"
        );
        let mean_batch = get(Metric::MeanBatch);
        assert!(
            mean_batch >= 1.0,
            "self-check[{mode}]: every served request sits in a batch of >= 1, got {mean_batch}"
        );
        let per_conn = get(Metric::RequestsPerConn);
        if mode == "keepalive" {
            assert!(
                per_conn > 1.0,
                "self-check: keepalive clients must reuse connections, got {per_conn} req/conn"
            );
        } else {
            assert!(
                (per_conn - 1.0).abs() < 1e-9,
                "self-check: fresh_conn is one request per connection, got {per_conn}"
            );
        }
    }
    let total: f64 = ledger.lookup(Metric::Requests, None).map(|r| r.value).sum();
    println!(
        "serve bench: wrote {} ({total} requests across 2 modes, self-check ok)",
        path.display()
    );
}
