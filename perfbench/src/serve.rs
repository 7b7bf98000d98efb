//! The online path, measured layer by layer.
//!
//! `large-stream`'s traced run serves its own pair with the configuration
//! `entmatcher serve --candidates ivf --precision int8` builds (LRU cache
//! 1024, 500 µs batch wait, telemetry recording on), in this process. Two
//! keep-alive connections from two client threads send `POST /match/topk`
//! with k = 10 and Zipf(s = 1.1) source ids as a closed loop (each client
//! sends its next request when the previous reply arrives): HTTP, JSON,
//! the cache, the batching queue and the IVF probe on int8 postings, with
//! both cache hits and misses common. The same ids are then replayed into
//! `MatchService::top_k` directly, and the IVF index is trained and probed
//! on its own against an exact oracle.
//!
//! This is a census, not a workload: no end-to-end metric depends on it.
//! On a small virtual machine the serving path's latency and throughput
//! (sub-millisecond requests, several thread hand-offs each) move with the
//! host from minute to minute by more than any bound a regression gate can
//! use; README.md records the measurements behind that choice.

use crate::dense;
use crate::inputs;
use crate::stats::{self, Samples};
use crate::tracing::Tracer;
use crate::{Checks, Invalid, Metrics, Scale};
use entmatcher_core::{IvfIndex, IvfParams, MatchService, Query, ServeConfig, TargetIndex};
use entmatcher_linalg::{fused_topk, normalize_rows_l2, Matrix, Precision};
use entmatcher_support::json::Json;
use entmatcher_support::telemetry;
use entmatcher_support::telemetry::expose::{
    MetricsServer, Request, Response, Routes, ServerConfig,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Top-k width of every request.
pub const K: usize = 10;
/// Zipf exponent of the requested source ids: the LRU cache of 1024 serves
/// most requests, and misses stay common.
pub const ZIPF_S: f64 = 1.1;
/// Layers the census exercises (once per traced run).
pub const LAYERS: &[&str] = &["serve", "http", "json", "ann"];
/// Keep-alive connections, one client thread each.
pub const CONNS: usize = 2;
/// Per-request read timeout; a timeout is a failed request.
const TIMEOUT: Duration = Duration::from_secs(2);

struct Sizes {
    warmup: usize,
    block: usize,
    replay: usize,
    probes: usize,
}

impl Sizes {
    fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                warmup: 3000,
                block: 4000,
                replay: 3000,
                probes: 500,
            },
            Scale::Tiny => Sizes {
                warmup: 200,
                block: 400,
                replay: 200,
                probes: 50,
            },
        }
    }
}

/// The service configuration `entmatcher serve --candidates ivf
/// --precision int8` builds with every other flag at its default.
fn serve_config() -> ServeConfig {
    ServeConfig {
        precision: Precision::Int8,
        ivf: Some(IvfParams::default()),
        nprobe: 0,
        cache_capacity: 1024,
        batch_max: 64,
        batch_wait: Duration::from_micros(500),
        k_max: 1024,
        max_inflight: 256,
        slow_ms: entmatcher_core::serve::env_slow_ms(),
        record_spans: false,
    }
}

/// A running service and its listener.
struct Serving {
    service: Arc<MatchService>,
    server: MetricsServer,
    n_targets: usize,
}

impl Serving {
    /// What `entmatcher serve` does before its first answer: load the
    /// snapshots, L2-normalize, start the service (IVF k-means plus int8
    /// posting pack) and bind the listener. Ready when
    /// `start_with_config` returns.
    fn start(emb_dir: &Path) -> Result<Serving, String> {
        let (mut source, mut target) = inputs::load_embeddings(emb_dir)?;
        normalize_rows_l2(&mut source);
        normalize_rows_l2(&mut target);
        let n_targets = target.rows();
        telemetry::set_enabled(true);
        let service = MatchService::start(source, TargetIndex::Matrix(target), serve_config())
            .map_err(|e| e.to_string())?;
        let service = Arc::new(service);
        let handler = {
            let service = Arc::clone(&service);
            move |req: &Request| -> Option<Response> {
                let started = Instant::now();
                let resp = match (req.method.as_str(), req.path.as_str()) {
                    ("POST", "/match/topk") => Some(service.handle_topk(&req.body)),
                    _ => None,
                };
                if resp.is_some() {
                    telemetry::observe(
                        &telemetry::labeled("request_seconds", "endpoint", &req.path),
                        started.elapsed().as_secs_f64(),
                    );
                }
                resp
            }
        };
        let routes = Routes {
            paths: vec!["/match/topk".into()],
            handler: Arc::new(handler),
        };
        let server = MetricsServer::start_with_config(
            telemetry::global(),
            "127.0.0.1:0",
            ServerConfig {
                max_conns: 256,
                workers: 16,
                ..ServerConfig::default()
            },
            Some(routes),
        )
        .map_err(|e| e.to_string())?;
        Ok(Serving {
            service,
            server,
            n_targets,
        })
    }

    fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    fn stop(self) {
        self.server.shutdown();
        self.service.stop();
    }
}

/// Client-side phase times of one request, in seconds.
#[derive(Debug, Clone, Copy, Default)]
struct Phases {
    write: f64,
    ttfb: f64,
    read: f64,
    parse: f64,
}

/// A parsed, checked `/match/topk` answer.
#[derive(Debug, Clone, Copy)]
struct Answer {
    cached: bool,
    batch_size: f64,
}

/// A keep-alive HTTP/1.1 client for `POST /match/topk`.
struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            buf: Vec::with_capacity(4096),
        }
    }

    /// Sends one request; on any error the connection is dropped and the
    /// next request reconnects.
    fn request(&mut self, id: u32, n_targets: usize) -> (Result<Answer, String>, Phases) {
        let mut phases = Phases::default();
        let result = self.exchange(id, &mut phases).and_then(|(status, body)| {
            let started = Instant::now();
            let answer = parse_answer(status, &body, n_targets);
            phases.parse = started.elapsed().as_secs_f64();
            answer
        });
        if result.is_err() {
            self.stream = None;
        }
        (result, phases)
    }

    fn exchange(&mut self, id: u32, phases: &mut Phases) -> Result<(u16, Vec<u8>), String> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            s.set_read_timeout(Some(TIMEOUT))
                .map_err(|e| e.to_string())?;
            self.stream = Some(s);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let body = format!("{{\"ids\":[{id}],\"k\":{K}}}");
        let msg = format!(
            "POST /match/topk HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let t0 = Instant::now();
        stream
            .write_all(msg.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let t1 = Instant::now();
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let mut first_byte = None;
        let (head_len, content_len) = loop {
            let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-response".into());
            }
            first_byte.get_or_insert_with(Instant::now);
            self.buf.extend_from_slice(&chunk[..n]);
            if let Some(end) = find(&self.buf, b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.buf[..end]).map_err(|e| e.to_string())?;
                break (end + 4, content_length(head)?);
            }
        };
        while self.buf.len() < head_len + content_len {
            let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-body".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let t3 = Instant::now();
        let t2 = first_byte.expect("read at least one byte");
        phases.write = (t1 - t0).as_secs_f64();
        phases.ttfb = (t2 - t1).as_secs_f64();
        phases.read = (t3 - t2).as_secs_f64();
        let head = std::str::from_utf8(&self.buf[..head_len]).map_err(|e| e.to_string())?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or("malformed status line")?;
        if head.to_ascii_lowercase().contains("connection: close") {
            self.stream = None;
        }
        Ok((status, self.buf[head_len..head_len + content_len].to_vec()))
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn content_length(head: &str) -> Result<usize, String> {
    head.lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse::<usize>().ok())
                .flatten()
        })
        .ok_or_else(|| "response without Content-Length".to_owned())
}

/// A reply is correct when it is a 200 with one row of `K` in-range hits,
/// best first. 429 and 503 (refusals) are failures like any other status.
fn parse_answer(status: u16, body: &[u8], n_targets: usize) -> Result<Answer, String> {
    if status != 200 {
        return Err(format!("HTTP {status}"));
    }
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let rows = doc
        .get("results")
        .and_then(Json::as_array)
        .ok_or("no results")?;
    let [row] = rows.as_slice() else {
        return Err(format!("{} result rows for one id", rows.len()));
    };
    let hits = row.as_array().ok_or("result row is not an array")?;
    let mut ids = Vec::with_capacity(hits.len());
    let mut scores = Vec::with_capacity(hits.len());
    for h in hits {
        let id = h.get("id").and_then(Json::as_f64).ok_or("hit without id")?;
        let score = h
            .get("score")
            .and_then(Json::as_f64)
            .ok_or("hit without score")?;
        ids.push(id);
        scores.push(score);
    }
    if ids.len() != K {
        return Err(format!("{} hits for k = {K}", ids.len()));
    }
    if ids.iter().any(|&id| id < 0.0 || id >= n_targets as f64) {
        return Err("hit id out of range".into());
    }
    if scores.windows(2).any(|w| w[0] < w[1]) {
        return Err("hits are not best-first".into());
    }
    let cached = doc
        .get("cached")
        .and_then(Json::as_array)
        .and_then(|c| c.first())
        .and_then(Json::as_bool)
        .ok_or("no cached flag")?;
    let batch_size = doc
        .get("batch_size")
        .and_then(Json::as_f64)
        .ok_or("no batch_size")?;
    Ok(Answer { cached, batch_size })
}

/// One request of a closed-loop block.
struct Sample {
    id: u32,
    answer: Result<Answer, String>,
    phases: Phases,
}

/// Sends `ids` as a closed loop over [`CONNS`] keep-alive connections:
/// each client takes the next id when its previous reply arrived.
fn closed_loop(
    addr: SocketAddr,
    n_targets: usize,
    ids: &[u32],
    tracer: Option<&Tracer>,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::new(addr);
                    let mut out = Vec::new();
                    while let Some(&id) = ids.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let sent = Instant::now();
                        let root = tracer.map(|t| t.op("op.request"));
                        let (answer, phases) = client.request(id, n_targets);
                        if let (Some(t), Some((span, req))) = (tracer, root) {
                            let parent = span.id();
                            let mut at = sent;
                            for (name, secs) in [
                                ("http.write", phases.write),
                                ("http.ttfb", phases.ttfb),
                                ("http.read", phases.read),
                                ("json.parse", phases.parse),
                            ] {
                                t.record(name, parent, req, at, secs);
                                at += Duration::from_secs_f64(secs);
                            }
                            drop(span);
                        }
                        out.push(Sample { id, answer, phases });
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Records every sample as one operation.
fn count(samples: &[Sample], checks: &mut Checks) {
    for s in samples {
        checks.op(s
            .answer
            .as_ref()
            .map(|_| ())
            .map_err(|e| format!("request for id {}: {e}", s.id)));
    }
}

/// Serves the snapshots in `emb_dir` and records the serving, HTTP, JSON
/// and IVF layers' spans into `tracer` and their metrics into `m`.
/// `source`/`target` are the same embeddings, for the IVF oracle.
#[allow(clippy::too_many_arguments)]
pub fn census(
    scale: Scale,
    seed: u64,
    emb_dir: &Path,
    source: &Matrix,
    target: &Matrix,
    tracer: &Tracer,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), Invalid> {
    let sz = Sizes::of(scale);
    let n = source.rows();
    let ids = inputs::zipf_stream(n, sz.warmup + 2 * sz.block + sz.replay, ZIPF_S, seed);
    let (warm_ids, rest) = ids.split_at(sz.warmup);
    let (block_ids, replay_ids) = rest.split_at(2 * sz.block);
    let serving = Serving::start(emb_dir).map_err(Invalid)?;
    let (addr, n_t) = (serving.addr(), serving.n_targets);
    let warm = closed_loop(addr, n_t, warm_ids, None);
    count(&warm, checks);

    let mut samples = Samples::default();
    for chunk in block_ids.chunks(sz.block) {
        let block = closed_loop(addr, n_t, chunk, Some(tracer));
        count(&block, checks);
        for s in &block {
            let Ok(a) = &s.answer else { continue };
            samples.push("hit", f64::from(u8::from(a.cached)));
            if !a.cached {
                samples.push("batch_size", a.batch_size);
            }
            samples.push("http.write_us", s.phases.write * 1e6);
            samples.push("http.ttfb_ms", s.phases.ttfb * 1e3);
            samples.push("http.read_us", s.phases.read * 1e6);
            samples.push("json.parse_us", s.phases.parse * 1e6);
        }
    }
    if let Some(r) = stats::mean(samples.get("hit")) {
        m.put("serve.cache_hit_ratio", r, "ratio");
    }
    if let Some(b) = stats::mean(samples.get("batch_size")) {
        m.put("serve.batch_size_mean", b, "rows");
    }

    // The same id stream replayed into `MatchService::top_k` directly,
    // one call at a time.
    let mut miss_rows = Vec::new();
    for &id in replay_ids {
        let (_root, req) = tracer.op("op.top_k");
        let (res, t) = tracer.call("serve.top_k", req, || {
            serving.service.top_k(&Query::Ids(vec![id]), K)
        });
        let verdict = match &res {
            Ok(r) => dense::check_topk(&r.results, K, n_t),
            Err(e) => Err(e.to_string()),
        };
        if let (Ok(r), Ok(())) = (&res, &verdict) {
            let kind = if r.cached[0] { "hit" } else { "miss" };
            samples.push(&format!("serve.top_k_{kind}_ms"), t.secs * 1e3);
            samples.push(&format!("serve.top_k_{kind}_heap_mb"), t.heap_mb());
            if !r.cached[0] {
                miss_rows.push(id as usize);
            }
        }
        checks.op(verdict.map_err(|e| format!("top_k({id}): {e}")));
    }
    serving.stop();
    telemetry::set_enabled(false);

    // The IVF layer on its own: train, then probe the replay's miss rows
    // at the serving nprobe, against an exact top-k oracle.
    let mut source_n = source.clone();
    let mut target_n = target.clone();
    normalize_rows_l2(&mut source_n);
    normalize_rows_l2(&mut target_n);
    let params = IvfParams {
        precision: Precision::Int8,
        ..IvfParams::default()
    };
    let (index, train) = {
        let (_root, req) = tracer.op("op.ann_train");
        tracer.call("ann.train", req, || IvfIndex::build(&target_n, &params))
    };
    m.put("ann.train_s", train.secs, "s");
    m.put("ann.train_heap_mb", train.heap_mb(), "MB");
    m.put("ann.posting_mb", index.posting_bytes() as f64 / 1e6, "MB");
    let mut recall = Vec::new();
    for &row in miss_rows.iter().take(sz.probes) {
        let q = source_n.select_rows(&[row]).expect("id in range");
        let (root, req) = tracer.op("op.ann_probe");
        let (hits, t) = tracer.call("ann.probe", req, || {
            index.search(&q, K, index.default_nprobe())
        });
        drop(root);
        samples.push("ann.probe_ms", t.secs * 1e3);
        samples.push("ann.probe_heap_mb", t.heap_mb());
        let exact = fused_topk(&q, &target_n, K).expect("dims match");
        let found = hits[0]
            .iter()
            .filter(|(id, _)| exact[0].iter().any(|(e, _)| e == id))
            .count();
        recall.push(found as f64 / K as f64);
    }
    if let Some(r) = stats::mean(&recall) {
        m.put("ann.recall_at_10", r, "ratio");
    }
    dense::report_layer_samples(&samples, m);
    Ok(())
}
