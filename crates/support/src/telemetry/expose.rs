//! Live metrics exposition and HTTP serving: a tiny std-only
//! persistent-connection HTTP/1.1 server publishing the telemetry
//! registry in Prometheus text exposition format (and hosting the
//! serving layer's custom [`Routes`]).
//!
//! # Connection model
//!
//! [`MetricsServer::start_with_config`] binds a `std::net::TcpListener`
//! (port 0 picks an ephemeral port — the bound address is available via
//! [`MetricsServer::addr`]) and spawns:
//!
//! - a **listener thread** in *blocking* accept. There is no poll
//!   interval and no idle wakeup: an idle server makes zero syscalls
//!   until a client connects. Shutdown wakes the blocked accept with a
//!   self-connect. The listener is also the admission point: beyond
//!   [`ServerConfig::max_conns`] open connections a new arrival is
//!   answered `503 Retry-After` and closed immediately (counted in
//!   `http.rejected`), so overload degrades with fast-fail instead of
//!   unbounded queue growth; and
//! - a small pool of **connection-worker threads**
//!   ([`ServerConfig::workers`]) that service **keep-alive**
//!   connections: each worker picks up an admitted socket and answers
//!   requests on it until the client closes, sends `Connection: close`,
//!   speaks HTTP/1.0 without `Connection: keep-alive`, commits a
//!   protocol error, or goes idle for [`ServerConfig::idle_timeout`]
//!   (the slowloris eviction). The per-connection read buffer is reused
//!   across requests, and bytes past the current request (a pipelined
//!   next request) are carried over instead of dropped.
//!
//! Requests are parsed defensively: a half-sent head gets 400, heads
//! larger than 8 KiB get 431, bodies larger than 1 MiB get 413, a
//! `Transfer-Encoding` body (unsupported framing) gets 411, and a
//! present-but-malformed `Content-Length` gets 400. A request without
//! `Content-Length` has a zero-length body (RFC 9112 §6.3) — that is
//! the correct reading for every method, not just GET. Error responses
//! always close the connection; successful responses carry an accurate
//! `Content-Length` plus an explicit `Connection: keep-alive` or
//! `Connection: close`.
//!
//! `/metrics` is rendered **on demand**, at most once per
//! [`ServerConfig::interval`] (the previous architecture re-rendered on
//! a dedicated publisher thread every interval, which kept an idle
//! server waking up forever). Scrapes between renders are served from
//! the cached page, so a scrape storm still costs one snapshot per
//! interval.
//!
//! The exposition contains every counter as `entmatcher_<name>_total`,
//! every registry gauge as `entmatcher_<name>`, every histogram as a
//! native Prometheus histogram with power-of-two `le` bounds,
//! per-span-name aggregates, an `entmatcher_up 1` gauge, process memory
//! gauges ([`render_process_gauges`]), and — from this module's own
//! connection accounting — the `http.open_connections` gauge, the
//! `http.requests_per_conn` histogram (observed when a connection
//! closes), and the `http.rejected` admission counter.
//!
//! Registry metric names may carry one label using the
//! [`super::labeled`] convention (`base{key="value"}`): the renderer
//! splits the name at the first `{`, declares one `# TYPE` per base
//! family, and merges the label block into every sample line — for
//! histograms alongside the `le` bucket label. This is how the serving
//! layer gets per-endpoint `entmatcher_request_seconds` histograms.
//!
//! [`MetricsServer::shutdown`] (or dropping the server) stops the stack
//! **draining in flight work**: the listener is woken and joined first
//! (no new admissions), then every open connection's read side is shut
//! down — a worker blocked waiting for the next keep-alive request sees
//! EOF and exits, while a worker mid-request finishes handling and
//! writes its response before noticing — and finally the workers are
//! joined. A request that was being served when shutdown began always
//! completes, which is what lets `--trace` exports carry complete span
//! trees for every answered request.
//!
//! The CLI starts a server when `--metrics ADDR` or
//! `ENTMATCHER_METRICS_ADDR` is set, holding it open for the duration of
//! the command (plus `ENTMATCHER_METRICS_LINGER_MS`, so short commands
//! stay scrapable).

use super::{Telemetry, Trace, UNDERFLOW_BUCKET};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Environment variable naming the address to expose metrics on.
pub const ENV_ADDR: &str = "ENTMATCHER_METRICS_ADDR";

/// Environment variable: how long (milliseconds) the CLI keeps the server
/// alive after its command finishes.
pub const ENV_LINGER_MS: &str = "ENTMATCHER_METRICS_LINGER_MS";

/// The `ENTMATCHER_METRICS_ADDR` setting, normalized: `None` when unset,
/// empty, whitespace-only, or `0` (the conventional "explicitly
/// disabled" value shared by the `ENTMATCHER_*` switches).
pub fn env_metrics_addr() -> Option<String> {
    normalize_addr(std::env::var(ENV_ADDR).ok().as_deref())
}

/// Pure normalization behind [`env_metrics_addr`]: trims surrounding
/// whitespace, then treats empty and `0` as unset.
pub fn normalize_addr(value: Option<&str>) -> Option<String> {
    let v = value?.trim();
    if v.is_empty() || v == "0" {
        None
    } else {
        Some(v.to_owned())
    }
}

/// The `ENTMATCHER_METRICS_LINGER_MS` setting (0 when unset or
/// unparsable).
pub fn env_linger() -> Duration {
    Duration::from_millis(
        std::env::var(ENV_LINGER_MS)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
    )
}

/// Maximum accepted request-head size; anything larger gets 431.
const MAX_HEAD_BYTES: usize = 8192;

/// Maximum accepted request-body size; anything larger gets 413.
const MAX_BODY_BYTES: usize = 1 << 20;

/// Per-read socket timeout once a request is partially received: a
/// client that stalls mid-request is cut off on this cadence (the
/// between-requests wait uses [`ServerConfig::idle_timeout`] instead).
const IO_TIMEOUT: Duration = Duration::from_millis(2000);

/// Connection-model tuning for [`MetricsServer::start_with_config`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Minimum interval between `/metrics` re-renders; scrapes inside
    /// the window are served from the cached page.
    pub interval: Duration,
    /// Connection-worker threads — the keep-alive service parallelism.
    pub workers: usize,
    /// Admission cap on open connections; arrivals beyond it fast-fail
    /// with `503 Retry-After` (counted in `http.rejected`).
    pub max_conns: usize,
    /// Keep-alive idle eviction: a connection with no request bytes for
    /// this long is closed, so a slow or silent client cannot hold a
    /// worker forever.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            interval: Duration::from_millis(250),
            workers: 16,
            max_conns: 256,
            idle_timeout: Duration::from_secs(5),
        }
    }
}

/// A parsed HTTP request, as delivered to a custom route handler.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Request path (no query parsing — exact match).
    pub path: String,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// A response produced by a custom route handler.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status line suffix, e.g. `"200 OK"`.
    pub status: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// Extra response headers (name, value) — e.g. `Retry-After` on
    /// admission-control responses.
    pub headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A plain-text response with an arbitrary status.
    pub fn text(status: &'static str, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain",
            body: body.into(),
            headers: Vec::new(),
        }
    }

    /// A `200 OK` JSON response.
    pub fn json(body: String) -> Response {
        Response {
            status: "200 OK",
            content_type: "application/json",
            body,
            headers: Vec::new(),
        }
    }

    /// A `400 Bad Request` plain-text response.
    pub fn bad_request(msg: &str) -> Response {
        Response::text("400 Bad Request", format!("{msg}\n"))
    }

    /// A `429 Too Many Requests` with a `Retry-After` hint — the
    /// serving layer's inflight admission fast-fail.
    pub fn too_many_requests(retry_after_s: u64) -> Response {
        let mut resp = Response::text("429 Too Many Requests", "server overloaded, retry later\n");
        resp.headers.push(("Retry-After", retry_after_s.to_string()));
        resp
    }
}

/// Custom routes plugged into the exposition listener: the serving layer
/// registers `POST /match/topk` (and friends) here so queries, `/metrics`,
/// and `/healthz` share one socket. The handler returns `None` to decline
/// a request on one of its paths (wrong method — the server then answers
/// 405, since the path itself is known).
#[derive(Clone)]
pub struct Routes {
    /// Paths the handler owns (used for the 405-vs-404 distinction).
    pub paths: Vec<String>,
    /// The handler, consulted before the built-in routes.
    pub handler: Arc<dyn Fn(&Request) -> Option<Response> + Send + Sync>,
}

/// The `/metrics` page cache: rendered lazily, at most once per
/// [`ServerConfig::interval`].
struct PageCache {
    text: String,
    rendered_at: Option<Instant>,
}

/// State shared by the listener, the connection workers, and shutdown.
struct Shared {
    registry: &'static Telemetry,
    routes: Option<Routes>,
    cfg: ServerConfig,
    stop: AtomicBool,
    page: Mutex<PageCache>,
    /// Admitted sockets awaiting a worker.
    pending: Mutex<VecDeque<(u64, TcpStream)>>,
    available: Condvar,
    /// Read-half handles of every open connection, keyed by connection
    /// id — shutdown half-closes these to wake blocked keep-alive reads.
    /// Only the listener inserts, so once the listener is joined the map
    /// is complete.
    conns: Mutex<HashMap<u64, TcpStream>>,
    open: AtomicU64,
    next_conn: AtomicU64,
}

impl Shared {
    /// Serves `/metrics`, re-rendering at most once per interval.
    fn metrics_page(&self) -> String {
        let mut page = self.page.lock().expect("metrics page lock poisoned");
        let now = Instant::now();
        let stale = page
            .rendered_at
            .is_none_or(|at| now.duration_since(at) >= self.cfg.interval);
        if stale {
            let mut text = render_prometheus(&self.registry.snapshot());
            // Process memory gauges are sampled at render time (they are
            // live process state, not part of the trace snapshot, which
            // keeps `render_prometheus` a pure function of its input).
            text.push_str(&render_process_gauges());
            page.text = text;
            page.rendered_at = Some(now);
        }
        page.text.clone()
    }
}

/// A running exposition/serving HTTP server (see the module docs).
pub struct MetricsServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`, port 0 for ephemeral) and
    /// starts serving `registry` with the default [`ServerConfig`].
    pub fn start(registry: &'static Telemetry, addr: &str) -> std::io::Result<MetricsServer> {
        Self::start_with_config(registry, addr, ServerConfig::default(), None)
    }

    /// Fully-configured start: binds `addr`, spawns the blocking-accept
    /// listener and the connection-worker pool.
    pub fn start_with_config(
        registry: &'static Telemetry,
        addr: &str,
        cfg: ServerConfig,
        routes: Option<Routes>,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let max_conns = cfg.max_conns.max(1);
        let shared = Arc::new(Shared {
            registry,
            routes,
            cfg: ServerConfig {
                workers,
                max_conns,
                ..cfg
            },
            stop: AtomicBool::new(false),
            page: Mutex::new(PageCache {
                text: String::new(),
                rendered_at: None,
            }),
            pending: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            conns: Mutex::new(HashMap::new()),
            open: AtomicU64::new(0),
            next_conn: AtomicU64::new(0),
        });

        let mut threads = Vec::with_capacity(workers + 1);
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("http-listener".into())
                    .spawn(move || listener_loop(&shared, listener))
                    .expect("spawn http listener"),
            );
        }
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("http-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn http worker"),
            );
        }

        Ok(MetricsServer {
            addr: local,
            shared,
            threads,
        })
    }

    /// The actually-bound address (resolves port 0 to the assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server, draining in-flight requests: no new admissions,
    /// every request already being handled is answered, then the threads
    /// are joined.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        self.shared.stop.store(true, Ordering::Relaxed);
        // Wake the blocking accept with a self-connect (loopback when the
        // bind address is a wildcard). If the connect fails the listener
        // is already gone; joining still works.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() {
                std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST)
            } else {
                std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST)
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        let listener = self.threads.remove(0);
        let _ = listener.join();
        // The listener is down, so the connection map is final: half-close
        // every open connection's read side. A worker blocked waiting for
        // the next keep-alive request sees EOF; a worker mid-request
        // finishes and writes its response first (the write half stays
        // intact) — that is the drain guarantee.
        for stream in self.shared.conns.lock().expect("conn map lock poisoned").values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        self.shared.available.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        // Admitted-but-unserved sockets are dropped (closed) — workers
        // exit without picking up new work once stop is set.
        self.shared
            .pending
            .lock()
            .expect("pending queue lock poisoned")
            .clear();
        self.shared.conns.lock().expect("conn map lock poisoned").clear();
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// The blocking-accept listener: admission control plus handoff to the
/// worker pool. Zero syscalls while idle — the thread sits in accept.
fn listener_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                // Transient accept failure (EMFILE and friends): back off
                // briefly instead of spinning. Not an idle-path sleep —
                // this only runs while accept is erroring.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if shared.stop.load(Ordering::Relaxed) {
            // The shutdown self-connect (or a client racing it) — drop it
            // and exit.
            return;
        }
        if shared.open.load(Ordering::Relaxed) >= shared.cfg.max_conns as u64 {
            shared.registry.add("http.rejected", 1);
            reject_at_capacity(stream);
            continue;
        }
        // Persistent connections + small request/response exchanges are
        // exactly the pattern Nagle's algorithm stalls (the response's
        // final segment waits out the client's delayed ACK): disable it.
        let _ = stream.set_nodelay(true);
        let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared
                .conns
                .lock()
                .expect("conn map lock poisoned")
                .insert(id, clone);
        }
        let open = shared.open.fetch_add(1, Ordering::Relaxed) + 1;
        shared.registry.set_gauge("http.open_connections", open as f64);
        shared
            .pending
            .lock()
            .expect("pending queue lock poisoned")
            .push_back((id, stream));
        shared.available.notify_one();
    }
}

/// Fast-fail for an arrival beyond the connection cap: one short write,
/// then close. Never blocks the listener for long.
fn reject_at_capacity(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let body = "server at connection capacity\n";
    let _ = write!(
        stream,
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\n\
         Content-Length: {}\r\nRetry-After: 1\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

/// A connection worker: picks up admitted sockets and services each as a
/// keep-alive connection until it closes.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let (id, stream) = {
            let mut pending = shared.pending.lock().expect("pending queue lock poisoned");
            loop {
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(next) = pending.pop_front() {
                    break next;
                }
                pending = shared
                    .available
                    .wait(pending)
                    .expect("pending queue lock poisoned");
            }
        };
        serve_connection(shared, id, stream);
    }
}

/// Services one connection for its whole lifetime: parse a request from
/// the reused buffer, dispatch, respond, repeat while keep-alive holds.
fn serve_connection(shared: &Arc<Shared>, id: u64, mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut served: u64 = 0;
    loop {
        match read_request(&mut stream, &mut buf, shared.cfg.idle_timeout) {
            ReadOutcome::Request { req, keep_alive } => {
                served += 1;
                let (resp, head_only) = dispatch(shared, &req);
                // A shutdown that began while this request was being
                // handled still gets its response (drain), but the
                // connection closes right after.
                let keep_alive = keep_alive && !shared.stop.load(Ordering::Relaxed);
                if !respond(&mut stream, &resp, head_only, keep_alive) || !keep_alive {
                    break;
                }
            }
            ReadOutcome::Error(resp) => {
                // Protocol errors close the connection: the framing is no
                // longer trustworthy.
                respond(&mut stream, &resp, false, false);
                break;
            }
            ReadOutcome::Close => break,
        }
    }
    shared.conns.lock().expect("conn map lock poisoned").remove(&id);
    let open = shared.open.fetch_sub(1, Ordering::Relaxed) - 1;
    shared.registry.set_gauge("http.open_connections", open as f64);
    if served > 0 {
        // Port probes (connect-then-close) are not connections in any
        // useful sense; keep them out of the reuse histogram.
        shared.registry.observe("http.requests_per_conn", served as f64);
    }
}

/// Routes one parsed request to the custom handler or the built-ins and
/// returns `(response, head_only)`.
fn dispatch(shared: &Shared, req: &Request) -> (Response, bool) {
    // HEAD is answered exactly like GET minus the body (same status and
    // Content-Length), per RFC 9110.
    let head_only = req.method == "HEAD";
    let lookup_method = if head_only { "GET" } else { req.method.as_str() };
    let lookup = Request {
        method: lookup_method.to_owned(),
        ..req.clone()
    };
    if let Some(routes) = &shared.routes {
        if let Some(resp) = (routes.handler)(&lookup) {
            return (resp, head_only);
        }
    }
    let resp = match (lookup_method, req.path.as_str()) {
        ("GET", "/metrics") => Response {
            status: "200 OK",
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: shared.metrics_page(),
            headers: Vec::new(),
        },
        ("GET", "/healthz") => Response::text("200 OK", "ok\n"),
        (_, path) => {
            let known = path == "/metrics"
                || path == "/healthz"
                || shared
                    .routes
                    .as_ref()
                    .is_some_and(|r| r.paths.iter().any(|p| p == path));
            if known {
                Response::text("405 Method Not Allowed", "method not allowed\n")
            } else {
                Response::text("404 Not Found", "not found\n")
            }
        }
    };
    (resp, head_only)
}

/// Outcome of [`read_request`]: a parsed request plus its keep-alive
/// verdict, a protocol-level error response (always closes), or a clean
/// close (client EOF between requests, or idle-timeout eviction).
enum ReadOutcome {
    Request { req: Request, keep_alive: bool },
    Error(Response),
    Close,
}

/// Whether a read error is the socket timeout firing (both flavors the
/// platform may report for `SO_RCVTIMEO`).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads and parses one request from the stream, carrying leftover bytes
/// in `buf` across calls (the keep-alive buffer reuse): head up to
/// [`MAX_HEAD_BYTES`] (431 beyond), then a `Content-Length` body up to
/// [`MAX_BODY_BYTES`] (413 beyond). While `buf` holds no partial request
/// the read waits up to `idle` (timeout → clean close, the keep-alive
/// eviction); once bytes of a request have arrived the per-read timeout
/// drops to [`IO_TIMEOUT`] so a stalled client gets a 400, never a
/// worker held hostage.
fn read_request(stream: &mut TcpStream, buf: &mut Vec<u8>, idle: Duration) -> ReadOutcome {
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        match buf.windows(4).position(|w| w == b"\r\n\r\n") {
            // The cap applies whether or not the terminator has arrived:
            // a complete-but-huge head is just as rejected as an endless
            // one.
            Some(pos) if pos + 4 <= MAX_HEAD_BYTES => break pos + 4,
            Some(_) => {
                return ReadOutcome::Error(Response::text(
                    "431 Request Header Fields Too Large",
                    "request head too large\n",
                ));
            }
            None if buf.len() > MAX_HEAD_BYTES => {
                return ReadOutcome::Error(Response::text(
                    "431 Request Header Fields Too Large",
                    "request head too large\n",
                ));
            }
            None => {}
        }
        let _ = stream.set_read_timeout(Some(if buf.is_empty() { idle } else { IO_TIMEOUT }));
        match stream.read(&mut chunk) {
            Ok(0) => {
                // EOF: between requests it is a clean close (first
                // request or a keep-alive client hanging up); mid-head it
                // is a protocol error worth diagnosing.
                return if buf.is_empty() {
                    ReadOutcome::Close
                } else {
                    ReadOutcome::Error(Response::bad_request("incomplete request head"))
                };
            }
            Err(e) if is_timeout(&e) && buf.is_empty() => {
                // Idle-timeout eviction: no request in progress, nothing
                // received for `idle` — close so the worker frees up.
                return ReadOutcome::Close;
            }
            Err(_) => {
                return ReadOutcome::Error(Response::bad_request("incomplete request head"));
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.lines();
    let mut parts = lines.next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let version = parts.next().unwrap_or("");
    if method.is_empty() || !path.starts_with('/') {
        return ReadOutcome::Error(Response::bad_request("malformed request line"));
    }
    let mut content_length: Option<usize> = None;
    let mut connection: Option<String> = None;
    let mut transfer_encoding = false;
    for (key, value) in lines.filter_map(|l| l.split_once(':')) {
        if key.eq_ignore_ascii_case("content-length") {
            match value.trim().parse::<usize>() {
                Ok(n) => content_length = Some(n),
                Err(_) => {
                    return ReadOutcome::Error(Response::bad_request("malformed Content-Length"));
                }
            }
        } else if key.eq_ignore_ascii_case("connection") {
            connection = Some(value.trim().to_ascii_lowercase());
        } else if key.eq_ignore_ascii_case("transfer-encoding") {
            transfer_encoding = true;
        }
    }
    if transfer_encoding {
        // Chunked (or any Transfer-Encoding) framing is unsupported; the
        // client must resend with a declared length.
        return ReadOutcome::Error(Response::text(
            "411 Length Required",
            "transfer-encoding not supported; send Content-Length\n",
        ));
    }
    // No Content-Length (and no Transfer-Encoding) means a zero-length
    // body for any method, per RFC 9112 §6.3.
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return ReadOutcome::Error(Response::text(
            "413 Content Too Large",
            "request body too large\n",
        ));
    }
    while buf.len() < head_end + content_length {
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => {
                return ReadOutcome::Error(Response::bad_request("incomplete request body"));
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    let body = buf[head_end..head_end + content_length].to_vec();
    // Carry bytes past this request (a pipelined next request) over to
    // the next parse instead of dropping them.
    buf.drain(..head_end + content_length);
    // Keep-alive semantics: HTTP/1.1 (and anything newer) defaults to
    // persistent unless `Connection: close`; HTTP/1.0 (or a missing
    // version) closes unless the client explicitly asked to keep alive.
    let keep_alive = if version.eq_ignore_ascii_case("HTTP/1.0") || version.is_empty() {
        connection.as_deref() == Some("keep-alive")
    } else {
        connection.as_deref() != Some("close")
    };
    ReadOutcome::Request {
        req: Request {
            method: method.to_owned(),
            path: path.to_owned(),
            body,
        },
        keep_alive,
    }
}

/// Writes one response; returns false if the write failed (connection is
/// then closed regardless of keep-alive). Head and body go out in a
/// single write so the response is one TCP segment whenever it fits —
/// keep-alive throughput lives and dies on not fragmenting these.
fn respond(stream: &mut TcpStream, resp: &Response, head_only: bool, keep_alive: bool) -> bool {
    let mut msg = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        resp.status,
        resp.content_type,
        resp.body.len()
    );
    for (name, value) in &resp.headers {
        let _ = write!(msg, "{name}: {value}\r\n");
    }
    let _ = write!(
        msg,
        "Connection: {}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    );
    if !head_only {
        msg.push_str(&resp.body);
    }
    stream.write_all(msg.as_bytes()).is_ok() && stream.flush().is_ok()
}

/// Sanitizes a registry metric name into a Prometheus metric name: every
/// character outside `[a-zA-Z0-9_:]` becomes `_` (dots included, so
/// `sinkhorn.col_dev` → `sinkhorn_col_dev`).
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Escapes a label value per the exposition format: backslash, quote, and
/// newline.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Splits a registry metric name into its base and optional label block
/// (the [`super::labeled`] convention): `req{k="v"}` → `("req",
/// Some("k=\"v\""))`, a plain name maps to `(name, None)`.
fn split_labeled(name: &str) -> (&str, Option<&str>) {
    match name.split_once('{') {
        Some((base, rest)) => (base, Some(rest.strip_suffix('}').unwrap_or(rest))),
        None => (name, None),
    }
}

/// `{k="v"}` / `{k="v",le="2"}` / `{le="2"}` / `` — the sample-line label
/// block for an optional metric label merged with optional extra pairs.
fn label_block(label: Option<&str>, extra: Option<&str>) -> String {
    match (label, extra) {
        (Some(l), Some(e)) => format!("{{{l},{e}}}"),
        (Some(l), None) => format!("{{{l}}}"),
        (None, Some(e)) => format!("{{{e}}}"),
        (None, None) => String::new(),
    }
}

/// Appends one gauge sample (with its `# TYPE` declaration) — the shared
/// path for registry gauges and the process-memory gauges.
fn render_gauge(out: &mut String, family: &str, help: Option<&str>, label: Option<&str>, value: f64) {
    if let Some(help) = help {
        let _ = writeln!(out, "# HELP {family} {help}");
    }
    let _ = writeln!(out, "# TYPE {family} gauge");
    let mut v = String::new();
    write_f64(&mut v, value);
    let _ = writeln!(out, "{family}{} {v}", label_block(label, None));
}

/// Renders a trace snapshot as Prometheus text exposition (format
/// version 0.0.4). Deterministic: metric families appear in sorted-name
/// order (the snapshot's own order), spans grouped by name, labeled
/// registry metrics (`base{key="value"}` names) grouped into one family
/// with a single `# TYPE` declaration.
pub fn render_prometheus(trace: &Trace) -> String {
    use std::collections::BTreeMap;
    let mut out = String::new();

    out.push_str("# HELP entmatcher_up Whether the entmatcher process is serving metrics.\n");
    out.push_str("# TYPE entmatcher_up gauge\n");
    out.push_str("entmatcher_up 1\n");

    let mut counter_families: BTreeMap<String, Vec<(Option<&str>, u64)>> = BTreeMap::new();
    for counter in &trace.counters {
        let (base, label) = split_labeled(&counter.name);
        counter_families
            .entry(format!("entmatcher_{}_total", sanitize(base)))
            .or_default()
            .push((label, counter.value));
    }
    for (family, samples) in &counter_families {
        let _ = writeln!(out, "# TYPE {family} counter");
        for (label, value) in samples {
            let _ = writeln!(out, "{family}{} {value}", label_block(*label, None));
        }
    }

    let mut gauge_families: BTreeMap<String, Vec<(Option<&str>, f64)>> = BTreeMap::new();
    for gauge in &trace.gauges {
        let (base, label) = split_labeled(&gauge.name);
        gauge_families
            .entry(format!("entmatcher_{}", sanitize(base)))
            .or_default()
            .push((label, gauge.value));
    }
    for (family, samples) in &gauge_families {
        let _ = writeln!(out, "# TYPE {family} gauge");
        for (label, value) in samples {
            let mut v = String::new();
            write_f64(&mut v, *value);
            let _ = writeln!(out, "{family}{} {v}", label_block(*label, None));
        }
    }

    let mut hist_families: BTreeMap<String, Vec<(Option<&str>, &super::Histogram)>> =
        BTreeMap::new();
    for hist in &trace.histograms {
        let (base, label) = split_labeled(&hist.name);
        hist_families
            .entry(format!("entmatcher_{}", sanitize(base)))
            .or_default()
            .push((label, hist));
    }
    for (family, series) in &hist_families {
        let _ = writeln!(out, "# TYPE {family} histogram");
        for (label, hist) in series {
            // Underflow samples (zero / negative / NaN) sit below every
            // positive bucket edge, so they seed the cumulative count.
            let mut cum: u64 = hist
                .buckets
                .iter()
                .filter(|&&(b, _)| b == UNDERFLOW_BUCKET)
                .map(|&(_, c)| c)
                .sum();
            for &(bucket, count) in &hist.buckets {
                if bucket == UNDERFLOW_BUCKET {
                    continue;
                }
                cum += count;
                let mut le = String::new();
                write_f64(&mut le, (bucket as f64 + 1.0).exp2());
                let le = format!("le=\"{le}\"");
                let _ = writeln!(out, "{family}_bucket{} {cum}", label_block(*label, Some(&le)));
            }
            let _ = writeln!(
                out,
                "{family}_bucket{} {}",
                label_block(*label, Some("le=\"+Inf\"")),
                hist.count
            );
            let mut sum = String::new();
            write_f64(&mut sum, hist.sum);
            let _ = writeln!(out, "{family}_sum{} {sum}", label_block(*label, None));
            let _ = writeln!(out, "{family}_count{} {}", label_block(*label, None), hist.count);
        }
    }

    // Per-span-name aggregates over completed spans.
    let mut by_name: std::collections::BTreeMap<&str, (u64, u64, u64)> =
        std::collections::BTreeMap::new();
    for span in &trace.spans {
        let slot = by_name.entry(&span.name).or_insert((0, 0, 0));
        slot.0 += span.duration_ns;
        slot.1 += 1;
        slot.2 += span.bytes;
    }
    if !by_name.is_empty() {
        out.push_str("# TYPE entmatcher_span_seconds_total counter\n");
        for (name, &(ns, _, _)) in &by_name {
            let mut secs = String::new();
            write_f64(&mut secs, ns as f64 / 1e9);
            let _ = writeln!(
                out,
                "entmatcher_span_seconds_total{{span=\"{}\"}} {secs}",
                escape_label(name)
            );
        }
        out.push_str("# TYPE entmatcher_span_calls_total counter\n");
        for (name, &(_, calls, _)) in &by_name {
            let _ = writeln!(
                out,
                "entmatcher_span_calls_total{{span=\"{}\"}} {calls}",
                escape_label(name)
            );
        }
        out.push_str("# TYPE entmatcher_span_bytes_total counter\n");
        for (name, &(_, _, bytes)) in &by_name {
            let _ = writeln!(
                out,
                "entmatcher_span_bytes_total{{span=\"{}\"}} {bytes}",
                escape_label(name)
            );
        }
    }
    out
}

/// Renders the process memory gauges appended after the registry-derived
/// exposition: `entmatcher_rss_bytes` whenever procfs is available (on
/// every platform that has it, regardless of `ENTMATCHER_MEM`), plus the
/// counting-allocator gauges `entmatcher_heap_live_bytes`,
/// `entmatcher_heap_peak_bytes`, and `entmatcher_alloc_total` when
/// counting is enabled.
pub fn render_process_gauges() -> String {
    let mut out = String::new();
    if let Some(rss) = crate::alloc::rss_bytes() {
        render_gauge(
            &mut out,
            "entmatcher_rss_bytes",
            Some("Resident set size (/proc/self/statm)."),
            None,
            rss as f64,
        );
    }
    if crate::alloc::enabled() {
        let stats = crate::alloc::stats();
        render_gauge(&mut out, "entmatcher_heap_live_bytes", None, None, stats.live_bytes as f64);
        render_gauge(&mut out, "entmatcher_heap_peak_bytes", None, None, stats.peak_bytes as f64);
        out.push_str("# TYPE entmatcher_alloc_total counter\n");
        let _ = writeln!(out, "entmatcher_alloc_total {}", stats.allocs);
        out.push_str("# TYPE entmatcher_alloc_bytes_total counter\n");
        let _ = writeln!(out, "entmatcher_alloc_bytes_total {}", stats.total_bytes);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Telemetry;

    #[test]
    fn sanitize_and_escape() {
        assert_eq!(sanitize("sinkhorn.col_dev"), "sinkhorn_col_dev");
        assert_eq!(sanitize("a-b c:d"), "a_b_c:d");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn addr_normalization() {
        assert_eq!(normalize_addr(None), None);
        assert_eq!(normalize_addr(Some("")), None);
        assert_eq!(normalize_addr(Some("0")), None);
        assert_eq!(normalize_addr(Some("   ")), None, "whitespace-only is unset");
        assert_eq!(normalize_addr(Some("\t 0 \n")), None, "whitespace around 0 is unset");
        assert_eq!(
            normalize_addr(Some(" 127.0.0.1:9464 ")),
            Some("127.0.0.1:9464".to_owned()),
            "surrounding whitespace is trimmed"
        );
    }

    #[test]
    fn response_helpers_carry_headers() {
        let resp = Response::too_many_requests(2);
        assert_eq!(resp.status, "429 Too Many Requests");
        assert_eq!(resp.headers, vec![("Retry-After", "2".to_string())]);
        assert!(Response::json("{}".into()).headers.is_empty());
        assert_eq!(Response::text("200 OK", "ok\n").content_type, "text/plain");
    }

    #[test]
    fn labeled_metrics_render_as_one_family() {
        use crate::telemetry::labeled;
        let t = Telemetry::new();
        t.set_enabled(true);
        for v in [0.010, 0.020] {
            t.observe(&labeled("request_seconds", "endpoint", "/match/topk"), v);
        }
        t.observe(&labeled("request_seconds", "endpoint", "/healthz"), 0.001);
        t.add(&labeled("http.responses", "code", "200"), 3);
        t.add(&labeled("http.responses", "code", "404"), 1);
        let text = render_prometheus(&t.snapshot());
        // One TYPE declaration per family, label blocks merged with `le`.
        assert_eq!(text.matches("# TYPE entmatcher_request_seconds histogram").count(), 1);
        assert!(
            text.contains("entmatcher_request_seconds_bucket{endpoint=\"/match/topk\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("entmatcher_request_seconds_count{endpoint=\"/match/topk\"} 2"));
        assert!(text.contains("entmatcher_request_seconds_count{endpoint=\"/healthz\"} 1"));
        assert_eq!(text.matches("# TYPE entmatcher_http_responses_total counter").count(), 1);
        assert!(text.contains("entmatcher_http_responses_total{code=\"200\"} 3"));
        assert!(text.contains("entmatcher_http_responses_total{code=\"404\"} 1"));
    }

    #[test]
    fn registry_gauges_render_with_gauge_type() {
        let t = Telemetry::new();
        t.set_enabled(true);
        t.set_gauge("serve.queue_depth", 4.0);
        t.set_gauge("serve.cache_hit_ratio", 0.25);
        let text = render_prometheus(&t.snapshot());
        assert!(text.contains("# TYPE entmatcher_serve_queue_depth gauge"), "{text}");
        assert!(text.contains("entmatcher_serve_queue_depth 4"), "{text}");
        assert!(text.contains("entmatcher_serve_cache_hit_ratio 0.25"), "{text}");
    }

    #[test]
    fn exposition_counts_histogram_cumulatively() {
        let t = Telemetry::new();
        t.set_enabled(true);
        for v in [0.5, 1.0, 1.5, 2.0, 0.0, f64::NAN] {
            t.observe("dev", v);
        }
        t.add("rounds", 5);
        drop(t.span("stage"));
        let text = render_prometheus(&t.snapshot());
        assert!(text.contains("entmatcher_up 1"));
        assert!(text.contains("entmatcher_rounds_total 5"));
        // Buckets: underflow {0, NaN} seeds cum=2; le=1 (bucket -1) -> 3;
        // le=2 (bucket 0) -> 5; le=4 (bucket 1) -> 6; +Inf -> 6.
        assert!(text.contains("entmatcher_dev_bucket{le=\"1\"} 3"), "{text}");
        assert!(text.contains("entmatcher_dev_bucket{le=\"2\"} 5"), "{text}");
        assert!(text.contains("entmatcher_dev_bucket{le=\"4\"} 6"), "{text}");
        assert!(text.contains("entmatcher_dev_bucket{le=\"+Inf\"} 6"), "{text}");
        assert!(text.contains("entmatcher_dev_sum 5"), "{text}");
        assert!(text.contains("entmatcher_dev_count 6"), "{text}");
        assert!(text.contains("entmatcher_span_calls_total{span=\"stage\"} 1"));
        assert!(text.contains("entmatcher_span_seconds_total{span=\"stage\"}"));
    }

    #[test]
    fn process_gauges_always_include_rss_on_linux() {
        let text = render_process_gauges();
        if cfg!(target_os = "linux") {
            assert!(
                text.contains("entmatcher_rss_bytes "),
                "RSS gauge must be present even with ENTMATCHER_MEM off: {text}"
            );
        }
        // Heap gauges appear only when the counting allocator is on; the
        // off-path guarantee is pinned in `tests/alloc_off.rs`, where no
        // concurrent test can flip the switch mid-render.
    }
}
