//! The HTTP/1.1 transport: a tiny std-only persistent-connection server
//! that answers every request from one [`Routes`] table. It owns the
//! sockets and knows no paths of its own: `telemetry::expose` supplies
//! the metrics and health routes, `core::serve` the matching service's
//! top-k route, and the CLI its shutdown route, all as ordinary routes.
//!
//! # Connection model
//!
//! [`Server::bind`] binds a `std::net::TcpListener`
//! (port 0 picks an ephemeral port — the bound address is available via
//! [`Server::addr`]) and spawns:
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
//! A request to a path outside the table gets 404, and one the owning
//! handler declines (a wrong method) gets 405. HEAD is answered as GET
//! minus the body. Each request a route answers is timed into the
//! registry's `request_seconds{endpoint="<path>"}` histogram (the
//! [`crate::telemetry::labeled`] convention), next to this module's own
//! connection accounting: the `http.open_connections` gauge, the
//! `http.requests_per_conn` histogram (observed when a connection
//! closes), and the `http.rejected` admission counter.
//!
//! [`Server::shutdown`] (or dropping the server) stops the stack
//! **draining in flight work**: the listener is woken and joined first
//! (no new admissions), then every open connection's read side is shut
//! down — a worker blocked waiting for the next keep-alive request sees
//! EOF and exits, while a worker mid-request finishes handling and
//! writes its response before noticing — and finally the workers are
//! joined. A request that was being served when shutdown began always
//! completes, which is what lets `--trace` exports carry complete span
//! trees for every answered request.

use crate::telemetry::{labeled, Telemetry};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maximum accepted request-head size; anything larger gets 431.
const MAX_HEAD_BYTES: usize = 8192;

/// Maximum accepted request-body size; anything larger gets 413.
const MAX_BODY_BYTES: usize = 1 << 20;

/// Per-read socket timeout once a request is partially received: a
/// client that stalls mid-request is cut off on this cadence (the
/// between-requests wait uses [`ServerConfig::idle_timeout`] instead).
const IO_TIMEOUT: Duration = Duration::from_millis(2000);

/// Connection-model tuning for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
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
            workers: 16,
            max_conns: 256,
            idle_timeout: Duration::from_secs(5),
        }
    }
}

/// A parsed HTTP request, as delivered to a route handler.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Request path (no query parsing — exact match).
    pub path: String,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// A response produced by a route handler.
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

/// A route handler, consulted only for requests to one of its table's
/// paths: it answers, or returns `None` to decline (a wrong method — the
/// server then answers 405, since the path itself is known).
pub type Handler = Arc<dyn Fn(&Request) -> Option<Response> + Send + Sync>;

/// The route table a [`Server`] answers from: the paths it owns and the
/// handler that answers them. Tables compose with [`Routes::with`], so
/// the exposition's routes and the serving layer's share one socket.
#[derive(Clone)]
pub struct Routes {
    /// Paths the handler owns (used for the 405-vs-404 distinction).
    pub paths: Vec<String>,
    /// The handler, consulted for every request to one of `paths`.
    pub handler: Handler,
}

impl Routes {
    /// A one-route table: `method path`, answered by `answer`.
    pub fn route(
        method: &'static str,
        path: &str,
        answer: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> Routes {
        Routes {
            paths: vec![path.to_owned()],
            handler: Arc::new(move |req| (req.method == method).then(|| answer(req))),
        }
    }

    /// This table plus `other`'s routes. Each handler is consulted only
    /// for its own paths; where both own a path, this table's is asked
    /// first.
    pub fn with(self, other: Routes) -> Routes {
        let paths = self.paths.iter().chain(&other.paths).cloned().collect();
        let tables = [self, other];
        Routes {
            paths,
            handler: Arc::new(move |req| {
                let mut own = tables.iter().filter(|t| t.paths.contains(&req.path));
                own.find_map(|t| (t.handler)(req))
            }),
        }
    }
}

/// State shared by the listener, the connection workers, and shutdown.
struct Shared {
    registry: &'static Telemetry,
    routes: Routes,
    cfg: ServerConfig,
    stop: AtomicBool,
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

/// A running HTTP server (see the module docs).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:9464`, port 0 for ephemeral), spawns
    /// the blocking-accept listener and the connection-worker pool, and
    /// answers from `routes`. Connection metrics and `request_seconds`
    /// land in `registry`.
    pub fn bind(
        registry: &'static Telemetry,
        addr: &str,
        cfg: ServerConfig,
        routes: Routes,
    ) -> std::io::Result<Server> {
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

        Ok(Server {
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

impl Drop for Server {
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
    let idle = shared.cfg.idle_timeout;
    loop {
        let outcome = read_request(&mut buf, |chunk, mid_request| {
            let _ = stream.set_read_timeout(Some(if mid_request { IO_TIMEOUT } else { idle }));
            stream.read(chunk)
        });
        match outcome {
            ReadOutcome::Request { req, keep_alive } => {
                served += 1;
                let head_only = req.method == "HEAD";
                let (resp, keep_alive) = match dispatch(shared, req) {
                    // A shutdown that began while this request was being
                    // handled still gets its response (drain), but the
                    // connection closes right after.
                    Some(resp) => (resp, keep_alive && !shared.stop.load(Ordering::Relaxed)),
                    // The handler panicked: answer 500 and close, and the
                    // worker lives on to serve other connections.
                    None => {
                        let resp = Response::text("500 Internal Server Error", "internal error\n");
                        (resp, false)
                    }
                };
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

/// Answers one parsed request from the route table, timing each answer
/// into `request_seconds{endpoint}`. `None` means the handler panicked:
/// the unwind stops here (counted in `http.panics`), so one bad request
/// cannot take its connection worker down with it.
fn dispatch(shared: &Shared, mut req: Request) -> Option<Response> {
    if !shared.routes.paths.contains(&req.path) {
        return Some(Response::text("404 Not Found", "not found\n"));
    }
    // HEAD is answered exactly like GET minus the body (same status and
    // Content-Length), per RFC 9110.
    if req.method == "HEAD" {
        req.method = "GET".to_owned();
    }
    let started = Instant::now();
    match std::panic::catch_unwind(AssertUnwindSafe(|| (shared.routes.handler)(&req))) {
        Ok(Some(resp)) => {
            if shared.registry.is_enabled() {
                let name = labeled("request_seconds", "endpoint", &req.path);
                shared.registry.observe(&name, started.elapsed().as_secs_f64());
            }
            Some(resp)
        }
        Ok(None) => Some(Response::text("405 Method Not Allowed", "method not allowed\n")),
        Err(_) => {
            shared.registry.add("http.panics", 1);
            None
        }
    }
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

/// Reads and parses one request, carrying leftover bytes in `buf` across
/// calls (the keep-alive buffer reuse): head up to [`MAX_HEAD_BYTES`]
/// (431 beyond), then a `Content-Length` body up to [`MAX_BODY_BYTES`]
/// (413 beyond). `read(chunk, mid_request)` is the byte source — the
/// connection's socket, or a byte slice in tests — and `mid_request`
/// says whether bytes of a request are already buffered, so the caller
/// picks the timeout: while `buf` holds no partial request the read
/// waits up to the idle timeout (timeout → clean close, the keep-alive
/// eviction); once bytes of a request have arrived the per-read timeout
/// drops to [`IO_TIMEOUT`] so a stalled client gets a 400, never a
/// worker held hostage.
fn read_request(
    buf: &mut Vec<u8>,
    mut read: impl FnMut(&mut [u8], bool) -> std::io::Result<usize>,
) -> ReadOutcome {
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        let end = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|pos| pos + 4);
        // The cap applies whether or not the terminator has arrived:
        // a complete-but-huge head is just as rejected as an endless
        // one.
        if end.unwrap_or(buf.len()) > MAX_HEAD_BYTES {
            return ReadOutcome::Error(Response::text(
                "431 Request Header Fields Too Large",
                "request head too large\n",
            ));
        }
        if let Some(end) = end {
            break end;
        }
        match read(&mut chunk, !buf.is_empty()) {
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
        match read(&mut chunk, true) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::{check, Config, Gen};
    use crate::rng::Rng;
    use crate::{prop_assert, prop_assert_eq};
    use std::io::ErrorKind;

    /// What the connection loop sees of one [`read_request`] call, with
    /// error responses reduced to their status.
    #[derive(Debug, Clone, PartialEq)]
    enum Seen {
        Request {
            method: String,
            path: String,
            body: Vec<u8>,
            keep_alive: bool,
        },
        Status(&'static str),
        Close,
    }

    /// Runs the connection loop's read side over in-memory `input`, handed
    /// out in reads of at most `max_read` bytes and ended by EOF (or, with
    /// `stall`, by a read timeout), until a close or an error response.
    /// Returns what each parse yielded and how many input bytes no parse
    /// consumed.
    fn drive(input: &[u8], max_read: usize, stall: bool) -> (Vec<Seen>, usize) {
        let (mut rest, mut buf, mut seen) = (input, Vec::new(), Vec::new());
        loop {
            // Every request consumes at least its blank line, so a parse
            // that keeps yielding requests must run out of input.
            assert!(seen.len() <= input.len() / 4, "parse makes no progress");
            let outcome = read_request(&mut buf, |chunk, _| {
                if rest.is_empty() && stall {
                    return Err(ErrorKind::WouldBlock.into());
                }
                let n = rest.len().min(chunk.len()).min(max_read);
                chunk[..n].copy_from_slice(&rest[..n]);
                rest = &rest[n..];
                Ok(n)
            });
            seen.push(match outcome {
                ReadOutcome::Request { req, keep_alive } => Seen::Request {
                    method: req.method,
                    path: req.path,
                    body: req.body,
                    keep_alive,
                },
                ReadOutcome::Error(resp) => Seen::Status(resp.status),
                ReadOutcome::Close => Seen::Close,
            });
            if !matches!(seen.last(), Some(Seen::Request { .. })) {
                return (seen, buf.len() + rest.len());
            }
        }
    }

    /// A short token for paths and header names and values.
    fn token(g: &mut Gen) -> String {
        let alphabet = b"abcxyz019._-/";
        (0..g.gen_range(1..12usize))
            .map(|_| *g.choose(alphabet) as char)
            .collect()
    }

    /// One well-formed request, with random method, version, header case,
    /// `Connection` choice and binary body, and what its parse must yield.
    fn gen_request(g: &mut Gen) -> (Vec<u8>, Seen) {
        let method = *g.choose(&["GET", "POST", "PUT", "DELETE", "HEAD"]);
        let path = format!("/{}", token(g));
        let http10 = g.gen_bool(0.2);
        let connections = [None, Some("close"), Some("keep-alive"), Some("Keep-Alive")];
        let connection = *g.choose(&connections);
        let body: Vec<u8> = (0..g.len_in(0, 300)).map(|_| g.gen::<u32>() as u8).collect();
        let mut head = format!("{method} {path} HTTP/1.{}\r\nHost: x\r\n", u8::from(!http10));
        if !body.is_empty() || g.gen_bool(0.5) {
            let name = *g.choose(&["Content-Length", "content-length", "CONTENT-LENGTH"]);
            let pad = *g.choose(&["", " ", "  "]);
            head += &format!("{name}:{pad}{}{pad}\r\n", body.len());
        }
        if let Some(value) = connection {
            head += &format!("Connection: {value}\r\n");
        }
        for _ in 0..g.len_in(0, 4) {
            head += &format!("X-{}: {}\r\n", token(g), token(g));
        }
        head += "\r\n";
        let connection = connection.map(str::to_ascii_lowercase);
        let keep_alive = if http10 {
            connection.as_deref() == Some("keep-alive")
        } else {
            connection.as_deref() != Some("close")
        };
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(&body);
        let seen = Seen::Request {
            method: method.to_owned(),
            path,
            body,
            keep_alive,
        };
        (bytes, seen)
    }

    /// Several requests pipelined into one buffer.
    fn gen_pipeline(g: &mut Gen, max: usize) -> (Vec<u8>, Vec<Seen>) {
        let mut input = Vec::new();
        let mut want = Vec::new();
        for _ in 0..g.len_in(0, max) {
            let (bytes, seen) = gen_request(g);
            input.extend_from_slice(&bytes);
            want.push(seen);
        }
        (input, want)
    }

    /// A read size: byte-at-a-time up to whole buffers, but no tiny reads
    /// on long inputs (each read rescans the buffered head).
    fn read_size(g: &mut Gen, len: usize) -> usize {
        let min = if len > 4096 { 256 } else { 1 };
        g.gen_range(min..=4096usize)
    }

    #[test]
    fn pipelined_requests_come_out_in_order_with_no_bytes_lost() {
        check("pipelined_requests_in_order", Config::with_cases(256), |g| {
            let (input, mut want) = gen_pipeline(g, 8);
            let max_read = read_size(g, input.len());
            let stall = g.gen_bool(0.5);
            let (seen, left) = drive(&input, max_read, stall);
            // A clean end between requests, by EOF or by the idle timeout,
            // is a close.
            want.push(Seen::Close);
            prop_assert_eq!(seen, want, "max_read {max_read}, stall {stall}");
            prop_assert_eq!(left, 0);
            Ok(())
        });
    }

    #[test]
    fn framing_errors_get_their_4xx_after_the_requests_before_them() {
        check("framing_errors_get_their_4xx", Config::with_cases(256), |g| {
            let (mut input, mut want) = gen_pipeline(g, 4);
            let (request, _) = gen_request(g);
            let line = b"POST /x HTTP/1.1\r\n".as_slice();
            let (bad, status): (Vec<u8>, &str) = match g.gen_range(0..6u32) {
                // Cut inside its head or body: the stream ends mid-request.
                0 => {
                    let cut = g.gen_range(1..request.len());
                    (request[..cut].to_vec(), "400 Bad Request")
                }
                1 => {
                    let junk = "a".repeat(MAX_HEAD_BYTES + g.gen_range(0..2000usize));
                    let bad = format!("GET /x HTTP/1.1\r\nX-Junk: {junk}\r\n\r\n");
                    (bad.into_bytes(), "431 Request Header Fields Too Large")
                }
                2 => {
                    let n = MAX_BODY_BYTES + g.gen_range(1..1_000_000usize);
                    let bad = format!("Content-Length: {n}\r\n\r\n");
                    ([line, bad.as_bytes()].concat(), "413 Content Too Large")
                }
                3 => {
                    let value = *g.choose(&[
                        "banana",
                        "-1",
                        "1.5",
                        "",
                        "0x10",
                        "1 2",
                        "99999999999999999999999",
                    ]);
                    let bad = format!("Content-Length: {value}\r\n\r\n");
                    ([line, bad.as_bytes()].concat(), "400 Bad Request")
                }
                4 => {
                    let bad = *g.choose(&[
                        "Transfer-Encoding: chunked\r\n",
                        "transfer-encoding: gzip\r\nContent-Length: 3\r\n",
                    ]);
                    ([line, bad.as_bytes(), b"\r\n"].concat(), "411 Length Required")
                }
                _ => (b"nonsense\r\n\r\n".to_vec(), "400 Bad Request"),
            };
            input.extend_from_slice(&bad);
            let max_read = read_size(g, input.len());
            let (seen, _) = drive(&input, max_read, g.gen_bool(0.5));
            want.push(Seen::Status(status));
            prop_assert_eq!(seen, want, "max_read {max_read}");
            Ok(())
        });
    }

    #[test]
    fn any_bytes_yield_requests_then_a_4xx_or_a_close() {
        const PIECES: &[&str] = &[
            "GET ", "POST ", "/", "/a", " HTTP/1.1", " HTTP/1.0", "\r\n", "\r\n\r\n", ":",
            "Content-Length: ", "Transfer-Encoding: chunked", "Connection: close", "7", "0",
            "99999999", " ", "\n",
        ];
        check("any_bytes_yield_a_request_4xx_or_close", Config::with_cases(512), |g| {
            let mut input = Vec::new();
            if g.gen_bool(0.5) {
                // Random bytes, half of them HTTP-shaped pieces.
                for _ in 0..g.len_in(0, 400) {
                    if g.gen_bool(0.5) {
                        input.extend_from_slice(g.choose(PIECES).as_bytes());
                    } else {
                        input.push(g.gen::<u32>() as u8);
                    }
                }
            } else {
                // Well-formed requests with bytes flipped, dropped or added.
                input = gen_pipeline(g, 6).0;
                for _ in 0..g.len_in(1, 8) {
                    let at = g.gen_range(0..=input.len());
                    match g.gen_range(0..3u32) {
                        0 if at < input.len() => input[at] = g.gen::<u32>() as u8,
                        1 if at < input.len() => {
                            input.remove(at);
                        }
                        _ => input.insert(at, *g.choose(b"\r\n: /0")),
                    }
                }
            }
            let max_read = read_size(g, input.len());
            let (seen, left) = drive(&input, max_read, g.gen_bool(0.5));
            let (last, requests) = seen.split_last().expect("at least one outcome");
            for req in requests {
                let Seen::Request { method, path, body, .. } = req else {
                    return Err(crate::prop::Failed::new(format!("{req:?} before the end")));
                };
                prop_assert!(!method.is_empty() && path.starts_with('/'), "{req:?}");
                prop_assert!(body.len() <= MAX_BODY_BYTES);
            }
            match last {
                Seen::Status(status) => prop_assert!(status.starts_with('4'), "{status}"),
                // A close only ever comes once every delivered byte has
                // been parsed.
                Seen::Close => prop_assert_eq!(left, 0),
                Seen::Request { .. } => prop_assert!(false, "drive ended on a request"),
            }
            Ok(())
        });
    }

    #[test]
    fn response_helpers_carry_headers() {
        let resp = Response::too_many_requests(2);
        assert_eq!(resp.status, "429 Too Many Requests");
        assert_eq!(resp.headers, vec![("Retry-After", "2".to_string())]);
        assert!(Response::json("{}".into()).headers.is_empty());
        assert_eq!(Response::text("200 OK", "ok\n").content_type, "text/plain");
    }
}
