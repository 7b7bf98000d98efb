//! Raw-`TcpStream` tests for the persistent-connection server: keep-alive
//! request sequencing on one socket, interleaving across sockets,
//! per-connection error isolation, HTTP/1.0 and `Connection: close`
//! semantics, idle-timeout eviction, the connection-cap 503 path, and the
//! connection metrics (`http.open_connections`,
//! `http.requests_per_conn`, `http.rejected`).

use entmatcher_support::telemetry::expose::{
    MetricsServer, Response, Routes, ServerConfig,
};
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

/// Starts a server with the given connection-model overrides.
fn start(t: &'static Telemetry, cfg: ServerConfig, routes: Option<Routes>) -> MetricsServer {
    t.set_enabled(true);
    MetricsServer::start_with_config(t, "127.0.0.1:0", cfg, routes).expect("bind ephemeral port")
}

/// Writes one request on an already-open stream. `close` appends
/// `Connection: close`.
fn send_get(stream: &mut TcpStream, path: &str, close: bool) {
    let conn = if close { "Connection: close\r\n" } else { "" };
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n{conn}\r\n").expect("send request");
}

/// Reads exactly one response off the stream. In lockstep request/response
/// exchanges nothing follows the response, so a fresh buffer suffices;
/// pipelined tests use [`read_response_buffered`] to carry the tail.
fn read_response(stream: &mut TcpStream) -> (String, String) {
    let mut buf = Vec::new();
    let (head, body) = read_response_buffered(stream, &mut buf);
    assert!(buf.is_empty(), "unexpected bytes after the response: {buf:?}");
    (head, body)
}

/// Reads one response (head by `\r\n\r\n`, body by `Content-Length`),
/// leaving any bytes past it — the next pipelined response — in `buf`.
fn read_response_buffered(stream: &mut TcpStream, buf: &mut Vec<u8>) -> (String, String) {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed mid-response: {buf:?}");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end - 4]).into_owned();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().expect("numeric Content-Length"))
        })
        .expect("response declares Content-Length");
    while buf.len() < head_end + content_length {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8_lossy(&buf[head_end..head_end + content_length]).into_owned();
    buf.drain(..head_end + content_length);
    (head, body)
}

/// True once the peer has closed: a read returns 0 (EOF) instead of
/// blocking for more requests.
fn reads_eof(stream: &mut TcpStream, wait: Duration) -> bool {
    stream.set_read_timeout(Some(wait)).expect("set timeout");
    let mut byte = [0u8; 1];
    matches!(stream.read(&mut byte), Ok(0))
}

#[test]
fn many_sequential_requests_reuse_one_connection() {
    let t = leaked_registry();
    let server = start(t, ServerConfig::default(), None);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");

    for i in 0..8 {
        send_get(&mut stream, "/healthz", false);
        let (head, body) = read_response(&mut stream);
        assert!(head.starts_with("HTTP/1.1 200"), "request {i}: {head}");
        assert!(head.contains("Connection: keep-alive"), "request {i}: {head}");
        assert_eq!(body, "ok\n");
    }
    // The final request asks to close; the server echoes and hangs up.
    send_get(&mut stream, "/healthz", true);
    let (head, _) = read_response(&mut stream);
    assert!(head.contains("Connection: close"), "{head}");
    assert!(reads_eof(&mut stream, Duration::from_secs(2)), "server must close");

    server.shutdown();
    let trace = t.snapshot();
    let per_conn = trace
        .histogram("http.requests_per_conn")
        .expect("requests_per_conn recorded");
    assert_eq!(per_conn.count, 1, "one connection closed");
    assert_eq!(per_conn.sum, 9.0, "nine requests on it: {per_conn:?}");
}

#[test]
fn interleaved_requests_across_sockets_stay_isolated() {
    let t = leaked_registry();
    let server = start(t, ServerConfig::default(), None);
    let mut a = TcpStream::connect(server.addr()).expect("connect a");
    let mut b = TcpStream::connect(server.addr()).expect("connect b");

    // a, b, a, b — each socket sees only its own responses, in order.
    send_get(&mut a, "/healthz", false);
    let (head, _) = read_response(&mut a);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    send_get(&mut b, "/metrics", false);
    let (_, body) = read_response(&mut b);
    assert!(body.contains("entmatcher_up 1"), "{body}");
    send_get(&mut a, "/nope", false);
    let (head, _) = read_response(&mut a);
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    send_get(&mut b, "/healthz", false);
    let (head, body) = read_response(&mut b);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ok\n");
    server.shutdown();
}

#[test]
fn open_connections_gauge_tracks_sockets() {
    let t = leaked_registry();
    let server = start(t, ServerConfig::default(), None);
    let mut a = TcpStream::connect(server.addr()).expect("connect a");
    let mut b = TcpStream::connect(server.addr()).expect("connect b");
    send_get(&mut a, "/healthz", false);
    let _ = read_response(&mut a);
    send_get(&mut b, "/healthz", false);
    let _ = read_response(&mut b);
    // Both sockets answered, both still open.
    send_get(&mut a, "/metrics", false);
    let (_, body) = read_response(&mut a);
    assert!(
        body.contains("entmatcher_http_open_connections 2"),
        "{body}"
    );
    drop(b);
    // Eventually the server notices b's EOF and the gauge drops to 1
    // (every scrape renders the registry afresh).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        std::thread::sleep(Duration::from_millis(10));
        send_get(&mut a, "/metrics", false);
        let (_, body) = read_response(&mut a);
        if body.contains("entmatcher_http_open_connections 1") {
            break;
        }
        assert!(Instant::now() < deadline, "gauge never dropped:\n{body}");
    }
    server.shutdown();
}

#[test]
fn malformed_second_request_closes_only_that_connection() {
    let t = leaked_registry();
    let server = start(t, ServerConfig::default(), None);
    let mut bad = TcpStream::connect(server.addr()).expect("connect bad");
    let mut good = TcpStream::connect(server.addr()).expect("connect good");

    // First request on `bad` is fine...
    send_get(&mut bad, "/healthz", false);
    let (head, _) = read_response(&mut bad);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    // ...the second is garbage: 400 and the connection closes.
    bad.write_all(b"not http\r\n\r\n").expect("send garbage");
    let (head, _) = read_response(&mut bad);
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    assert!(head.contains("Connection: close"), "errors close: {head}");
    assert!(reads_eof(&mut bad, Duration::from_secs(2)));

    // The other connection is untouched and still keep-alive.
    send_get(&mut good, "/healthz", false);
    let (head, _) = read_response(&mut good);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("Connection: keep-alive"), "{head}");
    server.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let t = leaked_registry();
    let server = start(t, ServerConfig::default(), None);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    // Two requests in one write: the leftover bytes after the first parse
    // must be carried over, not dropped.
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\nGET /nope HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        .expect("send pipelined pair");
    let mut carry = Vec::new();
    let (head, body) = read_response_buffered(&mut stream, &mut carry);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ok\n");
    let (head, _) = read_response_buffered(&mut stream, &mut carry);
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    server.shutdown();
}

#[test]
fn http10_closes_unless_keepalive_requested() {
    let t = leaked_registry();
    let server = start(t, ServerConfig::default(), None);

    // Plain HTTP/1.0: answered, then closed.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write!(stream, "GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n").expect("send");
    let (head, body) = read_response(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("Connection: close"), "{head}");
    assert_eq!(body, "ok\n");
    assert!(reads_eof(&mut stream, Duration::from_secs(2)));

    // HTTP/1.0 with an explicit keep-alive opt-in stays open.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write!(
        stream,
        "GET /healthz HTTP/1.0\r\nHost: x\r\nConnection: keep-alive\r\n\r\n"
    )
    .expect("send");
    let (head, _) = read_response(&mut stream);
    assert!(head.contains("Connection: keep-alive"), "{head}");
    send_get(&mut stream, "/healthz", true);
    let (head, _) = read_response(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    server.shutdown();
}

#[test]
fn transfer_encoding_and_bad_content_length_are_rejected() {
    let t = leaked_registry();
    let server = start(t, ServerConfig::default(), None);

    // Transfer-Encoding framing is unsupported: 411, connection closes.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write!(
        stream,
        "POST /healthz HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
    )
    .expect("send");
    let (head, _) = read_response(&mut stream);
    assert!(head.starts_with("HTTP/1.1 411"), "{head}");
    assert!(reads_eof(&mut stream, Duration::from_secs(2)));

    // A Content-Length that does not parse is a 400, not silently zero.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write!(
        stream,
        "POST /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: banana\r\n\r\n"
    )
    .expect("send");
    let (head, _) = read_response(&mut stream);
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    server.shutdown();
}

#[test]
fn idle_connections_are_evicted() {
    let t = leaked_registry();
    let cfg = ServerConfig {
        idle_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let server = start(t, cfg, None);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    send_get(&mut stream, "/healthz", false);
    let (head, _) = read_response(&mut stream);
    assert!(head.contains("Connection: keep-alive"), "{head}");
    // Sit idle past the timeout: the server hangs up (EOF), freeing its
    // worker — the slowloris guard.
    assert!(
        reads_eof(&mut stream, Duration::from_secs(3)),
        "idle connection must be evicted"
    );
    server.shutdown();
}

#[test]
fn connection_cap_rejects_with_503_and_counts() {
    let t = leaked_registry();
    let cfg = ServerConfig {
        max_conns: 1,
        workers: 1,
        ..ServerConfig::default()
    };
    let server = start(t, cfg, None);

    // First connection occupies the only slot...
    let mut held = TcpStream::connect(server.addr()).expect("connect held");
    send_get(&mut held, "/healthz", false);
    let (head, _) = read_response(&mut held);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");

    // ...so the next arrival is rejected at the door with 503.
    let mut rejected = TcpStream::connect(server.addr()).expect("connect rejected");
    let mut text = String::new();
    rejected
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    rejected.read_to_string(&mut text).expect("read rejection");
    assert!(text.starts_with("HTTP/1.1 503"), "{text}");
    assert!(text.contains("Retry-After: 1"), "{text}");

    // Freeing the slot re-admits new connections.
    send_get(&mut held, "/healthz", true);
    let _ = read_response(&mut held);
    assert!(reads_eof(&mut held, Duration::from_secs(2)));
    let deadline = Instant::now() + Duration::from_secs(5);
    let body = loop {
        let mut retry = TcpStream::connect(server.addr()).expect("reconnect");
        send_get(&mut retry, "/metrics", true);
        let mut text = String::new();
        retry
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set timeout");
        retry.read_to_string(&mut text).expect("read retry");
        if let Some((head, body)) = text.split_once("\r\n\r\n") {
            if head.starts_with("HTTP/1.1 200") {
                break body.to_owned();
            }
        }
        assert!(Instant::now() < deadline, "slot never freed: {text}");
        std::thread::sleep(Duration::from_millis(20));
    };
    // At least the first over-cap arrival was counted (retries racing the
    // slot release may add more).
    let rejected: u64 = body
        .lines()
        .find_map(|l| l.strip_prefix("entmatcher_http_rejected_total "))
        .expect("rejected counter rendered")
        .parse()
        .expect("integer counter");
    assert!(rejected >= 1, "{body}");
    server.shutdown();
}

#[test]
fn shutdown_drains_inflight_requests() {
    let t = leaked_registry();
    // A slow route lets a request be mid-flight when shutdown starts.
    let routes = Routes {
        paths: vec!["/slow".to_owned()],
        handler: Arc::new(|req| {
            (req.path == "/slow").then(|| {
                std::thread::sleep(Duration::from_millis(300));
                Response::text("200 OK", "slow done\n")
            })
        }),
    };
    let server = start(t, ServerConfig::default(), Some(routes));
    let addr = server.addr();

    let client = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        send_get(&mut stream, "/slow", false);
        read_response(&mut stream)
    });
    // Give the request time to reach the handler, then shut down while it
    // is still sleeping inside the route.
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown();
    let (head, body) = client.join().expect("client thread");
    assert!(head.starts_with("HTTP/1.1 200"), "drained response: {head}");
    assert!(
        head.contains("Connection: close"),
        "shutdown forces close after the drain: {head}"
    );
    assert_eq!(body, "slow done\n");
}

#[test]
fn handler_panics_answer_500_and_keep_workers_alive() {
    let t = leaked_registry();
    let routes = Routes {
        paths: vec!["/panic".to_owned()],
        handler: Arc::new(|_| panic!("route handler panics on purpose")),
    };
    let cfg = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let server = start(t, cfg, Some(routes));
    // Two panics, as many as there are workers: were either worker lost
    // to its panic, the health check below would go unanswered.
    for i in 0..2 {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        send_get(&mut stream, "/panic", false);
        let (head, _) = read_response(&mut stream);
        assert!(head.starts_with("HTTP/1.1 500"), "panic {i}: {head}");
        assert!(head.contains("Connection: close"), "panic {i}: {head}");
        assert!(reads_eof(&mut stream, Duration::from_secs(2)), "panic {i}");
    }
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    send_get(&mut stream, "/healthz", false);
    let (head, body) = read_response(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ok\n");
    server.shutdown();
    let trace = t.snapshot();
    assert_eq!(trace.counter("http.panics"), Some(2));
    assert_eq!(trace.gauge("http.open_connections"), Some(0.0));
}
