//! Live metrics exposition: the telemetry registry rendered in
//! Prometheus text exposition format, published as two ordinary routes
//! of the [`crate::http`] transport ([`routes`]): `GET /metrics`, a
//! fresh render of the registry on every scrape, and `GET /healthz`.
//! This module renders; it owns no sockets.
//!
//! The exposition contains every counter as `entmatcher_<name>_total`,
//! every registry gauge as `entmatcher_<name>`, every histogram as a
//! native Prometheus histogram with power-of-two `le` bounds,
//! per-span-name aggregates, an `entmatcher_up 1` gauge, process memory
//! gauges ([`render_process_gauges`]), and — from the transport's own
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
//! [`MetricsServer`], [`Request`], [`Response`], [`Routes`] and
//! [`ServerConfig`] are the transport's types, re-exported here:
//! [`MetricsServer::start`] and [`MetricsServer::start_with_config`]
//! start the transport with [`routes`] in its table.
//!
//! The CLI starts a server when `--metrics ADDR` or
//! `ENTMATCHER_METRICS_ADDR` is set, holding it open for the duration of
//! the command (plus `ENTMATCHER_METRICS_LINGER_MS`, so short commands
//! stay scrapable).

pub use crate::http::{Request, Response, Routes, Server as MetricsServer, ServerConfig};

use super::{Telemetry, Trace, UNDERFLOW_BUCKET};
use std::fmt::Write as _;
use std::time::Duration;

/// Environment variable naming the address to expose metrics on.
pub const ENV_ADDR: &str = "ENTMATCHER_METRICS_ADDR";

/// Environment variable: how long (milliseconds) the CLI keeps the server
/// alive after its command finishes.
pub const ENV_LINGER_MS: &str = "ENTMATCHER_METRICS_LINGER_MS";

/// The `ENTMATCHER_METRICS_ADDR` switch ([`crate::env::switch`]): `None`
/// when unset, empty, whitespace-only, or `0`; otherwise the trimmed
/// address.
pub fn env_metrics_addr() -> Option<String> {
    crate::env::switch(ENV_ADDR)
}

/// The `ENTMATCHER_METRICS_LINGER_MS` switch (0 when off or unparsable).
pub fn env_linger() -> Duration {
    let ms = crate::env::switch(ENV_LINGER_MS).and_then(|v| v.parse().ok());
    Duration::from_millis(ms.unwrap_or(0))
}

/// The exposition's two routes over `registry`: `GET /metrics`, rendered
/// afresh on every scrape, and `GET /healthz`.
pub fn routes(registry: &'static Telemetry) -> Routes {
    Routes::route("GET", "/metrics", move |_| {
        let mut body = render_prometheus(&registry.snapshot());
        // Process memory gauges are sampled at render time (they are
        // live process state, not part of the trace snapshot, which
        // keeps `render_prometheus` a pure function of its input).
        body.push_str(&render_process_gauges());
        Response {
            status: "200 OK",
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body,
            headers: Vec::new(),
        }
    })
    .with(Routes::route("GET", "/healthz", |_| Response::text("200 OK", "ok\n")))
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`, port 0 for ephemeral) and
    /// starts serving `registry` with the default [`ServerConfig`].
    pub fn start(registry: &'static Telemetry, addr: &str) -> std::io::Result<MetricsServer> {
        Self::start_with_config(registry, addr, ServerConfig::default(), None)
    }

    /// Fully-configured start: binds `addr` and serves `extra` (when
    /// given, consulted first) next to the exposition's [`routes`].
    pub fn start_with_config(
        registry: &'static Telemetry,
        addr: &str,
        cfg: ServerConfig,
        extra: Option<Routes>,
    ) -> std::io::Result<MetricsServer> {
        let table = extra.map_or_else(|| routes(registry), |extra| extra.with(routes(registry)));
        MetricsServer::bind(registry, addr, cfg, table)
    }
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
