//! Chrome `trace_event` / Perfetto export.
//!
//! Converts a completed [`Trace`] into the Trace Event Format that
//! `chrome://tracing` and <https://ui.perfetto.dev> open directly: every
//! span becomes a **complete event** (`"ph": "X"`) with microsecond
//! timestamps, placed on the lane of the thread that recorded it
//! (`"tid"` = [`thread_lane`]). Span ids, parent links, and byte
//! attribution (modeled `bytes` plus the measured `heap_allocated` /
//! `heap_live_peak` fields of `ENTMATCHER_MEM` runs) travel in each
//! event's `args`, and final counter values are attached as one
//! `"ph": "C"` counter event per counter so they show up as Perfetto
//! counter tracks. Spans carrying measured heap data additionally emit a
//! `heap_live_peak_bytes` counter-track sample, so memory usage renders
//! as a track over time.
//!
//! The CLI wires this up twice: `entmatcher trace --file T.json --chrome
//! OUT.json` converts an already-exported trace document, and
//! `ENTMATCHER_TRACE_FORMAT=chrome` makes `--trace FILE` (and the
//! `ENTMATCHER_TRACE=<path>` export) write this format instead of the
//! native one.
//!
//! [`thread_lane`]: super::thread_lane

use super::Trace;
use crate::json::{Json, Map};

/// Environment variable selecting the `--trace` output format.
pub const ENV_FORMAT: &str = "ENTMATCHER_TRACE_FORMAT";

/// Output format of the CLI's trace export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// The native `Trace` JSON document (the default).
    Native,
    /// Chrome `trace_event` JSON (this module).
    Chrome,
}

/// Resolves a raw `ENTMATCHER_TRACE_FORMAT` value. Only `chrome`
/// (case-insensitive) selects [`TraceFormat::Chrome`]; anything else —
/// including unset — is native.
pub fn format_from(value: Option<&str>) -> TraceFormat {
    match value {
        Some(v) if v.eq_ignore_ascii_case("chrome") => TraceFormat::Chrome,
        _ => TraceFormat::Native,
    }
}

/// The format selected by the `ENTMATCHER_TRACE_FORMAT` switch, read by
/// [`crate::env::switch`] (so surrounding whitespace is trimmed).
pub fn env_format() -> TraceFormat {
    format_from(crate::env::switch(ENV_FORMAT).as_deref())
}

/// Builds the Chrome `trace_event` JSON document for a trace.
pub fn to_chrome_json(trace: &Trace) -> Json {
    let mut events = Vec::with_capacity(trace.spans.len() + trace.counters.len() + 1);

    // Process metadata so the Perfetto sidebar shows a readable name.
    let mut meta = Map::new();
    meta.insert("name", "process_name");
    meta.insert("ph", "M");
    meta.insert("pid", 1u64);
    let mut meta_args = Map::new();
    meta_args.insert("name", "entmatcher");
    meta.insert("args", Json::Obj(meta_args));
    events.push(Json::Obj(meta));

    for span in &trace.spans {
        let mut e = Map::new();
        e.insert("name", &span.name);
        e.insert("cat", "span");
        e.insert("ph", "X");
        // Trace Event timestamps are microseconds; fractional values keep
        // the registry's nanosecond precision.
        e.insert("ts", span.start_ns as f64 / 1e3);
        e.insert("dur", span.duration_ns as f64 / 1e3);
        e.insert("pid", 1u64);
        e.insert("tid", span.tid);
        let mut args = Map::new();
        args.insert("id", span.id);
        if let Some(parent) = span.parent {
            args.insert("parent", parent);
        }
        if span.bytes > 0 {
            args.insert("bytes", span.bytes);
        }
        if span.heap_allocated > 0 {
            args.insert("heap_allocated", span.heap_allocated);
        }
        if span.heap_live_peak > 0 {
            args.insert("heap_live_peak", span.heap_live_peak);
        }
        if span.req > 0 {
            args.insert("req", span.req);
        }
        e.insert("args", Json::Obj(args));
        events.push(Json::Obj(e));
    }

    // Measured-memory counter track (ENTMATCHER_MEM runs): one sample per
    // span carrying heap data, placed at the span's midpoint so Perfetto
    // renders a step profile of per-span measured peaks over the run.
    for span in &trace.spans {
        if span.heap_live_peak == 0 {
            continue;
        }
        let mut e = Map::new();
        e.insert("name", "heap_live_peak_bytes");
        e.insert("cat", "memory");
        e.insert("ph", "C");
        e.insert("ts", (span.start_ns as f64 + span.duration_ns as f64 / 2.0) / 1e3);
        e.insert("pid", 1u64);
        let mut args = Map::new();
        args.insert("value", span.heap_live_peak);
        e.insert("args", Json::Obj(args));
        events.push(Json::Obj(e));
    }

    // Final counter values as counter-track samples at the end of the run.
    let end_ts = trace
        .spans
        .iter()
        .map(|s| s.start_ns.saturating_add(s.duration_ns))
        .max()
        .unwrap_or(0) as f64
        / 1e3;
    for counter in &trace.counters {
        let mut e = Map::new();
        e.insert("name", &counter.name);
        e.insert("cat", "counter");
        e.insert("ph", "C");
        e.insert("ts", end_ts);
        e.insert("pid", 1u64);
        let mut args = Map::new();
        args.insert("value", counter.value);
        e.insert("args", Json::Obj(args));
        events.push(Json::Obj(e));
    }

    // Final gauge levels, same treatment as counters (wire v4).
    for gauge in &trace.gauges {
        let mut e = Map::new();
        e.insert("name", &gauge.name);
        e.insert("cat", "gauge");
        e.insert("ph", "C");
        e.insert("ts", end_ts);
        e.insert("pid", 1u64);
        let mut args = Map::new();
        args.insert("value", gauge.value);
        e.insert("args", Json::Obj(args));
        events.push(Json::Obj(e));
    }

    let mut doc = Map::new();
    doc.insert("traceEvents", Json::Arr(events));
    doc.insert("displayTimeUnit", "ms");
    let mut other = Map::new();
    other.insert("traceVersion", trace.version);
    other.insert("generator", "entmatcher");
    doc.insert("otherData", Json::Obj(other));
    Json::Obj(doc)
}

/// Pretty-printed Chrome `trace_event` JSON text for a trace.
pub fn to_chrome_string(trace: &Trace) -> String {
    to_chrome_json(trace).pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Telemetry;

    #[test]
    fn format_selection() {
        assert_eq!(format_from(None), TraceFormat::Native);
        assert_eq!(format_from(Some("")), TraceFormat::Native);
        assert_eq!(format_from(Some("json")), TraceFormat::Native);
        assert_eq!(format_from(Some("chrome")), TraceFormat::Chrome);
        assert_eq!(format_from(Some("Chrome")), TraceFormat::Chrome);
    }

    #[test]
    fn complete_events_carry_lane_and_parent() {
        let t = Telemetry::new();
        t.set_enabled(true);
        {
            let mut outer = t.span("outer");
            outer.add_bytes(64);
            drop(t.span("inner"));
        }
        t.add("rounds", 7);
        let trace = t.snapshot();
        let doc = to_chrome_json(&trace);
        let events = doc["traceEvents"].as_array().unwrap();
        // Metadata + 2 spans + 1 counter.
        assert_eq!(events.len(), 4);
        let outer = events
            .iter()
            .find(|e| e["name"] == "outer")
            .expect("outer event");
        assert_eq!(outer["ph"], "X");
        assert_eq!(outer["args"]["bytes"].as_f64(), Some(64.0));
        assert!(outer["tid"].as_f64().unwrap() > 0.0);
        let inner = events.iter().find(|e| e["name"] == "inner").unwrap();
        assert_eq!(
            inner["args"]["parent"].as_f64(),
            outer["args"]["id"].as_f64()
        );
        let counter = events.iter().find(|e| e["name"] == "rounds").unwrap();
        assert_eq!(counter["ph"], "C");
        assert_eq!(counter["args"]["value"].as_f64(), Some(7.0));
    }

    #[test]
    fn request_lane_and_gauges_export() {
        let t = Telemetry::new();
        t.set_enabled(true);
        {
            let mut root = t.span("serve.request");
            root.set_req(9);
        }
        t.set_gauge("serve.queue_depth", 4.0);
        let doc = to_chrome_json(&t.snapshot());
        let events = doc["traceEvents"].as_array().unwrap();
        let root = events.iter().find(|e| e["name"] == "serve.request").unwrap();
        assert_eq!(root["args"]["req"].as_f64(), Some(9.0));
        let gauge = events
            .iter()
            .find(|e| e["name"] == "serve.queue_depth")
            .expect("gauge track");
        assert_eq!(gauge["ph"], "C");
        assert_eq!(gauge["cat"], "gauge");
        assert_eq!(gauge["args"]["value"].as_f64(), Some(4.0));
    }

    #[test]
    fn measured_heap_spans_emit_memory_counter_track() {
        use crate::telemetry::{SpanRecord, TRACE_VERSION};
        let trace = Trace {
            version: TRACE_VERSION,
            spans: vec![SpanRecord {
                id: 1,
                parent: None,
                name: "similarity".into(),
                start_ns: 1_000,
                duration_ns: 2_000,
                bytes: 0,
                tid: 1,
                req: 0,
                heap_allocated: 4096,
                heap_live_peak: 2048,
            }],
            counters: vec![],
            gauges: vec![],
            histograms: vec![],
        };
        let doc = to_chrome_json(&trace);
        let events = doc["traceEvents"].as_array().unwrap();
        let span = events.iter().find(|e| e["name"] == "similarity").unwrap();
        assert_eq!(span["args"]["heap_allocated"].as_f64(), Some(4096.0));
        assert_eq!(span["args"]["heap_live_peak"].as_f64(), Some(2048.0));
        let track = events
            .iter()
            .find(|e| e["name"] == "heap_live_peak_bytes")
            .expect("memory counter track");
        assert_eq!(track["ph"], "C");
        assert_eq!(track["args"]["value"].as_f64(), Some(2048.0));
        // Midpoint of [1us, 3us] in microseconds.
        assert_eq!(track["ts"].as_f64(), Some(2.0));
    }
}
