//! The traced run's span recorder.
//!
//! Spans are recorded from this crate's code around each call into a
//! layer, into a private [`Telemetry`] registry (the program's own tracing
//! stays off). Each traced operation is a root span whose children are the
//! layer calls; all spans of one operation share its request id. At the
//! end the registry is written in the repository's trace format, so
//! `entmatcher trace --file` renders it.

use entmatcher_support::alloc;
use entmatcher_support::telemetry::{SpanGuard, Telemetry, Trace};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Wall time and measured heap growth of one layer call.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall time in seconds.
    pub secs: f64,
    /// Peak live heap above the live heap at entry, process-wide (0 when
    /// allocation counting is off).
    pub heap_bytes: u64,
}

impl Timed {
    /// Heap growth in MB.
    pub fn heap_mb(&self) -> f64 {
        self.heap_bytes as f64 / 1e6
    }
}

/// Runs `f`, measuring its wall time and its process-wide peak heap
/// growth. Calls must not overlap for the heap figure to be the call's own.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let before = alloc::stats().live_bytes;
    alloc::reset_peak();
    let started = Instant::now();
    let out = f();
    let secs = started.elapsed().as_secs_f64();
    let heap_bytes = alloc::stats().peak_bytes.saturating_sub(before);
    (out, Timed { secs, heap_bytes })
}

/// A private span registry for one traced run.
pub struct Tracer {
    reg: Telemetry,
    next_req: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A recording registry, separate from the process-global one.
    pub fn new() -> Tracer {
        let reg = Telemetry::new();
        reg.set_enabled(true);
        Tracer {
            reg,
            next_req: AtomicU64::new(0),
        }
    }

    /// Opens the root span of one operation under a fresh request id.
    pub fn op(&self, name: &str) -> (SpanGuard<'_>, u64) {
        let req = self.next_req.fetch_add(1, Ordering::Relaxed) + 1;
        let mut span = self.reg.span(name.to_owned());
        span.set_req(req);
        (span, req)
    }

    /// Runs one layer call inside a child span of the calling thread's
    /// open operation.
    pub fn call<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, Timed) {
        let mut span = self.reg.span(name);
        span.set_req(req);
        let (out, t) = timed(f);
        span.add_bytes(t.heap_bytes);
        drop(span);
        (out, t)
    }

    /// Records a child interval measured elsewhere (the HTTP phases, which
    /// are timed inside the client) under `parent`.
    pub fn record(&self, name: &str, parent: Option<u64>, req: u64, start: Instant, secs: f64) {
        let offset = self
            .reg
            .now_ns()
            .saturating_sub(start.elapsed().as_nanos() as u64);
        self.reg
            .record_span(name, parent, req, offset, (secs * 1e9) as u64, 0, 0);
    }

    /// Everything recorded so far.
    pub fn snapshot(&self) -> Trace {
        self.reg.snapshot()
    }
}

/// Writes `trace` in the repository's native trace format.
pub fn export(trace: &Trace, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, entmatcher_support::json::to_string_pretty(trace))
}

/// The layer a span name belongs to, by prefix; `None` for roots.
pub fn layer_of(name: &str) -> Option<&'static str> {
    const LAYERS: &[(&str, &str)] = &[
        ("similarity", "similarity"),
        ("score.", "score"),
        ("match.", "match"),
        ("stream.", "stream"),
        ("fused.", "fused"),
        ("normalize", "normalize"),
        ("ann.", "ann"),
        ("serve.", "serve"),
        ("http.", "http"),
        ("json.", "json"),
    ];
    LAYERS
        .iter()
        .find(|(prefix, _)| name.starts_with(prefix))
        .map(|&(_, layer)| layer)
}

/// Self-time attribution of a trace: a span's self time is its duration
/// minus the part of its interval its children cover.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Total self seconds per layer.
    pub layer_self: BTreeMap<&'static str, f64>,
    /// Root self seconds (the unattributed remainder), per root name.
    pub unattributed: BTreeMap<String, Vec<f64>>,
}

impl Breakdown {
    /// Attributes every span of `trace`.
    pub fn of(trace: &Trace) -> Breakdown {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &trace.spans {
            if let Some(p) = s.parent {
                children
                    .entry(p)
                    .or_default()
                    .push((s.start_ns, s.start_ns + s.duration_ns));
            }
        }
        let mut out = Breakdown::default();
        for s in &trace.spans {
            let (lo, hi) = (s.start_ns, s.start_ns + s.duration_ns);
            let covered = children.get(&s.id).map_or(0, |c| union_within(c, lo, hi));
            let self_s = (s.duration_ns - covered.min(s.duration_ns)) as f64 / 1e9;
            match (s.parent, layer_of(&s.name)) {
                (None, _) => out
                    .unattributed
                    .entry(s.name.clone())
                    .or_default()
                    .push(self_s),
                (Some(_), Some(layer)) => *out.layer_self.entry(layer).or_default() += self_s,
                (Some(_), None) => {}
            }
        }
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.clamp(lo, hi), b.clamp(lo, hi)))
        .filter(|(a, b)| b > a)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_within(&[], 0, 10), 0);
        assert_eq!(union_within(&[(1, 3), (2, 5), (7, 8)], 0, 10), 5);
        assert_eq!(union_within(&[(0, 20)], 5, 10), 5);
    }

    #[test]
    fn self_time_subtracts_children_and_roots_are_unattributed() {
        let t = Tracer::new();
        {
            let (_root, req) = t.op("op.demo");
            t.call("similarity", req, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.call("match.greedy", req, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
        let trace = t.snapshot();
        // One request: all three spans share its id.
        assert_eq!(trace.spans_for_request(1).len(), 3);
        let b = Breakdown::of(&trace);
        assert!(b.layer_self["similarity"] >= 0.005);
        assert!(b.layer_self["match"] >= 0.005);
        let rest = b.unattributed["op.demo"][0];
        assert!((0.003..0.05).contains(&rest), "remainder {rest}");
    }
}
