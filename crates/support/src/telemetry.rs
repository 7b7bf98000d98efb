//! Structured telemetry: hierarchical spans, counters, and log-scale
//! histograms with JSON trace export.
//!
//! The paper's headline results are *efficiency* analyses — per-stage wall
//! time and peak auxiliary memory of every similarity × optimizer × matcher
//! combination (Figure 5, Tables 6–8). This module makes that
//! instrumentation a permanent subsystem instead of scattered
//! `Instant::now()` calls: every pipeline stage, optimizer iteration,
//! encoder epoch, and experiment-grid cell reports into one thread-safe
//! registry, and the whole run exports as a single JSON trace document.
//!
//! # Model
//!
//! - A **span** is a named interval of wall time with an optional parent
//!   (forming a tree), a start offset relative to the registry's epoch, and
//!   a bytes attribution for memory accounting. Spans are recorded by RAII
//!   [`SpanGuard`]s: created by [`Telemetry::span`], completed on drop or
//!   by [`SpanGuard::finish`] (which also returns the measured
//!   [`Duration`], so report structs can be *derived views* of the trace).
//!   Parentage is tracked per thread: a span started while another span on
//!   the same thread is open becomes its child; spans on fresh threads are
//!   roots.
//! - A **counter** is a named monotonically increasing `u64` (e.g. rounds
//!   executed, cells completed, pseudo-seeds promoted).
//! - A **histogram** is a named distribution over `f64` samples bucketed at
//!   powers of two (`bucket = floor(log2(v))`), with exact count / sum /
//!   min / max — the right shape for convergence deltas and losses that
//!   span many orders of magnitude.
//!
//! # Flight-recorder surfaces
//!
//! Beyond the post-mortem JSON trace, three runtime-facing surfaces build
//! on the registry (all std-only, all fully off by default):
//!
//! - [`expose`] — a tiny HTTP server publishing the live registry as
//!   Prometheus text exposition (`/metrics`, plus `/healthz`), so long
//!   runs can be scraped mid-flight.
//! - [`chrome`] — Chrome `trace_event` / Perfetto export of a completed
//!   [`Trace`]: every span becomes a complete event (`"ph":"X"`) on its
//!   recording thread's lane, so traces open directly in
//!   `ui.perfetto.dev`.
//! - [`profile`] — a span-stack sampling profiler: a background thread
//!   samples every thread's currently-open span stack at a fixed rate and
//!   aggregates collapsed-stack lines (`a;b;c count`) for flamegraph
//!   tooling.
//!
//! To support them, every span records the **thread lane** ([`thread_lane`],
//! a small stable per-OS-thread integer) it was opened on, and the registry
//! keeps a per-thread view of the currently *open* spans
//! ([`Telemetry::open_stacks`]) that the sampler reads.
//!
//! # Overhead
//!
//! Recording is off by default. Every recording call first reads one
//! relaxed atomic and returns immediately when disabled, so an
//! uninstrumented run pays a few nanoseconds per site and allocates
//! nothing. [`SpanGuard`] still carries its `Instant` so stage durations
//! remain available to callers either way. The switch is the
//! `ENTMATCHER_TRACE` environment variable (any non-empty value other than
//! `0`) or a programmatic [`set_enabled`] call (the CLI's `--trace` flag).
//!
//! # Example
//!
//! ```
//! use entmatcher_support::json::{FromJson, ToJson};
//! use entmatcher_support::telemetry::Telemetry;
//!
//! let t = Telemetry::new();
//! t.set_enabled(true);
//! {
//!     let _outer = t.span("pipeline");
//!     let mut inner = t.span("similarity");
//!     inner.add_bytes(1024);
//!     let elapsed = inner.finish();
//!     assert!(elapsed.as_nanos() > 0);
//!     t.add("cells", 1);
//!     t.observe("delta", 0.125);
//! }
//! let trace = t.snapshot();
//! let back = entmatcher_support::telemetry::Trace::from_json(
//!     &entmatcher_support::json::Json::parse(&trace.to_json().dump()).unwrap(),
//! )
//! .unwrap();
//! assert_eq!(trace, back);
//! ```

pub mod chrome;
pub mod expose;
pub mod profile;

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Wire-format version stamped into every exported trace document.
///
/// v2 added `tid` to span records and `finite_count` to histograms; v3
/// added the measured `heap_allocated` / `heap_live_peak` span fields; v4
/// added first-class gauges and the per-span `req` request-lane field.
/// The parser reads this version only and rejects any other by name.
pub const TRACE_VERSION: u64 = 4;

/// Histogram bucket index for samples that have no binary exponent
/// (zero, negative, or NaN inputs).
pub const UNDERFLOW_BUCKET: i32 = i32::MIN;

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A thread-safe telemetry registry: spans, counters, and histograms.
///
/// Most code uses the process-global registry through the module-level
/// functions ([`span`], [`add`], [`observe`], [`snapshot`]); standalone
/// instances exist so tests and embedders can collect in isolation.
pub struct Telemetry {
    enabled: AtomicBool,
    epoch: Instant,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    next_span_id: u64,
    spans: Vec<SpanRecord>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Hist>,
    // Per-thread-lane stacks of currently-open spans `(id, name)`, the
    // view the sampling profiler reads. Maintained only while recording
    // is enabled (the disabled fast path never touches the lock).
    open: BTreeMap<u64, Vec<(u64, String)>>,
}

#[derive(Default, Clone)]
struct Hist {
    count: u64,
    finite_count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: BTreeMap<i32, u64>,
}

// Per-thread stack of open spans, keyed by registry address so that spans
// of independent `Telemetry` instances never adopt each other.
thread_local! {
    static SPAN_STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

// Thread lanes: a small, stable integer per OS thread, assigned on first
// use in thread-creation order. Process-global (shared by all registries)
// so lanes in a trace line up with lanes in a concurrently-written
// profile.
static NEXT_LANE: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static THREAD_LANE: u64 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's lane id: a small stable integer (1-based, in order
/// of first telemetry use per thread) that spans carry as their `tid` and
/// the Chrome export uses as the Perfetto thread lane.
pub fn thread_lane() -> u64 {
    THREAD_LANE.with(|l| *l)
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// Creates a registry with recording disabled.
    pub fn new() -> Self {
        Telemetry {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    /// Whether recording is currently on (one relaxed atomic load — the
    /// cost every instrumentation site pays when telemetry is off).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Spans already open keep recording their
    /// completion; new guards consult the flag at creation.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Opens a span. When recording is off the guard is inert (it still
    /// measures wall time for [`SpanGuard::finish`], but records nothing).
    pub fn span(&self, name: impl Into<Cow<'static, str>>) -> SpanGuard<'_> {
        let start = Instant::now();
        if !self.is_enabled() {
            return SpanGuard {
                telemetry: self,
                start,
                open: None,
            };
        }
        let name = name.into();
        let tid = thread_lane();
        let id = {
            let mut state = self.state.lock().expect("telemetry lock poisoned");
            state.next_span_id += 1;
            let id = state.next_span_id;
            // Mirror the open span into the shared per-lane view so the
            // sampling profiler can observe it from another thread.
            state
                .open
                .entry(tid)
                .or_default()
                .push((id, name.to_string()));
            id
        };
        let key = self as *const Telemetry as usize;
        let parent = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.iter().rev().find(|(k, _)| *k == key).map(|&(_, id)| id);
            stack.push((key, id));
            parent
        });
        // When measured-memory counting is on, every recorded span also
        // opens a heap-attribution scope on its thread, so the record
        // gains measured `heap_allocated` / `heap_live_peak` fields.
        let heap = if crate::alloc::enabled() {
            Some(crate::alloc::HeapScope::open(&name))
        } else {
            None
        };
        SpanGuard {
            telemetry: self,
            start,
            open: Some(OpenSpan {
                id,
                parent,
                name,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                bytes: 0,
                tid,
                req: 0,
                heap,
            }),
        }
    }

    /// Nanoseconds elapsed since this registry's epoch — the clock all
    /// span `start_ns` offsets are measured against. Lets callers that
    /// measure an interval across threads (e.g. queue wait between a
    /// connection thread and a batch worker) record it with
    /// [`Telemetry::record_span`] on the same timeline.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a completed span directly, without a guard.
    ///
    /// For intervals that cannot be an RAII scope on one thread: the
    /// interval is measured elsewhere (via [`Telemetry::now_ns`]) and its
    /// parent is named explicitly instead of inferred from the calling
    /// thread's open-span stack. Used by the serving layer to attach
    /// `serve.queue` / `serve.batch` / `serve.probe` children recorded on
    /// the batch worker to the request's root span opened on the
    /// connection thread. Returns the new span id, or `None` when
    /// recording is off.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span(
        &self,
        name: &str,
        parent: Option<u64>,
        req: u64,
        start_ns: u64,
        duration_ns: u64,
        heap_allocated: u64,
        heap_live_peak: u64,
    ) -> Option<u64> {
        if !self.is_enabled() {
            return None;
        }
        let tid = thread_lane();
        let mut state = self.state.lock().expect("telemetry lock poisoned");
        state.next_span_id += 1;
        let id = state.next_span_id;
        state.spans.push(SpanRecord {
            id,
            parent,
            name: name.to_owned(),
            start_ns,
            duration_ns,
            bytes: 0,
            tid,
            req,
            heap_allocated,
            heap_live_peak,
        });
        Some(id)
    }

    /// Increments counter `name` by `delta`.
    pub fn add(&self, name: &str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut state = self.state.lock().expect("telemetry lock poisoned");
        if let Some(slot) = state.counters.get_mut(name) {
            *slot += delta;
        } else {
            state.counters.insert(name.to_owned(), delta);
        }
    }

    /// Sets gauge `name` to `value` — a point-in-time level (queue depth,
    /// in-flight requests, cache hit ratio, resident memory), as opposed
    /// to the monotonic counters. Last write wins; `/metrics` renders
    /// gauges with `# TYPE ... gauge`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        let mut state = self.state.lock().expect("telemetry lock poisoned");
        if let Some(slot) = state.gauges.get_mut(name) {
            *slot = value;
        } else {
            state.gauges.insert(name.to_owned(), value);
        }
    }

    /// Records one sample into histogram `name`.
    pub fn observe(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        let mut state = self.state.lock().expect("telemetry lock poisoned");
        let hist = if state.histograms.contains_key(name) {
            state.histograms.get_mut(name).unwrap()
        } else {
            state
                .histograms
                .entry(name.to_owned())
                .or_insert_with(Hist::default)
        };
        if value.is_finite() {
            if hist.finite_count == 0 || value < hist.min {
                hist.min = value;
            }
            if hist.finite_count == 0 || value > hist.max {
                hist.max = value;
            }
            hist.sum += value;
            hist.finite_count += 1;
        }
        hist.count += 1;
        *hist.buckets.entry(log2_bucket(value)).or_insert(0) += 1;
    }

    /// Copies the current contents into an immutable [`Trace`] document.
    /// Open spans are not included — snapshot after the work completes.
    pub fn snapshot(&self) -> Trace {
        let state = self.state.lock().expect("telemetry lock poisoned");
        Trace {
            version: TRACE_VERSION,
            spans: state.spans.clone(),
            counters: state
                .counters
                .iter()
                .map(|(name, &value)| Counter {
                    name: name.clone(),
                    value,
                })
                .collect(),
            gauges: state
                .gauges
                .iter()
                .map(|(name, &value)| Gauge {
                    name: name.clone(),
                    value,
                })
                .collect(),
            histograms: state
                .histograms
                .iter()
                .map(|(name, h)| Histogram {
                    name: name.clone(),
                    count: h.count,
                    finite_count: h.finite_count,
                    sum: h.sum,
                    min: h.min,
                    max: h.max,
                    buckets: h.buckets.iter().map(|(&b, &c)| (b, c)).collect(),
                })
                .collect(),
        }
    }

    /// The per-thread-lane stacks of currently-open spans, outermost
    /// first: `(lane, [names])`. Empty when recording is off or nothing is
    /// open. This is the view the [`profile`] sampler collapses.
    pub fn open_stacks(&self) -> Vec<(u64, Vec<String>)> {
        let state = self.state.lock().expect("telemetry lock poisoned");
        state
            .open
            .iter()
            .filter(|(_, stack)| !stack.is_empty())
            .map(|(&tid, stack)| (tid, stack.iter().map(|(_, n)| n.clone()).collect()))
            .collect()
    }

    /// Clears all recorded data (the enabled flag is untouched).
    pub fn reset(&self) {
        let mut state = self.state.lock().expect("telemetry lock poisoned");
        *state = State::default();
    }

    fn record(&self, open: OpenSpan, duration: Duration) {
        let key = self as *const Telemetry as usize;
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&e| e == (key, open.id)) {
                stack.remove(pos);
            }
        });
        let (heap_allocated, heap_live_peak) = match open.heap {
            Some(scope) => {
                let s = scope.finish();
                (s.allocated, s.live_peak)
            }
            None => (0, 0),
        };
        let record = SpanRecord {
            id: open.id,
            parent: open.parent,
            name: open.name.into_owned(),
            start_ns: open.start_ns,
            duration_ns: duration.as_nanos() as u64,
            bytes: open.bytes,
            tid: open.tid,
            req: open.req,
            heap_allocated,
            heap_live_peak,
        };
        let mut state = self.state.lock().expect("telemetry lock poisoned");
        // Retire the span from the sampler's open-stack view (it may
        // already be gone if the registry was reset while it was open).
        if let Some(stack) = state.open.get_mut(&open.tid) {
            stack.retain(|&(id, _)| id != record.id);
            if stack.is_empty() {
                state.open.remove(&open.tid);
            }
        }
        state.spans.push(record);
    }
}

/// Power-of-two bucket index: `floor(log2(v))` for positive finite `v`,
/// [`UNDERFLOW_BUCKET`] otherwise.
pub fn log2_bucket(v: f64) -> i32 {
    if v > 0.0 && v.is_finite() {
        v.log2().floor().clamp(-1080.0, 1080.0) as i32
    } else {
        UNDERFLOW_BUCKET
    }
}

// ---------------------------------------------------------------------------
// Span guard
// ---------------------------------------------------------------------------

struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: Cow<'static, str>,
    start_ns: u64,
    bytes: u64,
    tid: u64,
    req: u64,
    heap: Option<crate::alloc::HeapScope>,
}

/// RAII guard for an open span: records the span on drop (or via
/// [`Self::finish`], which also returns the measured duration).
pub struct SpanGuard<'a> {
    telemetry: &'a Telemetry,
    start: Instant,
    open: Option<OpenSpan>,
}

impl SpanGuard<'_> {
    /// Attributes auxiliary heap bytes to this span (cumulative).
    pub fn add_bytes(&mut self, bytes: u64) {
        if let Some(open) = &mut self.open {
            open.bytes += bytes;
        }
    }

    /// The span id, when recording (stable within one registry).
    pub fn id(&self) -> Option<u64> {
        self.open.as_ref().map(|o| o.id)
    }

    /// Tags this span (and, by convention, its subtree) with a request
    /// lane id. 0 — the default — means "not request-scoped"; the serving
    /// layer stamps each root `serve.request` span with the `req_id` it
    /// returns to the client so traces are selectable by request.
    pub fn set_req(&mut self, req: u64) {
        if let Some(open) = &mut self.open {
            open.req = req;
        }
    }

    /// Measured bytes the opening thread has allocated under this span so
    /// far. 0 when the span is inert or `ENTMATCHER_MEM` counting was off
    /// at open time.
    pub fn heap_allocated(&self) -> u64 {
        self.open
            .as_ref()
            .and_then(|o| o.heap.as_ref())
            .map_or(0, |h| h.allocated())
    }

    /// Measured peak live heap bytes under this span so far (see
    /// [`crate::alloc::HeapScope`]). 0 when counting is off.
    pub fn heap_live_peak(&self) -> u64 {
        self.open
            .as_ref()
            .and_then(|o| o.heap.as_ref())
            .map_or(0, |h| h.live_peak())
    }

    /// Wall time since the span opened, without closing it.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Closes the span and returns its wall time. Works whether or not
    /// recording is on, so stage timings in report structs can be derived
    /// from the same measurement the trace stores.
    pub fn finish(mut self) -> Duration {
        let duration = self.start.elapsed();
        if let Some(open) = self.open.take() {
            self.telemetry.record(open, duration);
        }
        duration
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            self.telemetry.record(open, self.start.elapsed());
        }
    }
}

// ---------------------------------------------------------------------------
// Global registry
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

/// The process-global registry. Recording starts enabled iff the
/// `ENTMATCHER_TRACE` environment variable is set to a non-empty value
/// other than `0` at first use.
pub fn global() -> &'static Telemetry {
    GLOBAL.get_or_init(|| {
        let t = Telemetry::new();
        if env_trace_destination().is_some() {
            t.set_enabled(true);
        }
        t
    })
}

/// The `ENTMATCHER_TRACE` setting, normalized: `None` when unset, empty, or
/// `0`; otherwise the raw value. Values other than `1` are treated by the
/// CLI as an output path for the trace document.
pub fn env_trace_destination() -> Option<String> {
    match std::env::var("ENTMATCHER_TRACE") {
        Ok(v) if !v.is_empty() && v != "0" => Some(v),
        _ => None,
    }
}

/// Whether the global registry is recording.
#[inline]
pub fn enabled() -> bool {
    global().is_enabled()
}

/// Turns global recording on or off (the CLI's `--trace` entry point).
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Opens a span on the global registry.
pub fn span(name: impl Into<Cow<'static, str>>) -> SpanGuard<'static> {
    global().span(name)
}

/// Increments a global counter.
pub fn add(name: &str, delta: u64) {
    global().add(name, delta)
}

/// Records a sample into a global histogram.
pub fn observe(name: &str, value: f64) {
    global().observe(name, value)
}

/// Sets a global gauge.
pub fn set_gauge(name: &str, value: f64) {
    global().set_gauge(name, value)
}

/// Builds a labeled metric name, `base{key="value"}` — the registry's
/// convention for one-label metric families. The exposition layer splits
/// the name at the first `{`, declares one `# TYPE` per base family, and
/// merges the label block into each rendered sample (for histograms,
/// alongside the `le` bucket label). Quotes and backslashes in `value`
/// are escaped per the Prometheus text format.
pub fn labeled(base: &str, key: &str, value: &str) -> String {
    let mut escaped = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => escaped.push_str("\\\\"),
            '"' => escaped.push_str("\\\""),
            '\n' => escaped.push_str("\\n"),
            _ => escaped.push(c),
        }
    }
    format!("{base}{{{key}=\"{escaped}\"}}")
}

/// Snapshots the global registry.
pub fn snapshot() -> Trace {
    global().snapshot()
}

/// Clears the global registry.
pub fn reset() {
    global().reset()
}

// ---------------------------------------------------------------------------
// Trace document
// ---------------------------------------------------------------------------

/// One completed span: a named wall-time interval in the span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Registry-unique id (1-based, in creation order).
    pub id: u64,
    /// Parent span id, `None` for roots.
    pub parent: Option<u64>,
    /// Span name (e.g. `"similarity"`, `"transe.epoch"`).
    pub name: String,
    /// Start offset from the registry epoch, in nanoseconds.
    pub start_ns: u64,
    /// Wall time, in nanoseconds.
    pub duration_ns: u64,
    /// Auxiliary heap bytes attributed to this span by the *analytic
    /// model* (callers' `add_bytes`).
    pub bytes: u64,
    /// Thread lane the span was opened on (see [`thread_lane`]).
    pub tid: u64,
    /// Request lane: the serving-layer `req_id` this span belongs to, 0
    /// for spans that are not request-scoped.
    pub req: u64,
    /// *Measured* bytes the opening thread allocated while the span was
    /// open (counting allocator, `ENTMATCHER_MEM`); 0 when counting was
    /// off.
    pub heap_allocated: u64,
    /// *Measured* peak live heap bytes under the span (allocated minus
    /// freed while open, high-water mark); 0 when counting was off.
    pub heap_live_peak: u64,
}

crate::impl_json_struct!(SpanRecord {
    id,
    parent,
    name,
    start_ns,
    duration_ns,
    bytes,
    tid,
    req,
    heap_allocated,
    heap_live_peak,
});

impl SpanRecord {
    /// The span's wall time as a [`Duration`].
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.duration_ns)
    }
}

/// One named monotonic counter.
#[derive(Debug, Clone, PartialEq)]
pub struct Counter {
    /// Counter name (e.g. `"grid.heartbeat"`).
    pub name: String,
    /// Final value.
    pub value: u64,
}

crate::impl_json_struct!(Counter { name, value });

/// One named gauge: a point-in-time level, last write wins.
#[derive(Debug, Clone, PartialEq)]
pub struct Gauge {
    /// Gauge name (e.g. `"serve.queue_depth"`, `"process.rss_bytes"`).
    pub name: String,
    /// Last value set.
    pub value: f64,
}

crate::impl_json_struct!(Gauge { name, value });

/// One log-scale histogram: power-of-two buckets plus exact summary stats.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Histogram name (e.g. `"sinkhorn.col_dev"`).
    pub name: String,
    /// Total number of samples (including non-finite ones).
    pub count: u64,
    /// Number of finite samples — the denominator of [`Self::mean`].
    pub finite_count: u64,
    /// Sum of the finite samples.
    pub sum: f64,
    /// Smallest finite sample (0 when none).
    pub min: f64,
    /// Largest finite sample (0 when none).
    pub max: f64,
    /// Sparse `(bucket_exponent, count)` pairs, ascending by exponent;
    /// bucket `b` covers `[2^b, 2^(b+1))` and [`UNDERFLOW_BUCKET`] collects
    /// zero/negative/NaN samples.
    pub buckets: Vec<(i32, u64)>,
}

crate::impl_json_struct!(Histogram {
    name,
    count,
    finite_count,
    sum,
    min,
    max,
    buckets,
});

impl Histogram {
    /// Mean of the finite samples (0 when there are none). Dividing by
    /// `finite_count` (not `count`) keeps NaN/±inf observations from
    /// silently dragging the mean toward zero.
    pub fn mean(&self) -> f64 {
        if self.finite_count == 0 {
            0.0
        } else {
            self.sum / self.finite_count as f64
        }
    }

    /// Bucket-interpolated quantile estimate (`q` in `[0, 1]`).
    ///
    /// Samples inside the power-of-two bucket that contains the target
    /// rank are assumed uniformly distributed over `[2^b, 2^(b+1))`;
    /// ranks that land in the underflow bucket (zero / negative / NaN
    /// samples) estimate as `min(min, 0)`. The result is clamped to the
    /// exact observed `[min, max]`, so estimates never exceed the true
    /// extremes.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0.0;
        for (i, &(b, c)) in self.buckets.iter().enumerate() {
            let c = c as f64;
            let last = i + 1 == self.buckets.len();
            if cum + c >= target || last {
                if b == UNDERFLOW_BUCKET {
                    return self.min.min(0.0);
                }
                let lo = (b as f64).exp2();
                let hi = (b as f64 + 1.0).exp2();
                let frac = if c > 0.0 {
                    ((target - cum) / c).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                let v = lo + frac * (hi - lo);
                return if self.finite_count > 0 {
                    v.clamp(self.min, self.max)
                } else {
                    v
                };
            }
            cum += c;
        }
        self.max
    }

    /// Median estimate (see [`Self::quantile`]).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate (see [`Self::quantile`]).
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate (see [`Self::quantile`]).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// A complete exported trace: span tree plus metric tables. This is the
/// JSON wire format written by the CLI's `--trace` flag and read back by
/// the `trace` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Wire-format version ([`TRACE_VERSION`]).
    pub version: u64,
    /// Completed spans in completion order.
    pub spans: Vec<SpanRecord>,
    /// Counters, sorted by name.
    pub counters: Vec<Counter>,
    /// Gauges, sorted by name.
    pub gauges: Vec<Gauge>,
    /// Histograms, sorted by name.
    pub histograms: Vec<Histogram>,
}

crate::impl_json_struct!(to_only Trace {
    version,
    spans,
    counters,
    gauges,
    histograms,
});

// Reads the same fields as the serializer, after checking the version:
// a document of any other wire version is rejected by name.
impl crate::json::FromJson for Trace {
    fn from_json(v: &crate::json::Json) -> Result<Self, crate::json::JsonError> {
        let version: u64 = v.field("version")?;
        if version != TRACE_VERSION {
            return Err(crate::json::JsonError::new(format!(
                "unsupported trace wire version {version} (expected {TRACE_VERSION})"
            )));
        }
        Ok(Trace {
            version,
            spans: v.field("spans")?,
            counters: v.field("counters")?,
            gauges: v.field("gauges")?,
            histograms: v.field("histograms")?,
        })
    }
}

impl Trace {
    /// First span with the given name, if any.
    pub fn span(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// All spans with the given name.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Direct children of the span with id `parent`.
    pub fn children(&self, parent: u64) -> Vec<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .collect()
    }

    /// Root spans (no parent).
    pub fn roots(&self) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent.is_none()).collect()
    }

    /// Final value of a counter, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Last value of a gauge, if recorded.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// All spans tagged with request lane `req` (see [`SpanRecord::req`]).
    pub fn spans_for_request(&self, req: u64) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.req == req).collect()
    }

    /// A histogram by name, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Renders the span tree plus metric tables as indented text — the
    /// human view printed by the CLI `trace` subcommand.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace v{}: {} spans, {} counters, {} gauges, {} histograms",
            self.version,
            self.spans.len(),
            self.counters.len(),
            self.gauges.len(),
            self.histograms.len()
        );
        // Pre-sort children by start offset for a stable, readable tree.
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by_key(|&i| self.spans[i].start_ns);
        fn walk(trace: &Trace, order: &[usize], parent: Option<u64>, depth: usize, out: &mut String) {
            use std::fmt::Write;
            for &i in order {
                let s = &trace.spans[i];
                if s.parent != parent {
                    continue;
                }
                let ms = s.duration_ns as f64 / 1e6;
                let _ = write!(out, "{:indent$}{}  {ms:.3}ms", "", s.name, indent = depth * 2);
                if s.bytes > 0 {
                    let _ = write!(out, "  ({:.1} MB)", s.bytes as f64 / 1e6);
                }
                // Measured heap columns (wire v3, ENTMATCHER_MEM runs).
                if s.heap_live_peak > 0 || s.heap_allocated > 0 {
                    let _ = write!(
                        out,
                        "  [heap peak {:.1} MB, alloc {:.1} MB]",
                        s.heap_live_peak as f64 / 1e6,
                        s.heap_allocated as f64 / 1e6
                    );
                }
                out.push('\n');
                walk(trace, order, Some(s.id), depth + 1, out);
            }
        }
        walk(self, &order, None, 0, &mut out);
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for c in &self.counters {
                let _ = writeln!(out, "  {} = {}", c.name, c.value);
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "gauges:");
            for g in &self.gauges {
                let _ = writeln!(out, "  {} = {}", g.name, g.value);
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "histograms:");
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {}: n={} mean={:.6} min={:.6} max={:.6} p50~{:.6} p95~{:.6} p99~{:.6}",
                    h.name,
                    h.count,
                    h.mean(),
                    h.min,
                    h.max,
                    h.p50(),
                    h.p95(),
                    h.p99(),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let t = Telemetry::new();
        {
            let mut s = t.span("noop");
            s.add_bytes(10);
            assert!(s.id().is_none());
            let d = s.finish();
            // Durations still flow to callers when disabled.
            assert!(d.as_nanos() > 0);
        }
        t.add("c", 3);
        t.observe("h", 1.0);
        let trace = t.snapshot();
        assert!(trace.spans.is_empty());
        assert!(trace.counters.is_empty());
        assert!(trace.histograms.is_empty());
    }

    #[test]
    fn span_nesting_follows_thread_stack() {
        let t = Telemetry::new();
        t.set_enabled(true);
        {
            let outer = t.span("outer");
            let outer_id = outer.id().unwrap();
            {
                let inner = t.span("inner");
                assert_ne!(inner.id(), Some(outer_id));
            }
            let sibling = t.span("sibling");
            drop(sibling);
        }
        let root = t.span("root2");
        drop(root);
        let trace = t.snapshot();
        let outer = trace.span("outer").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(trace.span("inner").unwrap().parent, Some(outer.id));
        assert_eq!(trace.span("sibling").unwrap().parent, Some(outer.id));
        assert_eq!(trace.span("root2").unwrap().parent, None);
        assert_eq!(trace.children(outer.id).len(), 2);
        assert_eq!(trace.roots().len(), 2);
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let t = Telemetry::new();
        t.set_enabled(true);
        t.add("rounds", 1);
        t.add("rounds", 4);
        for v in [0.5, 1.0, 1.5, 2.0, 0.0, f64::NAN] {
            t.observe("dev", v);
        }
        let trace = t.snapshot();
        assert_eq!(trace.counter("rounds"), Some(5));
        let h = trace.histogram("dev").unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.finite_count, 5);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 2.0);
        // sum skips only non-finite samples: 0.5+1+1.5+2+0 = 5.
        assert!((h.sum - 5.0).abs() < 1e-12);
        // mean divides by the finite count: the NaN sample must not drag
        // it toward zero (5/5, not 5/6).
        assert!((h.mean() - 1.0).abs() < 1e-12);
        // Buckets: -1 -> {0.5}, 0 -> {1.0, 1.5}, 1 -> {2.0},
        // underflow -> {0.0, NaN}.
        let get = |b: i32| h.buckets.iter().find(|&&(e, _)| e == b).map(|&(_, c)| c);
        assert_eq!(get(-1), Some(1));
        assert_eq!(get(0), Some(2));
        assert_eq!(get(1), Some(1));
        assert_eq!(get(UNDERFLOW_BUCKET), Some(2));
    }

    #[test]
    fn mean_ignores_nonfinite_even_when_first() {
        let t = Telemetry::new();
        t.set_enabled(true);
        t.observe("h", f64::NAN);
        t.observe("h", 4.0);
        t.observe("h", f64::INFINITY);
        t.observe("h", 2.0);
        let h = t.snapshot().histogram("h").cloned().unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.finite_count, 2);
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 4.0);
        assert!((h.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let t = Telemetry::new();
        t.set_enabled(true);
        // 100 samples uniform over [1, 2): all land in bucket 0.
        for i in 0..100 {
            t.observe("u", 1.0 + i as f64 / 100.0);
        }
        let h = t.snapshot().histogram("u").cloned().unwrap();
        // Interpolation inside [1, 2): p50 ~ 1.5, p95 ~ 1.95.
        assert!((h.p50() - 1.5).abs() < 0.02, "p50 = {}", h.p50());
        assert!((h.p95() - 1.95).abs() < 0.02, "p95 = {}", h.p95());
        assert!(h.p99() <= h.max && h.p99() >= h.p95());
        // Quantiles are monotone and clamped to the observed range.
        assert!(h.quantile(0.0) >= h.min && h.quantile(1.0) <= h.max);

        // Spread across buckets: 8 samples in [1,2), 2 in [8,16).
        let t = Telemetry::new();
        t.set_enabled(true);
        for _ in 0..8 {
            t.observe("s", 1.5);
        }
        for _ in 0..2 {
            t.observe("s", 12.0);
        }
        let h = t.snapshot().histogram("s").cloned().unwrap();
        assert!(h.p50() < 2.0, "p50 must stay in the low bucket: {}", h.p50());
        assert!(h.p95() >= 8.0, "p95 must reach the high bucket: {}", h.p95());
    }

    #[test]
    fn quantile_of_underflow_only_histogram() {
        let t = Telemetry::new();
        t.set_enabled(true);
        t.observe("z", 0.0);
        t.observe("z", -3.0);
        let h = t.snapshot().histogram("z").cloned().unwrap();
        // All mass in the underflow bucket: estimate is min(min, 0).
        assert_eq!(h.p50(), -3.0);
        let empty = Histogram {
            name: "e".into(),
            count: 0,
            finite_count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: vec![],
        };
        assert_eq!(empty.quantile(0.5), 0.0);
    }

    #[test]
    fn spans_carry_thread_lanes_and_open_stacks_are_visible() {
        let t = Telemetry::new();
        t.set_enabled(true);
        let outer = t.span("outer");
        let lane = thread_lane();
        assert!(lane > 0);
        {
            let _inner = t.span("inner");
            let stacks = t.open_stacks();
            assert_eq!(stacks.len(), 1);
            assert_eq!(stacks[0].0, lane);
            assert_eq!(stacks[0].1, vec!["outer".to_string(), "inner".to_string()]);
        }
        // Closing pops the open view.
        assert_eq!(t.open_stacks()[0].1, vec!["outer".to_string()]);
        drop(outer);
        assert!(t.open_stacks().is_empty());
        // Completed records keep the lane.
        let trace = t.snapshot();
        assert!(trace.spans.iter().all(|s| s.tid == lane));

        // A span opened on another thread lands on a different lane.
        let other = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    drop(t.span("worker"));
                    thread_lane()
                })
                .join()
                .unwrap()
        });
        assert_ne!(other, lane);
        assert_eq!(t.snapshot().span("worker").unwrap().tid, other);
    }

    #[test]
    fn traces_of_other_wire_versions_are_rejected_by_name() {
        let current = Telemetry::new().snapshot();
        let text = crate::json::to_string(&current);
        assert!(crate::json::from_str::<Trace>(&text).is_ok());
        for version in [1u64, 2, 3, TRACE_VERSION + 1] {
            let other = text.replacen(
                &format!("\"version\":{TRACE_VERSION}"),
                &format!("\"version\":{version}"),
                1,
            );
            assert_ne!(other, text, "the serialized trace must carry its version");
            let err = crate::json::from_str::<Trace>(&other).unwrap_err().to_string();
            assert!(
                err.contains(&format!("unsupported trace wire version {version}")),
                "v{version}: {err}"
            );
        }
    }

    #[test]
    fn gauges_record_last_write_and_round_trip() {
        let t = Telemetry::new();
        t.observe("h", 1.0); // enabled check below needs some content
        t.set_gauge("depth", 3.0);
        assert!(t.snapshot().gauges.is_empty(), "disabled registry records no gauges");
        t.set_enabled(true);
        t.set_gauge("depth", 3.0);
        t.set_gauge("depth", 7.5);
        t.set_gauge("inflight", 2.0);
        let trace = t.snapshot();
        assert_eq!(trace.gauge("depth"), Some(7.5), "last write wins");
        assert_eq!(trace.gauge("inflight"), Some(2.0));
        assert_eq!(trace.gauge("missing"), None);
        use crate::json::{FromJson, ToJson};
        let back =
            Trace::from_json(&crate::json::Json::parse(&trace.to_json().dump()).unwrap()).unwrap();
        assert_eq!(trace, back);
        t.reset();
        assert!(t.snapshot().gauges.is_empty());
    }

    #[test]
    fn request_lane_tags_spans_and_filters() {
        let t = Telemetry::new();
        t.set_enabled(true);
        let root_id = {
            let mut root = t.span("serve.request");
            root.set_req(42);
            root.id().unwrap()
        };
        // Manual record on the same timeline, attached across threads.
        let pickup = t.now_ns();
        let id = t
            .record_span("serve.queue", Some(root_id), 42, pickup, 1234, 64, 32)
            .unwrap();
        drop(t.span("unrelated"));
        let trace = t.snapshot();
        let reqs = trace.spans_for_request(42);
        assert_eq!(reqs.len(), 2);
        assert!(reqs.iter().any(|s| s.name == "serve.request" && s.id == root_id));
        let queue = trace.span("serve.queue").unwrap();
        assert_eq!(queue.id, id);
        assert_eq!(queue.parent, Some(root_id));
        assert_eq!(queue.duration_ns, 1234);
        assert_eq!(queue.heap_allocated, 64);
        assert_eq!(queue.heap_live_peak, 32);
        assert_eq!(trace.span("unrelated").unwrap().req, 0);
        // record_span is inert when disabled.
        t.set_enabled(false);
        assert!(t.record_span("x", None, 1, 0, 0, 0, 0).is_none());
    }

    #[test]
    fn labeled_builds_escaped_metric_names() {
        assert_eq!(
            labeled("request_seconds", "endpoint", "/match/topk"),
            "request_seconds{endpoint=\"/match/topk\"}"
        );
        assert_eq!(labeled("m", "k", "a\"b\\c"), "m{k=\"a\\\"b\\\\c\"}");
    }

    #[test]
    fn log2_bucket_edges() {
        assert_eq!(log2_bucket(1.0), 0);
        assert_eq!(log2_bucket(1.999), 0);
        assert_eq!(log2_bucket(2.0), 1);
        assert_eq!(log2_bucket(0.25), -2);
        assert_eq!(log2_bucket(0.0), UNDERFLOW_BUCKET);
        assert_eq!(log2_bucket(-4.0), UNDERFLOW_BUCKET);
        assert_eq!(log2_bucket(f64::NAN), UNDERFLOW_BUCKET);
        assert_eq!(log2_bucket(f64::INFINITY), UNDERFLOW_BUCKET);
    }

    #[test]
    fn finish_returns_duration_and_records_bytes() {
        let t = Telemetry::new();
        t.set_enabled(true);
        let mut s = t.span("stage");
        s.add_bytes(1000);
        s.add_bytes(24);
        let d = s.finish();
        let trace = t.snapshot();
        let rec = trace.span("stage").unwrap();
        assert_eq!(rec.duration_ns, d.as_nanos() as u64);
        assert_eq!(rec.bytes, 1024);
        assert_eq!(rec.duration(), d);
    }

    #[test]
    fn reset_clears_everything() {
        let t = Telemetry::new();
        t.set_enabled(true);
        drop(t.span("a"));
        t.add("c", 1);
        t.observe("h", 1.0);
        t.reset();
        let trace = t.snapshot();
        assert!(trace.spans.is_empty() && trace.counters.is_empty() && trace.histograms.is_empty());
        assert!(t.is_enabled(), "reset must not flip the enabled switch");
    }

    #[test]
    fn render_shows_tree_and_metrics() {
        let t = Telemetry::new();
        t.set_enabled(true);
        {
            let _p = t.span("pipeline");
            drop(t.span("similarity"));
        }
        t.add("cells", 2);
        t.observe("loss", 0.5);
        let text = t.snapshot().render();
        assert!(text.contains("pipeline"));
        assert!(text.contains("  similarity"), "child must be indented: {text}");
        assert!(text.contains("cells = 2"));
        assert!(text.contains("loss: n=1"));
    }
}
