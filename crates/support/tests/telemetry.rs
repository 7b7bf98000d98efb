//! Integration tests for the telemetry layer: JSON wire-shape stability,
//! thread-safety of the registry under concurrent recording, and which
//! registry the module-level functions and pool workers record into.

use entmatcher_support::json::{to_string_pretty, ToJson};
use entmatcher_support::pool::Pool;
use entmatcher_support::telemetry::{self, SpanGuard, Telemetry, Trace};

/// Builds a small but fully-featured trace on a standalone registry:
/// nested spans with byte attribution, counters, and histograms.
fn sample_trace() -> Trace {
    let t = Telemetry::new();
    t.set_enabled(true);
    {
        let mut root = t.span("pipeline");
        root.add_bytes(1024);
        {
            let mut child = t.span("similarity");
            child.add_bytes(4096);
        }
        let _other = t.span("optimize");
    }
    t.add("sinkhorn.iterations", 100);
    t.add("grid.heartbeat", 3);
    t.observe("sinkhorn.col_dev", 0.5);
    t.observe("sinkhorn.col_dev", 0.003);
    t.observe("transe.loss", 12.25);
    t.snapshot()
}

#[test]
fn golden_json_round_trip() {
    let trace = sample_trace();
    assert_eq!(trace.spans.len(), 3);
    assert_eq!(trace.counters.len(), 2);
    assert_eq!(trace.histograms.len(), 2);

    // trace -> json text -> parsed json -> trace must be the identity.
    let text = to_string_pretty(&trace);
    let back: Trace = entmatcher_support::json::from_str(&text).expect("trace parses");
    assert_eq!(back, trace);

    // Wire-shape guarantees consumers rely on: top-level version and the
    // three sections, span records keyed by stable field names.
    let json = trace.to_json();
    assert_eq!(json.field::<u64>("version").unwrap(), 4);
    assert!(json.get("gauges").is_some(), "v4 traces carry a gauges table");
    let spans = json.get("spans").and_then(|s| s.as_array()).expect("spans");
    for key in [
        "id",
        "parent",
        "name",
        "start_ns",
        "duration_ns",
        "bytes",
        "tid",
        "req",
        "heap_allocated",
        "heap_live_peak",
    ] {
        assert!(spans[0].get(key).is_some(), "span field {key} missing");
    }
    let hists = json
        .get("histograms")
        .and_then(|h| h.as_array())
        .expect("histograms");
    for key in ["name", "count", "finite_count", "sum", "min", "max", "buckets"] {
        assert!(hists[0].get(key).is_some(), "histogram field {key} missing");
    }
}

#[test]
fn parent_links_survive_round_trip() {
    let trace = sample_trace();
    let text = to_string_pretty(&trace);
    let back: Trace = entmatcher_support::json::from_str(&text).unwrap();
    let root = back.span("pipeline").expect("root span");
    assert!(root.parent.is_none());
    let children = back.children(root.id);
    assert_eq!(children.len(), 2);
    assert!(children.iter().any(|s| s.name == "similarity"));
    // Bytes attribution: the root's own bytes, not its children's.
    assert_eq!(root.bytes, 1024);
    assert_eq!(back.span("similarity").unwrap().bytes, 4096);
}

#[test]
fn concurrent_recording_loses_no_events() {
    const THREADS: usize = 8;
    const SPANS_PER_THREAD: usize = 50;
    let t = Telemetry::new();
    t.set_enabled(true);
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let t = &t;
            scope.spawn(move || {
                for i in 0..SPANS_PER_THREAD {
                    let mut span: SpanGuard<'_> = t.span("work");
                    span.add_bytes(1);
                    t.add("events", 1);
                    t.observe("latency", (worker * SPANS_PER_THREAD + i) as f64 + 1.0);
                }
            });
        }
    });
    let trace = t.snapshot();
    let spans: Vec<_> = trace.spans_named("work").collect();
    assert_eq!(spans.len(), THREADS * SPANS_PER_THREAD, "lost span records");
    // Fresh threads have no open parent: every span must be a root.
    assert!(spans.iter().all(|s| s.parent.is_none()));
    assert_eq!(
        trace.counter("events"),
        Some((THREADS * SPANS_PER_THREAD) as u64),
        "lost counter increments"
    );
    let hist = trace.histogram("latency").expect("latency histogram");
    assert_eq!(hist.count, (THREADS * SPANS_PER_THREAD) as u64);
    assert_eq!(hist.min, 1.0);
    assert_eq!(hist.max, (THREADS * SPANS_PER_THREAD) as f64);
    let total: u64 = hist.buckets.iter().map(|&(_, c)| c).sum();
    assert_eq!(total, hist.count, "bucket counts must cover every sample");
}

#[test]
fn disabled_registry_records_nothing_but_still_times() {
    let t = Telemetry::new();
    assert!(!t.is_enabled());
    let span = t.span("ignored");
    let d = span.finish();
    t.add("ignored", 1);
    t.observe("ignored", 1.0);
    // finish() still returns a measured duration for report fields.
    assert!(d.as_nanos() < u64::MAX as u128);
    let trace = t.snapshot();
    assert!(trace.spans.is_empty());
    assert!(trace.counters.is_empty());
    assert!(trace.histograms.is_empty());
}

/// Two threads each install a registry and run a job on one shared pool:
/// each registry holds exactly its own job's task spans and counters, and
/// the `pool.worker` spans of the background workers that ran its tasks.
#[test]
fn installed_registries_stay_apart_on_a_shared_pool() {
    const TASKS: usize = 64;
    let pool = Pool::new(4);
    let registries: Vec<&'static Telemetry> = std::thread::scope(|scope| {
        let jobs: Vec<_> = ["job.a", "job.b"]
            .into_iter()
            .map(|name| {
                let pool = &pool;
                scope.spawn(move || {
                    let registry: &'static Telemetry = Box::leak(Box::default());
                    registry.set_enabled(true);
                    let _installed = registry.install();
                    pool.run(TASKS, &|_| {
                        let _span = telemetry::span(name);
                        telemetry::add(name, 1);
                        // Long enough for the background workers to claim
                        // tasks of both jobs.
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    });
                    registry
                })
            })
            .collect();
        jobs.into_iter().map(|job| job.join().unwrap()).collect()
    });
    // Joining the workers closes every `pool.worker` span.
    drop(pool);
    let mut worker_spans = 0;
    let names = [("job.a", "job.b"), ("job.b", "job.a")];
    for (registry, (own, other)) in registries.iter().zip(names) {
        let trace = registry.snapshot();
        assert_eq!(trace.counter(own), Some(TASKS as u64));
        assert_eq!(trace.counter(other), None);
        assert_eq!(trace.counter("pool.tasks"), Some(TASKS as u64));
        assert_eq!(trace.spans_named(own).count(), TASKS);
        assert_eq!(trace.spans_named(other).count(), 0);
        for worker in trace.spans_named("pool.worker") {
            worker_spans += 1;
            let tasks = trace.children(worker.id);
            assert!(!tasks.is_empty(), "a pool.worker span runs tasks");
            assert!(tasks.iter().all(|s| s.name == own && s.tid == worker.tid));
        }
    }
    assert!(worker_spans > 0, "the background workers ran no task");
}

/// With nothing installed, the module-level functions record into the
/// global registry; an installed registry takes over until its guard
/// drops, and nested installs restore the one before them.
#[test]
fn module_functions_record_into_the_current_registry() {
    assert!(std::ptr::eq(telemetry::current(), telemetry::global()));
    let was_enabled = telemetry::enabled();
    telemetry::set_enabled(true);
    telemetry::add("uninstalled.counter", 3);
    drop(telemetry::span("uninstalled.span"));
    let global = telemetry::global().snapshot();
    telemetry::set_enabled(was_enabled);
    assert_eq!(global.counter("uninstalled.counter"), Some(3));
    assert!(global.span("uninstalled.span").is_some());

    let outer: &'static Telemetry = Box::leak(Box::default());
    let inner: &'static Telemetry = Box::leak(Box::default());
    outer.set_enabled(true);
    inner.set_enabled(true);
    {
        let _outer = outer.install();
        {
            let _inner = inner.install();
            assert!(std::ptr::eq(telemetry::current(), inner));
            telemetry::add("installed.counter", 1);
        }
        assert!(std::ptr::eq(telemetry::current(), outer));
        telemetry::add("installed.counter", 2);
    }
    assert!(std::ptr::eq(telemetry::current(), telemetry::global()));
    assert_eq!(inner.snapshot().counter("installed.counter"), Some(1));
    assert_eq!(outer.snapshot().counter("installed.counter"), Some(2));
    assert_eq!(telemetry::snapshot().counter("installed.counter"), None);
}
