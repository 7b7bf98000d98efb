//! Pins the counting allocator's disabled behavior *exactly*: with
//! `ENTMATCHER_MEM` unset, not a single counter is ever written — the
//! whole hook is one relaxed atomic load per allocator call.
//!
//! This lives in its own test binary (own process, own allocator
//! installation) so no other test can flip the enable switch and no
//! allocation can be counted before the assertion runs.

use entmatcher_support::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn disabled_counters_stay_exactly_zero() {
    if std::env::var(alloc::ENV_MEM).is_ok_and(|v| !v.is_empty() && v != "0") {
        // The environment explicitly asked for counting; the exact-zero
        // guarantee only holds with it off.
        eprintln!("skipping: {} is set", alloc::ENV_MEM);
        return;
    }
    // The test harness has already allocated plenty by now; churn some
    // more through every entry point for good measure.
    let v = std::hint::black_box(vec![0u8; 1 << 20]);
    drop(v);
    let z = std::hint::black_box(vec![0u64; 1 << 10]); // alloc_zeroed path
    drop(z);
    let mut grow = Vec::with_capacity(16);
    for i in 0..10_000 {
        grow.push(i); // realloc path
    }
    std::hint::black_box(&grow);

    assert!(!alloc::enabled());
    let stats = alloc::stats();
    assert_eq!(stats, alloc::AllocStats::default(), "no counter may ever be written while counting is off: {stats:?}");

    // Scopes opened with counting off are inert and free.
    let scope = alloc::HeapScope::open();
    std::hint::black_box(vec![0u8; 1 << 16]);
    let s = scope.finish();
    assert_eq!(s.allocated, 0);
    assert_eq!(s.live_peak, 0);

    // The measured-memory pass of the bench harness and the `/metrics`
    // heap gauges key off the same switch: no heap gauges when off.
    let gauges = entmatcher_support::telemetry::expose::render_process_gauges();
    assert!(!gauges.contains("entmatcher_heap_live_bytes"));
    if cfg!(target_os = "linux") {
        assert!(
            gauges.contains("entmatcher_rss_bytes "),
            "RSS is reported even when counting is off: {gauges}"
        );
    }
}
