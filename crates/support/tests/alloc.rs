//! End-to-end tests of the counting allocator under a real
//! `#[global_allocator]` installation: scope balances, telemetry span
//! attribution, attribution under the work-stealing pool, and span bytes
//! folded into an allocation profile.
//!
//! Every test that enables counting serializes on one lock — the enable
//! switch and the process counters are global. Counter assertions are
//! `>=` where other harness threads may allocate concurrently. The process
//! live balance, which every harness thread moves, is pinned in
//! `alloc_process.rs`, and exact-zero behavior with counting off in
//! `alloc_off.rs`: each a separate process with no other test.

use entmatcher_support::alloc::{self, CountingAlloc};
use entmatcher_support::pool::Pool;
use entmatcher_support::telemetry::profile::{fold, Weight};
use entmatcher_support::telemetry::Telemetry;
use std::sync::Mutex;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A free lowers the live balance of the scope open on the freeing
/// thread: allocating, freeing and allocating 1 MiB again peaks near
/// 1 MiB, not 2 MiB. Only this thread moves the scope.
#[test]
fn a_free_lowers_the_scope_live_balance() {
    let _lock = locked();
    const BLOCK: u64 = 1 << 20;
    alloc::set_enabled(true);
    let scope = alloc::HeapScope::open();
    drop(std::hint::black_box(vec![0u8; BLOCK as usize]));
    drop(std::hint::black_box(vec![0u8; BLOCK as usize]));
    let stats = scope.finish();
    alloc::set_enabled(false);
    assert!(stats.allocated >= 2 * BLOCK, "{stats:?}");
    assert!(
        stats.live_peak >= BLOCK && stats.live_peak < BLOCK + BLOCK / 2,
        "the first block was freed before the second: {stats:?}"
    );
}

#[test]
fn telemetry_spans_gain_measured_heap_fields() {
    let _lock = locked();
    alloc::set_enabled(true);
    let t = Telemetry::new();
    t.set_enabled(true);
    {
        let outer = t.span("outer");
        let held;
        {
            let inner = t.span("inner");
            held = vec![0u8; 2 << 20];
            std::hint::black_box(&held);
            drop(inner);
        }
        // `held` is still live: inner's live peak and outer's both saw it.
        drop(held);
        drop(outer);
    }
    let trace = t.snapshot();
    let inner = trace.span("inner").unwrap();
    let outer = trace.span("outer").unwrap();
    assert!(
        inner.heap_allocated >= (2 << 20),
        "inner span must see the allocation: {}",
        inner.heap_allocated
    );
    assert!(inner.heap_live_peak >= (2 << 20));
    // Attribution is inclusive: the enclosing span sees at least what the
    // nested span saw.
    assert!(outer.heap_allocated >= inner.heap_allocated);
    assert!(outer.heap_live_peak >= (2 << 20));
    alloc::set_enabled(false);
}

#[test]
fn spans_without_counting_read_zero_heap() {
    let _lock = locked();
    alloc::set_enabled(false);
    let t = Telemetry::new();
    t.set_enabled(true);
    {
        let _s = t.span("stage");
        std::hint::black_box(vec![0u8; 1 << 20]);
    }
    let span = t.snapshot().span("stage").cloned().unwrap();
    assert_eq!(span.heap_allocated, 0);
    assert_eq!(span.heap_live_peak, 0);
}

/// Allocations inside pool tasks are charged to the worker's own span
/// lane (`pool.worker`), with the caller's share landing on the span open
/// on the calling thread — together they account for all task allocations.
#[test]
fn pool_task_allocations_land_on_worker_span_lanes() {
    let _lock = locked();
    const TASKS: usize = 64;
    const BYTES_PER_TASK: usize = 1 << 20;
    alloc::set_enabled(true);
    // The pool's workers record their `pool.worker` spans into the
    // submitter's installed registry.
    let registry: &Telemetry = Box::leak(Box::default());
    registry.set_enabled(true);
    let _installed = registry.install();
    let pool = Pool::new(4);
    {
        let _stage = entmatcher_support::telemetry::span("stage");
        pool.run(TASKS, &|_| {
            std::hint::black_box(vec![0u8; BYTES_PER_TASK]);
            // Slow the tasks enough that the background workers are
            // guaranteed to wake and claim some before the caller drains
            // the whole job.
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
    }
    // `run` returns when every task has executed, but a worker may still
    // be between its last pending-decrement and dropping its span; joining
    // the workers (pool drop) closes every `pool.worker` span before the
    // snapshot.
    drop(pool);
    let trace = registry.snapshot();
    alloc::set_enabled(false);

    let worker_alloc: u64 = trace
        .spans_named("pool.worker")
        .map(|s| s.heap_allocated)
        .sum();
    let stage_alloc = trace.span("stage").map_or(0, |s| s.heap_allocated);
    let expected = (TASKS * BYTES_PER_TASK) as u64;
    assert!(
        worker_alloc + stage_alloc >= expected,
        "stage ({stage_alloc}) + workers ({worker_alloc}) must cover all task \
         allocations ({expected})"
    );
    assert!(
        worker_alloc > 0,
        "with width 4 and 64 slow-to-claim tasks, at least one background \
         worker must have executed (and been charged for) a task"
    );
}

/// Global totals are thread-count-independent: the same job allocates the
/// same bytes whether it runs serially or across 4 workers.
#[test]
fn totals_are_thread_count_independent() {
    let _lock = locked();
    const TASKS: usize = 100;
    const BYTES_PER_TASK: usize = 64 << 10;
    alloc::set_enabled(true);
    let run = |width: usize| {
        let pool = Pool::new(width);
        let before = alloc::stats().total_bytes;
        pool.run(TASKS, &|_| {
            std::hint::black_box(vec![0u8; BYTES_PER_TASK]);
        });
        alloc::stats().total_bytes - before
    };
    let serial = run(1);
    let parallel = run(4);
    alloc::set_enabled(false);
    let expected = (TASKS * BYTES_PER_TASK) as u64;
    assert!(serial >= expected && parallel >= expected);
    // Identical up to incidental allocations (job bookkeeping, harness
    // noise) — far below one task's worth either way.
    let diff = serial.abs_diff(parallel);
    assert!(
        diff < expected / 10,
        "serial delta {serial} and parallel delta {parallel} must agree \
         (diff {diff}, expected {expected})"
    );
}

/// A span's measured bytes fold into an allocation profile: the inner
/// span, which allocates 32 blocks of 4 KiB, carries at least their
/// 131072 B as its own.
#[test]
fn span_allocations_fold_into_the_heap_profile() {
    let _lock = locked();
    alloc::set_enabled(true);
    let t = Telemetry::new();
    t.set_enabled(true);
    {
        let _outer = t.span("mem.outer");
        let _stage = t.span("mem.stage");
        for _ in 0..32 {
            std::hint::black_box(vec![0u8; 4 << 10]);
        }
    }
    alloc::set_enabled(false);
    let stacks = fold(&t.snapshot(), Weight::HeapBytes);
    let stage = stacks.get("mem.outer;mem.stage").copied().unwrap_or(0);
    assert!(
        stage >= 32 * (4 << 10),
        "the allocating span must carry its bytes: {stacks:?}"
    );
    assert!(
        stacks.keys().all(|k| k.starts_with("mem.outer")),
        "every stack hangs from the root span: {stacks:?}"
    );
}
