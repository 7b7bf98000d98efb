//! The counting allocator's process-wide counters under a real
//! `#[global_allocator]` installation.
//!
//! Every thread of a test process moves the process live balance, so this
//! test has a binary of its own, as `alloc_off.rs` does: no other test
//! allocates or frees while it reads the counters. Scope-level checks,
//! which only the test's own thread moves, live in `alloc.rs`.

use entmatcher_support::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn process_counters_track_alloc_and_free() {
    alloc::set_enabled(true);
    let before = alloc::stats();
    let block = vec![0u8; 1 << 20];
    let during = alloc::stats();
    assert!(
        during.total_bytes >= before.total_bytes + (1 << 20),
        "total must grow by at least the block size"
    );
    assert!(during.allocs > before.allocs);
    assert!(during.live_bytes >= (1 << 20));
    assert!(during.peak_bytes >= during.live_bytes.min(1 << 20));
    drop(block);
    let after = alloc::stats();
    assert!(after.frees > during.frees);
    assert!(
        after.live_bytes + (1 << 20) <= during.live_bytes,
        "freeing the block must lower the live balance by its size"
    );
    // Peak is a high-water mark: it never drops on free.
    assert!(after.peak_bytes >= during.peak_bytes.min(1 << 20));
    alloc::set_enabled(false);
}
