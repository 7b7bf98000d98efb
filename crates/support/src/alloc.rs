//! Measured memory observability: a counting [`GlobalAlloc`] wrapper with
//! per-scope heap attribution and a resident-set-size reader.
//!
//! The paper ranks matchers by *measured* peak memory (Table 6, Figure 5)
//! as much as by wall time, but until this module the workspace only
//! carried an analytic space model (`peak_aux_bytes` et al.). This module
//! supplies the ground truth the model is validated against:
//!
//! - [`CountingAlloc`] — a zero-dependency `#[global_allocator]` wrapper
//!   around [`std::alloc::System`] that maintains process-wide atomic
//!   counters (live / peak / total bytes, allocation and free counts).
//! - **Heap scopes** ([`HeapScope`]) — a fixed-capacity thread-local stack
//!   of attribution cells. While a scope is open on a thread, every
//!   allocation that thread performs is charged to it (and to every
//!   enclosing scope, so attribution is *inclusive*, mirroring the span
//!   tree). `telemetry::span` opens one per span when measurement is on,
//!   which is how trace spans gain measured `heap_allocated` /
//!   `heap_live_peak` fields alongside their modeled `bytes`, and what
//!   `--mem-profile` folds into allocation flamegraphs
//!   ([`crate::telemetry::profile`]).
//! - [`rss_bytes`] — resident set size from `/proc/self/statm` (`None`
//!   off Linux), so `/metrics` always has a process memory gauge even
//!   when counting is off.
//!
//! # Enablement and overhead
//!
//! Counting is **off by default** and costs exactly one relaxed atomic
//! load per allocator call when off — no counter is ever written, which
//! `tests/alloc_off.rs` pins exactly. It turns on via the
//! `ENTMATCHER_MEM` switch (any value but unset, empty, whitespace-only
//! or `0`; [`crate::env::switch`]) or [`set_enabled`]. The environment
//! probe is lazy and reentrancy-safe: the probing thread parks the state
//! machine in a "probing" state first, so the allocations `std::env::var`
//! itself performs fall through uncounted instead of recursing.
//!
//! # Attribution rules
//!
//! - Attribution is *thread-local*: an allocation is charged to the scopes
//!   open on the **allocating** thread. Work dispatched onto the pool is
//!   therefore charged to the worker's own `pool.worker` span, not the
//!   caller's stage span; global totals are unaffected (they are summed
//!   process-wide and are thread-count-independent).
//! - A free is charged (negatively, saturating at the peak) to the scopes
//!   open on the **freeing** thread, which makes `live_peak` exact for
//!   the dominant alloc-and-free-on-one-thread pattern and conservative
//!   (an over-estimate is impossible, an under-estimate only when memory
//!   is freed on a thread that did not allocate it).
//! - The scope stack has a fixed capacity of [`MAX_SCOPE_DEPTH`]; deeper
//!   nesting is safe but unattributed (the allocator never allocates or
//!   locks on its hot path, so the stack cannot grow).
//!
//! Scope cells are reference-counted: the thread-local stack holds its own
//! strong reference, released when the scope is popped, so a guard dropped
//! out of order (or on another thread) can never leave a dangling pointer
//! behind.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Environment switch turning allocation counting on (the
/// [`crate::env::switch`] rule: unset, empty, whitespace-only or `0` is
/// off).
pub const ENV_MEM: &str = "ENTMATCHER_MEM";

/// Maximum number of simultaneously open heap scopes per thread that
/// receive attribution.
pub const MAX_SCOPE_DEPTH: usize = 32;

// ---------------------------------------------------------------------------
// Enable state
// ---------------------------------------------------------------------------

// 0 = unknown (environment not probed yet), 1 = off, 2 = on,
// 3 = probing (one thread is inside std::env::var, whose own allocations
// must fall through uncounted).
const STATE_UNKNOWN: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;
const STATE_PROBING: u8 = 3;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNKNOWN);

#[inline]
fn counting() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF | STATE_PROBING => false,
        _ => probe_env(),
    }
}

#[cold]
fn probe_env() -> bool {
    if STATE
        .compare_exchange(
            STATE_UNKNOWN,
            STATE_PROBING,
            Ordering::Relaxed,
            Ordering::Relaxed,
        )
        .is_err()
    {
        // Another thread is probing (or already resolved the state);
        // treat as off until the probe lands.
        return STATE.load(Ordering::Relaxed) == STATE_ON;
    }
    let on = crate::env::switch(ENV_MEM).is_some();
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Whether allocation counting is on (probing `ENTMATCHER_MEM` on first
/// call).
#[inline]
pub fn enabled() -> bool {
    counting()
}

/// Turns allocation counting on or off programmatically (overrides the
/// environment probe).
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Global counters
// ---------------------------------------------------------------------------

// Live bytes are signed: memory allocated before counting was enabled may
// be freed after, driving the instantaneous balance negative. Readers
// clamp at zero.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static FREE_COUNT: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Bytes currently live (allocated minus freed since counting began).
    pub live_bytes: u64,
    /// High-water mark of [`Self::live_bytes`].
    pub peak_bytes: u64,
    /// Cumulative bytes allocated.
    pub total_bytes: u64,
    /// Number of allocations (including reallocations).
    pub allocs: u64,
    /// Number of frees (including reallocations).
    pub frees: u64,
}

/// Reads the process-wide counters. All zero when counting has never been
/// enabled.
pub fn stats() -> AllocStats {
    AllocStats {
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed).max(0) as u64,
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed).max(0) as u64,
        total_bytes: TOTAL_BYTES.load(Ordering::Relaxed),
        allocs: ALLOC_COUNT.load(Ordering::Relaxed),
        frees: FREE_COUNT.load(Ordering::Relaxed),
    }
}

/// Resets the global peak to the current live balance (per-run peaks for
/// benches; scopes have their own independent peaks).
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Heap scopes
// ---------------------------------------------------------------------------

/// One attribution cell, shared between the opening guard and the
/// thread-local scope stack.
#[derive(Default)]
pub struct ScopeCell {
    allocated: AtomicU64,
    allocs: AtomicU64,
    live: AtomicI64,
    peak: AtomicI64,
}

/// What a [`HeapScope`] measured over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScopeStats {
    /// Bytes allocated (cumulative) by this thread while the scope was
    /// open, including nested scopes.
    pub allocated: u64,
    /// Number of allocations.
    pub allocs: u64,
    /// Peak of the scope-relative live balance (bytes allocated minus
    /// bytes freed while open) — the scope's measured peak heap demand.
    pub live_peak: u64,
}

// The per-thread stack of open scope cells. Raw pointers each carrying a
// strong `Arc` reference owned by the stack itself (`Arc::into_raw` on
// push, `Arc::from_raw` on pop), so an out-of-order or cross-thread guard
// drop can never dangle these pointers. `UnsafeCell` instead of an array
// of `Cell`s keeps the const initializer simple; the stack is only ever
// touched by its own thread (the allocator hooks run on the allocating
// thread), and push/pop never allocate, so no reentrant mutation can
// interleave with the allocator's read walk.
struct ScopeStack {
    depth: Cell<usize>,
    slots: UnsafeCell<[*const ScopeCell; MAX_SCOPE_DEPTH]>,
}

thread_local! {
    static SCOPES: ScopeStack = const {
        ScopeStack {
            depth: Cell::new(0),
            slots: UnsafeCell::new([std::ptr::null(); MAX_SCOPE_DEPTH]),
        }
    };
}

/// An RAII heap-attribution scope: allocations performed by this thread
/// while the scope is open are charged to it (and to every enclosing
/// scope). Created by [`HeapScope::open`]; read with [`HeapScope::finish`]
/// or the accessors. Inert (and free) when counting is off at open time.
pub struct HeapScope {
    cell: Option<Arc<ScopeCell>>,
}

impl HeapScope {
    /// Opens a scope on the calling thread. When counting is off the
    /// scope is inert and all stats read zero.
    pub fn open() -> HeapScope {
        if !counting() {
            return HeapScope { cell: None };
        }
        let cell = Arc::new(ScopeCell::default());
        let pushed = SCOPES
            .try_with(|stack| {
                let depth = stack.depth.get();
                if depth >= MAX_SCOPE_DEPTH {
                    return false;
                }
                let slots = unsafe { &mut *stack.slots.get() };
                // The stack takes its own strong reference; publish the
                // slot before bumping depth so the allocator's walk never
                // sees a stale pointer.
                slots[depth] = Arc::into_raw(Arc::clone(&cell));
                stack.depth.set(depth + 1);
                true
            })
            .unwrap_or(false);
        if !pushed {
            // Too deep (or TLS tearing down): measure nothing rather than
            // misattribute.
            return HeapScope { cell: None };
        }
        HeapScope { cell: Some(cell) }
    }

    /// Bytes allocated under the scope so far (0 when inert).
    pub fn allocated(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.allocated.load(Ordering::Relaxed))
    }

    /// Peak live bytes under the scope so far (0 when inert).
    pub fn live_peak(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.peak.load(Ordering::Relaxed).max(0) as u64)
    }

    /// Closes the scope and returns what it measured.
    pub fn finish(mut self) -> ScopeStats {
        self.pop();
        let Some(cell) = self.cell.take() else {
            return ScopeStats::default();
        };
        ScopeStats {
            allocated: cell.allocated.load(Ordering::Relaxed),
            allocs: cell.allocs.load(Ordering::Relaxed),
            live_peak: cell.peak.load(Ordering::Relaxed).max(0) as u64,
        }
    }

    fn pop(&mut self) {
        let Some(cell) = self.cell.as_ref() else {
            return;
        };
        let target = Arc::as_ptr(cell);
        let _ = SCOPES.try_with(|stack| {
            let depth = stack.depth.get();
            let slots = unsafe { &mut *stack.slots.get() };
            // Search from the top: scopes close LIFO in the common case,
            // but a guard held across a sibling close must not corrupt
            // the stack (same scan-and-shift the telemetry span stack
            // uses).
            let Some(pos) = slots[..depth].iter().rposition(|&p| p == target) else {
                return;
            };
            let raw = slots[pos];
            for i in pos..depth - 1 {
                slots[i] = slots[i + 1];
            }
            slots[depth - 1] = std::ptr::null();
            stack.depth.set(depth - 1);
            // Release the stack's strong reference.
            drop(unsafe { Arc::from_raw(raw) });
        });
    }
}

impl Drop for HeapScope {
    fn drop(&mut self) {
        self.pop();
    }
}

/// Runs `f` under a heap scope and returns its result together with the
/// scope's measured peak live bytes. Returns a zero peak when counting is
/// off.
pub fn measure_peak<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let scope = HeapScope::open();
    let out = f();
    (out, scope.finish().live_peak)
}

// ---------------------------------------------------------------------------
// RSS
// ---------------------------------------------------------------------------

/// Resident set size of the current process in bytes, read from
/// `/proc/self/statm`. `None` on platforms without procfs (macOS, Windows)
/// — callers treat the gauge as absent rather than zero.
pub fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident_pages * page_size())
}

fn page_size() -> u64 {
    // procfs implies Linux; 4 KiB pages everywhere this workspace targets
    // (x86-64 / aarch64 default). Worth revisiting only if huge-page
    // kernels appear.
    4096
}

// ---------------------------------------------------------------------------
// The allocator
// ---------------------------------------------------------------------------

/// The counting allocator. Install per binary with
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;` — a pure
/// passthrough to [`System`] until counting is enabled.
pub struct CountingAlloc;

#[inline]
fn on_alloc(size: usize) {
    TOTAL_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    let _ = SCOPES.try_with(|stack| {
        let depth = stack.depth.get();
        if depth == 0 {
            return;
        }
        let slots = unsafe { &*stack.slots.get() };
        for &ptr in &slots[..depth] {
            let cell = unsafe { &*ptr };
            cell.allocated.fetch_add(size as u64, Ordering::Relaxed);
            cell.allocs.fetch_add(1, Ordering::Relaxed);
            let live = cell.live.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
            cell.peak.fetch_max(live, Ordering::Relaxed);
        }
    });
}

#[inline]
fn on_dealloc(size: usize) {
    FREE_COUNT.fetch_add(1, Ordering::Relaxed);
    LIVE_BYTES.fetch_sub(size as i64, Ordering::Relaxed);
    let _ = SCOPES.try_with(|stack| {
        let depth = stack.depth.get();
        if depth == 0 {
            return;
        }
        let slots = unsafe { &*stack.slots.get() };
        for &ptr in &slots[..depth] {
            unsafe { &*ptr }
                .live
                .fetch_sub(size as i64, Ordering::Relaxed);
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() && counting() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() && counting() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if counting() {
            on_dealloc(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() && counting() {
            // Accounted as free(old) + alloc(new): totals track cumulative
            // allocation volume, live tracks the delta.
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Note: the support unit-test binary does not install `CountingAlloc`
    // as its global allocator (that would tax every other test), so these
    // tests drive the hooks directly. End-to-end behavior under a real
    // `#[global_allocator]` lives in `tests/alloc.rs` / `tests/alloc_off.rs`.
    //
    // Tests that flip the global enable switch serialize on this lock.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn scopes_attribute_inclusively_and_pop_out_of_order() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        let outer = HeapScope::open();
        let inner = HeapScope::open();
        on_alloc(1000);
        // Inclusive: both open scopes see the allocation.
        assert_eq!(outer.allocated(), 1000);
        assert_eq!(inner.allocated(), 1000);
        on_dealloc(400);
        assert_eq!(outer.live_peak(), 1000);
        // Out-of-order close: outer finishes while inner is still open.
        let s_outer = outer.finish();
        assert_eq!(s_outer.live_peak, 1000);
        on_alloc(50);
        let s = inner.finish();
        assert_eq!(s.allocated, 1050);
        assert_eq!(s.allocs, 2);
        assert_eq!(s.live_peak, 1000, "peak was before the partial free");
        SCOPES.with(|s| assert_eq!(s.depth.get(), 0));
        set_enabled(false);
    }

    #[test]
    fn scope_depth_overflow_is_safe() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        let mut scopes = Vec::new();
        for _ in 0..MAX_SCOPE_DEPTH + 4 {
            scopes.push(HeapScope::open());
        }
        on_alloc(8);
        // The overflowed scopes are inert, the attributed ones saw the
        // allocation.
        assert_eq!(scopes[0].allocated(), 8);
        assert_eq!(scopes[MAX_SCOPE_DEPTH + 3].allocated(), 0);
        drop(scopes);
        SCOPES.with(|s| assert_eq!(s.depth.get(), 0));
        set_enabled(false);
    }

    #[test]
    fn rss_is_reported_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = rss_bytes().expect("procfs present on Linux");
            assert!(rss > 0);
        }
    }
}
