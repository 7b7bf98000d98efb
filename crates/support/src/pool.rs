//! Persistent work-stealing worker pool.
//!
//! Every heavy loop in the matching pipeline is data-parallel over rows of
//! some matrix. Until now each of those loops paid a fresh
//! `std::thread::scope` spawn *per call* and split the rows into one static
//! contiguous chunk per worker — fine for uniform-cost kernels, but
//! Sinkhorn calls the row pass hundreds of times (hundreds of spawns), and
//! RInf/Hungarian rows are not uniform cost, so static chunking leaves
//! workers idle behind the slowest chunk.
//!
//! This module replaces both costs with one process-wide pool:
//!
//! * **Persistent workers.** `width - 1` threads are spawned once, lazily,
//!   at first use (the submitting caller is the remaining participant).
//!   The width comes from `ENTMATCHER_THREADS`, falling back to
//!   [`std::thread::available_parallelism`].
//! * **Work stealing over fine-grained tasks.** A job is an index range
//!   `0..tasks`, split into one contiguous sub-range per pool slot, each
//!   guarded by its own atomic cursor. A participant drains its own range
//!   first (preserving the cache-friendly contiguous walk), then claims
//!   from other slots' ranges — a *steal*. No lock-free deque is needed:
//!   `fetch_add` on a shared cursor is the entire claim protocol.
//! * **Panic propagation.** A panic inside a task is caught, the first
//!   payload is stored on the job, every remaining claimed task still
//!   finishes (so borrowed data stays alive until no thread can touch it),
//!   and the payload is re-raised *in the submitting caller* with the
//!   original message.
//! * **Nesting.** A task may itself call [`Pool::run`]; the inner job is
//!   pushed to the same queue (idle workers help) and the calling worker
//!   participates inline, so nested parallelism cannot deadlock even at
//!   width 1.
//!
//! # Telemetry
//!
//! A job records into its submitter's current telemetry registry
//! ([`telemetry::current`]): each background worker installs that
//! registry while it participates, so the job's tasks record where the
//! submitter does, and a nested job inherits it the same way. When that
//! registry is recording, every completed job adds to the `pool.tasks`
//! (tasks executed) and `pool.steals` (tasks claimed from another slot's
//! range) counters, and each worker wraps its participation in a
//! `pool.worker` span on its own thread lane — so pool
//! utilization is visible in `/metrics` (`entmatcher_pool_tasks_total`,
//! `entmatcher_pool_steals_total`, and the per-span aggregate
//! `entmatcher_span_seconds_total{span="pool.worker"}`) and worker
//! activity shows up as separate lanes in Perfetto traces and profiler
//! stacks. The same numbers are available programmatically via
//! [`Pool::stats`] whether or not telemetry is on.

use crate::telemetry::{self, Telemetry};
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A persistent pool of worker threads executing index-range jobs.
///
/// Most code uses the process-global instance via [`global`]; standalone
/// pools exist so tests can exercise specific widths without touching the
/// `ENTMATCHER_THREADS` environment. Dropping a standalone pool shuts its
/// workers down and joins them.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    width: usize,
    tasks: AtomicU64,
    steals: AtomicU64,
}

/// Lifetime totals for a pool (see [`Pool::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks executed (including tasks run inline on the serial path).
    pub tasks: u64,
    /// Tasks claimed from another slot's range.
    pub steals: u64,
}

struct Shared {
    queue: Mutex<Vec<Arc<Job>>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
}

/// Type-erased borrow of the job closure.
///
/// Safety: [`Pool::run`] does not return until `pending` reaches zero,
/// i.e. until every claimed task has finished executing on every thread,
/// so the pointee outlives all dereferences. The pointer is only ever
/// dereferenced to a `&(dyn Fn(usize) + Sync)`, which is safe to share.
struct TaskRef(*const (dyn Fn(usize) + Sync));
unsafe impl Send for TaskRef {}
unsafe impl Sync for TaskRef {}

struct Range {
    next: AtomicUsize,
    end: usize,
}

struct Job {
    task: TaskRef,
    /// The submitter's current registry, installed by each background
    /// worker while it participates.
    telemetry: &'static Telemetry,
    ranges: Vec<Range>,
    /// Tasks not yet finished executing. The caller blocks until zero.
    pending: AtomicUsize,
    done: Mutex<()>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    tasks: AtomicU64,
    steals: AtomicU64,
}

impl Job {
    /// Claims one task index for the participant on `slot`: own range
    /// first, then the other slots' ranges in order (a steal). Returns
    /// `None` when every range is drained.
    fn claim(&self, slot: usize) -> Option<(usize, bool)> {
        let w = self.ranges.len();
        for k in 0..w {
            let r = &self.ranges[(slot + k) % w];
            // The cursor may overshoot `end` under contention; an
            // overshot range simply reads as empty.
            if r.next.load(Ordering::Relaxed) >= r.end {
                continue;
            }
            let i = r.next.fetch_add(1, Ordering::Relaxed);
            if i < r.end {
                return Some((i, k != 0));
            }
        }
        None
    }

    /// Whether any range still has unclaimed tasks.
    fn has_work(&self) -> bool {
        self.ranges
            .iter()
            .any(|r| r.next.load(Ordering::Relaxed) < r.end)
    }
}

// The slot a pool worker thread participates under; submitting callers
// that are not pool workers use slot 0.
thread_local! {
    static WORKER_SLOT: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

impl Pool {
    /// Creates a pool of `width` participants: `width - 1` background
    /// workers plus the submitting caller.
    pub fn new(width: usize) -> Pool {
        let width = width.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Vec::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let mut handles = Vec::new();
        for slot in 1..width {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("entmatcher-pool-{slot}"))
                .spawn(move || worker_loop(shared, slot))
                .expect("spawn pool worker");
            handles.push(handle);
        }
        Pool {
            shared,
            handles: Mutex::new(handles),
            width,
            tasks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        }
    }

    /// Number of participants (background workers + the caller).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Lifetime task/steal totals.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            tasks: self.tasks.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
        }
    }

    /// Executes `f(0) .. f(tasks - 1)` across the pool and returns when
    /// all of them have finished. Tasks may run in any order and on any
    /// participant; `f` must therefore be `Sync`. If any task panics, the
    /// remaining tasks still complete and the first panic payload is
    /// re-raised here with its original message.
    pub fn run(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        if tasks == 1 || self.width == 1 {
            // Serial fast path: no queueing, panics propagate naturally.
            // Still counted, so `pool.tasks` reflects all kernel work.
            for i in 0..tasks {
                f(i);
            }
            self.tasks.fetch_add(tasks as u64, Ordering::Relaxed);
            telemetry::add("pool.tasks", tasks as u64);
            return;
        }

        // Contiguous sub-range per slot, first ranges one task longer
        // when the split is uneven.
        let w = self.width;
        let base = tasks / w;
        let extra = tasks % w;
        let mut ranges = Vec::with_capacity(w);
        let mut start = 0usize;
        for slot in 0..w {
            let len = base + usize::from(slot < extra);
            ranges.push(Range {
                next: AtomicUsize::new(start),
                end: start + len,
            });
            start += len;
        }
        // Erase the borrow's lifetime: the trait-object pointer type
        // defaults to `+ 'static`, which a borrowed closure cannot
        // satisfy nominally — but `run` blocks until every claimed task
        // has finished, so the borrow genuinely outlives all uses.
        let task = TaskRef(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(f as *const _)
        });
        let job = Arc::new(Job {
            task,
            telemetry: telemetry::current(),
            ranges,
            pending: AtomicUsize::new(tasks),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
            tasks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        });

        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            queue.push(Arc::clone(&job));
        }
        self.shared.work_cv.notify_all();

        // The caller participates under its worker slot when this is a
        // nested call from inside a task, slot 0 otherwise.
        let slot = WORKER_SLOT.with(|s| s.get()).unwrap_or(0);
        participate(&job, slot, false);

        // Wait for tasks claimed by other participants to finish. The
        // last finisher notifies under `done`, so the load-then-wait
        // cannot miss the wakeup.
        {
            let mut guard = job.done.lock().expect("pool done lock poisoned");
            while job.pending.load(Ordering::Acquire) > 0 {
                guard = job.done_cv.wait(guard).expect("pool done wait poisoned");
            }
        }
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            queue.retain(|j| !Arc::ptr_eq(j, &job));
        }

        let tasks_done = job.tasks.load(Ordering::Relaxed);
        let steals = job.steals.load(Ordering::Relaxed);
        self.tasks.fetch_add(tasks_done, Ordering::Relaxed);
        self.steals.fetch_add(steals, Ordering::Relaxed);
        telemetry::add("pool.tasks", tasks_done);
        if steals > 0 {
            telemetry::add("pool.steals", steals);
        }

        let payload = job.panic.lock().expect("pool panic lock poisoned").take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.work_cv.notify_all();
        let handles = std::mem::take(&mut *self.handles.lock().expect("pool handles poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Claims and executes tasks of `job` until none are left. `worker` marks
/// background pool threads, whose participation is wrapped in a
/// `pool.worker` telemetry span (opened lazily, only if a task is
/// actually executed) so worker busy-time lands on its own trace lane.
fn participate(job: &Job, slot: usize, worker: bool) {
    let mut span = None;
    while let Some((i, steal)) = job.claim(slot) {
        if worker && span.is_none() && telemetry::enabled() {
            span = Some(telemetry::span("pool.worker"));
        }
        // Safety: see `TaskRef` — the closure outlives the job.
        let f = unsafe { &*job.task.0 };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i)));
        if let Err(payload) = result {
            let mut slot = job.panic.lock().expect("pool panic lock poisoned");
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        // Publish the accounting BEFORE the pending decrement: the caller
        // may observe pending == 0 and read the job counters the moment
        // the last decrement lands, so counts flushed after the loop
        // could be lost. One relaxed add per task is noise next to the
        // task body.
        job.tasks.fetch_add(1, Ordering::Relaxed);
        if steal {
            job.steals.fetch_add(1, Ordering::Relaxed);
        }
        if job.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last task: wake the submitting caller. Taking the lock
            // orders this notify against the caller's re-check.
            let _guard = job.done.lock().expect("pool done lock poisoned");
            job.done_cv.notify_all();
        }
    }
    drop(span);
}

fn worker_loop(shared: Arc<Shared>, slot: usize) {
    WORKER_SLOT.with(|s| s.set(Some(slot)));
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(job) = queue.iter().find(|j| j.has_work()) {
                    break Arc::clone(job);
                }
                queue = shared.work_cv.wait(queue).expect("pool queue wait poisoned");
            }
        };
        let _installed = job.telemetry.install();
        participate(&job, slot, true);
    }
}

// ---------------------------------------------------------------------------
// Global pool
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// Pool width configured by the environment: `ENTMATCHER_THREADS` when set
/// to a positive integer, otherwise the machine's available parallelism.
pub fn configured_width() -> usize {
    match std::env::var("ENTMATCHER_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    }
}

/// The process-global pool, created at first use with
/// [`configured_width`]. Its workers are never shut down.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(configured_width()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.run(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(pool.stats().tasks, 1000);
    }

    #[test]
    fn width_one_runs_inline() {
        let pool = Pool::new(1);
        let sum = AtomicUsize::new(0);
        pool.run(100, &|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
        assert_eq!(pool.stats(), PoolStats { tasks: 100, steals: 0 });
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let pool = Pool::new(3);
        pool.run(0, &|_| panic!("must not run"));
        assert_eq!(pool.stats().tasks, 0);
    }

    #[test]
    fn uneven_work_is_stolen() {
        // One slot's range is much slower than the others; with 4
        // participants and 64 tasks, finished participants must steal
        // from the slow range for the job to balance. We can't assert
        // scheduling, but we can assert completion and that the steal
        // counter is wired (>= 0 trivially; > 0 on any multi-core box
        // where the sleep skew forces it — keep the assertion to
        // completion + accounting so single-core CI stays deterministic).
        let pool = Pool::new(4);
        let hits = AtomicUsize::new(0);
        pool.run(64, &|i| {
            if i < 16 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            hits.fetch_add(1, Ordering::Relaxed);
        });
        let stats = pool.stats();
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        assert_eq!(stats.tasks, 64);
        assert!(stats.steals <= 64);
    }

    #[test]
    fn nested_runs_complete() {
        let pool = Pool::new(3);
        let total = AtomicUsize::new(0);
        pool.run(8, &|_| {
            pool.run(8, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn panic_propagates_with_original_message() {
        let pool = Pool::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(32, &|i| {
                if i == 17 {
                    panic!("task 17 exploded");
                }
            });
        }));
        let payload = result.expect_err("panic must surface to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("payload should be a string");
        assert!(msg.contains("task 17 exploded"), "got: {msg}");
        // The pool survives the panic and keeps working.
        let ok = AtomicUsize::new(0);
        pool.run(10, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn panic_on_serial_path_propagates_too() {
        let pool = Pool::new(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(4, &|i| {
                if i == 2 {
                    panic!("serial boom");
                }
            });
        }));
        let payload = result.expect_err("panic must surface");
        assert!(payload
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("serial boom")));
    }

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        let pool = Pool::new(4);
        pool.run(16, &|_| {});
        drop(pool); // must not hang
    }

    #[test]
    fn many_concurrent_jobs_from_many_threads() {
        let pool = Pool::new(4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let pool = &pool;
                scope.spawn(move || {
                    let sum = AtomicUsize::new(0);
                    pool.run(200 + t, &|i| {
                        sum.fetch_add(i, Ordering::Relaxed);
                    });
                    let n = 200 + t;
                    assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
                });
            }
        });
    }

    #[test]
    fn configured_width_is_positive() {
        assert!(configured_width() >= 1);
        assert!(global().width() >= 1);
    }
}
