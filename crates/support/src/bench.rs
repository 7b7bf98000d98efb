//! A tiny wall-clock benchmark harness for `harness = false` bench targets.
//!
//! Replaces `criterion` for this workspace: each bench binary builds a
//! [`Bench`] from its CLI arguments, opens named [`Group`]s, and registers
//! closures with [`Group::bench`]. Results are median/min/max wall-clock
//! times over a configurable number of samples.
//!
//! Two details matter for CI:
//! - `cargo test` *runs* `harness = false` bench binaries; the harness
//!   detects cargo's `--test` flag (and `ENTMATCHER_BENCH_QUICK=1`) and
//!   switches to a smoke mode that executes every benchmark body exactly
//!   once — benches stay compiled and exercised without burning minutes.
//! - A positional CLI argument filters benchmarks by substring, matching
//!   `cargo bench -- <filter>` usage.
//!
//! When the counting allocator is enabled ([`crate::alloc::enabled`],
//! i.e. `ENTMATCHER_MEM=1` under a binary that installs
//! [`crate::alloc::CountingAlloc`]), every benchmark additionally runs
//! its body once under a heap scope and reports the measured
//! **per-iteration peak heap** — both in the printed line and in the
//! returned [`BenchStats`], so JSON-emitting bench binaries gain a memory
//! column for free. The extra run happens *outside* the timed samples, so
//! timings are never perturbed by the measurement pass.

use std::time::{Duration, Instant};

/// Measurements [`Group::bench`] returns for one benchmark: wall-clock
/// stats plus the measured per-iteration peak heap (0 when the benchmark
/// was filtered out or the counting allocator is off).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BenchStats {
    /// Median seconds per iteration (0 in quick mode).
    pub median_secs: f64,
    /// Fastest sample, seconds per iteration (0 in quick mode).
    pub min_secs: f64,
    /// Slowest sample, seconds per iteration (0 in quick mode).
    pub max_secs: f64,
    /// Iterations per timed sample (1 in quick mode).
    pub iters: u64,
    /// Measured peak live heap of one body run, in bytes (0 when
    /// counting is off).
    pub heap_peak_bytes: u64,
}

/// Prevents the optimizer from deleting a benchmarked computation.
/// Re-exported name parity with `criterion::black_box`.
pub use std::hint::black_box;

/// Whether this bench run is a quick smoke: the `ENTMATCHER_BENCH_QUICK`
/// switch is on ([`crate::env::switch`]), or `--test`/`--quick` is on the
/// command line (cargo passes `--test` when it runs a bench target as a
/// test).
pub fn quick_mode() -> bool {
    crate::env::switch("ENTMATCHER_BENCH_QUICK").is_some()
        || std::env::args()
            .skip(1)
            .any(|a| a == "--test" || a == "--quick")
}

/// Top-level harness state parsed from the command line.
pub struct Bench {
    filter: Option<String>,
    quick: bool,
}

impl Bench {
    /// Builds the harness from `std::env::args`, tolerating every flag
    /// cargo's bench/test runners pass (`--bench`, `--test`, `--quiet`,
    /// `--color`, ...). The first non-flag argument is the name filter, and
    /// [`quick_mode`] decides the smoke mode.
    pub fn from_args() -> Self {
        let mut filter = None;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                // Flags with a value we must consume and ignore.
                "--color" | "--format" | "--logfile" | "--skip" | "-Z" => {
                    let _ = args.next();
                }
                a if a.starts_with('-') => {}
                a => filter = Some(a.to_owned()),
            }
        }
        Bench {
            filter,
            quick: quick_mode(),
        }
    }

    /// Opens a named benchmark group.
    pub fn group(&mut self, name: impl Into<String>) -> Group<'_> {
        Group {
            bench: self,
            name: name.into(),
            sample_size: 20,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_secs(2),
        }
    }
}

/// A named group of benchmarks sharing sampling settings.
pub struct Group<'a> {
    bench: &'a Bench,
    name: String,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Group<'_> {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Wall-clock budget spent warming up before sampling.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Wall-clock budget the samples should roughly fill.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Registers and (unless filtered out) immediately runs one benchmark.
    /// Returns wall-clock stats plus the measured per-iteration peak heap
    /// when the counting allocator is on (see the module docs).
    pub fn bench<T>(&mut self, id: impl AsRef<str>, mut body: impl FnMut() -> T) -> BenchStats {
        let full = format!("{}/{}", self.name, id.as_ref());
        if let Some(f) = &self.bench.filter {
            if !full.contains(f.as_str()) {
                return BenchStats::default();
            }
        }
        if self.bench.quick {
            // Quick mode must execute the body exactly once; when counting
            // is on that single run doubles as the memory pass.
            let heap_peak_bytes = if crate::alloc::enabled() {
                crate::alloc::measure_peak(|| black_box(body())).1
            } else {
                black_box(body());
                0
            };
            println!("bench {full} ... ok (quick)");
            return BenchStats {
                iters: 1,
                heap_peak_bytes,
                ..BenchStats::default()
            };
        }

        // Warm up and estimate iterations per sample so each sample lasts
        // roughly measurement_time / sample_size.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up_time {
            black_box(body());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;
        let target = self.measurement_time.as_secs_f64() / self.sample_size as f64;
        let iters = ((target / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000);

        let mut samples: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(body());
            }
            samples.push(start.elapsed().as_secs_f64() / iters as f64);
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let min = samples[0];
        let max = samples[samples.len() - 1];
        let median = samples[samples.len() / 2];
        // The memory pass runs after the timed samples, so the scope's
        // bookkeeping never lands inside a measured interval; skipped
        // entirely (no extra run) when counting is off.
        let heap_peak_bytes = if crate::alloc::enabled() {
            crate::alloc::measure_peak(|| black_box(body())).1
        } else {
            0
        };
        print!(
            "bench {full:<48} [{} {} {}]  ({} samples x {} iters)",
            fmt_time(min),
            fmt_time(median),
            fmt_time(max),
            self.sample_size,
            iters
        );
        if heap_peak_bytes > 0 {
            print!("  heap peak {:.1} MB", heap_peak_bytes as f64 / 1e6);
        }
        println!();
        BenchStats {
            median_secs: median,
            min_secs: min,
            max_secs: max,
            iters,
            heap_peak_bytes,
        }
    }

    /// Criterion API parity; grouping needs no explicit teardown here.
    pub fn finish(&mut self) {}
}

fn fmt_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{:.3} s", secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_runs_each_benchmark_once() {
        let mut b = Bench {
            filter: None,
            quick: true,
        };
        let count = std::cell::Cell::new(0);
        let mut g = b.group("g");
        g.bench("one", || count.set(count.get() + 1));
        g.bench("two", || count.set(count.get() + 1));
        g.finish();
        assert_eq!(count.get(), 2);
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut b = Bench {
            filter: Some("keep".into()),
            quick: true,
        };
        let count = std::cell::Cell::new(0);
        let mut g = b.group("g");
        g.bench("keep_this", || count.set(count.get() + 1));
        g.bench("drop_this", || count.set(count.get() + 1));
        assert_eq!(count.get(), 1);
    }

    #[test]
    fn timed_mode_produces_samples() {
        let mut b = Bench {
            filter: None,
            quick: false,
        };
        let mut g = b.group("t");
        g.sample_size(3)
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(10));
        g.bench("spin", || black_box((0..100u64).sum::<u64>()));
    }

    #[test]
    fn time_formatting_spans_units() {
        assert!(fmt_time(5e-9).ends_with("ns"));
        assert!(fmt_time(5e-6).ends_with("µs"));
        assert!(fmt_time(5e-3).ends_with("ms"));
        assert!(fmt_time(5.0).ends_with('s'));
    }
}
