//! Host fingerprint and drift canary.
//!
//! Memory-bound operations drift with the host (other tenants' memory
//! traffic) more than compute-bound ones. The canary is a memory-bound loop
//! owned by the benchmark, timed between each workload's rounds: when it
//! drifts together with an operation's time, the host moved, not the code.

use crate::stats;
use crate::Metrics;
use std::hint::black_box;
use std::time::Instant;

/// What a result depends on besides the code: cores, pool width, SIMD.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint {
    /// `available_parallelism`.
    pub nproc: usize,
    /// Width of the global work-stealing pool.
    pub pool_width: usize,
    /// Active GEMM micro-kernel level.
    pub simd: entmatcher_linalg::simd::SimdLevel,
}

impl Fingerprint {
    /// Reads the running process's fingerprint.
    pub fn detect() -> Fingerprint {
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pool_width: entmatcher_support::pool::global().width(),
            simd: entmatcher_linalg::simd::active(),
        }
    }

    /// The `key=value` line printed with every result.
    pub fn describe(&self) -> String {
        format!(
            "host: nproc={} pool_width={} simd={}",
            self.nproc,
            self.pool_width,
            self.simd.name()
        )
    }

    /// Adds the `host.*` fingerprint metrics (SIMD as 0 scalar, 1 avx2,
    /// 2 fma).
    pub fn report(&self, m: &mut Metrics) {
        use entmatcher_linalg::simd::SimdLevel;
        m.put("host.nproc", self.nproc as f64, "count");
        m.put("host.pool_width", self.pool_width as f64, "count");
        let level = match self.simd {
            SimdLevel::Scalar => 0.0,
            SimdLevel::Avx2 => 1.0,
            SimdLevel::Fma => 2.0,
        };
        m.put("host.simd", level, "level");
    }
}

/// The drift canary: one read-modify-write per cache line over a buffer
/// larger than the last-level cache.
pub struct Calibrator {
    buf: Vec<u64>,
    samples: Vec<f64>,
}

impl Calibrator {
    /// A canary over `bytes` of memory (allocated and touched once here).
    pub fn new(bytes: usize) -> Calibrator {
        Calibrator {
            buf: vec![1; (bytes / 8).max(8)],
            samples: Vec::new(),
        }
    }

    /// Times one pass and keeps the sample.
    pub fn sample(&mut self) {
        let started = Instant::now();
        let mut acc = 0u64;
        // Stride 8 words = 64 bytes: every access is a new cache line.
        for slot in self.buf.iter_mut().step_by(8) {
            acc = acc.wrapping_add(*slot);
            *slot = acc;
        }
        black_box(acc);
        self.samples.push(started.elapsed().as_secs_f64());
    }

    /// Median pass time so far.
    pub fn median_s(&self) -> Option<f64> {
        stats::median(&self.samples)
    }

    /// Puts `host.calib_s` (median pass) into `m`.
    pub fn report(&self, m: &mut Metrics) {
        if let Some(s) = self.median_s() {
            m.put("host.calib_s", s, "s");
        }
    }
}
