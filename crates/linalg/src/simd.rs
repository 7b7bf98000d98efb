//! Runtime-dispatched SIMD micro-kernels for the blocked GEMM.
//!
//! The scalar micro-kernel in [`crate::gemm`] is the ground truth: it
//! accumulates each output element strictly in depth order, which makes
//! the blocked kernel bit-identical to the naive sequential `dot`. The
//! vector kernels here preserve that contract by vectorizing **across the
//! [`NR`] packed output columns**, never across the depth reduction: for
//! each depth index `d` the kernel broadcasts `a[d]`, loads the `NR`
//! packed `B` values with one unaligned load, and does a separate
//! multiply then add per lane. IEEE-754 multiply and add are exact
//! per-lane operations, and Rust never contracts `a * b + c` into a fused
//! multiply-add on its own, so every accumulator lane performs the same
//! sequence of roundings as the scalar kernel — bitwise identity holds on
//! every input, not just approximately.
//!
//! The FMA variant (`_mm256_fmadd_ps`) skips the intermediate rounding of
//! the product and therefore produces *different* (usually slightly more
//! accurate) bits. It is **never** selected by default — only via
//! `ENTMATCHER_SIMD=fma` — and is tested against the scalar kernel with a
//! relative tolerance instead of equality.
//!
//! # Dispatch
//!
//! The active level is decided once per process at first use and cached:
//!
//! | `ENTMATCHER_SIMD` | effect |
//! |---|---|
//! | unset / `on` / `auto` | AVX2 if the CPU has it, else scalar |
//! | `off` / `scalar` | scalar kernel, no feature detection |
//! | `avx2` | AVX2 if detected, else scalar |
//! | `fma` | AVX2+FMA if detected, else best available |
//!
//! On non-x86_64 targets everything compiles to the scalar path and the
//! env switch is a no-op.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::gemm::{Block, NR};

/// Which micro-kernel implementation the GEMM runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar kernel — the bitwise ground truth.
    Scalar,
    /// AVX2 mul+add kernel — bitwise identical to [`SimdLevel::Scalar`].
    Avx2,
    /// AVX2+FMA kernel — opt-in, NOT bitwise identical (single rounding
    /// per multiply-add instead of two).
    Fma,
}

impl SimdLevel {
    /// Stable lowercase name (used in telemetry and bench labels).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Fma => "fma",
        }
    }

    /// Whether this level is bit-identical to the scalar reference.
    pub fn bitwise_exact(self) -> bool {
        !matches!(self, SimdLevel::Fma)
    }
}

/// Cached dispatch decision: 0 = undecided, else `SimdLevel as u8 + 1`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The SIMD level the blocked GEMM uses in this process. Decided on first
/// call from `ENTMATCHER_SIMD` and CPU feature detection, then cached.
pub fn active() -> SimdLevel {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => {
            let level = decide();
            ACTIVE.store(level as u8 + 1, Ordering::Relaxed);
            level
        }
        1 => SimdLevel::Scalar,
        2 => SimdLevel::Avx2,
        _ => SimdLevel::Fma,
    }
}

/// Clamps a requested level to what the host CPU actually supports, so
/// explicitly passing [`SimdLevel::Avx2`]/[`SimdLevel::Fma`] (e.g. from a
/// test or bench) can never execute unsupported instructions.
pub fn clamp_supported(level: SimdLevel) -> SimdLevel {
    match level {
        SimdLevel::Scalar => SimdLevel::Scalar,
        SimdLevel::Avx2 if detect_avx2() => SimdLevel::Avx2,
        SimdLevel::Fma if detect_avx2() && detect_fma() => SimdLevel::Fma,
        SimdLevel::Fma if detect_avx2() => SimdLevel::Avx2,
        _ => SimdLevel::Scalar,
    }
}

fn decide() -> SimdLevel {
    let request = std::env::var("ENTMATCHER_SIMD").unwrap_or_default();
    decide_for(request.trim(), detect_avx2(), detect_fma())
}

/// Pure dispatch rule, split out so tests can exercise every row of the
/// table without mutating process env or depending on the host CPU.
fn decide_for(request: &str, has_avx2: bool, has_fma: bool) -> SimdLevel {
    let best_exact = if has_avx2 {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    };
    match request.to_ascii_lowercase().as_str() {
        "off" | "scalar" | "0" | "false" => SimdLevel::Scalar,
        "fma" => {
            if has_avx2 && has_fma {
                SimdLevel::Fma
            } else {
                best_exact
            }
        }
        // "avx2", the empty default, and anything unrecognized all take
        // the best bitwise-exact level. FMA is never chosen implicitly.
        _ => best_exact,
    }
}

#[cfg(target_arch = "x86_64")]
fn detect_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(target_arch = "x86_64")]
fn detect_fma() -> bool {
    std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_avx2() -> bool {
    false
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_fma() -> bool {
    false
}

/// Whether the host can run the F16C half-to-float conversion the f16
/// dequantize-fused kernel needs on top of AVX2. Without it the f16
/// payload falls back to the scalar kernel (still bitwise identical).
#[cfg(target_arch = "x86_64")]
pub(crate) fn has_f16c() -> bool {
    detect_avx2() && std::arch::is_x86_feature_detected!("f16c")
}

/// Non-x86 targets never run the vector kernels.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn has_f16c() -> bool {
    false
}

/// Rows of `A` per multi-row vector register block (`MR_SIMD` rows x one
/// strip). With one strip load per depth step, the broadcast multiply-adds
/// of 8 independent rows hide each other's latency; 8 accumulator vectors
/// plus the shared `B` load still fit in 16 ymm registers. Full groups of
/// `MR_SIMD` rows run this shape, and so does a last group of 5–7 rows
/// (padded with its last row); a last group of 1–4 rows runs the one-row
/// block ([`ROW_STRIPS_SIMD`]) once per row.
pub const MR_SIMD: usize = 8;

/// Strips per one-row vector register block (one row x `ROW_STRIPS_SIMD`
/// consecutive strips), the shape a last row group of at most
/// `MR_SIMD / 2` rows runs. The strips' independent accumulators keep the
/// add chains overlapped the way the eight rows of the multi-row block do;
/// one row against one strip would serialize on add latency.
pub const ROW_STRIPS_SIMD: usize = 8;

/// Strips per one-row block of the int8 kernel: each strip also keeps its
/// lane-scale vector in a register, so 6 accumulators and 6 scale vectors
/// leave room for the broadcast row value and the dequantize temporaries
/// within 16 ymm registers.
pub const ROW_STRIPS_I8: usize = 6;

/// AVX2 micro-kernel: `R` rows of `A` against `G` packed strips of `NR`
/// output columns each, accumulated in strict depth order with separate
/// multiply and add (bitwise equal to the scalar kernel). Instantiated as
/// `MR_SIMD x 1` and `1 x ROW_STRIPS_SIMD`.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2, that every strip has the
/// length of `strips[0]` (a multiple of `NR`), and that each `a_rows[i]`
/// has at least `strips[0].len() / NR` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn micro_avx2<const R: usize, const G: usize>(
    a_rows: &[&[f32]; R],
    strips: &[&[f32]; G],
    out: &mut Block<R, G>,
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_ps(); G]; R];
    for dd in 0..strips[0].len() / NR {
        let mut bv = [_mm256_setzero_ps(); G];
        for g in 0..G {
            bv[g] = _mm256_loadu_ps(strips[g].as_ptr().add(dd * NR));
        }
        for i in 0..R {
            let av = _mm256_set1_ps(*a_rows[i].get_unchecked(dd));
            for g in 0..G {
                // mul then add, NOT fmadd: keeps the two-rounding
                // semantics of the scalar `acc += a * b`, hence bitwise
                // identity.
                acc[i][g] = _mm256_add_ps(acc[i][g], _mm256_mul_ps(av, bv[g]));
            }
        }
    }
    for i in 0..R {
        for g in 0..G {
            _mm256_storeu_ps(out[i][g].as_mut_ptr(), acc[i][g]);
        }
    }
}

/// AVX2+FMA micro-kernel: same shapes as [`micro_avx2`] but each
/// multiply-add rounds once (`_mm256_fmadd_ps`). Opt-in only.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and FMA, that every strip has
/// the length of `strips[0]` (a multiple of `NR`), and that each
/// `a_rows[i]` has at least `strips[0].len() / NR` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn micro_fma<const R: usize, const G: usize>(
    a_rows: &[&[f32]; R],
    strips: &[&[f32]; G],
    out: &mut Block<R, G>,
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_ps(); G]; R];
    for dd in 0..strips[0].len() / NR {
        let mut bv = [_mm256_setzero_ps(); G];
        for g in 0..G {
            bv[g] = _mm256_loadu_ps(strips[g].as_ptr().add(dd * NR));
        }
        for i in 0..R {
            let av = _mm256_set1_ps(*a_rows[i].get_unchecked(dd));
            for g in 0..G {
                acc[i][g] = _mm256_fmadd_ps(av, bv[g], acc[i][g]);
            }
        }
    }
    for i in 0..R {
        for g in 0..G {
            _mm256_storeu_ps(out[i][g].as_mut_ptr(), acc[i][g]);
        }
    }
}

/// AVX2+F16C dequantize-fused micro-kernel for f16 strips, at the shapes of
/// [`micro_avx2`]: each depth chunk of [`NR`] halves is widened with
/// `vcvtph2ps` (exact, so it agrees bit-for-bit with the scalar software
/// conversion), then accumulated with separate multiply and add — bitwise
/// identical to the scalar dequantize-fused reference in [`crate::gemm`].
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and F16C, that every strip has
/// the length of `strips[0]` (a multiple of `NR`), and that each
/// `a_rows[i]` has at least `strips[0].len() / NR` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
pub(crate) unsafe fn micro_avx2_f16<const R: usize, const G: usize>(
    a_rows: &[&[f32]; R],
    strips: &[&[u16]; G],
    out: &mut Block<R, G>,
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_ps(); G]; R];
    for dd in 0..strips[0].len() / NR {
        let mut bv = [_mm256_setzero_ps(); G];
        for g in 0..G {
            // 8 halves = 16 bytes -> 8 f32 lanes, conversion exact.
            let hv = _mm_loadu_si128(strips[g].as_ptr().add(dd * NR) as *const __m128i);
            bv[g] = _mm256_cvtph_ps(hv);
        }
        for i in 0..R {
            let av = _mm256_set1_ps(*a_rows[i].get_unchecked(dd));
            for g in 0..G {
                acc[i][g] = _mm256_add_ps(acc[i][g], _mm256_mul_ps(av, bv[g]));
            }
        }
    }
    for i in 0..R {
        for g in 0..G {
            _mm256_storeu_ps(out[i][g].as_mut_ptr(), acc[i][g]);
        }
    }
}

/// AVX2 dequantize-fused micro-kernel for int8 strips, instantiated as
/// `MR_SIMD x 1` and `1 x ROW_STRIPS_I8`: each depth chunk of [`NR`] bytes
/// is sign-extended and converted to f32 (exact), then multiplied by its
/// strip's per-lane scale vector (one rounding) and accumulated with
/// separate multiply and add — the identical per-lane operation sequence
/// to the scalar reference, hence bitwise identity.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2, that every strip has the
/// length of `strips[0]` (a multiple of `NR`), and that each `a_rows[i]`
/// has at least `strips[0].len() / NR` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn micro_avx2_i8<const R: usize, const G: usize>(
    a_rows: &[&[f32]; R],
    strips: &[&[i8]; G],
    scales: &[&[f32; NR]; G],
    out: &mut Block<R, G>,
) {
    use std::arch::x86_64::*;
    let mut sv = [_mm256_setzero_ps(); G];
    for g in 0..G {
        sv[g] = _mm256_loadu_ps(scales[g].as_ptr());
    }
    let mut acc = [[_mm256_setzero_ps(); G]; R];
    for dd in 0..strips[0].len() / NR {
        let mut bv = [_mm256_setzero_ps(); G];
        for g in 0..G {
            // 8 int8 = 8 bytes -> sign-extend to i32 -> f32 (both exact),
            // then one rounding for the scale multiply.
            let qv = _mm_loadl_epi64(strips[g].as_ptr().add(dd * NR) as *const __m128i);
            bv[g] = _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(qv)), sv[g]);
        }
        for i in 0..R {
            let av = _mm256_set1_ps(*a_rows[i].get_unchecked(dd));
            for g in 0..G {
                acc[i][g] = _mm256_add_ps(acc[i][g], _mm256_mul_ps(av, bv[g]));
            }
        }
    }
    for i in 0..R {
        for g in 0..G {
            _mm256_storeu_ps(out[i][g].as_mut_ptr(), acc[i][g]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_table() {
        // env off always wins.
        for (avx2, fma) in [(false, false), (true, false), (true, true)] {
            assert_eq!(decide_for("off", avx2, fma), SimdLevel::Scalar);
            assert_eq!(decide_for("scalar", avx2, fma), SimdLevel::Scalar);
        }
        // Default / avx2 request: best exact level, never FMA.
        for req in ["", "auto", "on", "avx2", "bogus"] {
            assert_eq!(decide_for(req, false, false), SimdLevel::Scalar);
            assert_eq!(decide_for(req, true, false), SimdLevel::Avx2);
            assert_eq!(decide_for(req, true, true), SimdLevel::Avx2, "req={req}");
        }
        // FMA only when explicitly requested AND supported.
        assert_eq!(decide_for("fma", true, true), SimdLevel::Fma);
        assert_eq!(decide_for("FMA", true, true), SimdLevel::Fma);
        assert_eq!(decide_for("fma", true, false), SimdLevel::Avx2);
        assert_eq!(decide_for("fma", false, false), SimdLevel::Scalar);
    }

    #[test]
    fn exactness_contract() {
        assert!(SimdLevel::Scalar.bitwise_exact());
        assert!(SimdLevel::Avx2.bitwise_exact());
        assert!(!SimdLevel::Fma.bitwise_exact());
    }

    #[test]
    fn active_is_cached_and_never_fma_by_default() {
        let first = active();
        assert_ne!(
            first,
            SimdLevel::Fma,
            "FMA must be opt-in via ENTMATCHER_SIMD=fma (test env should not set it)"
        );
        assert_eq!(active(), first);
    }
}
