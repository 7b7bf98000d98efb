//! Relaxation masks for the row scan of a shortest-augmenting-path
//! assignment solve (`core::matching::hungarian`).
//!
//! Scanning a row asks, for every column `j`, whether the path through the
//! row reaches `j` more cheaply than the column's current distance:
//!
//! ```text
//! -(row[j] as f64) - price[j] - h < bound[j]
//! ```
//!
//! [`relax_mask`] answers it for all columns at once, one bit per column,
//! from contiguous inputs in natural column order, so the solver visits
//! only the columns that improve instead of gathering every todo column
//! through its slot order. A NaN `bound` never sets its bit (the ordered
//! `<` is false), which is how the solver masks out the columns that have
//! left its todo set. A NaN or `-∞` score makes the left side NaN or `+∞`
//! and never sets a bit either.
//!
//! Bit `j % 64` of `words[j / 64]` is column `j`; bits past the last
//! column are zero. The scalar reference and the AVX2 kernel are bitwise
//! equal: both widen the score exactly, flip its sign, subtract the price
//! and then `h` with one rounding each, in that order (no fused
//! multiply-add), and compare ordered, so a lane's bit is the scalar
//! expression's on every input, NaN, ±∞, ±0 and subnormals included. The
//! AVX2 kernel builds a word from sixteen 4-lane blocks without branching
//! on them: on a 1575-column RREA instance a scan relaxes about 40
//! columns (3.3M over 84k scans), so at most one block in ten holds a
//! hit.

use crate::simd::{self, SimdLevel};

/// Writes into `words` one bit per column `j` of `row`, set exactly when
/// `-(row[j] as f64) - price[j] - h < bound[j]`, using the process-wide
/// SIMD level ([`simd::active`]).
///
/// # Panics
/// When `price` or `bound` differs in length from `row`, or `words` does
/// not hold `row.len().div_ceil(64)` words.
pub fn relax_mask(row: &[f32], price: &[f64], h: f64, bound: &[f64], words: &mut [u64]) {
    relax_mask_with(simd::active(), row, price, h, bound, words);
}

/// [`relax_mask`] at an explicit SIMD level, clamped to what the CPU
/// supports. Every level writes the same bits.
///
/// # Panics
/// As [`relax_mask`].
pub fn relax_mask_with(
    level: SimdLevel,
    row: &[f32],
    price: &[f64],
    h: f64,
    bound: &[f64],
    words: &mut [u64],
) {
    let n = row.len();
    assert_eq!(price.len(), n, "one price per column");
    assert_eq!(bound.len(), n, "one bound per column");
    assert_eq!(words.len(), n.div_ceil(64), "one mask bit per column");
    match simd::clamp_supported(level) {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Fma => {
            // SAFETY: `clamp_supported` returned an AVX2 level, so the CPU
            // has AVX2, and the lengths were asserted above.
            unsafe { relax_mask_avx2(row, price, h, bound, words) }
        }
        _ => relax_mask_scalar(row, price, h, bound, words),
    }
}

/// The scalar reference: the solver's own distance expression, per column.
fn relax_mask_scalar(row: &[f32], price: &[f64], h: f64, bound: &[f64], words: &mut [u64]) {
    for (w, word) in words.iter_mut().enumerate() {
        let lo = w * 64;
        let hi = (lo + 64).min(row.len());
        let mut bits = 0;
        for j in lo..hi {
            let d = -(row[j] as f64) - price[j] - h;
            bits |= u64::from(d < bound[j]) << (j - lo);
        }
        *word = bits;
    }
}

/// AVX2 kernel: four columns per block, sixteen blocks per word. A full
/// word's blocks shift their bits by constants, in a loop the compiler
/// unrolls: on a 1575-column RREA instance the solve took 0.09–0.10 s this
/// way and about 0.16 s as a rolled loop with a variable-count shift per
/// block. A last block of fewer than four columns runs the scalar
/// expression.
///
/// # Safety
/// The CPU must support AVX2, `price` and `bound` must be as long as
/// `row`, and `words` must hold `row.len().div_ceil(64)` words.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn relax_mask_avx2(row: &[f32], price: &[f64], h: f64, bound: &[f64], words: &mut [u64]) {
    let n = row.len();
    let full = n / 64;
    for (w, word) in words[..full].iter_mut().enumerate() {
        let mut bits = 0;
        for q in 0..16 {
            // SAFETY: the block ends at `w * 64 + 4 * q + 4 <= full * 64 <= n`.
            bits |= relax_block_avx2(row, price, h, bound, w * 64 + 4 * q) << (4 * q);
        }
        *word = bits;
    }
    if let Some(word) = words.get_mut(full) {
        let lo = full * 64;
        let mut bits = 0;
        let mut j = lo;
        while j + 4 <= n {
            // SAFETY: the loop condition keeps the block inside `n`.
            bits |= relax_block_avx2(row, price, h, bound, j) << (j - lo);
            j += 4;
        }
        for j in j..n {
            let d = -(row[j] as f64) - price[j] - h;
            bits |= u64::from(d < bound[j]) << (j - lo);
        }
        *word = bits;
    }
}

/// The relaxation bits of columns `j..j + 4`, in the low four bits:
/// `vcvtps2pd` (exact), a sign flip, two subtractions and an ordered
/// less-than, packed with `movemask`.
///
/// # Safety
/// The CPU must support AVX2, and `j + 4` must not exceed the length of
/// `row`, `price` or `bound`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn relax_block_avx2(row: &[f32], price: &[f64], h: f64, bound: &[f64], j: usize) -> u64 {
    use std::arch::x86_64::*;
    let r = _mm256_cvtps_pd(_mm_loadu_ps(row.as_ptr().add(j)));
    let neg = _mm256_xor_pd(r, _mm256_set1_pd(-0.0));
    let p = _mm256_loadu_pd(price.as_ptr().add(j));
    let d = _mm256_sub_pd(_mm256_sub_pd(neg, p), _mm256_set1_pd(h));
    let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(d, _mm256_loadu_pd(bound.as_ptr().add(j)));
    _mm256_movemask_pd(lt) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask(level: SimdLevel, row: &[f32], price: &[f64], h: f64, bound: &[f64]) -> Vec<u64> {
        let mut words = vec![!0; row.len().div_ceil(64)];
        relax_mask_with(level, row, price, h, bound, &mut words);
        words
    }

    #[test]
    fn bits_follow_the_distance_expression() {
        // d = -row - price - h: 0.5, -1.0, NaN, +inf, -inf against bounds.
        let row = [-1.0, 2.0, f32::NAN, f32::NEG_INFINITY, f32::INFINITY];
        let price = [0.25, 0.5, 0.0, 0.0, 0.0];
        let bound = [0.5, 0.0, 1.0, f64::INFINITY, f64::NAN];
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            // Column 0: 1 - 0.25 - 0.25 = 0.5, not below 0.5. Column 1:
            // -2 - 0.5 - 0.25 < 0. NaN scores, +inf distances and NaN
            // bounds never set a bit.
            assert_eq!(mask(level, &row, &price, 0.25, &bound), [0b10]);
        }
    }

    #[test]
    fn bits_past_the_last_column_are_cleared() {
        for n in [0, 1, 3, 4, 5, 63, 64, 65, 130] {
            let words = mask(
                SimdLevel::Avx2,
                &vec![1.0; n],
                &vec![0.0; n],
                0.0,
                &vec![0.0; n],
            );
            let want: Vec<u64> = (0..n.div_ceil(64))
                .map(|w| match n - 64 * w {
                    k if k >= 64 => !0,
                    k => (1 << k) - 1,
                })
                .collect();
            assert_eq!(words, want, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "one mask bit per column")]
    fn word_count_is_checked() {
        relax_mask(&[0.0; 65], &[0.0; 65], 0.0, &[0.0; 65], &mut [0]);
    }
}
