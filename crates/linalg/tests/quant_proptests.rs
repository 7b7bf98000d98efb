//! Property-based and shape-grid tests of the quantized storage layer.
//!
//! Two contracts are pinned here:
//!
//! 1. **Round-trip accuracy.** f16 conversion is exact on every value a
//!    half can represent (it is a widening/narrowing pair, not an
//!    approximation), and otherwise rounds to nearest-even with relative
//!    error <= 2^-11 in the normal range. int8 quantization keeps every
//!    finite element within `scale / 2` of its original (round-to-nearest
//!    at step `scale`), with the documented edge-row conventions: all-zero
//!    rows quantize to all zeros, NaN elements to 0, +/-inf saturate.
//! 2. **Kernel identity.** The dequantize-fused AVX2 micro-kernels are
//!    bitwise identical to their scalar references on a shape grid
//!    straddling every register-block and strip remainder, at both block
//!    shapes (multi-row, and one row over several strips) — the same
//!    discipline `simd_equivalence.rs` pins for the f32 kernel.

use entmatcher_linalg::gemm::{matmul_blocked_packed_with, NR, ROW_STRIPS};
use entmatcher_linalg::ops::matmul_naive;
use entmatcher_linalg::quant::{
    dequantize_value_int8, f16_bits_to_f32, f32_to_f16_bits, int8_row_scale, quantize_value_int8,
};
use entmatcher_linalg::simd::{MR_SIMD, ROW_STRIPS_I8, ROW_STRIPS_SIMD};
use entmatcher_linalg::{quantize_roundtrip, Matrix, PackedAny, Precision, SimdLevel};
use entmatcher_support::prop::{check, Config, Gen};
use entmatcher_support::prop_assert;
use entmatcher_support::rng::Rng;

fn cfg() -> Config {
    Config::with_cases(128)
}

// ---------------------------------------------------------------------------
// f16 round-trips
// ---------------------------------------------------------------------------

#[test]
fn f16_representable_values_round_trip_exactly() {
    // Exhaustive over all 2^16 bit patterns: every non-NaN half value,
    // widened to f32 and narrowed back, must reproduce its bits exactly
    // (subnormals and both infinities included).
    for bits in 0..=u16::MAX {
        let v = f16_bits_to_f32(bits);
        if v.is_nan() {
            assert!(f16_bits_to_f32(f32_to_f16_bits(v)).is_nan());
            continue;
        }
        assert_eq!(
            f32_to_f16_bits(v),
            bits,
            "half bits {bits:#06x} (= {v}) did not survive the round trip"
        );
    }
}

#[test]
fn f16_narrowing_is_within_half_ulp_on_normal_range() {
    check("f16_narrowing_is_within_half_ulp", cfg(), |g| {
        // Normal half range, away from the subnormal boundary.
        let mag = g.gen_range(6.2e-5f32..60000.0);
        let v = if g.gen::<bool>() { mag } else { -mag };
        let rt = f16_bits_to_f32(f32_to_f16_bits(v));
        // RNE at 10 mantissa bits: relative error <= 2^-11.
        prop_assert!(
            (rt - v).abs() <= v.abs() * (1.0 / 2048.0),
            "f16 round trip of {} drifted to {}",
            v,
            rt
        );
        Ok(())
    });
}

#[test]
fn f16_handles_non_finite_and_overflow() {
    assert_eq!(f16_bits_to_f32(f32_to_f16_bits(f32::INFINITY)), f32::INFINITY);
    assert_eq!(
        f16_bits_to_f32(f32_to_f16_bits(f32::NEG_INFINITY)),
        f32::NEG_INFINITY
    );
    assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    // Values past the half range overflow to infinity (65504 is the max
    // finite half; 65520 is the RNE tie that rolls over).
    assert_eq!(f16_bits_to_f32(f32_to_f16_bits(65520.0)), f32::INFINITY);
    assert_eq!(f16_bits_to_f32(f32_to_f16_bits(-1.0e9)), f32::NEG_INFINITY);
    // Values below the smallest subnormal flush to (signed) zero.
    let tiny = f16_bits_to_f32(f32_to_f16_bits(1.0e-9));
    assert_eq!(tiny, 0.0);
}

// ---------------------------------------------------------------------------
// int8 round-trips
// ---------------------------------------------------------------------------

fn gen_row(g: &mut Gen, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| {
            let v = g.gen_range(-100.0f32..100.0);
            // Sprinkle magnitude spread so rows have non-trivial scales.
            if g.gen_range(0..5u8) == 0 {
                v / 1024.0
            } else {
                v
            }
        })
        .collect()
}

#[test]
fn int8_row_error_is_bounded_by_half_scale() {
    check("int8_row_error_is_bounded_by_half_scale", cfg(), |g| {
        let len = 1 + g.len_in(0, 63);
        let row = gen_row(g, len);
        let scale = int8_row_scale(&row);
        prop_assert!(scale >= 0.0);
        for &v in &row {
            let rt = dequantize_value_int8(quantize_value_int8(v, scale), scale);
            // Round-to-nearest at step `scale`; the tiny epsilon covers
            // the scale division's own rounding.
            prop_assert!(
                (rt - v).abs() <= scale * 0.500_05,
                "|{} - {}| > scale/2 (scale {})",
                rt,
                v,
                scale
            );
        }
        Ok(())
    });
}

#[test]
fn int8_matrix_round_trip_error_is_bounded_per_row() {
    check("int8_matrix_round_trip_error", cfg(), |g| {
        let rows = 1 + g.len_in(0, 11);
        let cols = 1 + g.len_in(0, 19);
        let data: Vec<f32> = (0..rows * cols).flat_map(|_| gen_row(g, 1)).collect();
        let m = Matrix::from_vec(rows, cols, data).expect("sized");
        let rt = quantize_roundtrip(&m, Precision::Int8);
        for r in 0..rows {
            let scale = int8_row_scale(m.row(r));
            for (a, b) in m.row(r).iter().zip(rt.row(r)) {
                prop_assert!((a - b).abs() <= scale * 0.500_05);
            }
        }
        Ok(())
    });
}

#[test]
fn int8_edge_rows_follow_the_documented_conventions() {
    // All-zero row: scale 0, every element round-trips to exactly 0.
    let zero = vec![0.0f32; 16];
    assert_eq!(int8_row_scale(&zero), 0.0);
    for &v in &zero {
        let q = quantize_value_int8(v, 0.0);
        assert_eq!(q, 0);
        assert_eq!(dequantize_value_int8(q, 0.0), 0.0);
    }

    // Single-element row: the element maps to +/-127 exactly.
    for v in [3.5f32, -0.001, 1.0e30] {
        let scale = int8_row_scale(&[v]);
        let q = quantize_value_int8(v, scale);
        assert_eq!(q.abs(), 127, "single element {v} must saturate the grid");
        let rt = dequantize_value_int8(q, scale);
        assert!((rt - v).abs() <= v.abs() * 1e-6);
    }

    // Subnormal row: scales stay finite and positive, elements survive.
    let sub = vec![f32::MIN_POSITIVE / 2.0, -f32::MIN_POSITIVE / 4.0];
    let scale = int8_row_scale(&sub);
    assert!(scale > 0.0 && scale.is_finite());
    for &v in &sub {
        let rt = dequantize_value_int8(quantize_value_int8(v, scale), scale);
        assert!((rt - v).abs() <= scale * 0.500_05);
    }

    // Non-finite elements: NaN -> 0, +/-inf saturate to +/-127; the scale
    // comes from the finite elements only.
    let dirty = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 2.0, -1.0];
    let scale = int8_row_scale(&dirty);
    assert!((scale - 2.0 / 127.0).abs() < 1e-9);
    assert_eq!(quantize_value_int8(f32::NAN, scale), 0);
    assert_eq!(quantize_value_int8(f32::INFINITY, scale), 127);
    assert_eq!(quantize_value_int8(f32::NEG_INFINITY, scale), -127);
}

// ---------------------------------------------------------------------------
// Dequantize-fused kernel identity: scalar vs AVX2 on the shape grid
// ---------------------------------------------------------------------------

/// Deterministic awkward values (mirrors `simd_equivalence.rs`): mixed
/// signs and magnitudes so accumulation-order changes would move bits.
fn lumpy_matrix(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let h = r
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(c.wrapping_mul(0x85eb_ca6b))
            .wrapping_add(salt.wrapping_mul(0xc2b2_ae35));
        let v = ((h >> 7) % 2003) as f32 / 211.0 - 4.5;
        if h % 5 == 0 {
            v * 1024.0
        } else if h % 7 == 0 {
            v / 4096.0
        } else {
            v
        }
    })
}

/// Query rows: every count up to one past the 8-row SIMD block, then
/// deeper counts with a remainder (mirrors `simd_equivalence.rs`).
fn query_counts() -> Vec<usize> {
    (1..=MR_SIMD + 1).chain([13, 33]).collect()
}

/// Target counts: the NR=8 strip remainders, then for each one-row block
/// width G a count below G strips, exactly G strips, and 3·G strips plus
/// a ragged tail, and a count past one fused pass (at most 256 strips).
fn target_counts() -> Vec<usize> {
    let mut ns = vec![1, 2, 7, 8, 9, 21, 40];
    for g in [ROW_STRIPS, ROW_STRIPS_I8, ROW_STRIPS_SIMD] {
        ns.extend([g * NR - 3, g * NR, 3 * g * NR + 13]);
    }
    ns.push(256 * NR + 37);
    ns
}

const DS: [usize; 4] = [1, 7, 64, 128];

#[test]
fn dequantize_fused_avx2_is_bitwise_equal_to_scalar_on_shape_grid() {
    // f32 is one more payload of the same packed operand: its scalar and
    // AVX2 kernels must meet the same contract through the same entry point.
    for precision in [Precision::F32, Precision::F16, Precision::Int8] {
        for (shape_salt, m) in query_counts().into_iter().enumerate() {
            for n in target_counts() {
                for d in DS {
                    let a = lumpy_matrix(m, d, shape_salt);
                    let b = lumpy_matrix(n, d, shape_salt + 101);
                    let packed = PackedAny::pack(&b, precision);
                    let scalar =
                        matmul_blocked_packed_with(&a, &packed, SimdLevel::Scalar).unwrap();
                    let vector = matmul_blocked_packed_with(&a, &packed, SimdLevel::Avx2).unwrap();
                    assert_eq!(
                        vector,
                        scalar,
                        "{} fused simd != scalar at m={m} n={n} d={d}",
                        precision.name()
                    );
                    // And both equal the plain product of the round-tripped
                    // operand — quantization error lives entirely in the
                    // stored values, never in the kernel.
                    let reference = matmul_naive(&a, &quantize_roundtrip(&b, precision)).unwrap();
                    assert_eq!(
                        scalar,
                        reference,
                        "{} fused != naive-on-roundtrip at m={m} n={n} d={d}",
                        precision.name()
                    );
                }
            }
        }
    }
}

#[test]
fn dequantize_fused_fma_request_maps_to_avx2() {
    // FMA is an f32-only opt-in; quantized kernels clamp it to the AVX2
    // (bitwise-exact) path, so requesting it must not change any bit.
    let a = lumpy_matrix(13, 64, 3);
    let b = lumpy_matrix(21, 64, 9);
    for precision in [Precision::F16, Precision::Int8] {
        let packed = PackedAny::pack(&b, precision);
        let scalar = matmul_blocked_packed_with(&a, &packed, SimdLevel::Scalar).unwrap();
        let fma = matmul_blocked_packed_with(&a, &packed, SimdLevel::Fma).unwrap();
        assert_eq!(fma, scalar, "{} fma-request diverged", precision.name());
    }
}
