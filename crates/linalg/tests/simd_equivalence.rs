//! SIMD-vs-scalar equivalence over a shape grid.
//!
//! The contract under test: the AVX2 micro-kernel is **bitwise identical**
//! to the scalar reference on every shape — including remainder rows
//! (m not a multiple of the 4- or 8-row register blocks, so a short last
//! group runs the one-row block over several strips, or a padded
//! multi-row block when it holds more than half a block),
//! remainder columns (n not a multiple of NR=8, or of a one-row block's
//! strips), and degenerate depths — because it vectorizes across output
//! columns and keeps the depth reduction in scalar order. A row's scores
//! must not depend on which block shape computed them, so a one-row fused
//! top-k equals that row of a batched one, bitwise. The FMA variant is
//! only required to agree to a relative tolerance (it rounds once per
//! multiply-add).
//!
//! The Hungarian solver's relaxation mask (`linalg::relax`) carries the
//! same contract: its AVX2 bits equal the scalar expression's on every
//! input, special values and the 4-column and 64-column tails included.
//!
//! On machines without AVX2 (or non-x86_64 targets) every level resolves
//! to the scalar kernel and the equality assertions hold trivially.

use entmatcher_linalg::gemm::{matmul_blocked_with, NR, ROW_STRIPS};
use entmatcher_linalg::ops::matmul_naive;
use entmatcher_linalg::relax::relax_mask_with;
use entmatcher_linalg::simd::{MR_SIMD, ROW_STRIPS_I8, ROW_STRIPS_SIMD};
use entmatcher_linalg::{fused_topk_packed, Matrix, PackedAny, Precision, SimdLevel};

/// Deterministic awkward values: mixed signs and magnitudes so that
/// accumulation-order changes would actually move the result bits.
fn lumpy_matrix(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let h = r
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(c.wrapping_mul(0x85eb_ca6b))
            .wrapping_add(salt.wrapping_mul(0xc2b2_ae35));
        let v = ((h >> 7) % 2003) as f32 / 211.0 - 4.5;
        // Sprinkle magnitude spread to stress rounding.
        if h % 5 == 0 {
            v * 1024.0
        } else if h % 7 == 0 {
            v / 4096.0
        } else {
            v
        }
    })
}

/// Query rows: every count up to one past the 8-row SIMD block (so every
/// remainder of both multi-row blocks, the 4-row scalar and the 8-row
/// AVX2 one, on both sides of the half-block shape choice), then deeper
/// counts with a remainder.
fn query_counts() -> Vec<usize> {
    (1..=MR_SIMD + 1).chain([13, 33]).collect()
}

/// Target counts: the NR=8 strip remainders, then for each one-row block
/// width G (scalar, int8 and f32/f16 AVX2 strips) a count below G strips,
/// exactly G strips, and 3·G strips plus a ragged tail, and a count past
/// one fused pass (which spans at most 256 strips).
fn target_counts() -> Vec<usize> {
    let mut ns = vec![1, 2, 7, 8, 9, 21, 40];
    for g in [ROW_STRIPS, ROW_STRIPS_I8, ROW_STRIPS_SIMD] {
        ns.extend([g * NR - 3, g * NR, 3 * g * NR + 13]);
    }
    ns.push(256 * NR + 37);
    ns
}

/// Depths: degenerate, sub-vector, and two embedding sizes.
const DS: [usize; 4] = [1, 7, 64, 128];

#[test]
fn avx2_is_bitwise_equal_to_scalar_and_naive_on_shape_grid() {
    for (shape_salt, m) in query_counts().into_iter().enumerate() {
        for n in target_counts() {
            for d in DS {
                let a = lumpy_matrix(m, d, shape_salt);
                let b = lumpy_matrix(n, d, shape_salt + 101);
                let naive = matmul_naive(&a, &b).unwrap();
                let scalar = matmul_blocked_with(&a, &b, SimdLevel::Scalar).unwrap();
                assert_eq!(
                    scalar, naive,
                    "scalar blocked != naive at m={m} n={n} d={d}"
                );
                let vector = matmul_blocked_with(&a, &b, SimdLevel::Avx2).unwrap();
                assert_eq!(
                    vector, scalar,
                    "simd blocked != scalar blocked at m={m} n={n} d={d}"
                );
            }
        }
    }
}

#[test]
fn single_row_fused_topk_equals_its_row_of_the_batched_call() {
    // k = n ranks every target, so each of a row's scores is compared.
    let bits = |row: &[(u32, f32)]| -> Vec<(u32, u32)> {
        row.iter().map(|&(j, v)| (j, v.to_bits())).collect()
    };
    for precision in [Precision::F32, Precision::F16, Precision::Int8] {
        for n in target_counts() {
            for d in DS {
                let a = lumpy_matrix(MR_SIMD + 1, d, n);
                let packed = PackedAny::pack(&lumpy_matrix(n, d, n + 101), precision);
                let batched = fused_topk_packed(&a, &packed, n).unwrap();
                for (i, want) in batched.iter().enumerate() {
                    let row = a.select_rows(&[i]).unwrap();
                    let single = fused_topk_packed(&row, &packed, n).unwrap();
                    assert_eq!(
                        bits(&single[0]),
                        bits(want),
                        "{} row {i} alone != batched at n={n} d={d}",
                        precision.name()
                    );
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[test]
fn fma_matches_scalar_within_tolerance() {
    if !std::arch::is_x86_feature_detected!("fma") {
        eprintln!("skipping: host has no FMA");
        return;
    }
    for &(m, n, d) in &[
        (5usize, 9usize, 128usize),
        (13, 21, 7),
        (33, 40, 128),
        (1, 205, 64),
    ] {
        let a = lumpy_matrix(m, d, 7);
        let b = lumpy_matrix(n, d, 13);
        let scalar = matmul_blocked_with(&a, &b, SimdLevel::Scalar).unwrap();
        let fma = matmul_blocked_with(&a, &b, SimdLevel::Fma).unwrap();
        for i in 0..m {
            for j in 0..n {
                let s = scalar.get(i, j);
                let f = fma.get(i, j);
                // Anchor the tolerance to the accumulated term magnitude,
                // not the (possibly cancelled) result: the rounding gap
                // between fused and unfused multiply-add is bounded by a
                // few ulps of sum |a_d * b_d|.
                let mag: f32 = a
                    .row(i)
                    .iter()
                    .zip(b.row(j).iter())
                    .map(|(x, y)| (x * y).abs())
                    .sum();
                let tol = 1e-4_f32.max(mag * 1e-6);
                assert!(
                    (s - f).abs() <= tol,
                    "fma too far from scalar at ({i},{j}) m={m} n={n} d={d}: {s} vs {f}"
                );
            }
        }
    }
}

/// Scores that stress the relaxation mask: NaN, ±∞, ±0, subnormals and
/// plain values.
const MASK_SCORES: [f32; 10] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
    -0.0,
    1e-40,
    -1e-42,
    0.25,
    -0.75,
    1.0,
];

/// Prices, offsets and bounds for the mask, in f64: the same kinds.
const MASK_F64S: [f64; 10] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    5e-324,
    -1e-310,
    0.5,
    -0.25,
    -1.75,
];

#[test]
fn relax_mask_avx2_is_bitwise_equal_to_scalar_on_special_values() {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move |len: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % len as u64) as usize
    };
    for n in 0..=200 {
        for round in 0..4 {
            let row: Vec<f32> = (0..n).map(|_| MASK_SCORES[next(10)]).collect();
            let price: Vec<f64> = (0..n).map(|_| MASK_F64S[next(10)]).collect();
            let h = MASK_F64S[round * 3 % 10];
            // A third of the bounds sit exactly on the distance, where `<`
            // is false, and a third one bit away from it.
            let bound: Vec<f64> = (0..n)
                .map(|j| {
                    let d = -(row[j] as f64) - price[j] - h;
                    match next(3) {
                        0 => d,
                        1 => f64::from_bits(d.to_bits() ^ 1),
                        _ => MASK_F64S[next(10)],
                    }
                })
                .collect();
            let mut scalar = vec![0u64; n.div_ceil(64)];
            let mut avx2 = vec![!0u64; n.div_ceil(64)];
            relax_mask_with(SimdLevel::Scalar, &row, &price, h, &bound, &mut scalar);
            relax_mask_with(SimdLevel::Avx2, &row, &price, h, &bound, &mut avx2);
            assert_eq!(avx2, scalar, "n={n} round={round}");
            for j in 0..n {
                let want = -(row[j] as f64) - price[j] - h < bound[j];
                assert_eq!(scalar[j / 64] >> (j % 64) & 1 == 1, want, "n={n} j={j}");
            }
        }
    }
}
