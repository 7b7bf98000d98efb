//! Exhaustive shape-equivalence suite for the blocked GEMM and the fused
//! similarity→reduction kernels.
//!
//! The blocked kernel's contract is *bitwise* equality with the naive
//! triple loop — both accumulate the d dimension strictly sequentially —
//! so every comparison here is exact (`assert_eq!` on whole matrices),
//! never tolerance-based. The shape grid deliberately straddles every
//! tiling boundary: below MR (4), below NR (8), non-multiples of both
//! (3, 7, 17), a full tile multiple (64), and the empty edge (0).

use entmatcher_linalg::{
    fused_argmax_affine, fused_topk, fused_topk_means, matmul_blocked, matmul_naive, Matrix,
};
use entmatcher_linalg::rank::top_k_mean;
use entmatcher_linalg::{argmax, top_k_desc};
use entmatcher_support::rng::{Rng, SeedableRng, StdRng};

const SIZES: [usize; 6] = [0, 1, 3, 7, 17, 64];

/// Deterministic non-trivial fill: varies in both indices, includes
/// negatives, and never repeats within a tile.
fn patterned(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let x = (r * 31 + c * 17 + salt * 7) % 23;
        (x as f32 - 11.0) * 0.25
    })
}

fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen::<f32>() * 2.0 - 1.0)
}

#[test]
fn blocked_matches_naive_on_exhaustive_shape_grid() {
    for &m in &SIZES {
        for &n in &SIZES {
            for &d in &SIZES {
                let a = patterned(m, d, 1);
                let b = patterned(n, d, 2);
                let naive = matmul_naive(&a, &b).unwrap();
                let blocked = matmul_blocked(&a, &b).unwrap();
                assert_eq!(
                    blocked, naive,
                    "blocked != naive at m={m} n={n} d={d} (must be bitwise equal)"
                );
            }
        }
    }
}

#[test]
fn blocked_matches_naive_on_random_tile_straddling_shapes() {
    // Shapes chosen to land just off the MR=4 / NR=8 boundaries and the
    // panel-strip boundary, with random (not patterned) data.
    for (m, n, d, seed) in [
        (5, 9, 13, 10u64),
        (4, 8, 16, 11),
        (33, 65, 31, 12),
        (130, 257, 70, 13),
        (1, 300, 1, 14),
        (300, 1, 3, 15),
    ] {
        let a = random(m, d, seed);
        let b = random(n, d, seed ^ 0xFF);
        let naive = matmul_naive(&a, &b).unwrap();
        let blocked = matmul_blocked(&a, &b).unwrap();
        assert_eq!(blocked, naive, "m={m} n={n} d={d} diverged");
    }
}

#[test]
fn fused_topk_matches_dense_topk_on_seeded_random_matrices() {
    for (m, n, d, k, seed) in [
        (40, 60, 16, 5, 21u64),
        (17, 33, 7, 1, 22),
        (9, 130, 32, 10, 23),
        (64, 64, 64, 64, 24), // k == n: full row retained
        (3, 7, 5, 100, 25),   // k > n: clamped
    ] {
        let a = random(m, d, seed);
        let b = random(n, d, seed ^ 0xAB);
        let dense = matmul_naive(&a, &b).unwrap();
        let fused = fused_topk(&a, &b, k).unwrap();
        assert_eq!(fused.len(), m);
        for (i, row_topk) in fused.iter().enumerate() {
            let want = top_k_desc(dense.row(i), k);
            assert_eq!(row_topk.len(), want.len(), "row {i} length");
            for (got, &wi) in row_topk.iter().zip(want.iter()) {
                // Indices agree, and values are the exact dense scores.
                assert_eq!(got.0 as usize, wi, "row {i} index order");
                assert_eq!(got.1, dense.get(i, wi), "row {i} value");
            }
        }
    }
}

#[test]
fn fused_means_and_argmax_match_dense_reductions() {
    let (m, n, d, k) = (50, 70, 24, 8);
    let a = random(m, d, 31);
    let b = random(n, d, 32);
    let dense = matmul_naive(&a, &b).unwrap();

    let means = fused_topk_means(&a, &b, k).unwrap();
    assert_eq!(means.len(), m);
    for (i, &mean) in means.iter().enumerate() {
        assert_eq!(mean, top_k_mean(dense.row(i), k), "row {i} mean");
    }

    let picks = fused_argmax_affine(&a, &b, 1.0, None, None).unwrap();
    assert_eq!(picks.len(), m);
    for (i, pick) in picks.iter().enumerate() {
        assert_eq!(pick.map(|j| j as usize), argmax(dense.row(i)), "row {i} argmax");
    }
}

#[test]
fn fused_affine_offsets_match_dense_corrected_argmax() {
    // The CSLS decision shape: (2s + (-phi_u)) + (-phi_v) per cell, argmax
    // per row — must equal the same expression evaluated on the dense
    // matrix in the same operation order.
    let (m, n, d) = (30, 45, 12);
    let a = random(m, d, 41);
    let b = random(n, d, 42);
    let row_off: Vec<f32> = (0..m).map(|i| -((i % 5) as f32) * 0.1).collect();
    let col_off: Vec<f32> = (0..n).map(|j| -((j % 7) as f32) * 0.05).collect();
    let dense = matmul_naive(&a, &b).unwrap();
    let picks = fused_argmax_affine(&a, &b, 2.0, Some(&row_off), Some(&col_off)).unwrap();
    for i in 0..m {
        let corrected: Vec<f32> = (0..n)
            .map(|j| (2.0 * dense.get(i, j) + row_off[i]) + col_off[j])
            .collect();
        assert_eq!(picks[i].map(|j| j as usize), argmax(&corrected), "row {i}");
    }
}

#[test]
fn empty_operands_are_well_formed_everywhere() {
    let a = Matrix::zeros(0, 8);
    let b = random(5, 8, 51);
    assert_eq!(matmul_blocked(&a, &b).unwrap().shape(), (0, 5));
    assert_eq!(matmul_blocked(&b, &a).unwrap().shape(), (5, 0));
    assert!(fused_topk(&a, &b, 3).unwrap().is_empty());
    let empty_rows = fused_topk(&b, &a, 3).unwrap();
    assert_eq!(empty_rows.len(), 5);
    assert!(empty_rows.iter().all(Vec::is_empty));
    assert_eq!(
        fused_argmax_affine(&b, &a, 1.0, None, None).unwrap(),
        vec![None; 5]
    );
}
