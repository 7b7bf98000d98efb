//! Property-based tests of the linalg kernels, on the in-tree
//! `entmatcher_support::prop` harness.
//!
//! The `regression_*` tests at the bottom replay inputs that historically
//! produced failures (recorded in the retired `.proptest-regressions` seed
//! file) as explicit deterministic cases.

use entmatcher_linalg::fused::{
    fused_argmax_affine, fused_topk_means_both_packed, fused_topk_means_packed, TopKAccumulator,
};
use entmatcher_linalg::ops::{col_sums, row_sums};
use entmatcher_linalg::rank::{
    argmax, argsort_desc, col_top_k_means, rank_desc, top_k_desc, top_k_mean,
};
use entmatcher_linalg::{
    dot, matmul_blocked_packed, matmul_transposed, normalize_rows_l2, snapshot, Matrix, PackedAny,
    Precision,
};
use entmatcher_support::prop::{check, Config, Failed, Gen};
use entmatcher_support::rng::Rng;
use entmatcher_support::{prop_assert, prop_assert_eq};

fn cfg() -> Config {
    Config::with_cases(128)
}

fn gen_matrix(g: &mut Gen, max_rows: usize, max_cols: usize) -> Matrix {
    let r = 1 + g.len_in(0, max_rows - 1);
    let c = 1 + g.len_in(0, max_cols - 1);
    gen_matrix_exact(g, r, c)
}

fn gen_matrix_with_cols(g: &mut Gen, max_rows: usize, cols: usize) -> Matrix {
    let r = 1 + g.len_in(0, max_rows - 1);
    gen_matrix_exact(g, r, cols)
}

fn gen_matrix_exact(g: &mut Gen, rows: usize, cols: usize) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| g.gen_range(-100.0f32..100.0))
        .collect();
    Matrix::from_vec(rows, cols, data).expect("sized")
}

#[test]
fn transpose_is_involutive() {
    check("transpose_is_involutive", cfg(), |g| {
        let m = gen_matrix(g, 10, 10);
        prop_assert_eq!(m.transposed().transposed(), m);
        Ok(())
    });
}

#[test]
fn transpose_swaps_row_and_col_sums() {
    check("transpose_swaps_row_and_col_sums", cfg(), |g| {
        let m = gen_matrix(g, 10, 10);
        let t = m.transposed();
        let rows = row_sums(&m);
        let cols = col_sums(&t);
        for (a, b) in rows.iter().zip(cols.iter()) {
            prop_assert!((a - b).abs() < 1e-3);
        }
        Ok(())
    });
}

fn check_matmul_agrees_with_dot(a: &Matrix, b: &Matrix) -> Result<(), Failed> {
    let out = matmul_transposed(a, b).unwrap();
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let want = dot(a.row(i), b.row(j));
            prop_assert!((out.get(i, j) - want).abs() < want.abs() * 1e-4 + 1e-2);
        }
    }
    Ok(())
}

#[test]
fn matmul_transposed_agrees_with_dot() {
    check("matmul_transposed_agrees_with_dot", cfg(), |g| {
        let d = g.gen_range(1..=6usize);
        let a = gen_matrix_with_cols(g, 8, d);
        let b = gen_matrix_with_cols(g, 8, d);
        check_matmul_agrees_with_dot(&a, &b)
    });
}

#[test]
fn normalized_rows_have_unit_norm_or_zero() {
    check("normalized_rows_have_unit_norm_or_zero", cfg(), |g| {
        let mut m = gen_matrix(g, 10, 8);
        normalize_rows_l2(&mut m);
        for (_, row) in m.iter_rows() {
            let n = entmatcher_linalg::l2_norm(row);
            prop_assert!(n < 1.0 + 1e-4);
            prop_assert!(n > 1.0 - 1e-4 || n == 0.0);
        }
        Ok(())
    });
}

#[test]
fn argsort_desc_is_sorted_permutation() {
    check("argsort_desc_is_sorted_permutation", cfg(), |g| {
        let m = gen_matrix(g, 1, 30);
        let row = m.row(0);
        let order = argsort_desc(row);
        // Permutation of indices.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..row.len()).collect::<Vec<_>>());
        // Descending values.
        for w in order.windows(2) {
            prop_assert!(row[w[0]] >= row[w[1]]);
        }
        Ok(())
    });
}

#[test]
fn top_k_is_argsort_prefix() {
    check("top_k_is_argsort_prefix", cfg(), |g| {
        let m = gen_matrix(g, 1, 25);
        let k = g.gen_range(1..30usize);
        let row = m.row(0);
        let top = top_k_desc(row, k);
        let full = argsort_desc(row);
        let expect: Vec<usize> = full.into_iter().take(k.min(row.len())).collect();
        // Values must agree positionally (indices may differ under ties,
        // but this generator makes exact ties measure-zero).
        prop_assert_eq!(top.len(), expect.len());
        for (a, b) in top.iter().zip(expect.iter()) {
            prop_assert!((row[*a] - row[*b]).abs() < 1e-6);
        }
        Ok(())
    });
}

#[test]
fn top_k_mean_equals_sort_based_reference() {
    check("top_k_mean_equals_sort_based_reference", cfg(), |g| {
        let m = gen_matrix(g, 1, 40);
        let k = g.gen_range(1..50usize);
        let row = m.row(0);
        // Reference: full descending sort, sum the k-prefix in order. The
        // heap implementation reports its survivors in the same canonical
        // descending order, so the result is bitwise equal, not approximate.
        let mut sorted = row.to_vec();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let take = k.min(sorted.len());
        let want = sorted[..take].iter().sum::<f32>() / take as f32;
        prop_assert_eq!(top_k_mean(row, k), want);
        Ok(())
    });
}

#[test]
fn top_k_mean_bounded_by_extremes() {
    check("top_k_mean_bounded_by_extremes", cfg(), |g| {
        let m = gen_matrix(g, 1, 20);
        let k = g.gen_range(1..25usize);
        let row = m.row(0);
        let mean = top_k_mean(row, k);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let min = row.iter().copied().fold(f32::INFINITY, f32::min);
        prop_assert!(mean <= max + 1e-4 && mean >= min - 1e-4);
        Ok(())
    });
}

#[test]
fn rank_desc_inverts_argsort() {
    check("rank_desc_inverts_argsort", cfg(), |g| {
        let m = gen_matrix(g, 1, 20);
        let row = m.row(0);
        let order = argsort_desc(row);
        let ranks = rank_desc(row);
        for (rank, idx) in order.iter().enumerate() {
            prop_assert_eq!(ranks[*idx] as usize, rank);
        }
        Ok(())
    });
}

#[test]
fn snapshot_roundtrips() {
    check("snapshot_roundtrips", cfg(), |g| {
        let m = gen_matrix(g, 12, 12);
        let bytes = snapshot::to_bytes(&m);
        let back = snapshot::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, m);
        Ok(())
    });
}

fn check_hcat_recovers_left_block(a: &Matrix, b: &Matrix) -> Result<(), Failed> {
    // Make row counts match.
    let rows = a.rows().min(b.rows());
    let a = a.select_rows(&(0..rows).collect::<Vec<_>>()).unwrap();
    let b = b.select_rows(&(0..rows).collect::<Vec<_>>()).unwrap();
    let cat = a.hcat(&b).unwrap();
    for r in 0..rows {
        prop_assert_eq!(&cat.row(r)[..a.cols()], a.row(r));
        prop_assert_eq!(&cat.row(r)[a.cols()..], b.row(r));
    }
    Ok(())
}

#[test]
fn hcat_then_select_recovers_left_block() {
    check("hcat_then_select_recovers_left_block", cfg(), |g| {
        let a = gen_matrix(g, 6, 5);
        let b = gen_matrix(g, 6, 4);
        check_hcat_recovers_left_block(&a, &b)
    });
}

/// A value from a palette heavy in NaN, infinities and repeats (signed
/// zeros among them), so runs exercise the filters' tie, NaN and overflow
/// edges.
fn gen_edgy(g: &mut Gen) -> f32 {
    match g.gen_range(0..8u32) {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        7 => g.gen_range(-2.0f32..2.0),
        _ => *g.choose(&[-1.0f32, -0.0, 0.0, 0.5, 1.0]),
    }
}

fn sorted_bits(acc: TopKAccumulator) -> Vec<(u32, u32)> {
    (acc.into_sorted_desc().into_iter())
        .map(|(i, v)| (i, v.to_bits()))
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn push_run_keeps_exactly_what_push_keeps() {
    check("push_run_keeps_exactly_what_push_keeps", cfg(), |g| {
        let len = g.len_in(0, 45);
        let run: Vec<f32> = (0..len).map(|_| gen_edgy(g)).collect();
        // Values pushed one by one first put the run's start anywhere
        // relative to the fill point; their indices lie above, inside or
        // below the run's, so ties meet the index rule from both sides.
        let before: Vec<f32> = (0..g.len_in(0, 12)).map(|_| gen_edgy(g)).collect();
        let before_base = *g.choose(&[0u32, 20, 100]);
        let base = g.gen_range(0..50u32);
        for k in [0, 1, 2, len / 2, len.saturating_sub(1), len, len + 3] {
            let mut one = TopKAccumulator::new(k);
            for (i, &v) in before.iter().enumerate() {
                one.push(before_base + i as u32, v);
            }
            let mut batched = one.clone();
            for (j, &v) in run.iter().enumerate() {
                one.push(base + j as u32, v);
            }
            batched.push_run(base, &run);
            prop_assert_eq!(batched.mean().to_bits(), one.mean().to_bits());
            prop_assert_eq!(sorted_bits(batched), sorted_bits(one));
        }
        Ok(())
    });
}

/// Mean of the `k` largest of `values` through one scalar
/// [`TopKAccumulator::push`] per value: the reference the dense CSLS
/// reductions are held to.
fn push_mean(values: impl IntoIterator<Item = f32>, k: usize) -> f32 {
    let mut acc = TopKAccumulator::new(k);
    for (i, v) in values.into_iter().enumerate() {
        acc.push(i as u32, v);
    }
    acc.mean()
}

#[test]
fn dense_topk_means_equal_one_push_per_value() {
    check("dense_topk_means_equal_one_push_per_value", cfg(), |g| {
        // Rows wider than one filter step, columns deep enough to fill
        // their heaps, and k from 0 past both dimensions.
        let (rows, cols) = (g.len_in(0, 24), g.len_in(0, 40));
        let data: Vec<f32> = (0..rows * cols).map(|_| gen_edgy(g)).collect();
        let m = Matrix::from_vec(rows, cols, data).expect("sized");
        let k = *g.choose(&[0, 1, 2, 3, 10, rows, rows + 3, cols, cols + 3]);
        for r in 0..rows {
            let want = push_mean(m.row(r).iter().copied(), k);
            prop_assert_eq!(top_k_mean(m.row(r), k).to_bits(), want.to_bits());
        }
        let got = col_top_k_means(&m, k);
        prop_assert_eq!(got.len(), cols);
        for (c, mean) in got.iter().enumerate() {
            prop_assert_eq!(mean.to_bits(), push_mean(m.col(c), k).to_bits());
        }
        Ok(())
    });
}

/// An `rows x cols` matrix of finite values in which about one row in
/// four has an entry set to NaN (a NaN score row) or to an infinity
/// (scores of +-inf, or NaN where infinities cancel).
fn gen_scan_operand(g: &mut Gen, rows: usize, cols: usize) -> Matrix {
    let mut m = gen_matrix_exact(g, rows, cols);
    for r in 0..rows {
        if cols > 0 && g.gen_range(0..4u32) == 0 {
            let c = g.gen_range(0..cols);
            let v = *g.choose(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
            m.set(r, c, v);
        }
    }
    m
}

#[test]
fn two_sided_topk_means_equal_both_one_sided_scans() {
    check("two_sided_topk_means_equal_both_one_sided_scans", cfg(), |g| {
        // Mostly narrow operands; one case in four is deep enough that
        // the packed operand spans several cache panels with a ragged
        // tail, with rows for several pool tasks (so several column
        // states to merge when the pool is wider than one).
        let (m, n, d) = if g.gen_range(0..4u32) == 0 {
            (17 + g.len_in(0, 47), 129 + g.len_in(0, 131), 512 + g.len_in(0, 128))
        } else {
            (g.len_in(0, 48), g.len_in(0, 30), g.len_in(0, 9))
        };
        let a = gen_scan_operand(g, m, d);
        let b = gen_scan_operand(g, n, d);
        let k = *g.choose(&[0, 1, 3, 10, m, n, n + 3, m + 3]);
        let (rows, cols) =
            fused_topk_means_both_packed(&a, &PackedAny::pack(&b, Precision::F32), k).unwrap();
        let want_rows = fused_topk_means_packed(&a, &PackedAny::pack(&b, Precision::F32), k);
        let want_cols = fused_topk_means_packed(&b, &PackedAny::pack(&a, Precision::F32), k);
        prop_assert_eq!(bits(&rows), bits(&want_rows.unwrap()));
        prop_assert_eq!(bits(&cols), bits(&want_cols.unwrap()));
        Ok(())
    });
}

#[test]
fn filtered_argmax_equals_argmax_of_the_corrected_row() {
    check("filtered_argmax_equals_argmax_of_the_corrected_row", cfg(), |g| {
        let d = g.len_in(1, 4);
        let (m, n) = (g.len_in(1, 6), g.len_in(1, 40));
        // Half-integer entries make exact score ties common.
        let mut small = |rows: usize| {
            Matrix::from_fn(rows, d, |_, _| g.gen_range(-2i32..=2) as f32 * 0.5)
        };
        let (a, b) = (small(m), small(n));
        let scale = *g.choose(&[1.0f32, 2.0, -1.0, 0.5]);
        let row_off: Option<Vec<f32>> =
            g.gen_bool(0.5).then(|| (0..m).map(|_| gen_edgy(g)).collect());
        let col_off: Option<Vec<f32>> =
            g.gen_bool(0.7).then(|| (0..n).map(|_| gen_edgy(g)).collect());
        let got = fused_argmax_affine(&a, &b, scale, row_off.as_deref(), col_off.as_deref())
            .unwrap();
        let dense = matmul_blocked_packed(&a, &PackedAny::pack(&b, Precision::F32)).unwrap();
        for i in 0..m {
            let ro = row_off.as_ref().map_or(0.0, |off| off[i]);
            let corrected: Vec<f32> = (0..n)
                .map(|j| {
                    let v = scale * dense.get(i, j) + ro;
                    col_off.as_ref().map_or(v, |off| v + off[j])
                })
                .collect();
            prop_assert_eq!(got[i].map(|j| j as usize), argmax(&corrected));
        }
        Ok(())
    });
}

/// Regression seed `09ed7d62…` from the retired proptest regression file:
/// shrank to `a = Matrix { rows: 1, cols: 1, data: [0.0] }`,
/// `b = Matrix { rows: 1, cols: 2, data: [0.0, 0.0] }` — the minimal
/// mismatched-width pair for the hcat/select property.
#[test]
fn regression_09ed7d62_hcat_minimal_pair() {
    let a = Matrix::from_vec(1, 1, vec![0.0]).unwrap();
    let b = Matrix::from_vec(1, 2, vec![0.0, 0.0]).unwrap();
    check_hcat_recovers_left_block(&a, &b).unwrap();
    // The same shapes through the matmul property, padded to equal widths,
    // cover the other two-matrix kernel at the degenerate size.
    let b1 = Matrix::from_vec(1, 1, vec![0.0]).unwrap();
    check_matmul_agrees_with_dot(&a, &b1).unwrap();
}
