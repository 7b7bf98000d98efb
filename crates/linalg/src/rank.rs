//! Selection and ranking primitives: argmax, top-k, argsort, dense ranks.
//!
//! These back the matching algorithms directly: Greedy needs per-row argmax,
//! CSLS needs per-row top-k means, RInf needs full per-row rankings, and
//! Gale–Shapley needs sorted preference lists.

/// Index of the maximum value in `row` (first occurrence wins). Returns
/// `None` for an empty row. NaN values never win.
pub fn argmax(row: &[f32]) -> Option<usize> {
    let mut best = None;
    for (i, &v) in row.iter().enumerate() {
        argmax_step(&mut best, i, v);
    }
    best.map(|(i, _)| i)
}

/// Offers `(i, v)` to a running [`argmax`]: the first non-NaN value is
/// taken (even `-inf`), then only a strictly greater one replaces it.
/// Streaming reductions that see a row in pieces use this so they decide
/// exactly like `argmax` over the whole row.
#[inline]
pub fn argmax_step(best: &mut Option<(usize, f32)>, i: usize, v: f32) {
    match *best {
        _ if v.is_nan() => {}
        Some((_, bv)) if bv >= v => {}
        _ => *best = Some((i, v)),
    }
}

/// Returns the indices of the `k` largest values in `row`, in descending
/// value order. If `k >= row.len()` the full descending argsort is returned.
///
/// Uses `select_nth_unstable` for O(n + k lg k) rather than sorting the full
/// row — CSLS calls this for every entity with small k.
pub fn top_k_desc(row: &[f32], k: usize) -> Vec<usize> {
    let n = row.len();
    if n == 0 || k == 0 {
        return Vec::new();
    }
    if k >= n {
        return argsort_desc(row);
    }
    let mut idx: Vec<usize> = (0..n).collect();
    idx.select_nth_unstable_by(k - 1, |&a, &b| {
        row[b]
            .partial_cmp(&row[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    idx.truncate(k);
    idx.sort_unstable_by(|&a, &b| {
        row[b]
            .partial_cmp(&row[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    idx
}

/// Mean of the `k` largest values in `row` (0.0 for an empty row/k = 0).
///
/// Uses a bounded-heap accumulator ([`crate::fused::TopKAccumulator`])
/// instead of materializing a sorted index vector — O(n lg k) with no
/// allocation proportional to `n` — and offers the row as one run, so once
/// the heap is full only values that reach its floor are looked at. The
/// mean sums the retained values in canonical descending order, so every
/// top-k implementation in the crate (dense selection, column pass, fused
/// streaming) reports bit-identical means for the same value multiset.
pub fn top_k_mean(row: &[f32], k: usize) -> f32 {
    let mut acc = crate::fused::TopKAccumulator::new(k);
    acc.push_run(0, row);
    acc.mean()
}

/// Per-column mean of the `k` largest values of `m` — the column-wise
/// counterpart of [`top_k_mean`], i.e. the CSLS target-side neighbourhood
/// statistic. Streams the matrix row by row into one flat, value-only
/// top-`k` state per contiguous column block (the floor-filtered column
/// state of [`crate::fused`]), parallelized over the blocks, so no
/// `n_t x n_s` transposed copy is ever allocated.
pub fn col_top_k_means(m: &crate::matrix::Matrix, k: usize) -> Vec<f32> {
    use crate::fused::{top_mean, ColumnTopK};
    let (rows, cols) = m.shape();
    let mut out = vec![0.0f32; cols];
    if cols == 0 {
        return out;
    }
    // A column sees `rows` values, so no more slots are needed.
    let slots = k.min(rows);
    // Each output column is a reduction over all `rows` values, so the
    // per-item cost is `rows`, not 1 — few columns over many rows must
    // still fan out.
    let grain = crate::parallel::Grain::for_item_cost(rows);
    crate::parallel::par_row_chunks_mut_grained(&mut out, 1, grain, |col0, chunk| {
        let width = chunk.len();
        let mut heaps = ColumnTopK::new(width, slots);
        for r in 0..rows {
            heaps.push_row(0, &m.row(r)[col0..col0 + width]);
        }
        let mut vals = Vec::with_capacity(slots);
        for (col, slot) in chunk.iter_mut().enumerate() {
            vals.clear();
            vals.extend_from_slice(heaps.values(col));
            *slot = top_mean(&mut vals, k);
        }
    });
    out
}

/// Per-column maxima of `m` (NaN-safe: NaN never wins; columns of an
/// empty-row matrix report `NEG_INFINITY`). Streams rows in parallel over
/// column blocks instead of transposing.
pub fn col_maxes(m: &crate::matrix::Matrix) -> Vec<f32> {
    let (rows, cols) = m.shape();
    let mut out = vec![f32::NEG_INFINITY; cols];
    if cols == 0 {
        return out;
    }
    let grain = crate::parallel::Grain::for_item_cost(rows);
    crate::parallel::par_row_chunks_mut_grained(&mut out, 1, grain, |col0, chunk| {
        for r in 0..rows {
            let seg = &m.row(r)[col0..col0 + chunk.len()];
            for (slot, &v) in chunk.iter_mut().zip(seg.iter()) {
                if v > *slot {
                    *slot = v;
                }
            }
        }
    });
    out
}

/// Full argsort of `row` in descending order. Ties keep index order
/// (stable), making results deterministic.
pub fn argsort_desc(row: &[f32]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..row.len()).collect();
    idx.sort_by(|&a, &b| {
        row[b]
            .partial_cmp(&row[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    idx
}

/// Converts a score row into dense ranks: the largest value gets rank 0,
/// the second largest rank 1, etc. (Ties are broken by index, matching
/// `argsort_desc`.) This is the ranking step of the RInf algorithm.
pub fn rank_desc(row: &[f32]) -> Vec<u32> {
    let order = argsort_desc(row);
    let mut ranks = vec![0u32; row.len()];
    for (rank, &i) in order.iter().enumerate() {
        ranks[i] = rank as u32;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_basic_and_edge_cases() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[f32::NAN, 1.0]), Some(1));
        assert_eq!(argmax(&[f32::NAN]), None);
        // First occurrence wins on ties.
        assert_eq!(argmax(&[2.0, 2.0]), Some(0));
    }

    #[test]
    fn top_k_desc_returns_sorted_prefix() {
        let row = [0.1, 0.9, 0.5, 0.7, 0.3];
        assert_eq!(top_k_desc(&row, 3), vec![1, 3, 2]);
        assert_eq!(top_k_desc(&row, 99), vec![1, 3, 2, 4, 0]);
        assert!(top_k_desc(&row, 0).is_empty());
        assert!(top_k_desc(&[], 3).is_empty());
    }

    #[test]
    fn top_k_mean_matches_hand_value() {
        let row = [0.1, 0.9, 0.5, 0.7, 0.3];
        let m = top_k_mean(&row, 2);
        assert!((m - 0.8).abs() < 1e-6);
        assert_eq!(top_k_mean(&[], 2), 0.0);
    }

    #[test]
    fn top_k_mean_equals_sort_based_reference() {
        // The heap-based mean must match the retired argsort-based
        // implementation: mean of the first k entries of the full argsort.
        let row = [0.3, -1.2, 0.9, 0.9, 0.0, 2.5, -0.4];
        for k in 1..=row.len() + 2 {
            let sorted = argsort_desc(&row);
            let take = k.min(row.len());
            let want: f32 =
                sorted[..take].iter().map(|&i| row[i]).sum::<f32>() / take as f32;
            assert!(
                (top_k_mean(&row, k) - want).abs() < 1e-6,
                "k={k}: {} vs {want}",
                top_k_mean(&row, k)
            );
        }
    }

    #[test]
    fn col_top_k_means_match_transposed_row_means() {
        let m = crate::matrix::Matrix::from_fn(7, 5, |r, c| {
            ((r * 13 + c * 7) % 11) as f32 * 0.3 - 1.0
        });
        let t = m.transposed();
        for k in [1usize, 3, 10] {
            let cols = col_top_k_means(&m, k);
            for (j, got) in cols.iter().enumerate() {
                let want = top_k_mean(t.row(j), k);
                assert!((got - want).abs() < 1e-6, "k={k} col {j}");
            }
        }
    }

    #[test]
    fn col_maxes_match_column_scan() {
        let m = crate::matrix::Matrix::from_fn(6, 4, |r, c| ((r * 5 + c * 3) % 13) as f32 - 6.0);
        let maxes = col_maxes(&m);
        for j in 0..4 {
            let want = m.col(j).iter().copied().fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(maxes[j], want);
        }
        // NaN never wins; empty-row matrix reports NEG_INFINITY.
        let with_nan =
            crate::matrix::Matrix::from_vec(2, 1, vec![f32::NAN, 1.0]).unwrap();
        assert_eq!(col_maxes(&with_nan), vec![1.0]);
        let empty = crate::matrix::Matrix::zeros(0, 3);
        assert_eq!(col_maxes(&empty), vec![f32::NEG_INFINITY; 3]);
        assert!(col_maxes(&crate::matrix::Matrix::zeros(3, 0)).is_empty());
        assert!(col_top_k_means(&crate::matrix::Matrix::zeros(3, 0), 2).is_empty());
    }

    #[test]
    fn argsort_desc_is_stable_on_ties() {
        let row = [1.0, 2.0, 2.0, 0.0];
        assert_eq!(argsort_desc(&row), vec![1, 2, 0, 3]);
    }

    #[test]
    fn rank_desc_inverts_argsort() {
        let row = [0.2, 0.8, 0.5];
        let ranks = rank_desc(&row);
        assert_eq!(ranks, vec![2, 0, 1]);
    }

    #[test]
    fn rank_desc_is_a_permutation_of_0_to_n() {
        let row = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut ranks = rank_desc(&row);
        ranks.sort_unstable();
        let want: Vec<u32> = (0..row.len() as u32).collect();
        assert_eq!(ranks, want);
    }
}
