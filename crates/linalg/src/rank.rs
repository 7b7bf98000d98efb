//! Selection and ranking primitives: argmax, top-k, argsort, dense ranks.
//!
//! These back the matching algorithms directly: Greedy needs per-row argmax,
//! CSLS needs per-row top-k means, RInf needs full per-row rankings, and
//! Gale–Shapley needs sorted preference lists.
//!
//! Every sort here orders by one total descending key ([`cmp_desc`]): `+0`
//! and `−0` are equal, NaN sorts after `−∞`, and on NaN-free values it
//! agrees with `partial_cmp`. Argsorts and ranks are stable (ties keep
//! index order) and run on `(key, index)` items packed into one `u64`
//! ([`sort_item`]): rows of 512 or more by an 8-bit LSD radix sort over
//! the key bytes that skips constant bytes, shorter rows by
//! `sort_unstable` (the packed items are distinct, so it is stable in
//! effect). Callers that rank many rows build the items themselves and
//! sort them with [`sort_items`] into their own buffers.

use std::cmp::Ordering;

/// Rows at least this long are sorted by radix; shorter ones by
/// `sort_unstable`. Measured on 1575 rows of RREA cosine preferences on
/// a 2-vCPU Xeon: at length 512 radix took 11.9 ms and `sort_unstable`
/// 14.6 ms; at length 64, 2.0 ms against 1.1 ms; they cross near 256.
const RADIX_MIN_LEN: usize = 512;

/// Total descending sort key of `v`: ascending keys list values from
/// largest to smallest. `+0` and `−0` share a key, every NaN gets
/// `u32::MAX` (after `−∞`), and for NaN-free `a`, `b` the keys compare
/// as `b.partial_cmp(&a)` does.
#[inline]
pub(crate) fn desc_key(v: f32) -> u32 {
    if v.is_nan() {
        return u32::MAX;
    }
    // `v + 0.0` turns −0 into +0 and leaves every other value as it is.
    let bits = (v + 0.0).to_bits();
    // Negative values keep their bits (larger magnitude, larger key);
    // non-negative ones map to `0x7FFF_FFFF − bits`, all below them.
    let negative = ((bits as i32) >> 31) as u32;
    bits ^ (!negative & 0x7FFF_FFFF)
}

/// Total descending comparator: `Less` when `a` sorts before `b`. `+0`
/// and `−0` are equal, NaN sorts after `−∞`, and wherever neither is NaN
/// it equals `b.partial_cmp(&a)`: the order of the packed sort keys.
#[inline]
pub fn cmp_desc(a: f32, b: f32) -> Ordering {
    // `partial_cmp` itself on the hot path; only a NaN falls through.
    b.partial_cmp(&a)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// Packs `v`'s [`cmp_desc`] key and `index` into one item whose ascending
/// order is the stable descending order of the values.
#[inline]
pub fn sort_item(v: f32, index: usize) -> u64 {
    (u64::from(desc_key(v)) << 32) | index as u64
}

/// Index packed into an item by [`sort_item`].
#[inline]
pub fn item_index(item: u64) -> usize {
    item as u32 as usize
}

/// Sorts items built by [`sort_item`] ascending and returns whichever of
/// `items` and `spare` (at least as long) holds the result.
///
/// The radix path moves only the key bytes and is stable, so `items` must
/// arrive in ascending index order, as a row's items built in order do.
pub fn sort_items<'a>(items: &'a mut [u64], spare: &'a mut [u64]) -> &'a [u64] {
    let n = items.len();
    assert!(
        n <= u32::MAX as usize,
        "a row of {n} entries does not fit u32 indices"
    );
    if n < RADIX_MIN_LEN {
        items.sort_unstable();
        return items;
    }
    debug_assert!(items
        .windows(2)
        .all(|w| item_index(w[0]) < item_index(w[1])));
    let mut counts = [[0u32; 256]; 4];
    for &item in items.iter() {
        let key = (item >> 32) as u32;
        for (digit, count) in counts.iter_mut().enumerate() {
            count[(key >> (8 * digit)) as usize & 0xFF] += 1;
        }
    }
    let (mut src, mut dst) = (items, &mut spare[..n]);
    for (digit, count) in counts.iter().enumerate() {
        // A byte every key shares would move nothing.
        if count.iter().any(|&c| c as usize == n) {
            continue;
        }
        let mut next = [0u32; 256];
        let mut sum = 0;
        for (slot, &c) in next.iter_mut().zip(count) {
            *slot = sum;
            sum += c;
        }
        let shift = 32 + 8 * digit;
        for &item in src.iter() {
            let byte = (item >> shift) as usize & 0xFF;
            dst[next[byte] as usize] = item;
            next[byte] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

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
/// value order ([`cmp_desc`]: NaN last). If `k >= row.len()` the full
/// descending argsort is returned. The result holds `k` slots, not `n`.
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
    idx.select_nth_unstable_by(k - 1, |&a, &b| cmp_desc(row[a], row[b]));
    let top = &mut idx[..k];
    top.sort_unstable_by(|&a, &b| cmp_desc(row[a], row[b]));
    top.to_vec()
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

/// Full argsort of `row` in descending order ([`cmp_desc`]: NaN last).
/// Ties keep index order (stable), making results deterministic.
pub fn argsort_desc(row: &[f32]) -> Vec<usize> {
    with_sorted_items(row, |sorted| {
        sorted.iter().map(|&item| item_index(item)).collect()
    })
}

/// Converts a score row into dense ranks: the largest value gets rank 0,
/// the second largest rank 1, etc. (Ties are broken by index, matching
/// `argsort_desc`.) This is the ranking step of the RInf algorithm.
pub fn rank_desc(row: &[f32]) -> Vec<u32> {
    with_sorted_items(row, |sorted| {
        let mut ranks = vec![0u32; sorted.len()];
        for (rank, &item) in sorted.iter().enumerate() {
            ranks[item_index(item)] = rank as u32;
        }
        ranks
    })
}

/// Calls `f` with `row`'s items in stable descending value order.
fn with_sorted_items<R>(row: &[f32], f: impl FnOnce(&[u64]) -> R) -> R {
    let mut items: Vec<u64> = row
        .iter()
        .enumerate()
        .map(|(i, &v)| sort_item(v, i))
        .collect();
    let mut spare = vec![0u64; row.len()];
    f(sort_items(&mut items, &mut spare))
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
        assert_eq!(maxes.len(), 4);
        for (j, &got) in maxes.iter().enumerate() {
            let want = m.col(j).iter().copied().fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(got, want);
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

    /// The comparison argsort the kernel replaces, on the total
    /// comparator: a stable `sort_by` over indices.
    fn argsort_by_cmp(row: &[f32]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..row.len()).collect();
        idx.sort_by(|&a, &b| cmp_desc(row[a], row[b]));
        idx
    }

    /// A row of `n` values drawn from a small pool (so exact ties are
    /// common) mixed with ±0, ±∞, subnormals, NaN and continuous values.
    fn awkward_row(rng: &mut entmatcher_support::rng::StdRng, n: usize) -> Vec<f32> {
        use entmatcher_support::rng::Rng;
        let pool = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MIN_POSITIVE / 8.0,
            -f32::MIN_POSITIVE / 8.0,
            f32::from_bits(1),
            f32::MAX,
            f32::MIN,
            0.25,
            -0.25,
            1.0,
        ];
        (0..n)
            .map(|_| match rng.gen_range(0..4u32) {
                0 => pool[rng.gen_range(0..pool.len())],
                1 => rng.gen_range(0..5u32) as f32 * 0.25 - 0.5,
                _ => rng.gen::<f32>() * 2.0 - 1.0,
            })
            .collect()
    }

    #[test]
    fn desc_key_orders_like_partial_cmp_and_totally() {
        let vals = [
            f32::INFINITY,
            f32::MAX,
            1.0,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            0.0,
            -0.0,
            -f32::from_bits(1),
            -1.0,
            f32::MIN,
            f32::NEG_INFINITY,
        ];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(cmp_desc(a, b), b.partial_cmp(&a).unwrap(), "{a} vs {b}");
                assert_eq!(cmp_desc(a, b), desc_key(a).cmp(&desc_key(b)), "{a} vs {b}");
            }
            assert_eq!(cmp_desc(a, f32::NAN), Ordering::Less, "{a} before NaN");
            assert_eq!(cmp_desc(f32::NAN, a), Ordering::Greater, "NaN after {a}");
        }
        assert_eq!(cmp_desc(f32::NAN, -f32::NAN), Ordering::Equal);
        assert_eq!(desc_key(0.0), desc_key(-0.0));
        assert_eq!(desc_key(f32::NAN), desc_key(-f32::NAN));
        assert_eq!(desc_key(f32::NAN), u32::MAX);
    }

    #[test]
    fn kernel_equals_comparison_argsort_on_both_sides_of_the_cutoff() {
        use entmatcher_support::rng::SeedableRng;
        let mut rng = entmatcher_support::rng::StdRng::seed_from_u64(17);
        for n in 0..=700usize {
            let row = awkward_row(&mut rng, n);
            let want = argsort_by_cmp(&row);
            assert_eq!(argsort_desc(&row), want, "n={n}");
            let ranks = rank_desc(&row);
            for (rank, &i) in want.iter().enumerate() {
                assert_eq!(ranks[i] as usize, rank, "n={n} index {i}");
            }
        }
    }

    #[test]
    fn radix_skips_shared_bytes_and_handles_one_value() {
        // Every key equal: all four bytes are skipped, index order stays.
        let row = vec![0.5f32; RADIX_MIN_LEN + 3];
        assert_eq!(argsort_desc(&row), (0..row.len()).collect::<Vec<_>>());
        // Keys differing only in the low byte: one scatter pass, so the
        // result sits in the spare buffer.
        let row: Vec<f32> = (0..RADIX_MIN_LEN as u32 + 9)
            .map(|i| f32::from_bits(0x3F80_0000 + (i * 7) % 200))
            .collect();
        assert_eq!(argsort_desc(&row), argsort_by_cmp(&row));
    }

    #[test]
    fn top_k_desc_survives_nan_rows_and_keeps_k_slots() {
        use entmatcher_support::rng::{Rng, SeedableRng};
        let mut rng = entmatcher_support::rng::StdRng::seed_from_u64(23);
        for _ in 0..300 {
            let n = rng.gen_range(1..200usize);
            let row: Vec<f32> = (0..n)
                .map(|_| {
                    if rng.gen::<f32>() < 0.1 {
                        f32::NAN
                    } else {
                        rng.gen::<f32>()
                    }
                })
                .collect();
            let k = rng.gen_range(1..=n);
            let top = top_k_desc(&row, k);
            assert_eq!(top.len(), k);
            if k < n {
                assert_eq!(top.capacity(), k);
            }
            // The k largest in the total order, in order.
            let want = argsort_by_cmp(&row);
            let got_keys: Vec<u32> = top.iter().map(|&i| desc_key(row[i])).collect();
            let want_keys: Vec<u32> = want[..k].iter().map(|&i| desc_key(row[i])).collect();
            assert_eq!(got_keys, want_keys);
        }
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
