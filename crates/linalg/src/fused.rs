//! Fused streaming similarity -> reduction kernels.
//!
//! The dense pipeline computes `S = A * B^T` in full and only then ranks
//! it; at 100k entities the intermediate alone is tens of gigabytes. The
//! kernels here fuse the two steps: a register-tiled score tile (see
//! [`crate::gemm`]) is computed into a small scratch buffer, immediately
//! reduced into per-row bounded state (a top-k heap or a running argmax),
//! and discarded — peak memory drops from `O(m*n)` to
//! `O(m*k + tile)` while the scores themselves stay bit-identical to the
//! dense kernel (both accumulate depth in the same sequential order).
//!
//! One scan, written once over a [`PackedAny`] right operand at any
//! precision, feeds three reductions:
//! * [`fused_topk_packed`] — per-row top-k `(index, score)` lists;
//! * [`fused_topk_means_packed`] — per-row mean of the top-k scores (the
//!   CSLS neighbourhood statistic phi);
//! * [`fused_argmax_affine_packed`] — per-row argmax of
//!   `scale * s(i,j) + row_off[i] + col_off[j]`, which covers streaming
//!   Greedy (`scale = 1`, no offsets) and the CSLS decision pass
//!   (`scale = 2`, offsets `-phi`).
//!
//! [`fused_topk`], [`fused_topk_means`] and [`fused_argmax_affine`] take
//! the right operand as a matrix: they pack it at f32 and call the packed
//! form. All of them take *embedding* operands and compute dot-product
//! scores; for cosine similarity, L2-normalize the operands first.
//!
//! Telemetry (when enabled): `fused.tiles`, `fused.rows`.

use crate::error::LinalgError;
use crate::gemm::{tile_into, PackedAny, NR};
use crate::matrix::Matrix;
use crate::parallel::{par_row_chunks_mut_grained, Grain};
use crate::quant::Precision;
use crate::Result;
use entmatcher_support::telemetry;

/// Rows of `A` scored per tile pass (bounds the scratch buffer height).
const TILE_ROWS: usize = 16;

/// Cap on tile width in packed strips, so shallow depths cannot inflate
/// the scratch buffer past ~128 KiB.
const MAX_TILE_STRIPS: usize = 256;

/// A bounded top-k accumulator over `(index, value)` pairs.
///
/// Keeps the `k` largest values seen; among equal values, earlier indices
/// win (matching [`crate::rank::argmax`]'s first-occurrence rule). NaN
/// values never enter. Backed by a binary min-heap ordered by
/// `(value asc, index desc)` so the root is always the entry a new value
/// must strictly beat.
#[derive(Debug, Clone)]
pub struct TopKAccumulator {
    k: usize,
    /// Min-heap by `(value, Reverse(index))`.
    heap: Vec<(f32, u32)>,
}

impl Default for TopKAccumulator {
    fn default() -> Self {
        TopKAccumulator::new(0)
    }
}

/// Heap ordering key: value ascending, index descending — the root is the
/// weakest entry, and among equal values the *latest* index sits at the
/// root so it is evicted first (earliest-index retention).
#[inline]
fn weaker(a: (f32, u32), b: (f32, u32)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 > b.1)
}

impl TopKAccumulator {
    /// Creates an accumulator keeping the `k` largest values.
    pub fn new(k: usize) -> Self {
        TopKAccumulator {
            k,
            heap: Vec::with_capacity(k.min(1024)),
        }
    }

    /// Offers one `(index, value)` observation.
    #[inline]
    pub fn push(&mut self, index: u32, value: f32) {
        if self.k == 0 || value.is_nan() {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push((value, index));
            self.sift_up(self.heap.len() - 1);
        } else if weaker(self.heap[0], (value, index)) {
            self.heap[0] = (value, index);
            self.sift_down(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if weaker(self.heap[i], self.heap[parent]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut weakest = i;
            if l < self.heap.len() && weaker(self.heap[l], self.heap[weakest]) {
                weakest = l;
            }
            if r < self.heap.len() && weaker(self.heap[r], self.heap[weakest]) {
                weakest = r;
            }
            if weakest == i {
                return;
            }
            self.heap.swap(i, weakest);
            i = weakest;
        }
    }

    /// Number of retained entries (`<= k`).
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing has been retained.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The retained entries as `(index, value)`, best first (value
    /// descending, ties by index ascending).
    pub fn into_sorted_desc(self) -> Vec<(u32, f32)> {
        let mut out: Vec<(u32, f32)> = self.heap.into_iter().map(|(v, i)| (i, v)).collect();
        out.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        out
    }

    /// Mean of the retained values, summed in canonical (descending)
    /// order so any two accumulators holding the same value multiset
    /// report the same mean. `0.0` when empty, matching
    /// [`crate::rank::top_k_mean`] on empty input.
    pub fn mean(&self) -> f32 {
        if self.heap.is_empty() {
            return 0.0;
        }
        let mut vals: Vec<f32> = self.heap.iter().map(|&(v, _)| v).collect();
        vals.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        vals.iter().sum::<f32>() / vals.len() as f32
    }
}

fn check_dims(op: &'static str, a: &Matrix, packed: &PackedAny) -> Result<()> {
    if a.cols() != packed.d() {
        return Err(LinalgError::DimMismatch {
            op,
            left: a.shape(),
            right: (packed.n(), packed.d()),
        });
    }
    Ok(())
}

/// The one fused scan: streams score tiles of `A * P^T` and hands each
/// one to `visit`: `visit(state, global_row, col0, scores)` is called once
/// per (tile pass, row) with the scored slice for columns
/// `col0..col0+scores.len()`. Columns arrive in ascending order for every
/// row. Quantized payloads dequantize inside the register block, so the
/// scratch tile is the only f32 copy of any score that ever exists.
fn fused_scan<S: Send + Default + Clone>(
    a: &Matrix,
    packed: &PackedAny,
    visit: impl Fn(&mut S, usize, usize, &[f32]) + Sync,
) -> Vec<S> {
    let m = a.rows();
    let mut state = vec![S::default(); m];
    if m == 0 || packed.n() == 0 {
        telemetry::add("fused.rows", m as u64);
        return state;
    }
    let level = crate::simd::clamp_supported(crate::simd::active());
    let strips = packed.strips();
    let pass_strips = packed.panel_strips().min(MAX_TILE_STRIPS);
    let tiles = std::sync::atomic::AtomicU64::new(0);
    let visit = &visit;
    // One state item scans the entire packed operand (n * d work); never
    // split tasks below the streaming tile height.
    let grain =
        Grain::for_item_cost(packed.n().saturating_mul(packed.d().max(1))).at_least(TILE_ROWS);
    par_row_chunks_mut_grained(&mut state, 1, grain, |start_row, states| {
        let rows = states.len();
        let mut scratch = vec![0.0f32; TILE_ROWS * pass_strips * NR];
        let mut local_tiles = 0u64;
        let mut s0 = 0usize;
        while s0 < strips {
            let s1 = (s0 + pass_strips).min(strips);
            let pass_stride = (s1 - s0) * NR;
            let col0 = s0 * NR;
            let mut r0 = 0usize;
            while r0 < rows {
                let height = TILE_ROWS.min(rows - r0);
                let row0 = start_row + r0;
                let (width, t) =
                    tile_into(a, row0..row0 + height, packed, s0..s1, &mut scratch, level);
                local_tiles += t;
                for local in 0..height {
                    let row_scores = &scratch[local * pass_stride..local * pass_stride + width];
                    visit(&mut states[r0 + local], row0 + local, col0, row_scores);
                }
                r0 += height;
            }
            s0 = s1;
        }
        tiles.fetch_add(local_tiles, std::sync::atomic::Ordering::Relaxed);
    });
    telemetry::add("fused.tiles", tiles.into_inner());
    telemetry::add("fused.rows", m as u64);
    state
}

/// Per-row top-`k` accumulators of `A * P^T` (`None` for rows that saw no
/// score), shared by the top-k and top-k-mean reductions.
fn topk_scan(
    op: &'static str,
    a: &Matrix,
    packed: &PackedAny,
    k: usize,
) -> Result<Vec<Option<TopKAccumulator>>> {
    check_dims(op, a, packed)?;
    Ok(fused_scan(
        a,
        packed,
        |st: &mut Option<TopKAccumulator>, _row, col0, scores| {
            let acc = st.get_or_insert_with(|| TopKAccumulator::new(k));
            for (j, &v) in scores.iter().enumerate() {
                acc.push((col0 + j) as u32, v);
            }
        },
    ))
}

/// For each row of `a`, the top-`k` scoring rows of the packed operand as
/// `(index, score)` pairs, best first — without materializing the `m x n`
/// score matrix. Packing is paid once by the caller and amortized over
/// many scans; the scores are bit-identical to the dense product of `a`
/// with the matrix `P` was packed from (its *dequantized* matrix for
/// reduced-precision operands). Scores are raw dot products (normalize
/// for cosine).
pub fn fused_topk_packed(a: &Matrix, packed: &PackedAny, k: usize) -> Result<Vec<Vec<(u32, f32)>>> {
    Ok(topk_scan("fused_topk", a, packed, k)?
        .into_iter()
        .map(|acc| {
            acc.map(TopKAccumulator::into_sorted_desc)
                .unwrap_or_default()
        })
        .collect())
}

/// For each row of `a`, the mean of its top-`k` scores against the packed
/// operand — the CSLS neighbourhood statistic — computed tile-streamed.
/// Equals [`crate::rank::top_k_mean`] over the dense score row.
pub fn fused_topk_means_packed(a: &Matrix, packed: &PackedAny, k: usize) -> Result<Vec<f32>> {
    Ok(topk_scan("fused_topk_means", a, packed, k)?
        .iter()
        .map(|acc| acc.as_ref().map_or(0.0, TopKAccumulator::mean))
        .collect())
}

/// For each row `i` of `a`, the argmax over `j` of
/// `(scale * s(i, j) + row_off[i]) + col_off[j]` against the packed
/// operand (offsets default to zero), streamed without the dense matrix.
/// First occurrence wins ties and NaN never wins, matching
/// [`crate::rank::argmax`]. The evaluation order is fixed so the corrected
/// values are bit-identical to the dense CSLS expression
/// `(2s - phi_u) - phi_v` when called with negated phis.
pub fn fused_argmax_affine_packed(
    a: &Matrix,
    packed: &PackedAny,
    scale: f32,
    row_off: Option<&[f32]>,
    col_off: Option<&[f32]>,
) -> Result<Vec<Option<u32>>> {
    check_dims("fused_argmax_affine", a, packed)?;
    if let Some(off) = row_off {
        assert_eq!(off.len(), a.rows(), "row offset length mismatch");
    }
    if let Some(off) = col_off {
        assert_eq!(off.len(), packed.n(), "col offset length mismatch");
    }
    #[derive(Clone)]
    struct Best(Option<u32>, f32);
    impl Default for Best {
        fn default() -> Self {
            Best(None, f32::NEG_INFINITY)
        }
    }
    let state = fused_scan::<Best>(a, packed, |best, row, col0, scores| {
        let ro = row_off.map_or(0.0, |off| off[row]);
        for (j, &s) in scores.iter().enumerate() {
            let col = col0 + j;
            let mut v = scale * s + ro;
            if let Some(off) = col_off {
                v += off[col];
            }
            if v > best.1 {
                *best = Best(Some(col as u32), v);
            }
        }
    });
    Ok(state.into_iter().map(|b| b.0).collect())
}

/// [`fused_topk_packed`] against `b` packed at f32.
pub fn fused_topk(a: &Matrix, b: &Matrix, k: usize) -> Result<Vec<Vec<(u32, f32)>>> {
    fused_topk_packed(a, &PackedAny::pack(b, Precision::F32), k)
}

/// [`fused_topk_means_packed`] against `b` packed at f32.
pub fn fused_topk_means(a: &Matrix, b: &Matrix, k: usize) -> Result<Vec<f32>> {
    fused_topk_means_packed(a, &PackedAny::pack(b, Precision::F32), k)
}

/// [`fused_argmax_affine_packed`] against `b` packed at f32.
pub fn fused_argmax_affine(
    a: &Matrix,
    b: &Matrix,
    scale: f32,
    row_off: Option<&[f32]>,
    col_off: Option<&[f32]>,
) -> Result<Vec<Option<u32>>> {
    fused_argmax_affine_packed(
        a,
        &PackedAny::pack(b, Precision::F32),
        scale,
        row_off,
        col_off,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul_naive;
    use crate::rank::{argmax, top_k_desc, top_k_mean};

    fn seq_matrix(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            (((r * 13 + c * 29 + salt * 3) % 19) as f32 - 9.0) * 0.5
        })
    }

    #[test]
    fn accumulator_keeps_k_largest_with_stable_ties() {
        let mut acc = TopKAccumulator::new(3);
        for (i, v) in [0.5, 0.9, 0.5, 0.1, 0.9, 0.7].iter().enumerate() {
            acc.push(i as u32, *v);
        }
        // Top-3 values: 0.9 (idx 1), 0.9 (idx 4), 0.7 (idx 5); the tie at
        // 0.5 never enters, and among the 0.9s the earlier index leads.
        assert_eq!(acc.clone().into_sorted_desc(), vec![(1, 0.9), (4, 0.9), (5, 0.7)]);
        assert!((acc.mean() - (0.9 + 0.9 + 0.7) / 3.0).abs() < 1e-6);
    }

    #[test]
    fn accumulator_ignores_nan_and_k_zero() {
        let mut acc = TopKAccumulator::new(2);
        acc.push(0, f32::NAN);
        assert!(acc.is_empty());
        assert_eq!(acc.mean(), 0.0);
        let mut none = TopKAccumulator::new(0);
        none.push(0, 1.0);
        assert!(none.is_empty());
    }

    #[test]
    fn fused_topk_matches_dense_selection() {
        let a = seq_matrix(23, 7, 1);
        let b = seq_matrix(41, 7, 2);
        let dense = matmul_naive(&a, &b).unwrap();
        let fused = fused_topk(&a, &b, 5).unwrap();
        for i in 0..a.rows() {
            let want = top_k_desc(dense.row(i), 5);
            let got: Vec<usize> = fused[i].iter().map(|&(j, _)| j as usize).collect();
            // Value sequences must agree exactly (indices can differ only
            // under exact value ties).
            assert_eq!(got.len(), want.len());
            for (g, w) in fused[i].iter().zip(want.iter()) {
                assert_eq!(g.1, dense.get(i, *w), "row {i}");
            }
            // And fused scores are the dense scores at the picked columns.
            for &(j, v) in &fused[i] {
                assert_eq!(v, dense.get(i, j as usize));
            }
        }
    }

    #[test]
    fn fused_topk_packed_matches_unpacked() {
        let a = seq_matrix(14, 7, 11);
        let b = seq_matrix(37, 7, 12);
        let packed = PackedAny::pack(&b, Precision::F32);
        for k in [1usize, 4, 50] {
            assert_eq!(
                fused_topk_packed(&a, &packed, k).unwrap(),
                fused_topk(&a, &b, k).unwrap(),
                "k={k}"
            );
        }
        // Degenerate shapes and dim mismatch behave like the unpacked API.
        let empty = PackedAny::pack(&Matrix::zeros(0, 7), Precision::F32);
        assert_eq!(fused_topk_packed(&a, &empty, 3).unwrap(), vec![vec![]; 14]);
        let wrong = PackedAny::pack(&Matrix::zeros(4, 9), Precision::F32);
        assert!(fused_topk_packed(&a, &wrong, 3).is_err());
    }

    #[test]
    fn fused_means_match_dense_top_k_mean() {
        let a = seq_matrix(17, 9, 3);
        let b = seq_matrix(30, 9, 4);
        let dense = matmul_naive(&a, &b).unwrap();
        for k in [1usize, 3, 10, 100] {
            let fused = fused_topk_means(&a, &b, k).unwrap();
            for i in 0..a.rows() {
                let want = top_k_mean(dense.row(i), k);
                assert!(
                    (fused[i] - want).abs() < 1e-5,
                    "k={k} row {i}: {} vs {want}",
                    fused[i]
                );
            }
        }
    }

    #[test]
    fn fused_argmax_matches_dense_greedy() {
        let a = seq_matrix(19, 6, 5);
        let b = seq_matrix(27, 6, 6);
        let dense = matmul_naive(&a, &b).unwrap();
        let fused = fused_argmax_affine(&a, &b, 1.0, None, None).unwrap();
        for i in 0..a.rows() {
            assert_eq!(fused[i].map(|j| j as usize), argmax(dense.row(i)), "row {i}");
        }
    }

    #[test]
    fn fused_argmax_applies_column_offsets() {
        let a = seq_matrix(8, 5, 7);
        let b = seq_matrix(12, 5, 8);
        let dense = matmul_naive(&a, &b).unwrap();
        let col_off: Vec<f32> = (0..12).map(|j| (j as f32) * -0.35).collect();
        let fused = fused_argmax_affine(&a, &b, 2.0, None, Some(&col_off)).unwrap();
        for i in 0..a.rows() {
            let corrected: Vec<f32> = dense
                .row(i)
                .iter()
                .enumerate()
                .map(|(j, &s)| 2.0 * s + col_off[j])
                .collect();
            assert_eq!(fused[i].map(|j| j as usize), argmax(&corrected), "row {i}");
        }
    }

    #[test]
    fn empty_operands_degrade_gracefully() {
        let a = seq_matrix(4, 3, 9);
        let empty = Matrix::zeros(0, 3);
        assert_eq!(fused_topk(&a, &empty, 3).unwrap(), vec![vec![]; 4]);
        assert_eq!(fused_topk_means(&a, &empty, 3).unwrap(), vec![0.0; 4]);
        assert_eq!(
            fused_argmax_affine(&a, &empty, 1.0, None, None).unwrap(),
            vec![None; 4]
        );
        let no_rows = Matrix::zeros(0, 3);
        assert!(fused_topk(&no_rows, &a, 3).unwrap().is_empty());
    }

    #[test]
    fn dim_mismatch_is_an_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        assert!(fused_topk(&a, &b, 1).is_err());
        assert!(fused_topk_means(&a, &b, 1).is_err());
        assert!(fused_argmax_affine(&a, &b, 1.0, None, None).is_err());
    }
}
