//! Reciprocal embedding matching (RInf), paper Algorithm 5, plus its
//! scalability variants RInf-wr and RInf-pb.
//!
//! RInf models EA as reciprocal recommendation: the preference of `u`
//! towards `v` is `u`'s score corrected by `v`'s best alternative,
//!
//! `p(u, v) = S(u, v) - max_{u'} S(u', v) + 1`,
//!
//! and symmetrically for the target side. Both preference matrices are
//! converted to per-row *rankings* and averaged; Greedy then runs on the
//! negated average rank (lower rank = better).
//!
//! Full RInf holds one auxiliary `n_t × n_s` `u32` rank matrix. Its first
//! phase ranks every target's sources, gathering [`BLOCK`] columns of S
//! per pass; its second ranks each source row in place and overwrites the
//! row with the negated mean rank. Ranks come from
//! `entmatcher_linalg::rank`'s stable kernel, so the scores equal the
//! four-matrix form (transposed S, two rank matrices and a transposed
//! rank matrix) bit for bit. RInf-wr and RInf-pb rewrite S in place
//! too, so no variant allocates a second score matrix for its output. A
//! NaN score stays NaN in every variant: a missing edge, which Greedy
//! never picks, as in Hungarian.

use super::ScoreOptimizer;
use entmatcher_linalg::parallel::{
    par_map_rows_grained, par_row_chunks_mut, par_row_chunks_mut_grained, Grain,
};
use entmatcher_linalg::rank::{col_maxes, item_index, sort_item, sort_items, top_k_desc};
use entmatcher_linalg::Matrix;
use entmatcher_support::telemetry;

/// Columns full RInf's first phase gathers per pass, and rows its second
/// phase combines per pass.
const BLOCK: usize = 8;

/// Full reciprocal optimizer. `ranking = false` yields the RInf-wr
/// ("without ranking") variant, which averages the raw preference scores
/// instead — cheaper, slightly less accurate (paper Table 6).
#[derive(Debug, Clone, Copy)]
pub struct RInf {
    /// Whether to apply the ranking conversion (true = full RInf).
    pub ranking: bool,
}

impl Default for RInf {
    fn default() -> Self {
        RInf { ranking: true }
    }
}

impl RInf {
    /// The RInf-wr variant.
    pub fn without_ranking() -> Self {
        RInf { ranking: false }
    }
}

impl ScoreOptimizer for RInf {
    fn name(&self) -> &'static str {
        if self.ranking {
            "RInf"
        } else {
            "RInf-wr"
        }
    }

    fn apply(&self, scores: Matrix) -> Matrix {
        let (n_s, n_t) = scores.shape();
        if n_s == 0 || n_t == 0 {
            return scores;
        }
        // Row maxima (best source per target uses column maxima; best
        // target per source uses row maxima). The column maxima stream the
        // matrix over column blocks — no transposed copy just for maxima.
        let row_max: Vec<f32> = par_map_rows_grained(n_s, Grain::for_item_cost(n_t), |i| {
            scores
                .row(i)
                .iter()
                .copied()
                .fold(f32::NEG_INFINITY, f32::max)
        });
        let col_max: Vec<f32> = col_maxes(&scores);

        if self.ranking {
            let out = reciprocal_ranks(scores, &row_max, &col_max);
            telemetry::add("rinf.rounds", 1);
            telemetry::add("rinf.rows_ranked", (n_s + n_t) as u64);
            return out;
        }
        // RInf-wr: average the raw preferences directly, in place.
        // P_{s,t}(u,v) = S(u,v) - col_max[v] + 1  (preference of u for v)
        // P_{t,s}(v,u) = S(u,v) - row_max[u] + 1  (preference of v for u)
        let mut out = scores;
        par_row_chunks_mut(out.as_mut_slice(), n_t, |start, chunk| {
            for (local, row) in chunk.chunks_exact_mut(n_t).enumerate() {
                let m = row_max[start + local];
                for (x, &c) in row.iter_mut().zip(&col_max) {
                    let p_st = *x - c + 1.0;
                    let p_ts = *x - m + 1.0;
                    *x = (p_st + p_ts) / 2.0;
                }
            }
        });
        telemetry::add("rinf.rounds", 1);
        out
    }

    fn aux_bytes(&self, n_s: usize, n_t: usize) -> usize {
        // Max vectors only — the wr variant does not transpose.
        let vectors = (n_s + n_t) * 4;
        if self.ranking {
            // The target-side rank matrix (the output reuses S), plus one
            // pass's items: BLOCK gathered columns and a spare column in
            // phase one, a row and its spare in phase two.
            let items = ((BLOCK + 1) * n_s).max(2 * n_t) * 8;
            n_s * n_t * 4 + vectors + items
        } else {
            vectors
        }
    }
}

/// Full RInf's two phases over `scores`, which become the output:
/// `-(R_st(u,v) + R_ts(v,u)) / 2`, where `R_st` ranks row `u` on
/// `S(u,v) − col_max[v]` and `R_ts` ranks column `v` on
/// `S(u,v) − row_max[u]`, each descending with ties by index.
fn reciprocal_ranks(mut scores: Matrix, row_max: &[f32], col_max: &[f32]) -> Matrix {
    let (n_s, n_t) = scores.shape();
    // Phase one: rank_ts[v·n_s + u] = R_ts(v, u), BLOCK targets at a
    // time, so each gather reads BLOCK adjacent cells of a source row.
    let mut rank_ts = vec![0u32; n_t * n_s];
    let s = &scores;
    par_row_chunks_mut_grained(&mut rank_ts, n_s, block_grain(n_s), |v0, chunk| {
        let mut items = vec![0u64; BLOCK * n_s];
        let mut spare = vec![0u64; n_s];
        for (b, block) in chunk.chunks_mut(BLOCK * n_s).enumerate() {
            let c0 = v0 + b * BLOCK;
            let width = block.len() / n_s;
            for (u, &m) in row_max.iter().enumerate() {
                for (j, &x) in s.row(u)[c0..c0 + width].iter().enumerate() {
                    items[j * n_s + u] = sort_item(x - m, u);
                }
            }
            for (column, ranks) in items.chunks_exact_mut(n_s).zip(block.chunks_exact_mut(n_s)) {
                for (rank, &item) in sort_items(column, &mut spare).iter().enumerate() {
                    ranks[item_index(item)] = rank as u32;
                }
            }
        }
    });
    // Phase two: rank BLOCK source rows in place on their own values,
    // then add R_ts, reading BLOCK adjacent ranks of each target. A NaN
    // cell stays NaN through both steps.
    let rank_ts = &rank_ts;
    par_row_chunks_mut_grained(scores.as_mut_slice(), n_t, block_grain(n_t), |u0, chunk| {
        let mut items = Vec::with_capacity(n_t);
        let mut spare = vec![0u64; n_t];
        for (b, block) in chunk.chunks_mut(BLOCK * n_t).enumerate() {
            for row in block.chunks_exact_mut(n_t) {
                items.clear();
                items.extend(
                    row.iter()
                        .zip(col_max)
                        .enumerate()
                        .map(|(v, (&x, &m))| sort_item(x - m, v)),
                );
                for (rank, &item) in sort_items(&mut items, &mut spare).iter().enumerate() {
                    let x = &mut row[item_index(item)];
                    if !x.is_nan() {
                        *x = rank as f32;
                    }
                }
            }
            let r0 = u0 + b * BLOCK;
            let height = block.len() / n_t;
            for (v, ranks) in rank_ts.chunks_exact(n_s).enumerate() {
                for (i, &r) in ranks[r0..r0 + height].iter().enumerate() {
                    let x = &mut block[i * n_t + v];
                    *x = -(*x + r as f32) / 2.0;
                }
            }
        }
    });
    scores
}

/// Tasks of whole BLOCK groups of rows `width` wide.
fn block_grain(width: usize) -> Grain {
    Grain::rows(
        Grain::for_item_cost(width)
            .items_per_task
            .next_multiple_of(BLOCK),
    )
}

/// RInf-pb: progressive blocking variant. For each source entity only a
/// shortlist of the `block` most similar targets enters the reciprocal
/// ranking; everything else keeps a sentinel low score. This bounds the
/// ranking workload to `O(n * block lg block)` and the extra memory to
/// `O(n * block)`, trading a small accuracy drop — the paper's Table 6
/// shows exactly that profile.
#[derive(Debug, Clone, Copy)]
pub struct RInfProgressive {
    /// Shortlist size per source entity.
    pub block: usize,
}

impl Default for RInfProgressive {
    fn default() -> Self {
        RInfProgressive { block: 64 }
    }
}

impl ScoreOptimizer for RInfProgressive {
    fn name(&self) -> &'static str {
        "RInf-pb"
    }

    fn apply(&self, scores: Matrix) -> Matrix {
        assert!(self.block >= 1, "block size must be >= 1");
        let (n_s, n_t) = scores.shape();
        if n_s == 0 || n_t == 0 {
            return scores;
        }
        let row_max: Vec<f32> = par_map_rows_grained(n_s, Grain::for_item_cost(n_t), |i| {
            scores
                .row(i)
                .iter()
                .copied()
                .fold(f32::NEG_INFINITY, f32::max)
        });
        let col_max: Vec<f32> = col_maxes(&scores);

        // Out-of-shortlist sentinel: worse than any shortlist rank.
        let sentinel = -(self.block as f32 + n_t as f32);
        let mut out = scores;
        let row_max_ref = &row_max;
        let col_max_ref = &col_max;
        let block = self.block;
        // Each row is read for its shortlist, then overwritten in place.
        par_row_chunks_mut(out.as_mut_slice(), n_t, |start, chunk| {
            for (local, row) in chunk.chunks_exact_mut(n_t).enumerate() {
                let i = start + local;
                let shortlist = top_k_desc(row, block);
                // Reciprocal preference restricted to the shortlist.
                let prefs: Vec<f32> = shortlist
                    .iter()
                    .map(|&v| {
                        let p_st = row[v] - col_max_ref[v];
                        let p_ts = row[v] - row_max_ref[i];
                        p_st + p_ts
                    })
                    .collect();
                for x in row.iter_mut() {
                    if !x.is_nan() {
                        *x = sentinel;
                    }
                }
                for (rank, idx) in entmatcher_linalg::argsort_desc(&prefs)
                    .into_iter()
                    .enumerate()
                {
                    let x = &mut row[shortlist[idx]];
                    if !x.is_nan() {
                        *x = -(rank as f32);
                    }
                }
            }
        });
        telemetry::add("rinf.rounds", 1);
        telemetry::add("rinf.shortlisted", (n_s * block.min(n_t)) as u64);
        out
    }

    fn aux_bytes(&self, n_s: usize, n_t: usize) -> usize {
        // Per-row shortlists and max vectors; the transposed copy is gone
        // (column maxima stream the matrix in place).
        n_s * self.block * 8 + (n_s + n_t) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entmatcher_linalg::argmax;
    use entmatcher_linalg::rank::cmp_desc;
    use entmatcher_support::rng::{Rng, SeedableRng, StdRng};

    /// A matrix where greedy-on-raw makes a reciprocal mistake: target 0
    /// prefers source 0 strongly, so source 1 should back off to target 1.
    fn contested() -> Matrix {
        Matrix::from_vec(2, 2, vec![0.95, 0.30, 0.90, 0.85]).unwrap()
    }

    #[test]
    fn rinf_resolves_contested_target() {
        let s = contested();
        // Raw greedy: source 1 picks target 0 (0.90 > 0.85).
        assert_eq!(argmax(s.row(1)), Some(0));
        let out = RInf::default().apply(s);
        assert_eq!(argmax(out.row(0)), Some(0));
        assert_eq!(
            argmax(out.row(1)),
            Some(1),
            "reciprocal ranks should divert source 1"
        );
    }

    #[test]
    fn ranking_amplifies_what_wr_averaging_loses() {
        // The paper's §4.5 observation in miniature: on the contested
        // instance, RInf-wr's raw-preference average produces an exact tie
        // for source 1 (the bidirectional aggregation cancels out), while
        // the ranking conversion preserves the distinction and resolves it.
        let s = contested();
        let raw = RInf::without_ranking().apply(s.clone());
        assert_eq!(
            raw.get(1, 0),
            raw.get(1, 1),
            "wr variant ties on this instance"
        );
        let ranked = RInf::default().apply(s);
        assert_eq!(argmax(ranked.row(1)), Some(1));
        assert!(ranked.get(1, 1) > ranked.get(1, 0));
    }

    #[test]
    fn rinf_scores_are_negated_ranks() {
        let s = Matrix::from_fn(3, 3, |r, c| ((r * 7 + c * 3) % 5) as f32 * 0.1);
        let out = RInf::default().apply(s);
        for i in 0..3 {
            for j in 0..3 {
                let v = -out.get(i, j);
                // Average of two integer ranks: a multiple of 0.5 in range.
                assert!((0.0..=2.0).contains(&v) && (v * 2.0).fract() == 0.0);
            }
        }
    }

    #[test]
    fn progressive_matches_full_on_easy_instances() {
        // Well-separated diagonal: shortlist covers the true match, so pb
        // and full RInf agree on decisions.
        let n = 12;
        let s = Matrix::from_fn(n, n, |r, c| if r == c { 0.9 } else { 0.1 });
        let full = RInf::default().apply(s.clone());
        let pb = RInfProgressive { block: 4 }.apply(s);
        for i in 0..n {
            assert_eq!(argmax(full.row(i)), argmax(pb.row(i)));
        }
    }

    #[test]
    fn progressive_sentinel_excludes_out_of_shortlist() {
        let s = Matrix::from_fn(4, 8, |_, c| 1.0 - 0.1 * c as f32);
        let pb = RInfProgressive { block: 2 }.apply(s);
        // Columns beyond the shortlist share the sentinel (strictly lower
        // than every shortlist score).
        for i in 0..4 {
            let row = pb.row(i);
            let best = argmax(row).unwrap();
            assert!(best < 2);
            assert!(row[7] < row[best]);
        }
    }

    #[test]
    fn empty_passthrough() {
        assert!(RInf::default().apply(Matrix::zeros(0, 0)).is_empty());
        assert!(RInfProgressive::default()
            .apply(Matrix::zeros(0, 0))
            .is_empty());
    }

    #[test]
    fn rinf_aux_memory_exceeds_wr_variant() {
        let full = RInf::default().aux_bytes(1000, 1000);
        let wr = RInf::without_ranking().aux_bytes(1000, 1000);
        let pb = RInfProgressive::default().aux_bytes(1000, 1000);
        assert!(full > wr, "ranking must cost more memory");
        assert!(full > pb);
        // One rank matrix, not four: under two score-matrix cells.
        assert!(full < 2 * 1000 * 1000 * 4);
    }

    /// Ranks of `pref` by a stable comparison sort on the total
    /// comparator: the ranking the kernel replaced.
    fn ranks_by_cmp(pref: &[f32]) -> Vec<f32> {
        let mut order: Vec<usize> = (0..pref.len()).collect();
        order.sort_by(|&a, &b| cmp_desc(pref[a], pref[b]));
        let mut ranks = vec![0.0f32; pref.len()];
        for (rank, &i) in order.iter().enumerate() {
            ranks[i] = rank as f32;
        }
        ranks
    }

    /// Full RInf in its four-matrix form: transposed S, the two rank
    /// matrices and the transposed target-side rank matrix, combined in
    /// the same operation order; NaN cells of S are written NaN.
    fn four_matrix_oracle(scores: &Matrix) -> Matrix {
        let (n_s, n_t) = scores.shape();
        let row_max: Vec<f32> = (0..n_s)
            .map(|i| {
                scores
                    .row(i)
                    .iter()
                    .copied()
                    .fold(f32::NEG_INFINITY, f32::max)
            })
            .collect();
        let col_max = col_maxes(scores);
        let transposed = scores.transposed();
        let mut rank_st = Matrix::zeros(n_s, n_t);
        for u in 0..n_s {
            let pref: Vec<f32> = (0..n_t).map(|v| scores.get(u, v) - col_max[v]).collect();
            rank_st.row_mut(u).copy_from_slice(&ranks_by_cmp(&pref));
        }
        let mut rank_ts = Matrix::zeros(n_t, n_s);
        for v in 0..n_t {
            let pref: Vec<f32> = (0..n_s)
                .map(|u| transposed.get(v, u) - row_max[u])
                .collect();
            rank_ts.row_mut(v).copy_from_slice(&ranks_by_cmp(&pref));
        }
        let rank_ts_t = rank_ts.transposed();
        Matrix::from_fn(n_s, n_t, |u, v| {
            if scores.get(u, v).is_nan() {
                f32::NAN
            } else {
                -(rank_st.get(u, v) + rank_ts_t.get(u, v)) / 2.0
            }
        })
    }

    fn assert_bitwise_eq(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}");
        for (cell, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                "{what}: cell {cell}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn two_buffer_rinf_equals_the_four_matrix_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut shapes = vec![
            (1, 1),
            (1, 9),
            (9, 1),
            (1, 700),
            (700, 1),
            (7, 7),
            (13, 40),
            (40, 13),
            (520, 530),
            (600, 24),
            (24, 600),
        ];
        shapes.extend((0..12).map(|_| (rng.gen_range(1..80usize), rng.gen_range(1..80usize))));
        for (n_s, n_t) in shapes {
            let random = Matrix::from_fn(n_s, n_t, |_, _| rng.gen::<f32>() * 2.0 - 1.0);
            // Quarter steps: exact ties in every row and column.
            let grid = Matrix::from_fn(n_s, n_t, |_, _| rng.gen_range(0..5u32) as f32 * 0.25);
            // NaN cells and one NaN row: missing edges.
            let broken_row = rng.gen_range(0..n_s);
            let holes = Matrix::from_fn(n_s, n_t, |r, _| {
                if r == broken_row || rng.gen::<f32>() < 0.05 {
                    f32::NAN
                } else {
                    rng.gen_range(0..9u32) as f32 * 0.125
                }
            });
            for (name, s) in [("random", random), ("tie grid", grid), ("NaN holes", holes)] {
                let want = four_matrix_oracle(&s);
                let got = RInf::default().apply(s);
                assert_bitwise_eq(&got, &want, &format!("{name} {n_s}x{n_t}"));
            }
        }
    }

    #[test]
    fn progressive_writes_nan_where_scores_are_nan() {
        let mut s = Matrix::from_fn(6, 10, |r, c| ((r * 7 + c * 3) % 11) as f32 * 0.1);
        for c in 0..10 {
            s.set(2, c, f32::NAN);
        }
        s.set(4, 1, f32::NAN);
        let pb = RInfProgressive { block: 3 }.apply(s);
        assert!(pb.row(2).iter().all(|x| x.is_nan()));
        assert_eq!(argmax(pb.row(2)), None);
        assert!(pb.get(4, 1).is_nan());
        assert!(argmax(pb.row(4)).is_some());
    }
}
