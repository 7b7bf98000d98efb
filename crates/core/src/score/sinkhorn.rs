//! The Sinkhorn operation (paper Algorithm 6, Equation 3).
//!
//! `Sinkhorn^l(S)` alternates row and column normalization of `exp(S/tau)`.
//! As `l` grows the result approaches a doubly-stochastic matrix that
//! implicitly encodes a (soft) 1-to-1 assignment; Greedy on the converged
//! matrix approximates the optimal-transport solution. The paper tunes
//! `l = 100` (Figure 7) as the effectiveness/efficiency sweet spot.
//!
//! # Scaling form
//!
//! After any number of rounds the normalized matrix is `u_i·K_ij·v_j` for
//! the fixed `K = exp((S − max)/tau)`, so the loop keeps `K` in place and
//! updates only `u` (one entry per row) and `v` (one per column). A round
//! is one parallel pass over fixed row blocks of `K`: each row's
//! `d_i = Σ_j K_ij·v_j` (an 8-lane sum) sets `u_i = 1/d_i`, and the same
//! cached row adds `u_i·(K_ij·v_j)` into its block's column partial. The
//! partials merge in block order into the column sums `s_j`, and
//! `v_j ← v_j/s_j`. The matrix is written back once, after the last
//! round. (Partials of `u_i·K_ij` alone would need one multiply less, but
//! with the scale in `v` about 1% of them are subnormal on an RREA score
//! matrix, and each subnormal product costs a microcode assist.)
//!
//! - *Guards.* `u_i·d_i` and `s_j` are the running row and column sums of
//!   the normalized matrix. A row is rescaled only when its sum exceeds
//!   `f32::MIN_POSITIVE`, and a column whose sum does not is zeroed
//!   (`v_j = 0`), so NaN, ±inf and underflowed rows and columns end as
//!   alternating normalization of the matrix itself leaves them.
//! - *Rebalance.* `(u·2^−e, v·2^e)` describes the same matrix; each round
//!   picks `e` so that `max u ∈ [1, 2)`, which keeps the next round's
//!   `1/d_i` finite. Without it `u` drifts by about `n_t/n_s` per round on
//!   rectangular inputs and underflows. A power of two keeps the bits of
//!   every product `u_i·K_ij·v_j`.
//! - *Folds.* When `K` spans most of the f32 range (at tau = 0.02, scores
//!   1.75 below the maximum give subnormal `K`), the scales can need more
//!   range than f32 has. If a scale would leave `[2^-100, 2^100]`, or
//!   `v_j/s_j` overflows, `u` and `v` fold into `K` (one more pass) and
//!   restart at 1. Score matrices of the paper's benchmarks have not been
//!   seen to fold (`sinkhorn.folds` counts them); the differential
//!   property's adversarial ones do.
//! - *Block order.* The block count depends on `n_s` alone (`⌈n_s/128⌉`,
//!   at most 64) and the partials merge in block order, so the result has
//!   the same bits at every pool width.

use super::ScoreOptimizer;
use entmatcher_linalg::parallel::{par_row_chunks_mut, par_row_chunks_mut_grained, Grain};
use entmatcher_linalg::Matrix;
use entmatcher_support::telemetry;

/// Rows per block of a round's pass, before [`MAX_BLOCKS`] caps the count.
const BLOCK_ROWS: usize = 128;

/// Most row blocks, and so column partials, one round keeps.
const MAX_BLOCKS: usize = 64;

/// Between rounds row scales stay in `[2^-SCALE_EXP, 2)` and column
/// scales in `[2^-SCALE_EXP, 2^SCALE_EXP]` (0 marks a zeroed column), or
/// they fold into `K`. With `K ≤ 1` a row's `Σ_j K_ij·v_j` then stays
/// below `n_t·2^SCALE_EXP`, and a row that is never rescaled (a NaN row)
/// cannot have its scale shifted down to 0 by repeated rebalances.
const SCALE_EXP: i32 = 100;

/// Sinkhorn score optimizer.
#[derive(Debug, Clone, Copy)]
pub struct Sinkhorn {
    /// Number of row+column normalization rounds (`l`).
    pub iterations: usize,
    /// Softmax temperature: scores are divided by it before
    /// exponentiation. Cosine scores live in `[-1, 1]`, so a temperature
    /// well below 1 is needed for the exponential to discriminate — the
    /// same role the logit-scaling constant plays in the reference
    /// implementations.
    pub temperature: f32,
}

impl Default for Sinkhorn {
    fn default() -> Self {
        Sinkhorn {
            iterations: 100,
            temperature: 0.02,
        }
    }
}

/// Block count and rows per block for `n_s > 0` rows.
fn block_shape(n_s: usize) -> (usize, usize) {
    let blocks = n_s.div_ceil(BLOCK_ROWS).min(MAX_BLOCKS);
    (blocks, n_s.div_ceil(blocks))
}

/// `Σ_j row_j·v_j` over eight fixed lanes: lane `l` sums the products at
/// `j ≡ l (mod 8)` (the tail is zero-padded to a whole step), then the
/// high four lanes fold onto the low four and the result is
/// `(0 + 2) + (1 + 3)`. Eight independent chains instead of one, in a
/// shape LLVM keeps in vector registers.
#[inline]
fn dot8(row: &[f32], v: &[f32]) -> f32 {
    #[inline(always)]
    fn step(acc: &mut [f32; 8], r: &[f32], w: &[f32]) {
        for l in 0..8 {
            acc[l] += r[l] * w[l];
        }
    }
    let mut acc = [0.0f32; 8];
    let (rows, vs) = (row.chunks_exact(8), v.chunks_exact(8));
    let (mut r_tail, mut w_tail) = ([0.0f32; 8], [0.0f32; 8]);
    r_tail[..rows.remainder().len()].copy_from_slice(rows.remainder());
    w_tail[..vs.remainder().len()].copy_from_slice(vs.remainder());
    for (r, w) in rows.zip(vs) {
        step(&mut acc, r, w);
    }
    step(&mut acc, &r_tail, &w_tail);
    let half = [
        acc[0] + acc[4],
        acc[1] + acc[5],
        acc[2] + acc[6],
        acc[3] + acc[7],
    ];
    (half[0] + half[2]) + (half[1] + half[3])
}

/// A column's new scale `v_j / s_j` after its sum `s_j`; a column whose
/// sum is not above `f32::MIN_POSITIVE` (NaN included) is zeroed.
fn column_scale(v: f32, sum: f32) -> f32 {
    if sum > f32::MIN_POSITIVE {
        v / sum
    } else {
        0.0
    }
}

/// The unbiased binary exponent of a normal `x`: `x ∈ [2^e, 2^(e+1))`.
/// Subnormals read as `-127`, below every normal.
fn exponent(x: f32) -> i32 {
    ((x.to_bits() >> 23) & 0xff) as i32 - 127
}

/// The smallest and largest positive value (`(inf, 0)` when there is none).
fn positive_range<'a>(xs: impl Iterator<Item = &'a f32>) -> (f32, f32) {
    xs.filter(|&&x| x > 0.0)
        .fold((f32::INFINITY, 0.0), |(lo, hi), &x| (lo.min(x), hi.max(x)))
}

/// `2^e` for `e` in `-126..=127`, built from the exponent bits.
fn pow2(e: i32) -> f32 {
    debug_assert!((-126..=127).contains(&e));
    f32::from_bits(((e + 127) as u32) << 23)
}

/// One row block's state: the row scales `u` of its rows and its column
/// partial `Σ_i u_i·K_ij·v_j` over them.
struct RowBlock {
    u: Vec<f32>,
    col_part: Vec<f32>,
}

/// The scaling form's state beside `K`: the normalized matrix is
/// `u_i·K_ij·v_j`.
struct Scales {
    n_t: usize,
    block_rows: usize,
    blocks: Vec<RowBlock>,
    v: Vec<f32>,
    /// Column sums `s_j = Σ_i u_i·K_ij·v_j` after the row normalization,
    /// merged from the partials in block order.
    col_sums: Vec<f32>,
}

impl Scales {
    fn new(n_s: usize, n_t: usize) -> Scales {
        let (blocks, block_rows) = block_shape(n_s);
        Scales {
            n_t,
            block_rows,
            blocks: (0..blocks)
                .map(|b| RowBlock {
                    u: vec![1.0; block_rows.min(n_s - b * block_rows)],
                    col_part: vec![0.0; n_t],
                })
                .collect(),
            v: vec![1.0; n_t],
            col_sums: vec![0.0; n_t],
        }
    }

    /// One row and column normalization; returns the largest deviation of
    /// a column sum from 1 after the row normalization.
    fn round(&mut self, k: &mut [f32]) -> f32 {
        let (n_t, block_rows) = (self.n_t, self.block_rows);
        let (k_now, v_now) = (&*k, &self.v);
        par_row_chunks_mut_grained(&mut self.blocks, 1, Grain::rows(1), |b, block| {
            let RowBlock { u, col_part } = &mut block[0];
            let rows = &k_now[b * block_rows * n_t..][..u.len() * n_t];
            col_part.fill(0.0);
            for (ui, row) in u.iter_mut().zip(rows.chunks_exact(n_t)) {
                let d = dot8(row, v_now);
                if *ui * d > f32::MIN_POSITIVE {
                    *ui = 1.0 / d;
                }
                let scale = *ui;
                for ((p, &x), &vj) in col_part.iter_mut().zip(row).zip(v_now) {
                    *p += scale * (x * vj);
                }
            }
        });
        self.col_sums.copy_from_slice(&self.blocks[0].col_part);
        for block in &self.blocks[1..] {
            for (s, &p) in self.col_sums.iter_mut().zip(&block.col_part) {
                *s += p;
            }
        }

        let mut dev = 0.0f32;
        let mut finite = true;
        for (&vj, &sum) in self.v.iter().zip(&self.col_sums) {
            dev = dev.max((sum - 1.0).abs());
            finite &= column_scale(vj, sum).is_finite();
        }
        if finite {
            for (vj, &sum) in self.v.iter_mut().zip(&self.col_sums) {
                *vj = column_scale(*vj, sum);
            }
        } else {
            // `v_j / s_j` overflows: fold the row-normalized matrix into
            // `K` and scale its columns by `1 / s_j` from there.
            let factors: Vec<f32> = self
                .col_sums
                .iter()
                .map(|&sum| column_scale(1.0, sum))
                .collect();
            telemetry::add("sinkhorn.folds", 1);
            self.fold(k);
            self.v = factors;
        }
        self.rebalance(k);
        dev
    }

    /// Moves a power of two `2^e` from `u` to `v` so that `max u ∈ [1, 2)`:
    /// the next round's `1/d_i` then stays finite, since its guard keeps
    /// `d_i > f32::MIN_POSITIVE / 2`. When that would take a row scale
    /// below `2^-SCALE_EXP` or a column scale out of
    /// `[2^-SCALE_EXP, 2^SCALE_EXP]`, `u` and `v` fold into `K` instead.
    fn rebalance(&mut self, k: &mut [f32]) {
        let (u_lo, u_hi) = positive_range(self.u());
        if !u_hi.is_normal() {
            return;
        }
        let e = exponent(u_hi).min(126);
        let (v_lo, v_hi) = positive_range(self.v.iter());
        let fits = exponent(u_lo) - e >= -SCALE_EXP
            && (v_hi == 0.0
                || (exponent(v_hi) + e <= SCALE_EXP && exponent(v_lo) + e >= -SCALE_EXP));
        if !fits {
            telemetry::add("sinkhorn.folds", 1);
            self.fold(k);
        } else if e != 0 {
            let (down, up) = (pow2(-e), pow2(e));
            for block in &mut self.blocks {
                block.u.iter_mut().for_each(|x| *x *= down);
            }
            self.v.iter_mut().for_each(|x| *x *= up);
        }
    }

    fn u(&self) -> impl Iterator<Item = &f32> {
        self.blocks.iter().flat_map(|block| &block.u)
    }

    /// Writes the normalized matrix into `K` (`K_ij ← u_i·K_ij·v_j`, the
    /// product taken in f64 and rounded once) and resets `u` and `v` to 1.
    fn fold(&mut self, k: &mut [f32]) {
        let (n_t, block_rows) = (self.n_t, self.block_rows);
        let (blocks, v) = (&self.blocks, &self.v);
        par_row_chunks_mut_grained(k, n_t, Grain::rows(block_rows), |r0, chunk| {
            let u = &blocks[r0 / block_rows].u;
            for (row, &ui) in chunk.chunks_exact_mut(n_t).zip(u) {
                for (x, &vj) in row.iter_mut().zip(v) {
                    *x = (f64::from(ui) * f64::from(*x) * f64::from(vj)) as f32;
                }
            }
        });
        for block in &mut self.blocks {
            block.u.fill(1.0);
        }
        self.v.fill(1.0);
    }
}

impl ScoreOptimizer for Sinkhorn {
    fn name(&self) -> &'static str {
        "Sinkhorn"
    }

    fn apply(&self, mut scores: Matrix) -> Matrix {
        assert!(self.temperature > 0.0, "temperature must be positive");
        let (n_s, n_t) = scores.shape();
        if n_s == 0 || n_t == 0 {
            return scores;
        }
        // K = exp((S - max) / tau): the global shift cancels in the
        // normalizations but keeps the exponentials in range.
        let max = scores.max_element().unwrap_or(0.0);
        let inv_tau = 1.0 / self.temperature;
        par_row_chunks_mut(scores.as_mut_slice(), n_t, |_, chunk| {
            for x in chunk {
                *x = ((*x - max) * inv_tau).exp();
            }
        });

        let tracing = telemetry::enabled();
        let mut scales = Scales::new(n_s, n_t);
        for _ in 0..self.iterations {
            let dev = scales.round(scores.as_mut_slice());
            if tracing {
                // Its convergence signal: the column sums' largest
                // deviation from 1 shrinks to 0 as the matrix approaches
                // double stochasticity.
                telemetry::add("sinkhorn.iterations", 1);
                telemetry::observe("sinkhorn.col_dev", dev as f64);
            }
        }
        scales.fold(scores.as_mut_slice());
        scores
    }

    fn aux_bytes(&self, n_s: usize, n_t: usize) -> usize {
        // In place on the score matrix: u, v, the merged column sums and
        // one column partial per row block.
        let blocks = if n_s == 0 { 0 } else { block_shape(n_s).0 };
        (n_s + 2 * n_t + blocks * n_t) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::{greedy::Greedy, MatchContext, Matcher};
    use entmatcher_linalg::ops::{col_sums, row_sums};
    use entmatcher_linalg::{argmax, matmul_transposed};
    use entmatcher_support::prop::{check, Config, Failed, Gen};
    use entmatcher_support::rng::Rng;
    use entmatcher_support::{prop_assert, prop_assert_eq};

    /// The five-pass form, kept as the differential oracle: each round
    /// normalizes the rows of the matrix itself, then sums its columns
    /// serially and scales them. Every operation is done in f64 and passed
    /// through `round`. With [`to_f32`] this is the f32 loop bit for bit:
    /// f64 carries more than twice f32's precision, so rounding an f64
    /// sum, product or quotient of f32 values to f32 gives the f32
    /// operation's result. The identity runs the same loop without f32's
    /// subnormal rounding.
    fn reference(sinkhorn: Sinkhorn, scores: &Matrix, round: fn(f64) -> f64) -> Matrix {
        let (n_s, n_t) = scores.shape();
        let max = scores.max_element().unwrap_or(0.0);
        let inv_tau = 1.0 / sinkhorn.temperature;
        let mut m: Vec<f64> = scores
            .as_slice()
            .iter()
            .map(|&x| f64::from(((x - max) * inv_tau).exp()))
            .collect();
        let min_positive = f64::from(f32::MIN_POSITIVE);
        let mut inv = vec![0.0f64; n_t];
        for _ in 0..sinkhorn.iterations {
            for row in m.chunks_exact_mut(n_t) {
                let sum = row.iter().fold(0.0, |s, &x| round(s + x));
                if sum > min_positive {
                    let inv_sum = round(1.0 / sum);
                    row.iter_mut().for_each(|x| *x = round(*x * inv_sum));
                }
            }
            inv.fill(0.0);
            for row in m.chunks_exact(n_t) {
                for (s, &x) in inv.iter_mut().zip(row) {
                    *s = round(*s + x);
                }
            }
            for s in inv.iter_mut() {
                *s = if *s > min_positive {
                    round(1.0 / *s)
                } else {
                    0.0
                };
            }
            for row in m.chunks_exact_mut(n_t) {
                for (x, &iv) in row.iter_mut().zip(&inv) {
                    *x = round(*x * iv);
                }
            }
        }
        Matrix::from_vec(n_s, n_t, m.iter().map(|&x| x as f32).collect()).expect("sized")
    }

    fn to_f32(x: f64) -> f64 {
        f64::from(x as f32)
    }

    #[test]
    fn output_is_approximately_doubly_stochastic() {
        let s = Matrix::from_fn(6, 6, |r, c| ((r * 5 + c * 3) % 7) as f32 * 0.1);
        let out = Sinkhorn {
            iterations: 200,
            temperature: 0.1,
        }
        .apply(s);
        for r in row_sums(&out) {
            assert!((r - 1.0).abs() < 1e-3, "row sum {r}");
        }
        for c in col_sums(&out) {
            assert!((c - 1.0).abs() < 0.05, "col sum {c}");
        }
    }

    #[test]
    fn converges_to_permutation_on_clean_input() {
        // A diagonally dominant matrix must converge to ~identity.
        let n = 5;
        let s = Matrix::from_fn(n, n, |r, c| if r == c { 0.9 } else { 0.2 });
        let out = Sinkhorn {
            iterations: 100,
            temperature: 0.05,
        }
        .apply(s);
        for i in 0..n {
            assert_eq!(argmax(out.row(i)), Some(i));
            assert!(out.get(i, i) > 0.9, "diagonal mass {}", out.get(i, i));
        }
    }

    #[test]
    fn resolves_greedy_conflicts_via_implicit_one_to_one() {
        // Both sources prefer target 0, but a 1-to-1 assignment wants
        // (0 -> 0, 1 -> 1). Greedy on raw scores double-books target 0.
        let s = Matrix::from_vec(2, 2, vec![0.95, 0.50, 0.90, 0.88]).unwrap();
        assert_eq!(argmax(s.row(1)), Some(0));
        let out = Sinkhorn::default().apply(s);
        assert_eq!(argmax(out.row(0)), Some(0));
        assert_eq!(argmax(out.row(1)), Some(1));
    }

    #[test]
    fn more_iterations_approach_double_stochasticity() {
        // Asymmetric instance: after one round the column sums still
        // deviate from 1; convergence tightens them monotonically.
        let s = Matrix::from_fn(4, 4, |r, c| ((r * 5 + c * 3) % 7) as f32 * 0.1);
        let deviation = |m: &Matrix| -> f32 {
            col_sums(m).iter().map(|c| (c - 1.0).abs()).sum::<f32>()
                + row_sums(m).iter().map(|r| (r - 1.0).abs()).sum::<f32>()
        };
        let few = Sinkhorn {
            iterations: 1,
            temperature: 0.1,
        }
        .apply(s.clone());
        let many = Sinkhorn {
            iterations: 100,
            temperature: 0.1,
        }
        .apply(s);
        assert!(
            deviation(&many) < deviation(&few),
            "more iterations must reduce deviation: {} vs {}",
            deviation(&many),
            deviation(&few)
        );
    }

    #[test]
    fn zero_iterations_is_exp_only() {
        let s = Matrix::from_vec(1, 2, vec![0.0, 1.0]).unwrap();
        let out = Sinkhorn {
            iterations: 0,
            temperature: 1.0,
        }
        .apply(s);
        // exp shifted by max: exp(-1), exp(0).
        assert!((out.get(0, 1) - 1.0).abs() < 1e-6);
        assert!((out.get(0, 0) - (-1.0f32).exp()).abs() < 1e-6);
    }

    #[test]
    fn telemetry_counts_iterations_and_convergence() {
        let _guard = crate::telemetry_test_lock();
        telemetry::reset();
        telemetry::set_enabled(true);
        let s = Matrix::from_fn(6, 6, |r, c| ((r * 5 + c * 3) % 7) as f32 * 0.1);
        Sinkhorn {
            iterations: 25,
            temperature: 0.1,
        }
        .apply(s);
        let trace = telemetry::snapshot();
        telemetry::set_enabled(false);
        assert!(trace.counter("sinkhorn.iterations").unwrap_or(0) >= 25);
        let dev = trace
            .histogram("sinkhorn.col_dev")
            .expect("col_dev recorded");
        assert!(dev.count >= 25);
        // Deviations shrink toward 0 as the matrix converges, so the
        // minimum observed deviation must be small.
        assert!(dev.min < 0.05, "converged deviation {}", dev.min);
    }

    #[test]
    fn rectangular_input_survives() {
        let s = Matrix::from_fn(3, 7, |r, c| ((r + c) % 4) as f32 * 0.2);
        let out = Sinkhorn::default().apply(s);
        assert_eq!(out.shape(), (3, 7));
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn scales_fold_into_k_instead_of_leaving_f32() {
        // Row 1 and column 0 sit about 1.9 below the maximum, so `K` is
        // subnormal there at tau = 0.02. Moving the whole scale into `v`
        // would ask for a column scale near 2^144 in the second round.
        let _guard = crate::telemetry_test_lock();
        telemetry::reset();
        telemetry::set_enabled(true);
        let data = vec![
            -1.838_922_3,
            0.080_089_69,
            -0.563_538_2,
            -2.251_562,
            -1.805_170_2,
            -1.924_472_8,
        ];
        let s = Matrix::from_vec(2, 3, data).unwrap();
        let out = Sinkhorn::default().apply(s.clone());
        let trace = telemetry::snapshot();
        telemetry::set_enabled(false);
        assert!(trace.counter("sinkhorn.folds").unwrap_or(0) >= 1);
        assert!(out.as_slice().iter().all(|x| x.is_finite()), "{out:?}");
        let want = reference(Sinkhorn::default(), &s, to_f32);
        for i in 0..2 {
            assert_eq!(argmax(out.row(i)), argmax(want.row(i)), "row {i}");
        }
    }

    #[test]
    fn lane_fold_sums_every_product_once() {
        // Exact small integers: any lane order gives the same sum, so a
        // dropped or doubled product (remainder lanes included) shows.
        for n in 0..=20 {
            let row: Vec<f32> = (0..n).map(|j| (j % 5) as f32).collect();
            let v: Vec<f32> = (0..n).map(|j| (j % 3 + 1) as f32).collect();
            let want: f32 = row.iter().zip(&v).map(|(a, b)| a * b).sum();
            assert_eq!(dot8(&row, &v), want, "n = {n}");
        }
    }

    #[test]
    fn blocks_depend_on_rows_only_and_are_capped() {
        assert_eq!(block_shape(1), (1, 1));
        assert_eq!(block_shape(128), (1, 128));
        assert_eq!(block_shape(129), (2, 65));
        assert_eq!(block_shape(1575), (13, 122));
        assert_eq!(block_shape(100_000), (MAX_BLOCKS, 1563));
        for n_s in [1, 7, 128, 129, 1575, 8191, 8193, 100_000] {
            let (blocks, rows) = block_shape(n_s);
            assert!(blocks * rows >= n_s && (blocks - 1) * rows < n_s, "{n_s}");
        }
    }

    /// A differential case: a score matrix in `[-1, 1]` of shape
    /// `1..=12 x 1..=12` (1x8 and 8x1 drawn on purpose), with rows and
    /// columns pushed at least 1.8 below the maximum (where `K` is
    /// subnormal or 0 at tau = 0.02) and NaN / ±inf cells.
    fn differential_case(g: &mut Gen) -> (Matrix, Sinkhorn) {
        let (rows, cols) = match g.gen_range(0u32..10) {
            0 => (1, 8),
            1 => (8, 1),
            _ => (1 + g.len_in(0, 11), 1 + g.len_in(0, 11)),
        };
        let mut data: Vec<f32> = (0..rows * cols)
            .map(|_| g.gen_range(-1.0f32..1.0))
            .collect();
        let max = data.iter().copied().fold(f32::MIN, f32::max);
        let low = |g: &mut Gen| max - g.gen_range(1.8f32..2.6);
        if g.gen_bool(0.4) {
            let r = g.gen_range(0..rows);
            for x in &mut data[r * cols..(r + 1) * cols] {
                *x = low(g);
            }
        }
        if g.gen_bool(0.4) {
            let c = g.gen_range(0..cols);
            for r in 0..rows {
                data[r * cols + c] = low(g);
            }
        }
        if g.gen_bool(0.3) {
            for _ in 0..g.gen_range(1..4) {
                let at = g.gen_range(0..rows * cols);
                data[at] = *g.choose(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
            }
        }
        let sinkhorn = Sinkhorn {
            iterations: *g.choose(&[0, 1, 7, 100]),
            temperature: *g.choose(&[0.02, 0.1]),
        };
        (Matrix::from_vec(rows, cols, data).expect("sized"), sinkhorn)
    }

    /// Largest and second-largest non-NaN values of a row.
    fn top_two(row: &[f32]) -> (f32, f32) {
        row.iter().filter(|x| !x.is_nan()).fold(
            (f32::NEG_INFINITY, f32::NEG_INFINITY),
            |(a, b), &x| {
                if x > a {
                    (x, a)
                } else {
                    (a, b.max(x))
                }
            },
        )
    }

    /// The differential claims: the output is finite wherever the
    /// reference's is, its column sums are within 1e-3 of the reference's,
    /// and each row picks the reference's column where the reference's top
    /// two differ by more than 1e-3 relative. Rows whose top value is
    /// subnormal, and rows where the f32 reference picks differently from
    /// the same loop without f32's subnormal rounding, are left out of the
    /// last claim: there the f32 pick is an artefact of that rounding. (In
    /// a 4x4 case a row's only positive `K` entry, 1.4e-45, stays stuck at
    /// the subnormal floor in the f32 loop, while exact arithmetic and the
    /// scaling form revive it, and another row then picks a different
    /// column.)
    fn check_against_reference(s: Matrix, sinkhorn: Sinkhorn) -> Result<(), Failed> {
        let want = reference(sinkhorn, &s, to_f32);
        let exact = reference(sinkhorn, &s, |x| x);
        let got = sinkhorn.apply(s);
        prop_assert_eq!(got.shape(), want.shape());
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            prop_assert!(
                !w.is_finite() || g.is_finite(),
                "cell {i}: {g} where the reference has {w}"
            );
        }
        for (j, (g, w)) in col_sums(&got).iter().zip(col_sums(&want)).enumerate() {
            prop_assert!(
                !w.is_finite() || (g - w).abs() <= 1e-3,
                "column {j} sums to {g}, the reference's to {w}"
            );
        }
        for i in 0..got.rows() {
            let (first, second) = top_two(want.row(i));
            let pick = argmax(want.row(i));
            if first >= f32::MIN_POSITIVE
                && first - second > 1e-3 * first
                && pick == argmax(exact.row(i))
            {
                prop_assert_eq!(argmax(got.row(i)), pick, "row {}", i);
            }
        }
        Ok(())
    }

    #[test]
    fn scaling_form_matches_the_five_pass_reference() {
        check(
            "scaling_form_matches_the_five_pass_reference",
            Config::with_cases(512),
            |g| {
                let (s, sinkhorn) = differential_case(g);
                check_against_reference(s, sinkhorn)
            },
        );
    }

    #[test]
    fn greedy_matching_equals_the_reference_on_a_noisy_pair() {
        use entmatcher_data::{clustered_embeddings, EmbeddingSpec};
        let pair = clustered_embeddings(&EmbeddingSpec {
            entities: 600,
            dim: 32,
            noise: 0.6,
            seed: 23,
            ..EmbeddingSpec::default()
        });
        let scores = matmul_transposed(&pair.source, &pair.target).unwrap();
        let sinkhorn = Sinkhorn::default();
        let ctx = MatchContext::default();
        let want = Greedy.run(&reference(sinkhorn, &scores, to_f32), &ctx);
        let got = Greedy.run(&sinkhorn.apply(scores), &ctx);
        let correct = (0..600)
            .filter(|&i| want.assignment()[i] == Some(i as u32))
            .count();
        assert!(
            correct < 600,
            "noise too low to leave errors: {correct} of 600"
        );
        assert_eq!(got, want);
    }
}
