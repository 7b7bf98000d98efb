//! Property-based tests over the core algorithms' invariants, on the
//! in-tree `entmatcher_support::prop` harness.
//!
//! The `regression_*` test at the bottom replays the input that
//! historically produced a failure (recorded in the retired
//! `.proptest-regressions` seed file) as an explicit deterministic case.

use entmatcher::core::matching::stable::find_blocking_pair;
use entmatcher::core::{Csls, RlMatcher};
use entmatcher::core::{
    Greedy, Hungarian, MatchContext, Matcher, RInf, ScoreOptimizer, Sinkhorn, StableMarriage,
};
use entmatcher::linalg::ops::{col_sums, row_sums};
use entmatcher::linalg::Matrix;
use entmatcher::support::prop::{check, Config, Failed, Gen};
use entmatcher::support::rng::Rng;
use entmatcher::support::{prop_assert, prop_assert_eq};

fn cfg() -> Config {
    Config::with_cases(64)
}

/// Generator: a random score matrix with values in [-1, 1] (cosine range).
fn score_matrix(g: &mut Gen, max_rows: usize, max_cols: usize) -> Matrix {
    let r = 1 + g.len_in(0, max_rows - 1);
    let c = 1 + g.len_in(0, max_cols - 1);
    let data: Vec<f32> = (0..r * c).map(|_| g.gen_range(-1.0f32..1.0)).collect();
    Matrix::from_vec(r, c, data).expect("sized")
}

/// Whether a score is a usable edge: NaN and -inf mark missing ones.
fn is_edge(score: f32) -> bool {
    !score.is_nan() && score != f32::NEG_INFINITY
}

/// Brute-force best `(pairs, total)` over injections of rows into
/// columns through usable cells: the most pairs first, then the highest
/// total. Without missing cells the most pairs is `min(rows, cols)`.
fn brute_force_best(scores: &Matrix) -> (usize, f64) {
    fn rec(scores: &Matrix, row: usize, used: &mut [bool]) -> (usize, f64) {
        if row == scores.rows() {
            return (0, 0.0);
        }
        // Leaving this row unmatched is an option for every shape.
        let mut best = rec(scores, row + 1, used);
        for j in 0..scores.cols() {
            let v = scores.get(row, j);
            if used[j] || !is_edge(v) {
                continue;
            }
            used[j] = true;
            let (pairs, total) = rec(scores, row + 1, used);
            used[j] = false;
            let cand = (pairs + 1, total + v as f64);
            if cand.0 > best.0 || (cand.0 == best.0 && cand.1 > best.1) {
                best = cand;
            }
        }
        best
    }
    rec(scores, 0, &mut vec![false; scores.cols()])
}

#[test]
fn hungarian_output_is_injective_and_maximal_size() {
    check("hungarian_output_is_injective_and_maximal_size", cfg(), |g| {
        let s = score_matrix(g, 12, 12);
        let m = Hungarian.run(&s, &MatchContext::default());
        prop_assert!(m.is_injective());
        prop_assert_eq!(m.matched_count(), s.rows().min(s.cols()));
        Ok(())
    });
}

#[test]
fn hungarian_is_optimal_on_small_instances() {
    // The brute force is cheap, so run more cases: inputs where a row
    // must displace an earlier one around masked cells are rare draws.
    let cfg = Config::with_cases(1024);
    check("hungarian_is_optimal_on_small_instances", cfg, |g| {
        let mut s = score_matrix(g, 6, 6);
        // Half the cases mask random cells as missing edges.
        if g.gen_bool(0.5) {
            let density = g.gen_range(0.1f64..0.6);
            for i in 0..s.rows() {
                for j in 0..s.cols() {
                    if g.gen_bool(density) {
                        let missing = if g.gen_bool(0.5) {
                            f32::NAN
                        } else {
                            f32::NEG_INFINITY
                        };
                        s.set(i, j, missing);
                    }
                }
            }
        }
        let m = Hungarian.run(&s, &MatchContext::default());
        prop_assert!(m.is_injective());
        prop_assert!(m.pairs().all(|(i, j)| is_edge(s.get(i, j))));
        let got: f64 = m.pairs().map(|(i, j)| s.get(i, j) as f64).sum();
        let (pairs, want) = brute_force_best(&s);
        prop_assert_eq!(m.matched_count(), pairs);
        prop_assert!((got - want).abs() < 1e-4, "got {got}, want {want}");
        Ok(())
    });
}

#[test]
fn gale_shapley_produces_stable_injective_matchings() {
    check("gale_shapley_produces_stable_injective_matchings", cfg(), |g| {
        let s = score_matrix(g, 10, 10);
        let m = StableMarriage.run(&s, &MatchContext::default());
        prop_assert!(m.is_injective());
        prop_assert_eq!(m.matched_count(), s.rows().min(s.cols()));
        prop_assert!(
            find_blocking_pair(&s, &m).is_none(),
            "unstable matching produced"
        );
        Ok(())
    });
}

fn check_sinkhorn_stochastic(s: Matrix) -> Result<(), Failed> {
    let square = s.rows() == s.cols();
    let out = Sinkhorn {
        iterations: 50,
        temperature: 0.1,
    }
    .apply(s);
    // The operation ends with a column normalization (Equation 3's
    // outer Gamma_c), so column sums are exactly stochastic.
    for c in col_sums(&out) {
        prop_assert!((c - 1.0).abs() < 1e-3, "col sum {c}");
    }
    // On square inputs the iteration converges towards doubly
    // stochastic; rectangular inputs cannot have unit row sums.
    if square {
        for r in row_sums(&out) {
            prop_assert!((r - 1.0).abs() < 0.15, "row sum {r}");
        }
    } else {
        for r in row_sums(&out) {
            prop_assert!(r.is_finite() && r >= 0.0);
        }
    }
    Ok(())
}

#[test]
fn sinkhorn_columns_are_stochastic_and_squares_are_doubly() {
    check(
        "sinkhorn_columns_are_stochastic_and_squares_are_doubly",
        cfg(),
        |g| check_sinkhorn_stochastic(score_matrix(g, 8, 8)),
    );
}

#[test]
fn csls_is_invariant_to_constant_shifts() {
    check("csls_is_invariant_to_constant_shifts", cfg(), |g| {
        let s = score_matrix(g, 8, 8);
        let shift = g.gen_range(-0.5f32..0.5);
        // CSLS(S + c) == CSLS(S): the correction subtracts the shift back.
        let base = Csls { k: 3 }.apply(s.clone());
        let mut shifted = s;
        shifted.map_inplace(|v| v + shift);
        let out = Csls { k: 3 }.apply(shifted);
        for (a, b) in base.as_slice().iter().zip(out.as_slice().iter()) {
            prop_assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        Ok(())
    });
}

#[test]
fn rinf_decisions_are_invariant_to_positive_affine_transforms() {
    check(
        "rinf_decisions_are_invariant_to_positive_affine_transforms",
        cfg(),
        |g| {
            let s = score_matrix(g, 8, 8);
            let scale = g.gen_range(0.1f32..5.0);
            let shift = g.gen_range(-0.5f32..0.5);
            // Rank-based reciprocal scores only depend on score order, which
            // a positive affine map preserves.
            let base = RInf::default().apply(s.clone());
            let mut transformed = s;
            transformed.map_inplace(|v| v * scale + shift);
            let out = RInf::default().apply(transformed);
            for (a, b) in base.as_slice().iter().zip(out.as_slice().iter()) {
                prop_assert!((a - b).abs() < 1e-4, "rank scores diverged: {a} vs {b}");
            }
            Ok(())
        },
    );
}

#[test]
fn greedy_picks_are_row_maxima() {
    check("greedy_picks_are_row_maxima", cfg(), |g| {
        let s = score_matrix(g, 10, 10);
        let m = Greedy.run(&s, &MatchContext::default());
        for (i, pick) in m.assignment().iter().enumerate() {
            let pick = pick.expect("non-empty rows always match");
            let row = s.row(i);
            for &v in row {
                prop_assert!(row[pick as usize] >= v);
            }
        }
        Ok(())
    });
}

#[test]
fn rl_matcher_is_deterministic_and_in_range() {
    check("rl_matcher_is_deterministic_and_in_range", cfg(), |g| {
        let s = score_matrix(g, 10, 10);
        let a = RlMatcher::default().run(&s, &MatchContext::default());
        let b = RlMatcher::default().run(&s, &MatchContext::default());
        prop_assert_eq!(&a, &b);
        for pick in a.assignment().iter().flatten() {
            prop_assert!((*pick as usize) < s.cols());
        }
        Ok(())
    });
}

#[test]
fn optimizers_preserve_matrix_shape() {
    check("optimizers_preserve_matrix_shape", cfg(), |g| {
        let s = score_matrix(g, 9, 7);
        let shape = s.shape();
        for opt in [
            Box::new(Csls { k: 2 }) as Box<dyn ScoreOptimizer>,
            Box::new(RInf::default()),
            Box::new(RInf::without_ranking()),
            Box::new(Sinkhorn {
                iterations: 5,
                temperature: 0.1,
            }),
        ] {
            let out = opt.apply(s.clone());
            prop_assert_eq!(out.shape(), shape, "{} changed shape", opt.name());
            prop_assert!(
                out.as_slice().iter().all(|v| v.is_finite()),
                "{} produced non-finite",
                opt.name()
            );
        }
        Ok(())
    });
}

/// Regression seed `548558e2…` from the retired proptest regression file:
/// shrank to `s = Matrix { rows: 1, cols: 2, data: [0.0, 0.0] }` — a flat
/// rectangular instance for the Sinkhorn stochasticity property.
#[test]
fn regression_548558e2_sinkhorn_flat_rectangular() {
    let s = Matrix::from_vec(1, 2, vec![0.0, 0.0]).unwrap();
    check_sinkhorn_stochastic(s).unwrap();
}
