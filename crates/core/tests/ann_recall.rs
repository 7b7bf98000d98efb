//! Oracle-backed recall tests for the IVF candidate index.
//!
//! The blocked-exact fused top-k pass (`linalg::fused_topk`) is the
//! ground-truth oracle: every property generates a clustered embedding
//! pair, computes the exact top-10 per source, and measures how much of it
//! the approximate structure recovers.
//!
//! Enforced floors (documented in DESIGN.md "Candidate generation"):
//!
//! * IVF at `nlist = 16`: recall@10 >= 0.10 at `nprobe = 1`, >= 0.45 at
//!   `nprobe = 4`, >= 0.70 at `nprobe = 8`, and bitwise equality at
//!   `nprobe = nlist`. Recall is also monotone in `nprobe` (probed-list
//!   sets are nested by construction).

use entmatcher_core::{IvfIndex, IvfParams};
use entmatcher_data::{clustered_embeddings, EmbeddingSpec};
use entmatcher_linalg::{fused_topk, Matrix};
use entmatcher_support::prop::{check, Config, Gen};
use entmatcher_support::rng::Rng;
use entmatcher_support::{prop_assert, prop_assert_eq};

const K: usize = 10;

fn cfg() -> Config {
    // Each case trains an index; keep the count moderate.
    Config::with_cases(24)
}

/// A generated pair: target side is indexed, source side queries it.
fn gen_pair(g: &mut Gen) -> (Matrix, Matrix) {
    let entities = 100 + g.len_in(0, 200);
    let pair = clustered_embeddings(&EmbeddingSpec {
        entities,
        dim: 16,
        clusters: 8,
        spread: 0.25,
        noise: 0.05,
        seed: g.gen_range(0..u64::MAX / 2),
    });
    (pair.source, pair.target)
}

/// Fraction of oracle top-k pairs present in the approximate lists.
fn recall(approx: &[Vec<(u32, f32)>], oracle: &[Vec<(u32, f32)>]) -> f64 {
    let mut hit = 0usize;
    let mut total = 0usize;
    for (a, e) in approx.iter().zip(oracle) {
        let got: std::collections::HashSet<u32> = a.iter().map(|&(i, _)| i).collect();
        total += e.len();
        hit += e.iter().filter(|&&(i, _)| got.contains(&i)).count();
    }
    if total == 0 {
        1.0
    } else {
        hit as f64 / total as f64
    }
}

#[test]
fn ivf_full_probe_width_reproduces_exact_results_bitwise() {
    check("ivf_full_probe_width_reproduces_exact_results_bitwise", cfg(), |g| {
        let (queries, target) = gen_pair(g);
        let nlist = 1 + g.len_in(0, 24);
        let index = IvfIndex::build(
            &target,
            &IvfParams {
                nlist,
                ..IvfParams::default()
            },
        );
        let approx = index.search(&queries, K, index.nlist());
        let exact = fused_topk(&queries, &target, K).unwrap();
        // Bitwise: same ids, same scores, same order — not approximate
        // equality. The index merely partitions the same fused kernel.
        prop_assert_eq!(approx, exact);
        Ok(())
    });
}

#[test]
fn ivf_recall_stays_above_per_nprobe_floors() {
    // (nprobe, floor) at nlist = 16. Monotonicity is asserted separately,
    // so each floor only needs to hold at its own width.
    const FLOORS: &[(usize, f64)] = &[(1, 0.10), (4, 0.45), (8, 0.70)];

    check("ivf_recall_stays_above_per_nprobe_floors", cfg(), |g| {
        let (queries, target) = gen_pair(g);
        let index = IvfIndex::build(
            &target,
            &IvfParams {
                nlist: 16,
                ..IvfParams::default()
            },
        );
        let exact = fused_topk(&queries, &target, K).unwrap();
        let mut prev = 0.0f64;
        for nprobe in 1..=index.nlist() {
            let r = recall(&index.search(&queries, K, nprobe), &exact);
            prop_assert!(
                r + 1e-12 >= prev,
                "recall must be monotone in nprobe: {r:.3} at {nprobe} after {prev:.3}"
            );
            prev = r;
            if let Some(&(_, floor)) = FLOORS.iter().find(|&&(p, _)| p == nprobe) {
                prop_assert!(
                    r >= floor,
                    "recall@{K} = {r:.3} below floor {floor} at nprobe = {nprobe}"
                );
            }
        }
        prop_assert!(
            (prev - 1.0).abs() < 1e-12,
            "full probe width must have recall 1.0, got {prev:.3}"
        );
        Ok(())
    });
}

#[test]
fn ivf_full_probe_width_skips_nan_and_infinite_rows_like_the_exact_scan() {
    // One all-NaN and one all-+inf target row. Neither can be placed by
    // k-means, so neither joins a list; the exact scan scores both NaN
    // (+inf times a mixed-sign query sums to inf - inf), and NaN never
    // enters a top-k, so full-width search still equals it bitwise.
    let pair = clustered_embeddings(&EmbeddingSpec {
        entities: 200,
        dim: 16,
        clusters: 8,
        spread: 0.25,
        noise: 0.05,
        seed: 23,
    });
    let (queries, mut target) = (pair.source, pair.target);
    target.row_mut(3).fill(f32::NAN);
    target.row_mut(11).fill(f32::INFINITY);
    let index = IvfIndex::build(
        &target,
        &IvfParams {
            nlist: 8,
            ..IvfParams::default()
        },
    );
    let approx = index.search(&queries, K, index.nlist());
    let exact = fused_topk(&queries, &target, K).unwrap();
    assert_eq!(approx, exact);
    assert!(exact.iter().flatten().all(|&(j, _)| j != 3 && j != 11));
}

#[test]
fn degenerate_inputs_do_not_panic_the_index() {
    let empty = Matrix::zeros(0, 8);
    let one = Matrix::from_fn(1, 8, |_, c| (c as f32 + 1.0) / 8.0);

    // Empty and single-row indexes, zero queries, k = 0.
    let index = IvfIndex::build(&empty, &IvfParams::default());
    assert_eq!(index.search(&one, K, 4), vec![Vec::new()]);
    let index = IvfIndex::build(&one, &IvfParams::default());
    assert_eq!(index.search(&empty, K, 4), Vec::<Vec<(u32, f32)>>::new());
    assert_eq!(index.search(&one, 0, 4), vec![Vec::new()]);
    assert_eq!(index.search(&one, K, 4).len(), 1);

    // An index whose only row is non-finite holds no candidates.
    let nan = Matrix::from_fn(1, 8, |_, _| f32::NAN);
    let index = IvfIndex::build(&nan, &IvfParams::default());
    assert_eq!(index.search(&one, K, 4), vec![Vec::new()]);
}
