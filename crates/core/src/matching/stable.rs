//! Stable matching via Gale–Shapley deferred acceptance (paper §3.6,
//! "SMat").
//!
//! Sources propose in decreasing score order; each target holds its best
//! proposal so far (judged by the same score matrix, i.e. both sides rank
//! by `S`). The result is the source-optimal stable matching: no source/
//! target pair would both rather be with each other than with their
//! assigned partners.
//!
//! Preference lists are built lazily. Every source starts with its
//! [`CHUNK`] best targets, selected from its row and sorted; a source that
//! proposes to all of them sorts its whole row then, once. Both follow
//! `entmatcher_linalg::rank`'s stable descending order (ties by index,
//! NaN last), so sources propose exactly as with full lists, and most of
//! them never need more than the first chunk.

use super::{MatchContext, Matcher, Matching};
use entmatcher_linalg::parallel::{par_row_chunks_mut_grained, Grain};
use entmatcher_linalg::rank::{argsort_desc, item_index, sort_item};
use entmatcher_linalg::Matrix;
use std::collections::VecDeque;

/// Targets in a source's first preference chunk. On one 1575-candidate
/// S-W RREA pair, 62 of 1575 sources proposed past their 64th choice.
const CHUNK: usize = 64;

/// Gale–Shapley stable matcher.
#[derive(Debug, Clone, Copy, Default)]
pub struct StableMarriage;

impl Matcher for StableMarriage {
    fn name(&self) -> &'static str {
        "Gale-Shapley"
    }

    fn run(&self, scores: &Matrix, _ctx: &MatchContext) -> Matching {
        let (n_s, n_t) = scores.shape();
        if n_s == 0 || n_t == 0 {
            return Matching::new(vec![None; n_s]);
        }
        // Every source's `width` best targets, best first.
        let width = CHUNK.min(n_t);
        let mut chunks = vec![0u32; n_s * width];
        let grain = Grain::for_item_cost(n_t);
        par_row_chunks_mut_grained(&mut chunks, width, grain, |u0, block| {
            let mut items = Vec::with_capacity(n_t);
            for (local, chunk) in block.chunks_exact_mut(width).enumerate() {
                let row = scores.row(u0 + local);
                items.clear();
                items.extend(row.iter().enumerate().map(|(v, &x)| sort_item(x, v)));
                if width < n_t {
                    items.select_nth_unstable(width - 1);
                }
                items[..width].sort_unstable();
                for (slot, &item) in chunk.iter_mut().zip(&items[..width]) {
                    *slot = item_index(item) as u32;
                }
            }
        });
        // Whole lists, sorted for the sources that get past their chunk.
        let mut rest: Vec<Vec<u32>> = vec![Vec::new(); n_s];
        let mut next_choice = vec![0usize; n_s];
        let mut engaged_to: Vec<Option<u32>> = vec![None; n_t]; // target -> source
        let mut queue: VecDeque<usize> = (0..n_s).collect();
        while let Some(u) = queue.pop_front() {
            // u proposes down its list until accepted or exhausted.
            while next_choice[u] < n_t {
                let k = next_choice[u];
                let v = if k < width {
                    chunks[u * width + k] as usize
                } else {
                    if rest[u].is_empty() {
                        let order = argsort_desc(scores.row(u));
                        rest[u] = order.into_iter().map(|v| v as u32).collect();
                    }
                    rest[u][k] as usize
                };
                next_choice[u] += 1;
                match engaged_to[v] {
                    None => {
                        engaged_to[v] = Some(u as u32);
                        break;
                    }
                    Some(current) => {
                        // Target v keeps the better-scoring proposer.
                        if scores.get(u, v) > scores.get(current as usize, v) {
                            engaged_to[v] = Some(u as u32);
                            queue.push_back(current as usize);
                            break;
                        }
                    }
                }
            }
        }
        let mut assignment = vec![None; n_s];
        for (v, holder) in engaged_to.iter().enumerate() {
            if let Some(u) = holder {
                assignment[*u as usize] = Some(v as u32);
            }
        }
        Matching::new(assignment)
    }

    fn aux_bytes(&self, n_s: usize, n_t: usize) -> usize {
        // First chunks and the proposal state, plus one row's sort items
        // and spare. A source that proposes past its chunk adds its whole
        // list (n_t u32), so the worst case is the n_s × n_t lists.
        n_s * (CHUNK.min(n_t) * 4 + 24) + (n_s + n_t) * 16 + n_t * 16
    }
}

/// Checks stability of a matching under the score matrix: returns the
/// first blocking pair `(u, v)` if any. Exposed for tests and property
/// checks.
pub fn find_blocking_pair(scores: &Matrix, matching: &Matching) -> Option<(usize, usize)> {
    let (n_s, n_t) = scores.shape();
    let mut partner_of_target: Vec<Option<usize>> = vec![None; n_t];
    for (u, v) in matching.pairs() {
        partner_of_target[v] = Some(u);
    }
    for u in 0..n_s {
        let current = matching.assignment()[u];
        for (v, holder) in partner_of_target.iter().enumerate().take(n_t) {
            if current == Some(v as u32) {
                continue;
            }
            // Would u prefer v over u's current partner?
            let u_prefers = match current {
                Some(cv) => scores.get(u, v) > scores.get(u, cv as usize),
                None => true,
            };
            if !u_prefers {
                continue;
            }
            // Would v prefer u over v's current partner?
            let v_prefers = match holder {
                Some(cu) => scores.get(u, v) > scores.get(*cu, v),
                None => true,
            };
            if v_prefers {
                return Some((u, v));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_stable_and_injective() {
        let s = Matrix::from_fn(8, 8, |r, c| (((r * 13 + c * 7) % 11) as f32) / 11.0);
        let m = StableMarriage.run(&s, &MatchContext::default());
        assert!(m.is_injective());
        assert_eq!(m.matched_count(), 8);
        assert_eq!(find_blocking_pair(&s, &m), None);
    }

    #[test]
    fn resolves_contested_target_stably() {
        // Both sources love target 0; target 0 prefers source 0.
        let s = Matrix::from_vec(2, 2, vec![0.95, 0.50, 0.90, 0.88]).unwrap();
        let m = StableMarriage.run(&s, &MatchContext::default());
        assert_eq!(m.assignment(), &[Some(0), Some(1)]);
        assert_eq!(find_blocking_pair(&s, &m), None);
    }

    #[test]
    fn rectangular_more_sources_leaves_some_unmatched() {
        let s = Matrix::from_vec(3, 2, vec![0.9, 0.1, 0.8, 0.7, 0.85, 0.2]).unwrap();
        let m = StableMarriage.run(&s, &MatchContext::default());
        assert_eq!(m.matched_count(), 2);
        assert!(m.is_injective());
        assert_eq!(find_blocking_pair(&s, &m), None);
    }

    #[test]
    fn rectangular_more_targets() {
        let s = Matrix::from_vec(2, 4, vec![0.1, 0.2, 0.9, 0.3, 0.6, 0.5, 0.8, 0.1]).unwrap();
        let m = StableMarriage.run(&s, &MatchContext::default());
        assert_eq!(m.matched_count(), 2);
        assert_eq!(find_blocking_pair(&s, &m), None);
    }

    #[test]
    fn empty_instances() {
        let m = StableMarriage.run(&Matrix::zeros(3, 0), &MatchContext::default());
        assert_eq!(m.assignment(), &[None, None, None]);
        assert!(StableMarriage
            .run(&Matrix::zeros(0, 3), &MatchContext::default())
            .is_empty());
    }

    /// Gale–Shapley over full `Vec<Vec<usize>>` preference lists from a
    /// stable comparison sort on the total comparator: the form the lazy
    /// lists replaced.
    fn nested_lists_oracle(scores: &Matrix) -> Matching {
        use entmatcher_linalg::rank::cmp_desc;
        let (n_s, n_t) = scores.shape();
        let prefs: Vec<Vec<usize>> = (0..n_s)
            .map(|u| {
                let row = scores.row(u);
                let mut order: Vec<usize> = (0..n_t).collect();
                order.sort_by(|&a, &b| cmp_desc(row[a], row[b]));
                order
            })
            .collect();
        let mut next_choice = vec![0usize; n_s];
        let mut engaged_to: Vec<Option<u32>> = vec![None; n_t];
        let mut queue: VecDeque<usize> = (0..n_s).collect();
        while let Some(u) = queue.pop_front() {
            while next_choice[u] < n_t {
                let v = prefs[u][next_choice[u]];
                next_choice[u] += 1;
                match engaged_to[v] {
                    None => {
                        engaged_to[v] = Some(u as u32);
                        break;
                    }
                    Some(current) if scores.get(u, v) > scores.get(current as usize, v) => {
                        engaged_to[v] = Some(u as u32);
                        queue.push_back(current as usize);
                        break;
                    }
                    Some(_) => {}
                }
            }
        }
        let mut assignment = vec![None; n_s];
        for (v, holder) in engaged_to.iter().enumerate() {
            if let Some(u) = holder {
                assignment[*u as usize] = Some(v as u32);
            }
        }
        Matching::new(assignment)
    }

    #[test]
    fn lazy_lists_equal_the_nested_form_and_stay_stable() {
        use entmatcher_support::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(47);
        let mut shapes: Vec<(usize, usize)> = (0..30)
            .map(|_| (rng.gen_range(1..60usize), rng.gen_range(1..60usize)))
            .collect();
        shapes.extend([(1, 1), (1, 40), (40, 1), (200, 128), (200, 150), (150, 200)]);
        shapes.extend([(520, 530), (600, 90), (90, 600)]);
        for (n_s, n_t) in shapes {
            let random = Matrix::from_fn(n_s, n_t, |_, _| rng.gen::<f32>());
            // Quarter steps: proposers meet exact ties in their lists.
            let grid = Matrix::from_fn(n_s, n_t, |_, _| rng.gen_range(0..5u32) as f32 * 0.25);
            // One shared preference list: source u proposes u + 1 times,
            // so every source from the 65th on sorts its whole row.
            let shared = Matrix::from_fn(n_s, n_t, |_, c| ((c * 7) % 13) as f32 - c as f32 * 1e-3);
            for (name, s) in [("random", random), ("tie grid", grid), ("shared", shared)] {
                let m = StableMarriage.run(&s, &MatchContext::default());
                assert_eq!(m, nested_lists_oracle(&s), "{name} {n_s}x{n_t}");
                assert_eq!(find_blocking_pair(&s, &m), None, "{name} {n_s}x{n_t}");
            }
        }
    }

    #[test]
    fn blocking_pair_detector_flags_unstable_matching() {
        let s = Matrix::from_vec(2, 2, vec![0.9, 0.1, 0.2, 0.8]).unwrap();
        // Swap the obvious assignment: (0->1, 1->0) is unstable.
        let bad = Matching::new(vec![Some(1), Some(0)]);
        assert!(find_blocking_pair(&s, &bad).is_some());
    }
}
