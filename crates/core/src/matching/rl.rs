//! RL-style sequence-decision matcher (paper §3.7, "RL").
//!
//! The paper casts matching as a sequential decision problem optimized by
//! an A3C agent with two coordination rewards: **exclusiveness** (an
//! already-taken target is penalized, softly discouraging duplicates) and
//! **coherence** (a decision agreeing with its graph neighbourhood's
//! decisions is rewarded), plus a pre-processing filter that locks in
//! confident pairs before the expensive learning loop.
//!
//! This implementation keeps the exact decision process and rewards but
//! replaces the neural policy with seeded stochastic policy improvement:
//! several episodes of epsilon-greedy sequential assignment, keeping the
//! highest-total-reward episode (`DESIGN.md` §3, substitution 3). The
//! evaluation-relevant behaviour — relaxed 1-to-1, unidirectional, slow,
//! sensitive to pairwise-score quality — is preserved.

use super::{MatchContext, Matcher, Matching};
use entmatcher_linalg::parallel::{par_map_rows_grained, Grain};
use entmatcher_linalg::rank::{cmp_desc, top_k_desc};
use entmatcher_linalg::Matrix;
use entmatcher_support::rng::{Rng, SeedableRng, StdRng};
use std::collections::HashSet;

/// Sequence-decision matcher with coherence and exclusiveness rewards.
#[derive(Debug, Clone)]
pub struct RlMatcher {
    /// Policy-improvement episodes (the best-reward episode wins).
    pub episodes: usize,
    /// Reward penalty per prior assignment of the same target.
    pub exclusiveness_penalty: f32,
    /// Reward bonus per neighbouring decision this one coheres with.
    pub coherence_bonus: f32,
    /// Confidence margin (top1 - top2 score) above which a mutual-NN pair
    /// is locked in by the pre-filter.
    pub prefilter_margin: f32,
    /// Exploration rate of the epsilon-greedy episodes.
    pub epsilon: f32,
    /// Candidate shortlist per decision (decisions pick among the top-c
    /// targets — the agent's action space).
    pub shortlist: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RlMatcher {
    fn default() -> Self {
        RlMatcher {
            episodes: 2,
            exclusiveness_penalty: 0.1,
            coherence_bonus: 0.02,
            prefilter_margin: 0.3,
            epsilon: 0.15,
            shortlist: 3,
            seed: 99,
        }
    }
}

impl Matcher for RlMatcher {
    fn name(&self) -> &'static str {
        "RL"
    }

    fn run(&self, scores: &Matrix, ctx: &MatchContext) -> Matching {
        let (n_s, n_t) = scores.shape();
        if n_s == 0 || n_t == 0 {
            return Matching::new(vec![None; n_s]);
        }
        let shortlist = self.shortlist.max(1).min(n_t);

        // Per-source shortlists (action spaces), in parallel; each item
        // selects from a full n_t-wide row.
        let actions: Vec<Vec<usize>> =
            par_map_rows_grained(n_s, Grain::for_item_cost(n_t), |i| {
                top_k_desc(scores.row(i), shortlist)
            });

        // --- Pre-filter: lock mutual-NN pairs with a confident margin ----
        let best_source_of_target = compute_column_argmax(scores);
        let mut fixed: Vec<Option<u32>> = vec![None; n_s];
        let mut taken = vec![0u32; n_t];
        let mut undecided = Vec::new();
        for i in 0..n_s {
            let acts = &actions[i];
            let top1 = acts[0];
            let margin = if acts.len() > 1 {
                scores.get(i, top1) - scores.get(i, acts[1])
            } else {
                f32::INFINITY
            };
            if margin >= self.prefilter_margin && best_source_of_target[top1] == i as u32 {
                fixed[i] = Some(top1 as u32);
                taken[top1] += 1;
            } else {
                undecided.push(i);
            }
        }

        // Decision order: most confident first (descending top score, NaN
        // last) — the sequence the paper's agent consumes.
        undecided
            .sort_by(|&a, &b| cmp_desc(scores.get(a, actions[a][0]), scores.get(b, actions[b][0])));

        // Target adjacency as hash sets for O(1) coherence lookups.
        let target_adj: Option<Vec<HashSet<u32>>> = ctx
            .target_adj
            .as_ref()
            .map(|adj| adj.iter().map(|ns| ns.iter().copied().collect()).collect());

        // --- Episodes ------------------------------------------------------
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut best_assignment = fixed.clone();
        let mut best_reward = f32::NEG_INFINITY;
        for episode in 0..self.episodes.max(1) {
            let mut assignment = fixed.clone();
            let mut taken_ep = taken.clone();
            let mut reward = 0.0f32;
            // Every episode explores: the stand-in policy is imperfect,
            // like the under-trained agent it emulates. Episode 0 is
            // mildly noisier-free to keep tiny instances deterministic.
            let eps = if episode == 0 {
                self.epsilon / 2.0
            } else {
                self.epsilon
            };
            for &u in &undecided {
                let acts = &actions[u];
                let mut best_v = None;
                let mut best_q = f32::NEG_INFINITY;
                for &v in acts {
                    let q = self.q_value(
                        scores,
                        ctx,
                        target_adj.as_deref(),
                        &assignment,
                        &taken_ep,
                        u,
                        v,
                    );
                    if q > best_q {
                        best_q = q;
                        best_v = Some(v);
                    }
                }
                // epsilon-greedy: sometimes take a random shortlist action.
                let (chosen, q) = if eps > 0.0 && rng.gen::<f32>() < eps {
                    let v = acts[rng.gen_range(0..acts.len())];
                    let q = self.q_value(
                        scores,
                        ctx,
                        target_adj.as_deref(),
                        &assignment,
                        &taken_ep,
                        u,
                        v,
                    );
                    (v, q)
                } else {
                    match best_v {
                        Some(v) => (v, best_q),
                        None => continue,
                    }
                };
                assignment[u] = Some(chosen as u32);
                taken_ep[chosen] += 1;
                reward += q;
            }
            if reward > best_reward {
                best_reward = reward;
                best_assignment = assignment;
            }
        }
        Matching::new(best_assignment)
    }

    fn aux_bytes(&self, n_s: usize, n_t: usize) -> usize {
        // Shortlists (a Vec header and `shortlist` slots per source),
        // three assignment copies and the decision order; taken counters,
        // the column argmax and one row's selection indices.
        n_s * (self.shortlist * 8 + 24) + n_s * 40 + n_t * 24
    }
}

impl RlMatcher {
    /// Reward of assigning source candidate `u` to target candidate `v`
    /// given the partial assignment so far.
    #[allow(clippy::too_many_arguments)]
    fn q_value(
        &self,
        scores: &Matrix,
        ctx: &MatchContext,
        target_adj: Option<&[HashSet<u32>]>,
        assignment: &[Option<u32>],
        taken: &[u32],
        u: usize,
        v: usize,
    ) -> f32 {
        let mut q = scores.get(u, v);
        // Exclusiveness: discourage (but do not forbid) reusing a target.
        q -= self.exclusiveness_penalty * taken[v] as f32;
        // Coherence: count u's already-decided source neighbours whose
        // targets are adjacent to v. A target past the adjacency (a dummy
        // column of a padded matrix) has no neighbours.
        if let (Some(src_adj), Some(tgt_adj)) = (ctx.source_adj.as_ref(), target_adj) {
            if let Some(neighbors) = src_adj.get(u) {
                let mut agree = 0u32;
                for &nu in neighbors {
                    if let Some(Some(nv)) = assignment.get(nu as usize) {
                        if tgt_adj.get(v).is_some_and(|adj| adj.contains(nv)) {
                            agree += 1;
                        }
                    }
                }
                q += self.coherence_bonus * agree as f32;
            }
        }
        q
    }
}

/// For each target column, the source row with the highest score.
fn compute_column_argmax(scores: &Matrix) -> Vec<u32> {
    let (n_s, n_t) = scores.shape();
    let mut best = vec![(0u32, f32::NEG_INFINITY); n_t];
    for i in 0..n_s {
        for (j, &s) in scores.row(i).iter().enumerate() {
            if s > best[j].1 {
                best[j] = (i as u32, s);
            }
        }
    }
    best.into_iter().map(|(i, _)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confident_diagonal_is_locked_by_prefilter() {
        let n = 10;
        let s = Matrix::from_fn(n, n, |r, c| if r == c { 0.9 } else { 0.1 });
        let m = RlMatcher::default().run(&s, &MatchContext::default());
        for (i, t) in m.assignment().iter().enumerate() {
            assert_eq!(*t, Some(i as u32));
        }
    }

    #[test]
    fn exclusiveness_diverts_conflicts() {
        // Both sources' raw best is target 0, with small margins so the
        // pre-filter does not fire; exclusiveness should split them.
        let s = Matrix::from_vec(2, 2, vec![0.80, 0.75, 0.82, 0.78]).unwrap();
        let m = RlMatcher::default().run(&s, &MatchContext::default());
        assert!(
            m.is_injective(),
            "penalty should avoid double-booking: {:?}",
            m.assignment()
        );
        assert_eq!(m.matched_count(), 2);
    }

    #[test]
    fn relaxed_constraint_allows_duplicates_when_dominant() {
        // Target 0 dominates massively for both sources; the soft penalty
        // must NOT force a bad diversification (non-strict 1-to-1).
        let s = Matrix::from_vec(2, 2, vec![0.99, 0.01, 0.98, 0.01]).unwrap();
        let m = RlMatcher {
            prefilter_margin: 10.0, // disable the pre-filter
            ..Default::default()
        }
        .run(&s, &MatchContext::default());
        assert_eq!(m.assignment(), &[Some(0), Some(0)]);
    }

    #[test]
    fn coherence_uses_neighbourhood_agreement() {
        // Source 1 is torn between targets 1 and 2 (target 2 slightly
        // better raw). Its neighbour source 0 is locked to target 0, and
        // target 1 — not target 2 — is adjacent to target 0. Coherence
        // must flip the decision.
        let s = Matrix::from_vec(2, 3, vec![0.95, 0.05, 0.05, 0.10, 0.70, 0.72]).unwrap();
        let ctx = MatchContext {
            source_adj: Some(vec![vec![1], vec![0]]),
            target_adj: Some(vec![vec![1], vec![0], vec![]]),
        };
        let m = RlMatcher {
            coherence_bonus: 0.1,
            prefilter_margin: 0.5,
            epsilon: 0.0,
            ..Default::default()
        }
        .run(&s, &ctx);
        assert_eq!(m.assignment()[0], Some(0));
        assert_eq!(
            m.assignment()[1],
            Some(1),
            "coherence should prefer the adjacent target"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let s = Matrix::from_fn(30, 30, |r, c| (((r * 17 + c * 5) % 13) as f32) / 13.0);
        let a = RlMatcher::default().run(&s, &MatchContext::default());
        let b = RlMatcher::default().run(&s, &MatchContext::default());
        assert_eq!(a, b);
    }

    #[test]
    fn nan_rows_sort_last_in_the_decision_order() {
        use entmatcher_support::rng::{Rng, SeedableRng, StdRng};
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let broken = rng.gen_range(0..200usize);
            let s = Matrix::from_fn(200, 200, |r, _| {
                if r == broken {
                    f32::NAN
                } else {
                    rng.gen::<f32>()
                }
            });
            let a = RlMatcher::default().run(&s, &MatchContext::default());
            assert_eq!(a.len(), 200);
            assert_eq!(a, RlMatcher::default().run(&s, &MatchContext::default()));
        }
    }

    #[test]
    fn dummy_padded_columns_are_isolated_targets() {
        use crate::spec::AlgorithmPreset;
        // Four sources, two targets: padding adds two dummy columns past
        // the target adjacency, and RL's coherence reward must read them
        // as targets without neighbours.
        let source = Matrix::from_fn(4, 3, |r, c| ((r * 3 + c) % 5) as f32 - 2.0);
        let target = source.select_rows(&[1, 3]).unwrap();
        let ctx = MatchContext {
            source_adj: Some(vec![vec![1, 2], vec![0, 3], vec![0], vec![1]]),
            target_adj: Some(vec![vec![1], vec![0]]),
        };
        let padded = AlgorithmPreset::Rl.build().with_dummies();
        let m = padded.execute(&source, &target, &ctx).matching;
        assert_eq!(m.len(), 4);
        assert!(m.assignment().iter().flatten().all(|&j| j < 2));
    }

    #[test]
    fn empty_instances() {
        let m = RlMatcher::default().run(&Matrix::zeros(2, 0), &MatchContext::default());
        assert_eq!(m.assignment(), &[None, None]);
        assert!(RlMatcher::default()
            .run(&Matrix::zeros(0, 2), &MatchContext::default())
            .is_empty());
    }
}
