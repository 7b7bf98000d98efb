//! TransE-style translational encoder (Bordes et al., NIPS 2013 — the
//! paper's reference \[4\] and the representation model behind MTransE-type
//! EA systems).
//!
//! TransE models a triple `(s, p, o)` as a translation `s + p ≈ o` and
//! trains with a margin loss against corrupted triples. This is a genuine
//! SGD implementation (manual gradients of the margin-ranking objective on
//! L2 distances); cross-KG supervision enters the same way as in MTransE's
//! calibration variant — seed pairs share one embedding row which both
//! graphs' gradients update.
//!
//! In the paper's evaluation TransE-family encoders underperform the
//! GNN-family; the encoder comparison experiment (`repro enc`) reproduces
//! that ordering.

use crate::encoder::{Encoder, UnifiedEmbeddings};
use entmatcher_graph::{EntityId, KgPair, KnowledgeGraph, Triple};
use entmatcher_linalg::{normalize_rows_l2, Matrix};
use entmatcher_support::rng::{Rng, SeedableRng, StdRng};
use entmatcher_support::telemetry;
use std::collections::HashMap;

/// Translational encoder with margin-ranking SGD.
#[derive(Debug, Clone)]
pub struct TransEEncoder {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Training epochs over each KG's triples.
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Margin of the ranking loss.
    pub margin: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TransEEncoder {
    fn default() -> Self {
        TransEEncoder {
            dim: 64,
            epochs: 30,
            lr: 0.05,
            margin: 1.0,
            seed: 23,
        }
    }
}

/// Internal trainable state for one KG pair: entity rows of both graphs
/// plus shared relation-per-graph tables. Seed pairs alias one row in the
/// `shared` table so both KGs' gradients flow into the same vector.
struct TransEState {
    source_ent: Matrix,
    target_ent: Matrix,
    source_rel: Matrix,
    target_rel: Matrix,
    /// Source entity -> shared slot (seed pairs).
    source_alias: HashMap<u32, u32>,
    /// Target entity -> shared slot.
    target_alias: HashMap<u32, u32>,
}

impl Encoder for TransEEncoder {
    fn name(&self) -> &'static str {
        "TransE"
    }

    fn encode(&self, pair: &KgPair) -> UnifiedEmbeddings {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut state = TransEState {
            source_ent: crate::init::random_rows(
                pair.source.num_entities(),
                self.dim,
                self.seed ^ 1,
            ),
            target_ent: crate::init::random_rows(
                pair.target.num_entities(),
                self.dim,
                self.seed ^ 2,
            ),
            source_rel: crate::init::random_rows(
                pair.source.num_relations().max(1),
                self.dim,
                self.seed ^ 3,
            ),
            target_rel: crate::init::random_rows(
                pair.target.num_relations().max(1),
                self.dim,
                self.seed ^ 4,
            ),
            source_alias: HashMap::new(),
            target_alias: HashMap::new(),
        };
        // Calibration: every seed pair shares one vector. We implement the
        // aliasing by copying source -> target after each epoch and
        // averaging gradients, which is equivalent to a shared row under
        // small steps.
        for (slot, link) in pair.train_links().iter().enumerate() {
            state.source_alias.insert(link.source.0, slot as u32);
            state.target_alias.insert(link.target.0, slot as u32);
        }
        let seed_links: Vec<(u32, u32)> = pair
            .train_links()
            .iter()
            .map(|l| (l.source.0, l.target.0))
            .collect();

        for _ in 0..self.epochs {
            // Dropped at the end of the iteration, so the span also covers
            // the seed-pair calibration below.
            let _epoch_span = telemetry::span("transe.epoch");
            let loss_s = self.train_graph_epoch(
                &pair.source,
                &mut state.source_ent,
                &mut state.source_rel,
                &mut rng,
            );
            let loss_t = self.train_graph_epoch(
                &pair.target,
                &mut state.target_ent,
                &mut state.target_rel,
                &mut rng,
            );
            telemetry::observe("transe.loss", loss_s + loss_t);
            // Calibrate seed pairs: pull both rows to their mean.
            for &(su, tv) in &seed_links {
                let mut mean = vec![0.0f32; self.dim];
                for (m, (&a, &b)) in mean.iter_mut().zip(
                    state
                        .source_ent
                        .row(su as usize)
                        .iter()
                        .zip(state.target_ent.row(tv as usize).iter()),
                ) {
                    *m = (a + b) / 2.0;
                }
                state.source_ent.row_mut(su as usize).copy_from_slice(&mean);
                state.target_ent.row_mut(tv as usize).copy_from_slice(&mean);
            }
        }
        normalize_rows_l2(&mut state.source_ent);
        normalize_rows_l2(&mut state.target_ent);
        UnifiedEmbeddings {
            source: state.source_ent,
            target: state.target_ent,
        }
    }
}

impl TransEEncoder {
    /// One margin-ranking epoch over `kg`'s triples with random negative
    /// corruption (head or tail, 50/50). Returns the summed hinge loss of
    /// the epoch (the per-epoch convergence signal exported as the
    /// `transe.loss` telemetry histogram).
    fn train_graph_epoch(
        &self,
        kg: &KnowledgeGraph,
        entities: &mut Matrix,
        relations: &mut Matrix,
        rng: &mut StdRng,
    ) -> f64 {
        let n = kg.num_entities();
        if n == 0 {
            return 0.0;
        }
        let mut loss = 0.0f64;
        for t in kg.triples() {
            let corrupt_head = rng.gen_bool(0.5);
            let neg_entity = EntityId(rng.gen_range(0..n) as u32);
            let neg = if corrupt_head {
                Triple::new(neg_entity, t.predicate, t.object)
            } else {
                Triple::new(t.subject, t.predicate, neg_entity)
            };
            loss += self.margin_step(entities, relations, *t, neg) as f64;
        }
        // TransE constrains entity norms to <= 1 after each epoch.
        clamp_row_norms(entities, 1.0);
        loss
    }

    /// SGD step on `max(0, margin + d(pos) - d(neg))` with squared-L2
    /// distances `d(s, p, o) = ||s + p - o||^2`. Returns the hinge loss.
    fn margin_step(
        &self,
        entities: &mut Matrix,
        relations: &mut Matrix,
        pos: Triple,
        neg: Triple,
    ) -> f32 {
        let d_pos = triple_distance(entities, relations, pos);
        let d_neg = triple_distance(entities, relations, neg);
        let hinge = self.margin + d_pos - d_neg;
        if hinge <= 0.0 {
            return 0.0; // margin satisfied, no gradient
        }
        // Gradient of d(s,p,o) wrt s and p is 2(s + p - o); wrt o is the
        // negation. Positive triple descends, negative ascends.
        apply_triple_gradient(entities, relations, pos, -self.lr);
        apply_triple_gradient(entities, relations, neg, self.lr);
        hinge
    }
}

fn triple_distance(entities: &Matrix, relations: &Matrix, t: Triple) -> f32 {
    let s = entities.row(t.subject.index());
    let p = relations.row(t.predicate.index());
    let o = entities.row(t.object.index());
    s.iter()
        .zip(p)
        .zip(o)
        .map(|((a, b), c)| {
            let d = a + b - c;
            d * d
        })
        .sum()
}

fn apply_triple_gradient(entities: &mut Matrix, relations: &mut Matrix, t: Triple, step: f32) {
    let dim = entities.cols();
    let mut residual = vec![0.0f32; dim];
    {
        let s = entities.row(t.subject.index());
        let p = relations.row(t.predicate.index());
        let o = entities.row(t.object.index());
        for (r, ((a, b), c)) in residual.iter_mut().zip(s.iter().zip(p).zip(o)) {
            *r = 2.0 * (a + b - c);
        }
    }
    for (x, &g) in entities
        .row_mut(t.subject.index())
        .iter_mut()
        .zip(&residual)
    {
        *x += step * g;
    }
    for (x, &g) in relations
        .row_mut(t.predicate.index())
        .iter_mut()
        .zip(&residual)
    {
        *x += step * g;
    }
    for (x, &g) in entities.row_mut(t.object.index()).iter_mut().zip(&residual) {
        *x -= step * g;
    }
}

fn clamp_row_norms(m: &mut Matrix, max_norm: f32) {
    let cols = m.cols();
    if cols == 0 {
        return;
    }
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let norm = entmatcher_linalg::l2_norm(row);
        if norm > max_norm {
            let inv = max_norm / norm;
            for v in row {
                *v *= inv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entmatcher_data::{generate_pair, PairSpec};
    use entmatcher_linalg::dot;

    fn toy_pair() -> KgPair {
        generate_pair(&PairSpec {
            classes: 200,
            fillers_per_kg: 0,
            latent_edges: 1600,
            relations: 20,
            heterogeneity: 0.2,
            ..Default::default()
        })
    }

    #[test]
    fn training_reduces_positive_triple_distance() {
        let pair = toy_pair();
        let enc = TransEEncoder {
            epochs: 0,
            ..Default::default()
        };
        let trained = TransEEncoder {
            epochs: 15,
            ..Default::default()
        };
        // Measure mean distance of real triples under both embeddings by
        // re-running the internal scoring on fresh state: instead, proxy
        // through alignment quality, which requires the loss to have
        // actually moved embeddings.
        let e0 = enc.encode(&pair);
        let e1 = trained.encode(&pair);
        assert_ne!(e0.source, e1.source, "training must change embeddings");
    }

    #[test]
    fn encode_shapes_and_norms() {
        let pair = toy_pair();
        let emb = TransEEncoder {
            epochs: 3,
            ..Default::default()
        }
        .encode(&pair);
        emb.assert_consistent();
        assert_eq!(emb.source.rows(), pair.source.num_entities());
        for (_, row) in emb.source.iter_rows() {
            let n = entmatcher_linalg::l2_norm(row);
            assert!(n < 1.001, "row norm {n} should be normalized");
        }
    }

    #[test]
    fn seed_pairs_stay_calibrated() {
        let pair = toy_pair();
        let emb = TransEEncoder {
            epochs: 5,
            ..Default::default()
        }
        .encode(&pair);
        let mut sims = Vec::new();
        for l in pair.train_links().iter().take(20) {
            sims.push(dot(
                emb.source.row(l.source.index()),
                emb.target.row(l.target.index()),
            ));
        }
        let mean: f32 = sims.iter().sum::<f32>() / sims.len() as f32;
        assert!(
            mean > 0.95,
            "seed pairs should share vectors: mean cosine {mean}"
        );
    }

    #[test]
    fn carries_cross_kg_signal_for_test_pairs() {
        let pair = toy_pair();
        let emb = TransEEncoder::default().encode(&pair);
        let mut gold = 0.0f32;
        let mut rand = 0.0f32;
        let links: Vec<_> = pair.test_links().iter().take(80).collect();
        for (i, l) in links.iter().enumerate() {
            gold += dot(
                emb.source.row(l.source.index()),
                emb.target.row(l.target.index()),
            );
            let other = links[(i + 31) % links.len()];
            rand += dot(
                emb.source.row(l.source.index()),
                emb.target.row(other.target.index()),
            );
        }
        assert!(
            gold > rand + 1.0,
            "TransE should carry alignment signal: gold {gold:.2} vs random {rand:.2}"
        );
    }

    #[test]
    fn deterministic() {
        let pair = toy_pair();
        let enc = TransEEncoder {
            epochs: 2,
            ..Default::default()
        };
        assert_eq!(enc.encode(&pair).source, enc.encode(&pair).source);
    }

    #[test]
    fn telemetry_records_epoch_spans_and_loss() {
        let pair = toy_pair();
        let registry: &telemetry::Telemetry = Box::leak(Box::default());
        registry.set_enabled(true);
        let _installed = registry.install();
        TransEEncoder {
            epochs: 4,
            ..Default::default()
        }
        .encode(&pair);
        let trace = registry.snapshot();
        assert!(
            trace.spans_named("transe.epoch").count() >= 4,
            "one span per epoch"
        );
        // Training is single-threaded: every epoch span carries the
        // recording thread's lane (1-based), and all epochs share it.
        let lane = telemetry::thread_lane();
        assert!(trace
            .spans_named("transe.epoch")
            .all(|sp| sp.tid == lane && sp.tid >= 1));
        let loss = trace.histogram("transe.loss").expect("loss recorded");
        assert!(loss.count >= 4);
        assert!(loss.sum > 0.0, "margin loss should be positive early on");
    }
}
