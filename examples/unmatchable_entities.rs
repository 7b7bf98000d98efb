//! The unmatchable setting (paper §5.1): some entities have no counterpart
//! in the other KG. Greedy algorithms match them anyway and pay precision;
//! Hungarian with dummy-node padding can abstain.
//!
//! Run with: `cargo run --example unmatchable_entities --release`

use entmatcher::prelude::*;

fn main() {
    // A DBP15K+ analogue: the D-Z pair extended with unmatchable entities
    // (asymmetric per side, so the candidate sets are unbalanced).
    let spec = entmatcher::data::benchmarks::dbp15k_plus("D-Z", 0.03);
    let pair = generate_pair(&spec);
    println!(
        "pair {}: {} test links, {} unmatchable sources, {} unmatchable targets",
        pair.id,
        pair.test_links().len(),
        pair.unmatchable_sources.len(),
        pair.unmatchable_targets.len()
    );

    let embeddings = RreaEncoder::default().encode(&pair);
    let task = MatchTask::from_pair(&pair);
    let (src, tgt) = task.candidate_embeddings(&embeddings);
    let ctx = MatchContext::default();

    // DInf blindly assigns every source, including the unmatchable ones.
    let dinf = AlgorithmPreset::DInf.build();
    let r = dinf.execute(&src, &tgt, &ctx);
    let scores = evaluate_links(&task.matching_to_links(&r.matching), &task.gold);
    println!(
        "DInf:                P = {:.3}  R = {:.3}  F1 = {:.3}  ({} predictions)",
        scores.precision, scores.recall, scores.f1, scores.predicted
    );

    // CSLS sharpens scores but still predicts for every source.
    let csls = AlgorithmPreset::Csls.build();
    let r = csls.execute(&src, &tgt, &ctx);
    let scores = evaluate_links(&task.matching_to_links(&r.matching), &task.gold);
    println!(
        "CSLS:                P = {:.3}  R = {:.3}  F1 = {:.3}  ({} predictions)",
        scores.precision, scores.recall, scores.f1, scores.predicted
    );

    // The paper's dummy-node protocol equalizes the sides; the 1-to-1
    // matchers then *abstain* on the surplus sources, recovering precision.
    for preset in [AlgorithmPreset::Hungarian, AlgorithmPreset::StableMarriage] {
        let pipeline = preset.build().with_dummies();
        let r = pipeline.execute(&src, &tgt, &ctx);
        let links = task.matching_to_links(&r.matching);
        let scores = evaluate_links(&links, &task.gold);
        let abstained = r.matching.len() - r.matching.matched_count();
        println!(
            "{:<4} (with dummies): P = {:.3}  R = {:.3}  F1 = {:.3}  ({} predictions, {} abstained)",
            preset.name(),
            scores.precision,
            scores.recall,
            scores.f1,
            scores.predicted,
            abstained
        );
    }
}
