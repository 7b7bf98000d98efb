//! Facade-level integration of the extension APIs: streaming matching,
//! IVF candidate generation, multi-assignment matchers, ranking metrics,
//! geometry diagnostics and bootstrap significance — all driven through
//! the public `entmatcher` crate exactly as a downstream user would.

use entmatcher::core::streaming::{streaming_csls, streaming_greedy};
use entmatcher::core::{similarity_matrix, IvfParams, ProbabilisticMatcher, ThresholdMatcher};
use entmatcher::eval::geometry::geometry_report;
use entmatcher::eval::ranking::ranking_report;
use entmatcher::eval::significance::{bootstrap_f1, bootstrap_f1_difference};
use entmatcher::prelude::*;

fn prepared() -> (KgPair, MatchTask, Matrix, Matrix) {
    let spec = entmatcher::data::benchmarks::dbp15k("D-Z", 0.04);
    let pair = generate_pair(&spec);
    let emb = RreaEncoder::default().encode(&pair);
    let task = MatchTask::from_pair(&pair);
    let (src, tgt) = task.candidate_embeddings(&emb);
    (pair, task, src, tgt)
}

#[test]
fn streaming_kernels_agree_with_dense_pipelines() {
    let (_, task, src, tgt) = prepared();
    let ctx = MatchContext::default();
    let dense_dinf = AlgorithmPreset::DInf.build().execute(&src, &tgt, &ctx).matching;
    let stream_dinf = streaming_greedy(&src, &tgt, SimilarityMetric::Cosine, 256);
    assert_eq!(dense_dinf, stream_dinf);

    let dense_csls = AlgorithmPreset::Csls.build().execute(&src, &tgt, &ctx).matching;
    let stream_csls = streaming_csls(&src, &tgt, SimilarityMetric::Cosine, 10, 256);
    assert_eq!(dense_csls, stream_csls);

    // Equal decisions imply equal F1 — the scalability extension costs
    // nothing in quality.
    let f1 = |m: &Matching| evaluate_links(&task.matching_to_links(m), &task.gold).f1;
    assert_eq!(f1(&dense_csls), f1(&stream_csls));
}

#[test]
fn full_width_ivf_candidates_reproduce_dense_dinf() {
    let (_, _, src, tgt) = prepared();
    let ctx = MatchContext::default();
    let dense = AlgorithmPreset::DInf
        .build()
        .execute(&src, &tgt, &ctx)
        .matching;
    // Probing all 8 lists scans every target, so each source's best
    // candidate is its dense argmax.
    let full_width = IvfParams {
        nlist: 8,
        nprobe: 8,
        ..IvfParams::default()
    };
    let ivf = AlgorithmPreset::DInf
        .build()
        .with_candidates(full_width, 4)
        .execute(&src, &tgt, &ctx)
        .matching;
    assert_eq!(ivf, dense);
}

#[test]
fn ranking_and_geometry_reports_are_consistent_with_f1() {
    let (_, task, src, tgt) = prepared();
    let raw = similarity_matrix(&src, &tgt, SimilarityMetric::Cosine);
    let rank = ranking_report(&task, &raw);
    let dinf = AlgorithmPreset::DInf
        .build()
        .execute(&src, &tgt, &MatchContext::default())
        .matching;
    let f1 = evaluate_links(&task.matching_to_links(&dinf), &task.gold).f1;
    // Hits@1 over gold-linked candidates equals DInf recall when every
    // candidate is matchable (classic 1-to-1 setting).
    assert!((rank.hits_at_1 - f1).abs() < 1e-9, "hits@1 {} vs F1 {}", rank.hits_at_1, f1);
    assert!(rank.hits_at_10 >= rank.hits_at_5);
    assert!(rank.hits_at_5 >= rank.hits_at_1);
    assert!(rank.mrr >= rank.hits_at_1);

    let geom = geometry_report(&raw, 1);
    assert!(geom.k_occurrence_skewness.is_finite());
    assert!(geom.isolation_rate >= 0.0 && geom.isolation_rate <= 1.0);
}

#[test]
fn multi_assignment_matchers_behave_on_one_to_one_data() {
    // On clean 1-to-1 data, a tight threshold band behaves almost like
    // greedy: most sources get exactly one prediction.
    let (_, task, src, tgt) = prepared();
    let raw = similarity_matrix(&src, &tgt, SimilarityMetric::Cosine);
    let multi = ThresholdMatcher::default().run_multi(&raw);
    assert_eq!(multi.assignments().len(), task.num_sources());
    let avg = multi.total_predictions() as f64 / task.num_sources() as f64;
    assert!(avg < 2.0, "1-to-1 data should not explode predictions: avg {avg:.2}");
    let prob = ProbabilisticMatcher::default().run_multi(&raw);
    assert_eq!(prob.assignments().len(), task.num_sources());
}

#[test]
fn significance_separates_real_gaps_from_self_comparison() {
    let (_, task, src, tgt) = prepared();
    let ctx = MatchContext::default();
    let dinf = task.matching_to_links(
        &AlgorithmPreset::DInf.build().execute(&src, &tgt, &ctx).matching,
    );
    let sink = task.matching_to_links(
        &AlgorithmPreset::Sinkhorn.build().execute(&src, &tgt, &ctx).matching,
    );
    let ci = bootstrap_f1(&sink, &task.gold, 200, 0.95, 5);
    assert!(ci.lo <= ci.point && ci.point <= ci.hi);
    let self_diff = bootstrap_f1_difference(&dinf, &dinf, &task.gold, 200, 0.95, 6);
    assert_eq!(self_diff.point, 0.0);
    assert_eq!(self_diff.lo, 0.0);
}
