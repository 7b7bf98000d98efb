//! The end-to-end embedding-matching pipeline (Algorithm 1's
//! `Embedding_Matching()`): similarity metric -> score optimizer ->
//! matcher, with wall-time and peak-auxiliary-memory instrumentation
//! feeding the paper's efficiency analyses (Figure 5, Tables 6–8).
//!
//! Stage timings are recorded as telemetry spans (`pipeline` with
//! `similarity`/`optimize`/`match` children, plus a `pad` child under
//! `match` when the dummy protocol runs); the [`ExecutionReport`] fields
//! are derived from those same span measurements, so the report and an
//! exported trace always agree.

use crate::ann::{IvfIndex, IvfParams};
use crate::dummy::pad_with_dummies;
use crate::matching::{MatchContext, Matcher, Matching};
use crate::score::ScoreOptimizer;
use crate::similarity::{similarity_matrix, SimilarityMetric};
use entmatcher_linalg::{
    matmul_blocked_packed, normalize_rows_l2, Matrix, PackedAny, Precision,
};
use entmatcher_support::telemetry;
use std::time::Duration;

/// Score given to dummy cells when padding, as a quantile of the observed
/// score distribution. For the Hungarian matcher the exact value is
/// immaterial (the number of dummy assignments is fixed by the imbalance,
/// so the dummy score is a constant offset of every solution); for
/// Gale–Shapley it acts as an abstention threshold — a source proposes to
/// a dummy once all targets scoring above the quantile have rejected it.
pub const DUMMY_QUANTILE: f64 = 0.9;

/// A composed matching pipeline.
pub struct MatchPipeline {
    /// Similarity metric deriving `S` from the embeddings.
    pub metric: SimilarityMetric,
    /// Score optimizer refining `S`.
    pub optimizer: Box<dyn ScoreOptimizer>,
    /// Matcher producing aligned pairs.
    pub matcher: Box<dyn Matcher>,
    /// IVF candidate generation. `None` (the default) scores every pair
    /// densely. `Some` replaces the dense similarity pass with a
    /// per-source shortlist probed from an [`IvfIndex`] over the targets
    /// (cosine metric only — the index speaks dot products); the shortlist
    /// is densified with a below-minimum fill so the downstream optimizer
    /// and matcher are unchanged.
    pub candidates: Option<IvfParams>,
    /// Shortlist length per source under IVF candidates.
    pub shortlist_k: usize,
    /// Whether to square the score matrix with dummy nodes before matching
    /// (the paper's unmatchable-setting protocol for Hun./SMat, §5.1);
    /// dummy cells score [`DUMMY_QUANTILE`].
    pub pad_dummies: bool,
    /// Storage precision for the target-side packed operand in the cosine
    /// similarity pass, and for the IVF posting lists (which always take
    /// this precision, as in serving). At `F32` (default) nothing changes.
    /// At `F16`/`Int8` the dense cosine pass packs the normalized target
    /// into quantized GEMM strips and scores through the dequantize-fused
    /// micro-kernels — trading a bounded score perturbation (f16
    /// exact-widening; int8 ±scale/2 per element) for 2x/4x smaller packed
    /// operands. Distance metrics stay f32 (their kernels are not packed
    /// products).
    pub precision: Precision,
}

/// Outcome of one pipeline execution.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// The matching decisions.
    pub matching: Matching,
    /// Wall-clock time of similarity + optimization + matching.
    pub elapsed: Duration,
    /// Time spent computing the raw similarity matrix.
    pub similarity_time: Duration,
    /// Time spent in the score optimizer.
    pub optimize_time: Duration,
    /// Time spent in the matcher (including dummy padding).
    pub match_time: Duration,
    /// Estimated peak auxiliary heap bytes (score matrix + per-stage
    /// overhead), the basis of the Figure 5 memory comparison.
    pub peak_aux_bytes: usize,
    /// *Measured* peak live heap bytes over the whole pipeline span, from
    /// the counting allocator. 0 unless `ENTMATCHER_MEM` counting is on
    /// (and the running binary installs
    /// `entmatcher_support::alloc::CountingAlloc`); when present it is the
    /// ground truth the modeled `peak_aux_bytes` is validated against.
    pub measured_heap_peak_bytes: u64,
}

/// Estimates a quantile of the score distribution from a deterministic
/// sample (full sorting of an n^2 matrix would dominate the pipeline).
/// Non-finite scores are excluded — a single NaN would otherwise make the
/// `partial_cmp` sort order (and thus the returned quantile) arbitrary.
fn score_quantile(scores: &Matrix, q: f64) -> f32 {
    let data = scores.as_slice();
    let stride = (data.len() / 20_000).max(1);
    let mut sample: Vec<f32> = data
        .iter()
        .step_by(stride)
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    if sample.is_empty() {
        return 0.0;
    }
    sample.sort_by(|a, b| a.partial_cmp(b).expect("non-finite scores filtered"));
    let idx = ((sample.len() - 1) as f64 * q).round() as usize;
    sample[idx]
}

/// Expands per-source shortlists (best first) into a dense `n_s x n_t`
/// score matrix for the optimizer and matcher. Non-candidate cells get a
/// fill strictly below every shortlisted score (`min(min_score, 0) - 1`),
/// so they never outrank a real candidate.
fn densify(shortlist: &[Vec<(u32, f32)>], n_t: usize) -> Matrix {
    let fill = shortlist
        .iter()
        .flatten()
        .map(|&(_, s)| s)
        .fold(f32::INFINITY, f32::min)
        .min(0.0)
        - 1.0;
    let mut m = Matrix::from_fn(shortlist.len(), n_t, |_, _| fill);
    for (i, hits) in shortlist.iter().enumerate() {
        let row = m.row_mut(i);
        for &(j, s) in hits {
            row[j as usize] = s;
        }
    }
    m
}

impl MatchPipeline {
    /// Composes a pipeline.
    pub fn new(
        metric: SimilarityMetric,
        optimizer: Box<dyn ScoreOptimizer>,
        matcher: Box<dyn Matcher>,
    ) -> Self {
        MatchPipeline {
            metric,
            optimizer,
            matcher,
            candidates: None,
            shortlist_k: 32,
            pad_dummies: false,
            precision: Precision::F32,
        }
    }

    /// Generates candidates with an IVF index built from `params`, keeping
    /// the top `shortlist_k` scores per source.
    pub fn with_candidates(mut self, params: IvfParams, shortlist_k: usize) -> Self {
        assert!(shortlist_k >= 1, "shortlist must keep at least one candidate");
        self.candidates = Some(params);
        self.shortlist_k = shortlist_k;
        self
    }

    /// Selects the storage precision for packed similarity operands (see
    /// the [`MatchPipeline::precision`] field).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Enables dummy-node padding (see [`crate::dummy`]); dummy cells
    /// score the [`DUMMY_QUANTILE`] of the observed scores.
    pub fn with_dummies(mut self) -> Self {
        self.pad_dummies = true;
        self
    }

    /// Composite name, e.g. `"cosine+CSLS+Greedy"`; a non-f32 precision is
    /// appended as `"@f16"` / `"@int8"`.
    pub fn describe(&self) -> String {
        let base = format!(
            "{}+{}+{}",
            self.metric.name(),
            self.optimizer.name(),
            self.matcher.name()
        );
        match self.precision {
            Precision::F32 => base,
            p => format!("{base}@{}", p.name()),
        }
    }

    /// The similarity-stage score matrix. A distance metric, or dense f32
    /// cosine, is the plain [`similarity_matrix`]. Dense cosine at a
    /// reduced precision scores the row-normalized embeddings through the
    /// quantized packed operand. IVF candidates keep each source's top
    /// `shortlist_k` probed targets on the row-normalized embeddings and
    /// densify them with a below-minimum fill, so non-candidates can never
    /// outrank a scored pair downstream.
    fn candidate_scores(&self, source: &Matrix, target: &Matrix) -> Matrix {
        if self.metric != SimilarityMetric::Cosine
            || (self.candidates.is_none() && self.precision == Precision::F32)
        {
            return similarity_matrix(source, target, self.metric);
        }
        let mut s = source.clone();
        let mut t = target.clone();
        normalize_rows_l2(&mut s);
        normalize_rows_l2(&mut t);
        let Some(params) = self.candidates else {
            // Quantized dense cosine: pack the normalized target at the
            // reduced precision and run the dequantize-fused GEMM. The
            // packed operand (the O(n·d) term) shrinks by the element
            // width; the O(n²) score matrix is unchanged.
            let packed = PackedAny::pack(&t, self.precision);
            return matmul_blocked_packed(&s, &packed)
                .expect("normalized copies share the embedding dimension");
        };
        let params = IvfParams {
            precision: self.precision,
            ..params
        };
        let index = IvfIndex::build(&t, &params);
        let shortlist = index.search(&s, self.shortlist_k, index.default_nprobe());
        telemetry::add(
            "pipeline.shortlist.candidates",
            shortlist.iter().map(|hits| hits.len() as u64).sum(),
        );
        densify(&shortlist, target.rows())
    }

    /// Runs the full pipeline on unified candidate embeddings
    /// (`n_s x d` source rows, `n_t x d` target rows).
    pub fn execute(&self, source: &Matrix, target: &Matrix, ctx: &MatchContext) -> ExecutionReport {
        let total_span = telemetry::span("pipeline");
        let (n_s, n_t) = (source.rows(), target.rows());
        let padding = self.pad_dummies && n_s != n_t;

        let mut sim_span = telemetry::span("similarity");
        let scores = self.candidate_scores(source, target);
        let sim_bytes = scores.heap_bytes();
        sim_span.add_bytes(sim_bytes as u64);
        let similarity_time = sim_span.finish();

        let mut opt_span = telemetry::span("optimize");
        let opt_bytes = self.optimizer.aux_bytes(n_s, n_t);
        opt_span.add_bytes(opt_bytes as u64);
        let scores = self.optimizer.apply(scores);
        let optimize_time = opt_span.finish();

        // With dummy padding the matcher runs on the padded n x n matrix,
        // so its memory estimate must use the padded dimensions too.
        let n = n_s.max(n_t);
        let (match_s, match_t) = if padding { (n, n) } else { (n_s, n_t) };
        let matcher_bytes = self.matcher.aux_bytes(match_s, match_t);
        let pad_bytes = if padding { n * n * 4 } else { 0 };

        let mut match_span = telemetry::span("match");
        match_span.add_bytes((matcher_bytes + pad_bytes) as u64);
        let matching = if padding {
            let mut pad_span = telemetry::span("pad");
            pad_span.add_bytes(pad_bytes as u64);
            let dummy = score_quantile(&scores, DUMMY_QUANTILE);
            let padded = pad_with_dummies(&scores, dummy);
            drop(pad_span);
            let m = self.matcher.run(&padded.scores, ctx);
            padded.strip(&m)
        } else {
            self.matcher.run(&scores, ctx)
        };
        let match_time = match_span.finish();

        let peak_aux_bytes = sim_bytes + opt_bytes + matcher_bytes + pad_bytes;
        // Read the measured peak before `finish()` consumes the guard; the
        // span record keeps the same value for exported traces.
        let measured_heap_peak_bytes = total_span.heap_live_peak();
        ExecutionReport {
            matching,
            elapsed: total_span.finish(),
            similarity_time,
            optimize_time,
            match_time,
            peak_aux_bytes,
            measured_heap_peak_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::greedy::Greedy;
    use crate::matching::hungarian::Hungarian;
    use crate::score::{csls::Csls, NoOp};

    fn toy_embeddings() -> (Matrix, Matrix) {
        // Three well-separated directions, shared by both sides.
        let m = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.707, 0.707]).unwrap();
        (m.clone(), m)
    }

    #[test]
    fn dinf_pipeline_matches_identity() {
        let (s, t) = toy_embeddings();
        let p = MatchPipeline::new(SimilarityMetric::Cosine, Box::new(NoOp), Box::new(Greedy));
        let r = p.execute(&s, &t, &MatchContext::default());
        assert_eq!(r.matching.assignment(), &[Some(0), Some(1), Some(2)]);
        assert!(r.peak_aux_bytes >= 9 * 4);
        assert_eq!(p.describe(), "cosine+none+Greedy");
    }

    #[test]
    fn csls_pipeline_reports_more_memory_than_dinf() {
        let (s, t) = toy_embeddings();
        let dinf = MatchPipeline::new(SimilarityMetric::Cosine, Box::new(NoOp), Box::new(Greedy));
        let csls = MatchPipeline::new(
            SimilarityMetric::Cosine,
            Box::new(Csls::default()),
            Box::new(Greedy),
        );
        let a = dinf.execute(&s, &t, &MatchContext::default());
        let b = csls.execute(&s, &t, &MatchContext::default());
        assert!(b.peak_aux_bytes > a.peak_aux_bytes);
        assert_eq!(a.matching, b.matching);
    }

    #[test]
    fn dummy_padding_abstains_on_surplus_sources() {
        // 3 sources, 2 targets: sources 0/1 match cleanly, source 2 is a
        // poor fit everywhere and must abstain under Hungarian+dummies.
        let s = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.4, 0.4]).unwrap();
        let t = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let p = MatchPipeline::new(
            SimilarityMetric::Cosine,
            Box::new(NoOp),
            Box::new(Hungarian),
        )
        .with_dummies();
        let r = p.execute(&s, &t, &MatchContext::default());
        assert_eq!(r.matching.assignment()[0], Some(0));
        assert_eq!(r.matching.assignment()[1], Some(1));
        assert_eq!(r.matching.assignment()[2], None);
    }

    #[test]
    fn elapsed_is_measured() {
        let (s, t) = toy_embeddings();
        let p = MatchPipeline::new(SimilarityMetric::Cosine, Box::new(NoOp), Box::new(Greedy));
        let r = p.execute(&s, &t, &MatchContext::default());
        assert!(r.elapsed.as_nanos() > 0);
        // Stage times are each bounded by the total.
        assert!(r.similarity_time <= r.elapsed);
        assert!(r.optimize_time <= r.elapsed);
        assert!(r.match_time <= r.elapsed);
    }

    #[test]
    fn score_quantile_ignores_non_finite_scores() {
        let clean = Matrix::from_vec(1, 5, vec![0.1, 0.2, 0.3, 0.4, 0.5]).unwrap();
        let dirty = Matrix::from_vec(
            1,
            8,
            vec![f32::NAN, 0.1, 0.2, f32::INFINITY, 0.3, 0.4, f32::NEG_INFINITY, 0.5],
        )
        .unwrap();
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(
                score_quantile(&dirty, q),
                score_quantile(&clean, q),
                "q={q}: NaN/inf must not perturb the quantile"
            );
        }
        // All-NaN input degrades to the 0.0 fallback instead of indexing
        // an arbitrarily ordered sample.
        let all_nan = Matrix::from_vec(1, 2, vec![f32::NAN, f32::NAN]).unwrap();
        assert_eq!(score_quantile(&all_nan, 0.9), 0.0);
        assert_eq!(score_quantile(&Matrix::zeros(0, 0), 0.5), 0.0);
    }

    /// A matcher probe that records the dimensions its `aux_bytes` was
    /// asked about, so tests can pin the padded-dimension accounting.
    struct DimProbe {
        asked: std::sync::Mutex<Vec<(usize, usize)>>,
    }

    impl Matcher for DimProbe {
        fn name(&self) -> &'static str {
            "DimProbe"
        }

        fn run(&self, scores: &Matrix, _ctx: &MatchContext) -> Matching {
            Matching::new(vec![None; scores.rows()])
        }

        fn aux_bytes(&self, n_s: usize, n_t: usize) -> usize {
            self.asked.lock().unwrap().push((n_s, n_t));
            n_s * n_t
        }
    }

    #[test]
    fn padded_pipeline_accounts_matcher_memory_at_padded_dims() {
        // 3 sources, 2 targets: padding squares the matrix to 3 x 3, and
        // the matcher's memory estimate must be asked about 3 x 3, not the
        // unpadded 3 x 2 it never sees.
        let s = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.4, 0.4]).unwrap();
        let t = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let probe = DimProbe {
            asked: std::sync::Mutex::new(Vec::new()),
        };
        let p = MatchPipeline::new(SimilarityMetric::Cosine, Box::new(NoOp), Box::new(probe))
            .with_dummies();
        let r = p.execute(&s, &t, &MatchContext::default());
        // Downcast-free readback: the probe is owned by the pipeline, so
        // re-derive expectations from the report instead. sim matrix 3x2
        // f32 = 24 bytes, matcher 3*3 = 9, pad buffer 3*3*4 = 36.
        assert_eq!(r.peak_aux_bytes, 24 + 9 + 36);

        // Unpadded comparison: same matcher estimate at true dims (3*2=6),
        // no pad buffer — strictly less than the padded report.
        let probe2 = DimProbe {
            asked: std::sync::Mutex::new(Vec::new()),
        };
        let p2 = MatchPipeline::new(SimilarityMetric::Cosine, Box::new(NoOp), Box::new(probe2));
        let r2 = p2.execute(&s, &t, &MatchContext::default());
        assert_eq!(r2.peak_aux_bytes, 24 + 6);
        assert!(r.peak_aux_bytes > r2.peak_aux_bytes);
    }

    #[test]
    fn execution_report_is_a_view_of_the_trace() {
        use entmatcher_support::telemetry;

        let (s, t) = toy_embeddings();
        let p = MatchPipeline::new(
            SimilarityMetric::Cosine,
            Box::new(Csls::default()),
            Box::new(Greedy),
        );
        let registry: &telemetry::Telemetry = Box::leak(Box::default());
        registry.set_enabled(true);
        let _installed = registry.install();
        let r = p.execute(&s, &t, &MatchContext::default());
        let trace = registry.snapshot();

        // The pipeline span is the one whose duration the report carries.
        let pipeline = trace
            .spans_named("pipeline")
            .find(|sp| sp.duration_ns == r.elapsed.as_nanos() as u64)
            .expect("pipeline span recorded");
        let stages = [
            ("similarity", r.similarity_time),
            ("optimize", r.optimize_time),
            ("match", r.match_time),
        ];
        for (name, want) in stages {
            let span = trace
                .spans_named(name)
                .find(|sp| sp.parent == Some(pipeline.id))
                .unwrap_or_else(|| panic!("{name} span under pipeline"));
            assert_eq!(
                span.duration_ns,
                want.as_nanos() as u64,
                "{name} report field must equal its span"
            );
            assert!(span.duration_ns <= pipeline.duration_ns);
        }
        // Stage byte attributions sum to the report's peak estimate.
        let byte_sum: u64 = trace
            .children(pipeline.id)
            .iter()
            .map(|sp| sp.bytes)
            .sum();
        assert_eq!(byte_sum, r.peak_aux_bytes as u64);
        // The stages run on the pipeline's thread, so all four spans share
        // one real thread lane (lanes are 1-based) — the invariant behind
        // the Chrome export's per-thread rows.
        assert!(pipeline.tid >= 1, "pipeline span missing thread lane");
        assert!(trace
            .children(pipeline.id)
            .iter()
            .all(|sp| sp.tid == pipeline.tid));
    }

    #[test]
    fn candidate_strategies_agree_with_exact_on_easy_data() {
        use entmatcher_data::{clustered_embeddings, EmbeddingSpec};

        let pair = clustered_embeddings(&EmbeddingSpec {
            entities: 150,
            dim: 16,
            clusters: 10,
            spread: 0.25,
            noise: 0.05,
            seed: 31,
        });
        // NoOp optimizer so disagreement measures candidate recall alone:
        // CSLS's neighbourhood statistics shift under densified fill and
        // would conflate rescoring drift with missed candidates.
        let ctx = MatchContext::default();
        let dinf =
            || MatchPipeline::new(SimilarityMetric::Cosine, Box::new(NoOp), Box::new(Greedy));
        let exact = dinf().execute(&pair.source, &pair.target, &ctx);
        let approx = dinf()
            .with_candidates(IvfParams::default(), 16)
            .execute(&pair.source, &pair.target, &ctx);
        let agree = exact
            .matching
            .assignment()
            .iter()
            .zip(approx.matching.assignment())
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            agree >= 135,
            "ivf strategy agrees with exact on only {agree}/150 sources"
        );
    }

    #[test]
    fn full_width_ivf_with_a_nan_target_row_matches_exact() {
        use entmatcher_data::{clustered_embeddings, EmbeddingSpec};

        let mut pair = clustered_embeddings(&EmbeddingSpec {
            entities: 120,
            dim: 16,
            clusters: 8,
            spread: 0.25,
            noise: 0.05,
            seed: 19,
        });
        pair.target.row_mut(7).fill(f32::NAN);
        let ctx = MatchContext::default();
        let dinf =
            || MatchPipeline::new(SimilarityMetric::Cosine, Box::new(NoOp), Box::new(Greedy));
        let exact = dinf().execute(&pair.source, &pair.target, &ctx);
        let full_width = IvfParams {
            nlist: 8,
            nprobe: 8,
            ..IvfParams::default()
        };
        let ivf = dinf()
            .with_candidates(full_width, 4)
            .execute(&pair.source, &pair.target, &ctx);
        assert_eq!(ivf.matching, exact.matching);
        assert!(!exact.matching.assignment().contains(&Some(7)));
    }

    #[test]
    fn densify_round_trips_scores() {
        let m = densify(&[vec![(1, 0.5)], vec![]], 3);
        assert_eq!(m.shape(), (2, 3));
        let fill = m.row(1)[0];
        assert!(fill < 0.5);
        assert_eq!(m.row(0), &[fill, 0.5, fill]);
        assert_eq!(m.row(1), &[fill, fill, fill]);
        // The fill also stays below negative scores, and a shortlist with
        // no scores at all fills with -1.
        assert_eq!(densify(&[vec![(0, -2.0)], vec![]], 2).row(1), &[-3.0, -3.0]);
        assert_eq!(densify(&[vec![]], 2).row(0), &[-1.0, -1.0]);
    }

    #[test]
    fn quantized_precisions_track_f32_decisions() {
        use entmatcher_data::{clustered_embeddings, EmbeddingSpec};

        let pair = clustered_embeddings(&EmbeddingSpec {
            entities: 150,
            dim: 16,
            clusters: 10,
            spread: 0.25,
            noise: 0.05,
            seed: 77,
        });
        let build = |precision| {
            MatchPipeline::new(SimilarityMetric::Cosine, Box::new(NoOp), Box::new(Greedy))
                .with_precision(precision)
        };
        let f32_run = build(Precision::F32)
            .execute(&pair.source, &pair.target, &MatchContext::default());
        for precision in [Precision::F16, Precision::Int8] {
            let q = build(precision).execute(&pair.source, &pair.target, &MatchContext::default());
            let agree = f32_run
                .matching
                .assignment()
                .iter()
                .zip(q.matching.assignment())
                .filter(|(a, b)| a == b)
                .count();
            assert!(
                agree >= 145,
                "{} agrees with f32 on only {agree}/150 sources",
                precision.name()
            );
        }
    }

    #[test]
    fn describe_appends_non_f32_precision() {
        let p = MatchPipeline::new(SimilarityMetric::Cosine, Box::new(NoOp), Box::new(Greedy));
        assert_eq!(p.describe(), "cosine+none+Greedy");
        let p = p.with_precision(Precision::Int8);
        assert_eq!(p.describe(), "cosine+none+Greedy@int8");
    }

    #[test]
    fn quantized_similarity_emits_pack_span() {
        use entmatcher_support::telemetry;

        let (s, t) = toy_embeddings();
        let p = MatchPipeline::new(SimilarityMetric::Cosine, Box::new(NoOp), Box::new(Greedy))
            .with_precision(Precision::Int8);
        let registry: &telemetry::Telemetry = Box::leak(Box::default());
        registry.set_enabled(true);
        let _installed = registry.install();
        let r = p.execute(&s, &t, &MatchContext::default());
        let trace = registry.snapshot();

        let sim = trace
            .spans_named("similarity")
            .find(|sp| sp.duration_ns == r.similarity_time.as_nanos() as u64)
            .expect("similarity span recorded");
        assert!(
            trace
                .children(sim.id)
                .iter()
                .any(|sp| sp.name == "quant.pack"),
            "quant.pack span under similarity"
        );
        assert!(trace.counter("quant.packed_bytes").unwrap_or(0) > 0);
    }

    #[test]
    fn ivf_strategy_emits_probe_spans_under_similarity() {
        use entmatcher_data::{clustered_embeddings, EmbeddingSpec};
        use entmatcher_support::telemetry;

        let pair = clustered_embeddings(&EmbeddingSpec {
            entities: 80,
            dim: 16,
            clusters: 8,
            spread: 0.25,
            noise: 0.05,
            seed: 12,
        });
        let p = MatchPipeline::new(
            SimilarityMetric::Cosine,
            Box::new(NoOp),
            Box::new(Greedy),
        )
        .with_candidates(IvfParams::default(), 8);
        let registry: &telemetry::Telemetry = Box::leak(Box::default());
        registry.set_enabled(true);
        let _installed = registry.install();
        let r = p.execute(&pair.source, &pair.target, &MatchContext::default());
        let trace = registry.snapshot();

        let sim = trace
            .spans_named("similarity")
            .find(|sp| sp.duration_ns == r.similarity_time.as_nanos() as u64)
            .expect("similarity span recorded");
        let kids = trace.children(sim.id);
        assert!(
            kids.iter().any(|sp| sp.name == "ann.train"),
            "ann.train under similarity, got {kids:?}"
        );
        assert!(
            kids.iter().any(|sp| sp.name == "ann.probe"),
            "ann.probe under similarity, got {kids:?}"
        );
        assert!(trace.counter("ann.candidates").unwrap_or(0) > 0);
        assert!(trace.counter("pipeline.shortlist.candidates").unwrap_or(0) > 0);
    }

    #[test]
    fn padded_run_emits_pad_span_under_match() {
        use entmatcher_support::telemetry;

        let s = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.4, 0.4]).unwrap();
        let t = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let p = MatchPipeline::new(
            SimilarityMetric::Cosine,
            Box::new(NoOp),
            Box::new(Hungarian),
        )
        .with_dummies();
        let registry: &telemetry::Telemetry = Box::leak(Box::default());
        registry.set_enabled(true);
        let _installed = registry.install();
        let r = p.execute(&s, &t, &MatchContext::default());
        let trace = registry.snapshot();

        let match_span = trace
            .spans_named("match")
            .find(|sp| sp.duration_ns == r.match_time.as_nanos() as u64)
            .expect("match span recorded");
        let pads = trace.children(match_span.id);
        assert!(
            pads.iter().any(|sp| sp.name == "pad" && sp.bytes == 9 * 4),
            "pad child span with the padded-buffer bytes, got {pads:?}"
        );
    }
}
