//! Streaming (blocked) matching with sub-quadratic memory — the paper's
//! future direction 4 and the "preliminary exploration" it cites
//! (ClusterEA's normalized mini-batch similarities).
//!
//! Every dense algorithm in this library materializes the full `n_s x n_t`
//! score matrix; at DWY100K scale that alone is ~20 GB (paper Table 6).
//! The streaming kernels here recompute similarity block by block and keep
//! only O(n) state:
//!
//! * [`streaming_greedy`] — DInf without the matrix: per-source running
//!   argmax over the targets;
//! * [`streaming_csls`] — CSLS without the matrix: the two neighbourhood
//!   statistics come out of bounded per-entity heaps, then the decision
//!   pass applies the CSLS correction on the fly.
//!
//! Streaming is the cosine plan. Both run one private driver over the
//! **fused similarity -> reduction kernels** in `entmatcher_linalg::fused`:
//! score tiles come straight out of the register-tiled GEMM micro-kernel
//! and are reduced before the next tile is computed, so no strip of the
//! score matrix is ever materialized. The driver reads its targets from a
//! [`Targets`] source — resident rows, or a snapshot file read once,
//! `chunk_rows` at a time — at any storage [`Precision`]
//! ([`streaming_greedy_at`], [`streaming_csls_at`]), and packs them once:
//! the packed targets are the only packed operand, and the source is
//! never packed. Greedy is one scan (the argmax). CSLS is two: one scan
//! of the source against the packed targets yields both neighbourhood
//! statistics (each source row's top-k heap, and per-column top-k state
//! for the targets), and the second is the corrected argmax. Distance
//! metrics have no fused kernel (their pairwise kernels are not
//! products): they run dense, `Greedy` over [`similarity_matrix`] (and
//! over `Csls { k }` of it), at O(n_s · n_t) memory.
//!
//! Both produce *bit-identical decisions* to their dense counterparts
//! (asserted by tests): the fused tiles reuse the exact d-sequential
//! accumulation of the dense kernel, the bounded heaps report means in the
//! same canonical order as `top_k_mean`, the CSLS correction is evaluated
//! in the same operation order, and every running argmax follows
//! `rank::argmax`'s first-non-NaN rule. Each row's scores depend only on
//! that row and the packed operand, so a snapshot streamed in any chunk
//! size decides exactly like the same targets held in memory.

use crate::matching::greedy::Greedy;
use crate::matching::{MatchContext, Matcher, Matching};
use crate::score::csls::Csls;
use crate::score::ScoreOptimizer;
use crate::similarity::{similarity_matrix, SimilarityMetric};
use entmatcher_linalg::fused::{
    fused_argmax_affine_packed, fused_topk_means_both_packed, MAX_TILE_BYTES,
};
use entmatcher_linalg::gemm::NR;
use entmatcher_linalg::parallel::workers;
use entmatcher_linalg::snapshot::SnapshotReader;
use entmatcher_linalg::{normalize_rows_l2, Matrix, PackedAny, PackedBuilder, Precision};
use entmatcher_support::telemetry;
use std::path::Path;

/// The `block` argument of [`streaming_greedy`] and [`streaming_csls`]
/// that callers pass by default. It affects nothing: the cosine plan
/// fuses at tile level, and distance metrics run dense.
pub const DEFAULT_BLOCK: usize = 1024;

/// Where a streamed cosine match reads its target rows from.
#[derive(Debug, Clone, Copy)]
pub enum Targets<'a> {
    /// Target embeddings held in memory.
    Resident(&'a Matrix),
    /// An embedding snapshot file, read `chunk_rows` rows at a time so the
    /// full f32 target matrix is never resident: auxiliary memory beyond
    /// the packed operand is O(chunk_rows · d).
    Snapshot {
        /// Snapshot path (see `entmatcher_linalg::snapshot`).
        path: &'a Path,
        /// Rows per read.
        chunk_rows: usize,
    },
}

impl Targets<'_> {
    /// The L2-normalized targets packed at `precision` (width `d` when
    /// there are no rows). A snapshot is read once, `chunk_rows` rows at a
    /// time, through the builder, one `quant.stream.chunks` tick per chunk.
    fn pack_normalized(
        &self,
        precision: Precision,
        d: usize,
    ) -> entmatcher_linalg::Result<PackedAny> {
        match *self {
            Targets::Resident(t) => {
                let mut t = t.clone();
                normalize_rows_l2(&mut t);
                let mut builder = PackedBuilder::with_capacity(precision, d, t.rows());
                builder.append(&t)?;
                Ok(builder.finish())
            }
            Targets::Snapshot { path, chunk_rows } => {
                let mut reader = SnapshotReader::open(path)?;
                let mut builder = PackedBuilder::with_capacity(precision, d, reader.rows());
                let mut chunks = 0;
                while let Some(mut chunk) = reader.next_chunk(chunk_rows.max(1))? {
                    normalize_rows_l2(&mut chunk);
                    builder.append(&chunk)?;
                    chunks += 1;
                }
                telemetry::add("quant.stream.chunks", chunks);
                Ok(builder.finish())
            }
        }
    }
}

/// The cosine driver behind every streamed match: Greedy when `csls_k` is
/// `None`, CSLS + Greedy with neighbourhood size `k` otherwise.
fn stream_cosine(
    source: &Matrix,
    targets: Targets<'_>,
    csls_k: Option<usize>,
    precision: Precision,
) -> entmatcher_linalg::Result<Matching> {
    let mut s = source.clone();
    normalize_rows_l2(&mut s);
    let packed_t = targets.pack_normalized(precision, s.cols())?;
    let picks = match csls_k {
        Some(k) => {
            telemetry::add("fused.dispatch.csls", 1);
            // phi_u and phi_v come out of one scan against the packed
            // targets the decision pass uses; (2s + (-phi_u)) + (-phi_v)
            // is bitwise the dense (2s - phi_u) - phi_v.
            let (phi_s, phi_t) = fused_topk_means_both_packed(&s, &packed_t, k)?;
            let negate = |phi: Vec<f32>| -> Vec<f32> { phi.into_iter().map(|v| -v).collect() };
            let (neg_s, neg_t) = (negate(phi_s), negate(phi_t));
            fused_argmax_affine_packed(&s, &packed_t, 2.0, Some(&neg_s), Some(&neg_t))?
        }
        None => {
            telemetry::add("fused.dispatch.greedy", 1);
            fused_argmax_affine_packed(&s, &packed_t, 1.0, None, None)?
        }
    };
    Ok(Matching::new(picks))
}

/// Greedy (DInf) by cosine over `targets` at a storage `precision`,
/// without the score matrix. At [`Precision::F32`] the decisions equal
/// [`streaming_greedy`]'s bit for bit, for every target source and chunk
/// size; f16/int8 pack the normalized targets at the reduced width and
/// scan them with the dequantize-fused micro-kernels. Errors on a
/// snapshot that cannot be read or whose width differs from `source`'s.
pub fn streaming_greedy_at(
    source: &Matrix,
    targets: Targets<'_>,
    precision: Precision,
) -> entmatcher_linalg::Result<Matching> {
    stream_cosine(source, targets, None, precision)
}

/// CSLS + Greedy by cosine over `targets` at a storage `precision`,
/// without the score matrix; see [`streaming_greedy_at`] for the
/// precision, source and error contract. Both neighbourhood statistics
/// and the decision are taken from one score matrix, the normalized
/// source against the targets packed at `precision`, so at every
/// precision the decisions equal the dense `Csls { k }` + `Greedy` over
/// `matmul_blocked_packed(normalized source, PackedAny::pack(normalized
/// targets, precision))` bit for bit. Panics if `k == 0`.
pub fn streaming_csls_at(
    source: &Matrix,
    targets: Targets<'_>,
    k: usize,
    precision: Precision,
) -> entmatcher_linalg::Result<Matching> {
    assert!(k >= 1, "CSLS requires k >= 1");
    stream_cosine(source, targets, Some(k), precision)
}

/// Greedy (DInf) matching, by cosine without materializing the score
/// matrix: the fused argmax kernel ([`streaming_greedy_at`] at f32;
/// memory O(n_s + n_t) plus the packed targets). A distance metric runs
/// dense: `Greedy` over [`similarity_matrix`]. `block` affects nothing
/// (see [`DEFAULT_BLOCK`]).
pub fn streaming_greedy(
    source: &Matrix,
    target: &Matrix,
    metric: SimilarityMetric,
    _block: usize,
) -> Matching {
    assert_eq!(
        source.cols(),
        target.cols(),
        "source and target embeddings must share a dimensionality"
    );
    if metric == SimilarityMetric::Cosine {
        return streaming_greedy_at(source, Targets::Resident(target), Precision::F32)
            .expect("dims checked above");
    }
    let scores = similarity_matrix(source, target, metric);
    Greedy.run(&scores, &MatchContext::default())
}

/// CSLS + Greedy, by cosine without materializing the score matrix.
///
/// Cosine: the streaming driver — both phi vectors stream out of one
/// two-sided top-k scan against the packed targets, and the corrected
/// argmax streams out of the affine-argmax kernel. Decisions equal the
/// dense `Csls{k}` + `Greedy` path bit for bit. A distance metric runs
/// that dense path. `block` affects nothing (see [`DEFAULT_BLOCK`]).
pub fn streaming_csls(
    source: &Matrix,
    target: &Matrix,
    metric: SimilarityMetric,
    k: usize,
    _block: usize,
) -> Matching {
    assert!(k >= 1, "CSLS requires k >= 1");
    assert_eq!(
        source.cols(),
        target.cols(),
        "source and target embeddings must share a dimensionality"
    );
    if source.rows() == 0 || target.rows() == 0 {
        return Matching::new(vec![None; source.rows()]);
    }
    if metric == SimilarityMetric::Cosine {
        return streaming_csls_at(source, Targets::Resident(target), k, Precision::F32)
            .expect("dims checked above");
    }
    let corrected = Csls { k }.apply(similarity_matrix(source, target, metric));
    Greedy.run(&corrected, &MatchContext::default())
}

/// Peak auxiliary bytes of streamed cosine CSLS for an `n_s x n_t`
/// instance at width `dim` — the number the scalability experiment
/// compares against the dense pipelines' O(n^2). An upper bound, the sum
/// of everything the fused plan holds: the normalized source and target
/// copies, the packed targets, the two top-k heaps, and for every pool
/// participant scanning at once ([`workers`]) its column state (top-k
/// values, a count and a floor per target, `4 * (k + 2)` bytes each) and
/// one score tile. The normalized target copy is freed once packed, so
/// the measured peak sits below the sum.
pub fn streaming_aux_bytes(n_s: usize, n_t: usize, k: usize, dim: usize) -> usize {
    let normalized = (n_s + n_t) * dim * 4;
    let packed = n_t.div_ceil(NR) * NR * dim * 4;
    let heaps = (n_s + n_t) * k * 4;
    let column_state = workers() * n_t * (k + 2) * 4;
    let tiles = workers() * MAX_TILE_BYTES;
    normalized + packed + heaps + column_state + tiles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::greedy::Greedy;
    use crate::matching::{MatchContext, Matcher};
    use crate::score::csls::Csls;
    use crate::score::ScoreOptimizer;
    use entmatcher_support::rng::{Rng, SeedableRng, StdRng};

    fn random_embeddings(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(n, d, |_, _| rng.gen::<f32>() - 0.5)
    }

    #[test]
    fn streaming_greedy_matches_dense_dinf() {
        let s = random_embeddings(120, 16, 1);
        let t = random_embeddings(90, 16, 2);
        let dense_scores = similarity_matrix(&s, &t, SimilarityMetric::Cosine);
        let dense = Greedy.run(&dense_scores, &MatchContext::default());
        for block in [1usize, 7, 64, 1000] {
            let stream = streaming_greedy(&s, &t, SimilarityMetric::Cosine, block);
            assert_eq!(stream, dense, "block {block} diverged");
        }
    }

    #[test]
    fn streaming_greedy_matches_dense_for_distance_metrics() {
        let s = random_embeddings(60, 8, 11);
        let t = random_embeddings(75, 8, 12);
        for metric in [SimilarityMetric::Euclidean, SimilarityMetric::Manhattan] {
            let dense_scores = similarity_matrix(&s, &t, metric);
            let dense = Greedy.run(&dense_scores, &MatchContext::default());
            let stream = streaming_greedy(&s, &t, metric, 32);
            assert_eq!(stream, dense, "{} diverged", metric.name());
        }
    }

    #[test]
    fn streaming_csls_matches_dense_csls() {
        let s = random_embeddings(80, 16, 3);
        let t = random_embeddings(110, 16, 4);
        let k = 5;
        let dense_scores = similarity_matrix(&s, &t, SimilarityMetric::Cosine);
        let dense = Greedy.run(&Csls { k }.apply(dense_scores), &MatchContext::default());
        for block in [13usize, 64, 500] {
            let stream = streaming_csls(&s, &t, SimilarityMetric::Cosine, k, block);
            assert_eq!(stream, dense, "block {block} diverged");
        }
    }

    #[test]
    fn streaming_csls_matches_dense_for_distance_metrics() {
        let s = random_embeddings(50, 8, 13);
        let t = random_embeddings(65, 8, 14);
        let k = 4;
        for metric in [SimilarityMetric::Euclidean, SimilarityMetric::Manhattan] {
            let dense_scores = similarity_matrix(&s, &t, metric);
            let dense = Greedy.run(&Csls { k }.apply(dense_scores), &MatchContext::default());
            let stream = streaming_csls(&s, &t, metric, k, 32);
            assert_eq!(stream, dense, "{} diverged", metric.name());
        }
    }

    #[test]
    fn streaming_handles_empty_sides() {
        let s = random_embeddings(5, 4, 5);
        let empty = Matrix::zeros(0, 4);
        let m = streaming_greedy(&s, &empty, SimilarityMetric::Cosine, 8);
        assert_eq!(m.assignment(), &[None; 5]);
        let m2 = streaming_csls(&s, &empty, SimilarityMetric::Cosine, 3, 8);
        assert_eq!(m2.assignment(), &[None; 5]);
    }

    #[test]
    fn precision_variants_delegate_at_f32() {
        let s = random_embeddings(70, 16, 21);
        let t = random_embeddings(85, 16, 22);
        let base = streaming_greedy(&s, &t, SimilarityMetric::Cosine, 64);
        let at = streaming_greedy_at(&s, Targets::Resident(&t), Precision::F32).unwrap();
        assert_eq!(base, at);
        let base = streaming_csls(&s, &t, SimilarityMetric::Cosine, 5, 64);
        let at = streaming_csls_at(&s, Targets::Resident(&t), 5, Precision::F32).unwrap();
        assert_eq!(base, at);
    }

    #[test]
    fn quantized_streaming_tracks_f32_decisions() {
        use entmatcher_data::{clustered_embeddings, EmbeddingSpec};

        let pair = clustered_embeddings(&EmbeddingSpec {
            entities: 150,
            dim: 16,
            clusters: 10,
            spread: 0.25,
            noise: 0.05,
            seed: 55,
        });
        let (s, t) = (&pair.source, &pair.target);
        let exact = streaming_greedy(s, t, SimilarityMetric::Cosine, 64);
        let exact_csls = streaming_csls(s, t, SimilarityMetric::Cosine, 5, 64);
        for precision in [Precision::F16, Precision::Int8] {
            let g = streaming_greedy_at(s, Targets::Resident(t), precision).unwrap();
            let agree = exact
                .assignment()
                .iter()
                .zip(g.assignment())
                .filter(|(a, b)| a == b)
                .count();
            assert!(agree >= 145, "{} greedy agrees on {agree}/150", precision.name());
            let c = streaming_csls_at(s, Targets::Resident(t), 5, precision).unwrap();
            let agree = exact_csls
                .assignment()
                .iter()
                .zip(c.assignment())
                .filter(|(a, b)| a == b)
                .count();
            assert!(agree >= 145, "{} csls agrees on {agree}/150", precision.name());
        }
    }

    #[test]
    fn all_neg_inf_rows_pick_their_first_target_like_dense() {
        let m = |rows: usize, v: &[f32]| Matrix::from_vec(rows, 2, v.to_vec()).unwrap();
        // Every Euclidean and Manhattan score of source 0 overflows to
        // -inf. In the second pair source 0's scores are finite but
        // below -f32::MAX / 2, so with k = 1 its Manhattan CSLS values
        // 2s - phi_u - phi_v all overflow to -inf without turning NaN.
        let pairs = [
            (m(2, &[3e38, -3e38, 0.1, 0.2]), m(3, &[-3e38, 3e38, 0.3, 0.1, 0.0, 0.5])),
            (m(2, &[2e38, 0.0, 0.1, 0.2]), m(3, &[-1e38, 0.0, 0.3, 0.1, 0.0, 0.5])),
        ];
        let ctx = MatchContext::default();
        for (p, (s, t)) in pairs.iter().enumerate() {
            for metric in [SimilarityMetric::Euclidean, SimilarityMetric::Manhattan] {
                let scores = similarity_matrix(s, t, metric);
                let dense = Greedy.run(&scores, &ctx);
                if p == 0 {
                    assert_eq!(dense.assignment()[0], Some(0), "{}", metric.name());
                }
                assert_eq!(streaming_greedy(s, t, metric, 2), dense, "{}", metric.name());
                for k in [1usize, 2] {
                    let dense = Greedy.run(&Csls { k }.apply(scores.clone()), &ctx);
                    let stream = streaming_csls(s, t, metric, k, 2);
                    assert_eq!(stream, dense, "{} csls k={k}", metric.name());
                }
            }
        }
        // The CSLS case is not vacuous: the second pair's Manhattan CSLS
        // row 0 is all -inf, so its pick (equal to dense above) is the
        // first column.
        let (s, t) = &pairs[1];
        let corrected = Csls { k: 1 }.apply(similarity_matrix(s, t, SimilarityMetric::Manhattan));
        assert!(corrected.row(0).iter().all(|&v| v == f32::NEG_INFINITY));
        let stream = streaming_csls(s, t, SimilarityMetric::Manhattan, 1, 2);
        assert_eq!(stream.assignment()[0], Some(0));
    }

    #[test]
    fn quantized_streaming_csls_equals_dense_at_the_same_precision() {
        use entmatcher_data::{clustered_embeddings, EmbeddingSpec};
        use entmatcher_linalg::matmul_blocked_packed;

        let pair = clustered_embeddings(&EmbeddingSpec {
            entities: 400,
            dim: 32,
            clusters: 12,
            spread: 0.25,
            noise: 0.3,
            seed: 77,
        });
        let (mut s, mut t) = (pair.source.clone(), pair.target.clone());
        normalize_rows_l2(&mut s);
        normalize_rows_l2(&mut t);
        let k = 10;
        for precision in [Precision::F32, Precision::F16, Precision::Int8] {
            let scores = matmul_blocked_packed(&s, &PackedAny::pack(&t, precision)).unwrap();
            let dense = Greedy.run(&Csls { k }.apply(scores), &MatchContext::default());
            let stream =
                streaming_csls_at(&pair.source, Targets::Resident(&pair.target), k, precision)
                    .unwrap();
            let differ = (stream.assignment().iter())
                .zip(dense.assignment())
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(differ, 0, "{} differs on {differ}/400 sources", precision.name());
        }
    }

    #[test]
    fn snapshot_streaming_matches_in_memory_bitwise() {
        use entmatcher_linalg::snapshot::to_bytes;

        let s = random_embeddings(60, 16, 31);
        let t = random_embeddings(77, 16, 32);
        let dir =
            std::env::temp_dir().join(format!("entmatcher-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("target.emb");
        std::fs::write(&path, to_bytes(&t)).unwrap();

        for precision in [Precision::F32, Precision::F16, Precision::Int8] {
            // In-memory reference at the same precision: chunked
            // normalization is row-local and builder packing equals
            // one-shot packing, so every chunk size must be bitwise equal.
            let greedy_ref = streaming_greedy_at(&s, Targets::Resident(&t), precision).unwrap();
            let csls_ref = streaming_csls_at(&s, Targets::Resident(&t), 4, precision).unwrap();
            for chunk in [1usize, 13, 77, 500] {
                let snapshot = Targets::Snapshot {
                    path: &path,
                    chunk_rows: chunk,
                };
                let g = streaming_greedy_at(&s, snapshot, precision).unwrap();
                assert_eq!(g, greedy_ref, "{} greedy chunk {chunk}", precision.name());
                let c = streaming_csls_at(&s, snapshot, 4, precision).unwrap();
                assert_eq!(c, csls_ref, "{} csls chunk {chunk}", precision.name());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_streaming_surfaces_io_errors() {
        let s = random_embeddings(3, 4, 41);
        let missing = Targets::Snapshot {
            path: Path::new("/nonexistent/entmatcher/target.emb"),
            chunk_rows: 16,
        };
        assert!(streaming_greedy_at(&s, missing, Precision::Int8).is_err());
        assert!(streaming_csls_at(&s, missing, 3, Precision::Int8).is_err());
    }

    #[test]
    fn aux_bytes_are_far_below_dense() {
        let dense = 70_000usize * 70_000 * 4;
        let streaming = streaming_aux_bytes(70_000, 70_000, 10, 64);
        assert!(
            streaming * 10 < dense,
            "streaming {streaming} vs dense {dense}"
        );
    }
}
