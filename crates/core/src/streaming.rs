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
//! For cosine similarity both run one private driver over the **fused
//! similarity -> reduction kernels** in `entmatcher_linalg::fused`: score
//! tiles come straight out of the register-tiled GEMM micro-kernel and are
//! reduced before the next tile is computed, so no strip of the score
//! matrix is ever materialized. The driver reads its targets from a
//! [`Targets`] source — resident rows, or a snapshot file read
//! `chunk_rows` at a time — at any storage [`Precision`]
//! ([`streaming_greedy_at`], [`streaming_csls_at`]), and keeps one packed
//! operand alive at a time: the packed source for the target-side
//! statistic, then the packed targets for the source-side statistic and
//! the decision pass. The distance metrics keep the strip-at-a-time loop
//! (their pairwise kernels are not products).
//!
//! Both produce *bit-identical decisions* to their dense counterparts
//! (asserted by tests): the fused tiles reuse the exact d-sequential
//! accumulation of the dense kernel, the bounded heaps report means in the
//! same canonical order as `top_k_mean`, and the CSLS correction is
//! evaluated in the same operation order. Each row's scores depend only on
//! that row and the packed operand, so a snapshot streamed in any chunk
//! size decides exactly like the same targets held in memory.

use crate::matching::Matching;
use crate::similarity::{similarity_matrix, SimilarityMetric};
use entmatcher_linalg::fused::{
    fused_argmax_affine_packed, fused_topk_means_packed, TopKAccumulator,
};
use entmatcher_linalg::snapshot::SnapshotReader;
use entmatcher_linalg::{normalize_rows_l2, Matrix, PackedAny, PackedBuilder, Precision};
use entmatcher_support::telemetry;
use std::path::Path;

/// Default target-block width (rows of the similarity strip computed at
/// once by the non-cosine paths). Bigger blocks amortize the pass
/// overhead; memory is `b * n_s`.
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
    /// Hands every target row to `visit(chunk, total_rows)`, L2-normalized
    /// and in order: one chunk for resident targets, `chunk_rows`-row
    /// chunks from a snapshot. Returns the number of chunks.
    fn for_each_normalized(
        &self,
        mut visit: impl FnMut(&Matrix, usize) -> entmatcher_linalg::Result<()>,
    ) -> entmatcher_linalg::Result<u64> {
        match *self {
            Targets::Resident(t) => {
                let mut t = t.clone();
                normalize_rows_l2(&mut t);
                visit(&t, t.rows())?;
                Ok(1)
            }
            Targets::Snapshot { path, chunk_rows } => {
                let mut reader = SnapshotReader::open(path)?;
                let mut chunks = 0;
                while let Some(mut chunk) = reader.next_chunk(chunk_rows.max(1))? {
                    normalize_rows_l2(&mut chunk);
                    visit(&chunk, reader.rows())?;
                    chunks += 1;
                }
                Ok(chunks)
            }
        }
    }

    /// The normalized targets packed at `precision` (width `d` when there
    /// are no rows). A snapshot streams through the builder, one
    /// `quant.stream.chunks` tick per chunk.
    fn pack_normalized(
        &self,
        precision: Precision,
        d: usize,
    ) -> entmatcher_linalg::Result<PackedAny> {
        let mut builder = None;
        let chunks = self.for_each_normalized(|chunk, rows| {
            builder
                .get_or_insert_with(|| PackedBuilder::with_capacity(precision, d, rows))
                .append(chunk)
        })?;
        if let Targets::Snapshot { .. } = self {
            telemetry::add("quant.stream.chunks", chunks);
        }
        Ok(builder
            .unwrap_or_else(|| PackedBuilder::new(precision, d))
            .finish())
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
    let negate = |phi: Vec<f32>| -> Vec<f32> { phi.into_iter().map(|v| -v).collect() };
    // phi_v: each target's mean of its k best sources, scored against the
    // packed source, which is dropped before the targets are packed.
    let neg_t = match csls_k {
        Some(k) => {
            let packed_s = PackedAny::pack(&s, precision);
            let mut phi_t = Vec::new();
            targets.for_each_normalized(|chunk, _| {
                phi_t.extend(fused_topk_means_packed(chunk, &packed_s, k)?);
                Ok(())
            })?;
            Some(negate(phi_t))
        }
        None => None,
    };
    let packed_t = targets.pack_normalized(precision, s.cols())?;
    let picks = match csls_k.zip(neg_t) {
        Some((k, neg_t)) => {
            telemetry::add("fused.dispatch.csls", 1);
            // phi_u against the same packed targets the decision pass uses;
            // (2s + (-phi_u)) + (-phi_v) is bitwise the dense
            // (2s - phi_u) - phi_v.
            let neg_s = negate(fused_topk_means_packed(&s, &packed_t, k)?);
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
/// precision, source and error contract. Panics if `k == 0`.
pub fn streaming_csls_at(
    source: &Matrix,
    targets: Targets<'_>,
    k: usize,
    precision: Precision,
) -> entmatcher_linalg::Result<Matching> {
    assert!(k >= 1, "CSLS requires k >= 1");
    stream_cosine(source, targets, Some(k), precision)
}

/// Greedy matching without materializing the score matrix. Cosine streams
/// through the fused argmax kernel (tile-level fusion, `block` is not
/// needed); distance metrics iterate target blocks updating each source's
/// best candidate. Memory: O(n_s + block·d).
pub fn streaming_greedy(
    source: &Matrix,
    target: &Matrix,
    metric: SimilarityMetric,
    block: usize,
) -> Matching {
    assert!(block > 0, "block size must be positive");
    assert_eq!(
        source.cols(),
        target.cols(),
        "source and target embeddings must share a dimensionality"
    );
    if metric == SimilarityMetric::Cosine {
        return streaming_greedy_at(source, Targets::Resident(target), Precision::F32)
            .expect("dims checked above");
    }
    let n_s = source.rows();
    let n_t = target.rows();
    let mut best: Vec<(Option<u32>, f32)> = vec![(None, f32::NEG_INFINITY); n_s];
    let mut start = 0usize;
    while start < n_t {
        let end = (start + block).min(n_t);
        let idx: Vec<usize> = (start..end).collect();
        let strip = target.select_rows(&idx).expect("block in range");
        let scores = similarity_matrix(source, &strip, metric);
        for (i, slot) in best.iter_mut().enumerate() {
            for (local, &v) in scores.row(i).iter().enumerate() {
                if v > slot.1 {
                    *slot = (Some((start + local) as u32), v);
                }
            }
        }
        start = end;
    }
    Matching::new(best.into_iter().map(|(j, _)| j).collect())
}

/// CSLS + Greedy without materializing the score matrix.
///
/// Cosine: the streaming driver — phi vectors stream out of per-row
/// bounded heaps, and the corrected argmax streams out of the
/// affine-argmax kernel. Distance metrics: two strip-at-a-time passes.
/// Decisions equal the dense `Csls{k}` + `Greedy` path bit for bit.
pub fn streaming_csls(
    source: &Matrix,
    target: &Matrix,
    metric: SimilarityMetric,
    k: usize,
    block: usize,
) -> Matching {
    assert!(k >= 1, "CSLS requires k >= 1");
    assert!(block > 0, "block size must be positive");
    assert_eq!(
        source.cols(),
        target.cols(),
        "source and target embeddings must share a dimensionality"
    );
    let n_s = source.rows();
    let n_t = target.rows();
    if n_s == 0 || n_t == 0 {
        return Matching::new(vec![None; n_s]);
    }
    if metric == SimilarityMetric::Cosine {
        return streaming_csls_at(source, Targets::Resident(target), k, Precision::F32)
            .expect("dims checked above");
    }

    // Pass 1: top-k accumulators on both sides.
    let mut top_s: Vec<TopKAccumulator> = (0..n_s).map(|_| TopKAccumulator::new(k)).collect();
    let mut top_t: Vec<TopKAccumulator> = (0..n_t).map(|_| TopKAccumulator::new(k)).collect();
    let mut start = 0usize;
    while start < n_t {
        let end = (start + block).min(n_t);
        let idx: Vec<usize> = (start..end).collect();
        let strip = target.select_rows(&idx).expect("block in range");
        let scores = similarity_matrix(source, &strip, metric);
        for (i, acc) in top_s.iter_mut().enumerate() {
            for (local, &v) in scores.row(i).iter().enumerate() {
                acc.push((start + local) as u32, v);
                top_t[start + local].push(i as u32, v);
            }
        }
        start = end;
    }
    let phi_s: Vec<f32> = top_s.iter().map(TopKAccumulator::mean).collect();
    let phi_t: Vec<f32> = top_t.iter().map(TopKAccumulator::mean).collect();

    // Pass 2: argmax of the corrected scores.
    let mut best: Vec<(Option<u32>, f32)> = vec![(None, f32::NEG_INFINITY); n_s];
    let mut start = 0usize;
    while start < n_t {
        let end = (start + block).min(n_t);
        let idx: Vec<usize> = (start..end).collect();
        let strip = target.select_rows(&idx).expect("block in range");
        let scores = similarity_matrix(source, &strip, metric);
        for (i, slot) in best.iter_mut().enumerate() {
            for (local, &v) in scores.row(i).iter().enumerate() {
                let corrected = 2.0 * v - phi_s[i] - phi_t[start + local];
                if corrected > slot.1 {
                    *slot = (Some((start + local) as u32), corrected);
                }
            }
        }
        start = end;
    }
    Matching::new(best.into_iter().map(|(j, _)| j).collect())
}

/// Peak auxiliary bytes of the streaming kernels for an `n_s x n_t`
/// instance — the number the scalability experiment compares against the
/// dense pipelines' O(n^2). The fused cosine path's footprint (normalized
/// copies + heaps + one score tile) is bounded by the same expression.
pub fn streaming_aux_bytes(n_s: usize, n_t: usize, k: usize, block: usize, dim: usize) -> usize {
    let strip = block.min(n_t) * n_s * 4; // one similarity strip / tile set
    let heaps = (n_s + n_t) * k * 4;
    let block_rows = block.min(n_t) * dim * 4;
    strip + heaps + block_rows + n_s * 8
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
        let streaming = streaming_aux_bytes(70_000, 70_000, 10, DEFAULT_BLOCK, 64);
        assert!(
            streaming * 10 < dense,
            "streaming {streaming} vs dense {dense}"
        );
    }
}
