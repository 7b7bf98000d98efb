//! IVF-flat index: coarse k-means quantizer plus inverted posting lists.
//!
//! Every posting list stores its member rows twice: the original row ids
//! (`Vec<u32>`) and the member embeddings re-packed into the blocked-GEMM
//! strip layout at the configured [`Precision`] (a [`PackedAny`] of f32,
//! f16 or int8 strips; the centroids are always packed at f32). Probing a
//! list is therefore a call into the same fused similarity -> top-k kernel
//! the exact path uses ([`entmatcher_linalg::fused_topk_packed`]) — the index
//! only decides *which* strips get scanned, never *how* they are scanned,
//! so at f32 scores are bit-identical to the dense pass for every
//! candidate that is scanned at all. Strip sizing (panel granularity and
//! `ann.index.bytes`) follows the stored element width, not a hard-coded
//! f32 width, so int8 postings really are ~4x smaller.
//!
//! Exactness at full probe width: each finite target row lives in exactly
//! one list, so `nprobe == nlist` scans every such row exactly once with
//! the same kernel and merges per-list top-k results under the
//! accumulator's total order (value desc, index asc). A per-list top-k
//! followed by a merge retains exactly the global top-k under that order,
//! ties included, so full-width search at [`Precision::F32`] reproduces
//! [`entmatcher_linalg::fused_topk`] bitwise — the property the oracle
//! test suite pins. A row with a NaN or infinite component joins no list
//! (k-means cannot place it). Once rows are L2-normalized, as the pipeline
//! and the service do, such a row holds a NaN and scores NaN against every
//! query, and NaN never enters a top-k, so the exact scan skips it too.
//! Quantized postings keep the same structure but score candidates
//! against the dequantized members.

use entmatcher_linalg::{fused_topk_packed, Matrix, PackedAny, Precision, TopKAccumulator};
use entmatcher_support::telemetry;

use super::kmeans;

/// Tuning knobs for [`IvfIndex::build`].
#[derive(Debug, Clone, Copy)]
pub struct IvfParams {
    /// Number of inverted lists (k-means centroids). `0` selects
    /// `sqrt(n)` rounded, the standard IVF default.
    pub nlist: usize,
    /// Default number of lists probed per query; [`IvfIndex::search`]
    /// takes an explicit width, this is the value pipeline/CLI callers
    /// fall back to. `0` selects `max(1, nlist/16)`.
    pub nprobe: usize,
    /// Lloyd iterations for the coarse quantizer.
    pub train_iters: usize,
    /// PRNG seed for centroid init and empty-cluster reseeding.
    pub seed: u64,
    /// Storage precision for posting-list member embeddings. The coarse
    /// quantizer (centroids) always stays f32 so list *selection* is
    /// unaffected; only the member strips are quantized, trading the exact
    /// per-candidate dot product for the dequantize-fused one. `F32`
    /// (default) preserves the bitwise-exact-at-full-probe-width property.
    /// [`crate::MatchPipeline`] and [`crate::MatchService`] overwrite it
    /// with their own precision.
    pub precision: Precision,
}

impl Default for IvfParams {
    fn default() -> Self {
        IvfParams {
            nlist: 0,
            nprobe: 0,
            train_iters: 6,
            seed: 97,
            precision: Precision::F32,
        }
    }
}

/// One inverted list: original target-row ids plus the member embeddings
/// packed into GEMM strips.
struct PostingList {
    ids: Vec<u32>,
    packed: PackedAny,
}

/// An IVF-flat index over one side's embeddings. Scores are raw dot
/// products, matching the `linalg::fused` convention — normalize rows
/// before building/searching to get cosine.
pub struct IvfIndex {
    centroids_packed: PackedAny,
    lists: Vec<PostingList>,
    nlist: usize,
    dim: usize,
    n: usize,
    default_nprobe: usize,
}

impl IvfIndex {
    /// Trains the coarse quantizer on `target` and builds the inverted
    /// lists. Deterministic for fixed `(target, params)`.
    pub fn build(target: &Matrix, params: &IvfParams) -> IvfIndex {
        let n = target.rows();
        let d = target.cols();
        let nlist = if params.nlist == 0 {
            ((n as f64).sqrt().round() as usize).max(1)
        } else {
            params.nlist
        }
        .min(n.max(1));
        let km = kmeans::train(target, nlist, params.train_iters, params.seed);
        let nlist = km.centroids.rows().max(1);
        // Group member ids per list in ascending id order: determinism
        // plus alignment with the earliest-index tie rule.
        let mut ids: Vec<Vec<u32>> = vec![Vec::new(); nlist];
        for (r, &c) in km.assignments.iter().enumerate() {
            if let Some(c) = c {
                ids[c as usize].push(r as u32);
            }
        }
        let lists: Vec<PostingList> = ids
            .into_iter()
            .map(|ids| {
                let rows: Vec<usize> = ids.iter().map(|&r| r as usize).collect();
                let members = target
                    .select_rows(&rows)
                    .expect("assignment ids in range by construction");
                PostingList {
                    ids,
                    packed: PackedAny::pack(&members, params.precision),
                }
            })
            .collect();
        telemetry::add("ann.index.lists", lists.len() as u64);
        telemetry::add(
            "ann.index.bytes",
            lists.iter().map(|l| l.packed.packed_bytes() as u64).sum(),
        );
        let default_nprobe = if params.nprobe == 0 {
            (nlist / 16).max(1)
        } else {
            params.nprobe.min(nlist)
        };
        IvfIndex {
            centroids_packed: PackedAny::pack(&km.centroids, Precision::F32),
            lists,
            nlist,
            dim: d,
            n,
            default_nprobe,
        }
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.nlist
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the index holds no rows.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The probe width used when callers don't pass one explicitly.
    pub fn default_nprobe(&self) -> usize {
        self.default_nprobe
    }

    /// Total heap bytes held by the posting-list member strips (the
    /// quantity reported to the `ann.index.bytes` counter). Scales with
    /// the element width of the build precision: int8 postings are ~1/4
    /// the f32 size for the same members.
    pub fn posting_bytes(&self) -> usize {
        self.lists.iter().map(|l| l.packed.packed_bytes()).sum()
    }

    /// Top-`k` indexed rows per query row by dot product, probing the
    /// `nprobe` lists whose centroids score highest for each query.
    /// Lists are best-first; `nprobe >= nlist` is bitwise-exact.
    ///
    /// Panics if `queries.cols() != dim` (matching the dense kernels'
    /// dimension contract).
    pub fn search(&self, queries: &Matrix, k: usize, nprobe: usize) -> Vec<Vec<(u32, f32)>> {
        let _span = telemetry::span("ann.probe");
        let q = queries.rows();
        if q == 0 {
            return Vec::new();
        }
        assert_eq!(
            queries.cols(),
            self.dim,
            "ivf search dimension mismatch: queries are {}d, index is {}d",
            queries.cols(),
            self.dim
        );
        telemetry::add("ann.probe.queries", q as u64);
        let mut merged: Vec<TopKAccumulator> =
            (0..q).map(|_| TopKAccumulator::new(k)).collect();
        if self.n == 0 || k == 0 {
            return merged
                .into_iter()
                .map(TopKAccumulator::into_sorted_desc)
                .collect();
        }
        let nprobe = nprobe.clamp(1, self.nlist);

        // Coarse ranking: every query's top-nprobe centroids, via the same
        // fused kernel (queries x centroids is itself a blocked GEMM).
        let coarse = fused_topk_packed(queries, &self.centroids_packed, nprobe)
            .expect("dimensions checked above");

        // Invert to per-list prober groups so each list's strips are
        // scanned once for all queries that want it — the GEMM sees a
        // dense (probers x members) product per list.
        let mut probers: Vec<Vec<u32>> = vec![Vec::new(); self.nlist];
        let mut probed_total = 0u64;
        for (qi, ranked) in coarse.iter().enumerate() {
            probed_total += ranked.len() as u64;
            for &(list, _) in ranked {
                probers[list as usize].push(qi as u32);
            }
        }
        telemetry::add("ann.probed_lists", probed_total);

        let mut candidates_total = 0u64;
        for (list, probers) in self.lists.iter().zip(&probers) {
            if probers.is_empty() || list.ids.is_empty() {
                continue;
            }
            candidates_total += (probers.len() * list.ids.len()) as u64;
            let rows: Vec<usize> = probers.iter().map(|&qi| qi as usize).collect();
            let qsub = queries
                .select_rows(&rows)
                .expect("prober indices in range by construction");
            let partial = fused_topk_packed(&qsub, &list.packed, k)
                .expect("list strips share the index dimension");
            for (&qi, hits) in probers.iter().zip(partial) {
                let acc = &mut merged[qi as usize];
                for (local, score) in hits {
                    acc.push(list.ids[local as usize], score);
                }
            }
        }
        telemetry::add("ann.candidates", candidates_total);
        merged
            .into_iter()
            .map(TopKAccumulator::into_sorted_desc)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entmatcher_data::{clustered_embeddings, EmbeddingSpec};
    use entmatcher_linalg::fused_topk;

    fn pair(entities: usize, clusters: usize, seed: u64) -> (Matrix, Matrix) {
        let p = clustered_embeddings(&EmbeddingSpec {
            entities,
            dim: 16,
            clusters,
            spread: 0.25,
            noise: 0.05,
            seed,
        });
        (p.source, p.target)
    }

    #[test]
    fn full_probe_width_is_bitwise_exact() {
        let (queries, target) = pair(300, 12, 21);
        let index = IvfIndex::build(
            &target,
            &IvfParams {
                nlist: 12,
                ..IvfParams::default()
            },
        );
        let approx = index.search(&queries, 10, index.nlist());
        let exact = fused_topk(&queries, &target, 10).unwrap();
        assert_eq!(approx, exact);
    }

    #[test]
    fn narrow_probe_recovers_most_true_neighbours() {
        let (queries, target) = pair(400, 16, 8);
        let index = IvfIndex::build(
            &target,
            &IvfParams {
                nlist: 16,
                ..IvfParams::default()
            },
        );
        let approx = index.search(&queries, 10, 4);
        let exact = fused_topk(&queries, &target, 10).unwrap();
        let mut hit = 0usize;
        let mut total = 0usize;
        for (a, e) in approx.iter().zip(&exact) {
            let got: std::collections::HashSet<u32> = a.iter().map(|&(i, _)| i).collect();
            total += e.len();
            hit += e.iter().filter(|&&(i, _)| got.contains(&i)).count();
        }
        let recall = hit as f64 / total as f64;
        assert!(recall > 0.7, "recall@10 at nprobe=4/16 too low: {recall:.3}");
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        let empty = Matrix::zeros(0, 8);
        let index = IvfIndex::build(&empty, &IvfParams::default());
        assert!(index.is_empty());
        let q = Matrix::from_fn(3, 8, |r, c| (r + c) as f32);
        let out = index.search(&q, 5, 2);
        assert_eq!(out, vec![Vec::new(); 3]);

        let one = Matrix::from_fn(1, 8, |_, c| c as f32);
        let index = IvfIndex::build(&one, &IvfParams::default());
        assert_eq!(index.nlist(), 1);
        let out = index.search(&q, 5, 1);
        assert!(out.iter().all(|hits| hits.len() == 1 && hits[0].0 == 0));

        // k = 0 and zero queries.
        assert_eq!(index.search(&q, 0, 1), vec![Vec::new(); 3]);
        assert!(index.search(&Matrix::zeros(0, 8), 5, 1).is_empty());
    }

    #[test]
    fn quantized_posting_lists_shrink_by_element_width() {
        // Regression: posting-list strip sizing must follow the stored
        // element width. With f32-width sizing an int8 index would report
        // (and allocate) 4x the bytes it actually needs.
        let (_, target) = pair(300, 12, 33);
        let build = |precision| {
            IvfIndex::build(
                &target,
                &IvfParams {
                    nlist: 12,
                    precision,
                    ..IvfParams::default()
                },
            )
        };
        let f32_bytes = build(Precision::F32).posting_bytes();
        let f16_bytes = build(Precision::F16).posting_bytes();
        let i8_bytes = build(Precision::Int8).posting_bytes();
        assert!(f32_bytes > 0);
        // f16 payload is exactly half the f32 payload (identical strip
        // counts, 2-byte elements, no side table).
        assert_eq!(f16_bytes * 2, f32_bytes);
        // int8 carries a 4-byte per-lane scale table, so "~1/4" has a
        // small additive term; at d=16 it must still be well under 1/3
        // and above the raw-payload floor of 1/4.
        assert!(
            i8_bytes * 3 < f32_bytes,
            "int8 postings {i8_bytes}B not < 1/3 of f32 {f32_bytes}B"
        );
        assert!(i8_bytes * 4 >= f32_bytes);
    }

    #[test]
    fn quantized_index_keeps_recall() {
        // int8 postings perturb scores but not list membership (centroids
        // stay f32), so identity matches on easy clustered data survive.
        let (queries, target) = pair(300, 12, 21);
        let index = IvfIndex::build(
            &target,
            &IvfParams {
                nlist: 12,
                precision: Precision::Int8,
                ..IvfParams::default()
            },
        );
        let approx = index.search(&queries, 10, index.nlist());
        let exact = fused_topk(&queries, &target, 10).unwrap();
        let mut hit = 0usize;
        let mut total = 0usize;
        for (a, e) in approx.iter().zip(&exact) {
            let got: std::collections::HashSet<u32> = a.iter().map(|&(i, _)| i).collect();
            total += e.len();
            hit += e.iter().filter(|&&(i, _)| got.contains(&i)).count();
        }
        let recall = hit as f64 / total as f64;
        assert!(recall > 0.95, "int8 full-probe recall@10 too low: {recall:.3}");
    }

    #[test]
    fn search_counts_reach_telemetry() {
        let registry: &telemetry::Telemetry = Box::leak(Box::default());
        registry.set_enabled(true);
        let _installed = registry.install();
        let (queries, target) = pair(120, 8, 4);
        let index = IvfIndex::build(&target, &IvfParams::default());
        let _ = index.search(&queries, 5, 2);
        let trace = registry.snapshot();
        assert!(trace.spans_named("ann.train").next().is_some());
        assert!(trace.spans_named("ann.probe").next().is_some());
        assert!(trace.counter("ann.probed_lists").unwrap_or(0) >= 120 * 2);
        assert!(trace.counter("ann.candidates").unwrap_or(0) > 0);
        assert_eq!(trace.counter("ann.probe.queries"), Some(120));
    }
}
