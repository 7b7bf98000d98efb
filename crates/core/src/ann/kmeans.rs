//! Seeded k-means coarse quantizer for the IVF index.
//!
//! Spherical k-means over row embeddings: centroids are re-normalized to
//! unit L2 after every mean update, and assignment maximizes the dot
//! product — on the (caller-normalized) unit sphere that is exactly
//! nearest-by-cosine. The assignment pass is the expensive part
//! (`n x nlist x d` multiply-adds per iteration) and runs through
//! [`entmatcher_linalg::fused_argmax_affine`], i.e. the same blocked/SIMD
//! GEMM tiles as the exact similarity path; the mean update accumulates
//! partial sums over fixed-size row chunks on the worker pool and reduces
//! them in chunk order, so results are bit-identical for any
//! `ENTMATCHER_THREADS` setting.
//!
//! Rows with a NaN or infinite component have no usable distance or mean:
//! they are never drawn as seeds, carry zero D² weight, stay out of the
//! mean update and get no assignment.

use entmatcher_linalg::parallel::{par_map_rows_grained, par_row_chunks_mut_grained, Grain};
use entmatcher_linalg::{fused_argmax_affine, normalize_rows_l2, Matrix};
use entmatcher_support::rng::{Rng, SeedableRng, StdRng};
use entmatcher_support::telemetry;

/// Fixed row-chunk size for the parallel partial-sum pass. A constant (not
/// a worker-count-derived value) keeps the floating-point reduction order
/// — and therefore the trained centroids — independent of the pool size.
const UPDATE_CHUNK: usize = 4096;

/// A trained coarse quantizer: `nlist` unit-norm centroids plus the final
/// assignment of every finite training row to its nearest centroid.
pub struct KMeans {
    /// `nlist x d` centroid matrix, rows L2-normalized.
    pub centroids: Matrix,
    /// `assignments[r]` is the centroid index of training row `r`,
    /// consistent with the returned `centroids` (a final assignment pass
    /// runs after the last update); `None` when row `r` has a non-finite
    /// component.
    pub assignments: Vec<Option<u32>>,
}

/// Trains `nlist` centroids on the rows of `data` with `iters` Lloyd
/// iterations. Fully deterministic for a given `(data, nlist, iters,
/// seed)` tuple. `nlist` is clamped to the number of finite rows; a
/// `data` without one yields zero centroids.
pub fn train(data: &Matrix, nlist: usize, iters: usize, seed: u64) -> KMeans {
    let _span = telemetry::span("ann.train");
    let n = data.rows();
    let d = data.cols();
    let finite: Vec<usize> = (0..n)
        .filter(|&r| data.row(r).iter().all(|v| v.is_finite()))
        .collect();
    let m = finite.len();
    if m == 0 {
        return KMeans {
            centroids: Matrix::zeros(0, d),
            assignments: vec![None; n],
        };
    }
    let nlist = nlist.clamp(1, m);
    let mut rng = StdRng::seed_from_u64(seed);
    let seed_rows = plus_plus_seeds(data, &finite, nlist, &mut rng);
    let mut centroids = data
        .select_rows(&seed_rows)
        .expect("seed rows in range by construction");
    normalize_rows_l2(&mut centroids);

    let mut assignments = assign(data, &centroids);
    for _ in 0..iters {
        telemetry::add("ann.train.iters", 1);
        let (sums, counts) = partial_sums(data, &assignments, nlist);
        let mut next = Matrix::zeros(nlist, d);
        let mut reseeded = 0u64;
        for c in 0..nlist {
            let row = next.row_mut(c);
            if counts[c] == 0 {
                // Empty cluster: reseed deterministically from a random
                // finite row so the list count never silently shrinks.
                let r = finite[rng.gen_range(0..m)];
                row.copy_from_slice(data.row(r));
                reseeded += 1;
            } else {
                let inv = 1.0 / counts[c] as f32;
                for (dst, &s) in row.iter_mut().zip(&sums[c * d..(c + 1) * d]) {
                    *dst = s * inv;
                }
            }
        }
        if reseeded > 0 {
            telemetry::add("ann.train.reseeded", reseeded);
        }
        normalize_rows_l2(&mut next);
        centroids = next;
        assignments = assign(data, &centroids);
    }
    KMeans {
        centroids,
        assignments,
    }
}

/// k-means++ (D²) seeding: the first seed row is uniform, each further
/// seed is sampled proportional to its squared Euclidean distance from the
/// nearest already-chosen seed. Plain uniform seeding drops two seeds into
/// one natural cluster with high probability (for `k` clusters the chance
/// of covering all of them is `k!/k^k`), and Lloyd iterations never heal a
/// split — D² weighting makes coverage overwhelmingly likely, which the
/// recall floors in the oracle tests depend on. The per-seed distance
/// refresh runs chunked on the pool; the weighted draw itself is a serial
/// O(n) prefix walk, deterministic in the PRNG stream. Seeds are drawn
/// from the `finite` rows only, and every other row keeps zero weight.
fn plus_plus_seeds(data: &Matrix, finite: &[usize], nlist: usize, rng: &mut StdRng) -> Vec<usize> {
    let n = data.rows();
    let d = data.cols();
    let m = finite.len();
    let dist2 = |a: &[f32], b: &[f32]| -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| {
                let diff = (x - y) as f64;
                diff * diff
            })
            .sum()
    };
    let mut seeds = Vec::with_capacity(nlist);
    seeds.push(finite[rng.gen_range(0..m)]);
    let mut min_d2 = vec![0.0f64; n];
    let refresh = |min_d2: &mut [f64], seed_row: usize, first: bool| {
        let pivot = data.row(seed_row);
        par_row_chunks_mut_grained(
            min_d2,
            1,
            Grain::for_item_cost(d.max(1)),
            |start, chunk| {
                for (off, slot) in chunk.iter_mut().enumerate() {
                    let d2 = dist2(data.row(start + off), pivot);
                    if d2.is_finite() && (first || d2 < *slot) {
                        *slot = d2;
                    }
                }
            },
        );
    };
    refresh(&mut min_d2, seeds[0], true);
    while seeds.len() < nlist {
        let total: f64 = min_d2.iter().sum();
        let pick = if total <= 0.0 {
            // Every remaining row coincides with a chosen seed (duplicate
            // data): fall back to a uniform draw.
            finite[rng.gen_range(0..m)]
        } else {
            let mut mass = rng.gen::<f64>() * total;
            let mut chosen = finite[m - 1];
            for &r in finite {
                mass -= min_d2[r];
                if mass <= 0.0 {
                    chosen = r;
                    break;
                }
            }
            chosen
        };
        seeds.push(pick);
        refresh(&mut min_d2, pick, false);
    }
    seeds
}

/// Nearest-centroid assignment by maximum dot product, streamed through
/// the fused GEMM kernel. Ties break to the lowest centroid index
/// (first-occurrence-wins, inherited from `fused_argmax_affine`). Rows
/// with a non-finite component get `None`.
fn assign(data: &Matrix, centroids: &Matrix) -> Vec<Option<u32>> {
    fused_argmax_affine(data, centroids, 1.0, None, None)
        .expect("kmeans operands share d by construction")
        .into_iter()
        .enumerate()
        .map(|(r, best)| best.filter(|_| data.row(r).iter().all(|v| v.is_finite())))
        .collect()
}

/// Per-centroid coordinate sums and member counts, computed as chunked
/// partial sums on the pool and reduced serially in chunk order.
fn partial_sums(data: &Matrix, assignments: &[Option<u32>], nlist: usize) -> (Vec<f32>, Vec<u32>) {
    let n = data.rows();
    let d = data.cols();
    let nchunks = n.div_ceil(UPDATE_CHUNK);
    let partials: Vec<(Vec<f32>, Vec<u32>)> = par_map_rows_grained(
        nchunks,
        Grain::for_item_cost(UPDATE_CHUNK * d.max(1)),
        |chunk| {
            let lo = chunk * UPDATE_CHUNK;
            let hi = (lo + UPDATE_CHUNK).min(n);
            let mut sums = vec![0.0f32; nlist * d];
            let mut counts = vec![0u32; nlist];
            for (r, &assigned) in (lo..hi).zip(&assignments[lo..hi]) {
                let Some(c) = assigned else { continue };
                let c = c as usize;
                counts[c] += 1;
                for (dst, &v) in sums[c * d..(c + 1) * d].iter_mut().zip(data.row(r)) {
                    *dst += v;
                }
            }
            (sums, counts)
        },
    );
    let mut sums = vec![0.0f32; nlist * d];
    let mut counts = vec![0u32; nlist];
    for (ps, pc) in partials {
        for (dst, s) in sums.iter_mut().zip(ps) {
            *dst += s;
        }
        for (dst, c) in counts.iter_mut().zip(pc) {
            *dst += c;
        }
    }
    (sums, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use entmatcher_data::{clustered_embeddings, EmbeddingSpec};

    fn sample(entities: usize, dim: usize, clusters: usize, noise: f32, seed: u64) -> (Matrix, Vec<u32>) {
        let pair = clustered_embeddings(&EmbeddingSpec {
            entities,
            dim,
            clusters,
            spread: 0.25,
            noise,
            seed,
        });
        (pair.source, pair.labels)
    }

    #[test]
    fn trains_expected_shapes() {
        let (data, _) = sample(60, 8, 4, 0.05, 7);
        let km = train(&data, 4, 5, 11);
        assert_eq!(km.centroids.shape(), (4, 8));
        assert_eq!(km.assignments.len(), 60);
        assert!(km.assignments.iter().all(|&a| matches!(a, Some(c) if c < 4)));
        // Centroids are unit-norm.
        for c in 0..4 {
            let norm: f32 = km.centroids.row(c).iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-4, "centroid {c} norm {norm}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (data, _) = sample(80, 6, 6, 0.1, 3);
        let a = train(&data, 6, 4, 42);
        let b = train(&data, 6, 4, 42);
        assert_eq!(a.centroids.as_slice(), b.centroids.as_slice());
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn clamps_nlist_and_handles_degenerate_inputs() {
        let empty = Matrix::zeros(0, 4);
        let km = train(&empty, 8, 3, 1);
        assert_eq!(km.centroids.rows(), 0);
        assert!(km.assignments.is_empty());

        let one = Matrix::from_vec(1, 3, vec![1.0, 0.0, 0.0]).unwrap();
        let km = train(&one, 8, 3, 1);
        assert_eq!(km.centroids.rows(), 1);
        assert_eq!(km.assignments, vec![Some(0)]);
    }

    #[test]
    fn recovers_well_separated_clusters() {
        // Four well-separated clusters: k-means with nlist=4 must put each
        // latent cluster's members in a single list (perfect purity on
        // easy data).
        let (data, gold) = sample(120, 16, 4, 0.02, 9);
        let km = train(&data, 4, 6, 5);
        let mut seen: std::collections::HashMap<u32, Option<u32>> =
            std::collections::HashMap::new();
        let mut pure = true;
        for (r, &cluster) in gold.iter().enumerate() {
            let list = km.assignments[r];
            match seen.entry(cluster) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    if *e.get() != list {
                        pure = false;
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(list);
                }
            }
        }
        assert!(pure, "well-separated clusters split across lists");
    }
}
