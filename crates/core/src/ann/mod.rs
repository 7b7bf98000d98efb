//! Sub-quadratic candidate generation.
//!
//! The dense pipeline scores every `n_s x n_t` pair. [`IvfIndex`] instead
//! partitions the target side into `nlist` k-means cells and scans only
//! the `nprobe` cells whose centroids score highest for each source, so a
//! probe costs a fraction of the dense pass and `nprobe == nlist` is
//! bitwise-exact. Scores are raw dot products (the `linalg::fused`
//! convention): callers normalize rows first when they mean cosine.
//! [`crate::MatchPipeline`] and [`crate::MatchService`] both reach it
//! through an `Option<IvfParams>`.

pub mod ivf;
pub mod kmeans;

pub use ivf::{IvfIndex, IvfParams};
