#![warn(missing_docs)]

//! Dense linear-algebra kernels for the EntMatcher reproduction.
//!
//! Everything in the embedding-matching pipeline is built on one data
//! structure: a dense, row-major `f32` [`Matrix`]. Entity embeddings are an
//! `n x d` matrix, pairwise score matrices are `n_s x n_t`, and every score
//! optimizer (CSLS, RInf, Sinkhorn) is a transformation of such a matrix.
//!
//! The crate deliberately avoids external BLAS: the kernels the paper's
//! algorithms need (row-normalized products, per-row top-k, argsort/ranking,
//! row/column normalization) are kept local so the evaluation harness can
//! account for every byte of auxiliary memory (paper Figure 5). The
//! similarity hot path is a proper blocked GEMM ([`gemm`]: packed panels,
//! register tiling, L2 cache blocking) plus fused streaming
//! similarity -> top-k kernels ([`fused`]) that never materialize the
//! dense score matrix; both produce bit-identical scores to the naive
//! reference kernel. The micro-kernel is runtime-dispatched ([`simd`]):
//! an AVX2 path that vectorizes across the packed output columns while
//! keeping the depth reduction sequential — still bit-identical to the
//! scalar reference — with an opt-in FMA variant behind
//! `ENTMATCHER_SIMD=fma`.
//!
//! Parallelism runs on the process-wide persistent work-stealing pool
//! (`entmatcher_support::pool`) via the row-parallel helpers in
//! [`parallel`]; call sites state per-item cost hints ([`parallel::Grain`])
//! so both many-cheap-row loops and few-heavy-row reductions split well,
//! and uneven rows (Sinkhorn tails, ranking passes) balance by stealing.

pub mod error;
pub mod fused;
pub mod gemm;
pub mod matrix;
pub mod ops;
pub mod parallel;
pub mod quant;
pub mod rank;
pub mod simd;
pub mod snapshot;
pub mod stats;

pub use error::LinalgError;
pub use fused::{
    fused_argmax_affine, fused_argmax_affine_packed, fused_topk, fused_topk_means,
    fused_topk_means_packed, fused_topk_packed, TopKAccumulator,
};
pub use gemm::{
    matmul_blocked, matmul_blocked_packed, matmul_blocked_packed_with, matmul_blocked_with,
    pack_snapshot_stream, PackedAny, PackedBuilder,
};
pub use quant::{quantize_roundtrip, Precision, QuantizedMatrix};
pub use simd::SimdLevel;
pub use matrix::Matrix;
pub use ops::{dot, l2_norm, matmul_naive, matmul_transposed, normalize_rows_l2};
pub use rank::{argmax, argsort_desc, col_maxes, col_top_k_means, rank_desc, top_k_desc};

/// Result alias for fallible linalg operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
