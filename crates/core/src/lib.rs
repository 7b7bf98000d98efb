#![warn(missing_docs)]

//! **EntMatcher-RS** — algorithms for matching knowledge graphs in entity
//! embedding spaces.
//!
//! This is the paper's primary artifact: a loosely-coupled library whose
//! three modules mirror the architecture of Figure 3 —
//!
//! 1. [`similarity`] — pairwise score computation from unified embeddings
//!    (cosine / Euclidean / Manhattan);
//! 2. [`score`] — score optimizers refining the raw similarity matrix:
//!    none (DInf), CSLS, RInf (+ the RInf-wr / RInf-pb scalability
//!    variants), and the Sinkhorn operation;
//! 3. [`matching`] — matchers turning a score matrix into aligned pairs:
//!    Greedy, the Hungarian algorithm (shortest augmenting paths with
//!    Jonker–Volgenant's lazy Dijkstra, without JV's initialization
//!    phases), Gale–Shapley stable matching, and the RL-style
//!    sequence-decision matcher with coherence and exclusiveness rewards.
//!
//! Any metric x optimizer x matcher combination composes through
//! [`MatchPipeline`]; the named presets of the paper's Table 2 are exposed
//! as [`AlgorithmPreset`]s:
//!
//! ```
//! use entmatcher_core::{AlgorithmPreset, MatchContext};
//! use entmatcher_linalg::Matrix;
//!
//! // Toy unified embeddings: 3 source rows, 3 target rows, identical.
//! let emb = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.7, 0.7]).unwrap();
//! let pipeline = AlgorithmPreset::DInf.build();
//! let result = pipeline.execute(&emb, &emb, &MatchContext::default());
//! assert_eq!(result.matching.assignment(), &[Some(0), Some(1), Some(2)]);
//! ```

pub mod ann;
pub mod blocking;
pub mod dummy;
pub mod error;
pub mod matching;
pub mod pipeline;
pub mod score;
pub mod serve;
pub mod similarity;
pub mod spec;
pub mod streaming;

pub use ann::{
    CandidateSource, ExactStreaming, IvfCandidates, IvfIndex, IvfParams, LshCandidates, Shortlist,
};
pub use blocking::LshBlocker;
pub use error::CoreError;
pub use matching::multi::{MultiMatching, ProbabilisticMatcher, ThresholdMatcher};
pub use matching::{greedy::Greedy, hungarian::Hungarian, rl::RlMatcher, stable::StableMarriage};
pub use matching::{MatchContext, Matcher, Matching};
pub use pipeline::{CandidateStrategy, ExecutionReport, MatchPipeline};
pub use score::csls::Gid;
pub use serve::{MatchService, Query, ServeConfig, TargetIndex, TopKResult};
pub use score::{
    csls::Csls, rinf::RInf, rinf::RInfProgressive, sinkhorn::Sinkhorn, NoOp, ScoreOptimizer,
};
pub use similarity::{similarity_matrix, SimilarityMetric};
pub use spec::{AlgorithmPreset, AlgorithmSpec, Direction};
pub use streaming::{
    streaming_csls, streaming_csls_at, streaming_greedy, streaming_greedy_at, Targets,
};

/// Result alias for fallible core operations.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Serializes tests that toggle the process-global telemetry switch, so
/// concurrent tests in this binary can't disable each other's recording.
#[cfg(test)]
pub(crate) fn telemetry_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
