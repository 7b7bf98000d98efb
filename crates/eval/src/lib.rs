#![warn(missing_docs)]

//! Evaluation harness for the EntMatcher reproduction.
//!
//! Connects the substrates: generates (or loads) a benchmark [`KgPair`],
//! runs a representation-learning encoder, extracts the *test candidate*
//! sub-problem, executes a matching pipeline, and scores the result with
//! the paper's metrics (precision / recall / F1, §4.2). Also provides the
//! score-distribution analysis behind Pattern 1 (Figure 4), the
//! time/memory accounting of Figure 5, and a grid runner that drives whole
//! tables.
//!
//! [`KgPair`]: entmatcher_graph::KgPair

pub mod casestudy;
pub mod encoders;
pub mod experiment;
pub mod geometry;
pub mod metrics;
pub mod patterns;
pub mod ranking;
pub mod report;
pub mod significance;
pub mod task;

pub use encoders::EncoderKind;
pub use experiment::{run_cell, CellResult, ExperimentGrid};
pub use metrics::{evaluate_links, AlignmentScores};
pub use ranking::{ranking_report, RankingReport};
pub use significance::{bootstrap_f1, bootstrap_f1_difference, BootstrapInterval};
pub use task::MatchTask;
