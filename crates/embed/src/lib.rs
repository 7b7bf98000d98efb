#![warn(missing_docs)]

//! Representation-learning substrate for the EntMatcher reproduction.
//!
//! The paper's evaluation plugs several *representation learning* models in
//! front of the matching algorithms (Algorithm 1, line 1): GCN and RREA for
//! structure, plus entity-name embeddings and a fused variant (§4.3). The
//! original models are GPU-trained neural networks; this crate implements
//! pure-Rust **propagation encoders** that preserve the properties the
//! matching study depends on (see `DESIGN.md` §3, substitution 2):
//!
//! * Seed links are the only cross-KG supervision: seed pairs share anchor
//!   vectors, every other entity starts from independent random noise, and
//!   cross-KG similarity for test entities emerges *only* through
//!   neighbourhood propagation over each KG's own structure.
//! * [`GcnEncoder`] does plain symmetric mean aggregation (GCN-Align
//!   flavour); [`RreaEncoder`] adds relation-aware edge weighting and
//!   bootstrapped pseudo-seed expansion (RREA flavour) and is reliably
//!   stronger — reproducing the paper's R- vs G- gap in Table 4.
//! * [`NameEncoder`] hashes character n-grams of entity display names,
//!   yielding the strong auxiliary signal of Table 5; [`fuse`] combines
//!   name and structure spaces.
//! * [`mlp`] implements the deepmatcher-style pair classifier used in the
//!   paper's §4.3 negative result.

pub mod encoder;
pub mod fusion;
pub mod gcn;
pub mod init;
pub mod mlp;
pub mod names;
pub mod propagation;
pub mod rrea;
pub mod transe;

pub use encoder::{Encoder, UnifiedEmbeddings};
pub use fusion::fuse;
pub use gcn::GcnEncoder;
pub use names::NameEncoder;
pub use rrea::RreaEncoder;
pub use transe::TransEEncoder;
