//! Named algorithm presets and their Table 2 property sheet.

use crate::matching::{
    greedy::Greedy, hungarian::Hungarian, rl::RlMatcher, stable::StableMarriage,
};
use crate::pipeline::MatchPipeline;
use crate::score::{csls::Csls, rinf::RInf, rinf::RInfProgressive, sinkhorn::Sinkhorn, NoOp};
use crate::similarity::SimilarityMetric;
use entmatcher_support::{impl_json_enum, impl_json_struct};

/// Whether an algorithm exploits the 1-to-1 constraint (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OneToOne {
    /// No constraint (greedy family).
    No,
    /// Softly / implicitly enforced (Sinkhorn, RL).
    Partial,
    /// Hard constraint (Hungarian, Gale–Shapley).
    Yes,
}

impl_json_enum!(OneToOne { No, Partial, Yes });

/// Direction of the matching process (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Only source-to-target decisions.
    Unidirectional,
    /// Bidirectional information in the scores, greedy decisions.
    PartiallyBidirectional,
    /// Fully bidirectional matching.
    Bidirectional,
}

impl_json_enum!(Direction {
    Unidirectional,
    PartiallyBidirectional,
    Bidirectional
});

/// One row of the paper's Table 2: the static properties of an algorithm.
#[derive(Debug, Clone)]
pub struct AlgorithmSpec {
    /// Canonical name (e.g. `"Sink."`).
    pub name: &'static str,
    /// How pairwise scores are computed/refined.
    pub pairwise: &'static str,
    /// The matching procedure.
    pub matching: &'static str,
    /// 1-to-1 constraint usage.
    pub one_to_one: OneToOne,
    /// Matching direction.
    pub direction: Direction,
    /// Asymptotic time complexity (order of magnitude, as in the paper).
    pub time_complexity: &'static str,
    /// Asymptotic space complexity.
    pub space_complexity: &'static str,
}

// `&'static str` fields cannot be decoded from owned JSON text, so the
// Table 2 row is encode-only.
impl_json_struct!(to_only AlgorithmSpec {
    name,
    pairwise,
    matching,
    one_to_one,
    direction,
    time_complexity,
    space_complexity
});

/// The named algorithms of the study: the seven main strategies of
/// Table 2 plus the RInf scalability variants of Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmPreset {
    /// Similarity + Greedy (the ubiquitous baseline).
    DInf,
    /// CSLS rescaling + Greedy.
    Csls,
    /// Reciprocal preference ranking + Greedy.
    RInf,
    /// RInf without the ranking step (scalability variant).
    RInfWr,
    /// RInf with progressive blocking (scalability variant).
    RInfPb,
    /// Sinkhorn operation + Greedy.
    Sinkhorn,
    /// Similarity + Hungarian assignment.
    Hungarian,
    /// Similarity + Gale–Shapley stable matching.
    StableMarriage,
    /// Similarity + RL-style sequence decisions.
    Rl,
}

impl_json_enum!(AlgorithmPreset {
    DInf,
    Csls,
    RInf,
    RInfWr,
    RInfPb,
    Sinkhorn,
    Hungarian,
    StableMarriage,
    Rl
});

impl AlgorithmPreset {
    /// The seven main algorithms, in the paper's table order.
    pub fn main_seven() -> [AlgorithmPreset; 7] {
        use AlgorithmPreset::*;
        [DInf, Csls, RInf, Sinkhorn, Hungarian, StableMarriage, Rl]
    }

    /// All presets including the scalability variants.
    pub fn all() -> [AlgorithmPreset; 9] {
        use AlgorithmPreset::*;
        [
            DInf,
            Csls,
            RInf,
            RInfWr,
            RInfPb,
            Sinkhorn,
            Hungarian,
            StableMarriage,
            Rl,
        ]
    }

    /// Paper-style display name.
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmPreset::DInf => "DInf",
            AlgorithmPreset::Csls => "CSLS",
            AlgorithmPreset::RInf => "RInf",
            AlgorithmPreset::RInfWr => "RInf-wr",
            AlgorithmPreset::RInfPb => "RInf-pb",
            AlgorithmPreset::Sinkhorn => "Sink.",
            AlgorithmPreset::Hungarian => "Hun.",
            AlgorithmPreset::StableMarriage => "SMat",
            AlgorithmPreset::Rl => "RL",
        }
    }

    /// Builds the preset's pipeline with the paper's default
    /// hyper-parameters (cosine metric, CSLS k=10, Sinkhorn l=100).
    pub fn build(self) -> MatchPipeline {
        let metric = SimilarityMetric::Cosine;
        match self {
            AlgorithmPreset::DInf => MatchPipeline::new(metric, Box::new(NoOp), Box::new(Greedy)),
            AlgorithmPreset::Csls => {
                MatchPipeline::new(metric, Box::new(Csls::default()), Box::new(Greedy))
            }
            AlgorithmPreset::RInf => {
                MatchPipeline::new(metric, Box::new(RInf::default()), Box::new(Greedy))
            }
            AlgorithmPreset::RInfWr => {
                MatchPipeline::new(metric, Box::new(RInf::without_ranking()), Box::new(Greedy))
            }
            AlgorithmPreset::RInfPb => MatchPipeline::new(
                metric,
                Box::new(RInfProgressive::default()),
                Box::new(Greedy),
            ),
            AlgorithmPreset::Sinkhorn => {
                MatchPipeline::new(metric, Box::new(Sinkhorn::default()), Box::new(Greedy))
            }
            AlgorithmPreset::Hungarian => {
                MatchPipeline::new(metric, Box::new(NoOp), Box::new(Hungarian))
            }
            AlgorithmPreset::StableMarriage => {
                MatchPipeline::new(metric, Box::new(NoOp), Box::new(StableMarriage))
            }
            AlgorithmPreset::Rl => {
                MatchPipeline::new(metric, Box::new(NoOp), Box::new(RlMatcher::default()))
            }
        }
    }

    /// The preset's Table 2 property row.
    pub fn spec(self) -> AlgorithmSpec {
        match self {
            AlgorithmPreset::DInf => AlgorithmSpec {
                name: "DInf",
                pairwise: "Similarity metric",
                matching: "Greedy",
                one_to_one: OneToOne::No,
                direction: Direction::Unidirectional,
                time_complexity: "O(n^2)",
                space_complexity: "O(n^2)",
            },
            AlgorithmPreset::Csls => AlgorithmSpec {
                name: "CSLS",
                pairwise: "CSLS",
                matching: "Greedy",
                one_to_one: OneToOne::No,
                direction: Direction::PartiallyBidirectional,
                time_complexity: "O(n^2)",
                space_complexity: "O(n^2)",
            },
            AlgorithmPreset::RInf => AlgorithmSpec {
                name: "RInf",
                pairwise: "Preference modeling",
                matching: "Greedy",
                one_to_one: OneToOne::No,
                direction: Direction::PartiallyBidirectional,
                time_complexity: "O(n^2 lg n)",
                space_complexity: "O(n^2)",
            },
            AlgorithmPreset::RInfWr => AlgorithmSpec {
                name: "RInf-wr",
                pairwise: "Preference modeling (no ranking)",
                matching: "Greedy",
                one_to_one: OneToOne::No,
                direction: Direction::PartiallyBidirectional,
                time_complexity: "O(n^2)",
                space_complexity: "O(n^2)",
            },
            AlgorithmPreset::RInfPb => AlgorithmSpec {
                name: "RInf-pb",
                pairwise: "Preference modeling (blocked)",
                matching: "Greedy",
                one_to_one: OneToOne::No,
                direction: Direction::PartiallyBidirectional,
                time_complexity: "O(n^2 lg b)",
                space_complexity: "O(n^2)",
            },
            AlgorithmPreset::Sinkhorn => AlgorithmSpec {
                name: "Sink.",
                pairwise: "Sinkhorn operation",
                matching: "Greedy",
                one_to_one: OneToOne::Partial,
                direction: Direction::PartiallyBidirectional,
                time_complexity: "O(l n^2)",
                space_complexity: "O(n^2)",
            },
            AlgorithmPreset::Hungarian => AlgorithmSpec {
                name: "Hun.",
                pairwise: "Similarity metric",
                matching: "Hungarian",
                one_to_one: OneToOne::Yes,
                direction: Direction::Bidirectional,
                time_complexity: "O(n^3)",
                space_complexity: "O(n^2)",
            },
            AlgorithmPreset::StableMarriage => AlgorithmSpec {
                name: "SMat",
                pairwise: "Similarity metric",
                matching: "Gale-Shapley",
                one_to_one: OneToOne::Yes,
                direction: Direction::Bidirectional,
                time_complexity: "O(n^2 lg n)",
                space_complexity: "O(n^2)",
            },
            AlgorithmPreset::Rl => AlgorithmSpec {
                name: "RL",
                pairwise: "Similarity metric",
                matching: "Reinforcement learning",
                one_to_one: OneToOne::Partial,
                direction: Direction::Unidirectional,
                time_complexity: "/",
                space_complexity: "O(n^2)",
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::MatchContext;
    use entmatcher_linalg::Matrix;

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> =
            AlgorithmPreset::all().iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), AlgorithmPreset::all().len());
    }

    #[test]
    fn specs_match_table2_constraints() {
        assert_eq!(AlgorithmPreset::Hungarian.spec().one_to_one, OneToOne::Yes);
        assert_eq!(
            AlgorithmPreset::StableMarriage.spec().one_to_one,
            OneToOne::Yes
        );
        assert_eq!(
            AlgorithmPreset::Sinkhorn.spec().one_to_one,
            OneToOne::Partial
        );
        assert_eq!(AlgorithmPreset::DInf.spec().one_to_one, OneToOne::No);
        assert_eq!(
            AlgorithmPreset::Rl.spec().direction,
            Direction::Unidirectional
        );
        assert_eq!(
            AlgorithmPreset::Hungarian.spec().direction,
            Direction::Bidirectional
        );
    }

    #[test]
    fn every_preset_builds_and_runs() {
        // A clean diagonal instance every algorithm must solve.
        let emb = Matrix::from_fn(6, 6, |r, c| if r == c { 1.0 } else { 0.0 });
        for preset in AlgorithmPreset::all() {
            let pipeline = preset.build();
            let r = pipeline.execute(&emb, &emb, &MatchContext::default());
            for (i, pick) in r.matching.assignment().iter().enumerate() {
                assert_eq!(
                    *pick,
                    Some(i as u32),
                    "{} failed on the identity instance",
                    preset.name()
                );
            }
        }
    }

    #[test]
    fn every_preset_survives_a_nan_source_coordinate() {
        use crate::score::ScoreOptimizer;
        use crate::similarity::{similarity_matrix, SimilarityMetric};
        use entmatcher_support::rng::{Rng, SeedableRng, StdRng};
        // A NaN coordinate makes the source row's cosine scores all NaN.
        let (n, d, broken) = (200, 16, 57);
        let missing_edge = [
            AlgorithmPreset::DInf,
            AlgorithmPreset::Csls,
            AlgorithmPreset::RInf,
            AlgorithmPreset::RInfWr,
            AlgorithmPreset::RInfPb,
            AlgorithmPreset::Hungarian,
        ];
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let target = Matrix::from_fn(n, d, |_, _| rng.gen::<f32>() - 0.5);
            let mut source = Matrix::from_fn(n, d, |r, c| {
                target.get(r, c) + (rng.gen::<f32>() - 0.5) * 0.1
            });
            source.set(broken, rng.gen_range(0..d), f32::NAN);
            for preset in AlgorithmPreset::all() {
                let r = preset
                    .build()
                    .execute(&source, &target, &MatchContext::default());
                if missing_edge.contains(&preset) {
                    assert_eq!(r.matching.assignment()[broken], None, "{}", preset.name());
                }
            }
            // RInf's other rows score exactly as with the row removed.
            let scores = similarity_matrix(&source, &target, SimilarityMetric::Cosine);
            let kept: Vec<usize> = (0..n).filter(|&r| r != broken).collect();
            let without = RInf::default().apply(scores.select_rows(&kept).unwrap());
            let with = RInf::default().apply(scores);
            for (k, &r) in kept.iter().enumerate() {
                let same = with.row(r).iter().zip(without.row(k));
                assert!(
                    same.into_iter().all(|(a, b)| a.to_bits() == b.to_bits()),
                    "row {r}"
                );
            }
        }
    }

    #[test]
    fn enums_roundtrip_through_json() {
        for p in AlgorithmPreset::all() {
            let text = entmatcher_support::json::to_string(&p);
            let back: AlgorithmPreset = entmatcher_support::json::from_str(&text).unwrap();
            assert_eq!(back, p);
        }
        for o in [OneToOne::No, OneToOne::Partial, OneToOne::Yes] {
            let back: OneToOne =
                entmatcher_support::json::from_str(&entmatcher_support::json::to_string(&o))
                    .unwrap();
            assert_eq!(back, o);
        }
        for d in [
            Direction::Unidirectional,
            Direction::PartiallyBidirectional,
            Direction::Bidirectional,
        ] {
            let back: Direction =
                entmatcher_support::json::from_str(&entmatcher_support::json::to_string(&d))
                    .unwrap();
            assert_eq!(back, d);
        }
    }

    #[test]
    fn algorithm_spec_encodes_table2_row() {
        let v = entmatcher_support::json::to_value(&AlgorithmPreset::Sinkhorn.spec());
        assert_eq!(v["name"].as_str(), Some("Sink."));
        assert_eq!(v["one_to_one"].as_str(), Some("Partial"));
        assert_eq!(v["direction"].as_str(), Some("PartiallyBidirectional"));
        assert_eq!(v["time_complexity"].as_str(), Some("O(l n^2)"));
    }

    #[test]
    fn main_seven_is_the_paper_order() {
        let names: Vec<_> = AlgorithmPreset::main_seven()
            .iter()
            .map(|p| p.name())
            .collect();
        assert_eq!(
            names,
            vec!["DInf", "CSLS", "RInf", "Sink.", "Hun.", "SMat", "RL"]
        );
    }
}
