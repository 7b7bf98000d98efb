//! Microbenchmarks of the matchers: Greedy's O(n^2) scan, Gale–Shapley's
//! sort-dominated O(n^2 lg n), the Hungarian algorithm's cubic growth, and
//! the RL matcher's episode loop.

use entmatcher_core::{
    similarity_matrix, Greedy, Hungarian, MatchContext, Matcher, RlMatcher, SimilarityMetric,
    StableMarriage,
};
use entmatcher_data::{clustered_embeddings, EmbeddingSpec};
use entmatcher_linalg::Matrix;
use entmatcher_support::bench::{black_box, Bench};
use entmatcher_support::rng::{Rng, SeedableRng, StdRng};
use std::time::Duration;

fn random_scores(n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(n, n, |_, _| rng.gen::<f32>())
}

/// Cosine scores of a clustered embedding pair whose view noise exceeds
/// the within-cluster spread, so many rows' best target is a sibling's:
/// the contested shape the presets hand the assignment solver.
fn clustered_scores(n: usize, seed: u64) -> Matrix {
    let pair = clustered_embeddings(&EmbeddingSpec {
        entities: n,
        dim: 64,
        noise: 0.35,
        seed,
        ..Default::default()
    });
    similarity_matrix(&pair.source, &pair.target, SimilarityMetric::Cosine)
}

fn bench_matchers(b: &mut Bench) {
    let mut group = b.group("matchers");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    let ctx = MatchContext::default();
    for &n in &[256usize, 512, 1024] {
        let scores = random_scores(n, 7);
        let matchers: Vec<(&str, Box<dyn Matcher>)> = vec![
            ("Greedy", Box::new(Greedy)),
            ("Gale-Shapley", Box::new(StableMarriage)),
            ("Hungarian", Box::new(Hungarian)),
            ("RL", Box::new(RlMatcher::default())),
        ];
        for (name, matcher) in matchers {
            group.bench(format!("{name}/{n}"), || black_box(matcher.run(&scores, &ctx)));
        }
    }
    group.finish();
}

fn bench_hungarian_scaling(b: &mut Bench) {
    // Isolated cubic-growth curve for the assignment solver (the paper's
    // scalability concern in Table 6), on uniform scores and on clustered
    // cosine scores with a tall and a wide slice.
    let mut group = b.group("hungarian_scaling");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    let ctx = MatchContext::default();
    for &n in &[128usize, 256, 512, 1024] {
        let scores = random_scores(n, 11);
        group.bench(n.to_string(), || black_box(Hungarian.run(&scores, &ctx)));
        let scores = clustered_scores(n, 13);
        group.bench(format!("clustered/{n}"), || {
            black_box(Hungarian.run(&scores, &ctx))
        });
    }
    let square = clustered_scores(1024, 13);
    let tall = Matrix::from_fn(1024, 682, |i, j| square.get(i, j));
    let wide = Matrix::from_fn(682, 1024, |i, j| square.get(i, j));
    for (name, scores) in [("tall/1024x682", tall), ("wide/682x1024", wide)] {
        group.bench(format!("clustered/{name}"), || {
            black_box(Hungarian.run(&scores, &ctx))
        });
    }
    group.finish();
}

fn main() {
    let mut b = Bench::from_args();
    bench_matchers(&mut b);
    bench_hungarian_scaling(&mut b);
}
