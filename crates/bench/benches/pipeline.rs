//! Pipeline input benchmarks: the encoders and dataset generation on a
//! generated DBP15K slice. The nine algorithm presets are timed end to end,
//! with bounds, by `perfbench`'s `paper-dense` workload.

use entmatcher_data::{benchmarks, generate_pair};
use entmatcher_eval::EncoderKind;
use entmatcher_support::bench::{black_box, Bench};
use std::time::Duration;

fn bench_encoders(b: &mut Bench) {
    let pair = generate_pair(&benchmarks::dbp15k("D-Z", 0.05));
    let mut group = b.group("encoders_dbp15k");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    for kind in [EncoderKind::Gcn, EncoderKind::Rrea, EncoderKind::Name] {
        group.bench(format!("{kind:?}"), || black_box(kind.encode(&pair)));
    }
    group.finish();
}

fn bench_generation(b: &mut Bench) {
    let mut group = b.group("dataset_generation");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    for &scale in &[0.02f64, 0.05, 0.1] {
        let spec = benchmarks::dbp15k("D-Z", scale);
        group.bench(scale.to_string(), || black_box(generate_pair(&spec)));
    }
    group.finish();
}

fn main() {
    let mut b = Bench::from_args();
    bench_encoders(&mut b);
    bench_generation(&mut b);
}
