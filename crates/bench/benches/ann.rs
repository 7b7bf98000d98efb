//! ANN candidate-generation benchmark: recall@10 versus end-to-end
//! similarity-stage speedup for the IVF index against the blocked-exact
//! oracle (`linalg::fused_topk`).
//!
//! The full-size configuration indexes 100k clustered 64-d embeddings and
//! sweeps the probe width. For every `nprobe` the artifact records
//! recall@10 against the exact top-10 and the speedup
//! `exact_seconds / (train_seconds + probe_seconds)` — train time is
//! charged to every row because a matching run builds the index once and
//! probes once, so the quotient is the end-to-end similarity-stage
//! speedup a `--candidates ivf` run actually sees. The resulting
//! recall-vs-speedup curve is written to `BENCH_ann.json` ([`Ledger`]),
//! one `nprobe=N` case per probe width, and gated by the `bench_gate`
//! binary (`entmatcher_bench::gate::ann`).
//!
//! Modes:
//! * default — 100k entities, d = 64 (the acceptance configuration; the
//!   exact oracle pass alone is ~1.3 TFLOP, so expect minutes);
//! * quick ([`artifact::quick_mode`]) — CI smoke: 2k entities, still
//!   exercising train, sweep, JSON write and self-check.

use entmatcher_bench::artifact::{self, Ledger, Metric, Suite};
use entmatcher_core::{IvfIndex, IvfParams};
use entmatcher_data::{clustered_embeddings, EmbeddingSpec};
use entmatcher_linalg::fused_topk;
use std::hint::black_box;
use std::time::Instant;

const K: usize = 10;

/// Fraction of oracle top-k pairs present in the approximate lists.
fn recall(approx: &[Vec<(u32, f32)>], oracle: &[Vec<(u32, f32)>]) -> f64 {
    let mut hit = 0usize;
    let mut total = 0usize;
    for (a, e) in approx.iter().zip(oracle) {
        let got: std::collections::HashSet<u32> = a.iter().map(|&(i, _)| i).collect();
        total += e.len();
        hit += e.iter().filter(|&&(i, _)| got.contains(&i)).count();
    }
    if total == 0 {
        1.0
    } else {
        hit as f64 / total as f64
    }
}

/// Builds the index, sweeps `nprobes` and returns the ledger.
fn run(entities: usize, dim: usize, clusters: usize, nprobes: &[usize], quick: bool) -> Ledger {
    eprintln!("ann: generating {entities} x {dim} clustered pair ({clusters} clusters)...");
    let pair = clustered_embeddings(&EmbeddingSpec {
        entities,
        dim,
        clusters,
        spread: 0.25,
        noise: 0.05,
        seed: 0xA11,
    });
    let (queries, target) = (pair.source, pair.target);

    // The oracle IS the exact-path timing: the dense similarity stage runs
    // this same fused streaming top-k over all rows.
    eprintln!("ann: exact oracle fused_topk({entities} x {entities}, d={dim})...");
    let start = Instant::now();
    let oracle = black_box(fused_topk(&queries, &target, K).unwrap());
    let exact_seconds = start.elapsed().as_secs_f64();
    eprintln!("ann: exact pass: {exact_seconds:.2}s");

    let start = Instant::now();
    let index = IvfIndex::build(&target, &IvfParams::default());
    let train_seconds = start.elapsed().as_secs_f64();
    eprintln!(
        "ann: trained nlist={} in {train_seconds:.2}s",
        index.nlist()
    );

    let (n, d) = (queries.rows(), target.cols());
    let mut ledger = Ledger::new(Suite::Ann, quick);
    ledger.push("exact", n, d, Metric::K, K as f64);
    ledger.push("exact", n, d, Metric::Seconds, exact_seconds);
    ledger.push("ivf_train", n, d, Metric::Nlist, index.nlist() as f64);
    ledger.push("ivf_train", n, d, Metric::Seconds, train_seconds);
    for &nprobe in nprobes {
        let nprobe = nprobe.min(index.nlist());
        let start = Instant::now();
        let approx = black_box(index.search(&queries, K, nprobe));
        let probe_seconds = start.elapsed().as_secs_f64();
        let recall_at_10 = recall(&approx, &oracle);
        let speedup = exact_seconds / (train_seconds + probe_seconds);
        eprintln!(
            "ann: nprobe={nprobe:4}: recall@{K}={recall_at_10:.4} probe={probe_seconds:.2}s \
             speedup={speedup:.1}x"
        );
        let case = format!("nprobe={nprobe}");
        ledger.push(&case, n, d, Metric::RecallAt10, recall_at_10);
        ledger.push(&case, n, d, Metric::Seconds, probe_seconds);
        ledger.push(&case, n, d, Metric::Speedup, speedup);
    }
    ledger
}

fn main() {
    let quick = artifact::quick_mode();
    let ledger = if quick {
        run(2000, 32, 50, &[1, 4, 16, 64], quick)
    } else {
        run(100_000, 64, 500, &[1, 2, 4, 8, 16, 32, 64], quick)
    };
    let (path, ledger) = ledger.write();

    // Self-check: a monotone-recall sweep of finite numbers. The
    // acceptance floor (a row with recall >= 0.95 at >= 5x) is the gate's,
    // not asserted here — the quick smoke runs at a size where speedup is
    // meaningless.
    let recalls: Vec<_> = ledger.lookup(Metric::RecallAt10, None).collect();
    assert!(
        !recalls.is_empty(),
        "self-check: no sweep rows in the ledger"
    );
    let mut prev = 0.0f64;
    for row in recalls {
        let speedup = ledger.value(Metric::Speedup, &row.case);
        let (r, s) = (row.value, speedup.unwrap_or(f64::NAN));
        assert!(
            r.is_finite() && (0.0..=1.0).contains(&r),
            "self-check: bad recall {r}"
        );
        assert!(s.is_finite() && s > 0.0, "self-check: bad speedup {s}");
        assert!(
            r + 1e-12 >= prev,
            "self-check: recall not monotone in nprobe ({r} after {prev})"
        );
        prev = r;
    }
    println!(
        "ann bench: wrote {} ({} records, self-check ok)",
        path.display(),
        ledger.records.len()
    );
}
