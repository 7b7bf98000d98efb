//! `large-stream`: the paper's large-scale setting (Table 6).
//!
//! A clustered embedding pair, 12k entities per side at d = 64, with view
//! noise raised until F1 is well below 1. `streaming_greedy` and
//! `streaming_csls` (k = 10, f32) never build the n² matrix; the
//! `linalg::fused` scans over 12k-row matrices do the work. The other seven
//! presets have no streaming form; their metrics come from a 512-entity
//! dense slice of the same pair, and the query metrics from single-entity
//! top-k queries against the full target set.

use crate::dense::{self, DenseTask, PresetRunner, QueryProbe};
use crate::host::Calibrator;
use crate::inputs::{self, Digest};
use crate::stats::{self, Samples};
use crate::tracing::{self, timed, Tracer};
use crate::{Checks, Invalid, Options, Outcome, Scale, WorkDir};
use entmatcher_core::{
    streaming_csls, streaming_greedy, AlgorithmPreset, Matching, SimilarityMetric,
};
use entmatcher_data::{clustered_embeddings, EmbeddingSpec};
use entmatcher_linalg::{fused_argmax_affine, fused_topk_means, normalize_rows_l2, Matrix};
use entmatcher_support::{alloc, pool, telemetry};
use std::time::{Duration, Instant};

/// CSLS neighbourhood size.
pub const CSLS_K: usize = 10;
/// View noise: well above the within-cluster spread, so F1 is far from 1.
pub const NOISE: f32 = 0.35;
/// Presets measured on the dense slice.
const SLICE_STEMS: [&str; 7] = [
    "rinf",
    "rinf_wr",
    "rinf_pb",
    "sinkhorn",
    "hungarian",
    "smat",
    "rl",
];

struct Sizes {
    entities: usize,
    slice: usize,
    slices: usize,
    setup_reps: usize,
    min_rounds: usize,
    slice_rounds_per_round: usize,
    calib_bytes: usize,
}

impl Sizes {
    fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                entities: 12_000,
                slice: 512,
                slices: 3,
                setup_reps: 9,
                min_rounds: 3,
                slice_rounds_per_round: 2,
                calib_bytes: 64 << 20,
            },
            Scale::Tiny => Sizes {
                entities: 600,
                slice: 128,
                slices: 2,
                setup_reps: 2,
                min_rounds: 1,
                slice_rounds_per_round: 1,
                calib_bytes: 1 << 20,
            },
        }
    }
}

fn block() -> usize {
    entmatcher_core::streaming::DEFAULT_BLOCK
}

/// The two streaming calls with their references and F1s.
struct Streams<'a> {
    source: &'a Matrix,
    target: &'a Matrix,
    gold: Vec<Option<u32>>,
    reference: [Option<Matching>; 2],
}

impl Streams<'_> {
    fn verify(&mut self, which: usize, m: Matching, checks: &mut Checks) {
        let name = ["streaming_greedy", "streaming_csls"][which];
        let mut verdict = dense::check_matching(&m, self.source.rows(), self.target.rows(), false);
        match &self.reference[which] {
            Some(first) if verdict.is_ok() && *first != m => {
                verdict = Err("not deterministic across runs".into())
            }
            Some(_) => {}
            None => self.reference[which] = Some(m),
        }
        checks.op(verdict.map_err(|e| format!("{name}: {e}")));
    }

    /// One round of both streaming calls; returns their seconds
    /// `(greedy, csls)`.
    fn round(&mut self, checks: &mut Checks) -> (f64, f64) {
        let started = Instant::now();
        let g = streaming_greedy(self.source, self.target, SimilarityMetric::Cosine, block());
        let g_s = started.elapsed().as_secs_f64();
        self.verify(0, g, checks);
        let started = Instant::now();
        let c = streaming_csls(
            self.source,
            self.target,
            SimilarityMetric::Cosine,
            CSLS_K,
            block(),
        );
        let c_s = started.elapsed().as_secs_f64();
        self.verify(1, c, checks);
        (g_s, c_s)
    }

    /// One traced round: both streaming calls, then both composed from
    /// the public `linalg` parts and checked equal to the calls. Returns
    /// the total seconds of the two streaming-call roots.
    fn traced_round(&mut self, tracer: &Tracer, samples: &mut Samples, checks: &mut Checks) -> f64 {
        let (s, t) = (self.source, self.target);
        let flops = 2.0 * (s.rows() * t.rows() * s.cols()) as f64;
        let mut total = 0.0;
        let mut results = Vec::new();
        for (root, span, stem) in [
            ("op.stream_dinf_call", "stream.dinf", "stream.dinf"),
            ("op.stream_csls_call", "stream.csls", "stream.csls"),
        ] {
            let started = Instant::now();
            let (_root, req) = tracer.op(root);
            let (m, c) = tracer.call(span, req, || {
                if span == "stream.dinf" {
                    streaming_greedy(s, t, SimilarityMetric::Cosine, block())
                } else {
                    streaming_csls(s, t, SimilarityMetric::Cosine, CSLS_K, block())
                }
            });
            drop(_root);
            total += started.elapsed().as_secs_f64();
            samples.push(&format!("{stem}_s"), c.secs);
            samples.push(&format!("{stem}_heap_mb"), c.heap_mb());
            results.push(m);
        }
        let mut fused_flops = 0.0;
        let mut fused_secs = 0.0;
        let mut note = |name: &str, t: tracing::Timed, samples: &mut Samples| {
            samples.push(&format!("{name}_s"), t.secs);
            samples.push(&format!("{name}_heap_mb"), t.heap_mb());
            fused_flops += flops;
            fused_secs += t.secs;
        };
        // DInf: normalized copies, then the fused argmax.
        {
            let (_root, req) = tracer.op("op.stream_dinf");
            let ((sn, tn), _) = tracer.call("normalize", req, || normalized(s, t));
            let (picks, a) = tracer.call("fused.argmax_affine", req, || {
                fused_argmax_affine(&sn, &tn, 1.0, None, None).expect("dims match")
            });
            note("fused.argmax_affine", a, samples);
            let composed = Matching::new(picks);
            checks.check(composed == results[0], || {
                "streaming_greedy disagrees with its composed fused kernels".into()
            });
        }
        // CSLS: both sides' top-k means, then the corrected fused argmax.
        {
            let (_root, req) = tracer.op("op.stream_csls");
            let ((sn, tn), _) = tracer.call("normalize", req, || normalized(s, t));
            let (phi_s, a) = tracer.call("fused.topk_means", req, || {
                fused_topk_means(&sn, &tn, CSLS_K).expect("dims match")
            });
            note("fused.topk_means", a, samples);
            let (phi_t, b) = tracer.call("fused.topk_means", req, || {
                fused_topk_means(&tn, &sn, CSLS_K).expect("dims match")
            });
            note("fused.topk_means", b, samples);
            let neg_s: Vec<f32> = phi_s.iter().map(|v| -v).collect();
            let neg_t: Vec<f32> = phi_t.iter().map(|v| -v).collect();
            let (picks, c) = tracer.call("fused.argmax_affine", req, || {
                fused_argmax_affine(&sn, &tn, 2.0, Some(&neg_s), Some(&neg_t)).expect("dims match")
            });
            note("fused.argmax_affine", c, samples);
            let composed = Matching::new(picks);
            checks.check(composed == results[1], || {
                "streaming_csls disagrees with its composed fused kernels".into()
            });
        }
        samples.push("fused.gflops", fused_flops / fused_secs / 1e9);
        for (which, m) in results.into_iter().enumerate() {
            self.verify(which, m, checks);
        }
        total
    }
}

fn normalized(s: &Matrix, t: &Matrix) -> (Matrix, Matrix) {
    let mut s = s.clone();
    let mut t = t.clone();
    normalize_rows_l2(&mut s);
    normalize_rows_l2(&mut t);
    (s, t)
}

/// Runs `large-stream`.
pub fn run(opts: &Options, work: &WorkDir) -> Result<Outcome, Invalid> {
    telemetry::set_enabled(false);
    let sz = Sizes::of(opts.scale);
    let mut out = Outcome::default();
    let pair = clustered_embeddings(&EmbeddingSpec {
        entities: sz.entities,
        dim: 64,
        noise: NOISE,
        seed: opts.seed,
        ..EmbeddingSpec::default()
    });
    let emb_dir = work.path.join("emb");
    inputs::write_embeddings(&emb_dir, &pair.source, &pair.target)
        .map_err(|e| Invalid(e.to_string()))?;
    drop(pair);
    let mut digest = Digest::default();
    digest
        .update_dir(&emb_dir)
        .map_err(|e| Invalid(e.to_string()))?;
    out.notes.push(digest.describe());

    // Set-up loads the snapshots as `entmatcher match` does; the gold is
    // the identity, so there is nothing else to build. One set-up provides
    // the data; more are timed between rounds.
    let timed_setup = |setup_s: &mut Vec<f64>| -> Result<_, Invalid> {
        let started = Instant::now();
        let loaded = inputs::load_embeddings(&emb_dir).map_err(Invalid)?;
        setup_s.push(started.elapsed().as_secs_f64());
        Ok(loaded)
    };
    let mut setup_s = Vec::new();
    let (source, target) = timed_setup(&mut setup_s)?;
    let checks = &mut out.checks;
    let m = &mut out.metrics;

    let mut streams = Streams {
        source: &source,
        target: &target,
        gold: (0..source.rows() as u32).map(Some).collect(),
        reference: [None, None],
    };
    // Disjoint row windows of the pair; a slice preset's time is the mean
    // over the windows of its median on each.
    let slices: Vec<DenseTask> = (0..sz.slices)
        .map(|i| {
            let (s, t) = inputs::row_slice(&source, &target, i * sz.slice, sz.slice);
            DenseTask::identity(s, t)
        })
        .collect();
    // Streaming DInf on a slice must equal dense DInf on it.
    let first = &slices[0];
    let dense_dinf = AlgorithmPreset::DInf
        .build()
        .execute(&first.source, &first.target, &first.ctx)
        .matching;
    let streamed = streaming_greedy(
        &first.source,
        &first.target,
        SimilarityMetric::Cosine,
        block(),
    );
    checks.check(streamed == dense_dinf, || {
        "streaming DInf differs from dense DInf on the slice".into()
    });
    let mut slice_runners: Vec<PresetRunner> = slices
        .iter()
        .map(|t| PresetRunner::new(t, &SLICE_STEMS))
        .collect();
    let mut per_slice: Vec<Samples> = slices.iter().map(|_| Samples::default()).collect();
    let mut probe = QueryProbe::new(&source, &target);
    let mut calib = Calibrator::new(sz.calib_bytes);
    let mut samples = Samples::default();

    // Warm-up round; fixes the references.
    streams.round(checks);
    for r in &mut slice_runners {
        r.round(&mut Samples::default(), checks);
    }
    if !opts.trace {
        let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
        let mut rounds = 0;
        while rounds < sz.min_rounds || Instant::now() < deadline {
            let (g, c) = streams.round(checks);
            samples.push("dinf_s", g);
            samples.push("csls_s", c);
            for _ in 0..sz.slice_rounds_per_round {
                for (r, s) in slice_runners.iter_mut().zip(&mut per_slice) {
                    r.round(s, checks);
                }
            }
            probe.block(checks, None);
            timed_setup(&mut setup_s)?;
            calib.sample();
            rounds += 1;
        }
        while setup_s.len() < sz.setup_reps {
            timed_setup(&mut setup_s)?;
        }
        alloc::set_enabled(true);
        let heap = [
            timed(|| streaming_greedy(&source, &target, SimilarityMetric::Cosine, block())).1,
            timed(|| streaming_csls(&source, &target, SimilarityMetric::Cosine, CSLS_K, block())).1,
        ]
        .iter()
        .map(|t| t.heap_bytes)
        .max()
        .unwrap_or(0);
        alloc::set_enabled(false);

        m.put("setup_s", stats::iq_mean(&setup_s).expect("setup ran"), "s");
        for name in ["dinf_s", "csls_s"] {
            if let Some(v) = samples.iq_mean(name) {
                m.put(name, v, "s");
            }
        }
        dense::report_presets(&per_slice, m);
        let f1s: Vec<f64> = streams
            .reference
            .iter()
            .flatten()
            .map(|r| dense::f1(r, &streams.gold))
            .collect();
        if let Some(f) = stats::mean(&f1s) {
            m.put("f1_mean", f, "ratio");
        }
        m.put("heap_peak_mb", heap as f64 / 1e6, "MB");
        dense::report_queries(std::slice::from_ref(&probe), m, checks);
        out.notes.push(format!(
            "rounds={rounds} host_calib_s={:.6}",
            calib.median_s().unwrap_or(0.0)
        ));
    } else {
        // Untraced and traced rounds alternate; their difference is the
        // tracing overhead.
        let tracer = Tracer::new();
        let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
        let mut untraced_rounds = Vec::new();
        let mut traced_rounds = Vec::new();
        while traced_rounds.len() < 2 || Instant::now() < deadline {
            let (g, c) = streams.round(checks);
            untraced_rounds.push(g + c);
            let before = pool::global().stats();
            traced_rounds.push(streams.traced_round(&tracer, &mut samples, checks));
            dense::pool_delta(before, &mut samples);
            for r in &mut slice_runners {
                r.traced_round(&tracer, &mut samples, checks);
            }
            probe.block(checks, Some(&tracer));
            calib.sample();
        }
        // The online path over the same pair, traced once.
        crate::serve::census(
            opts.scale, opts.seed, &emb_dir, &source, &target, &tracer, m, checks,
        )?;
        let trace = tracer.snapshot();
        tracing::export(&trace, &work.trace_file).map_err(|e| Invalid(e.to_string()))?;
        out.notes
            .push(format!("trace_file={}", work.trace_file.display()));
        dense::report_layer_samples(&samples, m);
        dense::report_breakdown(&trace, traced_rounds.len(), crate::serve::LAYERS, m);
        dense::report_overhead(&traced_rounds, &untraced_rounds, m);
        calib.report(m);
    }
    Ok(out)
}
