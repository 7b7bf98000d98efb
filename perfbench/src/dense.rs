//! `paper-dense`: the paper's main experiment (Tables 4–5, Fig. 5).
//!
//! Six SRPRS-like KG pairs (`srprs("S-W", 0.15)`: power-law degrees,
//! 1-to-1, 1575 test candidates per side), each encoded by RREA; all nine
//! presets run round-robin through `MatchPipeline::execute` with the task's
//! adjacency context. Score optimizers and matchers do almost all the work.
//!
//! This module also holds the preset and single-entity query measurements
//! `large-stream` reuses on its own inputs.

use crate::host::Calibrator;
use crate::inputs::{self, Digest};
use crate::stats::{self, Samples};
use crate::tracing::{self, timed, Breakdown, Tracer};
use crate::{Checks, Invalid, Metrics, Options, Outcome, Scale, WorkDir};
use entmatcher_core::spec::OneToOne;
use entmatcher_core::{similarity_matrix, AlgorithmPreset, MatchContext, MatchPipeline, Matching};
use entmatcher_data::{benchmarks, generate_pair, PairSpec};
use entmatcher_embed::{Encoder, RreaEncoder, UnifiedEmbeddings};
use entmatcher_eval::MatchTask;
use entmatcher_graph::io::{load_pair_dir, save_pair_dir};
use entmatcher_linalg::{fused_topk_packed, normalize_rows_l2, Matrix, PackedAny, Precision};
use entmatcher_support::{alloc, json, pool, telemetry};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The nine presets with the names of their metrics and layer spans:
/// `(preset, metric stem, score-optimizer span, matcher span)`.
pub const PRESETS: [(AlgorithmPreset, &str, &str, &str); 9] = [
    (AlgorithmPreset::DInf, "dinf", "score.none", "match.greedy"),
    (AlgorithmPreset::Csls, "csls", "score.csls", "match.greedy"),
    (AlgorithmPreset::RInf, "rinf", "score.rinf", "match.greedy"),
    (
        AlgorithmPreset::RInfWr,
        "rinf_wr",
        "score.rinf_wr",
        "match.greedy",
    ),
    (
        AlgorithmPreset::RInfPb,
        "rinf_pb",
        "score.rinf_pb",
        "match.greedy",
    ),
    (
        AlgorithmPreset::Sinkhorn,
        "sinkhorn",
        "score.sinkhorn",
        "match.greedy",
    ),
    (
        AlgorithmPreset::Hungarian,
        "hungarian",
        "score.none",
        "match.hungarian",
    ),
    (
        AlgorithmPreset::StableMarriage,
        "smat",
        "score.none",
        "match.stable",
    ),
    (AlgorithmPreset::Rl, "rl", "score.none", "match.rl"),
];

/// Top-k width of the single-entity queries.
pub const QUERY_K: usize = 10;

struct Sizes {
    srprs_scale: f64,
    pairs: usize,
    setup_reps: usize,
    min_rounds: usize,
    calib_bytes: usize,
}

impl Sizes {
    fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                srprs_scale: 0.15,
                pairs: 6,
                setup_reps: 9,
                min_rounds: 3,
                calib_bytes: 64 << 20,
            },
            Scale::Tiny => Sizes {
                srprs_scale: 0.01,
                pairs: 2,
                setup_reps: 2,
                min_rounds: 1,
                calib_bytes: 1 << 20,
            },
        }
    }
}

/// Queries per latency block: enough for a p99 with ten samples beyond it.
pub const BLOCK: usize = 1100;

/// A dense matching task: candidate embeddings, the matcher context, and
/// each source row's gold target column.
pub struct DenseTask {
    /// Source candidate rows.
    pub source: Matrix,
    /// Target candidate rows.
    pub target: Matrix,
    /// Adjacency context (used by the RL matcher).
    pub ctx: MatchContext,
    /// Gold target column per source row.
    pub gold: Vec<Option<u32>>,
}

impl DenseTask {
    /// A row-aligned task (gold is the identity), as clustered pairs are.
    pub fn identity(source: Matrix, target: Matrix) -> DenseTask {
        let gold = (0..source.rows() as u32).map(Some).collect();
        DenseTask {
            source,
            target,
            ctx: MatchContext::default(),
            gold,
        }
    }
}

/// F1 of `m` against `gold` (per-row gold columns).
pub fn f1(m: &Matching, gold: &[Option<u32>]) -> f64 {
    let predicted = m.matched_count();
    let n_gold = gold.iter().filter(|g| g.is_some()).count();
    let correct = m
        .pairs()
        .filter(|&(i, j)| gold.get(i).copied().flatten() == Some(j as u32))
        .count();
    if correct == 0 {
        return 0.0;
    }
    let p = correct as f64 / predicted as f64;
    let r = correct as f64 / n_gold as f64;
    2.0 * p * r / (p + r)
}

/// Structural check of a matching over `n_s x n_t`.
pub fn check_matching(m: &Matching, n_s: usize, n_t: usize, injective: bool) -> Result<(), String> {
    if m.len() != n_s {
        return Err(format!("matching covers {} of {n_s} sources", m.len()));
    }
    if let Some((i, j)) = m.pairs().find(|&(_, j)| j >= n_t) {
        return Err(format!("source {i} matched to out-of-range target {j}"));
    }
    if injective && !m.is_injective() {
        return Err("a one-to-one matcher reused a target".into());
    }
    Ok(())
}

/// Runs presets round-robin on one task, checking every output against
/// the structure rules and against the first run of the same preset.
pub struct PresetRunner<'a> {
    task: &'a DenseTask,
    presets: Vec<(usize, MatchPipeline)>,
    reference: Vec<Option<Matching>>,
}

impl<'a> PresetRunner<'a> {
    /// Runner for the presets of [`PRESETS`] whose stems are in `stems`.
    pub fn new(task: &'a DenseTask, stems: &[&str]) -> PresetRunner<'a> {
        let presets: Vec<(usize, MatchPipeline)> = PRESETS
            .iter()
            .enumerate()
            .filter(|(_, p)| stems.contains(&p.1))
            .map(|(i, p)| (i, p.0.build()))
            .collect();
        let reference = vec![None; presets.len()];
        PresetRunner {
            task,
            presets,
            reference,
        }
    }

    fn verify(&mut self, slot: usize, m: Matching, checks: &mut Checks) {
        let preset = PRESETS[self.presets[slot].0].0;
        let injective = preset.spec().one_to_one == OneToOne::Yes;
        let (n_s, n_t) = (self.task.source.rows(), self.task.target.rows());
        let mut verdict = check_matching(&m, n_s, n_t, injective);
        match &self.reference[slot] {
            Some(first) if verdict.is_ok() && *first != m => {
                verdict = Err(format!(
                    "{} is not deterministic across runs",
                    preset.name()
                ))
            }
            Some(_) => {}
            None => self.reference[slot] = Some(m),
        }
        checks.op(verdict.map_err(|e| format!("{}: {e}", preset.name())));
    }

    /// One round: every preset's `execute` once, timed into `<stem>_s`.
    /// Returns the round's total seconds.
    pub fn round(&mut self, samples: &mut Samples, checks: &mut Checks) -> f64 {
        let t = self.task;
        let mut total = 0.0;
        for slot in 0..self.presets.len() {
            let (idx, pipeline) = &self.presets[slot];
            let stem = PRESETS[*idx].1;
            let started = Instant::now();
            let report = pipeline.execute(&t.source, &t.target, &t.ctx);
            let secs = started.elapsed().as_secs_f64();
            total += secs;
            samples.push(&format!("{stem}_s"), secs);
            self.verify(slot, report.matching, checks);
        }
        total
    }

    /// One traced round: each preset composed from its public parts
    /// (`similarity_matrix` -> `optimizer.apply` -> `matcher.run`), each
    /// call in its own span under an `op.<stem>` root, and the result
    /// checked equal to what `execute` returned. Returns the total root
    /// seconds.
    pub fn traced_round(
        &mut self,
        tracer: &Tracer,
        samples: &mut Samples,
        checks: &mut Checks,
    ) -> f64 {
        let t = self.task;
        let flops = 2.0 * (t.source.rows() * t.target.rows() * t.source.cols()) as f64;
        let mut total = 0.0;
        for slot in 0..self.presets.len() {
            let (idx, pipeline) = &self.presets[slot];
            let (_, stem, score_span, match_span) = PRESETS[*idx];
            let started = Instant::now();
            let (root, req) = tracer.op(&format!("op.{stem}"));
            let (scores, sim) = tracer.call("similarity", req, || {
                similarity_matrix(&t.source, &t.target, pipeline.metric)
            });
            let (scores, opt) = tracer.call(score_span, req, || pipeline.optimizer.apply(scores));
            let (m, mat) = tracer.call(match_span, req, || pipeline.matcher.run(&scores, &t.ctx));
            drop(scores);
            drop(root);
            total += started.elapsed().as_secs_f64();
            samples.push("similarity_s", sim.secs);
            samples.push("similarity_heap_mb", sim.heap_mb());
            samples.push("similarity_gflops", flops / sim.secs / 1e9);
            if score_span != "score.none" {
                samples.push(&format!("{score_span}_s"), opt.secs);
                samples.push(&format!("{score_span}_heap_mb"), opt.heap_mb());
            }
            samples.push(&format!("{match_span}_s"), mat.secs);
            samples.push(&format!("{match_span}_heap_mb"), mat.heap_mb());
            // The reference is what `execute` returned in the warm-up round.
            self.verify(slot, m, checks);
        }
        total
    }

    /// Mean F1 over the presets' (deterministic) matchings.
    pub fn f1_mean(&self) -> Option<f64> {
        let f: Vec<f64> = self
            .reference
            .iter()
            .flatten()
            .map(|m| f1(m, &self.task.gold))
            .collect();
        stats::mean(&f)
    }

    /// Largest measured peak heap growth of one `execute`, in bytes.
    /// Allocation counting must be on.
    pub fn heap_peak(&self) -> u64 {
        let t = self.task;
        self.presets
            .iter()
            .map(|(_, p)| {
                timed(|| p.execute(&t.source, &t.target, &t.ctx))
                    .1
                    .heap_bytes
            })
            .max()
            .unwrap_or(0)
    }
}

/// Single-entity top-k queries against a workload's target set, through
/// the library's exact packed top-k (`fused_topk_packed`, the kernel the
/// service's exact path calls), one caller at a time, in blocks of
/// [`BLOCK`].
pub struct QueryProbe {
    queries: Matrix,
    packed: PackedAny,
    n_t: usize,
    next: usize,
    blocks: Vec<Vec<f64>>,
}

impl QueryProbe {
    /// Normalizes copies of both sides and packs the target at f32.
    pub fn new(source: &Matrix, target: &Matrix) -> QueryProbe {
        let mut queries = source.clone();
        let mut t = target.clone();
        normalize_rows_l2(&mut queries);
        normalize_rows_l2(&mut t);
        QueryProbe {
            packed: PackedAny::pack(&t, Precision::F32),
            n_t: t.rows(),
            queries,
            next: 0,
            blocks: Vec::new(),
        }
    }

    /// Runs one block of queries (cycling through the source rows).
    pub fn block(&mut self, checks: &mut Checks, tracer: Option<&Tracer>) {
        let mut lat_ms = Vec::with_capacity(BLOCK);
        for _ in 0..BLOCK {
            let row = self
                .queries
                .select_rows(&[self.next % self.queries.rows()])
                .expect("row in range");
            self.next += 1;
            let (hits, secs) = match tracer {
                None => {
                    let started = Instant::now();
                    let hits = fused_topk_packed(&row, &self.packed, QUERY_K);
                    (hits, started.elapsed().as_secs_f64())
                }
                Some(tr) => {
                    let (_root, req) = tr.op("op.query");
                    let (hits, t) = tr.call("fused.topk", req, || {
                        fused_topk_packed(&row, &self.packed, QUERY_K)
                    });
                    (hits, t.secs)
                }
            };
            lat_ms.push(secs * 1e3);
            checks.op(match hits {
                Ok(h) => check_topk(&h, QUERY_K.min(self.n_t), self.n_t),
                Err(e) => Err(e.to_string()),
            });
        }
        self.blocks.push(lat_ms);
    }
}

/// Puts `p50_ms` and `p99_ms` (medians over the blocks of every probe) and
/// `max_qps` (queries per second of busy time of the one caller).
pub fn report_queries(probes: &[QueryProbe], m: &mut Metrics, checks: &mut Checks) {
    let blocks: Vec<Vec<f64>> = probes.iter().flat_map(|p| p.blocks.clone()).collect();
    report_blocks(&blocks, m, checks);
    let busy_s: f64 = blocks.iter().flatten().sum::<f64>() / 1e3;
    let n = blocks.iter().map(Vec::len).sum::<usize>();
    m.put("max_qps", n as f64 / busy_s, "req/s");
}

/// Puts `p50_ms` and `p99_ms`: each block's median and p99, then the
/// interquartile mean over the blocks (see [`stats::iq_mean`]). A block too
/// small for a p99 is a failed check.
pub fn report_blocks(blocks: &[Vec<f64>], m: &mut Metrics, checks: &mut Checks) {
    let p50: Vec<f64> = blocks.iter().filter_map(|b| stats::median(b)).collect();
    let p99: Vec<f64> = blocks
        .iter()
        .filter_map(|b| stats::percentile(b, 0.99))
        .collect();
    checks.check(!blocks.is_empty() && p99.len() == blocks.len(), || {
        "a latency block cannot support a p99".into()
    });
    if let (Some(a), Some(b)) = (stats::iq_mean(&p50), stats::iq_mean(&p99)) {
        m.put("p50_ms", a, "ms");
        m.put("p99_ms", b, "ms");
    }
}

/// Structural check of one top-k answer list set of a single query.
pub fn check_topk(hits: &[Vec<(u32, f32)>], k: usize, n_t: usize) -> Result<(), String> {
    let [row] = hits else {
        return Err(format!("expected 1 result row, got {}", hits.len()));
    };
    if row.len() != k {
        return Err(format!("expected {k} hits, got {}", row.len()));
    }
    if row.iter().any(|&(id, _)| id as usize >= n_t) {
        return Err("hit id out of range".into());
    }
    if row.windows(2).any(|w| w[0].1 < w[1].1) {
        return Err("hits are not best-first".into());
    }
    Ok(())
}

/// Puts the median of every sampled per-layer series.
pub fn report_layer_samples(samples: &Samples, m: &mut Metrics) {
    for (name, unit) in crate::PER_LAYER {
        if let Some(v) = samples.median(name) {
            m.put(name, v, unit);
        }
    }
}

/// Puts each preset's `<stem>_s`: the interquartile mean of its samples on
/// each input (see [`stats::iq_mean`]), then the mean over the inputs, so
/// one input's data-dependent cost does not set the value.
pub fn report_presets(per_input: &[Samples], m: &mut Metrics) {
    for (_, stem, _, _) in PRESETS {
        let name = format!("{stem}_s");
        let per: Vec<f64> = per_input.iter().filter_map(|s| s.iq_mean(&name)).collect();
        if per.len() == per_input.len() {
            if let Some(v) = stats::mean(&per) {
                m.put(&name, v, "s");
            }
        }
    }
}

/// Puts `self.<layer>_s`, and the median unattributed remainder of each
/// root `op.<name>` as `unattributed.<name>_s` (or `_ms` where the metric
/// list says so). Self time is per traced round, except for the `once`
/// layers, which run a fixed amount of work once per traced run.
pub fn report_breakdown(
    trace: &entmatcher_support::telemetry::Trace,
    rounds: usize,
    once: &[&str],
    m: &mut Metrics,
) {
    let b = Breakdown::of(trace);
    for (layer, secs) in &b.layer_self {
        let per = if once.contains(layer) {
            1
        } else {
            rounds.max(1)
        };
        m.put(&format!("self.{layer}_s"), secs / per as f64, "s");
    }
    for (root, rest) in &b.unattributed {
        let Some(op) = root.strip_prefix("op.") else {
            continue;
        };
        let Some(med) = stats::median(rest) else {
            continue;
        };
        if crate::PER_LAYER
            .iter()
            .any(|(n, _)| *n == format!("unattributed.{op}_s"))
        {
            m.put(&format!("unattributed.{op}_s"), med, "s");
        } else if crate::PER_LAYER
            .iter()
            .any(|(n, _)| *n == format!("unattributed.{op}_ms"))
        {
            m.put(&format!("unattributed.{op}_ms"), med * 1e3, "ms");
        }
    }
}

/// Puts per-round pool task and steal counts.
pub fn pool_delta(before: pool::PoolStats, samples: &mut Samples) {
    let after = pool::global().stats();
    samples.push("pool.tasks", (after.tasks - before.tasks) as f64);
    samples.push("pool.steals", (after.steals - before.steals) as f64);
}

/// Puts `trace.overhead_pct`.
pub fn report_overhead(traced: &[f64], untraced: &[f64], m: &mut Metrics) {
    if let (Some(t), Some(u)) = (stats::median(traced), stats::median(untraced)) {
        m.put("trace.overhead_pct", 100.0 * (t - u) / u, "%");
    }
}

/// Writes the pair, its spec and the RREA embeddings the way `entmatcher
/// generate` + `entmatcher encode --encoder rrea` do.
fn synthesize(dir: &Path, scale: f64, seed: u64, digest: &mut Digest) -> Result<(), String> {
    let mut spec = benchmarks::srprs("S-W", scale);
    spec.seed = seed;
    let pair = generate_pair(&spec);
    let data = dir.join("data");
    save_pair_dir(&data, &pair).map_err(|e| e.to_string())?;
    std::fs::write(data.join("spec.json"), json::to_string_pretty(&spec))
        .map_err(|e| e.to_string())?;
    let loaded = load_pair_dir(&data, spec.seed).map_err(|e| e.to_string())?;
    let emb = RreaEncoder {
        seed,
        ..Default::default()
    }
    .encode(&loaded);
    inputs::write_embeddings(&dir.join("emb"), &emb.source, &emb.target)
        .map_err(|e| e.to_string())?;
    digest.update_dir(&data).map_err(|e| e.to_string())?;
    digest
        .update_dir(&dir.join("emb"))
        .map_err(|e| e.to_string())
}

/// What `entmatcher match` does before its first answer: load the pair
/// (with the seed its spec recorded) and the snapshots, then build the
/// task and its context.
fn setup(dir: &Path) -> Result<(MatchTask, Matrix, Matrix, MatchContext), String> {
    let data = dir.join("data");
    let seed = std::fs::read_to_string(data.join("spec.json"))
        .ok()
        .and_then(|text| json::from_str::<PairSpec>(&text).ok())
        .map_or(0, |s| s.seed);
    let pair = load_pair_dir(&data, seed).map_err(|e| e.to_string())?;
    let (source, target) = inputs::load_embeddings(&dir.join("emb"))?;
    let emb = UnifiedEmbeddings { source, target };
    emb.assert_consistent();
    if emb.source.rows() != pair.source.num_entities() {
        return Err("embeddings do not cover the source KG".into());
    }
    let task = MatchTask::from_pair(&pair);
    let (src, tgt) = task.candidate_embeddings(&emb);
    let ctx = task.context(&pair);
    Ok((task, src, tgt, ctx))
}

/// Times one [`setup`] into `setup_s`.
fn timed_setup(
    dir: &Path,
    setup_s: &mut Vec<f64>,
) -> Result<(MatchTask, Matrix, Matrix, MatchContext), Invalid> {
    let started = Instant::now();
    let loaded = setup(dir).map_err(Invalid)?;
    setup_s.push(started.elapsed().as_secs_f64());
    Ok(loaded)
}

/// The set-up's task as candidate rows plus each row's gold column.
fn dense_task((task, source, target, ctx): (MatchTask, Matrix, Matrix, MatchContext)) -> DenseTask {
    let source_row: HashMap<_, usize> = task
        .source_candidates
        .iter()
        .enumerate()
        .map(|(i, &e)| (e, i))
        .collect();
    let target_col: HashMap<_, u32> = task
        .target_candidates
        .iter()
        .enumerate()
        .map(|(j, &e)| (e, j as u32))
        .collect();
    let mut gold = vec![None; task.num_sources()];
    for link in task.gold.iter() {
        if let (Some(&i), Some(&j)) = (source_row.get(&link.source), target_col.get(&link.target)) {
            gold[i] = Some(j);
        }
    }
    DenseTask {
        source,
        target,
        ctx,
        gold,
    }
}

/// Runs `paper-dense`.
pub fn run(opts: &Options, work: &WorkDir) -> Result<Outcome, Invalid> {
    telemetry::set_enabled(false);
    let sz = Sizes::of(opts.scale);
    let mut out = Outcome::default();
    // Several KG pairs per run: a preset's time is the mean over the pairs
    // of its interquartile mean on each, so one pair's data-dependent cost
    // (Hungarian's varies by about a fifth between pairs) does not set the
    // value.
    let dirs: Vec<PathBuf> = (0..sz.pairs)
        .map(|i| work.path.join(format!("pair-{i}")))
        .collect();
    let mut digest = Digest::default();
    for (i, dir) in dirs.iter().enumerate() {
        let seed = opts
            .seed
            .wrapping_mul(sz.pairs as u64)
            .wrapping_add(i as u64);
        synthesize(dir, sz.srprs_scale, seed, &mut digest).map_err(Invalid)?;
    }
    out.notes.push(digest.describe());

    // The first set-ups provide the data; more are timed between rounds, so
    // `setup_s` samples the whole run rather than one moment of it.
    let mut setup_s = Vec::new();
    let tasks = dirs
        .iter()
        .map(|d| timed_setup(d, &mut setup_s).map(dense_task))
        .collect::<Result<Vec<_>, _>>()?;
    let stems: Vec<&str> = PRESETS.iter().map(|p| p.1).collect();
    let mut runners: Vec<PresetRunner> =
        tasks.iter().map(|t| PresetRunner::new(t, &stems)).collect();
    let mut probes: Vec<QueryProbe> = tasks
        .iter()
        .map(|t| QueryProbe::new(&t.source, &t.target))
        .collect();
    let mut per_input: Vec<Samples> = tasks.iter().map(|_| Samples::default()).collect();
    let mut calib = Calibrator::new(sz.calib_bytes);
    let checks = &mut out.checks;
    let m = &mut out.metrics;

    // The first round is a warm-up and fixes each preset's reference.
    for r in &mut runners {
        r.round(&mut Samples::default(), checks);
    }
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(opts.seconds);
    if !opts.trace {
        let mut rounds = 0;
        while rounds < sz.min_rounds || Instant::now() < deadline {
            for (r, s) in runners.iter_mut().zip(&mut per_input) {
                r.round(s, checks);
            }
            for p in &mut probes {
                p.block(checks, None);
            }
            timed_setup(&dirs[rounds % dirs.len()], &mut setup_s)?;
            calib.sample();
            rounds += 1;
        }
        while setup_s.len() < sz.setup_reps {
            timed_setup(&dirs[setup_s.len() % dirs.len()], &mut setup_s)?;
        }
        alloc::set_enabled(true);
        let heap = runners[0].heap_peak();
        alloc::set_enabled(false);

        m.put("setup_s", stats::iq_mean(&setup_s).expect("setup ran"), "s");
        report_presets(&per_input, m);
        let f1: Vec<f64> = runners.iter().filter_map(PresetRunner::f1_mean).collect();
        if let Some(f) = stats::mean(&f1) {
            m.put("f1_mean", f, "ratio");
        }
        m.put("heap_peak_mb", heap as f64 / 1e6, "MB");
        report_queries(&probes, m, checks);
        out.notes.push(format!(
            "rounds={rounds} host_calib_s={:.6}",
            calib.median_s().unwrap_or(0.0)
        ));
    } else {
        // Untraced and traced rounds alternate; their difference is the
        // tracing overhead.
        let tracer = Tracer::new();
        let mut samples = Samples::default();
        let mut untraced_rounds = Vec::new();
        let mut traced_rounds = Vec::new();
        while traced_rounds.len() < 2 || Instant::now() < deadline {
            let untraced: f64 = runners
                .iter_mut()
                .map(|r| r.round(&mut Samples::default(), checks))
                .sum();
            untraced_rounds.push(untraced);
            let before = pool::global().stats();
            let traced: f64 = runners
                .iter_mut()
                .map(|r| r.traced_round(&tracer, &mut samples, checks))
                .sum();
            traced_rounds.push(traced);
            pool_delta(before, &mut samples);
            for p in &mut probes {
                p.block(checks, Some(&tracer));
            }
            calib.sample();
        }
        let trace = tracer.snapshot();
        tracing::export(&trace, &work.trace_file).map_err(|e| Invalid(e.to_string()))?;
        out.notes
            .push(format!("trace_file={}", work.trace_file.display()));
        report_layer_samples(&samples, m);
        report_breakdown(&trace, traced_rounds.len(), &[], m);
        report_overhead(&traced_rounds, &untraced_rounds, m);
        calib.report(m);
    }
    Ok(out)
}
