//! Experiment grid runner: one cell = (KG pair, encoder setting, matching
//! algorithm) -> quality + efficiency numbers. Drives every table of the
//! reproduction. Cells run one at a time, so each cell's wall time (the
//! tables' T(s) column) is its own pipeline's alone; its kernels still
//! fan out over the worker pool.

use crate::encoders::EncoderKind;
use crate::metrics::{evaluate_links, AlignmentScores};
use crate::task::MatchTask;
use entmatcher_core::spec::OneToOne;
use entmatcher_core::AlgorithmPreset;
use entmatcher_embed::UnifiedEmbeddings;
use entmatcher_graph::KgPair;
use entmatcher_support::json::{FromJson, Json, JsonError, Map, ToJson};
use entmatcher_support::telemetry;
use std::time::{Duration, Instant};

/// Result of one experiment cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Benchmark pair id (e.g. `"D-Z"`).
    pub dataset: String,
    /// Encoder prefix (`G-`, `R-`, `N-`, `NR-`).
    pub encoder: String,
    /// Algorithm name (`DInf`, `CSLS`, ...).
    pub algorithm: String,
    /// Quality metrics against the test gold links.
    pub scores: AlignmentScores,
    /// Wall time of the matching pipeline (similarity + optimize + match).
    pub elapsed: Duration,
    /// Estimated peak auxiliary memory in bytes.
    pub peak_aux_bytes: usize,
}

// `elapsed` travels as fractional seconds so reports stay readable.
impl ToJson for CellResult {
    fn to_json(&self) -> Json {
        let mut m = Map::new();
        m.insert("dataset", &self.dataset);
        m.insert("encoder", &self.encoder);
        m.insert("algorithm", &self.algorithm);
        m.insert("scores", self.scores);
        m.insert("elapsed", self.elapsed.as_secs_f64());
        m.insert("peak_aux_bytes", self.peak_aux_bytes);
        Json::Obj(m)
    }
}

impl FromJson for CellResult {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(CellResult {
            dataset: v.field("dataset")?,
            encoder: v.field("encoder")?,
            algorithm: v.field("algorithm")?,
            scores: v.field("scores")?,
            elapsed: Duration::from_secs_f64(v.field("elapsed")?),
            peak_aux_bytes: v.field("peak_aux_bytes")?,
        })
    }
}

/// Runs one algorithm on a prepared pair + embeddings. `pad_dummies`
/// enables the §5.1 dummy-node protocol for the hard-1-to-1 matchers when
/// the candidate sides are unbalanced.
pub fn run_cell(
    pair: &KgPair,
    encoder_prefix: &str,
    emb: &UnifiedEmbeddings,
    preset: AlgorithmPreset,
    pad_dummies: bool,
) -> CellResult {
    let _cell_span = telemetry::span(format!(
        "cell:{}/{}{}",
        pair.id,
        encoder_prefix,
        preset.name()
    ));
    let task = MatchTask::from_pair(pair);
    let (source, target) = task.candidate_embeddings(emb);
    let ctx = task.context(pair);
    let mut pipeline = preset.build();
    if pad_dummies && preset.spec().one_to_one == OneToOne::Yes {
        pipeline = pipeline.with_dummies();
    }
    let report = pipeline.execute(&source, &target, &ctx);
    let links = task.matching_to_links(&report.matching);
    let scores = evaluate_links(&links, &task.gold);
    CellResult {
        dataset: pair.id.clone(),
        encoder: encoder_prefix.to_owned(),
        algorithm: preset.name().to_owned(),
        scores,
        elapsed: report.elapsed,
        peak_aux_bytes: report.peak_aux_bytes,
    }
}

/// Grid driver: encodes a pair once per encoder setting, then evaluates a
/// list of algorithms against the shared embeddings. Cells run in preset
/// order on the calling thread; each cell's kernels are row-parallel on
/// the pool.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExperimentGrid {
    /// Enable the dummy-node protocol (unmatchable setting).
    pub pad_dummies: bool,
    /// When set, a progress/ETA line goes to stderr after a cell
    /// finishes, at most once per this interval (long table sweeps
    /// otherwise look hung). `None` keeps the grid silent.
    pub progress: Option<Duration>,
}

/// One progress report for a running grid, e.g.
/// `grid: 3/9 cells (33%), elapsed 12.3s, eta 24.6s, mean cell 4.1s`.
/// `cell_time` is the summed wall time of the `done` finished cells (the
/// per-cell mean); the ETA extrapolates the grid's `elapsed` time. Before
/// any cell finishes both estimates print as `?`.
pub fn progress_line(done: usize, total: usize, elapsed: Duration, cell_time: Duration) -> String {
    let pct = (100 * done).checked_div(total).unwrap_or(100);
    let (eta, mean) = if done == 0 {
        ("?".to_owned(), "?".to_owned())
    } else {
        let eta = elapsed.as_secs_f64() * (total - done) as f64 / done as f64;
        let mean = cell_time.as_secs_f64() / done as f64;
        (format!("{eta:.1}s"), format!("{mean:.1}s"))
    };
    format!(
        "grid: {done}/{total} cells ({pct}%), elapsed {:.1}s, eta {eta}, mean cell {mean}",
        elapsed.as_secs_f64()
    )
}

impl ExperimentGrid {
    /// Runs `presets` against one `(pair, encoder)` setting, preserving
    /// preset order in the output.
    pub fn run(
        &self,
        pair: &KgPair,
        kind: EncoderKind,
        presets: &[AlgorithmPreset],
    ) -> Vec<CellResult> {
        let emb = kind.encode(pair);
        self.run_with_embeddings(pair, kind.prefix(), &emb, presets)
    }

    /// Like [`Self::run`] but with pre-computed embeddings (lets callers
    /// reuse one encoding across algorithm sweeps).
    pub fn run_with_embeddings(
        &self,
        pair: &KgPair,
        encoder_prefix: &str,
        emb: &UnifiedEmbeddings,
        presets: &[AlgorithmPreset],
    ) -> Vec<CellResult> {
        let start = Instant::now();
        let mut last_line = start;
        let mut cell_time = Duration::ZERO;
        let mut results = Vec::with_capacity(presets.len());
        for &preset in presets {
            let cell = run_cell(pair, encoder_prefix, emb, preset, self.pad_dummies);
            // Progress signal for long grids: one tick per finished cell,
            // readable from another thread via `snapshot()`.
            telemetry::add("grid.heartbeat", 1);
            cell_time += cell.elapsed;
            results.push(cell);
            if let Some(interval) = self.progress {
                if last_line.elapsed() >= interval {
                    let (done, total) = (results.len(), presets.len());
                    eprintln!("{}", progress_line(done, total, start.elapsed(), cell_time));
                    last_line = Instant::now();
                }
            }
        }
        results
    }
}

/// Computes the "Imp." column of Tables 4–6: the mean relative improvement
/// of an algorithm's F1 over the DInf baseline across datasets, in percent.
pub fn improvement_over_baseline(algorithm_f1: &[f64], baseline_f1: &[f64]) -> f64 {
    assert_eq!(algorithm_f1.len(), baseline_f1.len());
    if algorithm_f1.is_empty() {
        return 0.0;
    }
    let rel: f64 = algorithm_f1
        .iter()
        .zip(baseline_f1.iter())
        .map(|(&a, &b)| if b > 0.0 { (a - b) / b } else { 0.0 })
        .sum();
    100.0 * rel / algorithm_f1.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use entmatcher_data::{generate_pair, PairSpec};

    fn small_pair() -> KgPair {
        generate_pair(&PairSpec {
            classes: 150,
            fillers_per_kg: 0,
            latent_edges: 1000,
            relations: 12,
            heterogeneity: 0.3,
            ..Default::default()
        })
    }

    #[test]
    fn run_cell_produces_sane_scores() {
        let pair = small_pair();
        let emb = EncoderKind::Rrea.encode(&pair);
        let cell = run_cell(&pair, "R-", &emb, AlgorithmPreset::DInf, false);
        assert_eq!(cell.dataset, "toy");
        assert_eq!(cell.algorithm, "DInf");
        // 1-to-1 full-coverage setting: P == R == F1.
        assert!((cell.scores.precision - cell.scores.recall).abs() < 1e-12);
        assert!(
            cell.scores.f1 > 0.3,
            "RREA+DInf should clear 0.3 on an easy pair"
        );
        assert!(cell.peak_aux_bytes > 0);
    }

    #[test]
    fn grid_preserves_preset_order_and_matches_serial() {
        let pair = small_pair();
        let emb = EncoderKind::Gcn.encode(&pair);
        let presets = [
            AlgorithmPreset::DInf,
            AlgorithmPreset::Csls,
            AlgorithmPreset::Hungarian,
        ];
        let grid = ExperimentGrid {
            ..Default::default()
        };
        let results = grid.run_with_embeddings(&pair, "G-", &emb, &presets);
        assert_eq!(results.len(), 3);
        for (r, p) in results.iter().zip(presets.iter()) {
            assert_eq!(r.algorithm, p.name());
            let serial = run_cell(&pair, "G-", &emb, *p, false);
            assert_eq!(r.scores.f1, serial.scores.f1, "{} differs", p.name());
        }
    }

    #[test]
    fn grid_emits_cell_spans_and_heartbeat() {
        let registry: &telemetry::Telemetry = Box::leak(Box::default());
        registry.set_enabled(true);
        let _installed = registry.install();
        let pair = small_pair();
        let emb = EncoderKind::Gcn.encode(&pair);
        let presets = [
            AlgorithmPreset::DInf,
            AlgorithmPreset::Csls,
            AlgorithmPreset::StableMarriage,
        ];
        ExperimentGrid::default().run_with_embeddings(&pair, "G-", &emb, &presets);
        let trace = registry.snapshot();
        assert!(trace.counter("grid.heartbeat").unwrap_or(0) >= 3);
        for p in &presets {
            let name = format!("cell:{}/G-{}", pair.id, p.name());
            let cell = trace.span(&name).unwrap_or_else(|| panic!("{name} span"));
            // Each cell wraps a full pipeline execution, recorded as a
            // child span of the cell (no span is open around the grid, so
            // cells are trace roots).
            assert!(trace
                .children(cell.id)
                .iter()
                .any(|s| s.name == "pipeline"));
        }
    }

    #[test]
    fn progress_line_formats_and_estimates() {
        // Nothing done yet: percent 0, unknown ETA and mean.
        let line = progress_line(0, 9, Duration::from_millis(100), Duration::ZERO);
        assert_eq!(line, "grid: 0/9 cells (0%), elapsed 0.1s, eta ?, mean cell ?");
        // 3/9 done in 12.3s -> eta = 12.3 * 6/3 = 24.6s; mean cell from the
        // summed per-cell wall time, not the parallel elapsed time.
        let line = progress_line(
            3,
            9,
            Duration::from_secs_f64(12.3),
            Duration::from_secs_f64(12.3),
        );
        assert_eq!(
            line,
            "grid: 3/9 cells (33%), elapsed 12.3s, eta 24.6s, mean cell 4.1s"
        );
        // Finished grid: eta 0, degenerate total guarded.
        let line = progress_line(4, 4, Duration::from_secs(8), Duration::from_secs(8));
        assert!(line.starts_with("grid: 4/4 cells (100%), elapsed 8.0s, eta 0.0s"));
        assert!(progress_line(0, 0, Duration::ZERO, Duration::ZERO).contains("(100%)"));
    }

    #[test]
    fn grid_with_progress_reporter_terminates_and_matches_silent_run() {
        let pair = small_pair();
        let emb = EncoderKind::Gcn.encode(&pair);
        let presets = [AlgorithmPreset::DInf, AlgorithmPreset::Csls];
        // A short interval prints a line after every cell; the progress
        // lines must not change what the cells compute.
        let grid = ExperimentGrid {
            progress: Some(Duration::from_millis(5)),
            ..Default::default()
        };
        let results = grid.run_with_embeddings(&pair, "G-", &emb, &presets);
        let silent = ExperimentGrid::default().run_with_embeddings(&pair, "G-", &emb, &presets);
        assert_eq!(results.len(), 2);
        for (a, b) in results.iter().zip(silent.iter()) {
            assert_eq!(a.scores.f1, b.scores.f1, "{} differs", a.algorithm);
        }
    }

    #[test]
    fn cell_spans_carry_worker_thread_lanes() {
        let registry: &telemetry::Telemetry = Box::leak(Box::default());
        registry.set_enabled(true);
        let _installed = registry.install();
        let pair = small_pair();
        let emb = EncoderKind::Gcn.encode(&pair);
        let presets = [AlgorithmPreset::DInf, AlgorithmPreset::Csls];
        ExperimentGrid::default().run_with_embeddings(&pair, "G-", &emb, &presets);
        let trace = registry.snapshot();
        // Every cell runs on the calling thread, so its span records that
        // thread's lane (lanes are 1-based), shared with its pipeline
        // child — the Perfetto view shows the grid as one row.
        for span in trace.spans_named("cell:toy/G-DInf") {
            assert!(span.tid >= 1, "cell span missing thread lane");
            let child = trace
                .children(span.id)
                .into_iter()
                .find(|s| s.name == "pipeline")
                .expect("pipeline child");
            assert_eq!(child.tid, span.tid, "stage ran on the cell's thread");
        }
    }

    #[test]
    fn grid_cells_run_one_at_a_time_on_the_calling_thread() {
        let registry: &telemetry::Telemetry = Box::leak(Box::default());
        registry.set_enabled(true);
        let _installed = registry.install();
        let pair = small_pair();
        let emb = EncoderKind::Gcn.encode(&pair);
        let presets = [
            AlgorithmPreset::DInf,
            AlgorithmPreset::Csls,
            AlgorithmPreset::StableMarriage,
        ];
        ExperimentGrid::default().run_with_embeddings(&pair, "alone-", &emb, &presets);
        let trace = registry.snapshot();
        let mut cells: Vec<_> = (trace.spans.iter())
            .filter(|s| s.name.starts_with("cell:toy/alone-"))
            .collect();
        assert_eq!(cells.len(), presets.len());
        cells.sort_by_key(|s| s.start_ns);
        // A cell's T(s) is its own work only if no other cell runs beside
        // it.
        for w in cells.windows(2) {
            let (a, b) = (w[0], w[1]);
            assert!(
                a.start_ns + a.duration_ns <= b.start_ns,
                "{} overlaps {}",
                a.name,
                b.name
            );
        }
        let lane = telemetry::thread_lane();
        for cell in &cells {
            assert_eq!(cell.tid, lane, "{} left the calling thread", cell.name);
        }
    }

    #[test]
    fn improvement_math() {
        let imp = improvement_over_baseline(&[0.6, 0.8], &[0.5, 0.4]);
        // (0.1/0.5 + 0.4/0.4) / 2 = (0.2 + 1.0)/2 = 60%.
        assert!((imp - 60.0).abs() < 1e-9);
        assert_eq!(improvement_over_baseline(&[], &[]), 0.0);
    }
}
