//! The perf gate: a fresh full-size run of the four artifact benches against
//! the committed baselines. `scripts/bench_gate.sh` runs the benches into
//! one directory, then the `bench_gate` binary calls [`run`] on it.
//!
//! Every check yields one `ok` or `FAIL` line, and the gate fails when any
//! check fails. A gated kernel, a qualifying ANN row, a (stage, n) memory
//! row or a serve mode missing from either artifact is a failed check.

use crate::artifact::{self, AnnBench, Artifact, KernelBench, MemoryBench, ServeBench, ServeMode};
use std::path::Path;

/// Relative tolerance of every comparison against a baseline.
pub const TOLERANCE: f64 = 0.20;
/// Kernels whose best GFLOP/s is gated against the baseline: the
/// dispatched SIMD kernel, its scalar reference (so a regression hiding
/// under SIMD gains is still caught) and the two dequantize-fused kernels.
pub const GATED_KERNELS: [&str; 4] = ["blocked", "blocked_scalar", "blocked_f16", "blocked_int8"];
/// Least share of the same run's f32 `blocked` GFLOP/s that `blocked_f16`
/// and `blocked_int8` must hold.
pub const QUANT_GFLOPS_FLOOR: f64 = 0.60;
/// Recall@10 a probe width must reach to qualify for the ANN gate.
pub const ANN_RECALL_FLOOR: f64 = 0.95;
/// Least end-to-end speedup of the best qualifying probe width.
pub const ANN_SPEEDUP_FLOOR: f64 = 5.0;
/// Least measured `pack_f32` / `pack_int8` bytes-per-entity ratio, at
/// every n of the fresh run.
pub const QUANT_RATIO_FLOOR: f64 = 3.5;
/// Serve connection modes, each gated on qps and p99.
pub const SERVE_MODES: [&str; 2] = ["fresh_conn", "keepalive"];
/// Absolute slack on the p99 ceiling, in ms: none, since the blocking
/// accept removed the old poll quantization from every connection.
pub const SERVE_P99_SLACK_MS: f64 = 0.0;
/// Keep-alive clients must average more requests per connection than this:
/// a fallback to reconnect-per-request could still post decent qps.
pub const KEEPALIVE_MIN_REQUESTS_PER_CONN: f64 = 1.0;

/// The verdicts of one gate run.
#[derive(Debug, Default)]
pub struct Report {
    /// One `ok: …` or `FAIL: …` line per check, in check order.
    pub lines: Vec<String>,
    /// Number of failed checks.
    pub failures: usize,
}

impl Report {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures == 0
    }

    fn check(&mut self, pass: bool, line: String) {
        self.failures += usize::from(!pass);
        let verdict = if pass { "ok" } else { "FAIL" };
        self.lines.push(format!("{verdict}: {line}"));
    }

    /// Passes when `value >= floor`; a missing value or bound fails.
    fn at_least(&mut self, what: &str, value: Option<f64>, floor: Option<f64>) {
        match value.zip(floor) {
            Some((v, f)) => self.check(v >= f, format!("{what}: {v:.2} (floor {f:.2})")),
            None => self.missing(what),
        }
    }

    /// Passes when `value <= ceiling`; a missing value or bound fails.
    fn at_most(&mut self, what: &str, value: Option<f64>, ceiling: Option<f64>) {
        match value.zip(ceiling) {
            Some((v, c)) => self.check(v <= c, format!("{what}: {v:.2} (ceiling {c:.2})")),
            None => self.missing(what),
        }
    }

    fn missing(&mut self, what: &str) {
        self.check(
            false,
            format!("{what}: missing from the baseline or fresh run"),
        );
    }
}

/// Largest positive value, if any.
fn best(values: impl Iterator<Item = f64>) -> Option<f64> {
    values.filter(|&v| v > 0.0).reduce(f64::max)
}

/// Best GFLOP/s of `kernel` over its entries.
fn best_gflops(doc: &KernelBench, kernel: &str) -> Option<f64> {
    best(
        doc.entries
            .iter()
            .filter(|e| e.kernel == kernel)
            .map(|e| e.gflops),
    )
}

/// Each gated kernel at most [`TOLERANCE`] below its baseline, and each
/// quantized kernel at [`QUANT_GFLOPS_FLOOR`] of the same run's `blocked`.
pub fn kernels(r: &mut Report, base: &KernelBench, fresh: &KernelBench) {
    for kernel in GATED_KERNELS {
        let floor = best_gflops(base, kernel).map(|b| b * (1.0 - TOLERANCE));
        r.at_least(
            &format!("{kernel} GFLOP/s vs baseline"),
            best_gflops(fresh, kernel),
            floor,
        );
    }
    let floor = best_gflops(fresh, "blocked").map(|b| b * QUANT_GFLOPS_FLOOR);
    for kernel in ["blocked_f16", "blocked_int8"] {
        let what = format!("{kernel} GFLOP/s vs f32 blocked");
        r.at_least(&what, best_gflops(fresh, kernel), floor);
    }
}

/// Best speedup among sweep rows at recall@10 >= [`ANN_RECALL_FLOOR`].
fn best_speedup(doc: &AnnBench) -> Option<f64> {
    let qualifying = doc
        .entries
        .iter()
        .filter(|e| e.recall_at_10 >= ANN_RECALL_FLOOR);
    best(qualifying.map(|e| e.speedup))
}

/// Some probe width reaches [`ANN_RECALL_FLOOR`] at [`ANN_SPEEDUP_FLOOR`],
/// and the best such speedup is at most [`TOLERANCE`] below the baseline's.
pub fn ann(r: &mut Report, base: &AnnBench, fresh: &AnnBench) {
    let floor = best_speedup(base).map(|b| (b * (1.0 - TOLERANCE)).max(ANN_SPEEDUP_FLOOR));
    let what = format!("ann speedup at recall@10 >= {ANN_RECALL_FLOOR} vs baseline");
    r.at_least(&what, best_speedup(fresh), floor);
}

/// Measured bytes/entity of the (`stage`, `n`) row.
fn bytes_per_entity(doc: &MemoryBench, stage: &str, n: usize) -> Option<f64> {
    let row = doc.entries.iter().find(|e| e.stage == stage && e.n == n);
    row.map(|e| e.bytes_per_entity)
}

/// Each (stage, n) row of either artifact at most [`TOLERANCE`] above the
/// baseline's bytes/entity — one-sided, since using less memory never
/// fails — and `pack_int8` at least [`QUANT_RATIO_FLOOR`] times smaller
/// than `pack_f32` at every n of the fresh run.
pub fn memory(r: &mut Report, base: &MemoryBench, fresh: &MemoryBench) {
    let unbaselined = fresh
        .entries
        .iter()
        .filter(|e| bytes_per_entity(base, &e.stage, e.n).is_none());
    for e in base.entries.iter().chain(unbaselined) {
        let what = format!("{} n={} B/entity vs baseline", e.stage, e.n);
        let ceiling = bytes_per_entity(base, &e.stage, e.n).map(|b| b * (1.0 + TOLERANCE));
        r.at_most(&what, bytes_per_entity(fresh, &e.stage, e.n), ceiling);
    }
    let f32_rows: Vec<_> = fresh
        .entries
        .iter()
        .filter(|e| e.stage == "pack_f32")
        .collect();
    if f32_rows.is_empty() {
        r.missing("pack_f32/pack_int8 B/entity");
    }
    for e in f32_rows {
        let ratio = bytes_per_entity(fresh, "pack_int8", e.n).map(|i| e.bytes_per_entity / i);
        let what = format!("pack_f32/pack_int8 n={} B/entity", e.n);
        r.at_least(&what, ratio, Some(QUANT_RATIO_FLOOR));
    }
}

/// The `mode` row of a serve artifact.
fn serve_mode<'a>(doc: &'a ServeBench, mode: &str) -> Option<&'a ServeMode> {
    doc.modes.iter().find(|m| m.mode == mode)
}

/// Per mode, qps at most [`TOLERANCE`] below the baseline and p99 at most
/// [`TOLERANCE`] (plus [`SERVE_P99_SLACK_MS`]) above it; and keep-alive
/// clients reuse their connections.
pub fn serve(r: &mut Report, base: &ServeBench, fresh: &ServeBench) {
    for mode in SERVE_MODES {
        let (b, f) = (serve_mode(base, mode), serve_mode(fresh, mode));
        let floor = b.map(|b| b.qps * (1.0 - TOLERANCE));
        r.at_least(
            &format!("serve[{mode}] qps vs baseline"),
            f.map(|f| f.qps),
            floor,
        );
        let ceiling = b.map(|b| b.p99_ms * (1.0 + TOLERANCE) + SERVE_P99_SLACK_MS);
        r.at_most(
            &format!("serve[{mode}] p99 ms vs baseline"),
            f.map(|f| f.p99_ms),
            ceiling,
        );
    }
    let what = "serve[keepalive] requests/connection";
    match serve_mode(fresh, "keepalive").map(|k| k.requests_per_conn) {
        Some(v) => r.check(
            v > KEEPALIVE_MIN_REQUESTS_PER_CONN,
            format!("{what}: {v:.2} (must exceed {KEEPALIVE_MIN_REQUESTS_PER_CONN})"),
        ),
        None => r.missing(what),
    }
}

/// Reads one artifact from both directories and applies `gate` to the pair.
fn pair<A: Artifact>(r: &mut Report, base: &Path, fresh: &Path, gate: fn(&mut Report, &A, &A)) {
    match (artifact::read::<A>(base), artifact::read::<A>(fresh)) {
        (Ok(b), Ok(f)) => gate(r, &b, &f),
        (Err(e), _) | (_, Err(e)) => r.check(false, e),
    }
}

/// Gates the four artifacts in `fresh_dir` against those in `base_dir`.
pub fn run(base_dir: &Path, fresh_dir: &Path) -> Report {
    let mut r = Report::default();
    pair(&mut r, base_dir, fresh_dir, kernels);
    pair(&mut r, base_dir, fresh_dir, ann);
    pair(&mut r, base_dir, fresh_dir, memory);
    pair(&mut r, base_dir, fresh_dir, serve);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{AnnEntry, KernelEntry, MemoryEntry};

    fn fails(r: &Report) -> Vec<&str> {
        let failed = r.lines.iter().filter(|l| l.starts_with("FAIL"));
        failed.map(String::as_str).collect()
    }

    /// A hair past `bound`, away from zero or towards it.
    fn above(bound: f64) -> f64 {
        bound * (1.0 + 1e-9)
    }
    fn below(bound: f64) -> f64 {
        bound * (1.0 - 1e-9)
    }

    #[test]
    fn committed_artifacts_round_trip_and_pass_against_themselves() {
        fn round_trip<A: Artifact>(root: &Path) {
            let text = std::fs::read_to_string(root.join(A::FILE)).unwrap();
            let doc: A = artifact::read(root).unwrap();
            assert_eq!(
                doc.to_json().pretty(),
                text,
                "{} is not reproduced",
                A::FILE
            );
        }
        let root = artifact::workspace_root();
        round_trip::<KernelBench>(&root);
        round_trip::<AnnBench>(&root);
        round_trip::<MemoryBench>(&root);
        round_trip::<ServeBench>(&root);

        let report = run(&root, &root);
        assert!(report.passed(), "{:#?}", report.lines);
        // 4 kernels + 2 quantized floors, ANN, 20 memory rows + 2 ratios,
        // qps and p99 of 2 modes, the reuse canary.
        assert_eq!(report.lines.len(), 34, "{:#?}", report.lines);
    }

    #[test]
    fn unreadable_artifacts_fail() {
        let root = artifact::workspace_root();
        let missing = root.join("no-such-directory");
        let report = run(&root, &missing);
        assert_eq!(report.failures, 4, "{:#?}", report.lines);
    }

    fn kernel_doc(rows: &[(&str, f64)]) -> KernelBench {
        let entry = |&(kernel, gflops): &(&str, f64)| KernelEntry {
            kernel: kernel.into(),
            gflops,
            ..KernelEntry::default()
        };
        KernelBench {
            entries: rows.iter().map(entry).collect(),
            ..KernelBench::default()
        }
    }

    fn gate_kernels(base: &KernelBench, fresh: &KernelBench) -> Report {
        let mut r = Report::default();
        kernels(&mut r, base, fresh);
        r
    }

    #[test]
    fn kernel_baseline_floor_holds_at_the_threshold_and_fails_past_it() {
        let base = kernel_doc(&[
            ("blocked", 100.0),
            ("blocked", 40.0),
            ("blocked_scalar", 50.0),
            ("blocked_f16", 60.0),
            ("blocked_int8", 60.0),
        ]);
        for (i, kernel) in [(0, "blocked"), (2, "blocked_scalar")] {
            let floor = base.entries[i].gflops * (1.0 - TOLERANCE);
            let mut fresh = base.clone();
            fresh.entries[i].gflops = floor;
            assert!(gate_kernels(&base, &fresh).passed());
            fresh.entries[i].gflops = below(floor);
            let r = gate_kernels(&base, &fresh);
            assert_eq!(fails(&r).len(), 1, "{:#?}", r.lines);
            assert!(fails(&r)[0].contains(&format!("{kernel} GFLOP/s vs baseline")));
        }
        // The best entry of a kernel is gated: a slow second row is fine.
        let mut fresh = base.clone();
        fresh.entries[1].gflops = 1.0;
        assert!(gate_kernels(&base, &fresh).passed());
    }

    #[test]
    fn quantized_kernels_hold_their_share_of_f32_blocked() {
        let base = kernel_doc(&[
            ("blocked", 100.0),
            ("blocked_scalar", 50.0),
            ("blocked_f16", 60.0),
            ("blocked_int8", 60.0),
        ]);
        let floor = 100.0 * QUANT_GFLOPS_FLOOR;
        for i in [2, 3] {
            let mut fresh = base.clone();
            fresh.entries[i].gflops = floor;
            assert!(gate_kernels(&base, &fresh).passed());
            fresh.entries[i].gflops = below(floor);
            let r = gate_kernels(&base, &fresh);
            assert_eq!(fails(&r).len(), 1, "{:#?}", r.lines);
            assert!(fails(&r)[0].contains("vs f32 blocked"));
        }
    }

    #[test]
    fn a_missing_kernel_in_either_artifact_fails() {
        let full = kernel_doc(&[
            ("blocked", 100.0),
            ("blocked_scalar", 50.0),
            ("blocked_f16", 60.0),
            ("blocked_int8", 60.0),
        ]);
        for i in 0..4 {
            let mut short = full.clone();
            let gone = short.entries.remove(i).kernel;
            for (base, fresh) in [(&short, &full), (&full, &short)] {
                let r = gate_kernels(base, fresh);
                assert!(!r.passed(), "{gone}: {:#?}", r.lines);
                assert!(fails(&r).iter().all(|l| l.contains("missing")));
            }
        }
    }

    fn ann_doc(rows: &[(f64, f64)]) -> AnnBench {
        let entry = |&(recall_at_10, speedup): &(f64, f64)| AnnEntry {
            recall_at_10,
            speedup,
            ..AnnEntry::default()
        };
        AnnBench {
            entries: rows.iter().map(entry).collect(),
            ..AnnBench::default()
        }
    }

    fn gate_ann(base: &AnnBench, fresh: &AnnBench) -> bool {
        let mut r = Report::default();
        ann(&mut r, base, fresh);
        r.passed()
    }

    #[test]
    fn ann_floors_hold_at_the_threshold_and_fail_past_it() {
        // The faster row misses the recall floor, so 10x is the best
        // qualifying speedup and the tolerance floor is 8x.
        let base = ann_doc(&[(0.9, 30.0), (ANN_RECALL_FLOOR, 10.0)]);
        let floor = 10.0 * (1.0 - TOLERANCE);
        assert!(gate_ann(&base, &ann_doc(&[(0.9, 30.0), (0.95, floor)])));
        assert!(!gate_ann(
            &base,
            &ann_doc(&[(0.9, 30.0), (0.95, below(floor))])
        ));
        // Recall just under the floor leaves no qualifying row.
        assert!(!gate_ann(&base, &ann_doc(&[(below(0.95), 10.0)])));
        // A slow baseline still leaves the absolute speedup floor.
        let slow = ann_doc(&[(1.0, 6.0)]);
        assert!(gate_ann(&slow, &ann_doc(&[(1.0, ANN_SPEEDUP_FLOOR)])));
        assert!(!gate_ann(
            &slow,
            &ann_doc(&[(1.0, below(ANN_SPEEDUP_FLOOR))])
        ));
        // No qualifying baseline row fails too.
        assert!(!gate_ann(&ann_doc(&[(0.5, 10.0)]), &base));
    }

    fn memory_doc(rows: &[(&str, usize, f64)]) -> MemoryBench {
        let entry = |&(stage, n, bytes_per_entity): &(&str, usize, f64)| MemoryEntry {
            stage: stage.into(),
            n,
            bytes_per_entity,
            ..MemoryEntry::default()
        };
        MemoryBench {
            entries: rows.iter().map(entry).collect(),
            ..MemoryBench::default()
        }
    }

    fn gate_memory(base: &MemoryBench, fresh: &MemoryBench) -> Report {
        let mut r = Report::default();
        memory(&mut r, base, fresh);
        r
    }

    const MEMORY_ROWS: [(&str, usize, f64); 6] = [
        ("gemm", 2000, 8000.0),
        ("pack_f32", 2000, 350.0),
        ("pack_int8", 2000, 100.0),
        ("gemm", 5000, 20000.0),
        ("pack_f32", 5000, 350.0),
        ("pack_int8", 5000, 100.0),
    ];

    #[test]
    fn memory_ceiling_holds_at_the_threshold_and_fails_past_it() {
        let base = memory_doc(&MEMORY_ROWS);
        for (i, &(stage, n, bytes)) in MEMORY_ROWS.iter().enumerate() {
            // (A pack_int8 row at its ceiling also breaks the 3.5x ratio.)
            let row = format!("{stage} n={n} B/entity vs baseline");
            let ceiling = bytes * (1.0 + TOLERANCE);
            let mut fresh = base.clone();
            fresh.entries[i].bytes_per_entity = ceiling;
            let r = gate_memory(&base, &fresh);
            assert!(
                fails(&r).iter().all(|l| !l.contains(&row)),
                "{:#?}",
                r.lines
            );
            fresh.entries[i].bytes_per_entity = above(ceiling);
            let r = gate_memory(&base, &fresh);
            assert!(fails(&r).iter().any(|l| l.contains(&row)), "{:#?}", r.lines);
        }
    }

    #[test]
    fn a_regression_in_the_first_memory_row_fails_while_the_last_passes() {
        let base = memory_doc(&MEMORY_ROWS);
        let mut fresh = base.clone();
        fresh.entries[0].bytes_per_entity *= 2.0;
        let r = gate_memory(&base, &fresh);
        assert_eq!(
            fails(&r),
            ["FAIL: gemm n=2000 B/entity vs baseline: 16000.00 (ceiling 9600.00)"]
        );
        assert!(r.lines.last().unwrap().starts_with("ok"), "{:#?}", r.lines);
    }

    #[test]
    fn int8_pack_ratio_holds_at_the_threshold_and_fails_past_it() {
        let base = memory_doc(&MEMORY_ROWS);
        assert_eq!(350.0 / 100.0, QUANT_RATIO_FLOOR);
        assert!(gate_memory(&base, &base).passed());
        for i in [2, 5] {
            let mut fresh = base.clone();
            fresh.entries[i].bytes_per_entity = above(100.0);
            let r = gate_memory(&base, &fresh);
            assert_eq!(fails(&r).len(), 1, "{:#?}", r.lines);
            assert!(fails(&r)[0].contains("pack_f32/pack_int8"));
        }
    }

    #[test]
    fn a_missing_memory_row_in_either_artifact_fails() {
        let full = memory_doc(&MEMORY_ROWS);
        for i in 0..MEMORY_ROWS.len() {
            let mut short = full.clone();
            short.entries.remove(i);
            assert!(
                !gate_memory(&short, &full).passed(),
                "baseline lacks row {i}"
            );
            assert!(
                !gate_memory(&full, &short).passed(),
                "fresh run lacks row {i}"
            );
        }
        assert!(!gate_memory(&memory_doc(&[]), &memory_doc(&[])).passed());
    }

    fn serve_doc() -> ServeBench {
        let mode = |mode: &str, qps, p99_ms, requests_per_conn| ServeMode {
            mode: mode.into(),
            qps,
            p99_ms,
            requests_per_conn,
            ..ServeMode::default()
        };
        ServeBench {
            modes: vec![
                mode("fresh_conn", 1000.0, 5.0, 1.0),
                mode("keepalive", 2000.0, 4.0, 250.0),
            ],
            ..ServeBench::default()
        }
    }

    fn gate_serve(base: &ServeBench, fresh: &ServeBench) -> Report {
        let mut r = Report::default();
        serve(&mut r, base, fresh);
        r
    }

    #[test]
    fn serve_bounds_hold_at_the_threshold_and_fail_past_it() {
        let base = serve_doc();
        for i in 0..2 {
            let b = &base.modes[i];
            let floor = b.qps * (1.0 - TOLERANCE);
            let ceiling = b.p99_ms * (1.0 + TOLERANCE) + SERVE_P99_SLACK_MS;
            let mut fresh = base.clone();
            fresh.modes[i].qps = floor;
            fresh.modes[i].p99_ms = ceiling;
            assert!(gate_serve(&base, &fresh).passed());
            fresh.modes[i].qps = below(floor);
            fresh.modes[i].p99_ms = above(ceiling);
            assert_eq!(gate_serve(&base, &fresh).failures, 2);
        }
    }

    #[test]
    fn keepalive_clients_must_reuse_connections() {
        let base = serve_doc();
        let mut fresh = base.clone();
        fresh.modes[1].requests_per_conn = KEEPALIVE_MIN_REQUESTS_PER_CONN;
        let r = gate_serve(&base, &fresh);
        assert_eq!(fails(&r).len(), 1, "{:#?}", r.lines);
        assert!(fails(&r)[0].contains("requests/connection"));
        fresh.modes[1].requests_per_conn = above(KEEPALIVE_MIN_REQUESTS_PER_CONN);
        assert!(gate_serve(&base, &fresh).passed());
    }

    #[test]
    fn a_missing_serve_mode_in_either_artifact_fails() {
        let full = serve_doc();
        for i in 0..2 {
            let mut short = full.clone();
            short.modes.remove(i);
            assert!(!gate_serve(&short, &full).passed());
            assert!(!gate_serve(&full, &short).passed());
        }
    }
}
