//! The perf gate: a fresh full-size run of the four ledger benches against
//! the committed baselines. `scripts/bench_gate.sh` runs the benches into
//! one directory, then the `bench_gate` binary calls [`run`] on it.
//!
//! Every check yields one `ok` or `FAIL` line, and the gate fails when any
//! check fails. A gated kernel, a qualifying ANN row, a (stage, n) memory
//! row or a serve mode missing from either ledger is a failed check.

use crate::artifact::{Ledger, Metric, Record, Suite};
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
fn best<'a>(records: impl Iterator<Item = &'a Record>) -> Option<f64> {
    records
        .map(|r| r.value)
        .filter(|&v| v > 0.0)
        .reduce(f64::max)
}

/// Each gated kernel's best GFLOP/s at most [`TOLERANCE`] below its
/// baseline, and each quantized kernel at [`QUANT_GFLOPS_FLOOR`] of the same
/// run's `blocked`.
pub fn kernels(r: &mut Report, base: &Ledger, fresh: &Ledger) {
    let best_gflops = |l: &Ledger, kernel| best(l.lookup(Metric::Gflops, Some(kernel)));
    for kernel in GATED_KERNELS {
        let floor = best_gflops(base, kernel).map(|b| b * (1.0 - TOLERANCE));
        let what = format!("{kernel} GFLOP/s vs baseline");
        r.at_least(&what, best_gflops(fresh, kernel), floor);
    }
    let floor = best_gflops(fresh, "blocked").map(|b| b * QUANT_GFLOPS_FLOOR);
    for kernel in ["blocked_f16", "blocked_int8"] {
        let what = format!("{kernel} GFLOP/s vs f32 blocked");
        r.at_least(&what, best_gflops(fresh, kernel), floor);
    }
}

/// Best speedup among probe widths at recall@10 >= [`ANN_RECALL_FLOOR`].
fn best_speedup(l: &Ledger) -> Option<f64> {
    let recalls = l.lookup(Metric::RecallAt10, None);
    let qualifying = recalls.filter(|q| q.value >= ANN_RECALL_FLOOR);
    best(qualifying.flat_map(|q| l.lookup(Metric::Speedup, Some(&q.case))))
}

/// Some probe width reaches [`ANN_RECALL_FLOOR`] at [`ANN_SPEEDUP_FLOOR`],
/// and the best such speedup is at most [`TOLERANCE`] below the baseline's.
pub fn ann(r: &mut Report, base: &Ledger, fresh: &Ledger) {
    let floor = best_speedup(base).map(|b| (b * (1.0 - TOLERANCE)).max(ANN_SPEEDUP_FLOOR));
    let what = format!("ann speedup at recall@10 >= {ANN_RECALL_FLOOR} vs baseline");
    r.at_least(&what, best_speedup(fresh), floor);
}

/// Each (stage, n) row of either ledger at most [`TOLERANCE`] above the
/// baseline's bytes/entity — one-sided, since using less memory never
/// fails — and `pack_int8` at least [`QUANT_RATIO_FLOOR`] times smaller
/// than `pack_f32` at every n of the fresh run.
pub fn memory(r: &mut Report, base: &Ledger, fresh: &Ledger) {
    let bytes = |l: &Ledger, stage: &str, n| {
        let mut rows = l.lookup(Metric::BytesPerEntity, Some(stage));
        rows.find(|r| r.n == n).map(|r| r.value)
    };
    let fresh_rows = fresh.lookup(Metric::BytesPerEntity, None);
    let unbaselined = fresh_rows.filter(|e| bytes(base, &e.case, e.n).is_none());
    for e in base.lookup(Metric::BytesPerEntity, None).chain(unbaselined) {
        let what = format!("{} n={} B/entity vs baseline", e.case, e.n);
        let ceiling = bytes(base, &e.case, e.n).map(|b| b * (1.0 + TOLERANCE));
        r.at_most(&what, bytes(fresh, &e.case, e.n), ceiling);
    }
    let f32_rows: Vec<_> = fresh
        .lookup(Metric::BytesPerEntity, Some("pack_f32"))
        .collect();
    if f32_rows.is_empty() {
        r.missing("pack_f32/pack_int8 B/entity");
    }
    for e in f32_rows {
        let ratio = bytes(fresh, "pack_int8", e.n).map(|i| e.value / i);
        let what = format!("pack_f32/pack_int8 n={} B/entity", e.n);
        r.at_least(&what, ratio, Some(QUANT_RATIO_FLOOR));
    }
}

/// Per mode, qps at most [`TOLERANCE`] below the baseline and p99 at most
/// [`TOLERANCE`] (plus [`SERVE_P99_SLACK_MS`]) above it; and keep-alive
/// clients reuse their connections.
pub fn serve(r: &mut Report, base: &Ledger, fresh: &Ledger) {
    for mode in SERVE_MODES {
        let get = |l: &Ledger, metric| l.value(metric, mode);
        let floor = get(base, Metric::Qps).map(|b| b * (1.0 - TOLERANCE));
        let what = format!("serve[{mode}] qps vs baseline");
        r.at_least(&what, get(fresh, Metric::Qps), floor);
        let ceiling = get(base, Metric::P99Ms).map(|b| b * (1.0 + TOLERANCE) + SERVE_P99_SLACK_MS);
        let what = format!("serve[{mode}] p99 ms vs baseline");
        r.at_most(&what, get(fresh, Metric::P99Ms), ceiling);
    }
    let what = "serve[keepalive] requests/connection";
    match fresh.value(Metric::RequestsPerConn, "keepalive") {
        Some(v) => r.check(
            v > KEEPALIVE_MIN_REQUESTS_PER_CONN,
            format!("{what}: {v:.2} (must exceed {KEEPALIVE_MIN_REQUESTS_PER_CONN})"),
        ),
        None => r.missing(what),
    }
}

/// Gates the four ledgers in `fresh_dir` against those in `base_dir`.
pub fn run(base_dir: &Path, fresh_dir: &Path) -> Report {
    let mut r = Report::default();
    for suite in [Suite::Kernels, Suite::Ann, Suite::Memory, Suite::Serve] {
        let rules = match suite {
            Suite::Kernels => kernels,
            Suite::Ann => ann,
            Suite::Memory => memory,
            Suite::Serve => serve,
        };
        match (
            Ledger::read(base_dir, suite),
            Ledger::read(fresh_dir, suite),
        ) {
            (Ok(b), Ok(f)) => rules(&mut r, &b, &f),
            (Err(e), _) | (_, Err(e)) => r.check(false, e),
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact;

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

    /// A ledger of `(case, n, metric, value)` records.
    fn ledger(suite: Suite, rows: &[(&str, usize, Metric, f64)]) -> Ledger {
        let mut l = Ledger::new(suite, false);
        for &(case, n, metric, value) in rows {
            l.push(case, n, 64, metric, value);
        }
        l
    }

    /// Sets `metric` of every `case` record to `value`.
    fn set(l: &mut Ledger, case: &str, metric: Metric, value: f64) {
        let rows = l.records.iter_mut();
        for r in rows.filter(|r| r.case == case && r.metric == metric) {
            r.value = value;
        }
    }

    fn gate(rules: fn(&mut Report, &Ledger, &Ledger), base: &Ledger, fresh: &Ledger) -> Report {
        let mut r = Report::default();
        rules(&mut r, base, fresh);
        r
    }

    #[test]
    fn committed_artifacts_round_trip_and_pass_against_themselves() {
        let root = artifact::workspace_root();
        for suite in [Suite::Kernels, Suite::Ann, Suite::Memory, Suite::Serve] {
            let text = std::fs::read_to_string(root.join(suite.file())).unwrap();
            let doc = Ledger::read(&root, suite).unwrap();
            assert_eq!(doc.suite, suite);
            assert_eq!(doc.to_text(), text, "{} is not reproduced", suite.file());
        }

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

    fn kernel_doc(rows: &[(&str, f64)]) -> Ledger {
        let rows: Vec<_> = rows
            .iter()
            .map(|&(k, v)| (k, 2000, Metric::Gflops, v))
            .collect();
        ledger(Suite::Kernels, &rows)
    }

    const KERNELS: [(&str, f64); 4] = [
        ("blocked", 100.0),
        ("blocked_scalar", 50.0),
        ("blocked_f16", 60.0),
        ("blocked_int8", 60.0),
    ];

    #[test]
    fn kernel_baseline_floor_holds_at_the_threshold_and_fails_past_it() {
        let mut base = kernel_doc(&KERNELS);
        base.push("blocked", 10_000, 128, Metric::Gflops, 40.0);
        for kernel in ["blocked", "blocked_scalar"] {
            let floor = base.value(Metric::Gflops, kernel).unwrap() * (1.0 - TOLERANCE);
            let mut fresh = base.clone();
            set(&mut fresh, kernel, Metric::Gflops, floor);
            assert!(gate(kernels, &base, &fresh).passed());
            set(&mut fresh, kernel, Metric::Gflops, below(floor));
            let r = gate(kernels, &base, &fresh);
            assert_eq!(fails(&r).len(), 1, "{:#?}", r.lines);
            assert!(fails(&r)[0].contains(&format!("{kernel} GFLOP/s vs baseline")));
        }
        // The best record of a kernel is gated: a slow second row is fine.
        let mut fresh = base.clone();
        fresh.records.last_mut().unwrap().value = 1.0;
        assert!(gate(kernels, &base, &fresh).passed());
    }

    #[test]
    fn quantized_kernels_hold_their_share_of_f32_blocked() {
        let base = kernel_doc(&KERNELS);
        let floor = 100.0 * QUANT_GFLOPS_FLOOR;
        for kernel in ["blocked_f16", "blocked_int8"] {
            let mut fresh = base.clone();
            set(&mut fresh, kernel, Metric::Gflops, floor);
            assert!(gate(kernels, &base, &fresh).passed());
            set(&mut fresh, kernel, Metric::Gflops, below(floor));
            let r = gate(kernels, &base, &fresh);
            assert_eq!(fails(&r).len(), 1, "{:#?}", r.lines);
            assert!(fails(&r)[0].contains("vs f32 blocked"));
        }
    }

    #[test]
    fn a_missing_kernel_in_either_artifact_fails() {
        let full = kernel_doc(&KERNELS);
        for i in 0..4 {
            let mut short = full.clone();
            let gone = short.records.remove(i).case;
            for (base, fresh) in [(&short, &full), (&full, &short)] {
                let r = gate(kernels, base, fresh);
                assert!(!r.passed(), "{gone}: {:#?}", r.lines);
                assert!(fails(&r).iter().all(|l| l.contains("missing")));
            }
        }
    }

    /// One `nprobe=i` case per `(recall, speedup)` row.
    fn ann_doc(rows: &[(f64, f64)]) -> Ledger {
        let mut l = ledger(Suite::Ann, &[]);
        for (i, &(recall, speedup)) in rows.iter().enumerate() {
            let case = format!("nprobe={}", i + 1);
            l.push(&case, 1000, 64, Metric::RecallAt10, recall);
            l.push(&case, 1000, 64, Metric::Speedup, speedup);
        }
        l
    }

    fn gate_ann(base: &Ledger, fresh: &Ledger) -> bool {
        gate(ann, base, fresh).passed()
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

    fn memory_doc(rows: &[(&str, usize, f64)]) -> Ledger {
        let rows: Vec<_> = rows
            .iter()
            .map(|&(stage, n, v)| (stage, n, Metric::BytesPerEntity, v))
            .collect();
        ledger(Suite::Memory, &rows)
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
            fresh.records[i].value = ceiling;
            let r = gate(memory, &base, &fresh);
            assert!(
                fails(&r).iter().all(|l| !l.contains(&row)),
                "{:#?}",
                r.lines
            );
            fresh.records[i].value = above(ceiling);
            let r = gate(memory, &base, &fresh);
            assert!(fails(&r).iter().any(|l| l.contains(&row)), "{:#?}", r.lines);
        }
    }

    #[test]
    fn a_regression_in_the_first_memory_row_fails_while_the_last_passes() {
        let base = memory_doc(&MEMORY_ROWS);
        let mut fresh = base.clone();
        fresh.records[0].value *= 2.0;
        // Other metrics of a stage are not memory rows.
        fresh.push("gemm", 2000, 64, Metric::AllocOverheadPct, 1e9);
        let r = gate(memory, &base, &fresh);
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
        assert!(gate(memory, &base, &base).passed());
        for i in [2, 5] {
            let mut fresh = base.clone();
            fresh.records[i].value = above(100.0);
            let r = gate(memory, &base, &fresh);
            assert_eq!(fails(&r).len(), 1, "{:#?}", r.lines);
            assert!(fails(&r)[0].contains("pack_f32/pack_int8"));
        }
    }

    #[test]
    fn a_missing_memory_row_in_either_artifact_fails() {
        let full = memory_doc(&MEMORY_ROWS);
        for i in 0..MEMORY_ROWS.len() {
            let mut short = full.clone();
            short.records.remove(i);
            assert!(
                !gate(memory, &short, &full).passed(),
                "baseline lacks row {i}"
            );
            assert!(
                !gate(memory, &full, &short).passed(),
                "fresh run lacks row {i}"
            );
        }
        assert!(!gate(memory, &memory_doc(&[]), &memory_doc(&[])).passed());
    }

    fn serve_doc() -> Ledger {
        let mut rows = Vec::new();
        for (mode, qps, p99_ms, per_conn) in [
            ("fresh_conn", 1000.0, 5.0, 1.0),
            ("keepalive", 2000.0, 4.0, 250.0),
        ] {
            rows.push((mode, 20_000, Metric::Qps, qps));
            rows.push((mode, 20_000, Metric::P99Ms, p99_ms));
            rows.push((mode, 20_000, Metric::RequestsPerConn, per_conn));
        }
        ledger(Suite::Serve, &rows)
    }

    #[test]
    fn serve_bounds_hold_at_the_threshold_and_fail_past_it() {
        let base = serve_doc();
        for mode in SERVE_MODES {
            let get = |metric| base.value(metric, mode).unwrap();
            let floor = get(Metric::Qps) * (1.0 - TOLERANCE);
            let ceiling = get(Metric::P99Ms) * (1.0 + TOLERANCE) + SERVE_P99_SLACK_MS;
            let mut fresh = base.clone();
            set(&mut fresh, mode, Metric::Qps, floor);
            set(&mut fresh, mode, Metric::P99Ms, ceiling);
            assert!(gate(serve, &base, &fresh).passed());
            set(&mut fresh, mode, Metric::Qps, below(floor));
            set(&mut fresh, mode, Metric::P99Ms, above(ceiling));
            assert_eq!(gate(serve, &base, &fresh).failures, 2);
        }
    }

    #[test]
    fn keepalive_clients_must_reuse_connections() {
        let base = serve_doc();
        let mut fresh = base.clone();
        let reuse = Metric::RequestsPerConn;
        set(
            &mut fresh,
            "keepalive",
            reuse,
            KEEPALIVE_MIN_REQUESTS_PER_CONN,
        );
        let r = gate(serve, &base, &fresh);
        assert_eq!(fails(&r).len(), 1, "{:#?}", r.lines);
        assert!(fails(&r)[0].contains("requests/connection"));
        set(
            &mut fresh,
            "keepalive",
            reuse,
            above(KEEPALIVE_MIN_REQUESTS_PER_CONN),
        );
        assert!(gate(serve, &base, &fresh).passed());
    }

    #[test]
    fn a_missing_serve_mode_in_either_artifact_fails() {
        let full = serve_doc();
        for mode in SERVE_MODES {
            let mut short = full.clone();
            short.records.retain(|r| r.case != mode);
            assert!(!gate(serve, &short, &full).passed());
            assert!(!gate(serve, &full, &short).passed());
        }
    }
}
