//! `bench_gate FRESH_DIR`: gates the four `BENCH_*.json` ledgers a
//! full-size bench run wrote into `FRESH_DIR` against the baselines
//! committed in the workspace root (rules in `entmatcher_bench::gate`),
//! printing one line per check and exiting 1 when any check fails.
//! `scripts/bench_gate.sh` runs the benches and then this binary.

use entmatcher_bench::{artifact, gate};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let Some(fresh) = std::env::args_os().nth(1) else {
        eprintln!("usage: bench_gate FRESH_DIR");
        return ExitCode::from(2);
    };
    let report = gate::run(&artifact::workspace_root(), &PathBuf::from(fresh));
    for line in &report.lines {
        println!("bench_gate: {line}");
    }
    if report.passed() {
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "bench_gate: {} of {} checks failed",
        report.failures,
        report.lines.len()
    );
    ExitCode::FAILURE
}
