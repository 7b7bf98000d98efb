#!/usr/bin/env sh
# Performance gate: runs the kernels, ANN, memory and serve benchmarks at
# full size into one temporary directory, then the `bench_gate` binary,
# which compares those perf ledgers with the committed BENCH_*.json
# baselines and fails on regression. Each file is one ledger: a header
# (schema, suite, note, host, quick) and one (case, n, d, metric, value)
# record per line; the type is crates/bench/src/artifact.rs. The rules and
# thresholds are constants in crates/bench/src/gate.rs.
#
# This is deliberately a separate script from verify.sh: the full bench
# takes minutes and wall-clock throughput is only meaningful on a quiet
# machine, so the gate is for perf-sensitive changes (and dedicated perf
# CI), not every test run.
#
#   sh scripts/bench_gate.sh
set -eu

cd "$(dirname "$0")/.."

ENTMATCHER_BENCH_OUT_DIR=$(mktemp -d)
export ENTMATCHER_BENCH_OUT_DIR
trap 'rm -rf "$ENTMATCHER_BENCH_OUT_DIR"' EXIT

# Full-size runs: QUICK must be off or the timings are meaningless.
unset ENTMATCHER_BENCH_QUICK || true
for BENCH in kernels ann memory serve; do
    echo "bench_gate: running $BENCH bench (full size, this takes a while)..."
    cargo bench --offline -p entmatcher-bench --bench "$BENCH" >/dev/null
done
cargo run --release --offline -q -p entmatcher-bench --bin bench_gate -- "$ENTMATCHER_BENCH_OUT_DIR"
