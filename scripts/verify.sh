#!/usr/bin/env sh
# Workspace verification: offline release build + the full test suite.
#
# `--offline` is the point, not an optimization: this workspace has a
# zero-external-dependency policy (see DESIGN.md §5), so building must
# never touch the network. If this script fails with a resolver error,
# someone added an external dependency — remove it or port the needed
# functionality into `crates/support`.
#
# ENTMATCHER_BENCH_QUICK=1 makes the `harness = false` bench binaries run
# each benchmark body exactly once if a runner invokes them, keeping the
# whole script fast while still exercising every bench target's code.
set -eu

cd "$(dirname "$0")/.."

export ENTMATCHER_BENCH_QUICK=1

# --benches/--bins replace (not extend) cargo's default target selection:
# both are listed so the bench targets AND the entmatcher binary (needed by
# the smoke test below) are built.
cargo build --release --offline --workspace --bins --benches
# Lint every target (tests, benches, examples too); any warning fails.
cargo clippy --offline --workspace --all-targets -- -D warnings
cargo test -q --offline --workspace

# Second pass with the execution engine pinned to its degenerate
# configuration: one pool worker (serial fast path) and the scalar
# micro-kernel. Every test must pass identically — the pool/SIMD layers
# are pure performance, never semantics.
echo "verify: re-running tests with ENTMATCHER_THREADS=1 ENTMATCHER_SIMD=off"
ENTMATCHER_THREADS=1 ENTMATCHER_SIMD=off cargo test -q --offline --workspace

# The end-to-end benchmark is a package of its own outside the workspace
# (perfbench/); it calls the library's public API, so build and smoke-test
# it here, where an API change that breaks it shows.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Telemetry smoke test: run a small end-to-end match with --trace and
# check the exported JSON parses and contains the pipeline stage spans.
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
ENTMATCHER="target/release/entmatcher"

# fail MSG: report MSG, stop the background server if one is running
# (the HTTP smokes start theirs with `... & BG_PID=$!`), and exit 1.
BG_PID=""
fail() {
    echo "verify: $*" >&2
    [ -z "$BG_PID" ] || kill "$BG_PID" 2>/dev/null || true
    exit 1
}
# stop_bg: stop the background server and reap it.
stop_bg() {
    kill "$BG_PID" 2>/dev/null || true
    wait "$BG_PID" 2>/dev/null || true
    BG_PID=""
}
# await_addr LOG SED_SCRIPT: print the address a background server
# announces in LOG, polling for 10 s; return 1 if it never appears.
await_addr() {
    for _ in $(seq 1 100); do
        addr=$(sed -n "$2" "$1" 2>/dev/null || true)
        [ -n "$addr" ] && echo "$addr" && return 0
        sleep 0.1
    done
    return 1
}
# scrape_until URL MARKER: print URL's body once it contains MARKER,
# polling for 10 s; after that, print the last body.
scrape_until() {
    body=""
    for _ in $(seq 1 100); do
        body=$(curl -sf "$1" || true)
        echo "$body" | grep -q "$2" && break
        sleep 0.1
    done
    printf '%s\n' "$body"
}
# How `--metrics` announces its address on stderr.
METRICS_ADDR_SED='s#^metrics: serving http://\([^/]*\)/metrics$#\1#p'

"$ENTMATCHER" generate --preset S-W --scale 0.02 --out "$SMOKE/data" >/dev/null
"$ENTMATCHER" encode --data "$SMOKE/data" --encoder name --out "$SMOKE/emb" >/dev/null
"$ENTMATCHER" match --data "$SMOKE/data" --embeddings "$SMOKE/emb" \
    --algorithm csls --trace "$SMOKE/trace.json" --out "$SMOKE/pairs.tsv" >/dev/null
RENDERED=$("$ENTMATCHER" trace --file "$SMOKE/trace.json")
for span in pipeline similarity optimize match; do
    echo "$RENDERED" | grep -q "$span" || fail "$span span missing from trace"
done
# The pad span needs an unbalanced candidate set + dummy padding: DBP15K+
# has asymmetric unmatchables, so Hungarian with --dummies pads.
"$ENTMATCHER" generate --preset DBP+ --scale 0.02 --out "$SMOKE/plus" >/dev/null
"$ENTMATCHER" encode --data "$SMOKE/plus" --encoder name --out "$SMOKE/plus-emb" >/dev/null
"$ENTMATCHER" match --data "$SMOKE/plus" --embeddings "$SMOKE/plus-emb" \
    --algorithm hungarian --dummies --trace "$SMOKE/trace-pad.json" \
    --out "$SMOKE/pairs-pad.tsv" >/dev/null
# Capture before grepping: `grep -q` exits at first match and the broken
# pipe would panic the renderer mid-print.
RENDERED_PAD=$("$ENTMATCHER" trace --file "$SMOKE/trace-pad.json")
echo "$RENDERED_PAD" | grep -q "pad" || fail "pad span missing from padded trace"
echo "verify: telemetry smoke test passed"

# Whole-pipeline determinism: the nine paper presets' pairs and the RREA
# encoder's snapshots must be byte-identical at every pool width and SIMD
# level, ENTMATCHER_THREADS in {1, 2} x ENTMATCHER_SIMD in {off, avx2}
# (avx2 falls back to the scalar kernel on hosts without it). The opt-in
# fma level is left out: it is not bitwise.
"$ENTMATCHER" generate --preset S-W --scale 0.15 --out "$SMOKE/det" >/dev/null
"$ENTMATCHER" encode --data "$SMOKE/det" --encoder name --out "$SMOKE/det-emb" >/dev/null
for THREADS in 1 2; do
    for SIMD in off avx2; do
        CFG="t$THREADS-$SIMD"
        for ALGO in dinf csls rinf rinf-wr rinf-pb sinkhorn hungarian smat rl; do
            ENTMATCHER_THREADS=$THREADS ENTMATCHER_SIMD=$SIMD "$ENTMATCHER" match \
                --data "$SMOKE/det" --embeddings "$SMOKE/det-emb" \
                --algorithm "$ALGO" --out "$SMOKE/det-$ALGO-$CFG.tsv" >/dev/null
            cmp "$SMOKE/det-$ALGO-t1-off.tsv" "$SMOKE/det-$ALGO-$CFG.tsv" ||
                fail "$ALGO pairs at $CFG differ from t1-off"
        done
        ENTMATCHER_THREADS=$THREADS ENTMATCHER_SIMD=$SIMD "$ENTMATCHER" encode \
            --data "$SMOKE/data" --encoder rrea --out "$SMOKE/det-rrea-$CFG" >/dev/null
        for SIDE in source.emb target.emb; do
            cmp "$SMOKE/det-rrea-t1-off/$SIDE" "$SMOKE/det-rrea-$CFG/$SIDE" ||
                fail "RREA $SIDE at $CFG differs from t1-off"
        done
    done
done
echo "verify: whole-pipeline determinism passed"

# Full-width IVF smoke, in both execution configs: probing every list
# must reproduce the dense DInf pairs byte for byte through the binary,
# and an unknown strategy such as the retired `lsh` must be a usage error
# (exit code 2).
for MODE in default degenerate; do
    if [ "$MODE" = "degenerate" ]; then
        MODE_ENV="ENTMATCHER_THREADS=1 ENTMATCHER_SIMD=off"
    else
        MODE_ENV=""
    fi
    env $MODE_ENV "$ENTMATCHER" match --data "$SMOKE/data" \
        --embeddings "$SMOKE/emb" --algorithm dinf --candidates exact \
        --out "$SMOKE/pairs-exact-$MODE.tsv" >/dev/null
    env $MODE_ENV "$ENTMATCHER" match --data "$SMOKE/data" \
        --embeddings "$SMOKE/emb" --algorithm dinf --candidates ivf \
        --nlist 4 --nprobe 4 --out "$SMOKE/pairs-ivf-$MODE.tsv" >/dev/null
    cmp "$SMOKE/pairs-exact-$MODE.tsv" "$SMOKE/pairs-ivf-$MODE.tsv" ||
        fail "[$MODE] full-width IVF pairs differ from exact"
    STATUS=0
    env $MODE_ENV "$ENTMATCHER" match --data "$SMOKE/data" \
        --embeddings "$SMOKE/emb" --algorithm dinf --candidates lsh \
        --out "$SMOKE/pairs-lsh-$MODE.tsv" >/dev/null 2>&1 || STATUS=$?
    [ "$STATUS" -eq 2 ] || fail "[$MODE] --candidates lsh exited $STATUS, want usage code 2"
    echo "verify: full-width IVF smoke passed ($MODE)"
done

# Quantized pipeline smoke: the same match at int8 with chunked snapshot
# loading; the trace must carry the quant.pack span and the quantized
# byte/chunk counters, and the predictions must stay non-empty.
"$ENTMATCHER" match --data "$SMOKE/data" --embeddings "$SMOKE/emb" \
    --algorithm csls --precision int8 --stream-chunk 64 \
    --trace "$SMOKE/trace-int8.json" --out "$SMOKE/pairs-int8.tsv" >/dev/null
[ -s "$SMOKE/pairs-int8.tsv" ] || fail "int8 match produced no predictions"
for marker in "quant.pack" "quant.packed_bytes" "snapshot.stream.chunks"; do
    grep -q "$marker" "$SMOKE/trace-int8.json" || fail "$marker missing from int8 trace"
done
# And the quantized counters must reach the live /metrics exposition.
ENTMATCHER_METRICS_LINGER_MS=15000 "$ENTMATCHER" match \
    --data "$SMOKE/data" --embeddings "$SMOKE/emb" --algorithm csls \
    --precision int8 --metrics 127.0.0.1:0 \
    --out "$SMOKE/pairs-int8-metrics.tsv" \
    >/dev/null 2>"$SMOKE/int8-metrics.err" &
BG_PID=$!
ADDR=$(await_addr "$SMOKE/int8-metrics.err" "$METRICS_ADDR_SED") ||
    fail "int8 metrics server never announced its address"
INT8_SCRAPE=$(scrape_until "http://$ADDR/metrics" "entmatcher_quant_packed_bytes_total")
echo "$INT8_SCRAPE" | grep -q "entmatcher_quant_packed_bytes_total" ||
    fail "/metrics missing quant.packed_bytes counter"
stop_bg
echo "verify: quantized pipeline smoke passed"

# Flight-recorder smoke: serve live metrics from a match run on an
# ephemeral port, scrape once, and check the exposition carries a known
# pipeline counter. The linger keeps the server up after the (fast)
# command so the scrape cannot race its exit.
ENTMATCHER_METRICS_LINGER_MS=15000 "$ENTMATCHER" match \
    --data "$SMOKE/data" --embeddings "$SMOKE/emb" --algorithm csls \
    --metrics 127.0.0.1:0 --out "$SMOKE/pairs-metrics.tsv" \
    >/dev/null 2>"$SMOKE/metrics.err" &
BG_PID=$!
ADDR=$(await_addr "$SMOKE/metrics.err" "$METRICS_ADDR_SED") ||
    fail "metrics server never announced its address"
SCRAPE=$(scrape_until "http://$ADDR/metrics" "entmatcher_csls_neighborhoods_total")
echo "$SCRAPE" | grep -q "entmatcher_up 1" || fail "/metrics missing entmatcher_up gauge"
echo "$SCRAPE" | grep -q "entmatcher_csls_neighborhoods_total" ||
    fail "/metrics missing csls counter"
# The persistent pool must report its scheduling counters through the
# same exposition (pool.tasks -> entmatcher_pool_tasks_total).
echo "$SCRAPE" | grep -q "entmatcher_pool_tasks_total" || fail "/metrics missing pool.tasks counter"
# RSS is a process gauge, exported whether or not heap counting is on;
# the heap gauges must NOT appear here (ENTMATCHER_MEM is unset, so the
# counting allocator holds everything at zero).
echo "$SCRAPE" | grep -q "entmatcher_rss_bytes" || fail "/metrics missing RSS gauge"
if echo "$SCRAPE" | grep -q "entmatcher_heap_live_bytes"; then
    fail "heap gauge exported with memory counting off"
fi
curl -sf "http://$ADDR/healthz" | grep -q "ok" || fail "/healthz not answering"
stop_bg
echo "verify: metrics exposition smoke passed"

# Chrome trace + profile smoke: the same match exported as trace_event
# JSON (must mention traceEvents) and folded into a time profile, which
# must carry the pipeline's stacks.
ENTMATCHER_TRACE_FORMAT=chrome "$ENTMATCHER" match \
    --data "$SMOKE/data" --embeddings "$SMOKE/emb" --algorithm csls \
    --trace "$SMOKE/chrome.json" --profile "$SMOKE/profile.folded" \
    --out "$SMOKE/pairs-chrome.tsv" >/dev/null
grep -q '"traceEvents"' "$SMOKE/chrome.json" || fail "chrome trace export missing traceEvents"
grep -q '^pipeline' "$SMOKE/profile.folded" || fail "folded profile has no pipeline stack"
echo "verify: flight recorder smoke passed"

# Serve smoke, in both execution configs: start the online matching
# service on an ephemeral port, answer one top-k query, check /healthz,
# exercise keep-alive (two requests reusing one TCP connection), and
# scrape /metrics for the per-endpoint request_seconds histogram plus
# the connection gauges — then shut it down cleanly over POST /shutdown
# and require exit 0.
for MODE in default degenerate; do
    if [ "$MODE" = "degenerate" ]; then
        MODE_ENV="ENTMATCHER_THREADS=1 ENTMATCHER_SIMD=off"
    else
        MODE_ENV=""
    fi
    env $MODE_ENV "$ENTMATCHER" serve \
        --embeddings "$SMOKE/emb" --addr 127.0.0.1:0 \
        >"$SMOKE/serve-$MODE.out" 2>"$SMOKE/serve-$MODE.err" &
    BG_PID=$!
    SERVE_ADDR=$(await_addr "$SMOKE/serve-$MODE.err" \
        's#^serve: listening http://\([^ ]*\) .*#\1#p') ||
        fail "[$MODE] serve never announced its address"
    TOPK=$(curl -sf -X POST --data '{"ids": [0, 1], "k": 3}' \
        "http://$SERVE_ADDR/match/topk" || true)
    echo "$TOPK" | grep -q '"req_id"' ||
        fail "[$MODE] /match/topk did not answer with a req_id: $TOPK"
    curl -sf "http://$SERVE_ADDR/healthz" | grep -q "ok" ||
        fail "[$MODE] serve /healthz not answering"
    # Keep-alive: issue two requests in one curl invocation and require
    # that the second reuses the first's connection instead of redialing.
    curl -sv "http://$SERVE_ADDR/healthz" "http://$SERVE_ADDR/healthz" \
        2>&1 | grep -qi "re-using existing connection" ||
        fail "[$MODE] serve did not keep the connection alive"
    SERVE_SCRAPE=$(scrape_until "http://$SERVE_ADDR/metrics" "entmatcher_request_seconds_count")
    COUNT=$(echo "$SERVE_SCRAPE" | sed -n \
        's#^entmatcher_request_seconds_count{endpoint="/match/topk"} \([0-9]*\)$#\1#p')
    [ -n "$COUNT" ] && [ "$COUNT" -ge 1 ] ||
        fail "[$MODE] request_seconds histogram missing or zero on /metrics"
    echo "$SERVE_SCRAPE" | grep -q "entmatcher_serve_requests_total" ||
        fail "[$MODE] serve.requests counter missing on /metrics"
    echo "$SERVE_SCRAPE" | grep -q "entmatcher_http_open_connections" ||
        fail "[$MODE] open_connections gauge missing on /metrics"
    echo "$SERVE_SCRAPE" | grep -q "entmatcher_http_requests_per_conn_count" ||
        fail "[$MODE] requests_per_conn histogram missing on /metrics"
    curl -sf -X POST "http://$SERVE_ADDR/shutdown" | grep -q "shutting down" ||
        fail "[$MODE] POST /shutdown did not acknowledge"
    wait "$BG_PID" || {
        BG_PID=""
        fail "[$MODE] serve exited non-zero after /shutdown"
    }
    BG_PID=""
    echo "verify: serve smoke passed ($MODE)"
done

# Measured-memory smoke, in both execution configs: an ENTMATCHER_MEM=1
# match must report its measured peak, put heap columns in the rendered
# trace, write a non-empty allocation profile, and export heap gauges on
# /metrics alongside RSS.
for MODE in default degenerate; do
    if [ "$MODE" = "degenerate" ]; then
        MODE_ENV="ENTMATCHER_THREADS=1 ENTMATCHER_SIMD=off"
    else
        MODE_ENV=""
    fi
    REPORT=$(env $MODE_ENV ENTMATCHER_MEM=1 "$ENTMATCHER" match \
        --data "$SMOKE/data" --embeddings "$SMOKE/emb" --algorithm csls \
        --trace "$SMOKE/trace-mem-$MODE.json" \
        --mem-profile "$SMOKE/mem-$MODE.folded" \
        --out "$SMOKE/pairs-mem-$MODE.tsv")
    echo "$REPORT" | grep -q "measured peak" ||
        fail "[$MODE] match report missing measured heap peak"
    echo "$REPORT" | grep -q "memory profile written" ||
        fail "[$MODE] mem-profile note missing from report"
    [ -s "$SMOKE/mem-$MODE.folded" ] || fail "[$MODE] allocation profile empty or not written"
    RENDERED_MEM=$("$ENTMATCHER" trace --file "$SMOKE/trace-mem-$MODE.json")
    echo "$RENDERED_MEM" | grep -q "heap peak" ||
        fail "[$MODE] rendered trace missing heap columns"
    env $MODE_ENV ENTMATCHER_MEM=1 ENTMATCHER_METRICS_LINGER_MS=15000 \
        "$ENTMATCHER" match \
        --data "$SMOKE/data" --embeddings "$SMOKE/emb" --algorithm csls \
        --metrics 127.0.0.1:0 --out "$SMOKE/pairs-mem-metrics.tsv" \
        >/dev/null 2>"$SMOKE/mem-metrics-$MODE.err" &
    BG_PID=$!
    ADDR=$(await_addr "$SMOKE/mem-metrics-$MODE.err" "$METRICS_ADDR_SED") ||
        fail "[$MODE] mem metrics server never announced its address"
    MEM_SCRAPE=$(scrape_until "http://$ADDR/metrics" "entmatcher_heap_live_bytes")
    for GAUGE in entmatcher_heap_live_bytes entmatcher_heap_peak_bytes \
        entmatcher_rss_bytes; do
        echo "$MEM_SCRAPE" | grep -q "$GAUGE" ||
            fail "[$MODE] /metrics missing $GAUGE with ENTMATCHER_MEM=1"
    done
    stop_bg
    echo "verify: memory smoke passed ($MODE)"
done

# Ledger-bench smokes: each perf-ledger benchmark runs at its smallest
# size into $SMOKE, must print its self-check marker, and must record its
# key case or metric (one compact record per line of the ledger). Numbers
# are informational here, not asserted — CI machines are too noisy for a
# hard perf gate; the committed BENCH_*.json in the repo root are the
# canonical ledgers, and scripts/bench_gate.sh gates them at full size,
# where the numbers mean something.
export ENTMATCHER_BENCH_OUT_DIR="$SMOKE"
for SMOKE_BENCH in 'kernels "case":"blocked"' 'ann "metric":"recall_at_10"' \
    'memory "metric":"bytes_per_entity"' 'serve "metric":"p99_ms"'; do
    BENCH=${SMOKE_BENCH%% *}
    KEY=${SMOKE_BENCH#* }
    BENCH_LOG=$(cargo bench --offline -p entmatcher-bench --bench "$BENCH" 2>&1) || {
        echo "$BENCH_LOG" >&2
        fail "$BENCH bench failed"
    }
    echo "$BENCH_LOG" | grep -q "self-check ok" || fail "$BENCH bench self-check marker missing"
    grep -q "$KEY" "$SMOKE/BENCH_$BENCH.json" || fail "no $KEY entry in $SMOKE/BENCH_$BENCH.json"
    echo "verify: $BENCH bench smoke passed"
done
