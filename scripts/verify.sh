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
cargo test -q --offline --workspace

# Second pass with the execution engine pinned to its degenerate
# configuration: one pool worker (serial fast path) and the scalar
# micro-kernel. Every test must pass identically — the pool/SIMD layers
# are pure performance, never semantics.
echo "verify: re-running tests with ENTMATCHER_THREADS=1 ENTMATCHER_SIMD=off"
ENTMATCHER_THREADS=1 ENTMATCHER_SIMD=off cargo test -q --offline --workspace

# Named test groups below run as name filters, and a filter that matches
# nothing passes silently. `test_group CMD...` runs one filter and fails
# when it errors or runs zero tests, so moving or renaming a group's
# tests cannot empty it unnoticed.
test_group() {
    out=$("$@" 2>&1) || {
        printf '%s\n' "$out"
        echo "verify: test group failed: $*" >&2
        return 1
    }
    printf '%s\n' "$out"
    passed=$(printf '%s\n' "$out" |
        sed -n 's/^test result: ok\. \([0-9][0-9]*\) passed.*/\1/p' |
        awk '{ n += $1 } END { print n + 0 }')
    [ "$passed" -gt 0 ] || {
        echo "verify: test group ran no tests: $*" >&2
        return 1
    }
}

for MODE_ENV in "" "ENTMATCHER_THREADS=1 ENTMATCHER_SIMD=off"; do
    # ANN candidate-generation group: k-means training parallelizes over
    # fixed-size row chunks and the oracle recall floors are bitwise/
    # statistical claims, so this group in particular must hold under the
    # degenerate execution config — a thread-count- or SIMD-dependent
    # result here is a correctness bug, not a perf difference.
    echo "verify: ANN test group (${MODE_ENV:-defaults})"
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-core --lib ann
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-core --test ann_recall

    # Packed-operand and quantized-storage group: the f32/f16/int8 packed
    # operand (`linalg::gemm`) carries bitwise scalar-vs-AVX2 identity and
    # builder-equals-one-shot claims, and the snapshot streaming path
    # carries bitwise in-memory-equality claims, so the whole group must
    # hold identically under the degenerate execution config.
    echo "verify: quantized test group (${MODE_ENV:-defaults})"
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-linalg --lib gemm
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-linalg --lib quant
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-linalg --test quant_proptests
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-core --lib quantized
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-core --lib snapshot_streaming
done

# Telemetry smoke test: run a small end-to-end match with --trace and
# check the exported JSON parses and contains the pipeline stage spans.
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
ENTMATCHER="target/release/entmatcher"
"$ENTMATCHER" generate --preset S-W --scale 0.02 --out "$SMOKE/data" >/dev/null
"$ENTMATCHER" encode --data "$SMOKE/data" --encoder name --out "$SMOKE/emb" >/dev/null
"$ENTMATCHER" match --data "$SMOKE/data" --embeddings "$SMOKE/emb" \
    --algorithm csls --trace "$SMOKE/trace.json" --out "$SMOKE/pairs.tsv" >/dev/null
RENDERED=$("$ENTMATCHER" trace --file "$SMOKE/trace.json")
for span in pipeline similarity optimize match; do
    echo "$RENDERED" | grep -q "$span" || {
        echo "verify: $span span missing from trace" >&2
        exit 1
    }
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
echo "$RENDERED_PAD" | grep -q "pad" || {
    echo "verify: pad span missing from padded trace" >&2
    exit 1
}
echo "verify: telemetry smoke test passed"

# Quantized pipeline smoke: the same match at int8 with chunked snapshot
# loading; the trace must carry the quant.pack span and the quantized
# byte/chunk counters, and the predictions must stay non-empty.
"$ENTMATCHER" match --data "$SMOKE/data" --embeddings "$SMOKE/emb" \
    --algorithm csls --precision int8 --stream-chunk 64 \
    --trace "$SMOKE/trace-int8.json" --out "$SMOKE/pairs-int8.tsv" >/dev/null
[ -s "$SMOKE/pairs-int8.tsv" ] || {
    echo "verify: int8 match produced no predictions" >&2
    exit 1
}
for marker in "quant.pack" "quant.packed_bytes" "snapshot.stream.chunks"; do
    grep -q "$marker" "$SMOKE/trace-int8.json" || {
        echo "verify: $marker missing from int8 trace" >&2
        exit 1
    }
done
# And the quantized counters must reach the live /metrics exposition.
ENTMATCHER_METRICS_LINGER_MS=15000 "$ENTMATCHER" match \
    --data "$SMOKE/data" --embeddings "$SMOKE/emb" --algorithm csls \
    --precision int8 --metrics 127.0.0.1:0 \
    --out "$SMOKE/pairs-int8-metrics.tsv" \
    >/dev/null 2>"$SMOKE/int8-metrics.err" &
INT8_METRICS_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's#^metrics: serving http://\([^/]*\)/metrics$#\1#p' \
        "$SMOKE/int8-metrics.err" 2>/dev/null || true)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || {
    echo "verify: int8 metrics server never announced its address" >&2
    kill "$INT8_METRICS_PID" 2>/dev/null || true
    exit 1
}
INT8_SCRAPE=""
for _ in $(seq 1 100); do
    INT8_SCRAPE=$(curl -sf "http://$ADDR/metrics" || true)
    echo "$INT8_SCRAPE" | grep -q "entmatcher_quant_packed_bytes_total" && break
    sleep 0.1
done
echo "$INT8_SCRAPE" | grep -q "entmatcher_quant_packed_bytes_total" || {
    echo "verify: /metrics missing quant.packed_bytes counter" >&2
    kill "$INT8_METRICS_PID" 2>/dev/null || true
    exit 1
}
kill "$INT8_METRICS_PID" 2>/dev/null || true
wait "$INT8_METRICS_PID" 2>/dev/null || true
echo "verify: quantized pipeline smoke passed"

# Flight-recorder smoke: serve live metrics from a match run on an
# ephemeral port, scrape once, and check the exposition carries a known
# pipeline counter. The linger keeps the server up after the (fast)
# command so the scrape cannot race its exit.
ENTMATCHER_METRICS_LINGER_MS=15000 "$ENTMATCHER" match \
    --data "$SMOKE/data" --embeddings "$SMOKE/emb" --algorithm csls \
    --metrics 127.0.0.1:0 --out "$SMOKE/pairs-metrics.tsv" \
    >/dev/null 2>"$SMOKE/metrics.err" &
METRICS_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's#^metrics: serving http://\([^/]*\)/metrics$#\1#p' \
        "$SMOKE/metrics.err" 2>/dev/null || true)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || {
    echo "verify: metrics server never announced its address" >&2
    kill "$METRICS_PID" 2>/dev/null || true
    exit 1
}
SCRAPE=""
for _ in $(seq 1 100); do
    SCRAPE=$(curl -sf "http://$ADDR/metrics" || true)
    echo "$SCRAPE" | grep -q "entmatcher_csls_neighborhoods_total" && break
    sleep 0.1
done
echo "$SCRAPE" | grep -q "entmatcher_up 1" || {
    echo "verify: /metrics missing entmatcher_up gauge" >&2
    kill "$METRICS_PID" 2>/dev/null || true
    exit 1
}
echo "$SCRAPE" | grep -q "entmatcher_csls_neighborhoods_total" || {
    echo "verify: /metrics missing csls counter" >&2
    kill "$METRICS_PID" 2>/dev/null || true
    exit 1
}
# The persistent pool must report its scheduling counters through the
# same exposition (pool.tasks -> entmatcher_pool_tasks_total).
echo "$SCRAPE" | grep -q "entmatcher_pool_tasks_total" || {
    echo "verify: /metrics missing pool.tasks counter" >&2
    kill "$METRICS_PID" 2>/dev/null || true
    exit 1
}
# RSS is a process gauge, exported whether or not heap counting is on;
# the heap gauges must NOT appear here (ENTMATCHER_MEM is unset, so the
# counting allocator holds everything at zero).
echo "$SCRAPE" | grep -q "entmatcher_rss_bytes" || {
    echo "verify: /metrics missing RSS gauge" >&2
    kill "$METRICS_PID" 2>/dev/null || true
    exit 1
}
if echo "$SCRAPE" | grep -q "entmatcher_heap_live_bytes"; then
    echo "verify: heap gauge exported with memory counting off" >&2
    kill "$METRICS_PID" 2>/dev/null || true
    exit 1
fi
curl -sf "http://$ADDR/healthz" | grep -q "ok" || {
    echo "verify: /healthz not answering" >&2
    kill "$METRICS_PID" 2>/dev/null || true
    exit 1
}
kill "$METRICS_PID" 2>/dev/null || true
wait "$METRICS_PID" 2>/dev/null || true
echo "verify: metrics exposition smoke passed"

# Chrome trace + profiler smoke: the same match exported as trace_event
# JSON (must mention traceEvents) and a folded profile file.
ENTMATCHER_TRACE_FORMAT=chrome "$ENTMATCHER" match \
    --data "$SMOKE/data" --embeddings "$SMOKE/emb" --algorithm csls \
    --trace "$SMOKE/chrome.json" --profile "$SMOKE/profile.folded" \
    --out "$SMOKE/pairs-chrome.tsv" >/dev/null
grep -q '"traceEvents"' "$SMOKE/chrome.json" || {
    echo "verify: chrome trace export missing traceEvents" >&2
    exit 1
}
[ -f "$SMOKE/profile.folded" ] || {
    echo "verify: folded profile not written" >&2
    exit 1
}
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
    SERVE_PID=$!
    SERVE_ADDR=""
    for _ in $(seq 1 100); do
        SERVE_ADDR=$(sed -n 's#^serve: listening http://\([^ ]*\) .*#\1#p' \
            "$SMOKE/serve-$MODE.err" 2>/dev/null || true)
        [ -n "$SERVE_ADDR" ] && break
        sleep 0.1
    done
    [ -n "$SERVE_ADDR" ] || {
        echo "verify: [$MODE] serve never announced its address" >&2
        kill "$SERVE_PID" 2>/dev/null || true
        exit 1
    }
    TOPK=$(curl -sf -X POST --data '{"ids": [0, 1], "k": 3}' \
        "http://$SERVE_ADDR/match/topk" || true)
    echo "$TOPK" | grep -q '"req_id"' || {
        echo "verify: [$MODE] /match/topk did not answer with a req_id: $TOPK" >&2
        kill "$SERVE_PID" 2>/dev/null || true
        exit 1
    }
    curl -sf "http://$SERVE_ADDR/healthz" | grep -q "ok" || {
        echo "verify: [$MODE] serve /healthz not answering" >&2
        kill "$SERVE_PID" 2>/dev/null || true
        exit 1
    }
    # Keep-alive: issue two requests in one curl invocation and require
    # that the second reuses the first's connection instead of redialing.
    curl -sv "http://$SERVE_ADDR/healthz" "http://$SERVE_ADDR/healthz" \
        2>&1 | grep -qi "re-using existing connection" || {
        echo "verify: [$MODE] serve did not keep the connection alive" >&2
        kill "$SERVE_PID" 2>/dev/null || true
        exit 1
    }
    SERVE_SCRAPE=""
    for _ in $(seq 1 100); do
        SERVE_SCRAPE=$(curl -sf "http://$SERVE_ADDR/metrics" || true)
        echo "$SERVE_SCRAPE" | grep -q "entmatcher_request_seconds_count" && break
        sleep 0.1
    done
    COUNT=$(echo "$SERVE_SCRAPE" | sed -n \
        's#^entmatcher_request_seconds_count{endpoint="/match/topk"} \([0-9]*\)$#\1#p')
    [ -n "$COUNT" ] && [ "$COUNT" -ge 1 ] || {
        echo "verify: [$MODE] request_seconds histogram missing or zero on /metrics" >&2
        kill "$SERVE_PID" 2>/dev/null || true
        exit 1
    }
    echo "$SERVE_SCRAPE" | grep -q "entmatcher_serve_requests_total" || {
        echo "verify: [$MODE] serve.requests counter missing on /metrics" >&2
        kill "$SERVE_PID" 2>/dev/null || true
        exit 1
    }
    echo "$SERVE_SCRAPE" | grep -q "entmatcher_http_open_connections" || {
        echo "verify: [$MODE] open_connections gauge missing on /metrics" >&2
        kill "$SERVE_PID" 2>/dev/null || true
        exit 1
    }
    echo "$SERVE_SCRAPE" | grep -q "entmatcher_http_requests_per_conn_count" || {
        echo "verify: [$MODE] requests_per_conn histogram missing on /metrics" >&2
        kill "$SERVE_PID" 2>/dev/null || true
        exit 1
    }
    curl -sf -X POST "http://$SERVE_ADDR/shutdown" | grep -q "shutting down" || {
        echo "verify: [$MODE] POST /shutdown did not acknowledge" >&2
        kill "$SERVE_PID" 2>/dev/null || true
        exit 1
    }
    wait "$SERVE_PID" || {
        echo "verify: [$MODE] serve exited non-zero after /shutdown" >&2
        exit 1
    }
    echo "verify: serve smoke passed ($MODE)"
done

# Memory observability test group, called out by name: per-span heap
# attribution must hold whether allocations happen on pool workers or on
# the serial fast path, and the measured-vs-modeled cross-check harness
# is exactly the kind of claim that must not depend on thread count or
# SIMD level.
for MODE_ENV in "" "ENTMATCHER_THREADS=1 ENTMATCHER_SIMD=off"; do
    echo "verify: memory test group (${MODE_ENV:-defaults})"
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-support --lib alloc
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-support --test alloc
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-support --test alloc_off
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-core --test memory_model
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
    echo "$REPORT" | grep -q "measured peak" || {
        echo "verify: [$MODE] match report missing measured heap peak" >&2
        exit 1
    }
    echo "$REPORT" | grep -q "memory profile written" || {
        echo "verify: [$MODE] mem-profile note missing from report" >&2
        exit 1
    }
    [ -s "$SMOKE/mem-$MODE.folded" ] || {
        echo "verify: [$MODE] allocation profile empty or not written" >&2
        exit 1
    }
    RENDERED_MEM=$("$ENTMATCHER" trace --file "$SMOKE/trace-mem-$MODE.json")
    echo "$RENDERED_MEM" | grep -q "heap peak" || {
        echo "verify: [$MODE] rendered trace missing heap columns" >&2
        exit 1
    }
    env $MODE_ENV ENTMATCHER_MEM=1 ENTMATCHER_METRICS_LINGER_MS=15000 \
        "$ENTMATCHER" match \
        --data "$SMOKE/data" --embeddings "$SMOKE/emb" --algorithm csls \
        --metrics 127.0.0.1:0 --out "$SMOKE/pairs-mem-metrics.tsv" \
        >/dev/null 2>"$SMOKE/mem-metrics.err" &
    MEM_METRICS_PID=$!
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR=$(sed -n 's#^metrics: serving http://\([^/]*\)/metrics$#\1#p' \
            "$SMOKE/mem-metrics.err" 2>/dev/null || true)
        [ -n "$ADDR" ] && break
        sleep 0.1
    done
    [ -n "$ADDR" ] || {
        echo "verify: [$MODE] mem metrics server never announced its address" >&2
        kill "$MEM_METRICS_PID" 2>/dev/null || true
        exit 1
    }
    MEM_SCRAPE=""
    for _ in $(seq 1 100); do
        MEM_SCRAPE=$(curl -sf "http://$ADDR/metrics" || true)
        echo "$MEM_SCRAPE" | grep -q "entmatcher_heap_live_bytes" && break
        sleep 0.1
    done
    for GAUGE in entmatcher_heap_live_bytes entmatcher_heap_peak_bytes \
        entmatcher_rss_bytes; do
        echo "$MEM_SCRAPE" | grep -q "$GAUGE" || {
            echo "verify: [$MODE] /metrics missing $GAUGE with ENTMATCHER_MEM=1" >&2
            kill "$MEM_METRICS_PID" 2>/dev/null || true
            exit 1
        }
    done
    kill "$MEM_METRICS_PID" 2>/dev/null || true
    wait "$MEM_METRICS_PID" 2>/dev/null || true
    echo "verify: memory smoke passed ($MODE)"
done

# Kernel-bench smoke: run the kernels benchmark at its smallest size and
# check the JSON artifact self-check passes and a blocked-kernel entry is
# *recorded* (throughput comparison is informational here, not asserted —
# CI machines are too noisy for a hard perf gate; BENCH_kernels.json in
# the repo root is the canonical measured artifact).
KERNELS_OUT="$SMOKE/BENCH_kernels.json"
KERNELS_LOG=$(ENTMATCHER_KERNEL_BENCH_OUT="$KERNELS_OUT" \
    cargo bench --offline -p entmatcher-bench --bench kernels 2>&1) || {
    echo "verify: kernels bench failed" >&2
    echo "$KERNELS_LOG" >&2
    exit 1
}
echo "$KERNELS_LOG" | grep -q "self-check ok" || {
    echo "verify: kernels bench self-check marker missing" >&2
    exit 1
}
grep -q '"kernel": "blocked"' "$KERNELS_OUT" || {
    echo "verify: no blocked-kernel entry in $KERNELS_OUT" >&2
    exit 1
}
echo "verify: kernel bench smoke passed"

# ANN-bench smoke: quick-size recall-vs-speedup sweep; the self-check
# validates JSON structure and recall monotonicity (the 0.95-recall /
# 5x-speedup acceptance point is asserted by bench_gate.sh at full size,
# where the numbers mean something).
ANN_OUT="$SMOKE/BENCH_ann.json"
ANN_LOG=$(ENTMATCHER_ANN_BENCH_OUT="$ANN_OUT" \
    cargo bench --offline -p entmatcher-bench --bench ann 2>&1) || {
    echo "verify: ann bench failed" >&2
    echo "$ANN_LOG" >&2
    exit 1
}
echo "$ANN_LOG" | grep -q "self-check ok" || {
    echo "verify: ann bench self-check marker missing" >&2
    exit 1
}
grep -q '"recall_at_10"' "$ANN_OUT" || {
    echo "verify: no recall entry in $ANN_OUT" >&2
    exit 1
}
echo "verify: ann bench smoke passed"

# Memory-bench smoke: quick-size per-stage peak-heap measurement; the
# self-check validates every stage has a positive measured peak (the
# bytes/entity ceiling is asserted by bench_gate.sh at full size).
MEM_OUT="$SMOKE/BENCH_memory.json"
MEM_LOG=$(ENTMATCHER_MEMORY_BENCH_OUT="$MEM_OUT" \
    cargo bench --offline -p entmatcher-bench --bench memory 2>&1) || {
    echo "verify: memory bench failed" >&2
    echo "$MEM_LOG" >&2
    exit 1
}
echo "$MEM_LOG" | grep -q "self-check ok" || {
    echo "verify: memory bench self-check marker missing" >&2
    exit 1
}
grep -q '"bytes_per_entity"' "$MEM_OUT" || {
    echo "verify: no bytes_per_entity entry in $MEM_OUT" >&2
    exit 1
}
echo "verify: memory bench smoke passed"

# Serve-bench smoke: quick-size qps/p99 measurement over real HTTP; the
# self-check validates JSON structure and quantile sanity (the qps/p99
# regression gate runs at full size in bench_gate.sh).
SERVE_OUT="$SMOKE/BENCH_serve.json"
SERVE_LOG=$(ENTMATCHER_SERVE_BENCH_OUT="$SERVE_OUT" \
    cargo bench --offline -p entmatcher-bench --bench serve 2>&1) || {
    echo "verify: serve bench failed" >&2
    echo "$SERVE_LOG" >&2
    exit 1
}
echo "$SERVE_LOG" | grep -q "self-check ok" || {
    echo "verify: serve bench self-check marker missing" >&2
    exit 1
}
grep -q '"p99_ms"' "$SERVE_OUT" || {
    echo "verify: no p99_ms entry in $SERVE_OUT" >&2
    exit 1
}
echo "verify: serve bench smoke passed"
