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
    # operand (`linalg::gemm`) carries bitwise scalar-vs-AVX2 identity at
    # both register-block shapes (multi-row, and one row over several
    # strips, so a lone query's scores equal its row of a batch) and
    # builder-equals-one-shot claims, and the snapshot streaming path
    # carries bitwise in-memory-equality claims, so the whole group must
    # hold identically under the degenerate execution config.
    echo "verify: quantized test group (${MODE_ENV:-defaults})"
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-linalg --lib gemm
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-linalg --test simd_equivalence
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-linalg --lib quant
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-linalg --test quant_proptests
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-core --lib quantized
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-core --lib snapshot_streaming

    # Fused-reduction group: the two-sided top-k scan merges one column
    # state per pool participant, and its means must be the same bits at
    # pool width 1 with the scalar kernel and at full width with AVX2; the
    # floor-filtered top-k and argmax must keep exactly what the scalar
    # reductions keep, and streaming decisions must equal dense ones.
    echo "verify: fused-reduction test group (${MODE_ENV:-defaults})"
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-linalg --lib fused
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-linalg --test proptests
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-core --lib streaming

    # Sinkhorn group: the scaling form merges one column partial per row
    # block in block order, with blocks fixed by the row count, so nothing
    # in it may depend on the pool width; its differential property
    # against the five-pass form and the optimizer properties must hold
    # under both execution configs.
    echo "verify: Sinkhorn test group (${MODE_ENV:-defaults})"
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-core --lib score::sinkhorn
    test_group env $MODE_ENV cargo test -q --offline --test properties

    # Ranking group: the radix rank kernel must equal a comparison argsort
    # on the total comparator on both sides of its cutoff; full RInf's
    # two-buffer phases, split into tasks by the pool, must equal the
    # four-matrix oracle bit for bit; Gale–Shapley's flat lists must
    # propose as the nested lists did; and no NaN may panic a sort.
    echo "verify: ranking test group (${MODE_ENV:-defaults})"
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-linalg --lib rank
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-core --lib score::rinf
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-core --lib matching::stable
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-core --lib matching::rl

    # Hungarian group: the row scan's relaxation mask must be the same bits
    # from the scalar reference and the AVX2 kernel, and the solver, which
    # runs whichever the config selects, must return the slot-order scan's
    # assignments exactly, ties included.
    echo "verify: Hungarian test group (${MODE_ENV:-defaults})"
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-linalg --lib relax
    test_group env $MODE_ENV cargo test -q --offline -p entmatcher-core --lib matching::hungarian
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
            cmp "$SMOKE/det-$ALGO-t1-off.tsv" "$SMOKE/det-$ALGO-$CFG.tsv" || {
                echo "verify: $ALGO pairs at $CFG differ from t1-off" >&2
                exit 1
            }
        done
        ENTMATCHER_THREADS=$THREADS ENTMATCHER_SIMD=$SIMD "$ENTMATCHER" encode \
            --data "$SMOKE/data" --encoder rrea --out "$SMOKE/det-rrea-$CFG" >/dev/null
        for SIDE in source.emb target.emb; do
            cmp "$SMOKE/det-rrea-t1-off/$SIDE" "$SMOKE/det-rrea-$CFG/$SIDE" || {
                echo "verify: RREA $SIDE at $CFG differs from t1-off" >&2
                exit 1
            }
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
    cmp "$SMOKE/pairs-exact-$MODE.tsv" "$SMOKE/pairs-ivf-$MODE.tsv" || {
        echo "verify: [$MODE] full-width IVF pairs differ from exact" >&2
        exit 1
    }
    STATUS=0
    env $MODE_ENV "$ENTMATCHER" match --data "$SMOKE/data" \
        --embeddings "$SMOKE/emb" --algorithm dinf --candidates lsh \
        --out "$SMOKE/pairs-lsh-$MODE.tsv" >/dev/null 2>&1 || STATUS=$?
    [ "$STATUS" -eq 2 ] || {
        echo "verify: [$MODE] --candidates lsh exited $STATUS, want usage code 2" >&2
        exit 1
    }
    echo "verify: full-width IVF smoke passed ($MODE)"
done

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

# Chrome trace + profile smoke: the same match exported as trace_event
# JSON (must mention traceEvents) and folded into a time profile, which
# must carry the pipeline's stacks.
ENTMATCHER_TRACE_FORMAT=chrome "$ENTMATCHER" match \
    --data "$SMOKE/data" --embeddings "$SMOKE/emb" --algorithm csls \
    --trace "$SMOKE/chrome.json" --profile "$SMOKE/profile.folded" \
    --out "$SMOKE/pairs-chrome.tsv" >/dev/null
grep -q '"traceEvents"' "$SMOKE/chrome.json" || {
    echo "verify: chrome trace export missing traceEvents" >&2
    exit 1
}
grep -q '^pipeline' "$SMOKE/profile.folded" || {
    echo "verify: folded profile has no pipeline stack" >&2
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
        echo "verify: $BENCH bench failed" >&2
        echo "$BENCH_LOG" >&2
        exit 1
    }
    echo "$BENCH_LOG" | grep -q "self-check ok" || {
        echo "verify: $BENCH bench self-check marker missing" >&2
        exit 1
    }
    grep -q "$KEY" "$SMOKE/BENCH_$BENCH.json" || {
        echo "verify: no $KEY entry in $SMOKE/BENCH_$BENCH.json" >&2
        exit 1
    }
    echo "verify: $BENCH bench smoke passed"
done
