#![warn(missing_docs)]

//! Command-line workflow for the EntMatcher reproduction.
//!
//! Five subcommands compose the full EA pipeline over plain files, so the
//! library is usable without writing Rust (the role the Python original's
//! scripts play):
//!
//! ```text
//! entmatcher generate --preset D-Z --scale 0.1 --out data/dz
//! entmatcher stats    --data data/dz
//! entmatcher encode   --data data/dz --encoder rrea --out data/dz/emb
//! entmatcher match    --data data/dz --embeddings data/dz/emb \
//!                     --algorithm csls --out data/dz/pairs.tsv
//! entmatcher eval     --data data/dz --pairs data/dz/pairs.tsv
//! ```
//!
//! Datasets are OpenEA-style TSV directories (`triples_1`, `triples_2`,
//! `ent_links`), so real benchmark dumps drop in for the synthetic
//! generator's output. Embeddings persist as `entmatcher-linalg` snapshot
//! files. Every command is a plain function returning its report string,
//! so the whole surface is unit-testable without spawning processes.

pub mod args;
pub mod commands;

pub use args::{parse_args, ParsedArgs};
pub use commands::{run_command, CliError};

/// Entry point shared by the binary and the tests: dispatches an argv-style
/// slice and returns the textual report (or an error).
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(argv)?;
    run_command(&parsed)
}

/// Usage text printed for `--help` or on argument errors.
pub const USAGE: &str = "\
entmatcher <command> [options]

commands:
  generate  --preset <D-Z|D-J|D-F|S-F|S-D|S-W|S-Y|D-W|D-Y|DBP+|FB-DBP>
            [--scale F] [--seed N] --out DIR
            Generate a synthetic benchmark pair as OpenEA-style TSV.
  stats     --data DIR
            Print dataset statistics (Table 3 row) and degree profiles.
  encode    --data DIR --encoder <gcn|rrea|transe|name|fused> [--seed N]
            [--trace FILE] --out DIR
            Learn unified embeddings; writes source.emb / target.emb.
  match     --data DIR --embeddings DIR
            --algorithm <dinf|csls|rinf|rinf-wr|rinf-pb|sinkhorn|hungarian|smat|rl>
            [--candidates <exact|ivf>] [--nlist N] [--nprobe N]
            [--shortlist K] [--precision <f32|f16|int8>]
            [--stream-chunk ROWS] [--dummies] [--trace FILE] --out FILE
            Match the test candidates; writes predicted pairs as TSV.
            --candidates selects the similarity stage: exact (dense, the
            default) or ivf (ANN index over the targets, cosine only;
            --nlist inverted lists, --nprobe probed per source, 0 = auto),
            which keeps the top --shortlist scores per source (the exact
            top --shortlist when nprobe = nlist).
            --precision stores the cosine similarity stage's packed
            target operand (and IVF posting lists) at a reduced width:
            f16 halves it, int8 quarters it (per-row symmetric scales;
            scores shift by at most scale/2 per element). f32 (default)
            is bit-exact. --stream-chunk loads embedding snapshots
            through the chunked reader, ROWS rows at a time, bounding
            load-time auxiliary memory by the chunk instead of the file.
  eval      --data DIR --pairs FILE
            Score predicted pairs against the gold test links.
  serve     --embeddings DIR [--addr HOST:PORT] [--precision <f32|f16|int8>]
            [--candidates <exact|ivf>] [--nlist N] [--nprobe N]
            [--stream-chunk ROWS] [--cache N] [--batch-max N]
            [--batch-wait-us USEC] [--k-max N] [--max-conns N]
            [--max-inflight N] [--trace FILE]
            Serve online top-k matching over HTTP: POST /match/topk
            (JSON {\"ids\": [..]} or {\"queries\": [[..]]} plus \"k\")
            shares one keep-alive listener with GET /metrics and GET
            /healthz (persistent connections; idle ones are evicted
            after 5 s). Concurrent requests coalesce into single
            fused-GEMM passes (up to --batch-max per pass, lingering
            --batch-wait-us); --cache bounds the LRU top-k cache (0
            disables). Admission control: --max-conns (default 256)
            caps open connections (503 + Retry-After beyond it) and
            --max-inflight (default 256, 0 = unlimited) caps
            concurrently-inflight requests (429 + Retry-After). Rows
            are L2-normalized at load, so scores are cosine
            similarities.
            Every response carries a req_id; with --trace each request
            records a serve.request span tree tagged with it, and
            ENTMATCHER_SLOW_MS=N logs slower requests as JSON lines on
            stderr. POST /shutdown stops the server (and flushes the
            --trace export). --addr defaults to 127.0.0.1:0; the bound
            address prints to stderr.
  trace     --file FILE [--chrome OUT.json]
            Render an exported JSON trace as an indented span tree with
            counters and histogram quantiles, or convert it to Chrome
            trace_event JSON (open OUT.json in ui.perfetto.dev).

observability:
  Every command accepts the flight-recorder flags:
    --trace FILE     Record telemetry (spans, counters, histograms) for
                     the command and export it to FILE as JSON. With
                     ENTMATCHER_TRACE_FORMAT=chrome the export is Chrome
                     trace_event JSON instead of the native document.
    --profile FILE   Record the command's spans and, when it ends,
                     write them to FILE as collapsed ('folded') stacks
                     for flamegraph tooling, each weighted by its self
                     time in microseconds (the span's duration minus its
                     children's on the same thread).
    --metrics ADDR   Serve live Prometheus metrics on ADDR (e.g.
                     127.0.0.1:9184; port 0 picks one) for the duration
                     of the command: curl http://ADDR/metrics. The bound
                     address prints to stderr; ENTMATCHER_METRICS_ADDR
                     is the env equivalent, and the server lingers
                     ENTMATCHER_METRICS_LINGER_MS after the command.
                     RSS is always exported; heap gauges appear when
                     ENTMATCHER_MEM counting is on.
    --mem-profile FILE
                     Turn on the counting allocator and write the
                     command's spans to FILE as collapsed stacks weighted
                     by the bytes each allocated itself (its
                     heap_allocated minus its children's), plus a
                     '(no span)' line for bytes allocated outside any
                     span — flamegraph.pl / speedscope render it directly.
  Alternatively set ENTMATCHER_TRACE=FILE to record the command and export
  its trace to FILE, or ENTMATCHER_TRACE=1 to record without exporting.
  Unset, empty, blank or 0, telemetry is off and costs one atomic load
  per site.
  ENTMATCHER_MEM=1 enables measured memory observability: every span in
  a trace gains heap_allocated / heap_live_peak bytes from the counting
  allocator, `match` reports its measured peak next to the modeled one,
  and /metrics exports live heap gauges. Off (the default), the
  allocator counts nothing and writes no counters at all.
  ENTMATCHER_ENV_DUMP=1 prints every recognized ENTMATCHER_* switch and
  its value to stderr at exit (unset / empty / blank / 0 all mean
  disabled — the shared convention across all switches).
";
