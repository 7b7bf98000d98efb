//! Subcommand implementations. Every command is a plain function from
//! parsed arguments to a report string, so the whole surface is testable
//! in-process.

use crate::args::ParsedArgs;
use crate::USAGE;
use entmatcher_core::{AlgorithmPreset, IvfParams, MatchContext};
use entmatcher_data::benchmarks;
use entmatcher_embed::{fuse, Encoder, UnifiedEmbeddings};
use entmatcher_eval::{evaluate_links, MatchTask};
use entmatcher_graph::io::{load_pair_dir, save_pair_dir};
use entmatcher_graph::metrics::degree_profile;
use entmatcher_graph::{DatasetStats, KgPair, Link};
use entmatcher_linalg::{snapshot, Precision};
use entmatcher_support::telemetry::profile;
use entmatcher_support::{alloc, telemetry};
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// CLI error: usage problems, I/O failures, or malformed inputs.
#[derive(Debug)]
pub enum CliError {
    /// The command line was malformed; the message says how.
    Usage(String),
    /// Underlying I/O or data error.
    Failed(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}\n\n{USAGE}"),
            CliError::Failed(msg) => write!(f, "error: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<entmatcher_graph::GraphError> for CliError {
    fn from(e: entmatcher_graph::GraphError) -> Self {
        CliError::Failed(e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Failed(e.to_string())
    }
}

/// Dispatches a parsed command line under a fresh telemetry registry,
/// installed as the thread's current one for the command, wrapped in the
/// flight-recorder surfaces the caller asked for:
///
/// - `--trace FILE` records the command and exports its trace to `FILE`
///   (whether the command succeeds or fails, so aborted runs stay
///   diagnosable) — as the native JSON document, or as Chrome
///   `trace_event` JSON when `ENTMATCHER_TRACE_FORMAT=chrome`.
///   `ENTMATCHER_TRACE=FILE` exports the same document to `FILE` as well;
///   any other value of the switch (`1`) only records.
/// - `--profile FILE` records like `--trace` and, when the command ends,
///   writes the fold of its trace to `FILE` as collapsed-stack lines
///   weighted by self microseconds ([`telemetry::profile::fold`]).
/// - `--metrics ADDR` (or `ENTMATCHER_METRICS_ADDR`) serves the live
///   registry over HTTP for the duration of the command; the bound
///   address is printed to stderr (port 0 picks an ephemeral port) and
///   the server lingers `ENTMATCHER_METRICS_LINGER_MS` after the command
///   so short runs stay scrapable.
/// - `--mem-profile FILE` turns on the counting allocator for the command
///   and records like `--trace`; when the command ends it writes the fold
///   of the trace weighted by self allocated bytes to `FILE`, plus a
///   `(no span)` line for the bytes allocated outside any span. With
///   `ENTMATCHER_MEM=1` set instead, counting is on for the whole
///   process. Either way every telemetry span carries measured heap
///   fields, telemetry recording is enabled so the measurements have spans
///   to land on, and final `mem.*` counters are folded into the registry
///   after the command (so they appear in `--trace` exports and on
///   `/metrics`).
pub fn run_command(args: &ParsedArgs) -> Result<String, CliError> {
    if args.has_flag("help") {
        return Ok(USAGE.to_owned());
    }
    let trace_path = args.get("trace").map(std::path::PathBuf::from);
    let profile_path = args.get("profile").map(std::path::PathBuf::from);
    let mem_profile_path = args.get("mem-profile").map(std::path::PathBuf::from);
    let env_trace = telemetry::env_trace_destination();
    let env_trace_path = env_trace.as_deref().filter(|&dest| dest != "1");
    let metrics_addr = args
        .get("metrics")
        .map(str::to_owned)
        .or_else(telemetry::expose::env_metrics_addr);
    let mem_was = alloc::enabled();
    if mem_profile_path.is_some() {
        alloc::set_enabled(true);
    }
    let allocated_before = alloc::stats().total_bytes;
    let snapshot_wanted = trace_path.is_some()
        || profile_path.is_some()
        || mem_profile_path.is_some()
        || env_trace_path.is_some();
    // Leaked: the `--metrics` and `serve` transports hold a `'static`
    // registry. One per command.
    let registry: &'static telemetry::Telemetry = Box::leak(Box::default());
    registry.set_enabled(
        snapshot_wanted || env_trace.is_some() || metrics_addr.is_some() || alloc::enabled(),
    );
    let _installed = registry.install();
    let server = match &metrics_addr {
        Some(addr) => {
            let server = telemetry::expose::MetricsServer::start(registry, addr)
                .map_err(|e| CliError::Failed(format!("--metrics {addr}: {e}")))?;
            eprintln!("metrics: serving http://{}/metrics", server.addr());
            Some(server)
        }
        None => None,
    };

    let result = dispatch(args);

    // Fold the process-wide allocator totals into the registry before any
    // export, so traces and scraped metrics carry the measured numbers.
    if alloc::enabled() {
        let stats = alloc::stats();
        telemetry::add("mem.heap_peak_bytes", stats.peak_bytes);
        telemetry::add("mem.heap_live_bytes", stats.live_bytes);
        telemetry::add("mem.alloc_total", stats.allocs);
    }

    let mut notes = Vec::new();
    let allocated = alloc::stats().total_bytes.saturating_sub(allocated_before);
    let trace = snapshot_wanted.then(|| registry.snapshot());
    if let (Some(path), Some(trace)) = (&mem_profile_path, &trace) {
        let mut stacks = profile::fold(trace, profile::Weight::HeapBytes);
        let in_spans = stacks.values().fold(0u64, |sum, &w| sum.saturating_add(w));
        if allocated > in_spans {
            stacks.insert("(no span)".to_owned(), allocated - in_spans);
        }
        alloc::set_enabled(mem_was);
        notes.push(write_profile("memory profile", path, &stacks, "B")?);
    }
    if let (Some(path), Some(trace)) = (&profile_path, &trace) {
        let stacks = profile::fold(trace, profile::Weight::Micros);
        notes.push(write_profile("profile", path, &stacks, "us")?);
    }
    let text = trace
        .as_ref()
        .map(|trace| match telemetry::chrome::env_format() {
            telemetry::chrome::TraceFormat::Chrome => telemetry::chrome::to_chrome_string(trace),
            telemetry::chrome::TraceFormat::Native => {
                entmatcher_support::json::to_string_pretty(trace)
            }
        });
    if let (Some(path), Some(text)) = (&trace_path, &text) {
        std::fs::write(path, text)?;
        notes.push(format!("trace written to {}", path.display()));
    }
    // The switch's dump is not on the command line: a failed write warns
    // instead of failing the command.
    if let (Some(dest), Some(text)) = (env_trace_path, &text) {
        if let Err(e) = std::fs::write(dest, text) {
            eprintln!("warning: could not write trace to {dest}: {e}");
        }
    }
    if let Some(server) = server {
        std::thread::sleep(telemetry::expose::env_linger());
        server.shutdown();
    }
    if notes.is_empty() {
        result
    } else {
        result.map(|report| format!("{report}\n{}", notes.join("\n")))
    }
}

/// Writes folded stacks to `path` and returns the report line naming it.
fn write_profile(
    what: &str,
    path: &Path,
    stacks: &BTreeMap<String, u64>,
    unit: &str,
) -> Result<String, CliError> {
    std::fs::write(path, profile::to_folded(stacks))?;
    let total = stacks.values().fold(0u64, |sum, &w| sum.saturating_add(w));
    Ok(format!(
        "{what} written to {} ({} stacks, {total} {unit})",
        path.display(),
        stacks.len()
    ))
}

fn dispatch(args: &ParsedArgs) -> Result<String, CliError> {
    match args.command.as_str() {
        "generate" => cmd_generate(args),
        "stats" => cmd_stats(args),
        "encode" => cmd_encode(args),
        "match" => cmd_match(args),
        "eval" => cmd_eval(args),
        "serve" => cmd_serve(args),
        "trace" => cmd_trace(args),
        "help" | "--help" => Ok(USAGE.to_owned()),
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

fn preset_spec(
    name: &str,
    scale: f64,
    seed: Option<u64>,
) -> Result<entmatcher_data::PairSpec, CliError> {
    let mut spec = match name {
        "D-Z" | "D-J" | "D-F" => benchmarks::dbp15k(name, scale),
        "S-F" | "S-D" | "S-W" | "S-Y" => benchmarks::srprs(name, scale),
        "D-W" | "D-Y" => benchmarks::dwy100k(name, scale),
        "DBP+" => benchmarks::dbp15k_plus("D-Z", scale),
        "FB-DBP" => benchmarks::fb_dbp_mul(scale),
        other => {
            return Err(CliError::Usage(format!(
                "unknown preset {other:?} (see `entmatcher --help`)"
            )))
        }
    };
    if let Some(s) = seed {
        spec.seed = s;
    }
    Ok(spec)
}

fn cmd_generate(args: &ParsedArgs) -> Result<String, CliError> {
    let preset = args.require("preset")?;
    let scale = args.get_f64("scale", 0.1)?;
    let seed = args
        .get("seed")
        .map(|_| args.get_u64("seed", 0))
        .transpose()?;
    let out = Path::new(args.require("out")?);
    let spec = preset_spec(preset, scale, seed)?;
    let pair = entmatcher_data::generate_pair(&spec);
    save_pair_dir(out, &pair)?;
    // Persist the spec so encode/match can re-derive the same splits.
    let spec_json = entmatcher_support::json::to_string_pretty(&spec);
    std::fs::write(out.join("spec.json"), spec_json)?;
    let stats = pair.stats();
    Ok(format!(
        "generated {preset} at scale {scale} -> {}\n{}\n{}",
        out.display(),
        DatasetStats::header(),
        stats.to_row()
    ))
}

/// Loads a dataset directory, using the persisted spec's seed when present
/// so splits match the generation run.
fn load_data(dir: &Path) -> Result<KgPair, CliError> {
    let seed = match std::fs::read_to_string(dir.join("spec.json")) {
        Ok(text) => entmatcher_support::json::from_str::<entmatcher_data::PairSpec>(&text)
            .map(|s| s.seed)
            .unwrap_or(0),
        Err(_) => 0,
    };
    Ok(load_pair_dir(dir, seed)?)
}

fn cmd_stats(args: &ParsedArgs) -> Result<String, CliError> {
    let dir = Path::new(args.require("data")?);
    let pair = load_data(dir)?;
    let stats = pair.stats();
    let src_profile = degree_profile(&pair.source);
    let tgt_profile = degree_profile(&pair.target);
    Ok(format!(
        "{}\n{}\n\nsource KG: mean deg {:.2}, median {:.1}, max {}, Gini {:.3}, deg<=2 share {:.2}\n\
         target KG: mean deg {:.2}, median {:.1}, max {}, Gini {:.3}, deg<=2 share {:.2}",
        DatasetStats::header(),
        stats.to_row(),
        src_profile.mean,
        src_profile.median,
        src_profile.max,
        src_profile.gini,
        src_profile.low_degree_share,
        tgt_profile.mean,
        tgt_profile.median,
        tgt_profile.max,
        tgt_profile.gini,
        tgt_profile.low_degree_share,
    ))
}

fn build_encoder(name: &str, seed: u64) -> Result<Box<dyn Encoder>, CliError> {
    Ok(match name {
        "gcn" => Box::new(entmatcher_embed::GcnEncoder {
            seed,
            ..Default::default()
        }),
        "rrea" => Box::new(entmatcher_embed::RreaEncoder {
            seed,
            ..Default::default()
        }),
        "transe" => Box::new(entmatcher_embed::TransEEncoder {
            seed,
            ..Default::default()
        }),
        "name" => Box::new(entmatcher_embed::NameEncoder::default()),
        other => {
            return Err(CliError::Usage(format!(
                "unknown encoder {other:?} (gcn|rrea|transe|name|fused)"
            )))
        }
    })
}

fn cmd_encode(args: &ParsedArgs) -> Result<String, CliError> {
    let dir = Path::new(args.require("data")?);
    let encoder_name = args.require("encoder")?;
    let seed = args.get_u64("seed", 17)?;
    let out = Path::new(args.require("out")?);
    let pair = load_data(dir)?;
    // Parent span for the encoder's per-epoch/per-layer spans.
    let _encode_span = telemetry::span("encode");
    let emb = if encoder_name == "fused" {
        let names = entmatcher_embed::NameEncoder::default().encode(&pair);
        let structure = entmatcher_embed::RreaEncoder {
            seed,
            ..Default::default()
        }
        .encode(&pair);
        fuse(&names, &structure, 0.6)
    } else {
        build_encoder(encoder_name, seed)?.encode(&pair)
    };
    std::fs::create_dir_all(out)?;
    std::fs::write(out.join("source.emb"), snapshot::to_bytes(&emb.source))?;
    std::fs::write(out.join("target.emb"), snapshot::to_bytes(&emb.target))?;
    Ok(format!(
        "encoded {} + {} entities into {}-dim space ({encoder_name}) -> {}",
        emb.source.rows(),
        emb.target.rows(),
        emb.dim(),
        out.display()
    ))
}

/// Loads the embedding snapshots. `stream_chunk > 0` switches to the
/// buffered chunk-at-a-time reader: the file is never resident as one
/// byte blob, so transient auxiliary memory is O(chunk · d) instead of
/// O(file) on top of the destination matrix.
fn load_embeddings(dir: &Path, stream_chunk: usize) -> Result<UnifiedEmbeddings, CliError> {
    let read = |name: &str| -> Result<entmatcher_linalg::Matrix, CliError> {
        if stream_chunk > 0 {
            snapshot::read_file_chunked(&dir.join(name), stream_chunk)
                .map_err(|e| CliError::Failed(format!("{name}: {e}")))
        } else {
            let bytes = std::fs::read(dir.join(name))?;
            snapshot::from_bytes(&bytes).map_err(|e| CliError::Failed(format!("{name}: {e}")))
        }
    };
    let emb = UnifiedEmbeddings {
        source: read("source.emb")?,
        target: read("target.emb")?,
    };
    emb.assert_consistent();
    Ok(emb)
}

fn algorithm_preset(name: &str) -> Result<AlgorithmPreset, CliError> {
    Ok(match name {
        "dinf" => AlgorithmPreset::DInf,
        "csls" => AlgorithmPreset::Csls,
        "rinf" => AlgorithmPreset::RInf,
        "rinf-wr" => AlgorithmPreset::RInfWr,
        "rinf-pb" => AlgorithmPreset::RInfPb,
        "sinkhorn" => AlgorithmPreset::Sinkhorn,
        "hungarian" => AlgorithmPreset::Hungarian,
        "smat" => AlgorithmPreset::StableMarriage,
        "rl" => AlgorithmPreset::Rl,
        other => {
            return Err(CliError::Usage(format!(
                "unknown algorithm {other:?} (see `entmatcher --help`)"
            )))
        }
    })
}

/// Parses `--precision` (default f32).
fn parse_precision(args: &ParsedArgs) -> Result<Precision, CliError> {
    match args.get("precision") {
        None => Ok(Precision::F32),
        Some(name) => Precision::parse(name).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown precision {name:?}: expected f32, f16 or int8"
            ))
        }),
    }
}

/// Parses `--stream-chunk` (0 = load resident, the default).
fn parse_stream_chunk(args: &ParsedArgs) -> Result<usize, CliError> {
    let stream_chunk = args.get_u64("stream-chunk", 0)? as usize;
    if args.get("stream-chunk").is_some() && stream_chunk == 0 {
        return Err(CliError::Usage(
            "--stream-chunk must be a positive row count".to_owned(),
        ));
    }
    Ok(stream_chunk)
}

/// Parses `--candidates exact|ivf` with its `--nlist`/`--nprobe` knobs,
/// shared by `match` and `serve`: `None` scores every pair, `Some` builds
/// an IVF index.
fn parse_candidates(args: &ParsedArgs) -> Result<Option<IvfParams>, CliError> {
    match args.get("candidates").unwrap_or("exact") {
        "exact" => Ok(None),
        "ivf" => Ok(Some(IvfParams {
            nlist: args.get_u64("nlist", 0)? as usize,
            nprobe: args.get_u64("nprobe", 0)? as usize,
            ..IvfParams::default()
        })),
        other => Err(CliError::Usage(format!(
            "unknown candidate strategy {other:?}: expected exact or ivf"
        ))),
    }
}

fn cmd_match(args: &ParsedArgs) -> Result<String, CliError> {
    let dir = Path::new(args.require("data")?);
    let emb_dir = Path::new(args.require("embeddings")?);
    let algorithm = algorithm_preset(args.require("algorithm")?)?;
    let out = Path::new(args.require("out")?);
    // Validate the candidate strategy, precision, and stream-chunk before
    // any I/O: a typo'd flag should be a usage error, not a mid-run
    // failure after loading the dataset.
    let shortlist_k = args.get_u64("shortlist", 32)?.max(1) as usize;
    let precision = parse_precision(args)?;
    let stream_chunk = parse_stream_chunk(args)?;
    let candidates = parse_candidates(args)?;
    let pair = load_data(dir)?;
    let emb = load_embeddings(emb_dir, stream_chunk)?;
    if emb.source.rows() != pair.source.num_entities() {
        return Err(CliError::Failed(format!(
            "embeddings cover {} source entities but the dataset has {}",
            emb.source.rows(),
            pair.source.num_entities()
        )));
    }
    let task = MatchTask::from_pair(&pair);
    let (src, tgt) = task.candidate_embeddings(&emb);
    let ctx: MatchContext = task.context(&pair);
    let mut pipeline = algorithm.build().with_precision(precision);
    if args.has_flag("dummies") {
        pipeline = pipeline.with_dummies();
    }
    if let Some(params) = candidates {
        pipeline = pipeline.with_candidates(params, shortlist_k);
    }
    let report = pipeline.execute(&src, &tgt, &ctx);
    let links = task.matching_to_links(&report.matching);
    let mut file = std::io::BufWriter::new(std::fs::File::create(out)?);
    for l in &links {
        let u = pair.source.entity_name(l.source).unwrap_or("<?>");
        let v = pair.target.entity_name(l.target).unwrap_or("<?>");
        writeln!(file, "{u}\t{v}")?;
    }
    file.flush()?;
    // With ENTMATCHER_MEM counting on, the pipeline span measured its real
    // peak; print it next to the model so the two are easy to compare.
    let measured = if report.measured_heap_peak_bytes > 0 {
        format!(
            ", measured peak {:.1} MB",
            report.measured_heap_peak_bytes as f64 / 1e6
        )
    } else {
        String::new()
    };
    let algo_label = match precision {
        Precision::F32 => algorithm.name().to_string(),
        p => format!("{}@{}", algorithm.name(), p.name()),
    };
    Ok(format!(
        "matched {} of {} candidates with {algo_label} in {:.2}s (~{:.1} MB aux{measured}) -> {}",
        report.matching.matched_count(),
        task.num_sources(),
        report.elapsed.as_secs_f64(),
        report.peak_aux_bytes as f64 / 1e6,
        out.display()
    ))
}

/// `entmatcher serve`: an observability-first online matching service.
///
/// Loads an embedding snapshot into a warm [`MatchService`] (packed at
/// `--precision`, optionally behind an IVF index with `--candidates ivf`)
/// and serves its `POST /match/topk` route on the `support::http`
/// transport next to the exposition's `GET /metrics` and `GET /healthz`
/// and this command's `POST /shutdown`, so one scrape target covers
/// queries and their SLO metrics. Concurrent requests coalesce in the
/// service's batching queue into single fused-GEMM passes; a bounded LRU
/// cache (`--cache`) short-circuits repeats.
///
/// Connections are persistent (HTTP keep-alive) and served by the
/// transport's worker pool; `--max-conns` caps open connections at the
/// listener (503 fast-fail beyond it) and `--max-inflight` caps
/// concurrently-admitted requests in the service (429 + `Retry-After`).
///
/// Observability wiring:
/// - with `--trace FILE`, every request records a `serve.request` span
///   tree tagged with its `req_id` (exported by the surrounding
///   [`run_command`] after `POST /shutdown` ends the command);
/// - the transport times every answered request into a
///   `request_seconds{endpoint="..."}` histogram, rendered on `/metrics`
///   as the `entmatcher_request_seconds` family next to the service's
///   `serve.*` gauges and counters;
/// - `ENTMATCHER_SLOW_MS=N` logs requests slower than N ms as one JSON
///   line on stderr (`0`/empty disables, the shared convention).
///
/// The command blocks until `POST /shutdown` (so `--trace` snapshots a
/// complete run) and prints the bound address to stderr at startup
/// (`--addr`, port 0 picks an ephemeral port).
///
/// [`MatchService`]: entmatcher_core::MatchService
fn cmd_serve(args: &ParsedArgs) -> Result<String, CliError> {
    use entmatcher_core::{MatchService, ServeConfig, TargetIndex};
    use entmatcher_support::http::{Response, Routes, Server, ServerConfig};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    let emb_dir = Path::new(args.require("embeddings")?);
    let addr = args.get("addr").unwrap_or("127.0.0.1:0").to_owned();
    let precision = parse_precision(args)?;
    let stream_chunk = parse_stream_chunk(args)?;
    let ivf = parse_candidates(args)?;
    let use_ivf = ivf.is_some();
    let cfg = ServeConfig {
        precision,
        ivf,
        nprobe: args.get_u64("nprobe", 0)? as usize,
        cache_capacity: args.get_u64("cache", 1024)? as usize,
        batch_max: args.get_u64("batch-max", 64)?.max(1) as usize,
        batch_wait: Duration::from_micros(args.get_u64("batch-wait-us", 500)?),
        k_max: args.get_u64("k-max", 1024)?.max(1) as usize,
        max_inflight: args.get_u64("max-inflight", 256)? as usize,
        slow_ms: entmatcher_core::serve::env_slow_ms(),
        record_spans: args.get("trace").is_some(),
    };
    let max_conns = args.get_u64("max-conns", 256)?.max(1) as usize;
    let server_cfg = ServerConfig {
        max_conns,
        workers: max_conns.min(16),
        ..ServerConfig::default()
    };

    let mut emb = load_embeddings(emb_dir, stream_chunk)?;
    // The service scores raw dot products (the `linalg::fused`
    // convention); normalizing both sides once at load time makes every
    // served score a cosine similarity.
    entmatcher_linalg::normalize_rows_l2(&mut emb.source);
    entmatcher_linalg::normalize_rows_l2(&mut emb.target);
    let (n_source, n_targets, dim) = (emb.source.rows(), emb.target.rows(), emb.dim());

    // Serving *is* the observability surface: counters, gauges, and the
    // request_seconds histograms must land on /metrics even without
    // --trace (which additionally turns on per-request span trees).
    telemetry::set_enabled(true);
    let service = MatchService::start(emb.source, TargetIndex::Matrix(emb.target), cfg)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let service = Arc::new(service);

    let shutdown = Arc::new((Mutex::new(false), Condvar::new()));
    let stop_route = {
        let shutdown = Arc::clone(&shutdown);
        Routes::route("POST", "/shutdown", move |_| {
            let (flag, cv) = &*shutdown;
            *flag.lock().expect("shutdown lock poisoned") = true;
            cv.notify_all();
            Response::text("200 OK", "shutting down\n")
        })
    };
    let registry = telemetry::current();
    let routes = telemetry::expose::routes(registry)
        .with(service.routes())
        .with(stop_route);
    let server = Server::bind(registry, &addr, server_cfg, routes)
        .map_err(|e| CliError::Failed(format!("serve --addr {addr}: {e}")))?;
    let bound = server.addr();
    eprintln!(
        "serve: listening http://{bound} ({n_source} source x {n_targets} target rows, dim {dim}, \
         {}{})",
        precision.name(),
        if use_ivf { ", ivf" } else { "" }
    );

    // Block until POST /shutdown; run_command then writes the --trace
    // export, so the trace covers the whole serving window.
    {
        let (flag, cv) = &*shutdown;
        let mut done = flag.lock().expect("shutdown lock poisoned");
        while !*done {
            done = cv.wait(done).expect("shutdown lock poisoned");
        }
    }
    // Server first: its shutdown drains every in-flight connection worker
    // (the /shutdown response included), so all requests finish — and
    // record complete span trees — before the batch worker is stopped.
    server.shutdown();
    service.stop();
    Ok(format!(
        "serve: shut down http://{bound} ({} cached top-k entries)",
        service.cache_len()
    ))
}

fn cmd_trace(args: &ParsedArgs) -> Result<String, CliError> {
    let path = Path::new(args.require("file")?);
    let text = std::fs::read_to_string(path)?;
    let trace: telemetry::Trace = entmatcher_support::json::from_str(&text)
        .map_err(|e| CliError::Failed(format!("{}: {e}", path.display())))?;
    // `--chrome OUT.json` converts a native trace into Chrome trace_event
    // JSON for ui.perfetto.dev / chrome://tracing instead of rendering.
    if let Some(out) = args.get("chrome") {
        let out = Path::new(out);
        std::fs::write(out, telemetry::chrome::to_chrome_string(&trace))?;
        return Ok(format!(
            "converted {} ({} spans, {} counters) -> {} (chrome trace_event)",
            path.display(),
            trace.spans.len(),
            trace.counters.len(),
            out.display()
        ));
    }
    Ok(trace.render())
}

fn cmd_eval(args: &ParsedArgs) -> Result<String, CliError> {
    let dir = Path::new(args.require("data")?);
    let pairs_path = Path::new(args.require("pairs")?);
    let pair = load_data(dir)?;
    let task = MatchTask::from_pair(&pair);
    // Parse predicted pairs (entity symbols).
    let text = std::fs::read_to_string(pairs_path)?;
    let mut links = Vec::new();
    for (no, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split('\t');
        let (Some(u), Some(v)) = (parts.next(), parts.next()) else {
            return Err(CliError::Failed(format!(
                "{}:{}: expected source\\ttarget",
                pairs_path.display(),
                no + 1
            )));
        };
        let su = pair
            .source
            .entity_id(u)
            .ok_or_else(|| CliError::Failed(format!("unknown source entity {u:?}")))?;
        let tv = pair
            .target
            .entity_id(v)
            .ok_or_else(|| CliError::Failed(format!("unknown target entity {v:?}")))?;
        links.push(Link::new(su, tv));
    }
    let scores = evaluate_links(&links, &task.gold);
    Ok(format!(
        "predictions: {}  correct: {}  gold: {}\nprecision = {:.4}\nrecall    = {:.4}\nF1        = {:.4}",
        scores.predicted, scores.correct, scores.gold, scores.precision, scores.recall, scores.f1
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_args;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn run(parts: &[&str]) -> Result<String, CliError> {
        crate::run(&argv(parts))
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("entmatcher-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn full_workflow_generate_encode_match_eval() {
        let root = temp_dir("flow");
        let data = root.join("data");
        let emb = root.join("emb");
        let pairs = root.join("pairs.tsv");

        let out = run(&[
            "generate",
            "--preset",
            "S-W",
            "--scale",
            "0.02",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("generated S-W"));
        assert!(data.join("triples_1").exists());
        assert!(data.join("spec.json").exists());

        let out = run(&["stats", "--data", data.to_str().unwrap()]).unwrap();
        assert!(out.contains("Gini"));

        let out = run(&[
            "encode",
            "--data",
            data.to_str().unwrap(),
            "--encoder",
            "rrea",
            "--out",
            emb.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("encoded"));
        assert!(emb.join("source.emb").exists());

        let out = run(&[
            "match",
            "--data",
            data.to_str().unwrap(),
            "--embeddings",
            emb.to_str().unwrap(),
            "--algorithm",
            "csls",
            "--out",
            pairs.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("matched"));

        let out = run(&[
            "eval",
            "--data",
            data.to_str().unwrap(),
            "--pairs",
            pairs.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("F1"), "eval output: {out}");
        // Mono-lingual S-W with names unused but RREA structure: expect a
        // sane F1 (the splits are re-derived from spec.json, so gold test
        // links line up with the matcher's candidates).
        let f1: f64 = out
            .lines()
            .find(|l| l.starts_with("F1"))
            .and_then(|l| l.split('=').nth(1))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(f1 > 0.1, "workflow F1 too low: {f1}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn trace_flag_exports_pipeline_spans_and_renders() {
        let root = temp_dir("trace");
        let data = root.join("data");
        let emb = root.join("emb");
        let pairs = root.join("pairs.tsv");
        let trace_file = root.join("trace.json");
        run(&[
            "generate",
            "--preset",
            "S-W",
            "--scale",
            "0.02",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        run(&[
            "encode",
            "--data",
            data.to_str().unwrap(),
            "--encoder",
            "name",
            "--out",
            emb.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&[
            "match",
            "--data",
            data.to_str().unwrap(),
            "--embeddings",
            emb.to_str().unwrap(),
            "--algorithm",
            "csls",
            "--trace",
            trace_file.to_str().unwrap(),
            "--out",
            pairs.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("trace written to"));

        // The exported file is a parseable trace whose pipeline span has
        // the three stage children.
        let text = std::fs::read_to_string(&trace_file).unwrap();
        let trace: telemetry::Trace = entmatcher_support::json::from_str(&text).unwrap();
        let pipeline = trace.span("pipeline").expect("pipeline span");
        let children = trace.children(pipeline.id);
        for stage in ["similarity", "optimize", "match"] {
            assert!(
                children.iter().any(|s| s.name == stage),
                "missing {stage} span"
            );
        }
        assert!(trace.counter("csls.neighborhoods").unwrap_or(0) > 0);

        // The similarity product is large enough to take the blocked GEMM
        // path, so the kernel counters must surface in the exported trace.
        assert!(
            trace.counter("gemm.dispatch.blocked").unwrap_or(0) > 0,
            "blocked-GEMM dispatch counter missing from trace"
        );
        assert!(trace.counter("gemm.packed_bytes").unwrap_or(0) > 0);
        assert!(trace.counter("gemm.tiles").unwrap_or(0) > 0);

        // `trace --file` renders the tree.
        let rendered = run(&["trace", "--file", trace_file.to_str().unwrap()]).unwrap();
        assert!(rendered.contains("pipeline"), "render: {rendered}");
        assert!(rendered.contains("similarity"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn ivf_candidates_match_quality_and_trace_probe_spans() {
        let root = temp_dir("ivf");
        let data = root.join("data");
        let emb = root.join("emb");
        run(&[
            "generate",
            "--preset",
            "S-W",
            "--scale",
            "0.02",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        run(&[
            "encode",
            "--data",
            data.to_str().unwrap(),
            "--encoder",
            "name",
            "--out",
            emb.to_str().unwrap(),
        ])
        .unwrap();

        let eval_f1 = |pairs: &std::path::Path| -> f64 {
            let out = run(&[
                "eval",
                "--data",
                data.to_str().unwrap(),
                "--pairs",
                pairs.to_str().unwrap(),
            ])
            .unwrap();
            out.lines()
                .find(|l| l.starts_with("F1"))
                .and_then(|l| l.split('=').nth(1))
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        };

        // Exact baseline.
        let exact_pairs = root.join("exact.tsv");
        run(&[
            "match",
            "--data",
            data.to_str().unwrap(),
            "--embeddings",
            emb.to_str().unwrap(),
            "--algorithm",
            "csls",
            "--out",
            exact_pairs.to_str().unwrap(),
        ])
        .unwrap();
        let exact_f1 = eval_f1(&exact_pairs);

        // Same match through the IVF candidate path, traced.
        let ivf_pairs = root.join("ivf.tsv");
        let trace_file = root.join("ivf-trace.json");
        run(&[
            "match",
            "--data",
            data.to_str().unwrap(),
            "--embeddings",
            emb.to_str().unwrap(),
            "--algorithm",
            "csls",
            "--candidates",
            "ivf",
            "--nprobe",
            "8",
            "--trace",
            trace_file.to_str().unwrap(),
            "--out",
            ivf_pairs.to_str().unwrap(),
        ])
        .unwrap();
        let ivf_f1 = eval_f1(&ivf_pairs);
        assert!(
            (exact_f1 - ivf_f1).abs() <= 0.05,
            "ivf F1 {ivf_f1:.4} drifted more than 0.05 from exact {exact_f1:.4}"
        );

        // The trace must carry the ANN spans and candidate counters under
        // the similarity stage.
        let text = std::fs::read_to_string(&trace_file).unwrap();
        let trace: telemetry::Trace = entmatcher_support::json::from_str(&text).unwrap();
        let sim = trace.span("similarity").expect("similarity span");
        let kids = trace.children(sim.id);
        assert!(
            kids.iter().any(|s| s.name == "ann.train"),
            "ann.train span missing under similarity"
        );
        assert!(
            kids.iter().any(|s| s.name == "ann.probe"),
            "ann.probe span missing under similarity"
        );
        assert!(trace.counter("ann.probed_lists").unwrap_or(0) > 0);
        assert!(trace.counter("ann.candidates").unwrap_or(0) > 0);
        assert!(trace.counter("pipeline.shortlist.candidates").unwrap_or(0) > 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn quantized_precisions_keep_f1_and_trace_pack_spans() {
        let root = temp_dir("quant");
        let data = root.join("data");
        let emb = root.join("emb");
        run(&[
            "generate",
            "--preset",
            "S-W",
            "--scale",
            "0.02",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        run(&[
            "encode",
            "--data",
            data.to_str().unwrap(),
            "--encoder",
            "name",
            "--out",
            emb.to_str().unwrap(),
        ])
        .unwrap();

        let eval_f1 = |pairs: &std::path::Path| -> f64 {
            let out = run(&[
                "eval",
                "--data",
                data.to_str().unwrap(),
                "--pairs",
                pairs.to_str().unwrap(),
            ])
            .unwrap();
            out.lines()
                .find(|l| l.starts_with("F1"))
                .and_then(|l| l.split('=').nth(1))
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        };
        let match_at = |precision: &str, trace: Option<&std::path::Path>| -> f64 {
            let pairs = root.join(format!("{precision}.tsv"));
            let mut argv = vec![
                "match".to_string(),
                "--data".to_string(),
                data.to_str().unwrap().to_string(),
                "--embeddings".to_string(),
                emb.to_str().unwrap().to_string(),
                "--algorithm".to_string(),
                "csls".to_string(),
                "--precision".to_string(),
                precision.to_string(),
                "--stream-chunk".to_string(),
                "64".to_string(),
                "--out".to_string(),
                pairs.to_str().unwrap().to_string(),
            ];
            if let Some(t) = trace {
                argv.push("--trace".to_string());
                argv.push(t.to_str().unwrap().to_string());
            }
            let report = crate::run(&argv).unwrap();
            if precision != "f32" {
                assert!(
                    report.contains(&format!("CSLS@{precision}")),
                    "report must carry the precision label: {report}"
                );
            }
            eval_f1(&pairs)
        };

        let f32_f1 = match_at("f32", None);
        let trace_file = root.join("int8-trace.json");
        let int8_f1 = match_at("int8", Some(&trace_file));
        let f16_f1 = match_at("f16", None);
        assert!(
            (f32_f1 - int8_f1).abs() <= 0.01,
            "int8 F1 {int8_f1:.4} drifted more than 0.01 from f32 {f32_f1:.4}"
        );
        assert!(
            (f32_f1 - f16_f1).abs() <= 0.01,
            "f16 F1 {f16_f1:.4} drifted more than 0.01 from f32 {f32_f1:.4}"
        );

        // The int8 trace must carry the quantize-pack span under the
        // similarity stage plus the byte counters.
        let text = std::fs::read_to_string(&trace_file).unwrap();
        let trace: telemetry::Trace = entmatcher_support::json::from_str(&text).unwrap();
        let sim = trace.span("similarity").expect("similarity span");
        assert!(
            trace.children(sim.id).iter().any(|s| s.name == "quant.pack"),
            "quant.pack span missing under similarity"
        );
        assert!(trace.counter("quant.packed_bytes").unwrap_or(0) > 0);
        assert!(trace.counter("quant.rows").unwrap_or(0) > 0);
        // --stream-chunk routed the snapshot loads through the chunked
        // reader (two files, several chunks each).
        assert!(trace.counter("snapshot.stream.chunks").unwrap_or(0) >= 2);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn bad_precision_and_stream_chunk_are_usage_errors() {
        let root = temp_dir("badquant");
        let base = [
            "match",
            "--data",
            root.to_str().unwrap(),
            "--embeddings",
            root.to_str().unwrap(),
            "--algorithm",
            "csls",
            "--out",
        ];
        let out = root.join("x.tsv");
        let mut with_precision: Vec<&str> = base.to_vec();
        let out_str = out.to_str().unwrap();
        with_precision.push(out_str);
        with_precision.extend(["--precision", "int4"]);
        let err = run(&with_precision).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(m) if m.contains("precision")),
            "unexpected error: {err}"
        );
        let mut with_chunk: Vec<&str> = base.to_vec();
        with_chunk.push(out_str);
        with_chunk.extend(["--stream-chunk", "0"]);
        let err = run(&with_chunk).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(m) if m.contains("stream-chunk")),
            "unexpected error: {err}"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn unknown_candidate_strategy_is_a_usage_error() {
        let root = temp_dir("badcand");
        let dir = root.to_str().unwrap();
        let out = root.join("x.tsv");
        for strategy in ["faiss", "lsh"] {
            let commands: [&[&str]; 2] = [
                &[
                    "match",
                    "--data",
                    dir,
                    "--algorithm",
                    "csls",
                    "--out",
                    out.to_str().unwrap(),
                ],
                &["serve"],
            ];
            for command in commands {
                let mut argv = command.to_vec();
                argv.extend(["--embeddings", dir, "--candidates", strategy]);
                let err = run(&argv).unwrap_err();
                assert!(
                    matches!(&err, CliError::Usage(m) if m.contains("candidate strategy")),
                    "{} --candidates {strategy}: unexpected error: {err}",
                    command[0]
                );
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn trace_chrome_flag_converts_native_traces() {
        use entmatcher_support::json::Json;
        let root = temp_dir("chrome");
        let native = root.join("native.json");
        let chrome = root.join("chrome.json");
        // Build a trace on a standalone registry so this test never touches
        // the global one other tests reset.
        let t = telemetry::Telemetry::new();
        t.set_enabled(true);
        {
            let _outer = t.span("pipeline");
            let _inner = t.span("similarity");
        }
        t.add("gemm.tiles", 7);
        std::fs::write(
            &native,
            entmatcher_support::json::to_string_pretty(&t.snapshot()),
        )
        .unwrap();

        let out = run(&[
            "trace",
            "--file",
            native.to_str().unwrap(),
            "--chrome",
            chrome.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("chrome trace_event"), "report: {out}");

        let doc = Json::parse(&std::fs::read_to_string(&chrome).unwrap()).unwrap();
        let events = doc["traceEvents"].as_array().expect("traceEvents");
        assert!(events
            .iter()
            .any(|e| e["ph"] == "X" && e["name"] == "pipeline"));
        assert!(events
            .iter()
            .any(|e| e["ph"] == "C" && e["name"] == "gemm.tiles"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn unknown_command_and_preset_are_usage_errors() {
        assert!(matches!(run(&["frobnicate"]), Err(CliError::Usage(_))));
        let root = temp_dir("badpreset");
        let res = run(&[
            "generate",
            "--preset",
            "X-X",
            "--out",
            root.join("d").to_str().unwrap(),
        ]);
        assert!(matches!(res, Err(CliError::Usage(_))));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn help_flag_prints_usage() {
        let out = run(&["help"]).unwrap();
        assert!(out.contains("entmatcher <command>"));
        let parsed = parse_args(&argv(&["generate", "--help"])).unwrap();
        assert!(run_command(&parsed).unwrap().contains("commands:"));
    }

    #[test]
    fn match_rejects_mismatched_embeddings() {
        let root = temp_dir("mismatch");
        let data = root.join("data");
        run(&[
            "generate",
            "--preset",
            "S-W",
            "--scale",
            "0.02",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        // Encode a DIFFERENT dataset and try to use its embeddings.
        let other = root.join("other");
        let emb = root.join("emb");
        run(&[
            "generate",
            "--preset",
            "S-Y",
            "--scale",
            "0.01",
            "--out",
            other.to_str().unwrap(),
        ])
        .unwrap();
        run(&[
            "encode",
            "--data",
            other.to_str().unwrap(),
            "--encoder",
            "name",
            "--out",
            emb.to_str().unwrap(),
        ])
        .unwrap();
        let res = run(&[
            "match",
            "--data",
            data.to_str().unwrap(),
            "--embeddings",
            emb.to_str().unwrap(),
            "--algorithm",
            "dinf",
            "--out",
            root.join("p.tsv").to_str().unwrap(),
        ]);
        assert!(
            matches!(res, Err(CliError::Failed(_))),
            "expected size mismatch error"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }
}
