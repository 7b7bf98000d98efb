//! Online matching service: a warm top-k index behind a batching queue,
//! instrumented end to end.
//!
//! This is the ROADMAP's "online matching service" item: the offline
//! pipeline's packed GEMM operand ([`PackedAny`], honoring `--precision`)
//! or IVF index (`--candidates ivf`) is loaded once and kept warm, and
//! concurrent top-k queries are answered over HTTP (the CLI's `entmatcher
//! serve` wires [`MatchService::handle_topk`] into the
//! `telemetry::expose` listener next to `/metrics` and `/healthz`).
//!
//! # Request coalescing
//!
//! Queries that miss the cache are enqueued and a single batch worker
//! drains the queue: it lingers up to [`ServeConfig::batch_wait`]
//! (bounded by [`ServeConfig::batch_max`] requests), stacks every pending
//! query row into one matrix, and runs **one** fused-GEMM
//! [`fused_topk_packed`] pass (or one IVF probe) for the whole batch —
//! the amortization that makes "millions of users" traffic look like the
//! offline blocked kernels the benches already measure. A bounded LRU
//! cache keyed by query content (`(entity id | row-bits hash, k)`) short-
//! circuits repeats entirely.
//!
//! Admission control bounds the inflight population: past
//! [`ServeConfig::max_inflight`] concurrent requests, new arrivals fail
//! fast with [`CoreError::Overloaded`] — the HTTP glue maps it to `429
//! Too Many Requests` plus a `Retry-After` hint — rather than growing
//! the batch queue without bound under overload.
//!
//! # Observability (the headline)
//!
//! Every request gets a process-unique `req_id`, returned in the response
//! and stamped on a root `serve.request` span ([`SpanRecord::req`], wire
//! v4) whose children reconstruct the request's path through the service:
//!
//! ```text
//! serve.request            (conn thread; req = req_id)
//! ├─ serve.cache           (conn thread: lookup + fill)
//! ├─ serve.queue           (recorded by the worker: enqueue → pickup)
//! └─ serve.batch           (worker: assembly + split, heap-attributed)
//!    └─ serve.probe        (worker: the fused top-k / IVF pass)
//! ```
//!
//! The queue/batch/probe children are measured on the batch worker and
//! attached across threads via [`Telemetry::record_span`]; cache hits
//! never produce a `serve.probe`. Span recording follows
//! [`ServeConfig::record_spans`] (the CLI sets it from `--trace`) so a
//! long-lived metrics-only server does not accumulate unbounded span
//! records; counters, gauges, and histograms (bounded cardinality) are
//! always recorded:
//!
//! - counters `serve.requests`, `serve.batches`, `serve.batched_requests`,
//!   `serve.cache.hits`, `serve.cache.misses`, and `serve.rejected`
//!   (admission fast-fails);
//! - gauges `serve.queue_depth`, `serve.inflight`,
//!   `serve.cache_hit_ratio`;
//! - histograms `serve.batch_size` and the per-endpoint
//!   `request_seconds{endpoint="..."}` families observed by the CLI's
//!   HTTP glue.
//!
//! Requests slower than `ENTMATCHER_SLOW_MS` emit their measured span
//! subtree as one JSON line on stderr ([`slow_query_line`]), whether or
//! not span recording is on.
//!
//! [`SpanRecord::req`]: entmatcher_support::telemetry::SpanRecord
//! [`Telemetry::record_span`]: entmatcher_support::telemetry::Telemetry::record_span

use crate::ann::{IvfIndex, IvfParams};
use crate::error::CoreError;
use crate::Result;
use entmatcher_linalg::{fused_topk_packed, Matrix, PackedAny, Precision};
use entmatcher_support::json::{Json, Map};
use entmatcher_support::telemetry::{self, Telemetry};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Environment variable: requests slower than this many milliseconds emit
/// a structured slow-query JSON line on stderr. Unset, empty, whitespace,
/// or `0` disables (the shared `ENTMATCHER_*` convention).
pub const ENV_SLOW_MS: &str = "ENTMATCHER_SLOW_MS";

/// The `ENTMATCHER_SLOW_MS` setting, normalized per the `0`-disables
/// convention.
pub fn env_slow_ms() -> Option<u64> {
    let v = std::env::var(ENV_SLOW_MS).ok()?;
    match v.trim().parse::<u64>() {
        Ok(0) | Err(_) => None,
        Ok(ms) => Some(ms),
    }
}

/// Tuning knobs for [`MatchService::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Storage precision for the packed target operand.
    pub precision: Precision,
    /// `Some` routes probes through an IVF index built at startup
    /// (requires an in-memory target matrix); `None` scans the packed
    /// operand exactly.
    pub ivf: Option<IvfParams>,
    /// Probe width for IVF serving; `0` uses the index default.
    pub nprobe: usize,
    /// LRU query-cache capacity in entries; `0` disables caching.
    pub cache_capacity: usize,
    /// Maximum requests coalesced into one batch pass.
    pub batch_max: usize,
    /// How long the batch worker lingers for more requests after picking
    /// up the first one.
    pub batch_wait: Duration,
    /// Upper bound on per-request `k` (clamped, not rejected).
    pub k_max: usize,
    /// Admission control: maximum concurrently-inflight requests before
    /// new arrivals fast-fail with [`CoreError::Overloaded`] (HTTP 429 +
    /// `Retry-After`) instead of growing the batch queue without bound.
    /// `0` disables the limit.
    pub max_inflight: usize,
    /// Requests slower than this emit a slow-query JSON line on stderr.
    pub slow_ms: Option<u64>,
    /// Whether to record per-request span trees into the telemetry
    /// registry. Span records grow without bound on a long-lived server,
    /// so this follows `--trace` rather than the metrics switch.
    pub record_spans: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            precision: Precision::F32,
            ivf: None,
            nprobe: 0,
            cache_capacity: 1024,
            batch_max: 64,
            batch_wait: Duration::from_micros(500),
            k_max: 1024,
            max_inflight: 0,
            slow_ms: env_slow_ms(),
            record_spans: false,
        }
    }
}

/// A top-k query: either entity ids resolved against the loaded source
/// embeddings, or raw query rows (one per row of the matrix).
#[derive(Debug, Clone)]
pub enum Query {
    /// Source-entity ids; each resolves to its loaded embedding row.
    Ids(Vec<u32>),
    /// Raw query rows (must match the index dimensionality).
    Rows(Matrix),
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct TopKResult {
    /// Process-unique request id (also the span tree's request lane).
    pub req_id: u64,
    /// Per-query-row `(target_id, score)` pairs, best first.
    pub results: Vec<Vec<(u32, f32)>>,
    /// Per-query-row cache outcome.
    pub cached: Vec<bool>,
    /// Number of requests coalesced into the batch that served the miss
    /// rows (0 when every row was a cache hit).
    pub batch_size: usize,
    /// End-to-end wall time.
    pub elapsed: Duration,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CacheKey {
    Id(u32, usize),
    Row(u64, usize),
}

/// Bounded LRU: `map` holds the entries, `order` maps a monotone
/// recency tick to its key, so eviction and touch are both O(log n).
struct LruCache {
    cap: usize,
    tick: u64,
    map: HashMap<CacheKey, (Vec<(u32, f32)>, u64)>,
    order: BTreeMap<u64, CacheKey>,
}

impl LruCache {
    fn new(cap: usize) -> LruCache {
        LruCache {
            cap,
            tick: 0,
            map: HashMap::new(),
            order: BTreeMap::new(),
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<Vec<(u32, f32)>> {
        if self.cap == 0 {
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        let (value, old) = self.map.get_mut(key)?;
        let prev = std::mem::replace(old, tick);
        self.order.remove(&prev);
        self.order.insert(tick, *key);
        Some(value.clone())
    }

    fn put(&mut self, key: CacheKey, value: Vec<(u32, f32)>) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some((_, old)) = self.map.insert(key, (value, tick)) {
            self.order.remove(&old);
        }
        self.order.insert(tick, key);
        while self.map.len() > self.cap {
            let (_, evicted) = self.order.pop_first().expect("order tracks map");
            self.map.remove(&evicted);
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// FNV-1a over the row's f32 bit patterns — the content key for raw-row
/// cache entries.
fn row_hash(row: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &v in row {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// One queued cache-miss request, waiting for the batch worker.
struct Pending {
    req_id: u64,
    root: Option<u64>,
    enqueue_ns: u64,
    rows: Matrix,
    k: usize,
    tx: mpsc::Sender<BatchReply>,
}

/// What the worker sends back per request: the miss rows' results plus
/// the measured stage timings the slow-query log reports.
struct BatchReply {
    results: Vec<Vec<(u32, f32)>>,
    batch_size: usize,
    queue_ns: u64,
    batch_ns: u64,
    probe_ns: u64,
}

struct Inner {
    cfg: ServeConfig,
    source: Matrix,
    /// Exact-scan operand; `None` when IVF owns the row storage.
    packed: Option<PackedAny>,
    ivf: Option<IvfIndex>,
    n_targets: usize,
    dim: usize,
    queue: Mutex<VecDeque<Pending>>,
    available: Condvar,
    stop: AtomicBool,
    next_req: AtomicU64,
    cache: Mutex<LruCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    inflight: AtomicU64,
}

/// The target side of the index: a resident matrix (required for IVF) or
/// an already-packed operand (exact probes only), e.g. a snapshot
/// streamed through `pack_snapshot_stream` by an embedding application.
/// The CLI always builds [`TargetIndex::Matrix`]; its `--stream-chunk`
/// only bounds memory while the snapshots load.
pub enum TargetIndex {
    /// Resident target embeddings, packed at startup.
    Matrix(Matrix),
    /// A pre-packed operand (e.g. from `pack_snapshot_stream`) plus its
    /// row count.
    Packed {
        /// The packed GEMM operand.
        packed: PackedAny,
        /// Number of target rows the operand covers.
        rows: usize,
        /// Operand dimensionality.
        dim: usize,
    },
}

/// A running matching service: a warm index, a batch worker, and an LRU
/// cache. See the module docs for the observability contract.
pub struct MatchService {
    inner: Arc<Inner>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl MatchService {
    /// Builds the index and starts the batch worker. `source` rows answer
    /// id-queries; scores are raw dot products against `target` (L2-
    /// normalize both sides first for cosine, as everywhere in `linalg`).
    pub fn start(source: Matrix, target: TargetIndex, cfg: ServeConfig) -> Result<MatchService> {
        let dim = source.cols();
        let (packed, n_targets, target_dim) = match target {
            TargetIndex::Matrix(m) => {
                let (rows, cols) = (m.rows(), m.cols());
                // IVF owns the row storage in its posting lists; packing
                // an exact operand next to it would double memory.
                let packed = if cfg.ivf.is_some() {
                    None
                } else {
                    Some(PackedAny::pack(&m, cfg.precision))
                };
                let ivf = cfg.ivf.map(|mut params| {
                    params.precision = cfg.precision;
                    IvfIndex::build(&m, &params)
                });
                return Self::finish_start(source, packed, ivf, rows, cols, dim, cfg);
            }
            TargetIndex::Packed { packed, rows, dim } => (packed, rows, dim),
        };
        if cfg.ivf.is_some() {
            return Err(CoreError::BadParameter {
                name: "candidates",
                constraint: "ivf serving requires a resident target matrix (no --stream-chunk)",
            });
        }
        Self::finish_start(source, Some(packed), None, n_targets, target_dim, dim, cfg)
    }

    fn finish_start(
        source: Matrix,
        packed: Option<PackedAny>,
        ivf: Option<IvfIndex>,
        n_targets: usize,
        target_dim: usize,
        dim: usize,
        cfg: ServeConfig,
    ) -> Result<MatchService> {
        if dim != target_dim {
            return Err(CoreError::DimMismatch {
                source: dim,
                target: target_dim,
            });
        }
        if n_targets == 0 {
            return Err(CoreError::BadParameter {
                name: "target",
                constraint: "must have at least one row",
            });
        }
        let cache_capacity = cfg.cache_capacity;
        let inner = Arc::new(Inner {
            cfg,
            source,
            packed,
            ivf,
            n_targets,
            dim,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
            next_req: AtomicU64::new(0),
            cache: Mutex::new(LruCache::new(cache_capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
        });
        let worker = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("serve-batch".into())
                .spawn(move || worker_loop(&inner))
                .expect("spawn batch worker")
        };
        Ok(MatchService {
            inner,
            worker: Mutex::new(Some(worker)),
        })
    }

    /// Number of loaded source rows (the id-query namespace).
    pub fn n_source(&self) -> usize {
        self.inner.source.rows()
    }

    /// Number of indexed target rows.
    pub fn n_targets(&self) -> usize {
        self.inner.n_targets
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.inner.dim
    }

    /// Answers one top-k request. Blocks until the batch worker serves
    /// the cache-miss rows (if any). Thread-safe; concurrent callers are
    /// what the batching queue coalesces.
    pub fn top_k(&self, query: &Query, k: usize) -> Result<TopKResult> {
        let inner = &self.inner;
        let t = telemetry::global();
        let req_id = inner.next_req.fetch_add(1, Ordering::Relaxed) + 1;
        let started = Instant::now();
        let inflight = inner.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        t.set_gauge("serve.inflight", inflight as f64);
        // Admission control: beyond the configured inflight limit, fail
        // fast with a retry hint instead of queueing. The increment above
        // is what makes the check race-free between concurrent arrivals.
        let max = inner.cfg.max_inflight;
        if max > 0 && inflight > max as u64 {
            let inflight = inner.inflight.fetch_sub(1, Ordering::Relaxed) - 1;
            t.set_gauge("serve.inflight", inflight as f64);
            t.add("serve.rejected", 1);
            return Err(CoreError::Overloaded { retry_after_s: 1 });
        }
        let out = self.top_k_inner(req_id, query, k, started, t);
        let inflight = inner.inflight.fetch_sub(1, Ordering::Relaxed) - 1;
        t.set_gauge("serve.inflight", inflight as f64);
        t.add("serve.requests", 1);
        out
    }

    fn top_k_inner(
        &self,
        req_id: u64,
        query: &Query,
        k: usize,
        started: Instant,
        t: &'static Telemetry,
    ) -> Result<TopKResult> {
        let inner = &self.inner;
        if k == 0 {
            return Err(CoreError::BadParameter {
                name: "k",
                constraint: "must be >= 1",
            });
        }
        let k = k.min(inner.cfg.k_max).min(inner.n_targets);

        // Resolve the query rows (and their cache keys) up front.
        let (rows, keys): (Matrix, Vec<CacheKey>) = match query {
            Query::Ids(ids) => {
                if ids.is_empty() {
                    return Err(CoreError::BadParameter {
                        name: "ids",
                        constraint: "must name at least one entity",
                    });
                }
                let n_source = inner.source.rows();
                let mut data = Vec::with_capacity(ids.len() * inner.dim);
                for &id in ids {
                    if id as usize >= n_source {
                        return Err(CoreError::BadParameter {
                            name: "ids",
                            constraint: "entity id out of range",
                        });
                    }
                    data.extend_from_slice(inner.source.row(id as usize));
                }
                let rows = Matrix::from_vec(ids.len(), inner.dim, data)
                    .expect("id rows have index dimensionality");
                let keys = ids.iter().map(|&id| CacheKey::Id(id, k)).collect();
                (rows, keys)
            }
            Query::Rows(m) => {
                if m.rows() == 0 {
                    return Err(CoreError::BadParameter {
                        name: "queries",
                        constraint: "must contain at least one row",
                    });
                }
                if m.cols() != inner.dim {
                    return Err(CoreError::DimMismatch {
                        source: m.cols(),
                        target: inner.dim,
                    });
                }
                let keys = (0..m.rows())
                    .map(|r| CacheKey::Row(row_hash(m.row(r)), k))
                    .collect();
                (m.clone(), keys)
            }
        };

        // Root span: stamped with the request lane so the whole subtree
        // is selectable by req_id in the trace / Chrome export.
        let root = if inner.cfg.record_spans {
            let mut s = t.span("serve.request");
            s.set_req(req_id);
            Some(s)
        } else {
            None
        };
        let root_id = root.as_ref().and_then(|s| s.id());

        // Cache pass.
        let cache_started = Instant::now();
        let cache_span = root.as_ref().and_then(|_| {
            let mut s = t.span("serve.cache");
            s.set_req(req_id);
            Some(s)
        });
        let n_rows = rows.rows();
        let mut results: Vec<Option<Vec<(u32, f32)>>> = vec![None; n_rows];
        let mut miss_rows: Vec<usize> = Vec::new();
        {
            let mut cache = inner.cache.lock().expect("cache lock poisoned");
            for (r, key) in keys.iter().enumerate() {
                match cache.get(key) {
                    Some(hit) => results[r] = Some(hit),
                    None => miss_rows.push(r),
                }
            }
        }
        let hits = n_rows - miss_rows.len();
        drop(cache_span);
        let cache_ns = cache_started.elapsed().as_nanos() as u64;
        let total_hits = inner.hits.fetch_add(hits as u64, Ordering::Relaxed) + hits as u64;
        let total_misses =
            inner.misses.fetch_add(miss_rows.len() as u64, Ordering::Relaxed) + miss_rows.len() as u64;
        if hits > 0 {
            t.add("serve.cache.hits", hits as u64);
        }
        if !miss_rows.is_empty() {
            t.add("serve.cache.misses", miss_rows.len() as u64);
        }
        let looked_up = total_hits + total_misses;
        if looked_up > 0 {
            t.set_gauge("serve.cache_hit_ratio", total_hits as f64 / looked_up as f64);
        }

        // Batch the misses through the worker.
        let mut reply: Option<BatchReply> = None;
        if !miss_rows.is_empty() {
            let mut data = Vec::with_capacity(miss_rows.len() * inner.dim);
            for &r in &miss_rows {
                data.extend_from_slice(rows.row(r));
            }
            let misses = Matrix::from_vec(miss_rows.len(), inner.dim, data)
                .expect("miss rows have index dimensionality");
            let (tx, rx) = mpsc::channel();
            {
                let mut queue = inner.queue.lock().expect("serve queue lock poisoned");
                if inner.stop.load(Ordering::Relaxed) {
                    return Err(CoreError::BadParameter {
                        name: "serve",
                        constraint: "service is shutting down",
                    });
                }
                queue.push_back(Pending {
                    req_id,
                    root: root_id,
                    enqueue_ns: t.now_ns(),
                    rows: misses,
                    k,
                    tx,
                });
                t.set_gauge("serve.queue_depth", queue.len() as f64);
            }
            inner.available.notify_one();
            let got = rx.recv().map_err(|_| CoreError::BadParameter {
                name: "serve",
                constraint: "service is shutting down",
            })?;
            {
                let mut cache = inner.cache.lock().expect("cache lock poisoned");
                for (i, &r) in miss_rows.iter().enumerate() {
                    cache.put(keys[r], got.results[i].clone());
                }
            }
            for (i, &r) in miss_rows.iter().enumerate() {
                results[r] = Some(got.results[i].clone());
            }
            reply = Some(got);
        }

        drop(root);
        let elapsed = started.elapsed();
        let cached: Vec<bool> = (0..n_rows).map(|r| !miss_rows.contains(&r)).collect();
        let out = TopKResult {
            req_id,
            results: results.into_iter().map(|r| r.expect("every row answered")).collect(),
            cached,
            batch_size: reply.as_ref().map_or(0, |r| r.batch_size),
            elapsed,
        };
        if let Some(slow_ms) = inner.cfg.slow_ms {
            if elapsed.as_millis() as u64 >= slow_ms {
                eprintln!("{}", slow_query_line(&out, k, cache_ns, reply.as_ref()));
            }
        }
        Ok(out)
    }

    /// Current cache entry count (tests and the CLI announce line).
    pub fn cache_len(&self) -> usize {
        self.inner.cache.lock().expect("cache lock poisoned").len()
    }

    /// Stops the batch worker and joins it. Queued requests are answered
    /// before the worker exits; requests arriving after stop fail.
    pub fn stop(&self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        self.inner.available.notify_all();
        if let Some(handle) = self.worker.lock().expect("worker lock poisoned").take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MatchService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The batch worker: picks up the first pending request, lingers
/// `batch_wait` for more (up to `batch_max`), and serves the whole batch
/// with one probe pass.
fn worker_loop(inner: &Arc<Inner>) {
    let t = telemetry::global();
    loop {
        let first = {
            let mut queue = inner.queue.lock().expect("serve queue lock poisoned");
            loop {
                if let Some(p) = queue.pop_front() {
                    break p;
                }
                if inner.stop.load(Ordering::Relaxed) {
                    return;
                }
                // Plain wait, no poll interval: `stop()` and every enqueue
                // notify the condvar, so an idle worker makes no wakeups.
                queue = inner
                    .available
                    .wait(queue)
                    .expect("serve queue lock poisoned");
            }
        };
        let mut batch = vec![first];
        let deadline = Instant::now() + inner.cfg.batch_wait;
        while batch.len() < inner.cfg.batch_max {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let mut queue = inner.queue.lock().expect("serve queue lock poisoned");
            if let Some(p) = queue.pop_front() {
                drop(queue);
                batch.push(p);
                continue;
            }
            if inner.stop.load(Ordering::Relaxed) {
                break;
            }
            let (guard, _) = inner
                .available
                .wait_timeout(queue, deadline - now)
                .expect("serve queue lock poisoned");
            drop(guard);
        }
        {
            let queue = inner.queue.lock().expect("serve queue lock poisoned");
            t.set_gauge("serve.queue_depth", queue.len() as f64);
        }
        serve_batch(inner, t, batch);
    }
}

fn serve_batch(inner: &Arc<Inner>, t: &'static Telemetry, batch: Vec<Pending>) {
    let pickup_ns = t.now_ns();
    let pickup = Instant::now();
    let total_rows: usize = batch.iter().map(|p| p.rows.rows()).sum();
    let k_max = batch.iter().map(|p| p.k).max().unwrap_or(1);

    // One worker-lane span around the fused pass so pool / quant / ann
    // child spans nest under it; heap attribution is read off the guard
    // and copied onto every request's `serve.batch` record (the pass is
    // shared, so the attribution is batch-inclusive by design).
    let record = inner.cfg.record_spans;
    let pass_span = if record { Some(t.span("serve.batch_pass")) } else { None };

    let mut data = Vec::with_capacity(total_rows * inner.dim);
    for p in &batch {
        data.extend_from_slice(p.rows.as_slice());
    }
    let queries =
        Matrix::from_vec(total_rows, inner.dim, data).expect("batch rows share dimensionality");

    let probe_start_ns = t.now_ns();
    let probe_start = Instant::now();
    let all_results = match &inner.ivf {
        Some(ivf) => {
            let nprobe = if inner.cfg.nprobe == 0 {
                ivf.default_nprobe()
            } else {
                inner.cfg.nprobe
            };
            ivf.search(&queries, k_max, nprobe)
        }
        None => {
            let packed = inner.packed.as_ref().expect("exact path keeps a packed operand");
            fused_topk_packed(&queries, packed, k_max)
                .expect("batch queries match the packed operand")
        }
    };
    let probe_ns = probe_start.elapsed().as_nanos() as u64;
    let (heap_allocated, heap_live_peak) = pass_span
        .as_ref()
        .map_or((0, 0), |s| (s.heap_allocated(), s.heap_live_peak()));

    t.add("serve.batches", 1);
    t.add("serve.batched_requests", batch.len() as u64);
    t.observe("serve.batch_size", batch.len() as f64);

    let batch_size = batch.len();
    let mut offset = 0;
    for p in batch {
        let n = p.rows.rows();
        let results: Vec<Vec<(u32, f32)>> = all_results[offset..offset + n]
            .iter()
            .map(|row| {
                let mut row = row.clone();
                row.truncate(p.k);
                row
            })
            .collect();
        offset += n;
        let queue_ns = pickup_ns.saturating_sub(p.enqueue_ns);
        let batch_ns = pickup.elapsed().as_nanos() as u64;
        if record {
            t.record_span("serve.queue", p.root, p.req_id, p.enqueue_ns, queue_ns, 0, 0);
            let batch_id = t.record_span(
                "serve.batch",
                p.root,
                p.req_id,
                pickup_ns,
                batch_ns,
                heap_allocated,
                heap_live_peak,
            );
            t.record_span(
                "serve.probe",
                batch_id.or(p.root),
                p.req_id,
                probe_start_ns,
                probe_ns,
                0,
                0,
            );
        }
        let _ = p.tx.send(BatchReply {
            results,
            batch_size,
            queue_ns,
            batch_ns,
            probe_ns,
        });
    }
    drop(pass_span);
}

/// Renders the slow-query log line: the request's measured span subtree
/// (built from the same stage timings the trace records) as one JSON
/// object on a single line.
fn slow_query_line(out: &TopKResult, k: usize, cache_ns: u64, reply: Option<&BatchReply>) -> String {
    fn span_obj(name: &str, ms: f64, children: Vec<Json>) -> Json {
        let mut m = Map::new();
        m.insert("name", name);
        m.insert("ms", (ms * 1000.0).round() / 1000.0);
        if !children.is_empty() {
            m.insert("children", Json::Arr(children));
        }
        Json::Obj(m)
    }
    let mut children = vec![span_obj("serve.cache", cache_ns as f64 / 1e6, vec![])];
    if let Some(r) = reply {
        children.push(span_obj("serve.queue", r.queue_ns as f64 / 1e6, vec![]));
        children.push(span_obj(
            "serve.batch",
            r.batch_ns as f64 / 1e6,
            vec![span_obj("serve.probe", r.probe_ns as f64 / 1e6, vec![])],
        ));
    }
    let root = span_obj(
        "serve.request",
        out.elapsed.as_nanos() as f64 / 1e6,
        children,
    );
    let mut doc = Map::new();
    doc.insert("slow_query", {
        let mut q = Map::new();
        q.insert("req_id", out.req_id);
        q.insert("k", k as u64);
        q.insert("rows", out.results.len() as u64);
        q.insert("cached_rows", out.cached.iter().filter(|&&c| c).count() as u64);
        q.insert("batch_size", out.batch_size as u64);
        q.insert("spans", root);
        Json::Obj(q)
    });
    Json::Obj(doc).dump()
}

// ---------------------------------------------------------------------------
// HTTP glue (JSON in/out for the expose listener)
// ---------------------------------------------------------------------------

impl MatchService {
    /// Parses a `POST /match/topk` JSON body and answers it. Body shape:
    /// `{"ids": [0, 1], "k": 5}` or `{"queries": [[...], [...]], "k": 5}`.
    /// Returns the HTTP response for the expose listener; malformed
    /// bodies get a 400 with a diagnostic.
    pub fn handle_topk(&self, body: &[u8]) -> entmatcher_support::telemetry::expose::Response {
        use entmatcher_support::telemetry::expose::Response;
        let text = match std::str::from_utf8(body) {
            Ok(t) => t,
            Err(_) => return Response::bad_request("body is not utf-8"),
        };
        let doc = match Json::parse(text) {
            Ok(d) => d,
            Err(e) => return Response::bad_request(&format!("invalid json: {e}")),
        };
        let k = doc
            .get("k")
            .and_then(|v| v.as_f64())
            .map(|v| v as usize)
            .unwrap_or(10);
        let query = if let Some(ids) = doc.get("ids").and_then(|v| v.as_array()) {
            let mut out = Vec::with_capacity(ids.len());
            for v in ids {
                match v.as_f64() {
                    Some(id) if id >= 0.0 => out.push(id as u32),
                    _ => return Response::bad_request("ids must be non-negative integers"),
                }
            }
            Query::Ids(out)
        } else if let Some(rows) = doc.get("queries").and_then(|v| v.as_array()) {
            let mut data = Vec::new();
            let mut n = 0;
            for row in rows {
                let row = match row.as_array() {
                    Some(r) => r,
                    None => return Response::bad_request("queries must be arrays of numbers"),
                };
                for v in row {
                    match v.as_f64() {
                        Some(x) => data.push(x as f32),
                        None => return Response::bad_request("queries must be arrays of numbers"),
                    }
                }
                n += 1;
            }
            let dim = self.dim();
            if n == 0 || data.len() != n * dim {
                return Response::bad_request("query rows must match the index dimensionality");
            }
            match Matrix::from_vec(n, dim, data) {
                Ok(m) => Query::Rows(m),
                Err(_) => return Response::bad_request("query rows must be rectangular"),
            }
        } else {
            return Response::bad_request("body needs \"ids\" or \"queries\"");
        };
        match self.top_k(&query, k) {
            Ok(res) => Response::json(render_topk_json(&res, k)),
            Err(CoreError::Overloaded { retry_after_s }) => {
                Response::too_many_requests(retry_after_s)
            }
            Err(e) => Response::bad_request(&e.to_string()),
        }
    }
}

/// Renders a [`TopKResult`] as the response JSON.
fn render_topk_json(res: &TopKResult, k: usize) -> String {
    let mut doc = Map::new();
    doc.insert("req_id", res.req_id);
    doc.insert("k", k as u64);
    doc.insert("batch_size", res.batch_size as u64);
    doc.insert("cached", res.cached.clone());
    let results: Vec<Json> = res
        .results
        .iter()
        .map(|row| {
            Json::Arr(
                row.iter()
                    .map(|&(id, score)| {
                        let mut m = Map::new();
                        m.insert("id", id as u64);
                        m.insert("score", score as f64);
                        Json::Obj(m)
                    })
                    .collect(),
            )
        })
        .collect();
    doc.insert("results", Json::Arr(results));
    Json::Obj(doc).dump()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry_test_lock;

    fn toy_service(cfg: ServeConfig) -> MatchService {
        // 8 target rows spread on the unit circle in 2-d; source == target
        // so id i's best match is target i.
        let n = 8;
        let mut data = Vec::with_capacity(n * 2);
        for i in 0..n {
            let a = i as f32 * std::f32::consts::PI / (n as f32);
            data.push(a.cos());
            data.push(a.sin());
        }
        let m = Matrix::from_vec(n, 2, data).unwrap();
        MatchService::start(m.clone(), TargetIndex::Matrix(m), cfg).unwrap()
    }

    #[test]
    fn id_query_matches_itself_first() {
        let svc = toy_service(ServeConfig::default());
        let res = svc.top_k(&Query::Ids(vec![3]), 2).unwrap();
        assert_eq!(res.results.len(), 1);
        assert_eq!(res.results[0][0].0, 3, "self-match must rank first");
        assert!(res.results[0][0].1 > 0.99);
        assert_eq!(res.results[0].len(), 2);
        assert_eq!(res.cached, vec![false]);
        assert!(res.req_id > 0);
        svc.stop();
    }

    #[test]
    fn row_query_and_validation() {
        let svc = toy_service(ServeConfig::default());
        let q = Matrix::from_vec(1, 2, vec![1.0, 0.0]).unwrap();
        let res = svc.top_k(&Query::Rows(q), 3).unwrap();
        assert_eq!(res.results[0][0].0, 0);
        // Validation errors.
        assert!(svc.top_k(&Query::Ids(vec![99]), 1).is_err(), "id out of range");
        assert!(svc.top_k(&Query::Ids(vec![]), 1).is_err(), "empty ids");
        assert!(svc.top_k(&Query::Ids(vec![0]), 0).is_err(), "k = 0");
        let bad = Matrix::from_vec(1, 3, vec![1.0, 0.0, 0.0]).unwrap();
        assert!(svc.top_k(&Query::Rows(bad), 1).is_err(), "dim mismatch");
        // k is clamped to the target count, not rejected.
        let res = svc.top_k(&Query::Ids(vec![0]), 1000).unwrap();
        assert_eq!(res.results[0].len(), 8);
        svc.stop();
    }

    #[test]
    fn cache_hits_skip_the_batch_queue() {
        let svc = toy_service(ServeConfig::default());
        let first = svc.top_k(&Query::Ids(vec![2]), 3).unwrap();
        assert_eq!(first.cached, vec![false]);
        assert!(first.batch_size >= 1);
        let second = svc.top_k(&Query::Ids(vec![2]), 3).unwrap();
        assert_eq!(second.cached, vec![true], "repeat query must hit the cache");
        assert_eq!(second.batch_size, 0, "cache hits never reach the worker");
        assert_eq!(first.results, second.results);
        // Different k is a different cache key.
        let third = svc.top_k(&Query::Ids(vec![2]), 4).unwrap();
        assert_eq!(third.cached, vec![false]);
        assert_eq!(svc.cache_len(), 2);
        svc.stop();
    }

    #[test]
    fn lru_cache_evicts_least_recent() {
        let mut cache = LruCache::new(2);
        cache.put(CacheKey::Id(1, 5), vec![(1, 1.0)]);
        cache.put(CacheKey::Id(2, 5), vec![(2, 1.0)]);
        // Touch 1 so 2 becomes the eviction victim.
        assert!(cache.get(&CacheKey::Id(1, 5)).is_some());
        cache.put(CacheKey::Id(3, 5), vec![(3, 1.0)]);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&CacheKey::Id(1, 5)).is_some());
        assert!(cache.get(&CacheKey::Id(2, 5)).is_none(), "LRU entry evicted");
        assert!(cache.get(&CacheKey::Id(3, 5)).is_some());
        // cap 0 disables.
        let mut off = LruCache::new(0);
        off.put(CacheKey::Id(1, 1), vec![]);
        assert!(off.get(&CacheKey::Id(1, 1)).is_none());
        assert_eq!(off.len(), 0);
    }

    #[test]
    fn concurrent_requests_coalesce_into_batches() {
        let _lock = telemetry_test_lock();
        entmatcher_support::telemetry::reset();
        entmatcher_support::telemetry::set_enabled(true);
        let mut cfg = ServeConfig {
            batch_wait: Duration::from_millis(40),
            record_spans: true,
            ..ServeConfig::default()
        };
        cfg.cache_capacity = 0; // every request must reach the worker
        let svc = toy_service(cfg);
        let n_threads = 6;
        let ids: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_threads)
                .map(|i| {
                    let svc = &svc;
                    scope.spawn(move || {
                        let res = svc.top_k(&Query::Ids(vec![i as u32]), 2).unwrap();
                        assert!(res.batch_size >= 1);
                        res.req_id
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        svc.stop();
        let trace = entmatcher_support::telemetry::snapshot();
        entmatcher_support::telemetry::set_enabled(false);
        // Some batch served more than one request (6 threads, 40 ms
        // linger: all but the first-picked batch coalesce).
        let batch_hist = trace.histogram("serve.batch_size").expect("batch histogram");
        assert_eq!(
            trace.counter("serve.batched_requests"),
            Some(n_threads as u64)
        );
        assert!(
            batch_hist.max > 1.0,
            "expected at least one coalesced batch, max batch size {}",
            batch_hist.max
        );
        // Every request's span tree is complete and req-tagged.
        for req_id in ids {
            let spans = trace.spans_for_request(req_id);
            let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
            for need in ["serve.request", "serve.cache", "serve.queue", "serve.batch", "serve.probe"] {
                assert!(names.contains(&need), "req {req_id} missing {need}: {names:?}");
            }
            let root = spans.iter().find(|s| s.name == "serve.request").unwrap();
            assert!(spans
                .iter()
                .filter(|s| s.name != "serve.request" && s.name != "serve.probe")
                .all(|s| s.parent == Some(root.id)));
        }
        assert!(trace.gauge("serve.inflight").is_some());
        assert!(trace.gauge("serve.queue_depth").is_some());
    }

    #[test]
    fn cache_hits_skip_probe_spans() {
        let _lock = telemetry_test_lock();
        entmatcher_support::telemetry::reset();
        entmatcher_support::telemetry::set_enabled(true);
        let svc = toy_service(ServeConfig {
            record_spans: true,
            ..ServeConfig::default()
        });
        let miss = svc.top_k(&Query::Ids(vec![1]), 2).unwrap();
        let hit = svc.top_k(&Query::Ids(vec![1]), 2).unwrap();
        svc.stop();
        let trace = entmatcher_support::telemetry::snapshot();
        entmatcher_support::telemetry::set_enabled(false);
        assert_eq!(hit.cached, vec![true]);
        let miss_names: Vec<&str> = trace
            .spans_for_request(miss.req_id)
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert!(miss_names.contains(&"serve.probe"));
        let hit_names: Vec<&str> = trace
            .spans_for_request(hit.req_id)
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert!(
            !hit_names.contains(&"serve.probe"),
            "cache hit must not probe: {hit_names:?}"
        );
        assert!(hit_names.contains(&"serve.cache"));
        assert_eq!(trace.counter("serve.cache.hits"), Some(1));
    }

    #[test]
    fn saturated_inflight_fast_fails_with_overloaded() {
        let _lock = telemetry_test_lock();
        entmatcher_support::telemetry::reset();
        entmatcher_support::telemetry::set_enabled(true);
        let svc = toy_service(ServeConfig {
            max_inflight: 1,
            cache_capacity: 0,
            // A long linger holds the admitted request inflight while the
            // second one arrives.
            batch_wait: Duration::from_millis(400),
            batch_max: 64,
            ..ServeConfig::default()
        });
        std::thread::scope(|scope| {
            let svc = &svc;
            let admitted = scope.spawn(move || svc.top_k(&Query::Ids(vec![0]), 2));
            // Wait until the admitted request is measurably inflight.
            let deadline = Instant::now() + Duration::from_secs(2);
            while svc.inner.inflight.load(Ordering::Relaxed) == 0 {
                assert!(Instant::now() < deadline, "first request never started");
                std::thread::sleep(Duration::from_millis(5));
            }
            let rejected = svc.top_k(&Query::Ids(vec![1]), 2);
            assert!(
                matches!(rejected, Err(CoreError::Overloaded { retry_after_s: 1 })),
                "second request must fast-fail past max_inflight: {rejected:?}"
            );
            // The HTTP glue maps the same condition to a 429 + Retry-After.
            let resp = svc.handle_topk(br#"{"ids": [1], "k": 2}"#);
            assert_eq!(resp.status, "429 Too Many Requests");
            assert!(
                resp.headers.iter().any(|(k, v)| *k == "Retry-After" && v == "1"),
                "{:?}",
                resp.headers
            );
            assert!(admitted.join().unwrap().is_ok(), "admitted request completes");
        });
        // Rejections never decremented below zero and were counted.
        assert_eq!(svc.inner.inflight.load(Ordering::Relaxed), 0);
        svc.stop();
        let trace = entmatcher_support::telemetry::snapshot();
        entmatcher_support::telemetry::set_enabled(false);
        assert_eq!(trace.counter("serve.rejected"), Some(2));
        // A fresh request after the saturation window is admitted again.
    }

    #[test]
    fn ivf_serving_matches_exact_on_easy_queries() {
        let cfg = ServeConfig {
            ivf: Some(IvfParams {
                nlist: 2,
                nprobe: 2, // full probe width: bitwise-exact
                ..IvfParams::default()
            }),
            ..ServeConfig::default()
        };
        let svc = toy_service(cfg);
        let res = svc.top_k(&Query::Ids(vec![5]), 1).unwrap();
        assert_eq!(res.results[0][0].0, 5);
        svc.stop();
        // IVF + packed target (streaming) is rejected.
        let m = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let packed = PackedAny::pack(&m, Precision::F32);
        let err = MatchService::start(
            m,
            TargetIndex::Packed {
                packed,
                rows: 2,
                dim: 2,
            },
            ServeConfig {
                ivf: Some(IvfParams::default()),
                ..ServeConfig::default()
            },
        );
        assert!(err.is_err());
    }

    #[test]
    fn quantized_serving_stays_close_to_f32() {
        let svc = toy_service(ServeConfig {
            precision: Precision::Int8,
            ..ServeConfig::default()
        });
        let res = svc.top_k(&Query::Ids(vec![4]), 1).unwrap();
        assert_eq!(res.results[0][0].0, 4, "int8 self-match must survive");
        assert!((res.results[0][0].1 - 1.0).abs() < 0.05);
        svc.stop();
    }

    #[test]
    fn http_handler_parses_and_answers() {
        let svc = toy_service(ServeConfig::default());
        let resp = svc.handle_topk(br#"{"ids": [0, 1], "k": 2}"#);
        assert_eq!(resp.status, "200 OK");
        let doc = Json::parse(&resp.body).unwrap();
        assert!(doc["req_id"].as_f64().unwrap() >= 1.0);
        let results = doc["results"].as_array().unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].as_array().unwrap().len(), 2);
        assert_eq!(results[0][0]["id"].as_f64(), Some(0.0));
        assert_eq!(doc["cached"].as_array().unwrap().len(), 2);

        let resp = svc.handle_topk(br#"{"queries": [[1.0, 0.0]], "k": 1}"#);
        assert_eq!(resp.status, "200 OK");
        let doc = Json::parse(&resp.body).unwrap();
        assert_eq!(doc["results"][0][0]["id"].as_f64(), Some(0.0));

        for bad in [
            &b"not json"[..],
            br#"{"k": 3}"#,
            br#"{"ids": [-4]}"#,
            br#"{"queries": [[1.0]]}"#,
            br#"{"queries": "x"}"#,
            br#"{"ids": [999]}"#,
        ] {
            let resp = svc.handle_topk(bad);
            assert_eq!(resp.status, "400 Bad Request", "body: {:?}", resp.body);
        }
        svc.stop();
    }

    #[test]
    fn slow_query_line_is_one_json_object() {
        let out = TopKResult {
            req_id: 7,
            results: vec![vec![(1, 0.9)]],
            cached: vec![false],
            batch_size: 3,
            elapsed: Duration::from_millis(12),
        };
        let reply = BatchReply {
            results: vec![],
            batch_size: 3,
            queue_ns: 2_000_000,
            batch_ns: 9_000_000,
            probe_ns: 8_000_000,
        };
        let line = slow_query_line(&out, 5, 500_000, Some(&reply));
        assert!(!line.contains('\n'), "must be a single line");
        let doc = Json::parse(&line).unwrap();
        let q = &doc["slow_query"];
        assert_eq!(q["req_id"].as_f64(), Some(7.0));
        assert_eq!(q["batch_size"].as_f64(), Some(3.0));
        let root = &q["spans"];
        assert_eq!(root["name"], "serve.request");
        assert_eq!(root["ms"].as_f64(), Some(12.0));
        let children = root["children"].as_array().unwrap();
        let names: Vec<&str> = children.iter().filter_map(|c| c["name"].as_str()).collect();
        assert_eq!(names, vec!["serve.cache", "serve.queue", "serve.batch"]);
        let batch = children.iter().find(|c| c["name"] == "serve.batch").unwrap();
        assert_eq!(batch["children"][0]["name"], "serve.probe");
    }

    #[test]
    fn env_slow_ms_normalization() {
        // Pure-parse behavior is what matters; exercise via a scoped env
        // var name only if unset in the environment.
        assert_eq!("0".trim().parse::<u64>().ok(), Some(0));
        std::env::remove_var(ENV_SLOW_MS);
        assert_eq!(env_slow_ms(), None);
    }
}
