//! Zero-dependency support library for the `entmatcher` workspace.
//!
//! Every crate in this workspace builds with **no network access** and no
//! external crates. This crate supplies the infrastructure that would
//! otherwise come from crates.io:
//!
//! - [`rng`] — a seeded, deterministic xoshiro256\*\*-style PRNG with a
//!   `rand`-shaped API (`StdRng`, `Rng`, `SeedableRng`, `SliceRandom`).
//! - [`json`] — a minimal JSON value, writer, and parser plus the
//!   [`json::ToJson`]/[`json::FromJson`] trait pair and the
//!   [`impl_json_struct!`]/[`impl_json_enum!`] derive-replacement macros.
//! - [`prop`] — a property-testing mini-harness with seeded generators,
//!   configurable case counts, failure-seed reporting, and size-directed
//!   input shrinking.
//! - [`bench`] — a tiny wall-clock benchmark harness for `harness = false`
//!   bench targets.
//! - [`alloc`] — a counting `GlobalAlloc` wrapper ([`alloc::CountingAlloc`],
//!   installed per binary) with per-scope heap attribution and an RSS
//!   reader — the measured-memory ground truth behind the telemetry
//!   spans' `heap_allocated`/`heap_live_peak` fields (`ENTMATCHER_MEM`).
//! - [`pool`] — a persistent, process-wide work-stealing worker pool
//!   (sized by `ENTMATCHER_THREADS` / available parallelism) that the
//!   row-parallel kernels run on, with panic propagation and telemetry
//!   integration.
//! - [`telemetry`] — structured spans, counters, and log-scale histograms
//!   with JSON trace export (the `ENTMATCHER_TRACE` / `--trace`
//!   observability layer every crate reports into), plus the
//!   flight-recorder surfaces: live Prometheus exposition
//!   ([`telemetry::expose`]), Chrome/Perfetto trace export
//!   ([`telemetry::chrome`]), and folded time and allocation profiles
//!   computed from a recorded trace ([`telemetry::profile`]).
//! - [`env`](mod@env) — the one reader of the `ENTMATCHER_*` switch convention
//!   (unset, empty, whitespace-only and `0` all mean off).
//! - [`http`] — the std-only HTTP/1.1 transport (keep-alive connection
//!   workers, admission control, draining shutdown) that answers every
//!   request from one route table; `/metrics`, `/healthz` and the
//!   matching service's routes are entries in it.
//!
//! The API shapes deliberately mirror the external crates they replace so
//! that call sites migrate by swapping `use` lines, not rewriting bodies.

pub mod alloc;
pub mod bench;
pub mod env;
pub mod http;
pub mod json;
pub mod pool;
pub mod prop;
pub mod rng;
pub mod telemetry;
