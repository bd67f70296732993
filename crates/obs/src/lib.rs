//! # esched-obs
//!
//! Observability and run-infrastructure layer for the `esched` workspace.
//!
//! The workspace is fully self-contained (no third-party crates), so this
//! crate supplies, from scratch, the substrate every other crate leans on
//! to *see* what the scheduling pipeline is doing:
//!
//! * [`trace`] — a lightweight `tracing`-style span/event layer that is
//!   **zero-cost when disabled**: every macro call is gated on a single
//!   relaxed atomic load, and no field values are materialized unless a
//!   subscriber is installed and the level/target filter passes. Enable it
//!   with [`trace::init_from_env`] (reads `ESCHED_LOG`, e.g.
//!   `ESCHED_LOG=debug` or `ESCHED_LOG=esched_core=trace,esched_opt=info`).
//! * [`metrics`] — a process-global metrics registry (lock-cheap
//!   counters/gauges/histograms, `esched.<crate>.<quantity>` naming, a
//!   name-ordered [`metrics::snapshot`]) wired into the solver, packing,
//!   and simulator hot paths; the benchmark harness attaches per-entry
//!   snapshot deltas to `BENCH_*.json`.
//! * [`chrome`] — Chrome-trace (`chrome://tracing` / Perfetto) export: a
//!   [`chrome::ChromeTraceSink`] that renders the span hierarchy as
//!   `trace_event` JSON, and [`chrome::schedule_trace`] which renders a
//!   finished schedule as one trace thread per core with a frequency
//!   counter track.
//! * [`ctx`] — request-scoped trace context: process-unique
//!   [`ctx::RequestId`]s, a thread-local [`ctx::RequestScope`], and the
//!   per-phase [`ctx::TraceCtx`] latency breakdown the engine attaches to
//!   outcomes (excluded from canonical JSON, so determinism comparisons
//!   never see it).
//! * [`recorder`] — the always-on **flight recorder**: a fixed-size,
//!   lock-free (seqlock-sharded, zero-allocation) ring of recent
//!   span/event records that dumps a Perfetto-loadable post-mortem on a
//!   job panic (`ESCHED_FLIGHT_DIR`), on demand ([`recorder::dump`]), or
//!   at exit (`ESCHED_FLIGHT_EXIT`). Disable with `ESCHED_FLIGHT=0`.
//! * [`export`] — the continuous exporter: a background sampler thread
//!   emitting [`metrics::snapshot`] deltas as a JSONL time series plus a
//!   Prometheus-style text exposition file.
//! * [`health`] — the streaming SLO/health layer: lock-free sliding-window
//!   log2 quantile sketches ([`health::WindowedSketch`]), a declarative
//!   [`health::SloPolicy`], and the [`health::HealthMonitor`] anomaly
//!   watchdog (latched breach events, degraded/healthy state machine,
//!   energy-regret audit intake) the online engine threads through its
//!   replan path.
//! * [`json`] — an insertion-order-preserving JSON value, emitter, and
//!   parser plus the [`json::ToJson`]/[`json::FromJson`] traits used for
//!   machine-readable artifacts (task sets, run reports).
//! * [`stats`] — percentile and histogram helpers for aggregating
//!   per-trial telemetry.
//! * [`report`] — the [`report::RunReport`] structured artifact the
//!   experiment harness writes next to figure outputs.
//! * [`rng`] — a deterministic, seedable ChaCha8 generator so workloads
//!   and randomized tests are reproducible bit-for-bit without external
//!   RNG crates.
//! * [`pool`] — the std-only work-stealing thread pool every parallel
//!   consumer shares: `esched-engine` for whole requests, `esched-core`'s
//!   allocator for heavy subinterval ranges, and `esched-opt`'s
//!   decomposed ADMM solver, which runs every round of a solve on one
//!   worker team ([`pool::Pool::team`]). It lives here, below the
//!   algorithm crates, precisely so `esched-opt` can use it without a
//!   cycle.
//!
//! The span hierarchy wired through the workspace (see DESIGN.md,
//! "Observability"):
//!
//! ```text
//! der_schedule / even_schedule          (esched-core, INFO)
//! ├── timeline_build                    (esched-subinterval, DEBUG)
//! ├── ideal_schedule                    (esched-core, DEBUG)
//! ├── allocate_der | allocate_even      (esched-core, DEBUG; n_heavy field)
//! └── refine_frequencies                (esched-core, DEBUG)
//! reclaim_der / quantize_schedule       (esched-core, DEBUG)
//! solve_pgd|block_descent|admm          (esched-opt, DEBUG; WARN on cap)
//! simulate                              (esched-sim, INFO; counter event)
//! check_fuzz                            (esched-check, INFO; per-iteration
//!                                        violation / shrink counters)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod ctx;
pub mod export;
pub mod health;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod recorder;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;

pub use ctx::{RequestId, RequestScope, TraceCtx};
pub use export::{Exporter, ExporterConfig};
pub use health::{
    HealthEvent, HealthEventKind, HealthMonitor, HealthReport, HealthState, SloPolicy, WindowStats,
    WindowedCounter, WindowedSketch,
};
pub use json::{FromJson, JsonError, ToJson, Value};
pub use pool::{Pool, PoolError};
pub use recorder::{FlightKind, FlightRecord, FlightSpan};
pub use report::{RunReport, TrialRecord};
pub use rng::ChaCha8;
pub use trace::Level;
