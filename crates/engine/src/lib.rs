//! # esched-engine
//!
//! The parallel batch scheduling engine: the single execution substrate
//! for experiments, fuzzing, and benchmarks.
//!
//! One instance goes in as a [`ScheduleRequest`] (task set, core count,
//! power model, and an [`EngineConfig`] selecting the heuristic, an
//! optional `E^OPT` solver, optional discrete-frequency execution, and an
//! optional simulator cross-check); one [`ScheduleOutcome`] comes out
//! (schedule, energies, NEC, solver summary, sim verdict). Batches run on
//! a std-only work-stealing thread pool ([`Engine`]) with one
//! [`Scratch`](esched_core::Scratch) arena per worker, so the hot
//! per-instance allocations (timeline buffers, DER staging, pack items)
//! are reused across instances.
//!
//! ```
//! use esched_engine::{Engine, EngineConfig, ScheduleRequest};
//! use esched_types::{PolynomialPower, TaskSet};
//!
//! let tasks = TaskSet::from_triples(&[
//!     (0.0, 12.0, 4.0), (2.0, 10.0, 2.0), (4.0, 8.0, 4.0),
//! ]);
//! let request = ScheduleRequest::new(tasks, 2, PolynomialPower::cubic());
//! let outcome = Engine::with_threads(1).run(&request).unwrap();
//! assert!(outcome.energy > 0.0);
//! ```
//!
//! Worker count: [`Engine::new`] honours `ESCHED_ENGINE_THREADS` when
//! set, else uses the machine's available parallelism;
//! [`Engine::with_threads`] pins it. The batch output is a pure function
//! of the input batch — independent of worker count and steal
//! interleaving — because results are indexed by submission order and
//! every pipeline stage is deterministic.
//!
//! The pool machinery itself lives in [`esched_core::Pool`]; [`Engine`]
//! wraps it with request/outcome plumbing. For very large single
//! instances, [`EngineConfig::with_intra_parallelism`] additionally fans
//! the DER allocation of *one* request across a pool and builds its
//! intermediate and final schedules side by side — chunk boundaries are
//! a pure function of the instance and the two schedules share nothing,
//! so outcomes stay byte-identical at any worker count.
//!
//! Metrics (`esched_obs::metrics`): `esched.engine.batches`,
//! `esched.engine.jobs`, `esched.engine.steals`, `esched.engine.panics`
//! counters; `esched.engine.workers` and `esched.engine.queue_depth`
//! gauges; `esched.engine.batch_wall_ns` and `esched.engine.job_wall_ns`
//! histograms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod config;
mod exec;
pub mod online;
pub mod outcome;
pub mod pool;

pub use audit::{AuditConfig, ShadowAuditor};
pub use config::{Algorithm, EngineConfig, ScheduleRequest};
pub use online::{OnlineEngine, OnlineError, OnlineEvent, ReplanReport};
pub use outcome::{DiscreteSummary, EngineError, OptSummary, ScheduleOutcome, SimVerdict};
pub use pool::Engine;
