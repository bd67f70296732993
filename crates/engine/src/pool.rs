//! Batch execution on the shared work-stealing pool.
//!
//! The pool machinery itself (per-worker deques, steal-from-back,
//! submission-order results, panic isolation) lives in
//! [`esched_obs::pool`], below every algorithm crate, and `esched_core`
//! re-exports it with the [`ScratchPool`] extension that threads a
//! per-worker [`Scratch`] arena through each job; the allocator and
//! refinement use the same pool within one instance. [`Engine`] is the
//! request/outcome wrapper the service layer uses: same sizing rules,
//! same determinism contract (results indexed by submission order, so
//! the output is identical regardless of worker count or steal
//! interleaving — the property the determinism test pins).

use esched_core::{Pool, PoolError, Scratch, ScratchPool};

use crate::config::ScheduleRequest;
use crate::exec::execute;
use crate::outcome::{EngineError, ScheduleOutcome};

/// A batch executor with a fixed worker count.
///
/// The engine is stateless between batches (workers and their scratch
/// arenas live only for the duration of one `run_batch`/`batch_map`
/// call), so it is cheap to construct and freely shareable.
#[derive(Debug, Clone)]
pub struct Engine {
    pool: Pool,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl From<PoolError> for EngineError {
    fn from(e: PoolError) -> Self {
        EngineError {
            index: e.index,
            message: e.message,
        }
    }
}

impl Engine {
    /// An engine sized by the `ESCHED_ENGINE_THREADS` environment
    /// variable when set (and ≥ 1), else by the machine's available
    /// parallelism.
    pub fn new() -> Self {
        Self { pool: Pool::new() }
    }

    /// An engine with exactly `threads` workers (clamped to ≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            pool: Pool::with_threads(threads),
        }
    }

    /// The worker count batches will use.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The underlying [`Pool`] — hand this to
    /// [`esched_core::AllocRequest::with_pool`] to reuse the engine's
    /// sizing for intra-instance fan-out.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Execute one request on the calling thread (no pool), with the same
    /// panic isolation as a batch.
    pub fn run(&self, request: &ScheduleRequest) -> Result<ScheduleOutcome, EngineError> {
        self.pool
            .run_one(|scratch| execute(scratch, request))
            .map_err(EngineError::from)
    }

    /// Execute a batch of requests across the pool. The output is indexed
    /// like the input; a panicking job yields `Err` at its index without
    /// disturbing the rest of the batch.
    pub fn run_batch(
        &self,
        requests: &[ScheduleRequest],
    ) -> Vec<Result<ScheduleOutcome, EngineError>> {
        self.batch_map(requests.iter().collect(), |scratch, req| {
            execute(scratch, req)
        })
    }

    /// Generic batch execution: apply `f` to every item, in parallel,
    /// with a per-worker [`Scratch`] arena threaded through so pipelines
    /// built from the `_with` APIs reuse buffers across items.
    ///
    /// Results are ordered by item index. A panic inside `f` becomes an
    /// `Err(EngineError)` for that item only; the worker's scratch is
    /// reset and the worker keeps draining the batch.
    pub fn batch_map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<Result<T, EngineError>>
    where
        I: Send,
        T: Send,
        F: Fn(&mut Scratch, I) -> T + Sync,
    {
        self.pool
            .batch_map(items, f)
            .into_iter()
            .map(|r| r.map_err(EngineError::from))
            .collect()
    }
}
