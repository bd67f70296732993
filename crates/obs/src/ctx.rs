//! Request-scoped trace context: process-unique request ids, a thread-local
//! current-request slot, and the per-phase latency breakdown attached to
//! engine outcomes.
//!
//! The engine allocates one [`RequestId`] per `ScheduleRequest` and enters a
//! [`RequestScope`] for the duration of the pipeline. Because the scope is a
//! *thread-local* RAII guard, the id follows the job wherever the
//! work-stealing pool runs it — a stolen job carries its originating
//! request, not the stealing worker's identity. Everything that records
//! while the scope is active ([`crate::recorder`] flight records, the
//! request-scoped [`crate::chrome::ChromeTraceSink`] mode) reads the slot
//! via [`current_request`] and tags itself with the request id.
//!
//! Propagation rules (see DESIGN.md §Service observability):
//!
//! 1. ids are allocated from one process-global counter and never reused;
//! 2. the slot is per-thread and scoped — nesting restores the outer id,
//!    so a pipeline that executes a sub-request keeps both attributable;
//! 3. the id is **excluded from canonical JSON** (`ScheduleOutcome::
//!    to_json`), exactly like wall-clock telemetry, so batch outputs stay
//!    byte-identical across worker counts;
//! 4. on a panic the scope's `Drop` (which runs during unwinding) stamps a
//!    `panic` record into the flight recorder while the request id is
//!    still known — this is what lets a post-mortem dump name the failing
//!    request;
//! 5. a [`crate::pool::Pool`] thread running part of a request (an
//!    allocation chunk, one of the two refinement builds) re-enters the
//!    submitting thread's id for the duration of the batch or join.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// A process-unique id for one scheduling request.
///
/// Ids are dense (1, 2, 3, …) within a process and carry no meaning across
/// processes; they exist to correlate spans, flight records, and outcomes,
/// never to key persistent data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(u64);

static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

impl RequestId {
    /// Allocate the next id from the process-global counter.
    pub fn next() -> Self {
        Self(NEXT_REQUEST.fetch_add(1, Ordering::Relaxed))
    }

    /// The raw id value (always ≥ 1 for allocated ids).
    pub fn as_u64(&self) -> u64 {
        self.0
    }

    /// Reconstruct from a raw value (e.g. one read back from a flight
    /// record). `0` means "no request" and is rejected.
    pub fn from_u64(raw: u64) -> Option<Self> {
        (raw != 0).then_some(Self(raw))
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

thread_local! {
    /// The request the current thread is executing, 0 when none.
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// The request the calling thread is currently executing, if any.
pub fn current_request() -> Option<RequestId> {
    RequestId::from_u64(current_request_raw())
}

/// Raw form of [`current_request`]: the id value, or `0` when the thread
/// is not inside a [`RequestScope`]. This is the zero-branch form the
/// flight-recorder hot path uses.
#[inline]
pub fn current_request_raw() -> u64 {
    CURRENT.with(|c| c.get())
}

/// RAII guard that makes `id` the calling thread's current request.
///
/// Dropping restores the previous value (scopes nest). If the drop happens
/// during a panic unwind, the guard stamps a `panic` record tagged with
/// the request id into the flight recorder *before* restoring — by the
/// time the pool's `catch_unwind` sees the payload, the thread-local is
/// already gone, so this is the one point where the failing request can
/// still sign its own crash.
#[derive(Debug)]
pub struct RequestScope {
    prev: u64,
}

impl RequestScope {
    /// Enter `id` on the calling thread.
    pub fn enter(id: RequestId) -> Self {
        let prev = CURRENT.with(|c| c.replace(id.as_u64()));
        Self { prev }
    }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        if std::thread::panicking() {
            crate::recorder::record_panic();
        }
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// The per-phase latency breakdown of one request: `(phase name,
/// nanoseconds)` pairs in execution order.
///
/// Attached to `ScheduleOutcome` (engine) when telemetry is on; excluded
/// from canonical JSON, so it never perturbs determinism comparisons.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCtx {
    /// The request this context belongs to.
    pub id: RequestId,
    /// `(phase, elapsed ns)` in the order the phases ran. Phases that a
    /// request's config skips (solver, sim, discrete) are simply absent.
    pub phases: Vec<(&'static str, u64)>,
}

impl TraceCtx {
    /// An empty context for `id`.
    pub fn new(id: RequestId) -> Self {
        Self {
            id,
            phases: Vec::new(),
        }
    }

    /// Append one phase measurement.
    pub fn record_phase(&mut self, phase: &'static str, elapsed: std::time::Duration) {
        self.phases
            .push((phase, elapsed.as_nanos().min(u64::MAX as u128) as u64));
    }

    /// Nanoseconds spent in `phase`, summed over repeats.
    pub fn phase_ns(&self, phase: &str) -> u64 {
        self.phases
            .iter()
            .filter(|(p, _)| *p == phase)
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Total nanoseconds across all recorded phases.
    pub fn total_ns(&self) -> u64 {
        self.phases.iter().map(|(_, ns)| ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn ids_are_unique_and_monotonic_per_thread() {
        let a = RequestId::next();
        let b = RequestId::next();
        assert!(b.as_u64() > a.as_u64());
        assert_eq!(RequestId::from_u64(0), None);
        assert_eq!(RequestId::from_u64(a.as_u64()), Some(a));
    }

    #[test]
    fn scope_sets_and_restores_nested() {
        assert_eq!(current_request(), None);
        let outer = RequestId::next();
        let inner = RequestId::next();
        {
            let _o = RequestScope::enter(outer);
            assert_eq!(current_request(), Some(outer));
            {
                let _i = RequestScope::enter(inner);
                assert_eq!(current_request(), Some(inner));
            }
            assert_eq!(current_request(), Some(outer));
        }
        assert_eq!(current_request(), None);
    }

    #[test]
    fn scope_is_thread_local() {
        let id = RequestId::next();
        let _s = RequestScope::enter(id);
        std::thread::scope(|s| {
            s.spawn(|| assert_eq!(current_request(), None));
        });
        assert_eq!(current_request(), Some(id));
    }

    #[test]
    fn trace_ctx_accumulates_phases() {
        let mut t = TraceCtx::new(RequestId::next());
        t.record_phase("timeline", Duration::from_nanos(100));
        t.record_phase("solve", Duration::from_nanos(400));
        t.record_phase("timeline", Duration::from_nanos(50));
        assert_eq!(t.phase_ns("timeline"), 150);
        assert_eq!(t.phase_ns("solve"), 400);
        assert_eq!(t.phase_ns("absent"), 0);
        assert_eq!(t.total_ns(), 550);
        assert_eq!(t.phases.len(), 3);
    }
}
