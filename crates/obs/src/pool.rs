//! The std-only work-stealing thread pool.
//!
//! No third-party dependencies: per-worker `Mutex<VecDeque>` deques on
//! `std::thread::scope` scoped threads. Jobs are distributed round-robin;
//! a worker drains its own deque from the front and, when empty, steals
//! from the *back* of its neighbours' deques. Results are indexed by
//! submission order, so the output is identical regardless of worker
//! count or steal interleaving — the property the engine's determinism
//! test pins.
//!
//! The pool lives here, below every algorithm crate, so all its parallel
//! consumers can share one implementation:
//!
//! * `esched-engine` fans whole schedule requests across it
//!   ([`Pool::batch_map_with`] and [`Pool::run_one_with`] with a fresh
//!   `Scratch` arena as each worker's context),
//! * `esched-core`'s allocator fans heavy subinterval ranges of *one*
//!   instance across it ([`Pool::batch_map_with`] with the allocator's
//!   scratch arena as the worker context),
//! * `esched-core`'s refinement builds one instance's intermediate and
//!   final schedules side by side ([`Pool::join`]), and
//! * `esched-opt`'s decomposed ADMM solver fans per-task subproblems
//!   across it every round ([`Pool::scoped_run`]).
//!
//! Worker-local state is generic: [`Pool::batch_map_with`] threads a
//! per-worker context built by a caller-supplied factory through every
//! job (`esched-core` and `esched-engine` pass `Scratch::new`), while
//! [`Pool::scoped_run`] is the context-free variant for borrowed-slice
//! fan-out where a panic should propagate instead of being collected.
//! Metric names keep the historical `esched.engine.*` prefix —
//! dashboards and the obs smoke tests predate the moves.
//!
//! Every pool thread re-enters the caller's [`RequestScope`], so spans and
//! flight records emitted inside a job carry the request that submitted
//! it, not request 0.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::ctx::{current_request, RequestScope};
use crate::{metric_counter, metric_gauge, metric_histogram};

/// A batch executor with a fixed worker count.
///
/// The pool is stateless between batches (workers and their contexts live
/// only for the duration of one batch call), so it is cheap to construct
/// and freely shareable.
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
}

/// A job submitted to the pool panicked. The index is the job's position
/// in the submitted batch; the message is the panic payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolError {
    /// Index of the failed job within its batch.
    pub index: usize,
    /// Stringified panic payload.
    pub message: String,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for PoolError {}

impl Default for Pool {
    fn default() -> Self {
        Self::new()
    }
}

impl Pool {
    /// A pool sized by the `ESCHED_ENGINE_THREADS` environment variable
    /// when set (and ≥ 1), else by the machine's available parallelism.
    pub fn new() -> Self {
        let threads = std::env::var("ESCHED_ENGINE_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Self { threads }
    }

    /// A pool with exactly `threads` workers (clamped to ≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The worker count batches will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run one job on the calling thread (no pool) with the same panic
    /// isolation as a batch, against a fresh context from `ctx`.
    pub fn run_one_with<C, T>(
        &self,
        ctx: impl Fn() -> C,
        f: impl FnOnce(&mut C) -> T,
    ) -> Result<T, PoolError> {
        let slot = std::cell::Cell::new(Some(f));
        run_job(
            &mut ctx(),
            &ctx,
            &|c: &mut C, ()| (slot.take().expect("run_one job invoked once"))(c),
            0,
            (),
        )
    }

    /// Generic batch execution: apply `f` to every item, in parallel,
    /// with a per-worker context built by `ctx` threaded through so
    /// pipelines reuse buffers across items.
    ///
    /// Results are ordered by item index. A panic inside `f` becomes an
    /// `Err(PoolError)` for that item only; the worker's context is
    /// rebuilt and the worker keeps draining the batch.
    pub fn batch_map_with<C, I, T, F, G>(
        &self,
        ctx: G,
        items: Vec<I>,
        f: F,
    ) -> Vec<Result<T, PoolError>>
    where
        I: Send,
        T: Send,
        F: Fn(&mut C, I) -> T + Sync,
        G: Fn() -> C + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(n).max(1);
        let _span = crate::span!(
            crate::Level::Debug,
            "engine_batch",
            jobs = n,
            workers = workers,
        );
        metric_counter!("esched.engine.batches").inc();
        metric_counter!("esched.engine.jobs").add(n as u64);
        metric_gauge!("esched.engine.workers").set(workers as f64);
        metric_gauge!("esched.engine.queue_depth").set_max(n as f64);
        let t0 = Instant::now();

        let out = if workers == 1 {
            // Serial fast path: same semantics, no pool overhead.
            let mut c = ctx();
            items
                .into_iter()
                .enumerate()
                .map(|(i, item)| run_job(&mut c, &ctx, &f, i, item))
                .collect()
        } else {
            self.run_pool(items, workers, &ctx, &f)
        };

        metric_histogram!("esched.engine.batch_wall_ns").record_duration(t0.elapsed());
        out
    }

    /// Fan borrowed jobs across the pool and return the results in
    /// submission order, re-raising the first (lowest-index) panic on the
    /// caller.
    ///
    /// This is the intra-solve primitive: callers hand out disjoint
    /// `&mut` slices of one working vector (deterministic chunking), each
    /// job computes independently of every other, and the merged output
    /// is byte-identical at any worker count. Unlike
    /// [`Pool::batch_map_with`] there is no per-worker context and no
    /// per-job error collection — a panicking subproblem means the solve
    /// itself is broken, so it propagates.
    pub fn scoped_run<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let out = self.batch_map_with(|| (), items, |(), item| f(item));
        out.into_iter()
            .map(|r| match r {
                Ok(v) => v,
                Err(e) => panic!("scoped_run job {} panicked: {}", e.index, e.message),
            })
            .collect()
    }

    /// Run `a` on the calling thread and `b` on one scoped thread, and
    /// return both results. With one worker the two run in sequence, `a`
    /// first. A panic in either closure is re-raised on the caller with
    /// its original payload, after both have finished.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA,
        B: FnOnce() -> RB + Send,
        RB: Send,
    {
        if self.threads == 1 {
            let ra = a();
            return (ra, b());
        }
        let request = current_request();
        std::thread::scope(|scope| {
            // `b`'s panic is caught inside its request scope, so only the
            // caller's scope stamps it, once, as on the serial path.
            let handle = scope.spawn(move || {
                let _scope = request.map(RequestScope::enter);
                catch_unwind(AssertUnwindSafe(b))
            });
            let ra = a();
            match handle.join().expect("join's second closure cannot unwind") {
                Ok(rb) => (ra, rb),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })
    }

    fn run_pool<C, I, T, F, G>(
        &self,
        items: Vec<I>,
        workers: usize,
        ctx: &G,
        f: &F,
    ) -> Vec<Result<T, PoolError>>
    where
        I: Send,
        T: Send,
        F: Fn(&mut C, I) -> T + Sync,
        G: Fn() -> C + Sync,
    {
        let n = items.len();
        let deques: Vec<Mutex<VecDeque<(usize, I)>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, item) in items.into_iter().enumerate() {
            deques[i % workers]
                .lock()
                .expect("fresh deque")
                .push_back((i, item));
        }
        let results: Mutex<Vec<Option<Result<T, PoolError>>>> =
            Mutex::new((0..n).map(|_| None).collect());
        let steals = AtomicU64::new(0);
        let request = current_request();

        std::thread::scope(|scope| {
            for w in 0..workers {
                let deques = &deques;
                let results = &results;
                let steals = &steals;
                scope.spawn(move || {
                    let _scope = request.map(RequestScope::enter);
                    let mut c = ctx();
                    let mut local: Vec<(usize, Result<T, PoolError>)> = Vec::new();
                    let worker_start = Instant::now();
                    let mut busy_ns = 0u64;
                    loop {
                        // Own deque first (front), then steal from the
                        // back of the neighbours'. Nothing is ever
                        // re-queued, so "every deque empty" terminates.
                        let mut job = deques[w].lock().expect("worker deque").pop_front();
                        if job.is_none() {
                            for off in 1..workers {
                                let victim = (w + off) % workers;
                                job = deques[victim].lock().expect("victim deque").pop_back();
                                if job.is_some() {
                                    steals.fetch_add(1, Ordering::Relaxed);
                                    crate::flight_event!("engine_steal", victim as u64);
                                    break;
                                }
                            }
                        }
                        let Some((index, item)) = job else { break };
                        let t_job = Instant::now();
                        local.push((index, run_job(&mut c, ctx, f, index, item)));
                        busy_ns += t_job.elapsed().as_nanos() as u64;
                    }
                    // Fraction of this worker's lifetime spent inside jobs
                    // (the rest is deque contention and steal probing).
                    // Dynamic name → cold registry path; once per worker
                    // per batch, not per job.
                    let wall_ns = worker_start.elapsed().as_nanos().max(1) as u64;
                    crate::metrics::gauge(&format!("esched.engine.worker_util.w{w}"))
                        .set(busy_ns as f64 / wall_ns as f64);
                    let mut slots = results.lock().expect("results vector");
                    for (index, result) in local {
                        slots[index] = Some(result);
                    }
                });
            }
        });

        let stolen = steals.load(Ordering::Relaxed);
        metric_counter!("esched.engine.steals").add(stolen);
        metric_gauge!("esched.engine.steal_rate").set(stolen as f64 / n as f64);
        results
            .into_inner()
            .expect("pool threads joined")
            .into_iter()
            .map(|slot| slot.expect("every job index is filled exactly once"))
            .collect()
    }
}

/// Run one job with panic isolation; used by both the serial path and the
/// pool workers.
fn run_job<C, I, T, F, G>(c: &mut C, ctx: &G, f: &F, index: usize, item: I) -> Result<T, PoolError>
where
    F: Fn(&mut C, I) -> T,
    G: Fn() -> C,
{
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| f(c, item)));
    metric_histogram!("esched.engine.job_wall_ns").record_duration(t0.elapsed());
    match result {
        Ok(value) => Ok(value),
        Err(payload) => {
            metric_counter!("esched.engine.panics").inc();
            crate::flight_event!("engine_job_panic", index as u64);
            // Post-mortem flight dump: a no-op unless ESCHED_FLIGHT_DIR
            // is set, so tests that expect panics don't spray files.
            let _ = crate::recorder::dump_post_mortem("engine job panic");
            // The panic may have left half-taken buffers behind; rebuild
            // the context rather than reason about their state.
            *c = ctx();
            Err(PoolError {
                index,
                message: panic_message(payload),
            })
        }
    }
}

/// Stringify a panic payload (the common `&str` / `String` cases).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_map_orders_results_by_submission_index() {
        let pool = Pool::with_threads(4);
        let items: Vec<usize> = (0..64).collect();
        let out = pool.batch_map_with(|| (), items, |_c, i| i * 2);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), i * 2);
        }
    }

    #[test]
    fn panicking_job_is_isolated_and_context_rebuilt() {
        let pool = Pool::with_threads(2);
        // The context counts jobs it has survived; a panic rebuilds it.
        let out = pool.batch_map_with(
            || 0usize,
            vec![0usize, 1, 2],
            |seen, i| {
                *seen += 1;
                if i == 1 {
                    panic!("boom {i}");
                }
                i
            },
        );
        assert_eq!(*out[0].as_ref().unwrap(), 0);
        assert_eq!(out[1].as_ref().unwrap_err().index, 1);
        assert!(out[1].as_ref().unwrap_err().message.contains("boom"));
        assert_eq!(*out[2].as_ref().unwrap(), 2);
    }

    #[test]
    fn run_one_catches_panics() {
        let pool = Pool::with_threads(1);
        assert_eq!(pool.run_one_with(|| (), |_c| 7).unwrap(), 7);
        let err = pool
            .run_one_with(|| (), |_c: &mut ()| -> () { panic!("solo") })
            .unwrap_err();
        assert!(err.message.contains("solo"));
    }

    #[test]
    fn scoped_run_merges_disjoint_slices_identically_at_any_width() {
        let reference: Vec<f64> = (0..1000).map(|k| (k as f64).sin()).collect();
        let mut outputs = Vec::new();
        for threads in [1usize, 4, 8] {
            let pool = Pool::with_threads(threads);
            let mut x = vec![0.0f64; 1000];
            {
                let mut rest = x.as_mut_slice();
                let mut jobs = Vec::new();
                let mut base = 0usize;
                while !rest.is_empty() {
                    let take = rest.len().min(64);
                    let (head, tail) = rest.split_at_mut(take);
                    jobs.push((base, head));
                    rest = tail;
                    base += take;
                }
                pool.scoped_run(jobs, |(base, slice): (usize, &mut [f64])| {
                    for (k, v) in slice.iter_mut().enumerate() {
                        *v = ((base + k) as f64).sin();
                    }
                });
            }
            outputs.push(x);
        }
        for x in &outputs {
            assert_eq!(
                x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn join_returns_both_results_at_any_width() {
        for threads in [1usize, 2, 4] {
            let pool = Pool::with_threads(threads);
            let mut left = Vec::new();
            let (a, b) = pool.join(
                || {
                    left.push(1);
                    "a"
                },
                || (0..100u64).sum::<u64>(),
            );
            assert_eq!((a, b, left), ("a", 4950, vec![1]));
        }
    }

    #[test]
    fn join_runs_in_sequence_on_one_worker() {
        let order = Mutex::new(Vec::new());
        Pool::with_threads(1).join(
            || order.lock().unwrap().push('a'),
            || order.lock().unwrap().push('b'),
        );
        assert_eq!(order.into_inner().unwrap(), ['a', 'b']);
    }

    #[test]
    fn join_reraises_either_panic_on_the_caller() {
        for threads in [1usize, 2] {
            let pool = Pool::with_threads(threads);
            let from_b = catch_unwind(AssertUnwindSafe(|| {
                pool.join(|| 1, || -> u8 { panic!("second job failed") })
            }))
            .unwrap_err();
            assert_eq!(panic_message(from_b), "second job failed");
            let from_a = catch_unwind(AssertUnwindSafe(|| {
                pool.join(|| -> u8 { panic!("first job failed") }, || 2)
            }))
            .unwrap_err();
            assert_eq!(panic_message(from_a), "first job failed");
        }
    }

    #[test]
    #[should_panic(expected = "scoped_run job 1 panicked")]
    fn scoped_run_propagates_the_first_panic() {
        let pool = Pool::with_threads(2);
        let _ = pool.scoped_run(vec![0usize, 1, 2], |i| {
            if i == 1 {
                panic!("subproblem diverged");
            }
            i
        });
    }
}
