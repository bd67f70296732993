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
//! * `esched-opt`'s decomposed ADMM solver runs every round of one solve
//!   on a worker team started once for that solve ([`Pool::team`]).
//!
//! Worker-local state is generic: [`Pool::batch_map_with`] threads a
//! per-worker context built by a caller-supplied factory through every
//! job (`esched-core` and `esched-engine` pass `Scratch::new`), while a
//! [`Team`] keeps the same workers across many short phases, where
//! starting threads per phase would cost more than the phase. Metric
//! names keep the historical `esched.engine.*` prefix — dashboards and
//! the obs smoke tests predate the moves.
//!
//! Every pool thread re-enters the caller's [`RequestScope`], so spans and
//! flight records emitted inside a job carry the request that submitted
//! it, not request 0.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

use crate::ctx::{current_request, RequestScope};
use crate::{metric_counter, metric_gauge, metric_histogram};

/// A batch executor with a fixed worker count.
///
/// The pool holds no threads: workers and their contexts live only for
/// the duration of one call (a batch, a join, or a team's body), so it
/// is cheap to construct and freely shareable.
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

    /// Run `body` on the calling thread with a team of
    /// [`Pool::threads`] members, and return its result.
    ///
    /// The team's `threads − 1` workers start once, inside one
    /// `std::thread::scope`, and serve until `body` returns. `body` drives
    /// any number of phases through [`Team::run`]: in each, every member
    /// calls `work(member, phase)` once, the calling thread as member 0.
    /// `work` is fixed for the team's lifetime, so per-phase inputs reach
    /// the members through data it borrows, which the caller rewrites
    /// between phases. A member waiting for the next phase, or the caller
    /// waiting for the members, polls for about 200 µs, yielding its core
    /// between polls, and then parks: an oversubscribed team does not
    /// livelock, and members do not burn a core while the caller works
    /// alone.
    ///
    /// With one thread the team runs inline and spawns nothing. Workers
    /// re-enter the caller's [`RequestScope`]. A member's panic is caught,
    /// the other members finish the phase, and [`Team::run`] re-raises it
    /// on the caller with its payload (member 0's first, then the lowest
    /// member's). Every worker has been joined when `team` returns or
    /// unwinds, so no thread outlives the call.
    pub fn team<P, W, R>(&self, work: W, body: impl FnOnce(&Team<'_, P>) -> R) -> R
    where
        P: Copy + Send + Sync,
        W: Fn(usize, P) + Sync,
    {
        let hand = Handoff::default();
        let request = current_request();
        let caller = std::thread::current();
        let others = self.threads - 1;
        std::thread::scope(|scope| {
            let mut team = Team {
                hand: &hand,
                work: &work,
                workers: Vec::with_capacity(others),
            };
            let mut handles = Vec::with_capacity(others);
            // A failed spawn unwinds here too, so the workers already
            // started are stopped before the scope joins them.
            let out = catch_unwind(AssertUnwindSafe(|| {
                for member in 1..self.threads {
                    let (hand, work, caller) = (&hand, &work, &caller);
                    let handle = scope.spawn(move || {
                        let _scope = request.map(RequestScope::enter);
                        hand.serve(member, work, caller, others);
                    });
                    team.workers.push(handle.thread().clone());
                    handles.push(handle);
                }
                body(&team)
            }));
            hand.stop.store(true, Ordering::SeqCst);
            team.start();
            for handle in handles {
                handle.join().expect("team members catch their own panics");
            }
            out.unwrap_or_else(|payload| resume_unwind(payload))
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

/// How long a waiting team member polls before it parks: about one ADMM
/// round on a few hundred tasks, so a running solve's members stay awake
/// across its hand-offs and sleep through anything longer.
const TEAM_SPIN: Duration = Duration::from_micros(200);

/// A worker team started by [`Pool::team`]; `body` drives its phases.
pub struct Team<'a, P> {
    hand: &'a Handoff<P>,
    work: &'a (dyn Fn(usize, P) + Sync),
    workers: Vec<Thread>,
}

impl<P: Copy> Team<'_, P> {
    /// Run one phase: every member calls `work(member, phase)`, the caller
    /// as member 0, and this returns once all have finished. A member's
    /// panic is re-raised here with its payload, after the others have
    /// finished the phase.
    pub fn run(&self, phase: P) {
        if self.workers.is_empty() {
            return (self.work)(0, phase);
        }
        let hand = self.hand;
        *hand.phase.write().expect("no lock is held across a panic") = Some(phase);
        hand.done.store(0, Ordering::SeqCst);
        self.start();
        let mine = catch_unwind(AssertUnwindSafe(|| (self.work)(0, phase)));
        wait_for(|| hand.done.load(Ordering::SeqCst) == self.workers.len());
        let theirs =
            std::mem::take(&mut *hand.panics.lock().expect("no lock is held across a panic"));
        let first = mine.err().or_else(|| {
            theirs
                .into_iter()
                .min_by_key(|&(member, _)| member)
                .map(|(_, payload)| payload)
        });
        if let Some(payload) = first {
            resume_unwind(payload);
        }
    }

    /// Bump the epoch, which releases every worker waiting for it.
    fn start(&self) {
        self.hand.epoch.fetch_add(1, Ordering::SeqCst);
        for worker in &self.workers {
            worker.unpark();
        }
    }
}

/// The state a team's caller and workers hand phases over through. The
/// counters are `SeqCst`: a bump of `epoch` publishes the phase argument
/// and the caller's inputs to the workers, and the last increment of
/// `done` publishes the workers' outputs to the caller.
struct Handoff<P> {
    /// Phases started so far, plus one once the team stops.
    epoch: AtomicU64,
    /// The argument of the running phase.
    phase: RwLock<Option<P>>,
    /// Workers that have finished the running phase.
    done: AtomicUsize,
    /// Set before the last epoch bump: the workers exit instead.
    stop: AtomicBool,
    /// Panics caught in the running phase, with their member index.
    panics: Mutex<Vec<(usize, Box<dyn Any + Send>)>>,
}

impl<P> Default for Handoff<P> {
    fn default() -> Self {
        Self {
            epoch: AtomicU64::new(0),
            phase: RwLock::new(None),
            done: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            panics: Mutex::new(Vec::new()),
        }
    }
}

impl<P: Copy> Handoff<P> {
    /// A worker's loop: wait for each phase, run `member`'s share of it,
    /// and wake the caller when the last of the `others` finishes.
    fn serve(
        &self,
        member: usize,
        work: &(dyn Fn(usize, P) + Sync),
        caller: &Thread,
        others: usize,
    ) {
        let mut seen = 0u64;
        loop {
            wait_for(|| self.epoch.load(Ordering::SeqCst) != seen);
            seen += 1;
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            let phase = self
                .phase
                .read()
                .expect("no lock is held across a panic")
                .expect("a started phase has an argument");
            // Caught inside this thread's request scope, so only the
            // caller's scope stamps the panic, once, as on the inline path.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| work(member, phase))) {
                self.panics
                    .lock()
                    .expect("no lock is held across a panic")
                    .push((member, payload));
            }
            if self.done.fetch_add(1, Ordering::SeqCst) + 1 == others {
                caller.unpark();
            }
        }
    }
}

/// Poll `ready` for up to [`TEAM_SPIN`], yielding the core between polls
/// to any thread that has work, then park until it holds. The thread that
/// makes `ready` true unparks this one afterwards, and an unpark that
/// comes first makes the next park return at once.
fn wait_for(ready: impl Fn() -> bool) {
    let start = Instant::now();
    while !ready() {
        if start.elapsed() < TEAM_SPIN {
            std::thread::yield_now();
        } else {
            std::thread::park();
        }
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

    /// Counts, through a thread-local's destructor, the threads it was
    /// set on that have exited. Each test passes its own counter.
    struct ExitMark(&'static AtomicUsize);

    impl Drop for ExitMark {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    thread_local! {
        static EXIT_MARK: std::cell::RefCell<Option<ExitMark>> = const { std::cell::RefCell::new(None) };
    }

    fn mark_exit(counter: &'static AtomicUsize) {
        EXIT_MARK.with(|m| {
            m.borrow_mut().get_or_insert_with(|| ExitMark(counter));
        });
    }

    #[test]
    fn team_members_fill_disjoint_parts_identically_at_any_width() {
        let reference: Vec<u64> = (0..3000)
            .map(|k| ((k % 1000) as f64 + (k / 1000) as f64).sin().to_bits())
            .collect();
        for threads in [1usize, 2, 4, 8] {
            // The caller rewrites `shift` between phases; member p fills
            // its cut of 1000 values, which the caller gathers.
            let cuts: Vec<usize> = (0..=threads).map(|p| p * 1000 / threads).collect();
            let shift = RwLock::new(0.0f64);
            let parts: Vec<Mutex<Vec<f64>>> = (0..threads)
                .map(|p| Mutex::new(vec![0.0; cuts[p + 1] - cuts[p]]))
                .collect();
            let work = |member: usize, (): ()| {
                let shift = *shift.read().unwrap();
                let mut part = parts[member].lock().unwrap();
                for (k, v) in (cuts[member]..).zip(part.iter_mut()) {
                    *v = (k as f64 + shift).sin();
                }
            };
            let got = Pool::with_threads(threads).team(work, |team| {
                let mut got = Vec::new();
                for round in 0..3 {
                    *shift.write().unwrap() = round as f64;
                    team.run(());
                    for part in &parts {
                        got.extend(part.lock().unwrap().iter().map(|v| v.to_bits()));
                    }
                }
                got
            });
            assert_eq!(got, reference, "{threads} members");
        }
    }

    #[test]
    fn team_of_one_runs_inline() {
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        let work = |member: usize, phase: usize| {
            seen.lock()
                .unwrap()
                .push((member, phase, std::thread::current().id()));
        };
        Pool::with_threads(1).team(work, |team| {
            for phase in 0..5 {
                team.run(phase);
            }
        });
        let want: Vec<_> = (0..5).map(|phase| (0, phase, caller)).collect();
        assert_eq!(seen.into_inner().unwrap(), want);
    }

    #[test]
    fn team_workers_have_exited_when_the_call_returns() {
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        let caller = std::thread::current().id();
        let work = |member: usize, (): ()| {
            if member > 0 {
                assert_ne!(std::thread::current().id(), caller);
                mark_exit(&EXITED);
            }
        };
        Pool::with_threads(4).team(work, |team| {
            team.run(());
            team.run(());
        });
        assert_eq!(EXITED.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn team_reraises_a_member_panic_after_every_member_stopped() {
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        let finished = AtomicUsize::new(0);
        let work = |member: usize, phase: usize| {
            if member > 0 {
                mark_exit(&EXITED);
            }
            if phase == 5 && member == 2 {
                panic!("member 2 failed");
            }
            if phase == 5 {
                finished.fetch_add(1, Ordering::SeqCst);
            }
        };
        let mut ran = 0;
        let payload = catch_unwind(AssertUnwindSafe(|| {
            Pool::with_threads(4).team(work, |team| {
                for phase in 0..10 {
                    team.run(phase);
                    ran += 1;
                }
            })
        }))
        .unwrap_err();
        assert_eq!(panic_message(payload), "member 2 failed");
        assert_eq!(ran, 5, "the failing phase returned");
        assert_eq!(finished.load(Ordering::SeqCst), 3, "the others finished it");
        assert_eq!(
            EXITED.load(Ordering::SeqCst),
            3,
            "a worker outlived the call"
        );
    }

    #[test]
    fn team_reraises_the_lowest_members_panic() {
        for (failing, want) in [(vec![3, 1], "member 1"), (vec![2, 0], "member 0")] {
            let work = |member: usize, (): ()| {
                if failing.contains(&member) {
                    panic!("member {member}");
                }
            };
            let payload = catch_unwind(AssertUnwindSafe(|| {
                Pool::with_threads(4).team(work, |team| team.run(()))
            }))
            .unwrap_err();
            assert_eq!(panic_message(payload), want);
        }
    }

    /// CPU time of the calling thread in clock ticks (utime + stime), where
    /// Linux's `/proc` reports it.
    fn thread_cpu_ticks() -> Option<u64> {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th of the whole line.
        let mut rest = stat[stat.rfind(')')? + 1..].split_whitespace().skip(11);
        Some(rest.next()?.parse::<u64>().ok()? + rest.next()?.parse::<u64>().ok()?)
    }

    #[test]
    fn team_members_park_while_the_caller_works_alone() {
        let ticks = Mutex::new(Vec::new());
        let work = |member: usize, (): ()| {
            if member == 1 {
                ticks.lock().unwrap().push(thread_cpu_ticks());
            }
        };
        Pool::with_threads(2).team(work, |team| {
            team.run(());
            std::thread::sleep(Duration::from_millis(300));
            team.run(());
        });
        let ticks = ticks.into_inner().unwrap();
        if let [Some(before), Some(after)] = ticks[..] {
            // A member still polling would run for most of the 300 ms,
            // 30 ticks at the usual 100 per second.
            assert!(after - before <= 5, "member 1 ran {} ticks", after - before);
        }
    }

    /// Eight members on fewer cores: every phase needs every member to
    /// run, so members that spin instead of parking hold the cores from
    /// the ones that have work, and 10,000 phases take minutes instead
    /// of about a second.
    #[test]
    fn oversubscribed_team_parks_instead_of_spinning() {
        let calls = AtomicUsize::new(0);
        let work = |_member: usize, (): ()| {
            calls.fetch_add(1, Ordering::Relaxed);
        };
        let t0 = Instant::now();
        Pool::with_threads(8).team(work, |team| {
            for _ in 0..10_000 {
                team.run(());
            }
        });
        let wall = t0.elapsed();
        assert_eq!(calls.into_inner(), 80_000);
        assert!(wall < Duration::from_secs(5), "10,000 phases took {wall:?}");
    }
}
