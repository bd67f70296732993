//! The discrete-event simulation engine.
//!
//! [`simulate`] plays a [`Schedule`] against a [`TaskSet`] under a power
//! model: segment boundaries become events, per-core state machines
//! integrate energy, work is credited to tasks as segments complete, and
//! deadline events check that every task received its requirement in time.
//!
//! The engine deliberately re-measures everything the analytic layer
//! already "knows" — energy, work, legality — so the two can be
//! cross-checked: if the algebra in `esched-core` and the event mechanics
//! here ever disagree, a test fails.
//!
//! # Event order
//!
//! All events are sorted once, before the run, by time, then rank (ends,
//! deadlines, releases, starts), then segment index (for segment
//! boundaries) or task id (for releases and deadlines). −0.0 and +0.0 are
//! the same time. The sort merges runs that a canonical schedule already
//! has in order (see [`crate::event`]), but its result does not depend on
//! them: any segment order gives the same event order. The engine then
//! takes the events in *batches* of approximately equal times and
//! processes each batch by rank, then time; events tied on both keep the
//! sorted order. So two starts on one idle core at the same instant
//! resolve in segment-list order: the earlier segment runs and the later
//! one is the [`Conflict`].

use crate::event::{sorted_events, Event, EventKind};
use crate::machine::Core;
use crate::metrics::{Conflict, SimReport};
use esched_types::validate::WORK_TOL;
use esched_types::{PowerModel, Schedule, TaskSet};

/// One entry of the execution log collected by [`simulate_traced`].
#[derive(Debug, Clone, PartialEq)]
pub struct LoggedEvent {
    /// When it happened.
    pub time: f64,
    /// Human/machine-readable kind: `start`, `end`, `release`, `deadline`,
    /// `conflict`, `miss`.
    pub kind: String,
    /// The task involved.
    pub task: usize,
    /// The core involved (usize::MAX when not core-specific).
    pub core: usize,
}

/// Render a log as CSV (`time,kind,task,core`).
pub fn log_to_csv(log: &[LoggedEvent]) -> String {
    let mut out = String::from("time,kind,task,core\n");
    for e in log {
        let core = if e.core == usize::MAX {
            String::new()
        } else {
            e.core.to_string()
        };
        out.push_str(&format!("{:.9},{},{},{}\n", e.time, e.kind, e.task, core));
    }
    out
}

/// Execute `schedule` for `tasks` under `model` and measure the outcome.
///
/// # Examples
///
/// ```
/// use esched_sim::simulate;
/// use esched_types::{PolynomialPower, Schedule, Segment, TaskSet};
///
/// let tasks = TaskSet::from_triples(&[(0.0, 4.0, 2.0)]);
/// let mut s = Schedule::new(1);
/// s.push(Segment::new(0, 0, 0.0, 4.0, 0.5));
/// let report = simulate(&s, &tasks, &PolynomialPower::cubic());
/// assert!(report.is_clean());
/// assert!((report.energy - 0.5_f64.powi(3) * 4.0).abs() < 1e-12);
/// ```
///
/// # Panics
/// If a segment boundary is not finite (a [`Segment`](esched_types::Segment)
/// whose public interval was edited after construction), or if a segment
/// runs on a core at or past `schedule.cores`, which `validate_schedule`
/// reports as a `BadCore` violation instead.
pub fn simulate<P: PowerModel>(schedule: &Schedule, tasks: &TaskSet, model: &P) -> SimReport {
    run(schedule, tasks, model, None)
}

/// [`simulate`], additionally returning the time-ordered execution log —
/// every start/end/release/deadline/conflict/miss as it was processed.
///
/// # Panics
/// As [`simulate`]: on a non-finite segment boundary, or on a segment on a
/// core at or past `schedule.cores`.
pub fn simulate_traced<P: PowerModel>(
    schedule: &Schedule,
    tasks: &TaskSet,
    model: &P,
) -> (SimReport, Vec<LoggedEvent>) {
    let mut log = Vec::new();
    let report = run(schedule, tasks, model, Some(&mut log));
    (report, log)
}

/// `last_core` entry of a task that has not started yet.
const NO_CORE: u32 = u32::MAX;

/// The engine's mutable per-core state, and the work it has credited.
struct State {
    cores: Vec<Core>,
    /// State transitions per core, in both directions.
    transitions: Vec<usize>,
    /// Which segment each core is currently executing. An end event may
    /// only stop the core when it matches the running segment: a segment
    /// shorter than the batching tolerance has its start *and* end inside
    /// one batch, and the rank rule alone would process that end first —
    /// while the core is idle (consuming it, so the segment later runs
    /// unterminated) or running someone else entirely.
    running: Vec<Option<usize>>,
    /// Work delivered to each task so far.
    work_done: Vec<f64>,
}

impl State {
    /// Stop `core` at `time`, crediting the measured work to the task the
    /// machine reports. Returns that task, if the core was running.
    fn stop<P: PowerModel>(&mut self, core: usize, time: f64, model: &P) -> Option<usize> {
        self.running[core] = None;
        let (task, work) = self.cores[core].stop(time, model)?;
        self.transitions[core] += 1;
        if let Some(done) = self.work_done.get_mut(task) {
            *done += work;
        }
        Some(task)
    }

    /// End `task`'s segment on `core`. The machine must be running that
    /// task: every caller first checks that `core` runs the segment.
    fn end<P: PowerModel>(&mut self, core: usize, task: usize, time: f64, model: &P) {
        let stopped = self.stop(core, time, model).unwrap_or(task);
        debug_assert_eq!(stopped, task, "segment end for a different task");
    }
}

fn run<P: PowerModel>(
    schedule: &Schedule,
    tasks: &TaskSet,
    model: &P,
    mut log: Option<&mut Vec<LoggedEvent>>,
) -> SimReport {
    let _span = esched_obs::span!(
        esched_obs::Level::Info,
        "simulate",
        n_segments = schedule.len(),
        n_tasks = tasks.len(),
        cores = schedule.cores,
    );
    let events = sorted_events(schedule, tasks.tasks());
    let segments = schedule.segments();

    let mut state = State {
        cores: (0..schedule.cores).map(|_| Core::default()).collect(),
        transitions: vec![0; schedule.cores],
        running: vec![None; schedule.cores],
        work_done: vec![0.0; tasks.len()],
    };
    let mut misses: Vec<usize> = Vec::new();
    let mut conflicts: Vec<Conflict> = Vec::new();
    // Starts the engine rejected, by segment index; their matching end
    // events must not stop the victim that is legitimately running.
    let mut rejected = vec![false; schedule.len()];
    // Counters surfaced in the report. All events are listed up front, so
    // the queue's high-water mark is the length of that list.
    let queue_peak = events.len();
    let mut batches = 0u64;
    let mut preemptions = 0usize;
    let mut migrations = 0usize;
    // Last core each task ran on (`NO_CORE` before its first start), for
    // resume/migration detection.
    let mut last_core = vec![NO_CORE; tasks.len()];
    let mut emit = |time: f64, kind: &str, task: usize, core: usize| {
        if let Some(l) = log.as_deref_mut() {
            l.push(LoggedEvent {
                time,
                kind: kind.to_string(),
                task,
                core,
            });
        }
    };

    let horizon = tasks.horizon();
    // Events are processed in *batches* of approximately equal timestamps:
    // segment boundaries produced by different arithmetic paths (e.g. YDS
    // timeline compression vs. direct packing) can differ by a few ulps,
    // and a start must not race ahead of the end it hands over from. Within
    // a batch the EventKind rank (ends → deadlines → releases → starts)
    // decides the order; the sorted list is already in that order for
    // *exactly* equal times, so batching only needs to collect the
    // near-equal ones and re-sort by rank.
    let mut batch: Vec<Event> = Vec::new();
    // Segments whose end came while their core was not running them: their
    // start is later in the same batch (the segment is shorter than the
    // batching tolerance). The end is retried once the start has been
    // processed — just before a handover start that needs the core, or at
    // the end of the batch, which drains the list.
    let mut deferred_ends: Vec<usize> = Vec::new();
    let mut cursor = 0;
    while cursor < events.len() {
        batch.clear();
        let batch_time = events[cursor].time();
        while let Some(key) = events.get(cursor) {
            if !esched_types::time::approx_eq(key.time(), batch_time) {
                break;
            }
            batch.push(key.decode(schedule, tasks));
            cursor += 1;
        }
        batches += 1;
        // Rank first: an end one ulp *after* a start at the "same" instant
        // must still be processed before it. The batch is in (time, rank)
        // order, so when its ranks already ascend this stable sort would
        // change nothing — the common case, single events included.
        if !batch.is_sorted_by_key(|e| e.kind.rank()) {
            batch.sort_by(|a, b| {
                let key = |e: &Event| (e.kind.rank(), e.time);
                key(a).partial_cmp(&key(b)).expect("finite")
            });
        }
        for idx in 0..batch.len() {
            let ev = batch[idx];
            match ev.kind {
                EventKind::SegmentEnd {
                    core,
                    segment,
                    task,
                } => {
                    if rejected[segment] {
                        continue;
                    }
                    if state.running[core] != Some(segment) {
                        deferred_ends.push(segment);
                        continue;
                    }
                    emit(ev.time, "end", task, core);
                    state.end(core, task, ev.time, model);
                }
                EventKind::Deadline { task } => {
                    emit(ev.time, "deadline", task, usize::MAX);
                    let required = tasks.get(task).wcec;
                    // Segment ends at this instant were processed first (rank 0
                    // before rank 1, and near-equal times share a batch), so
                    // `work_done` already credits any segment finishing exactly
                    // at the deadline. A shortfall beyond the validator's
                    // WORK_TOL — the same relative-plus-absolute rule
                    // `validate_schedule` applies — is therefore a real miss,
                    // never a boundary-rounding artifact.
                    let mut shortfall = required - state.work_done[task];
                    debug_assert!(
                        shortfall.is_finite(),
                        "non-finite work accounting for task {task}"
                    );
                    if shortfall > required * WORK_TOL + WORK_TOL {
                        // One exception: a dust segment whose start AND end
                        // share this batch is ranked *after* the deadline
                        // (starts are rank 3), so its work is not yet in
                        // `work_done` even though it completes at — within
                        // tolerance of — the deadline. The validator counts
                        // such segments; credit them before the verdict.
                        let pending: f64 = batch[idx + 1..]
                            .iter()
                            .filter_map(|e| match e.kind {
                                EventKind::SegmentStart {
                                    task: t, segment, ..
                                } if t == task => {
                                    let seg = &segments[segment];
                                    esched_types::time::approx_le(seg.interval.end, ev.time)
                                        .then(|| seg.work())
                                }
                                _ => None,
                            })
                            .sum();
                        shortfall -= pending;
                    }
                    if shortfall > required * WORK_TOL + WORK_TOL {
                        emit(ev.time, "miss", task, usize::MAX);
                        misses.push(task);
                    }
                }
                // Running before release is a window violation the validator
                // reports; the simulator executes it anyway (hardware would),
                // and deadline accounting still works.
                EventKind::Release { task } => emit(ev.time, "release", task, usize::MAX),
                EventKind::SegmentStart {
                    core,
                    task,
                    segment,
                    freq,
                } => {
                    // A deferred end for the segment this core is running is a
                    // handover boundary: it must fire before this start can
                    // take the core.
                    if let Some(pos) = deferred_ends
                        .iter()
                        .position(|&s| segments[s].core == core && state.running[core] == Some(s))
                    {
                        let ended = &segments[deferred_ends.remove(pos)];
                        emit(ended.interval.end, "end", ended.task, core);
                        state.end(core, ended.task, ended.interval.end, model);
                    }
                    match state.cores[core].start(task, freq, ev.time) {
                        Ok(()) => {
                            emit(ev.time, "start", task, core);
                            state.running[core] = Some(segment);
                            state.transitions[core] += 1;
                            if let Some(last) = last_core.get_mut(task) {
                                let core = u32::try_from(core).expect("core index fits in u32");
                                let prev = std::mem::replace(last, core);
                                if prev != NO_CORE {
                                    preemptions += 1;
                                    migrations += usize::from(prev != core);
                                }
                            }
                        }
                        Err(running) => {
                            emit(ev.time, "conflict", task, core);
                            conflicts.push(Conflict {
                                time: ev.time,
                                core,
                                running,
                                rejected: task,
                            });
                            rejected[segment] = true;
                        }
                    }
                }
            }
        }
        // Ends still deferred: the batch's starts have all run, so either
        // the segment is now the running one (stop it), was rejected when
        // its start conflicted (drop it silently, like any rejected end),
        // or the schedule is malformed (log the end, leave the core alone
        // — the horizon flush settles the energy/work books).
        for segment in deferred_ends.drain(..) {
            let seg = &segments[segment];
            if rejected[segment] {
                continue;
            }
            emit(seg.interval.end, "end", seg.task, seg.core);
            if state.running[seg.core] == Some(segment) {
                state.end(seg.core, seg.task, seg.interval.end, model);
            }
        }
    }

    // Flush any cores still active (segments ending exactly at horizon end
    // have been processed; this guards malformed schedules).
    let end_time = schedule.makespan().max(horizon.end);
    for core in 0..schedule.cores {
        state.stop(core, end_time, model);
    }

    misses.sort_unstable();
    misses.dedup();
    esched_obs::metric_counter!("esched.sim.runs").inc();
    esched_obs::metric_counter!("esched.sim.event_batches").add(batches);
    esched_obs::metric_counter!("esched.sim.events").add(queue_peak as u64);
    esched_obs::metric_counter!("esched.sim.preemptions").add(preemptions as u64);
    esched_obs::metric_counter!("esched.sim.migrations").add(migrations as u64);
    esched_obs::metric_gauge!("esched.sim.queue_peak").set_max(queue_peak as f64);
    esched_obs::event!(
        esched_obs::Level::Debug,
        "simulation done",
        queue_peak = queue_peak,
        preemptions = preemptions,
        migrations = migrations,
        misses = misses.len(),
        conflicts = conflicts.len(),
    );
    SimReport {
        energy: state.cores.iter().map(|c| c.energy).sum(),
        core_energy: state.cores.iter().map(|c| c.energy).collect(),
        core_busy: state.cores.iter().map(|c| c.busy).collect(),
        work_done: state.work_done,
        deadline_misses: misses,
        conflicts,
        activations: state.cores.iter().map(|c| c.activations).collect(),
        core_transitions: state.transitions,
        queue_peak,
        preemptions,
        migrations,
        horizon: (horizon.start, horizon.end),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esched_types::{PolynomialPower, Schedule, Segment, TaskSet};

    fn tasks3() -> TaskSet {
        TaskSet::from_triples(&[(0.0, 12.0, 4.0), (2.0, 10.0, 2.0), (4.0, 8.0, 4.0)])
    }

    #[test]
    fn clean_schedule_simulates_cleanly() {
        // τ2 exclusively on core 1 during [4,8] at f = 1; τ0, τ1 on core 0.
        let mut s = Schedule::new(2);
        s.push(Segment::new(0, 0, 0.0, 4.0, 0.5));
        s.push(Segment::new(0, 0, 8.0, 12.0, 0.5));
        s.push(Segment::new(1, 0, 4.0, 8.0, 0.5));
        s.push(Segment::new(2, 1, 4.0, 8.0, 1.0));
        let p = PolynomialPower::cubic();
        let r = simulate(&s, &tasks3(), &p);
        assert!(r.is_clean(), "{:?}", r);
        assert!((r.work_done[0] - 4.0).abs() < 1e-9);
        assert!((r.work_done[1] - 2.0).abs() < 1e-9);
        assert!((r.work_done[2] - 4.0).abs() < 1e-9);
        // Energy agrees with the analytic sum.
        assert!((r.energy - s.energy(&p)).abs() < 1e-9);
    }

    #[test]
    fn detects_underserved_deadline() {
        let mut s = Schedule::new(1);
        s.push(Segment::new(0, 0, 0.0, 2.0, 1.0)); // 2 of 4 work
        let ts = TaskSet::from_triples(&[(0.0, 12.0, 4.0)]);
        let r = simulate(&s, &ts, &PolynomialPower::cubic());
        assert_eq!(r.deadline_misses, vec![0]);
    }

    #[test]
    fn work_after_deadline_does_not_count() {
        let mut s = Schedule::new(1);
        s.push(Segment::new(0, 0, 0.0, 2.0, 1.0));
        s.push(Segment::new(0, 0, 12.0, 14.0, 1.0)); // too late
        let ts = TaskSet::from_triples(&[(0.0, 12.0, 4.0)]);
        let r = simulate(&s, &ts, &PolynomialPower::cubic());
        assert_eq!(r.deadline_misses, vec![0]);
        // Both segments still consumed energy.
        assert!((r.work_done[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn conflicting_starts_are_rejected_and_reported() {
        let mut s = Schedule::new(1);
        s.push(Segment::new(0, 0, 0.0, 4.0, 1.0));
        s.push(Segment::new(1, 0, 2.0, 5.0, 1.0)); // overlaps on core 0
        let ts = TaskSet::from_triples(&[(0.0, 12.0, 4.0), (0.0, 12.0, 3.0)]);
        let r = simulate(&s, &ts, &PolynomialPower::cubic());
        assert_eq!(r.conflicts.len(), 1);
        assert_eq!(r.conflicts[0].running, 0);
        assert_eq!(r.conflicts[0].rejected, 1);
        // The victim keeps running its full segment.
        assert!((r.work_done[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn back_to_back_handover_works() {
        let mut s = Schedule::new(1);
        s.push(Segment::new(0, 0, 0.0, 4.0, 1.0));
        s.push(Segment::new(1, 0, 4.0, 8.0, 0.5));
        let ts = TaskSet::from_triples(&[(0.0, 12.0, 4.0), (0.0, 12.0, 2.0)]);
        let r = simulate(&s, &ts, &PolynomialPower::cubic());
        assert!(r.is_clean(), "{:?}", r.conflicts);
        assert_eq!(r.activations[0], 2);
    }

    /// `time kind task` of each logged event.
    fn rows(log: &[LoggedEvent]) -> String {
        let rows: Vec<String> = log
            .iter()
            .map(|e| format!("{} {} {}", e.time, e.kind, e.task))
            .collect();
        rows.join(", ")
    }

    #[test]
    fn traced_run_logs_events_in_order() {
        // Time order, then ends → deadlines → releases → starts. Task ids
        // and segment indices run against both, so only the event sort can
        // put them right.
        let mut s = Schedule::new(1);
        s.push(Segment::new(0, 0, 5.0, 10.0, 1.0));
        s.push(Segment::new(1, 0, 1.0, 5.0, 1.0));
        let ts = TaskSet::from_triples(&[(5.0, 10.0, 5.0), (1.0, 5.0, 4.0)]);
        let (report, log) = super::simulate_traced(&s, &ts, &PolynomialPower::cubic());
        assert!(report.is_clean());
        assert_eq!(
            rows(&log),
            "1 release 1, 1 start 1, 5 end 1, 5 deadline 1, 5 release 0, 5 start 0, \
             10 end 0, 10 deadline 0"
        );
        // CSV renders with a header and one row per event.
        let csv = super::log_to_csv(&log);
        assert_eq!(csv.lines().count(), 9);
        assert!(csv.starts_with("time,kind,task,core\n"));
        // Deadline rows leave the core column empty.
        assert!(csv.lines().last().unwrap().ends_with(','));
    }

    #[test]
    fn traced_run_logs_misses_and_conflicts() {
        let mut s = Schedule::new(1);
        s.push(Segment::new(0, 0, 0.0, 2.0, 1.0)); // half the work
        s.push(Segment::new(1, 0, 1.0, 3.0, 1.0)); // conflicts with task 0
        let ts = TaskSet::from_triples(&[(0.0, 4.0, 4.0), (0.0, 4.0, 2.0)]);
        let (_, log) = super::simulate_traced(&s, &ts, &PolynomialPower::cubic());
        assert!(log.iter().any(|e| e.kind == "miss"));
        assert!(log.iter().any(|e| e.kind == "conflict"));
    }

    #[test]
    fn segment_ending_exactly_at_deadline_is_credited() {
        // The segment end and the deadline share a timestamp; batch rank
        // ordering (ends before deadlines) must credit the work first.
        let mut s = Schedule::new(1);
        s.push(Segment::new(0, 0, 0.0, 8.0, 0.5));
        let ts = TaskSet::from_triples(&[(0.0, 8.0, 4.0)]);
        let r = simulate(&s, &ts, &PolynomialPower::cubic());
        assert!(r.is_clean(), "{:?}", r.deadline_misses);
        assert!((r.work_done[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn shortfall_within_validator_tolerance_is_not_a_miss() {
        // Deliver (1 - WORK_TOL/2) of the requirement: inside the shared
        // epsilon, so the simulator must agree with `validate_schedule`
        // that this is clean.
        let wcec = 4.0;
        let short = wcec * (1.0 - WORK_TOL / 2.0);
        let mut s = Schedule::new(1);
        s.push(Segment::new(0, 0, 0.0, short, 1.0));
        let ts = TaskSet::from_triples(&[(0.0, 8.0, wcec)]);
        let r = simulate(&s, &ts, &PolynomialPower::cubic());
        assert!(r.is_clean(), "{:?}", r.deadline_misses);
        let v = esched_types::validate_schedule(&s, &ts);
        assert!(v.violations.is_empty(), "{:?}", v.violations);
    }

    #[test]
    fn shortfall_beyond_tolerance_is_a_miss_and_validator_agrees() {
        let wcec = 4.0;
        let short = wcec * (1.0 - 10.0 * WORK_TOL);
        let mut s = Schedule::new(1);
        s.push(Segment::new(0, 0, 0.0, short, 1.0));
        let ts = TaskSet::from_triples(&[(0.0, 8.0, wcec)]);
        let r = simulate(&s, &ts, &PolynomialPower::cubic());
        assert_eq!(r.deadline_misses, vec![0]);
        let v = esched_types::validate_schedule(&s, &ts);
        assert!(
            v.violations
                .iter()
                .any(|x| matches!(x, esched_types::Violation::Underserved { .. })),
            "{:?}",
            v.violations
        );
    }

    #[test]
    fn counters_track_queue_preemptions_and_migrations() {
        // Task 0 runs [0,2] on core 0, then resumes [4,6] on core 1:
        // one preemption, one migration. Task 1 runs once: neither.
        let mut s = Schedule::new(2);
        s.push(Segment::new(0, 0, 0.0, 2.0, 1.0));
        s.push(Segment::new(0, 1, 4.0, 6.0, 1.0));
        s.push(Segment::new(1, 0, 3.0, 5.0, 1.0));
        let ts = TaskSet::from_triples(&[(0.0, 8.0, 4.0), (0.0, 8.0, 2.0)]);
        let r = simulate(&s, &ts, &PolynomialPower::cubic());
        assert!(r.is_clean(), "{:?}", r);
        // 3 segments × 2 events + 2 tasks × 2 events, all queued up front.
        assert_eq!(r.queue_peak, 10);
        assert_eq!(r.preemptions, 1);
        assert_eq!(r.migrations, 1);
        // Each segment is one start + one stop on its core.
        assert_eq!(r.core_transitions, vec![4, 2]);
    }

    #[test]
    fn split_execution_on_same_core_preempts_without_migrating() {
        let mut s = Schedule::new(1);
        s.push(Segment::new(0, 0, 0.0, 2.0, 1.0));
        s.push(Segment::new(0, 0, 4.0, 6.0, 1.0));
        let ts = TaskSet::from_triples(&[(0.0, 8.0, 4.0)]);
        let r = simulate(&s, &ts, &PolynomialPower::cubic());
        assert_eq!(r.preemptions, 1);
        assert_eq!(r.migrations, 0);
    }

    #[test]
    fn dust_segment_inside_one_event_batch_is_started_then_ended() {
        // A segment shorter than the event-batching tolerance (EPS-relative,
        // so 1e-6 at t = 10) has its start AND end collected into the same
        // batch; the rank rule alone would process the end first, while the
        // core is idle. Regression for the DER schedules fig10 generates:
        // the consumed end left the dust segment running forever, so the
        // next handover start was falsely rejected as a conflict and a
        // later end tripped the "segment end for a different task" assert.
        let dust = 4e-7; // < 1e-6 batching tolerance at t = 10
        let mut s = Schedule::new(1);
        s.push(Segment::new(0, 0, 0.0, 10.0, 0.5));
        s.push(Segment::new(1, 0, 10.0, 10.0 + dust, 1.0));
        s.push(Segment::new(2, 0, 10.0 + dust, 14.0, 1.0));
        let ts =
            TaskSet::from_triples(&[(0.0, 14.0, 5.0), (0.0, 14.0, dust), (0.0, 14.0, 4.0 - dust)]);
        let r = simulate(&s, &ts, &PolynomialPower::cubic());
        assert!(r.conflicts.is_empty(), "handover start falsely rejected");
        assert!(r.is_clean());
        // The dust segment must be credited its own sliver of work, not
        // everything up to the horizon flush.
        assert!((r.work_done[1] - dust).abs() < 1e-9);
        assert!((r.work_done[2] - (4.0 - dust)).abs() < 1e-9);
    }

    #[test]
    fn signed_zero_boundaries_hand_over_cleanly() {
        // −0.0 and +0.0 are one instant: the end must still come first.
        let ts = TaskSet::from_triples(&[(-2.0, 0.0, 2.0), (0.0, 2.0, 2.0)]);
        for (end, start) in [(-0.0, 0.0), (0.0, -0.0)] {
            let mut s = Schedule::new(1);
            s.push(Segment::new(1, 0, start, 2.0, 1.0));
            s.push(Segment::new(0, 0, -2.0, end, 1.0));
            let (r, log) = simulate_traced(&s, &ts, &PolynomialPower::cubic());
            assert!(r.is_clean(), "{r:?}");
            assert_eq!(
                rows(&log),
                format!(
                    "-2 release 0, -2 start 0, {end} end 0, 0 deadline 0, 0 release 1, \
                     {start} start 1, 2 end 1, 2 deadline 1"
                )
            );
        }
    }

    #[test]
    fn tied_starts_on_an_idle_core_run_the_lower_segment_index() {
        let ts = TaskSet::from_triples(&[(0.0, 9.0, 2.0), (0.0, 9.0, 3.0)]);
        for (first, second) in [(0, 1), (1, 0)] {
            let mut s = Schedule::new(1);
            s.push(Segment::new(first, 0, 2.0, 4.0 + first as f64, 1.0));
            s.push(Segment::new(second, 0, 2.0, 4.0 + second as f64, 1.0));
            let r = simulate(&s, &ts, &PolynomialPower::cubic());
            let (running, rejected) = (first, second);
            let conflict = Conflict {
                time: 2.0,
                core: 0,
                running,
                rejected,
            };
            assert_eq!(r.conflicts, vec![conflict]);
            // The rejected segment's end leaves the winner running to its
            // own end.
            assert!((r.work_done[first] - (2.0 + first as f64)).abs() < 1e-12);
            assert_eq!(r.work_done[second], 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "event time must be finite")]
    fn non_finite_segment_boundary_panics() {
        let mut seg = Segment::new(0, 0, 0.0, 4.0, 1.0);
        seg.interval.end = f64::INFINITY;
        let mut s = Schedule::new(1);
        s.push(seg);
        let ts = TaskSet::from_triples(&[(0.0, 4.0, 4.0)]);
        simulate(&s, &ts, &PolynomialPower::cubic());
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn segment_on_a_missing_core_panics() {
        let mut s = Schedule::new(1);
        s.push(Segment::new(0, 1, 0.0, 4.0, 1.0));
        let ts = TaskSet::from_triples(&[(0.0, 4.0, 4.0)]);
        simulate(&s, &ts, &PolynomialPower::cubic());
    }

    #[test]
    fn utilization_and_core_accounting() {
        let mut s = Schedule::new(2);
        s.push(Segment::new(0, 0, 0.0, 6.0, 1.0));
        s.push(Segment::new(1, 1, 0.0, 3.0, 1.0));
        let ts = TaskSet::from_triples(&[(0.0, 6.0, 6.0), (0.0, 6.0, 3.0)]);
        let r = simulate(&s, &ts, &PolynomialPower::cubic());
        assert!((r.core_busy[0] - 6.0).abs() < 1e-9);
        assert!((r.core_busy[1] - 3.0).abs() < 1e-9);
        assert!((r.utilization() - 0.75).abs() < 1e-9);
    }
}
