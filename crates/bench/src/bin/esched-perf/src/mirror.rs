//! The traced mirror: the public calls `Engine::run` and
//! `OnlineEngine::apply` make, in the same order and with the same
//! arguments, each inside a [`Recorder`] span.
//!
//! The mirror times layers from outside the program without touching it.
//! Its price is that it restates the engine's call sequence, so the traced
//! workloads compare every mirrored result with the engine's own; a
//! mirror that drifts from the engine fails the run instead of timing the
//! wrong code.

use crate::ledger::Recorder;
use esched_core::{
    allocate, allocate_even, final_assignment, final_schedule_with, ideal_schedule,
    intermediate_schedule_with, optimal_energy_in_pool, reallocate_der_patched, AllocRequest,
    AvailMatrix, DerRepairStats, HeuristicOutcome, IdealSolution, NecPoint, Pool, Scratch,
    DEFAULT_PARALLEL_THRESHOLD,
};
use esched_engine::online::DEFAULT_FALLBACK_FRACTION;
use esched_engine::{
    Algorithm, OnlineEvent, OptSummary, ReplanReport, ScheduleOutcome, ScheduleRequest, SimVerdict,
};
use esched_obs::{RequestId, RequestScope};
use esched_sim::simulate;
use esched_subinterval::Timeline;
use esched_types::{FrequencyAssignment, PolynomialPower, Task, TaskSet};

/// Count the sizes every layer works on, for the per-layer table.
fn count_timeline(rec: &mut Recorder, timeline: &Timeline) {
    let cells: usize = timeline
        .subintervals()
        .iter()
        .map(|s| s.overlapping.len())
        .sum();
    rec.count("subinterval.subintervals", timeline.len() as f64);
    rec.count("subinterval.cells", cells as f64);
}

/// `build_outcome_with`, one span per refinement step.
#[allow(clippy::too_many_arguments)] // the refinement inputs, as the engine passes them
fn refine(
    rec: &mut Recorder,
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    power: &PolynomialPower,
    ideal: &IdealSolution,
    avail: AvailMatrix,
    scratch: &mut Scratch,
) -> HeuristicOutcome {
    let (total_avail, assignment, final_energy) = rec.span("refine.assign", || {
        let total_avail = avail.totals();
        let assignment = final_assignment(tasks, &total_avail, power);
        let works: Vec<f64> = tasks.tasks().iter().map(|t| t.wcec).collect();
        let final_energy = assignment.energy(&works, power);
        (total_avail, assignment, final_energy)
    });
    let (intermediate_schedule, intermediate_energy) = rec.span("refine.intermediate", || {
        let s = intermediate_schedule_with(timeline, cores, ideal, &avail, &mut scratch.items);
        let e = s.energy(power);
        (s, e)
    });
    let schedule = rec.span("refine.final", || {
        final_schedule_with(
            tasks,
            timeline,
            cores,
            &avail,
            &assignment,
            &mut scratch.items,
            &mut scratch.scale,
        )
    });
    HeuristicOutcome {
        avail,
        total_avail,
        assignment,
        intermediate_energy,
        final_energy,
        intermediate_schedule,
        schedule,
    }
}

/// What `Engine::run` returns for `request`, computed by the engine's
/// public calls under spans. Like the engine, it takes a fresh scratch
/// arena and enters a request scope and a flight-recorder span per
/// request; their cost lands in the root span's self time. Supports the
/// configurations the workloads use: DER, optional solver, optional sim
/// check, no discrete table, no telemetry.
pub fn execute(rec: &mut Recorder, request: &ScheduleRequest) -> ScheduleOutcome {
    let cfg = &request.config;
    assert!(
        cfg.algorithm == Algorithm::Der && cfg.discrete.is_none() && !cfg.telemetry,
        "the mirror covers the benchmark's configurations only"
    );
    let scratch = &mut Scratch::new();
    let _scope = RequestScope::enter(RequestId::next());
    let _flight = esched_obs::flight_span!("engine_execute");
    let (tasks, cores, power) = (&request.tasks, request.cores, &request.power);
    let timeline = rec.span("subinterval.build", || {
        Timeline::build_with(tasks, &mut scratch.timeline)
    });
    count_timeline(rec, &timeline);
    let ideal = rec.span("ideal", || ideal_schedule(tasks, power));
    let intra_pool = cfg.intra_parallelism.map(|_| Pool::new());
    let avail = rec.span("allocation.der", || {
        let mut req =
            AllocRequest::new(tasks, &timeline, cores, &ideal).with_scratch(&mut *scratch);
        if let (Some(threshold), Some(pool)) = (cfg.intra_parallelism, intra_pool.as_ref()) {
            req = req.with_pool(pool).with_parallel_threshold(threshold);
        }
        allocate(req)
    });
    let der = refine(rec, tasks, &timeline, cores, power, &ideal, avail, scratch);
    let (opt, nec, opt_x) = match cfg.solver {
        Some(kind) => {
            let avail = rec.span("allocation.even", || allocate_even(tasks, &timeline, cores));
            let even = refine(rec, tasks, &timeline, cores, power, &ideal, avail, scratch);
            let sol = rec.span("opt.solve", || {
                optimal_energy_in_pool(
                    tasks,
                    &timeline,
                    cores,
                    power,
                    &cfg.solve_options,
                    kind,
                    intra_pool.as_ref(),
                )
            });
            rec.count("opt.iters", sol.iters as f64);
            let e = sol.energy;
            let nec = NecPoint {
                ideal: ideal.energy / e,
                i1: even.intermediate_energy / e,
                f1: even.final_energy / e,
                i2: der.intermediate_energy / e,
                f2: der.final_energy / e,
                opt_energy: e,
            };
            let opt = OptSummary {
                solver: kind.name(),
                energy: sol.energy,
                gap: sol.gap,
                iters: sol.iters,
                converged: sol.telemetry.converged,
                telemetry: None,
            };
            (Some(opt), Some(nec), Some(sol.x))
        }
        None => (None, None, None),
    };
    scratch.timeline.recycle(timeline);
    let sim = cfg.sim_verify.then(|| {
        let report = rec.span("sim", || simulate(&der.schedule, tasks, power));
        SimVerdict {
            clean: report.is_clean(),
            deadline_misses: report.deadline_misses.len(),
            conflicts: report.conflicts.len(),
            energy: report.energy,
        }
    });
    rec.count("refine.segments", der.schedule.len() as f64);
    ScheduleOutcome {
        algorithm: cfg.algorithm,
        energy: der.final_energy,
        intermediate_energy: der.intermediate_energy,
        schedule: der.schedule,
        nec,
        opt,
        opt_x,
        sim,
        discrete: None,
        trace: None,
    }
}

/// The state `OnlineEngine` maintains, advanced by the calls `apply`
/// makes. Covers the default configuration: no intra pool, no
/// re-certification, no health monitor.
#[derive(Debug)]
pub struct Online {
    tasks: Vec<Task>,
    task_set: TaskSet,
    cores: usize,
    power: PolynomialPower,
    timeline: Timeline,
    ideal: IdealSolution,
    avail: AvailMatrix,
    assignment: FrequencyAssignment,
    scratch: Scratch,
}

impl Online {
    /// `OnlineEngine::new`.
    pub fn new(tasks: TaskSet, cores: usize, power: PolynomialPower) -> Self {
        let timeline = Timeline::build(&tasks);
        let ideal = ideal_schedule(&tasks, &power);
        let mut scratch = Scratch::new();
        let avail = allocate(
            AllocRequest::new(&tasks, &timeline, cores, &ideal).with_scratch(&mut scratch),
        );
        let assignment = final_assignment(&tasks, &avail.totals(), &power);
        Self {
            tasks: tasks.tasks().to_vec(),
            task_set: tasks,
            cores,
            power,
            timeline,
            ideal,
            avail,
            assignment,
            scratch,
        }
    }

    /// The current final frequency assignment.
    pub fn assignment(&self) -> &FrequencyAssignment {
        &self.assignment
    }

    fn rebuild_task_set(&mut self, rec: &mut Recorder) {
        let tasks = &self.tasks;
        self.task_set = rec.span("online.task_set", || {
            TaskSet::new(tasks.clone()).expect("events keep every task valid")
        });
    }

    /// `OnlineEngine::apply` for an event the engine accepted.
    pub fn apply(&mut self, rec: &mut Recorder, event: &OnlineEvent) -> ReplanReport {
        let (dirty_task, patched) = match *event {
            OnlineEvent::Arrive(task) => {
                self.tasks.push(task);
                let id = self.tasks.len() - 1;
                self.rebuild_task_set(rec);
                let (timeline, tasks) = (&mut self.timeline, &self.task_set);
                (
                    None,
                    rec.span("subinterval.patch", || timeline.rebuild_inserted(tasks, id)),
                )
            }
            OnlineEvent::Complete { task, actual_work } => {
                self.tasks[task].wcec = actual_work;
                self.rebuild_task_set(rec);
                (Some(task), true)
            }
            OnlineEvent::Shift {
                task,
                release,
                deadline,
            } => {
                self.tasks[task].release = release;
                self.tasks[task].deadline = deadline;
                self.rebuild_task_set(rec);
                let (timeline, tasks) = (&mut self.timeline, &self.task_set);
                (
                    Some(task),
                    rec.span("subinterval.patch", || {
                        timeline.rebuild_shifted(tasks, task)
                    }),
                )
            }
        };
        count_timeline(rec, &self.timeline);
        let (tasks, power) = (&self.task_set, &self.power);
        self.ideal = rec.span("ideal", || ideal_schedule(tasks, power));
        let dirty: Vec<usize> = dirty_task.into_iter().collect();
        let (avail, der): (AvailMatrix, DerRepairStats) = rec.span("allocation.repair", || {
            reallocate_der_patched(
                &self.task_set,
                &self.timeline,
                self.cores,
                &self.ideal,
                &self.avail,
                &dirty,
                DEFAULT_FALLBACK_FRACTION,
                None,
                DEFAULT_PARALLEL_THRESHOLD,
                &mut self.scratch,
            )
        });
        self.avail = avail;
        let (avail, tasks, work_list) = (&self.avail, &self.task_set, &self.tasks);
        let (assignment, final_energy) = rec.span("refine.assign", || {
            let assignment = final_assignment(tasks, &avail.totals(), power);
            let works: Vec<f64> = work_list.iter().map(|t| t.wcec).collect();
            let e = assignment.energy(&works, power);
            (assignment, e)
        });
        self.assignment = assignment;
        ReplanReport {
            timeline_rebuilt: !patched,
            der,
            final_energy,
            recertified: None,
        }
    }
}
