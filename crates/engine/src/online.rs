//! Online arrival engine: incremental replanning over a stream of events.
//!
//! The batch [`Engine`](crate::Engine) treats every instance as fresh: a
//! request goes through timeline construction, the ideal case, DER
//! water-filling, and refinement from scratch. An online scheduler sees a
//! *stream* of small mutations instead — a task arrives, a task finishes
//! early, a window shifts — and rebuilding the whole plan per event wastes
//! almost all of that work: one arrival touches the subintervals its
//! window overlaps and nothing else.
//!
//! [`OnlineEngine`] maintains the DER pipeline's intermediate state
//! (timeline, ideal solution, availability matrix, per-task totals and
//! final frequencies) across events and patches it locally:
//!
//! * the timeline is updated in place via
//!   [`Timeline::rebuild_inserted`] / [`Timeline::rebuild_shifted`]: an
//!   arrival splices in its two endpoints, a shift removes the boundaries
//!   it vacated and splices in its new ones, and both fall back to a full
//!   rebuild only when an endpoint is approx- but not bitwise-equal to a
//!   surviving event point, where an in-place patch could diverge bitwise
//!   from [`Timeline::build`];
//! * the availability matrix is kept across events and repaired in place
//!   by [`repair_der_in_place`]: the event's changed region (the columns
//!   between the runs of unchanged column bounds at both ends, widened to
//!   the touched task's old and new spans) is spliced to its new shape,
//!   and only the region's columns whose structure or heavy-column inputs
//!   changed are recomputed; columns outside the region are neither read
//!   nor written. When the dirty fraction exceeds
//!   [`OnlineEngine::with_fallback_fraction`], every column of the
//!   spliced matrix is refilled in one pass instead;
//! * an early completion ([`OnlineEvent::Complete`]) reclaims the unused
//!   `C_i` mass MORA-style: the task's execution requirement drops to the
//!   work it actually performed, the water-fill repair hands the freed
//!   time to co-runners on the overlapping subintervals, and the final
//!   frequency assignment slows them down accordingly;
//! * optionally ([`OnlineEngine::with_recertify`]) each repaired plan is
//!   re-certified against the convex program with a solver warm-started
//!   from the previous optimum via
//!   [`EnergyProgram::warm_start_from_totals`], and the KKT residual of
//!   the new optimum is reported.
//!
//! Every maintained structure is *bit-identical* to what the offline
//! pipeline computes for the same final task set — the patch paths either
//! reproduce the from-scratch result exactly or fall back to it — and
//! [`OnlineEngine::outcome`] lends them to the one `finish` every offline
//! request ends in (refinement, `E^OPT` and NEC, simulator, discrete
//! stage). So the [`ScheduleOutcome`] compares (and JSON-encodes)
//! byte-for-byte equal to [`Engine::run`](crate::Engine::run) on the
//! equivalent request, at any worker count.

use crate::audit::{AuditConfig, ShadowAuditor};
use crate::config::{Algorithm, EngineConfig, ScheduleRequest};
use crate::exec::{finish, Plan};
use crate::outcome::ScheduleOutcome;
use esched_core::{
    allocate, assign_final, final_schedule_with, ideal_schedule, repair_der_in_place, AllocRequest,
    AvailMatrix, DerRepairStats, IdealSolution, Pool, Scratch, DEFAULT_PARALLEL_THRESHOLD,
};
use esched_obs::health::{HealthMonitor, SloPolicy};
use esched_obs::{RequestId, RequestScope, TraceCtx};
use esched_opt::{kkt_report, EnergyProgram, KktReport};
use esched_sim::simulate;
use esched_subinterval::Timeline;
use esched_types::{
    validate_schedule, FrequencyAssignment, PolynomialPower, Task, TaskId, TaskSet,
};
use std::sync::Arc;
use std::time::Instant;

/// Default dirty-column fraction above which a patch recomputes the whole
/// DER allocation instead of repairing columns one by one.
pub const DEFAULT_FALLBACK_FRACTION: f64 = 0.25;

/// One mutation of the live task set.
#[derive(Debug, Clone, PartialEq)]
pub enum OnlineEvent {
    /// A new task arrives; it is assigned the next [`TaskId`].
    Arrive(Task),
    /// Task `task` completed having performed `actual_work` cycles.
    /// Early completion (`actual_work < C_i`) reclaims the unused mass:
    /// co-runners on the task's subintervals inherit the freed time.
    Complete {
        /// Which task completed.
        task: TaskId,
        /// The work it actually performed (must be positive and finite).
        actual_work: f64,
    },
    /// Task `task`'s execution window moved to `[release, deadline]`.
    Shift {
        /// Which task shifted.
        task: TaskId,
        /// The new release time.
        release: f64,
        /// The new deadline (must be definitely after `release`).
        deadline: f64,
    },
}

/// Why an event was rejected. The engine's plan is untouched when
/// [`OnlineEngine::apply`] returns one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum OnlineError {
    /// The event referenced a task id outside the live set.
    UnknownTask {
        /// The offending id.
        task: TaskId,
        /// Current number of live tasks.
        len: usize,
    },
    /// The mutated task would violate task validation (empty window,
    /// non-finite field, non-positive work).
    InvalidTask {
        /// Human-readable validation failure.
        message: String,
    },
}

impl std::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnlineError::UnknownTask { task, len } => {
                write!(f, "event references task {task}, but only {len} are live")
            }
            OnlineError::InvalidTask { message } => {
                write!(f, "event produces an invalid task: {message}")
            }
        }
    }
}

impl std::error::Error for OnlineError {}

/// Summary of the optional warm-started re-certification of one repair.
#[derive(Debug, Clone, PartialEq)]
pub struct RecertSummary {
    /// KKT certificate of the re-solved optimum.
    pub kkt: KktReport,
    /// Whether the warm-started solver reported convergence.
    pub converged: bool,
    /// Iterations the warm-started solve used.
    pub iters: usize,
}

/// What one [`OnlineEngine::apply`] call did.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanReport {
    /// Whether the timeline patch fell back to a full
    /// [`Timeline::build`]: a new endpoint, or a vacated boundary, lies
    /// within tolerance of a surviving event point without equaling it
    /// bitwise (or the set is too small to patch). A vacated boundary that
    /// no surviving point is near is removed in place and does not count.
    /// Always `false` for a completion, which moves no event point.
    pub timeline_rebuilt: bool,
    /// Column-repair statistics from [`repair_der_in_place`].
    pub der: DerRepairStats,
    /// Final analytic energy (`E^{F2}`) of the repaired plan.
    pub final_energy: f64,
    /// Warm-started re-certification, when enabled.
    pub recertified: Option<RecertSummary>,
}

/// An incremental, single-threaded online scheduler over the DER pipeline.
///
/// ```
/// use esched_engine::online::{OnlineEngine, OnlineEvent};
/// use esched_types::{PolynomialPower, Task, TaskSet};
///
/// let seed = TaskSet::from_triples(&[(0.0, 12.0, 4.0), (2.0, 10.0, 2.0)]);
/// let mut engine = OnlineEngine::new(seed, 2, PolynomialPower::cubic());
/// engine.apply(&OnlineEvent::Arrive(Task::of(4.0, 8.0, 4.0))).unwrap();
/// let outcome = engine.outcome();
/// assert!(outcome.energy > 0.0);
/// ```
#[derive(Debug)]
pub struct OnlineEngine {
    tasks: Vec<Task>,
    cores: usize,
    power: PolynomialPower,
    config: EngineConfig,
    fallback_fraction: f64,
    verify: bool,
    recertify: bool,
    // Maintained pipeline state, always bit-identical to a from-scratch
    // run on the current task set.
    task_set: TaskSet,
    timeline: Timeline,
    ideal: IdealSolution,
    avail: AvailMatrix,
    assignment: FrequencyAssignment,
    final_energy: f64,
    scratch: Scratch,
    // Intra-instance pool for allocation and refinement, materialized by
    // `with_config` when the `intra_parallelism` knob is set. Chunked
    // repairs and the refine join stay byte-identical to the serial path
    // at any worker count.
    intra_pool: Option<Pool>,
    // Per-task totals X_i of the last certified optimum, if any — the
    // warm-start carrier across task-set mutations.
    last_opt_totals: Option<Vec<f64>>,
    // Unscaled dual point of the last certified optimum, tagged with the
    // flat dimension it belongs to. Unlike totals, duals are layout-bound
    // — they are re-used only while `dim` is unchanged, letting a
    // dual-carrying solver (ADMM) resume its consensus prices across
    // no-layout-change replans.
    last_opt_duals: Option<(usize, Vec<f64>)>,
    // Streaming SLO/health layer (obs::health), when enabled. Strictly
    // observational: recording never touches plan state, so byte-identity
    // with the offline pipeline is unaffected.
    health: Option<Arc<HealthMonitor>>,
    // Sampled energy-regret shadow auditor, when enabled.
    auditor: Option<ShadowAuditor>,
    // Successfully applied events, for audit sampling.
    events_seen: u64,
}

impl OnlineEngine {
    /// Boot the engine from an initial task set (full offline build).
    ///
    /// # Panics
    /// If `cores == 0`.
    pub fn new(tasks: TaskSet, cores: usize, power: PolynomialPower) -> Self {
        assert!(cores >= 1, "OnlineEngine requires at least one core");
        let timeline = Timeline::build(&tasks);
        let ideal = ideal_schedule(&tasks, &power);
        let mut scratch = Scratch::new();
        let avail = allocate(
            AllocRequest::new(&tasks, &timeline, cores, &ideal).with_scratch(&mut scratch),
        );
        let (assignment, final_energy) = assign_final(&tasks, &avail, &power);
        Self {
            tasks: tasks.tasks().to_vec(),
            cores,
            power,
            config: EngineConfig::default(),
            fallback_fraction: DEFAULT_FALLBACK_FRACTION,
            verify: false,
            recertify: false,
            task_set: tasks,
            timeline,
            ideal,
            avail,
            assignment,
            final_energy,
            scratch,
            intra_pool: None,
            last_opt_totals: None,
            last_opt_duals: None,
            health: None,
            auditor: None,
            events_seen: 0,
        }
    }

    /// Replace the pipeline configuration used by [`OnlineEngine::outcome`].
    ///
    /// # Panics
    /// If the configuration selects [`Algorithm::Even`]: the online engine
    /// maintains the DER pipeline's state incrementally and has nothing to
    /// patch for the evenly-allocating heuristic.
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        assert_eq!(
            config.algorithm,
            Algorithm::Der,
            "OnlineEngine is incremental over the DER pipeline only"
        );
        self.intra_pool = config.intra_parallelism.map(|_| Pool::new());
        self.config = config;
        self
    }

    /// Set the dirty-column fraction above which DER repair falls back to
    /// a global recompute (default [`DEFAULT_FALLBACK_FRACTION`]).
    pub fn with_fallback_fraction(mut self, fraction: f64) -> Self {
        self.fallback_fraction = fraction;
        self
    }

    /// Run the validator⟺simulator oracle after every applied event,
    /// panicking on any violation. Expensive (materializes the final
    /// schedule per event) — meant for fuzzing and small instances.
    pub fn with_verify(mut self, on: bool) -> Self {
        self.verify = on;
        self
    }

    /// Re-certify every repaired plan against the convex program with a
    /// warm-started solver, reporting the KKT residual in the
    /// [`ReplanReport`]. Expensive — meant for auditing, not the hot path.
    pub fn with_recertify(mut self, on: bool) -> Self {
        self.recertify = on;
        self
    }

    /// Attach a fresh [`HealthMonitor`] evaluating `policy` over the
    /// stream: every applied event records its latency, repair fraction,
    /// and fallback into the monitor's sliding windows, heartbeats it,
    /// and rate-limited SLO evaluation runs once per sub-window tick.
    /// Recording is strictly observational — plan state (and therefore
    /// online↔offline byte-identity) is untouched.
    pub fn with_health(self, policy: SloPolicy) -> Self {
        self.with_health_monitor(Arc::new(HealthMonitor::new(policy)))
    }

    /// Attach an existing (possibly shared) [`HealthMonitor`] — e.g. one
    /// a status exporter or daemon also holds.
    pub fn with_health_monitor(mut self, monitor: Arc<HealthMonitor>) -> Self {
        self.health = Some(monitor);
        self
    }

    /// Enable the sampled energy-regret shadow audit (see
    /// [`crate::audit`]): every [`AuditConfig::every`] applied events, a
    /// background worker replays the offline pipeline on a snapshot of
    /// the live task set (bitwise divergence check) and recomputes E^OPT
    /// warm-started, publishing `esched.online.energy_regret` into the
    /// health monitor. Attaches a default-policy [`HealthMonitor`] if
    /// none was configured.
    pub fn with_audit(mut self, cfg: AuditConfig) -> Self {
        if self.health.is_none() {
            self.health = Some(Arc::new(HealthMonitor::new(SloPolicy::default())));
        }
        let monitor = Arc::clone(self.health.as_ref().expect("just ensured"));
        self.auditor = Some(ShadowAuditor::new(&cfg, monitor));
        self
    }

    /// The attached health monitor, if any.
    pub fn health(&self) -> Option<&Arc<HealthMonitor>> {
        self.health.as_ref()
    }

    /// Run one shadow audit inline on the calling thread (blocking,
    /// deterministic — bypasses the sampler). Returns the published
    /// regret, or `None` when no auditor is configured.
    pub fn force_audit(&self) -> Option<f64> {
        let auditor = self.auditor.as_ref()?;
        auditor.force(&self.task_set, self.cores, self.power, self.final_energy);
        self.health.as_ref().and_then(|h| h.regret())
    }

    /// Set the audit fault-injection multiplier: regret is computed from
    /// `live_energy * (1 + inflation)`. No-op without an auditor; `0.0`
    /// restores production behaviour.
    pub fn set_audit_energy_inflation(&self, inflation: f64) {
        if let Some(a) = &self.auditor {
            a.set_energy_inflation(inflation);
        }
    }

    /// The live task set.
    pub fn tasks(&self) -> &TaskSet {
        &self.task_set
    }

    /// Number of live tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Always false: the engine is seeded with a non-empty set and events
    /// never remove tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Final analytic energy (`E^{F2}`) of the current plan.
    pub fn final_energy(&self) -> f64 {
        self.final_energy
    }

    /// The current per-task frequency assignment.
    pub fn assignment(&self) -> &FrequencyAssignment {
        &self.assignment
    }

    /// Apply one event, patching the plan incrementally. On error the
    /// plan is untouched.
    pub fn apply(&mut self, event: &OnlineEvent) -> Result<ReplanReport, OnlineError> {
        let _flight = esched_obs::flight_span!("online_apply");
        let t_start = Instant::now();
        let (dirty_task, patched) = match event {
            OnlineEvent::Arrive(task) => {
                Task::new(task.release, task.deadline, task.wcec).map_err(|e| {
                    OnlineError::InvalidTask {
                        message: e.to_string(),
                    }
                })?;
                self.tasks.push(*task);
                let id = self.tasks.len() - 1;
                self.rebuild_task_set();
                // An arrival changes no existing task's ideal solution;
                // every column it overlaps gains a member and is caught by
                // the repair's structural id comparison.
                (None, self.timeline.rebuild_inserted(&self.task_set, id))
            }
            OnlineEvent::Complete { task, actual_work } => {
                let t = *self.checked(*task)?;
                Task::new(t.release, t.deadline, *actual_work).map_err(|e| {
                    OnlineError::InvalidTask {
                        message: e.to_string(),
                    }
                })?;
                self.tasks[*task].wcec = *actual_work;
                self.rebuild_task_set();
                // Event points are untouched — the timeline is exactly the
                // one a full build would produce. Only columns where the
                // completed task contends (heavy columns) can change.
                (Some(*task), true)
            }
            OnlineEvent::Shift {
                task,
                release,
                deadline,
            } => {
                let t = *self.checked(*task)?;
                Task::new(*release, *deadline, t.wcec).map_err(|e| OnlineError::InvalidTask {
                    message: e.to_string(),
                })?;
                self.tasks[*task].release = *release;
                self.tasks[*task].deadline = *deadline;
                self.rebuild_task_set();
                (
                    Some(*task),
                    self.timeline.rebuild_shifted(&self.task_set, *task),
                )
            }
        };
        let timeline_rebuilt = !patched;

        // The ideal case is embarrassingly per-task; a full recompute is
        // O(n) closed forms plus one compensated sum — microseconds even at
        // n = 1024 — and is trivially bit-identical to the offline stage.
        self.ideal = ideal_schedule(&self.task_set, &self.power);

        let dirty: &[TaskId] = match dirty_task {
            Some(id) => &[id],
            None => &[],
        };
        let der = repair_der_in_place(
            &self.task_set,
            &self.timeline,
            self.cores,
            &self.ideal,
            &mut self.avail,
            dirty,
            self.fallback_fraction,
            self.intra_pool.as_ref(),
            self.config
                .intra_parallelism
                .unwrap_or(DEFAULT_PARALLEL_THRESHOLD),
            &mut self.scratch,
        );
        // Totals and the final assignment are O(nnz) and O(n); recomputing
        // them in full keeps the Neumaier summation order — and therefore
        // the bits — identical to the offline pipeline.
        (self.assignment, self.final_energy) =
            assign_final(&self.task_set, &self.avail, &self.power);

        let recertified = self.recertify.then(|| self.recertify_now());
        let elapsed_ns = t_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        esched_obs::metric_histogram!("esched.engine.online_replan_ns").record(elapsed_ns);
        esched_obs::metric_counter!("esched.engine.online_events").inc();
        self.events_seen += 1;
        if let Some(h) = &self.health {
            h.observe_replan(
                elapsed_ns,
                der.dirty_columns,
                der.total_columns,
                timeline_rebuilt || der.fell_back,
            );
            // Breaches latch inside the monitor and are published to the
            // metrics registry + flight recorder by `evaluate`; the
            // replan path only pays the rate-limited trigger.
            let _ = h.maybe_evaluate();
        }
        if let Some(a) = &self.auditor {
            if a.due(self.events_seen) {
                a.offer_snapshot(&self.task_set, self.cores, self.power, self.final_energy);
            }
        }

        if self.verify {
            if let Err(msg) = self.verify_current() {
                panic!("online plan failed verification after {event:?}: {msg}");
            }
        }
        Ok(ReplanReport {
            timeline_rebuilt,
            der,
            final_energy: self.final_energy,
            recertified,
        })
    }

    fn checked(&self, task: TaskId) -> Result<&Task, OnlineError> {
        self.tasks.get(task).ok_or(OnlineError::UnknownTask {
            task,
            len: self.tasks.len(),
        })
    }

    fn rebuild_task_set(&mut self) {
        // Tasks were validated before mutation, so this cannot fail.
        self.task_set = TaskSet::new(self.tasks.clone()).expect("validated above");
    }

    /// Solve the convex program warm-started from the previous optimum's
    /// per-task totals — and, for a dual-carrying solver whose flat
    /// layout is unchanged, the previous dual point — and certify the
    /// result.
    fn recertify_now(&mut self) -> RecertSummary {
        let ep = EnergyProgram::new(&self.task_set, &self.timeline, self.cores, self.power);
        let mut opts = match &self.last_opt_totals {
            Some(totals) => self
                .config
                .solve_options
                .clone()
                .with_warm_start(ep.warm_start_from_totals(totals)),
            None => self.config.solve_options.clone(),
        };
        if let Some((dim, duals)) = &self.last_opt_duals {
            if *dim == ep.dim() {
                opts = opts.with_warm_start_dual(duals.clone());
            }
        }
        let kind = self.config.solver.unwrap_or_default();
        let sol = match self.intra_pool.as_ref() {
            Some(pool) => kind.solve_in(&ep, &opts, pool),
            None => kind.solve(&ep, &opts),
        };
        self.last_opt_totals = Some(ep.total_times(&sol.x));
        self.last_opt_duals = sol.dual.map(|d| (ep.dim(), d));
        RecertSummary {
            kkt: kkt_report(&ep, &sol.x),
            converged: sol.converged,
            iters: sol.iters,
        }
    }

    /// Run the validator⟺simulator oracle on the current plan: the
    /// materialized final schedule must be legal (no overlap, windows
    /// respected, work complete) and the discrete-event simulator must
    /// agree — clean run, energy matching the analytic `E^{F2}`.
    pub fn verify_current(&mut self) -> Result<(), String> {
        let schedule = final_schedule_with(
            &self.task_set,
            &self.timeline,
            self.cores,
            &self.avail,
            &self.assignment,
            &mut self.scratch.items,
            &mut self.scratch.scale,
        );
        let report = validate_schedule(&schedule, &self.task_set);
        if !report.is_legal() {
            let msgs: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
            return Err(format!("validator: {}", msgs.join("; ")));
        }
        let sim = simulate(&schedule, &self.task_set, &self.power);
        if !sim.deadline_misses.is_empty() || !sim.conflicts.is_empty() {
            return Err(format!(
                "simulator: {} deadline misses, {} conflicts",
                sim.deadline_misses.len(),
                sim.conflicts.len()
            ));
        }
        let tol = 1e-6 * (1.0 + self.final_energy.abs());
        if (sim.energy - self.final_energy).abs() > tol {
            return Err(format!(
                "simulator energy {} diverges from analytic {}",
                sim.energy, self.final_energy
            ));
        }
        Ok(())
    }

    /// The offline request equivalent to the engine's current state:
    /// feeding it to [`Engine::run`](crate::Engine::run) produces an
    /// outcome byte-identical to [`OnlineEngine::outcome`].
    pub fn as_request(&self) -> ScheduleRequest {
        ScheduleRequest {
            tasks: self.task_set.clone(),
            cores: self.cores,
            power: self.power,
            config: self.config.clone(),
        }
    }

    /// Materialize the full [`ScheduleOutcome`] for the current plan.
    ///
    /// The maintained timeline, ideal solution and DER allocation go to
    /// the same `finish` that ends every offline request, in place of
    /// their from-scratch counterparts. Because every maintained structure
    /// is bit-identical to the offline stage's output, so is the outcome.
    pub fn outcome(&mut self) -> ScheduleOutcome {
        let request_id = RequestId::next();
        let _req_scope = RequestScope::enter(request_id);
        let _flight = esched_obs::flight_span!("online_outcome");
        let plan = Plan {
            tasks: &self.task_set,
            cores: self.cores,
            power: &self.power,
            timeline: &self.timeline,
            ideal: &self.ideal,
        };
        finish(
            &plan,
            &self.avail,
            &self.config,
            &mut self.scratch,
            self.intra_pool.as_ref(),
            TraceCtx::new(request_id),
            Instant::now(),
        )
    }
}
