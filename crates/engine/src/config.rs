//! The request side of the front-door API: [`ScheduleRequest`] and the
//! [`EngineConfig`] builder.

use esched_opt::{SolveOptions, SolverKind};
use esched_types::{DiscretePower, PolynomialPower, TaskSet};

/// Which heuristic produces the outcome's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// The DER-based allocating method (`S^I2` → `S^F2`, Algorithm 2) —
    /// the paper's headline algorithm.
    #[default]
    Der,
    /// The evenly allocating method (`S^I1` → `S^F1`).
    Even,
}

impl Algorithm {
    /// Short stable name (`"der"` / `"even"`), used in JSON and labels.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Der => "der",
            Algorithm::Even => "even",
        }
    }
}

/// Per-request pipeline configuration, built fluently:
///
/// ```
/// use esched_engine::EngineConfig;
/// use esched_opt::SolverKind;
///
/// let cfg = EngineConfig::new()
///     .with_solver(SolverKind::ProjectedGradient)
///     .with_sim_verify(true);
/// assert_eq!(cfg.solver, Some(SolverKind::ProjectedGradient));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Which heuristic's schedule the outcome carries.
    pub algorithm: Algorithm,
    /// When set, also solve the convex program with this method: the
    /// outcome gains the `E^OPT` summary and the full [`NecPoint`]
    /// (which requires running *both* heuristics for normalization).
    /// `None` skips the — by far most expensive — solver stage.
    ///
    /// [`NecPoint`]: esched_core::NecPoint
    pub solver: Option<SolverKind>,
    /// Tolerances for the optional solver stage.
    pub solve_options: SolveOptions,
    /// When set, additionally execute the final schedule on this discrete
    /// frequency table (Section VI.C) and report the quantized energy and
    /// deadline misses.
    pub discrete: Option<DiscretePower>,
    /// Cross-check the final schedule in the discrete-event simulator and
    /// attach the verdict.
    pub sim_verify: bool,
    /// Attach solver telemetry (iterations, stalls, wall time) to the
    /// outcome. Off drops the wall-clock numbers, leaving the outcome a
    /// pure function of the request.
    pub telemetry: bool,
    /// When set, *this one instance* runs on the work-stealing pool once
    /// the timeline has at least this many subintervals: the DER
    /// allocation stage fans heavy subinterval ranges across it, and
    /// refinement builds the intermediate and final schedules on two of
    /// its threads. Chunk boundaries are a pure function of the instance
    /// and the two schedules share nothing, so the outcome stays
    /// byte-identical at any worker count. `None` (the default) keeps
    /// both stages on the calling thread — the right choice for batch
    /// workloads where parallelism across instances already saturates
    /// the pool.
    pub intra_parallelism: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            algorithm: Algorithm::Der,
            solver: None,
            solve_options: SolveOptions::default(),
            discrete: None,
            sim_verify: false,
            telemetry: true,
            intra_parallelism: None,
        }
    }
}

impl EngineConfig {
    /// The default configuration: DER heuristic only — no solver, no
    /// simulation, telemetry attached.
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the heuristic.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Enable the `E^OPT` stage (and with it NEC) using `solver`.
    pub fn with_solver(mut self, solver: SolverKind) -> Self {
        self.solver = Some(solver);
        self
    }

    /// Set the solver tolerances.
    pub fn with_solve_options(mut self, opts: SolveOptions) -> Self {
        self.solve_options = opts;
        self
    }

    /// Enable discrete-frequency execution against `table`.
    pub fn with_discrete(mut self, table: DiscretePower) -> Self {
        self.discrete = Some(table);
        self
    }

    /// Enable or disable the simulator cross-check.
    pub fn with_sim_verify(mut self, on: bool) -> Self {
        self.sim_verify = on;
        self
    }

    /// Enable or disable telemetry attachment.
    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Spread one instance across an intra-instance pool once its
    /// timeline reaches `threshold_subintervals` subintervals: the DER
    /// allocation fans its columns across the pool, and refinement builds
    /// the intermediate and final schedules side by side. Use
    /// [`esched_core::DEFAULT_PARALLEL_THRESHOLD`] unless you have
    /// measured otherwise; small instances only lose to fan-out
    /// overhead.
    pub fn with_intra_parallelism(mut self, threshold_subintervals: usize) -> Self {
        self.intra_parallelism = Some(threshold_subintervals);
        self
    }
}

/// One scheduling instance plus its pipeline configuration — the unit of
/// work the engine executes.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleRequest {
    /// The aperiodic task set to schedule.
    pub tasks: TaskSet,
    /// Number of identical cores `m` (must be ≥ 1).
    pub cores: usize,
    /// The platform power model `p(f) = f^α + p₀`.
    pub power: PolynomialPower,
    /// Pipeline stages to run.
    pub config: EngineConfig,
}

impl ScheduleRequest {
    /// A request with the default [`EngineConfig`].
    pub fn new(tasks: TaskSet, cores: usize, power: PolynomialPower) -> Self {
        Self {
            tasks,
            cores,
            power,
            config: EngineConfig::default(),
        }
    }

    /// Replace the configuration.
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }
}
