//! The result side of the front-door API: [`ScheduleOutcome`] and the
//! failure type [`EngineError`].

use crate::config::Algorithm;
use esched_core::NecPoint;
use esched_obs::json::{ToJson, Value};
use esched_opt::SolverTelemetry;
use esched_types::Schedule;

/// Summary of the optional `E^OPT` solver stage.
#[derive(Debug, Clone)]
pub struct OptSummary {
    /// Short solver name (see [`esched_opt::SolverKind::name`]).
    pub solver: &'static str,
    /// Optimal energy `E^OPT` — the NEC normalizer.
    pub energy: f64,
    /// Certified duality gap at exit.
    pub gap: f64,
    /// Solver iterations used.
    pub iters: usize,
    /// Whether a stopping criterion (not the iteration cap) fired.
    pub converged: bool,
    /// Full telemetry — `None` when the request disabled it
    /// ([`EngineConfig::telemetry`](crate::EngineConfig::telemetry)).
    pub telemetry: Option<SolverTelemetry>,
}

/// Equality ignores `telemetry` (it holds the solve's wall time); the
/// fields `to_json()` encodes are compared.
impl PartialEq for OptSummary {
    fn eq(&self, other: &Self) -> bool {
        self.solver == other.solver
            && self.energy == other.energy
            && self.gap == other.gap
            && self.iters == other.iters
            && self.converged == other.converged
    }
}

/// Verdict of the optional discrete-event simulation cross-check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimVerdict {
    /// No conflicts and no deadline misses.
    pub clean: bool,
    /// Number of tasks that missed their deadline in simulation.
    pub deadline_misses: usize,
    /// Number of core-conflict windows detected.
    pub conflicts: usize,
    /// Energy the simulator integrated (agrees with the analytic energy
    /// up to coalescing tolerance).
    pub energy: f64,
}

/// Result of the optional discrete-frequency execution stage.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteSummary {
    /// Total energy at quantized levels.
    pub energy: f64,
    /// Number of tasks whose required frequency exceeded the top level.
    pub misses: usize,
    /// True when no task missed.
    pub feasible: bool,
}

/// Everything one pipeline run produces.
///
/// `to_json()` is deterministic — a pure function of the request — so
/// batch outputs can be compared byte-for-byte across worker counts
/// (wall-clock telemetry is deliberately excluded from the encoding).
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// Which heuristic produced `schedule`.
    pub algorithm: Algorithm,
    /// Final analytic energy of the chosen heuristic
    /// (`E^{F1}` / `E^{F2}`).
    pub energy: f64,
    /// Intermediate analytic energy (`E^{I1}` / `E^{I2}`).
    pub intermediate_energy: f64,
    /// The materialized final schedule.
    pub schedule: Schedule,
    /// The five normalized energies — present iff the request enabled a
    /// solver.
    pub nec: Option<NecPoint>,
    /// `E^OPT` stage summary — present iff the request enabled a solver.
    pub opt: Option<OptSummary>,
    /// The solver's final flat iterate — present iff the request enabled a
    /// solver. Batch drivers feed it back as
    /// [`SolveOptions::warm_start`](esched_opt::SolveOptions) for
    /// neighboring instances of the same dimension. Excluded from
    /// `to_json()` (it is a solver internal, not a reportable result).
    pub opt_x: Option<Vec<f64>>,
    /// Simulator verdict — present iff the request enabled `sim_verify`.
    pub sim: Option<SimVerdict>,
    /// Discrete-frequency execution — present iff the request supplied a
    /// frequency table.
    pub discrete: Option<DiscreteSummary>,
    /// Request-scoped trace context: the request id the engine assigned to
    /// this job plus the per-phase latency breakdown (timeline build, DER
    /// allocation, solve, sim-verify, discrete). Present iff the request
    /// enabled telemetry. Like wall-clock telemetry, excluded from
    /// `to_json()` and from equality so outcomes stay comparable across
    /// worker counts.
    pub trace: Option<esched_obs::TraceCtx>,
}

/// Equality ignores `trace` (ids and timings vary run to run); everything
/// the deterministic JSON encoding covers is compared.
impl PartialEq for ScheduleOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.algorithm == other.algorithm
            && self.energy == other.energy
            && self.intermediate_energy == other.intermediate_energy
            && self.schedule == other.schedule
            && self.nec == other.nec
            && self.opt == other.opt
            && self.opt_x == other.opt_x
            && self.sim == other.sim
            && self.discrete == other.discrete
    }
}

impl ToJson for ScheduleOutcome {
    fn to_json(&self) -> Value {
        let nec = match &self.nec {
            // NecPoint lives in esched-core, which does not know about
            // JSON — encode its fields inline here.
            Some(n) => Value::obj(vec![
                ("ideal", Value::Num(n.ideal)),
                ("i1", Value::Num(n.i1)),
                ("f1", Value::Num(n.f1)),
                ("i2", Value::Num(n.i2)),
                ("f2", Value::Num(n.f2)),
                ("opt_energy", Value::Num(n.opt_energy)),
            ]),
            None => Value::Null,
        };
        let opt = match &self.opt {
            Some(o) => Value::obj(vec![
                ("solver", Value::Str(o.solver.to_string())),
                ("energy", Value::Num(o.energy)),
                ("gap", Value::Num(o.gap)),
                ("iters", Value::Num(o.iters as f64)),
                ("converged", Value::Bool(o.converged)),
            ]),
            None => Value::Null,
        };
        let sim = match &self.sim {
            Some(s) => Value::obj(vec![
                ("clean", Value::Bool(s.clean)),
                ("deadline_misses", Value::Num(s.deadline_misses as f64)),
                ("conflicts", Value::Num(s.conflicts as f64)),
                ("energy", Value::Num(s.energy)),
            ]),
            None => Value::Null,
        };
        let discrete = match &self.discrete {
            Some(d) => Value::obj(vec![
                ("energy", Value::Num(d.energy)),
                ("misses", Value::Num(d.misses as f64)),
                ("feasible", Value::Bool(d.feasible)),
            ]),
            None => Value::Null,
        };
        Value::obj(vec![
            ("algorithm", Value::Str(self.algorithm.name().to_string())),
            ("energy", Value::Num(self.energy)),
            ("intermediate_energy", Value::Num(self.intermediate_energy)),
            ("schedule", self.schedule.to_json()),
            ("nec", nec),
            ("opt", opt),
            ("sim", sim),
            ("discrete", discrete),
        ])
    }
}

/// A job that panicked (or was otherwise lost) inside the pool. The rest
/// of the batch is unaffected; the index ties the error back to the
/// submitted request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    /// Index of the failed job in the submitted batch.
    pub index: usize,
    /// The panic payload (or a placeholder for non-string payloads).
    pub message: String,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "engine job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for EngineError {}
