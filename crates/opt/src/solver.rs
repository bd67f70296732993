//! Shared solver options and result types for the energy-program solvers,
//! plus [`SolverKind`] — the by-value handle that dispatches to the six
//! entry points so callers can pick a solver without function pointers.

use crate::energy_program::EnergyProgram;
use esched_obs::pool::Pool;

/// Options shared by all first-order solvers.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOptions {
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Stop when the certified duality gap falls below
    /// `gap_tol · (1 + |E(x)|)`.
    pub gap_tol: f64,
    /// Additional stop: relative objective decrease below this for
    /// `stall_iters` consecutive iterations.
    pub rel_tol: f64,
    /// Consecutive stalled iterations before declaring convergence on
    /// `rel_tol`.
    pub stall_iters: usize,
    /// How often (in iterations) to evaluate the duality gap; the gap costs
    /// a gradient + LMO, so checking every iteration is wasteful.
    pub gap_check_every: usize,
    /// Optional starting iterate for the warm-startable solvers (PGD,
    /// FISTA, Frank–Wolfe, block descent). Validated against the program's
    /// dimension and projected onto the feasible set before use; a
    /// mismatched or absent warm start falls back to
    /// [`EnergyProgram::initial_point`]. The barrier solver ignores it
    /// (its central-path start must be strictly interior).
    pub warm_start: Option<Vec<f64>>,
    /// Optional starting dual point (per-variable multipliers, length
    /// [`EnergyProgram::dim`]) for solvers that maintain one — currently
    /// only ADMM, whose consensus prices converge along with the primal
    /// iterate. Validated for dimension and finiteness; ignored (never an
    /// error) by solvers without dual state or on mismatch, so it is safe
    /// to carry a stale dual across online replans. Filled from
    /// [`SolveResult::dual`] of the previous solve.
    pub warm_start_dual: Option<Vec<f64>>,
    /// Record one [`IterSample`] per iteration into
    /// [`SolveResult::iter_trace`]. Off by default: the trace allocates
    /// (one small struct per iteration), so it is an opt-in diagnostic
    /// for convergence studies, not hot-path telemetry. Rendered as
    /// Chrome counter tracks by `esched_obs::chrome::convergence_trace`.
    pub trace_iters: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            max_iters: 20_000,
            gap_tol: 1e-7,
            rel_tol: 1e-12,
            stall_iters: 25,
            gap_check_every: 10,
            warm_start: None,
            warm_start_dual: None,
            trace_iters: false,
        }
    }
}

impl SolveOptions {
    /// A faster, looser preset for Monte-Carlo experiment baselines where
    /// 1e-4-relative accuracy on `E^OPT` is ample.
    pub fn fast() -> Self {
        Self {
            max_iters: 5_000,
            gap_tol: 1e-5,
            rel_tol: 1e-10,
            stall_iters: 15,
            gap_check_every: 10,
            warm_start: None,
            warm_start_dual: None,
            trace_iters: false,
        }
    }

    /// A tight preset for golden-value tests.
    pub fn precise() -> Self {
        Self {
            max_iters: 200_000,
            gap_tol: 1e-10,
            rel_tol: 1e-15,
            stall_iters: 50,
            gap_check_every: 20,
            warm_start: None,
            warm_start_dual: None,
            trace_iters: false,
        }
    }

    /// Builder-style warm start.
    pub fn with_warm_start(mut self, x0: Vec<f64>) -> Self {
        self.warm_start = Some(x0);
        self
    }

    /// Builder-style dual warm start (see
    /// [`SolveOptions::warm_start_dual`]).
    pub fn with_warm_start_dual(mut self, y0: Vec<f64>) -> Self {
        self.warm_start_dual = Some(y0);
        self
    }

    /// Builder-style per-iteration trace toggle.
    pub fn with_trace_iters(mut self, on: bool) -> Self {
        self.trace_iters = on;
        self
    }

    /// The validated, projected warm-start point for `ep`, if one is set
    /// and dimension-compatible. Projection makes any finite guess usable:
    /// stale coordinates from a neighboring instance are clamped back into
    /// `0 ≤ x ≤ Δ_j` and the per-subinterval capacity simplex.
    pub fn warm_point(&self, ep: &EnergyProgram) -> Option<Vec<f64>> {
        let guess = self.warm_start.as_ref()?;
        if guess.len() != ep.dim() || guess.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut out = vec![0.0; ep.dim()];
        ep.project(guess, &mut out);
        debug_assert!(ep.is_feasible(&out, 1e-6));
        Some(out)
    }

    /// The validated dual warm start for `ep`, if one is set and
    /// dimension-compatible with all-finite entries. Unlike
    /// [`SolveOptions::warm_point`] there is no projection — duals are
    /// unconstrained — but a mismatched or non-finite vector is silently
    /// dropped so stale duals can never poison a solve.
    pub fn warm_duals(&self, ep: &EnergyProgram) -> Option<&[f64]> {
        let duals = self.warm_start_dual.as_ref()?;
        if duals.len() != ep.dim() || duals.iter().any(|v| !v.is_finite()) {
            return None;
        }
        Some(duals)
    }
}

/// Guard a caller-supplied starting point for the direct solver entry
/// points. A resized vector (the task set mutated between solves — online
/// arrivals change `dim`), a non-finite coordinate, or an infeasible
/// point is replaced by [`EnergyProgram::initial_point`] or re-projected
/// instead of tripping the solvers' internal asserts. A valid feasible
/// point passes through untouched, keeping cold-start paths bit-identical
/// to before.
pub(crate) fn sanitize_start(ep: &EnergyProgram, x0: Vec<f64>) -> Vec<f64> {
    if x0.len() != ep.dim() || x0.iter().any(|v| !v.is_finite()) {
        return ep.initial_point();
    }
    if ep.is_feasible(&x0, 1e-6) {
        return x0;
    }
    let mut out = vec![0.0; x0.len()];
    ep.project(&x0, &mut out);
    out
}

/// Which method solves the energy program.
///
/// The six free functions ([`crate::solve_pgd`], [`crate::solve_fista`],
/// [`crate::solve_frank_wolfe`], [`crate::solve_barrier`],
/// [`crate::solve_block_descent`], [`crate::solve_admm`]) remain the
/// low-level entry points; [`SolverKind::solve`] dispatches to them so
/// configuration surfaces (`EngineConfig`, the solver study, CLI flags)
/// can select a solver by value instead of threading function pointers
/// and adapters around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// Projected gradient descent with backtracking (default).
    #[default]
    ProjectedGradient,
    /// FISTA with adaptive restart.
    Fista,
    /// Frank–Wolfe with golden-section line search.
    FrankWolfe,
    /// Primal log-barrier interior point (the paper's named method).
    InteriorPoint,
    /// Gauss–Seidel block-coordinate descent with exact waterfilling
    /// block solves.
    BlockDescent,
    /// Consensus ADMM: per-task subproblems solved exactly (bisection on
    /// the task's share total) and fanned across the shared worker pool,
    /// coordinated by per-subinterval prices with an over-relaxed update.
    /// The only parallel solver, and the only one with dual state —
    /// [`SolveResult::dual`] is `Some` and
    /// [`SolveOptions::warm_start_dual`] is honored.
    Admm,
}

impl SolverKind {
    /// All six kinds, in study order.
    pub const ALL: [SolverKind; 6] = [
        SolverKind::ProjectedGradient,
        SolverKind::Fista,
        SolverKind::FrankWolfe,
        SolverKind::InteriorPoint,
        SolverKind::BlockDescent,
        SolverKind::Admm,
    ];

    /// Solve `ep` with this method. First-order methods and block descent
    /// start from [`SolveOptions::warm_start`] when it is set (validated
    /// and projected), otherwise from [`EnergyProgram::initial_point`];
    /// the barrier solver always chooses its own interior starting point.
    pub fn solve(&self, ep: &EnergyProgram, opts: &SolveOptions) -> SolveResult {
        // A fresh env-sized pool per solve: the pool struct is one usize
        // (threads spawn per call), so this is free, and it keeps
        // `ESCHED_ENGINE_THREADS` live-reconfigurable between solves.
        self.solve_in(ep, opts, &Pool::new())
    }

    /// Like [`SolverKind::solve`], but ADMM runs its rounds on a team of
    /// the supplied `pool`'s workers instead of an env-sized one. The serial
    /// solvers ignore `pool`. Results are byte-identical at any worker
    /// count, so pool choice is purely a throughput knob.
    pub fn solve_in(&self, ep: &EnergyProgram, opts: &SolveOptions, pool: &Pool) -> SolveResult {
        let start = |ep: &EnergyProgram| {
            if let Some(x0) = opts.warm_point(ep) {
                esched_obs::metric_counter!("esched.opt.warm_starts").inc();
                x0
            } else {
                ep.initial_point()
            }
        };
        match self {
            SolverKind::ProjectedGradient => crate::gradient::solve_pgd(ep, start(ep), opts),
            SolverKind::Fista => crate::fista::solve_fista(ep, start(ep), opts),
            SolverKind::FrankWolfe => crate::frank_wolfe::solve_frank_wolfe(ep, start(ep), opts),
            SolverKind::InteriorPoint => crate::barrier::solve_barrier(ep, opts),
            SolverKind::BlockDescent => {
                crate::block_descent::solve_block_descent_from(ep, start(ep), opts)
            }
            SolverKind::Admm => crate::admm::solve_admm_in(ep, opts, pool),
        }
    }

    /// Short stable name, matching the solver-study and report labels.
    pub fn name(&self) -> &'static str {
        match self {
            SolverKind::ProjectedGradient => "pgd",
            SolverKind::Fista => "fista",
            SolverKind::FrankWolfe => "frank_wolfe",
            SolverKind::InteriorPoint => "interior_point",
            SolverKind::BlockDescent => "block_descent",
            SolverKind::Admm => "admm",
        }
    }

    /// Inverse of [`SolverKind::name`] (`None` for unknown names).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Counters and timings every solver collects while it runs.
///
/// Collection is unconditional — it is a handful of integer increments and
/// one `Instant` pair per solve, far below measurement noise — so the
/// telemetry is always present on [`SolveResult`] regardless of whether
/// tracing is enabled. The experiments harness aggregates these into the
/// per-run report (`esched_obs::report::RunReport`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolverTelemetry {
    /// Iterations executed (sweeps for block descent, Newton steps for the
    /// barrier method). Mirrors [`SolveResult::iters`].
    pub iters: usize,
    /// Total iterations whose relative objective decrease fell below
    /// `rel_tol` (the stall counter's increments, summed over the run).
    pub stalls: usize,
    /// Duality-gap evaluations. Each costs a gradient plus an LMO sweep,
    /// which is why [`SolveOptions::gap_check_every`] exists.
    pub gap_evals: usize,
    /// Line-search step halvings across the whole run (backtracking and
    /// Armijo searches; zero for solvers without one).
    pub backtracks: usize,
    /// Wall-clock duration of the solve, in seconds.
    pub wall_s: f64,
    /// Certified duality gap at exit. Mirrors [`SolveResult::gap`].
    pub final_gap: f64,
    /// Whether a stopping criterion (not the iteration cap) fired.
    /// Mirrors [`SolveResult::converged`].
    pub converged: bool,
}

impl SolverTelemetry {
    /// Mirror this solve's counters into the process-global metrics
    /// registry (`esched_obs::metrics`).
    ///
    /// Every solver calls this once, right after constructing its
    /// telemetry, so workspace-wide instruments accumulate across solves
    /// without changing the per-solve [`SolveResult`] shape:
    ///
    /// - `esched.opt.solves` / `esched.opt.solves.<solver>` — solve counts,
    /// - `esched.opt.iters`, `esched.opt.gap_evals`,
    ///   `esched.opt.backtracks`, `esched.opt.stalls` — summed counters,
    /// - `esched.opt.cap_hits` — solves that exhausted the iteration cap,
    /// - `esched.opt.solve_wall_ns` — per-solve wall time histogram.
    ///
    /// `solver` is a short stable name (`"pgd"`, `"fista"`,
    /// `"frank_wolfe"`, `"barrier"`, `"block_descent"`).
    pub fn publish(&self, solver: &str) {
        use esched_obs::{metric_counter, metric_histogram, metrics};
        metric_counter!("esched.opt.solves").inc();
        metrics::counter(&format!("esched.opt.solves.{solver}")).inc();
        metric_counter!("esched.opt.iters").add(self.iters as u64);
        metric_counter!("esched.opt.gap_evals").add(self.gap_evals as u64);
        metric_counter!("esched.opt.backtracks").add(self.backtracks as u64);
        metric_counter!("esched.opt.stalls").add(self.stalls as u64);
        if !self.converged {
            metric_counter!("esched.opt.cap_hits").inc();
        }
        metric_histogram!("esched.opt.solve_wall_ns").record((self.wall_s * 1e9) as u64);
    }
}

/// One per-iteration convergence sample, recorded when
/// [`SolveOptions::trace_iters`] is on.
///
/// All six solvers emit the same shape; `step` is the solver's own
/// step-quality scalar — accepted step size for PGD/FISTA, the line-search
/// `γ` for Frank–Wolfe, the Armijo step for the barrier's Newton steps,
/// the per-sweep objective decrease for block descent, and the primal
/// residual norm for ADMM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterSample {
    /// 1-based iteration number (sweep / Newton step for the non-first-
    /// order methods).
    pub iter: usize,
    /// Objective value after the iteration.
    pub objective: f64,
    /// Last known certified duality gap (`inf` until the first gap check;
    /// Frank–Wolfe updates it every iteration for free).
    pub gap: f64,
    /// Solver-specific step scalar (see type docs).
    pub step: f64,
}

/// Outcome of a solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResult {
    /// The final (feasible) iterate.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
    /// Certified duality gap at `x` (upper bound on suboptimality).
    pub gap: f64,
    /// Iterations used.
    pub iters: usize,
    /// Whether a stopping criterion (not the iteration cap) fired.
    pub converged: bool,
    /// Counters and wall time collected during the solve.
    pub telemetry: SolverTelemetry,
    /// Per-iteration convergence samples — present iff
    /// [`SolveOptions::trace_iters`] was set.
    pub iter_trace: Option<Vec<IterSample>>,
    /// Final dual point (per-variable consensus multipliers, unscaled by
    /// the penalty so a future solve can adopt them under any `ρ`). `Some`
    /// only for solvers with dual state — currently ADMM. Feed it back via
    /// [`SolveOptions::with_warm_start_dual`] to warm-start the prices on
    /// a re-solve.
    pub dual: Option<Vec<f64>>,
}
