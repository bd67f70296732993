//! Primal log-barrier interior-point solver — the method the paper
//! actually names ("the Interior Point method \[9\]") when discussing how
//! the reformulated convex program would be solved optimally.
//!
//! Minimizes `Φ_μ(x) = E(x) + μ·B(x)` over strictly feasible `x`, where
//! the barrier covers the box (`0 < x_k < Δ_{j(k)}`) and the per-
//! subinterval capacity slacks (`s_j = m·Δ_j − Σ_{k∈j} x_k > 0`), with
//! `μ` driven to zero on a geometric schedule.
//!
//! The Newton system exploits the program's structure. The Hessian is
//!
//! ```text
//! H = D + Σ_i σ_i·u_i u_iᵀ + Σ_j ρ_j·a_j a_jᵀ
//! ```
//!
//! with `D` diagonal (box-barrier curvature), `u_i` the indicator of task
//! `i`'s variables (the objective couples a task's variables only through
//! their sum), and `a_j` the indicator of subinterval `j`'s variables
//! (capacity barrier). The Woodbury identity reduces each Newton solve to
//! a dense `(n + N)`-dimensional system ([`crate::linalg`]), so a step
//! costs `O(dim + (n+N)³)` instead of `O(dim³)` — the structure-aware IP
//! iteration the complexity discussion in the paper alludes to.

// Indexed loops below walk several parallel arrays at once; iterator
// zips would obscure the numerics. Silence clippy's range-loop lint here.
#![allow(clippy::needless_range_loop)]

use crate::energy_program::EnergyProgram;
use crate::linalg::{lu_solve, Matrix};
use crate::solver::{SolveOptions, SolveResult, SolverTelemetry};
use esched_obs::{event, span, Level};
use std::time::Instant;

/// Fraction-to-boundary rule: never step past 99.5% of the way to any
/// constraint.
const FRAC_TO_BOUNDARY: f64 = 0.995;

/// Internal view of the program structure the barrier method needs.
struct Structure {
    dim: usize,
    n_tasks: usize,
    n_subs: usize,
    /// Task index of each variable.
    task_of: Vec<usize>,
    /// Subinterval index of each variable.
    sub_of: Vec<usize>,
    /// Δ of each variable's subinterval.
    delta_of: Vec<f64>,
    /// Capacity `m·Δ_j` of each subinterval.
    cap: Vec<f64>,
}

fn structure(ep: &EnergyProgram) -> Structure {
    let dim = ep.dim();
    let n_tasks = ep.task_count();
    let n_subs = ep.subinterval_count();
    let mut task_of = vec![0usize; dim];
    let mut sub_of = vec![0usize; dim];
    let mut delta_of = vec![0.0; dim];
    let mut cap = vec![0.0; n_subs];
    for i in 0..n_tasks {
        for j in 0..n_subs {
            if let Some(k) = ep.flat_index(i, j) {
                task_of[k] = i;
                sub_of[k] = j;
            }
        }
    }
    for j in 0..n_subs {
        cap[j] = ep.capacity(j);
    }
    for k in 0..dim {
        delta_of[k] = ep.delta_of_sub(sub_of[k]);
    }
    Structure {
        dim,
        n_tasks,
        n_subs,
        task_of,
        sub_of,
        delta_of,
        cap,
    }
}

/// Barrier value `B(x)`; `+∞` when any constraint is not strictly
/// satisfied.
fn barrier_value(st: &Structure, x: &[f64]) -> f64 {
    let mut b = 0.0;
    let mut slack = st.cap.clone();
    for k in 0..st.dim {
        if x[k] <= 0.0 || x[k] >= st.delta_of[k] {
            return f64::INFINITY;
        }
        b -= x[k].ln() + (st.delta_of[k] - x[k]).ln();
        slack[st.sub_of[k]] -= x[k];
    }
    for &s in &slack {
        if s <= 0.0 {
            return f64::INFINITY;
        }
        b -= s.ln();
    }
    b
}

/// One Newton step of `Φ_μ` at strictly feasible `x`. Returns the descent
/// direction, or `None` when the reduced system is singular.
fn newton_direction(ep: &EnergyProgram, st: &Structure, x: &[f64], mu: f64) -> Option<Vec<f64>> {
    let dim = st.dim;
    // Slacks per subinterval.
    let mut slack = st.cap.clone();
    for k in 0..dim {
        slack[st.sub_of[k]] -= x[k];
    }
    // Objective pieces.
    let mut g = vec![0.0; dim];
    ep.gradient(x, &mut g);
    let totals = ep.total_times(x);
    // σ_i = ∂²E/∂x∂x within task i's block.
    let (gamma, alpha, _) = ep.power_parameters();
    let sigmas: Vec<f64> = (0..st.n_tasks)
        .map(|i| {
            let c = ep.work_of_task(i);
            let xi = totals[i].max(1e-12);
            gamma * alpha * (alpha - 1.0) * c.powf(alpha) / xi.powf(alpha + 1.0)
        })
        .collect();
    let rhos: Vec<f64> = slack.iter().map(|&s| mu / (s * s)).collect();

    // Full gradient of Φ_μ and diagonal D.
    let mut grad = vec![0.0; dim];
    let mut d = vec![0.0; dim];
    for k in 0..dim {
        let up = st.delta_of[k] - x[k];
        grad[k] = g[k] - mu / x[k] + mu / up + mu / slack[st.sub_of[k]];
        d[k] = mu / (x[k] * x[k]) + mu / (up * up);
        // Guard against a zero diagonal when μ is tiny: the objective
        // block curvature keeps H PD, but D must be invertible for the
        // Woodbury split; add a floor.
        d[k] = d[k].max(1e-12);
    }

    // Woodbury: H = D + Σσ_i u u^T + Σρ_j a a^T.
    // M = C^{-1} + W^T D^{-1} W, with columns ordered tasks then subs.
    let r = st.n_tasks + st.n_subs;
    let mut m = Matrix::zeros(r, r);
    for (i, &s) in sigmas.iter().enumerate() {
        m[(i, i)] = if s > 1e-300 { 1.0 / s } else { 1e300 };
    }
    for (j, &rho) in rhos.iter().enumerate() {
        let jj = st.n_tasks + j;
        m[(jj, jj)] = if rho > 1e-300 { 1.0 / rho } else { 1e300 };
    }
    // W^T D^{-1} W contributions.
    for k in 0..dim {
        let ti = st.task_of[k];
        let sj = st.n_tasks + st.sub_of[k];
        let dinv = 1.0 / d[k];
        m[(ti, ti)] += dinv;
        m[(sj, sj)] += dinv;
        m[(ti, sj)] += dinv;
        m[(sj, ti)] += dinv;
    }
    // Right-hand side: W^T D^{-1} grad.
    let mut wt = vec![0.0; r];
    for k in 0..dim {
        let dinv_g = grad[k] / d[k];
        wt[st.task_of[k]] += dinv_g;
        wt[st.n_tasks + st.sub_of[k]] += dinv_g;
    }
    let z = lu_solve(&m, &wt)?;
    // d = −H^{-1} grad = −(D^{-1}grad − D^{-1} W z).
    let mut dir = vec![0.0; dim];
    for k in 0..dim {
        let corr = z[st.task_of[k]] + z[st.n_tasks + st.sub_of[k]];
        dir[k] = -(grad[k] - corr) / d[k];
    }
    Some(dir)
}

/// Largest step along `dir` keeping every constraint strictly satisfied,
/// scaled by the fraction-to-boundary rule.
fn max_step(st: &Structure, x: &[f64], dir: &[f64]) -> f64 {
    let mut step = 1.0_f64;
    let mut slack = st.cap.clone();
    let mut dslack = vec![0.0; st.n_subs];
    for k in 0..st.dim {
        slack[st.sub_of[k]] -= x[k];
        dslack[st.sub_of[k]] += dir[k];
        if dir[k] < 0.0 {
            step = step.min(-x[k] / dir[k]);
        } else if dir[k] > 0.0 {
            step = step.min((st.delta_of[k] - x[k]) / dir[k]);
        }
    }
    for j in 0..st.n_subs {
        if dslack[j] > 0.0 {
            step = step.min(slack[j] / dslack[j]);
        }
    }
    step * FRAC_TO_BOUNDARY
}

/// Solve the energy program with the primal log-barrier method from the
/// program's canonical interior start.
pub fn solve_barrier(ep: &EnergyProgram, opts: &SolveOptions) -> SolveResult {
    let st = structure(ep);
    let dim = st.dim;
    let _span = span!(
        Level::Debug,
        "solve_barrier",
        dim = dim,
        n_tasks = st.n_tasks,
        n_subintervals = st.n_subs,
    );
    let t_start = Instant::now();
    let mut backtracks = 0usize;

    // Strictly interior start: 90% of the even-share point.
    let mut x: Vec<f64> = ep
        .initial_point()
        .iter()
        .map(|&v| 0.9 * v.max(1e-9))
        .collect();
    debug_assert!(barrier_value(&st, &x).is_finite(), "start not interior");

    // μ schedule: start so the barrier term is comparable to the
    // objective, shrink geometrically.
    let n_constraints = (2 * dim + st.n_subs) as f64;
    let mut mu = (ep.objective(&x).abs() / n_constraints).max(1e-6);
    let mut iters = 0usize;
    let mut converged = false;
    let mut iter_trace = opts.trace_iters.then(Vec::new);

    'outer: for _ in 0..60 {
        // Inner Newton loop for the current μ.
        for _ in 0..50 {
            iters += 1;
            if iters >= opts.max_iters {
                break 'outer;
            }
            let Some(dir) = newton_direction(ep, &st, &x, mu) else {
                break;
            };
            let norm2: f64 = dir.iter().map(|v| v * v).sum();
            if norm2.sqrt() < 1e-12 * (1.0 + mu) {
                break;
            }
            let mut step = max_step(&st, &x, &dir);
            // Armijo backtracking on Φ_μ.
            let phi0 = ep.objective(&x) + mu * barrier_value(&st, &x);
            let mut accepted = false;
            for _ in 0..40 {
                let trial: Vec<f64> = x.iter().zip(&dir).map(|(a, b)| a + step * b).collect();
                let phi = ep.objective(&trial) + mu * barrier_value(&st, &trial);
                if phi < phi0 - 1e-12 * phi0.abs() {
                    x = trial;
                    accepted = true;
                    break;
                }
                step *= 0.5;
                backtracks += 1;
                if step < 1e-16 {
                    break;
                }
            }
            if !accepted {
                break; // Newton converged for this μ
            }
            if let Some(trace) = iter_trace.as_mut() {
                // The barrier's certifiable bound at this point is the
                // duality bound m·μ, which is what the outer loop tests.
                trace.push(crate::solver::IterSample {
                    iter: iters,
                    objective: ep.objective(&x),
                    gap: n_constraints * mu,
                    step,
                });
            }
        }
        // Outer stopping: the barrier duality bound m_constraints·μ.
        if n_constraints * mu < opts.gap_tol * (1.0 + ep.objective(&x).abs()) {
            converged = true;
            break;
        }
        mu *= 0.2;
    }

    let objective = ep.objective(&x);
    let gap = ep.duality_gap(&x);
    if !converged {
        event!(
            Level::Warn,
            "barrier hit iteration cap",
            iters = iters,
            gap = gap
        );
    }
    let telemetry = SolverTelemetry {
        iters,
        stalls: 0,
        gap_evals: 1,
        backtracks,
        wall_s: t_start.elapsed().as_secs_f64(),
        final_gap: gap,
        converged,
    };
    telemetry.publish("barrier");
    event!(
        Level::Debug,
        "barrier done",
        newton_steps = iters,
        backtracks = backtracks,
        gap = gap,
        converged = converged,
    );
    SolveResult {
        x,
        objective,
        gap,
        iters,
        converged,
        telemetry,
        iter_trace,
        dual: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::solve_pgd;
    use esched_subinterval::Timeline;
    use esched_types::{PolynomialPower, TaskSet};

    fn program(tasks: &TaskSet, cores: usize, alpha: f64, p0: f64) -> EnergyProgram {
        let tl = Timeline::build(tasks);
        EnergyProgram::new(tasks, &tl, cores, PolynomialPower::paper(alpha, p0))
    }

    fn intro() -> TaskSet {
        TaskSet::from_triples(&[(0.0, 12.0, 4.0), (2.0, 10.0, 2.0), (4.0, 8.0, 4.0)])
    }

    fn vd() -> TaskSet {
        TaskSet::from_triples(&[
            (0.0, 10.0, 8.0),
            (2.0, 18.0, 14.0),
            (4.0, 16.0, 8.0),
            (6.0, 14.0, 4.0),
            (8.0, 20.0, 10.0),
            (12.0, 22.0, 6.0),
        ])
    }

    #[test]
    fn barrier_solves_section_ii_example() {
        let ep = program(&intro(), 2, 3.0, 0.01);
        let r = solve_barrier(&ep, &SolveOptions::precise());
        let expect = 155.0 / 32.0 + 0.2;
        assert!(
            (r.objective - expect).abs() < 1e-4 * expect,
            "barrier objective {} vs {}",
            r.objective,
            expect
        );
        assert!(ep.is_feasible(&r.x, 1e-9), "iterate left the polytope");
    }

    #[test]
    fn barrier_matches_pgd_across_settings() {
        for (alpha, p0, cores) in [(3.0, 0.0, 4), (2.0, 0.2, 2), (2.5, 0.1, 4)] {
            let ep = program(&vd(), cores, alpha, p0);
            let b = solve_barrier(&ep, &SolveOptions::default());
            let p = solve_pgd(&ep, ep.initial_point(), &SolveOptions::default());
            assert!(
                (b.objective - p.objective).abs() < 2e-3 * (1.0 + p.objective),
                "alpha={alpha} p0={p0}: barrier {} vs pgd {}",
                b.objective,
                p.objective
            );
        }
    }

    #[test]
    fn barrier_iterates_stay_strictly_interior_at_the_end() {
        let ep = program(&vd(), 4, 3.0, 0.1);
        let st = structure(&ep);
        let r = solve_barrier(&ep, &SolveOptions::default());
        assert!(barrier_value(&st, &r.x).is_finite());
    }

    #[test]
    fn barrier_certifies_small_gap() {
        let ep = program(&intro(), 2, 3.0, 0.05);
        let r = solve_barrier(&ep, &SolveOptions::default());
        assert!(
            r.gap <= 1e-3 * (1.0 + r.objective),
            "gap {} too large",
            r.gap
        );
    }
}
