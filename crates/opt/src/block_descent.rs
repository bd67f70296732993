//! Block-coordinate descent over subintervals with *exact* block solves.
//!
//! The energy program's constraints decompose per subinterval, and its
//! objective couples a task's variables only through the total `X_i`.
//! Fixing every block except subinterval `j`, the block subproblem is
//!
//! ```text
//! min Σ_{i∈j} [ γ·C_i^α/(r_i + x_i)^{α−1} + p₀·(r_i + x_i) ]
//! s.t. 0 ≤ x_i ≤ Δ_j,  Σ_i x_i ≤ m·Δ_j
//! ```
//!
//! where `r_i` is task `i`'s execution time outside block `j`. The KKT
//! conditions give a **closed form** per task as a function of the budget
//! multiplier `λ`:
//!
//! ```text
//! x_i(λ) = clamp( C_i · (γ(α−1)/(p₀+λ))^{1/α} − r_i, 0, Δ_j )
//! ```
//!
//! — a classic waterfilling: one scalar bisection on `λ` solves the whole
//! block exactly. Gauss–Seidel sweeps over blocks then decrease the
//! objective monotonically to the global optimum (the objective is convex
//! and smooth where it matters, and blocks overlap only through the
//! separable totals).
//!
//! This is the fifth independent solver in the suite; it needs no step
//! sizes, no projections, and no line searches.

use crate::energy_program::EnergyProgram;
use crate::scalar::bisect;
use crate::solver::{SolveOptions, SolveResult, SolverTelemetry};
use esched_obs::{event, span, Level};
use std::time::Instant;

/// The closed-form unconstrained block response for one task.
fn response(c: f64, r: f64, gamma: f64, alpha: f64, p0_plus_lambda: f64) -> f64 {
    if p0_plus_lambda <= 0.0 {
        return f64::INFINITY; // zero marginal cost of time: stretch fully
    }
    c * (gamma * (alpha - 1.0) / p0_plus_lambda).powf(1.0 / alpha) - r
}

/// Solve one block exactly. `rest[i]` is the task's time outside the
/// block; `works[i]` its `C_i`. Returns the new block values.
fn solve_block(
    works: &[f64],
    rest: &[f64],
    delta: f64,
    capacity: f64,
    gamma: f64,
    alpha: f64,
    p0: f64,
) -> Vec<f64> {
    let clamp_all = |lam: f64| -> Vec<f64> {
        works
            .iter()
            .zip(rest)
            .map(|(&c, &r)| response(c, r, gamma, alpha, p0 + lam).clamp(0.0, delta))
            .collect()
    };
    // λ = 0: if the unconstrained optimum fits, done.
    let x0 = clamp_all(0.0);
    let s0: f64 = x0.iter().sum();
    if s0 <= capacity {
        return x0;
    }
    // Otherwise bisect λ > 0 until the block budget binds. The sum is
    // continuous, decreasing in λ, and goes to ... as λ → ∞, every
    // response → −r_i < 0 → clamped 0, so a bracket always exists.
    let mut hi = 1.0_f64.max(p0);
    for _ in 0..200 {
        let s: f64 = clamp_all(hi).iter().sum();
        if s <= capacity {
            break;
        }
        hi *= 2.0;
    }
    let lam = bisect(
        |l| clamp_all(l).iter().sum::<f64>() - capacity,
        0.0,
        hi,
        1e-13,
    );
    clamp_all(lam)
}

/// Run Gauss–Seidel block-coordinate descent from the canonical interior
/// start.
pub fn solve_block_descent(ep: &EnergyProgram, opts: &SolveOptions) -> SolveResult {
    solve_block_descent_from(ep, ep.initial_point(), opts)
}

/// [`solve_block_descent`] from a caller-supplied feasible starting point
/// (the warm-start entry used by [`crate::SolverKind::solve`]).
pub fn solve_block_descent_from(
    ep: &EnergyProgram,
    x0: Vec<f64>,
    opts: &SolveOptions,
) -> SolveResult {
    let (gamma, alpha, p0) = ep.power_parameters();
    let n = ep.task_count();
    let nsub = ep.subinterval_count();
    let _span = span!(
        Level::Debug,
        "solve_block_descent",
        n_tasks = n,
        n_subintervals = nsub,
    );
    let t_start = Instant::now();

    let mut x = crate::solver::sanitize_start(ep, x0);
    let mut fx = ep.objective(&x);
    let mut iters = 0usize;
    // A start that already certifies is returned after zero sweeps.
    let mut gap = ep.duality_gap(&x);
    let mut gap_evals = 1usize;
    let mut converged = gap <= opts.gap_tol * (1.0 + fx.abs());
    let start_certified = converged;
    let mut gap_checked = false;
    let mut stalled = 0usize;
    let mut stalls = 0usize;
    let mut iter_trace = opts.trace_iters.then(Vec::new);

    // Per-block member lists (task, flat index).
    let members: Vec<Vec<(usize, usize)>> = (0..nsub)
        .map(|j| {
            (0..n)
                .filter_map(|i| ep.flat_index(i, j).map(|k| (i, k)))
                .collect()
        })
        .collect();

    let max_sweeps = if start_certified {
        0
    } else {
        opts.max_iters.max(1)
    };
    for sweep in 0..max_sweeps {
        iters = sweep + 1;
        let mut totals = ep.total_times(&x);
        for (j, mem) in members.iter().enumerate() {
            if mem.is_empty() {
                continue;
            }
            let delta = ep.delta_of_sub(j);
            let capacity = ep.capacity(j);
            let works: Vec<f64> = mem.iter().map(|&(i, _)| ep.work_of_task(i)).collect();
            let rest: Vec<f64> = mem
                .iter()
                .map(|&(i, k)| (totals[i] - x[k]).max(0.0))
                .collect();
            let new = solve_block(&works, &rest, delta, capacity, gamma, alpha, p0);
            for (&(i, k), &v) in mem.iter().zip(&new) {
                totals[i] += v - x[k];
                x[k] = v;
            }
        }
        let f_new = ep.objective(&x);
        let decrease = fx - f_new;
        fx = f_new;
        if let Some(trace) = iter_trace.as_mut() {
            trace.push(crate::solver::IterSample {
                iter: iters,
                objective: fx,
                gap,
                step: decrease,
            });
        }
        if decrease.abs() <= opts.rel_tol * (1.0 + fx.abs()) {
            stalled += 1;
            stalls += 1;
            if stalled >= 3 {
                converged = true;
                break;
            }
        } else {
            stalled = 0;
        }
        if (sweep + 1) % opts.gap_check_every.max(1) == 0 {
            gap = ep.duality_gap(&x);
            gap_evals += 1;
            gap_checked = true;
            if gap <= opts.gap_tol * (1.0 + fx.abs()) {
                converged = true;
                break;
            }
        }
    }

    if !start_certified && (converged || !gap_checked) {
        gap = ep.duality_gap(&x);
        gap_evals += 1;
    }
    if !converged {
        event!(
            Level::Warn,
            "block descent hit sweep cap",
            sweeps = iters,
            gap = gap
        );
    }
    let telemetry = SolverTelemetry {
        iters,
        stalls,
        gap_evals,
        backtracks: 0,
        wall_s: t_start.elapsed().as_secs_f64(),
        final_gap: gap,
        converged,
    };
    telemetry.publish("block_descent");
    event!(
        Level::Debug,
        "block descent done",
        sweeps = iters,
        gap_evals = gap_evals,
        gap = gap,
        converged = converged,
    );
    SolveResult {
        x,
        objective: fx,
        gap,
        iters,
        converged,
        telemetry,
        iter_trace,
        dual: None,
        levels: None,
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
    fn block_descent_solves_section_ii_example() {
        let ep = program(&intro(), 2, 3.0, 0.01);
        let r = solve_block_descent(&ep, &SolveOptions::precise());
        let expect = 155.0 / 32.0 + 0.2;
        assert!(
            (r.objective - expect).abs() < 1e-5,
            "objective {} vs {}",
            r.objective,
            expect
        );
        assert!(ep.is_feasible(&r.x, 1e-7));
    }

    #[test]
    fn block_descent_matches_pgd() {
        for (alpha, p0, cores) in [(3.0, 0.0, 4), (2.0, 0.2, 2), (2.5, 0.1, 4)] {
            let ep = program(&vd(), cores, alpha, p0);
            let b = solve_block_descent(&ep, &SolveOptions::default());
            let p = solve_pgd(&ep, ep.initial_point(), &SolveOptions::default());
            assert!(
                (b.objective - p.objective).abs() < 1e-3 * (1.0 + p.objective),
                "alpha={alpha} p0={p0}: block {} vs pgd {}",
                b.objective,
                p.objective
            );
        }
    }

    #[test]
    fn block_solve_respects_the_budget_exactly_when_it_binds() {
        // Three tasks fighting over one core's 2-unit block.
        let x = solve_block(&[4.0, 2.0, 1.0], &[1.0, 1.0, 1.0], 2.0, 2.0, 1.0, 3.0, 0.0);
        let s: f64 = x.iter().sum();
        assert!((s - 2.0).abs() < 1e-7, "sum {s}");
        for &v in &x {
            assert!((0.0..=2.0 + 1e-9).contains(&v));
        }
        // The biggest task gets the biggest share.
        assert!(x[0] > x[1] && x[1] > x[2]);
    }

    #[test]
    fn block_solve_leaves_slack_when_static_power_is_high() {
        // One task, plenty of capacity, p0 so high the critical frequency
        // binds: the block should NOT use all available time.
        let x = solve_block(&[1.0], &[0.0], 10.0, 10.0, 1.0, 2.0, 1.0);
        // Closed form: x = C·(γ(α−1)/p0)^{1/α} = 1·(1/1)^{1/2} = 1.
        assert!((x[0] - 1.0).abs() < 1e-9, "{}", x[0]);
    }

    #[test]
    fn block_descent_converges_fast_on_paper_instances() {
        let ep = program(&vd(), 4, 3.0, 0.1);
        let r = solve_block_descent(&ep, &SolveOptions::default());
        assert!(r.converged);
        // Gauss–Seidel with exact block solves needs very few sweeps.
        assert!(r.iters < 500, "took {} sweeps", r.iters);
        assert!(r.gap <= 1e-5 * (1.0 + r.objective), "gap {}", r.gap);
    }
}
