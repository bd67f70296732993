//! Projected gradient descent with backtracking line search.
//!
//! The workhorse solver for the reformulated energy program. Each
//! iteration takes a gradient step, projects blockwise onto the product of
//! capped simplices, and backtracks the step size until the standard
//! sufficient-decrease condition for proximal gradient methods holds:
//!
//! ```text
//! E(x⁺) ≤ E(x) + ⟨∇E(x), x⁺ − x⟩ + ‖x⁺ − x‖² / (2s)
//! ```
//!
//! The objective is convex and smooth on the region where every `X_i` is
//! bounded away from zero; monotone descent from a feasible interior start
//! keeps iterates in such a region (energy diverges as `X_i → 0`), so the
//! method converges to the global optimum. Convergence is *certified* via
//! the Frank–Wolfe duality gap, not just objective stalling; a start whose
//! gap already certifies is returned after zero iterations.

use crate::energy_program::EnergyProgram;
use crate::solver::{IterSample, SolveOptions, SolveResult, SolverTelemetry};
use esched_obs::{event, span, Level};
use std::time::Instant;

/// Run projected gradient descent from `x0` (must be feasible;
/// use [`EnergyProgram::initial_point`]).
pub fn solve_pgd(ep: &EnergyProgram, x0: Vec<f64>, opts: &SolveOptions) -> SolveResult {
    pgd(ep, x0, opts, |z, out| ep.project(z, out))
}

/// [`solve_pgd`] with the projection onto the feasible polytope passed
/// in, so that tests can run the method on an oracle projection.
fn pgd(
    ep: &EnergyProgram,
    x0: Vec<f64>,
    opts: &SolveOptions,
    project: impl Fn(&[f64], &mut [f64]),
) -> SolveResult {
    let dim = ep.dim();
    let x0 = crate::solver::sanitize_start(ep, x0);
    let _span = span!(
        Level::Debug,
        "solve_pgd",
        dim = dim,
        max_iters = opts.max_iters
    );
    let t_start = Instant::now();

    let mut x = x0;
    let mut fx = ep.objective(&x);
    let mut g = vec![0.0; dim];
    let mut trial = vec![0.0; dim];
    let mut cand = vec![0.0; dim];
    let mut step = 1.0_f64;
    let mut stalled = 0usize;
    let mut iters = 0usize;
    let mut gap = ep.duality_gap(&x);
    let mut gap_evals = 1usize;
    let mut converged = gap <= opts.gap_tol * (1.0 + fx.abs());
    let start_certified = converged;
    let mut gap_checked = false;
    let mut stalls = 0usize;
    let mut backtracks = 0usize;
    let mut iter_trace = opts.trace_iters.then(Vec::new);

    let max_iters = if start_certified { 0 } else { opts.max_iters };
    for it in 0..max_iters {
        iters = it + 1;
        ep.gradient(&x, &mut g);

        // Backtracking: find a step satisfying sufficient decrease.
        let mut accepted = false;
        let mut f_new = fx;
        for _ in 0..60 {
            for k in 0..dim {
                trial[k] = x[k] - step * g[k];
            }
            project(&trial, &mut cand);
            let mut lin = 0.0;
            let mut dist2 = 0.0;
            for k in 0..dim {
                let d = cand[k] - x[k];
                lin += g[k] * d;
                dist2 += d * d;
            }
            f_new = ep.objective(&cand);
            if f_new <= fx + lin + dist2 / (2.0 * step) + 1e-15 * (1.0 + fx.abs()) {
                accepted = true;
                // Fixed point of the projected-gradient map → stationary.
                if dist2.sqrt() <= 1e-14 * (1.0 + x.iter().map(|v| v * v).sum::<f64>().sqrt()) {
                    x.copy_from_slice(&cand);
                    fx = f_new;
                    converged = true;
                }
                break;
            }
            step *= 0.5;
            backtracks += 1;
            if step < 1e-18 {
                break;
            }
        }
        if !accepted {
            // Cannot make progress at any representable step: stationary.
            converged = true;
            break;
        }

        let decrease = fx - f_new;
        x.copy_from_slice(&cand);
        fx = f_new;
        if let Some(trace) = iter_trace.as_mut() {
            trace.push(IterSample {
                iter: iters,
                objective: fx,
                gap,
                step,
            });
        }
        // Gentle step growth: recover from over-conservative backtracking.
        step *= 1.3;

        if converged {
            break;
        }

        if decrease <= opts.rel_tol * (1.0 + fx.abs()) {
            stalled += 1;
            stalls += 1;
            if stalled >= opts.stall_iters {
                converged = true;
                break;
            }
        } else {
            stalled = 0;
        }

        if (it + 1) % opts.gap_check_every == 0 {
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
            "pgd hit iteration cap",
            iters = iters,
            gap = gap
        );
    }
    let telemetry = SolverTelemetry {
        iters,
        stalls,
        gap_evals,
        backtracks,
        wall_s: t_start.elapsed().as_secs_f64(),
        final_gap: gap,
        converged,
    };
    telemetry.publish("pgd");
    event!(
        Level::Debug,
        "pgd done",
        iters = iters,
        gap_evals = gap_evals,
        backtracks = backtracks,
        gap = gap,
        converged = converged,
    );
    SolveResult {
        objective: fx,
        x,
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
    use esched_subinterval::Timeline;
    use esched_types::{PolynomialPower, TaskSet};

    fn solve(
        tasks: &TaskSet,
        cores: usize,
        alpha: f64,
        p0: f64,
        opts: &SolveOptions,
    ) -> SolveResult {
        let tl = Timeline::build(tasks);
        let ep = EnergyProgram::new(tasks, &tl, cores, PolynomialPower::paper(alpha, p0));
        let x0 = ep.initial_point();
        solve_pgd(&ep, x0, opts)
    }

    #[test]
    fn solves_paper_section_ii_example() {
        // Three tasks on two cores, p(f) = f³ + 0.01. The paper's KKT
        // solution: x = (8/3, 4/3, 4) in [4,8], y1 = 8, y2 = 4, with
        // dynamic energy 64/(32/3)² + 8/(16/3)² + 64/16 = 155/32 and
        // static energy 0.01·20 = 0.2.
        let ts = TaskSet::from_triples(&[(0.0, 12.0, 4.0), (2.0, 10.0, 2.0), (4.0, 8.0, 4.0)]);
        let r = solve(&ts, 2, 3.0, 0.01, &SolveOptions::precise());
        assert!(r.converged, "gap = {}", r.gap);
        let expect = 155.0 / 32.0 + 0.2;
        assert!(
            (r.objective - expect).abs() < 1e-5,
            "objective {} vs expected {}",
            r.objective,
            expect
        );
        // Per-task total times at the optimum.
        let tl = Timeline::build(&ts);
        let ep = EnergyProgram::new(&ts, &tl, 2, PolynomialPower::paper(3.0, 0.01));
        let tt = ep.total_times(&r.x);
        assert!((tt[0] - 32.0 / 3.0).abs() < 1e-3, "X0 = {}", tt[0]);
        assert!((tt[1] - 16.0 / 3.0).abs() < 1e-3, "X1 = {}", tt[1]);
        assert!((tt[2] - 4.0).abs() < 1e-3, "X2 = {}", tt[2]);
    }

    #[test]
    fn zero_static_power_stretches_everything_when_uncontended() {
        // One task, one core, p0 = 0: optimal is the full window.
        let ts = TaskSet::from_triples(&[(0.0, 10.0, 5.0)]);
        let r = solve(&ts, 1, 3.0, 0.0, &SolveOptions::default());
        // E = C³/X² = 125/100 = 1.25.
        assert!(
            (r.objective - 1.25).abs() < 1e-6,
            "objective {}",
            r.objective
        );
    }

    #[test]
    fn high_static_power_shrinks_execution_time() {
        // One task, one core, p(f) = f² + 0.25 with window 5 and work 2:
        // optimum runs at f_crit = 0.5 using 4 of the 5 time units
        // (the paper's Fig. 3), energy 2.0.
        let ts = TaskSet::from_triples(&[(0.0, 5.0, 2.0)]);
        let r = solve(&ts, 1, 2.0, 0.25, &SolveOptions::precise());
        assert!(
            (r.objective - 2.0).abs() < 1e-6,
            "objective {}",
            r.objective
        );
        let tl = Timeline::build(&ts);
        let ep = EnergyProgram::new(&ts, &tl, 1, PolynomialPower::paper(2.0, 0.25));
        assert!((ep.total_time(&r.x, 0) - 4.0).abs() < 1e-4);
    }

    #[test]
    fn objective_never_increases() {
        let ts = TaskSet::from_triples(&[
            (0.0, 10.0, 8.0),
            (2.0, 18.0, 14.0),
            (4.0, 16.0, 8.0),
            (6.0, 14.0, 4.0),
            (8.0, 20.0, 10.0),
            (12.0, 22.0, 6.0),
        ]);
        let tl = Timeline::build(&ts);
        let ep = EnergyProgram::new(&ts, &tl, 4, PolynomialPower::paper(3.0, 0.0));
        let x0 = ep.initial_point();
        let f0 = ep.objective(&x0);
        let r = solve_pgd(&ep, x0, &SolveOptions::default());
        assert!(r.objective <= f0 + 1e-12);
        assert!(ep.is_feasible(&r.x, 1e-7));
        assert!(r.gap <= 1e-5 * (1.0 + r.objective.abs()));
    }

    #[test]
    fn more_cores_never_cost_energy() {
        let ts = TaskSet::from_triples(&[
            (0.0, 6.0, 4.0),
            (0.0, 6.0, 4.0),
            (0.0, 6.0, 4.0),
            (0.0, 6.0, 4.0),
        ]);
        let mut last = f64::INFINITY;
        for m in 1..=4 {
            let r = solve(&ts, m, 3.0, 0.05, &SolveOptions::default());
            assert!(
                r.objective <= last + 1e-6,
                "m={m}: {} > {last}",
                r.objective
            );
            last = r.objective;
        }
    }

    /// PGD on [`crate::projection::project_bisection`], staged block by
    /// block: the projection [`EnergyProgram::project`] used before the
    /// breakpoint sweep.
    fn pgd_on_the_bisection_oracle(ep: &EnergyProgram, opts: &SolveOptions) -> SolveResult {
        pgd(ep, ep.initial_point(), opts, |z, out| {
            for j in 0..ep.subinterval_count() {
                let vars = ep.vars_of_sub(j);
                let zb: Vec<f64> = vars.iter().map(|&k| z[k]).collect();
                let mut ob = vec![0.0; vars.len()];
                let delta = ep.delta_of_sub(j);
                crate::projection::project_bisection(
                    &zb,
                    &vec![delta; vars.len()],
                    ep.capacity(j),
                    &mut ob,
                );
                for (&k, &y) in vars.iter().zip(&ob) {
                    out[k] = y;
                }
            }
        })
    }

    /// Figure 10's law, as the `sweep-fig10` benchmark draws it: releases
    /// uniform on [0, 200), work on [10, 30), intensity uniform on
    /// [0.1, 1.0), n ∈ {5, 10, 15, 20} tasks on m = 4 cores, p₀ = 0.2.
    /// On all 256 instances the breakpoint sweep keeps the oracle's
    /// iteration count and its energy to 1e-12 relative.
    #[test]
    fn sweep_keeps_the_bisection_trajectory_on_figure_10_instances() {
        let mut rng = esched_obs::rng::ChaCha8::seed_from_u64(0xf1_6010);
        let opts = SolveOptions::fast();
        for n in [5, 10, 15, 20] {
            for set in 0..64 {
                let triples: Vec<(f64, f64, f64)> = (0..n)
                    .map(|_| {
                        let release = rng.gen_range_f64(0.0, 200.0);
                        let work = rng.gen_range_f64(10.0, 30.0);
                        let deadline = release + work / rng.gen_range_f64(0.1, 1.0);
                        (release, deadline, work)
                    })
                    .collect();
                let ts = TaskSet::from_triples(&triples);
                let tl = Timeline::build(&ts);
                let ep = EnergyProgram::new(&ts, &tl, 4, PolynomialPower::paper(3.0, 0.2));
                let got = solve_pgd(&ep, ep.initial_point(), &opts);
                let want = pgd_on_the_bisection_oracle(&ep, &opts);
                assert_eq!(got.iters, want.iters, "n = {n}, set {set}");
                let rel = (got.objective - want.objective).abs() / want.objective.abs();
                assert!(rel <= 1e-12, "n = {n}, set {set}: relative {rel:e}");
            }
        }
    }
}
