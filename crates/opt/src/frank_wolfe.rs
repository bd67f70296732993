//! Frank–Wolfe (conditional gradient) solver.
//!
//! Projection-free: each iteration calls the exact linear-minimization
//! oracle over the product of capped simplices (a greedy fill,
//! [`EnergyProgram::lmo`]) and moves toward the
//! returned vertex with a golden-section line search. Slower asymptotics
//! than FISTA (`O(1/k)`), but every iterate is a convex combination of
//! polytope vertices, the duality gap comes for free, and it cross-checks
//! the other two solvers in the ablation benches.

use crate::energy_program::EnergyProgram;
use crate::scalar::golden_min;
use crate::solver::{IterSample, SolveOptions, SolveResult, SolverTelemetry};
use esched_obs::{event, span, Level};
use std::time::Instant;

/// Run Frank–Wolfe from `x0` (must be feasible).
pub fn solve_frank_wolfe(ep: &EnergyProgram, x0: Vec<f64>, opts: &SolveOptions) -> SolveResult {
    let dim = ep.dim();
    let x0 = crate::solver::sanitize_start(ep, x0);
    let _span = span!(
        Level::Debug,
        "solve_frank_wolfe",
        dim = dim,
        max_iters = opts.max_iters
    );
    let t_start = Instant::now();

    let mut x = x0;
    let mut fx = ep.objective(&x);
    let mut g = vec![0.0; dim];
    let mut s = vec![0.0; dim];
    let mut trial = vec![0.0; dim];
    let mut converged = false;
    let mut iters = 0usize;
    let mut gap = f64::INFINITY;
    let mut stalled = 0usize;
    let mut stalls = 0usize;
    let mut iter_trace = opts.trace_iters.then(Vec::new);

    for it in 0..opts.max_iters {
        iters = it + 1;
        ep.gradient(&x, &mut g);
        ep.lmo(&g, &mut s);

        // Duality gap is a byproduct of the LMO.
        gap = (0..dim).map(|k| g[k] * (x[k] - s[k])).sum();
        if gap <= opts.gap_tol * (1.0 + fx.abs()) {
            converged = true;
            break;
        }

        // Exact-ish line search on the segment x + γ(s − x), γ ∈ [0, 1].
        let gamma = golden_min(
            |gm| {
                for k in 0..dim {
                    trial[k] = x[k] + gm * (s[k] - x[k]);
                }
                ep.objective(&trial)
            },
            0.0,
            1.0,
            1e-10,
        );

        for k in 0..dim {
            x[k] += gamma * (s[k] - x[k]);
        }
        let f_new = ep.objective(&x);
        let decrease = fx - f_new;
        fx = f_new;
        if let Some(trace) = iter_trace.as_mut() {
            trace.push(IterSample {
                iter: iters,
                objective: fx,
                gap,
                step: gamma,
            });
        }

        if decrease.abs() <= opts.rel_tol * (1.0 + fx.abs()) {
            stalled += 1;
            stalls += 1;
            if stalled >= opts.stall_iters {
                converged = true;
                break;
            }
        } else {
            stalled = 0;
        }
    }

    if !converged {
        event!(
            Level::Warn,
            "frank-wolfe hit iteration cap",
            iters = iters,
            gap = gap
        );
    }
    let telemetry = SolverTelemetry {
        iters,
        stalls,
        // The FW gap falls out of the LMO, so every iteration evaluates it.
        gap_evals: iters,
        backtracks: 0,
        wall_s: t_start.elapsed().as_secs_f64(),
        final_gap: gap,
        converged,
    };
    telemetry.publish("frank_wolfe");
    event!(
        Level::Debug,
        "frank-wolfe done",
        iters = iters,
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::solve_pgd;
    use esched_subinterval::Timeline;
    use esched_types::{PolynomialPower, TaskSet};

    #[test]
    fn frank_wolfe_matches_pgd_on_intro_example() {
        let ts = TaskSet::from_triples(&[(0.0, 12.0, 4.0), (2.0, 10.0, 2.0), (4.0, 8.0, 4.0)]);
        let tl = Timeline::build(&ts);
        let ep = EnergyProgram::new(&ts, &tl, 2, PolynomialPower::paper(3.0, 0.01));
        let fw = solve_frank_wolfe(&ep, ep.initial_point(), &SolveOptions::default());
        let pg = solve_pgd(&ep, ep.initial_point(), &SolveOptions::default());
        assert!(
            (fw.objective - pg.objective).abs() < 1e-3 * (1.0 + pg.objective),
            "fw {} vs pgd {}",
            fw.objective,
            pg.objective
        );
        assert!(ep.is_feasible(&fw.x, 1e-7));
    }

    #[test]
    fn iterates_stay_feasible_throughout() {
        // Convex combinations of feasible points are feasible; spot-check
        // the final iterate on a bigger instance.
        let ts = TaskSet::from_triples(&[
            (0.0, 10.0, 8.0),
            (2.0, 18.0, 14.0),
            (4.0, 16.0, 8.0),
            (6.0, 14.0, 4.0),
            (8.0, 20.0, 10.0),
            (12.0, 22.0, 6.0),
        ]);
        let tl = Timeline::build(&ts);
        let ep = EnergyProgram::new(&ts, &tl, 4, PolynomialPower::paper(3.0, 0.2));
        let r = solve_frank_wolfe(&ep, ep.initial_point(), &SolveOptions::fast());
        assert!(ep.is_feasible(&r.x, 1e-7));
        assert!(r.gap.is_finite());
    }
}
