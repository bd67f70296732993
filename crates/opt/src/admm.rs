//! Consensus ADMM: the decomposed, parallel E^OPT solver.
//!
//! The reformulated program (Section IV.B) is block-separable per task —
//! `E(x) = Σ_i φ_i(X_i)` with `X_i = Σ_j x_{i,j}` — and only the
//! per-subinterval capacity constraints couple tasks. Splitting
//!
//! ```text
//! minimize  f(x) + g(z)   s.t.  x = z
//! f(x) = E(x) + I{0 ≤ x_{i,j} ≤ Δ_j}     (task-separable)
//! g(z) = I{Σ_i z_{i,j} ≤ m·Δ_j, box}      (subinterval-separable)
//! ```
//!
//! makes both proximal operators exact and cheap:
//!
//! * **x-update, one small strictly-convex problem per task.** For task
//!   `i` with box caps `Δ_k` and anchor `v = z − u`,
//!   `argmin φ_i(Σ_k x_k) + (ρ/2)‖x − v‖²` has the closed form
//!   `x_k = clamp(v_k − t, 0, Δ_k)` where the shift `t = φ_i'(X)/ρ` is
//!   the unique root of the strictly increasing scalar
//!   `H(t) = t − φ_i'(S(t))/ρ`, `S(t) = Σ_k clamp(v_k − t, 0, Δ_k)`,
//!   solved with [`crate::scalar::bisect`] in `t`-space (where coordinate
//!   accuracy equals bracket accuracy). These per-task solves are fanned across
//!   the shared worker pool ([`esched_obs::pool::Pool::scoped_run`]) in
//!   fixed 64-task chunks: each chunk owns a disjoint contiguous `&mut`
//!   range of the flat vector (task blocks are contiguous by layout), and
//!   because every task's arithmetic is a pure function of its own data,
//!   the result is **byte-identical at any worker count** — chunk
//!   geometry depends on `n` only, never on `pool.threads()`.
//! * **z-update, one ρ-weighted capped-simplex projection per
//!   subinterval** (`weighted_project`), solved exactly by a
//!   deterministic breakpoint sweep.
//!
//! The penalty is **diagonal and curvature-matched**: each task gets its
//! own `ρ_i = clamp(φ_i''(X_i), 1e-4, 1e6)`, re-estimated from the live
//! iterate every few rounds (with damping and a dual rescale that keeps
//! the unscaled prices continuous). Task curvatures on contended
//! instances span ten-plus orders of magnitude, and a single scalar ρ
//! lets the consensus projection crowd high-curvature tasks to exactly
//! zero (where the floored objective explodes) while their prices
//! recover one residual per round; the weighted projection instead
//! charges each task its own price to move, which is what makes the
//! method converge at n ≳ 1000. The curvature match makes each prox a
//! Newton-scaled step, and it is the *only* penalty adaptation — a
//! residual-balancing global scalar on top was tried and is actively
//! harmful (see the residual comment in the loop).
//!
//! The scaled dual `u` carries the per-subinterval prices: at consensus,
//! `ρ_i·u_k` converges to the (negated) multiplier of variable `k`'s
//! binding constraints, which is why warm-starting the duals
//! ([`SolveOptions::warm_start_dual`]) lets online re-certification
//! converge in a handful of rounds. Stored duals are **unscaled**
//! (`y = ρ_i·u`) so they remain valid under a different penalty on the
//! next solve. Over-relaxation `x̂ = 1.6·x + (1 − 1.6)·z` accelerates the
//! consensus exchange; everything stays deterministic.
//!
//! Convergence is certified exactly like every other solver here: the
//! Frank–Wolfe duality gap of the *feasible* iterate `z` (the projection
//! output, so feasibility violation is ~0) must fall below
//! `gap_tol · (1 + |E|)`. The gap is also checked on the starting point,
//! so a warm start that is already optimal returns after zero rounds.

use crate::energy_program::{EnergyProgram, X_FLOOR};
use crate::scalar::bisect;
use crate::solver::{IterSample, SolveOptions, SolveResult, SolverTelemetry};
use esched_obs::pool::Pool;
use esched_obs::{event, span, Level};
use std::time::Instant;

/// Over-relaxation factor; 1.5–1.8 is the standard accelerating range.
const RELAX: f64 = 1.6;
/// Bounds on the per-task curvature-matched penalty `ρ_i`.
const RHO_TASK_MIN: f64 = 1e-4;
const RHO_TASK_MAX: f64 = 1e6;
/// Refresh cadence for the curvature-matched `ρ_i` (iterations). The
/// curvature of a squeezed task explodes as its share shrinks, so the
/// penalties must track the iterate: frozen-at-start weights leave
/// whichever tasks began with low curvature permanently cheap to crowd
/// out of contended subintervals.
const RHO_REFRESH_EVERY: usize = 10;
/// Tasks per pool job. Fixed — a function of `n` only — so the flat
/// vector splits identically at every worker count.
const TASKS_PER_CHUNK: usize = 64;
/// Below this task count the chunked fan-out is pure overhead; run the
/// same per-task updates serially (bit-identical by construction).
const PARALLEL_MIN_TASKS: usize = 256;

/// Solve with consensus ADMM on an env-sized pool
/// (`ESCHED_ENGINE_THREADS`); see [`solve_admm_in`].
pub fn solve_admm(ep: &EnergyProgram, opts: &SolveOptions) -> SolveResult {
    solve_admm_in(ep, opts, &Pool::new())
}

/// Solve with consensus ADMM, fanning per-task subproblems across `pool`.
///
/// Starts from [`SolveOptions::warm_start`] /
/// [`SolveOptions::warm_start_dual`] when set (validated; mismatches fall
/// back to the cold start), and returns the unscaled dual point in
/// [`SolveResult::dual`] for the next warm start.
pub fn solve_admm_in(ep: &EnergyProgram, opts: &SolveOptions, pool: &Pool) -> SolveResult {
    let dim = ep.dim();
    let n_tasks = ep.task_count();
    let _span = span!(
        Level::Debug,
        "solve_admm",
        dim = dim,
        tasks = n_tasks,
        workers = pool.threads(),
        max_iters = opts.max_iters
    );
    let t_start = Instant::now();
    let (gamma, alpha, p0) = ep.power_parameters();

    // Box cap of every flat variable (the Δ_j of its subinterval), and the
    // per-task chunk ranges — both fixed for the whole solve.
    let mut caps = vec![0.0_f64; dim];
    for i in 0..n_tasks {
        let (a, b) = ep.span_of_task(i);
        let o = ep.offset_of_task(i);
        for (k, j) in (a..b).enumerate() {
            caps[o + k] = ep.delta_of_sub(j);
        }
    }

    // Primal start: consensus variable z (always feasible). The cold
    // start allocates each subinterval's capacity *proportionally to
    // task work* rather than evenly: price equalization at the optimum
    // gives `X_i ∝ c_i` within a contended region, so the proportional
    // point already has the right shape and the prices only fine-tune
    // it — from the even split, thousands of rounds go into undoing the
    // shape first.
    let mut z = if let Some(x0) = opts.warm_point(ep) {
        esched_obs::metric_counter!("esched.opt.warm_starts").inc();
        x0
    } else {
        work_proportional_point(ep)
    };

    // Penalty: *per-task* curvature matching (diagonal preconditioning),
    // `ρ_i = clamp(φ_i''(X_i⁰), …)`.
    // Task curvatures here span many orders of magnitude — a contended
    // instance has tasks whose optimum sits at large X (φ'' ~ 1e-4) next
    // to tasks squeezed to tiny X (φ'' ~ 1e6 and beyond) — and a single
    // scalar ρ serves neither: the high-curvature tasks get crowded to
    // exactly zero by the consensus projection (exploding the floored
    // objective) while their prices crawl up one residual per round. A
    // curvature-matched ρ_i both tempers each task's prox and, through
    // the ρ-weighted projection below, makes the consensus step respect
    // how expensive it is to move each task. X is floored where the
    // objective floors it, so ρ_i can still reach the curvature of optima
    // far below 1e-6.
    let task_curvature = |z: &[f64], i: usize| -> f64 {
        let xi = ep.total_time(z, i).max(X_FLOOR);
        let c = ep.work_of_task(i);
        let curv = gamma * alpha * (alpha - 1.0) * c.powf(alpha) * xi.powf(-alpha - 1.0);
        if curv.is_finite() {
            curv.clamp(RHO_TASK_MIN, RHO_TASK_MAX)
        } else {
            RHO_TASK_MAX
        }
    };
    let mut rho_base: Vec<f64> = (0..n_tasks).map(|i| task_curvature(&z, i)).collect();
    // Width normalization: the dual price of subinterval `j` climbs at
    // most `ρ_k·Δ_j` per round (the primal residual on a coordinate is
    // bounded by its cap), so on event-driven timelines where Δ spans
    // orders of magnitude a narrow saturated subinterval recovers its
    // price thousands of times slower than a wide one — the whole solve
    // then waits on one sliver. Scaling each coordinate's weight by
    // `Δ̄/Δ_j` makes the price speed uniform across subintervals; on
    // slotted timelines (all Δ equal) the scale is exactly 1 everywhere.
    let mean_delta = caps.iter().sum::<f64>() / dim.max(1) as f64;
    let delta_scale: Vec<f64> = caps
        .iter()
        .map(|&d| if d > 0.0 { mean_delta / d } else { 1.0 })
        .collect();
    // Per-coordinate weight `ρ_k = ρ_i · Δ̄/Δ_j`, in flat-vector layout
    // for the prox, the weighted projection, and the dual scaling.
    let mut rho_of = vec![0.0_f64; dim];
    for (i, &rb) in rho_base.iter().enumerate() {
        let o = ep.offset_of_task(i);
        let (a, b) = ep.span_of_task(i);
        for k in 0..(b - a) {
            rho_of[o + k] = rb * delta_scale[o + k];
        }
    }

    // Scaled dual u_k = y_k/ρ_i; warm duals are stored unscaled so they
    // adopt cleanly under whatever penalties this solve chose.
    let mut u = match opts.warm_duals(ep) {
        Some(y) => y.iter().zip(&rho_of).map(|(&yk, &rk)| yk / rk).collect(),
        None => vec![0.0_f64; dim],
    };

    let mut x = z.clone();
    let mut w = vec![0.0_f64; dim];
    let mut v = vec![0.0_f64; dim];

    let mut fz = ep.objective(&z);
    let mut gap = ep.duality_gap(&z);
    let mut gap_evals = 1usize;
    let mut gap_fresh = true;
    let mut converged = gap <= opts.gap_tol * (1.0 + fz.abs());
    let mut iters = 0usize;
    let mut stalled = 0usize;
    let mut stalls = 0usize;
    let mut last_stall_gap = f64::INFINITY;
    let mut no_progress = 0usize;
    let mut rho_steps = 0usize;
    let mut rho_steps_at_stall = 0usize;
    let mut iter_trace = opts.trace_iters.then(Vec::new);
    // Tail-window ergodic average of z, evaluated whenever the live
    // iterate fails a gap check (see `try_adopt_average`).
    let mut z_acc = vec![0.0_f64; dim];
    let mut acc_n = 0usize;

    let use_pool = pool.threads() > 1 && n_tasks >= PARALLEL_MIN_TASKS;

    while !converged && iters < opts.max_iters {
        iters += 1;

        // Re-match the per-task penalties to the current iterate's
        // curvature, rescaling u so the unscaled dual y = ρ_i·u is
        // continuous across the switch.
        if iters.is_multiple_of(RHO_REFRESH_EVERY) {
            for (i, rb) in rho_base.iter_mut().enumerate() {
                // Deadband tracking: leave ρ_i alone while the live
                // curvature stays within 2× of it, and step at most 2×
                // toward it otherwise. Both halves matter: the cap keeps
                // a 1e10 curvature jump from kicking the consensus
                // iterate across the landscape, and the deadband gives
                // the penalties a true fixed point — chasing the exact
                // curvature forever means every small wobble of z
                // re-jiggles the metric (and rescales the duals), and
                // ADMM under a never-settling metric orbits a limit
                // cycle just outside tight tolerances instead of
                // converging.
                let curv = task_curvature(&z, i);
                let fresh = if curv > *rb * 2.0 {
                    *rb * 2.0
                } else if curv < *rb * 0.5 {
                    *rb * 0.5
                } else {
                    continue;
                };
                rho_steps += 1;
                let ratio = *rb / fresh;
                let o = ep.offset_of_task(i);
                let (a, b) = ep.span_of_task(i);
                for k in o..o + (b - a) {
                    u[k] *= ratio;
                    rho_of[k] = fresh * delta_scale[k];
                }
                *rb = fresh;
            }
        }

        // x-update: per-task proximal solves on v = z − u.
        for k in 0..dim {
            v[k] = z[k] - u[k];
        }
        if use_pool {
            // Deterministic chunking: split x into contiguous per-chunk
            // task ranges (layout keeps each task's block contiguous).
            let mut jobs: Vec<(usize, usize, usize, &mut [f64])> = Vec::new();
            let mut rest = x.as_mut_slice();
            let mut consumed = 0usize;
            let mut lo = 0usize;
            while lo < n_tasks {
                let hi = (lo + TASKS_PER_CHUNK).min(n_tasks);
                let end = if hi == n_tasks {
                    dim
                } else {
                    ep.offset_of_task(hi)
                };
                let (head, tail) = rest.split_at_mut(end - consumed);
                jobs.push((lo, hi, consumed, head));
                rest = tail;
                consumed = end;
                lo = hi;
            }
            let v_ref = &v;
            let caps_ref = &caps;
            let rho_ref = &rho_of;
            pool.scoped_run(
                jobs,
                |(lo, hi, base, xs): (usize, usize, usize, &mut [f64])| {
                    for i in lo..hi {
                        let o = ep.offset_of_task(i);
                        let (a, b) = ep.span_of_task(i);
                        let l = b - a;
                        task_prox(
                            &mut xs[o - base..o - base + l],
                            &v_ref[o..o + l],
                            &caps_ref[o..o + l],
                            &rho_ref[o..o + l],
                            ep.work_of_task(i),
                            gamma,
                            alpha,
                            p0,
                        );
                    }
                },
            );
        } else {
            for i in 0..n_tasks {
                let o = ep.offset_of_task(i);
                let (a, b) = ep.span_of_task(i);
                let l = b - a;
                task_prox(
                    &mut x[o..o + l],
                    &v[o..o + l],
                    &caps[o..o + l],
                    &rho_of[o..o + l],
                    ep.work_of_task(i),
                    gamma,
                    alpha,
                    p0,
                );
            }
        }

        // Over-relaxed consensus: x̂ = RELAX·x + (1−RELAX)·z, then the
        // blockwise ρ-weighted capped-simplex projection of x̂ + u gives
        // z⁺ (weighting by ρ_i is what the diagonal penalty prescribes —
        // the consensus step must charge each task its own price to move).
        for k in 0..dim {
            x[k] = RELAX * x[k] + (1.0 - RELAX) * z[k];
            w[k] = x[k] + u[k];
        }
        weighted_project(ep, &w, &rho_of, &mut z);
        for k in 0..dim {
            z_acc[k] += z[k];
        }
        acc_n += 1;
        gap_fresh = false;

        // Residuals and dual ascent: r = x̂ − z⁺ (primal). The dual
        // residual ‖P·(z⁺ − z)‖ with P = diag(ρ_i) is not consumed by any
        // control decision — the curvature refresh above is the only
        // penalty adaptation — so only r is accumulated. (An earlier
        // residual-balancing global scalar on top of ρ_i was actively
        // harmful here: the curvature refresh makes the dual residual
        // spike transiently, the balancer read that as "penalty too
        // high" and collapsed the scale ~1e3 below the curvature match,
        // and with a Newton-mismatched anchor both residuals crawled for
        // thousands of rounds. Trusting φ'' outright converges in ~100s
        // of rounds at n in the thousands.)
        let mut r2 = 0.0_f64;
        for k in 0..dim {
            let rk = x[k] - z[k];
            r2 += rk * rk;
            u[k] += rk;
        }
        let r_norm = r2.sqrt();

        let fz_new = ep.objective(&z);
        let decrease = fz - fz_new;
        fz = fz_new;
        if let Some(trace) = iter_trace.as_mut() {
            trace.push(IterSample {
                iter: iters,
                objective: fz,
                gap,
                step: r_norm,
            });
        }

        // ADMM is not monotone in the objective, so stall on *absolute*
        // movement staying tiny — but a stall alone is no certificate
        // (badly scaled penalties make early rounds crawl): it must be
        // confirmed by a fresh duality-gap check, else the counter resets
        // and the curvature refresh gets time to find the right scale.
        if decrease.abs() <= opts.rel_tol * (1.0 + fz.abs()) {
            stalled += 1;
            stalls += 1;
            if stalled >= opts.stall_iters {
                gap = ep.duality_gap(&z);
                gap_evals += 1;
                gap_fresh = true;
                if gap <= opts.gap_tol * (1.0 + fz.abs())
                    || try_adopt_average(
                        ep,
                        &mut z,
                        &mut z_acc,
                        &mut acc_n,
                        &mut fz,
                        &mut gap,
                        &mut gap_evals,
                        opts.gap_tol,
                    )
                {
                    converged = true;
                } else {
                    // Three consecutive stall windows with zero gap
                    // progress mean the iterate sits at the prox's
                    // numerical floor (a frozen point): stop honestly
                    // (converged stays false) instead of burning the
                    // whole iteration budget there. Any real progress,
                    // however slow, resets the strike counter, and so
                    // does a window in which the penalty refresh still
                    // stepped: the point is not frozen while the metric
                    // is moving. A tiny-work task cold-started on its
                    // whole window looks frozen at zero for hundreds of
                    // rounds while its ρ_i climbs 2× per refresh from
                    // RHO_TASK_MIN to its optimum's curvature.
                    if rho_steps > rho_steps_at_stall {
                        no_progress = 0;
                    } else if gap >= 0.9999 * last_stall_gap {
                        no_progress += 1;
                        if no_progress >= 3 {
                            break;
                        }
                    } else {
                        no_progress = 0;
                    }
                    last_stall_gap = gap;
                    rho_steps_at_stall = rho_steps;
                    stalled = 0;
                }
            }
        } else {
            stalled = 0;
        }

        if !converged && iters.is_multiple_of(opts.gap_check_every) {
            gap = ep.duality_gap(&z);
            gap_evals += 1;
            gap_fresh = true;
            if gap <= opts.gap_tol * (1.0 + fz.abs())
                || try_adopt_average(
                    ep,
                    &mut z,
                    &mut z_acc,
                    &mut acc_n,
                    &mut fz,
                    &mut gap,
                    &mut gap_evals,
                    opts.gap_tol,
                )
            {
                converged = true;
            }
        }
    }

    if !gap_fresh {
        gap = ep.duality_gap(&z);
        gap_evals += 1;
    }
    if !converged {
        event!(
            Level::Warn,
            "admm hit iteration cap",
            iters = iters,
            gap = gap
        );
    }
    let dual: Vec<f64> = u.iter().zip(&rho_of).map(|(&uk, &rk)| rk * uk).collect();
    let telemetry = SolverTelemetry {
        iters,
        stalls,
        gap_evals,
        backtracks: rho_steps,
        wall_s: t_start.elapsed().as_secs_f64(),
        final_gap: gap,
        converged,
    };
    telemetry.publish("admm");
    event!(
        Level::Debug,
        "admm done",
        iters = iters,
        gap_evals = gap_evals,
        rho_steps = rho_steps,
        gap = gap,
        converged = converged,
    );
    SolveResult {
        objective: fz,
        x: z,
        gap,
        iters,
        converged,
        telemetry,
        iter_trace,
        dual: Some(dual),
    }
}

/// Certify the tail-window ergodic average `z̄` when the live iterate
/// can't: near a *degenerate* optimum (several tasks tied at the same
/// marginal power over a saturated subinterval, so a whole face of the
/// feasible set is optimal) the consensus iterate orbits the flat face
/// forever — the prices converge but `z` hops between near-optimal
/// vertices and its Frank–Wolfe gap floors just outside tight
/// tolerances. The orbit's mean lies *on* the face (feasible, since the
/// constraint set is convex), and ergodic ADMM averages converge even
/// where the last iterate cycles. Evaluated only when `z` fails a gap
/// check; adopted — copied over `z`, with objective and gap updated —
/// only when `z̄` both certifies and beats the live gap, so the solver's
/// dynamics never see the average and determinism is untouched. The
/// window resets at every evaluation so the mean tracks the current
/// orbit, not the cold-start transient.
#[allow(clippy::too_many_arguments)]
fn try_adopt_average(
    ep: &EnergyProgram,
    z: &mut [f64],
    z_acc: &mut [f64],
    acc_n: &mut usize,
    fz: &mut f64,
    gap: &mut f64,
    gap_evals: &mut usize,
    gap_tol: f64,
) -> bool {
    if *acc_n == 0 {
        return false;
    }
    let inv = 1.0 / *acc_n as f64;
    let zbar: Vec<f64> = z_acc.iter().map(|&s| s * inv).collect();
    for s in z_acc.iter_mut() {
        *s = 0.0;
    }
    *acc_n = 0;
    let fbar = ep.objective(&zbar);
    let gbar = ep.duality_gap(&zbar);
    *gap_evals += 1;
    if gbar <= gap_tol * (1.0 + fbar.abs()) && gbar < *gap {
        z.copy_from_slice(&zbar);
        *fz = fbar;
        *gap = gbar;
        return true;
    }
    false
}

/// Work-proportional feasible start: in every subinterval, split the
/// `m·Δ_j` budget across overlapping tasks proportionally to their work
/// `c_i` (capped at `Δ_j`; zero-work tasks get zero, which is their
/// optimum). Feasible by construction: the uncapped shares sum exactly
/// to the budget and capping only shrinks them.
fn work_proportional_point(ep: &EnergyProgram) -> Vec<f64> {
    let dim = ep.dim();
    let n_tasks = ep.task_count();
    let mut task_of = vec![0usize; dim];
    for i in 0..n_tasks {
        let o = ep.offset_of_task(i);
        let (a, b) = ep.span_of_task(i);
        task_of[o..o + (b - a)].fill(i);
    }
    let mut z = vec![0.0_f64; dim];
    for j in 0..ep.subinterval_count() {
        let vars = ep.vars_of_sub(j);
        if vars.is_empty() {
            continue;
        }
        let delta = ep.delta_of_sub(j);
        let budget = ep.cores as f64 * delta;
        let total_work: f64 = vars.iter().map(|&k| ep.work_of_task(task_of[k])).sum();
        if total_work <= 0.0 {
            continue;
        }
        for &k in vars {
            z[k] = (budget * ep.work_of_task(task_of[k]) / total_work).min(delta);
        }
    }
    z
}

/// Blockwise ρ-weighted projection onto the feasible polytope: per
/// subinterval `j`, minimize `Σ_k ρ_k (z_k − w_k)²` subject to
/// `0 ≤ z_k ≤ Δ_j` and `Σ_k z_k ≤ m·Δ_j`.
///
/// KKT gives `z_k = clamp(w_k − θ/ρ_k, 0, Δ_j)` with `θ ≥ 0` the
/// multiplier of the budget constraint (`θ = 0` when the clamped point
/// already fits). `S(θ) = Σ_k clamp(w_k − θ/ρ_k, 0, Δ_j)` is piecewise
/// linear and non-increasing, so `θ` is found **exactly** by sweeping its
/// breakpoints (`ρ_k(w_k − Δ_j)` where a share un-caps, `ρ_k·w_k` where
/// it hits zero) in sorted order and solving the linear segment that
/// crosses the budget. Exactness matters: with curvature-matched weights
/// spanning `RHO_TASK_MIN..RHO_TASK_MAX`, a bisected `θ` accurate to
/// 1e-13 relative would still leave O(θ_err/ρ_k) coordinate error on the
/// smallest weights. The sweep is a fixed deterministic order (ties
/// broken by bit pattern then index), so results are byte-identical
/// across runs and worker counts.
fn weighted_project(ep: &EnergyProgram, w: &[f64], rho: &[f64], out: &mut [f64]) {
    let mut events: Vec<(f64, usize, f64)> = Vec::new();
    for j in 0..ep.subinterval_count() {
        let vars = ep.vars_of_sub(j);
        if vars.is_empty() {
            continue;
        }
        let delta = ep.delta_of_sub(j);
        let budget = ep.cores as f64 * delta;
        let mut s0 = 0.0_f64;
        for &k in vars {
            s0 += w[k].clamp(0.0, delta);
        }
        if s0 <= budget {
            for &k in vars {
                out[k] = w[k].clamp(0.0, delta);
            }
            continue;
        }
        // Breakpoint sweep. Slope of S on the current segment is
        // −Σ 1/ρ_k over shares strictly between their bounds.
        events.clear();
        let mut slope = 0.0_f64;
        for &k in vars {
            let t_uncap = rho[k] * (w[k] - delta);
            let t_zero = rho[k] * w[k];
            if t_zero <= 0.0 {
                continue; // w_k ≤ 0: zero for every θ ≥ 0.
            }
            if t_uncap > 0.0 {
                // Capped at θ = 0; becomes active at t_uncap.
                events.push((t_uncap, k, -1.0 / rho[k]));
            } else {
                // Active at θ = 0.
                slope -= 1.0 / rho[k];
            }
            events.push((t_zero, k, 1.0 / rho[k]));
        }
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite breakpoints")
                .then(a.1.cmp(&b.1))
                .then(a.2.partial_cmp(&b.2).expect("finite slopes"))
        });
        let mut theta = 0.0_f64;
        let mut s = s0;
        let mut found = None;
        for &(t, _, ds) in &events {
            let s_next = s + slope * (t - theta);
            if s_next <= budget && slope < 0.0 {
                found = Some(theta + (budget - s) / slope);
                break;
            }
            s = s_next;
            theta = t;
            slope += ds;
        }
        let theta = match found {
            Some(t) => t,
            // S(θ) reaches 0 at the last breakpoint, and budget ≥ 0, so
            // a crossing segment always exists unless budget is exactly 0.
            None => events.last().map(|e| e.0).unwrap_or(0.0),
        };
        for &k in vars {
            out[k] = (w[k] - theta / rho[k]).clamp(0.0, delta);
        }
    }
}

/// Exact proximal step for one task: minimize
/// `φ(Σ_k x_k) + Σ_k (ρ_k/2)(x_k − v_k)²` over `0 ≤ x_k ≤ caps_k`.
///
/// Stationarity gives `x_k = clamp(v_k − t/ρ_k, 0, caps_k)` where
/// `t = φ'(X)` is the task's marginal power, and the self-consistency
/// condition is solved **in `t`-space**: `H(t) = t − φ'(S(t))` with
/// `S(t) = Σ_k clamp(v_k − t/ρ_k, 0, caps_k)` is strictly increasing
/// (`S` decreasing, `φ'` increasing), and a `t` bracket of width `ε`
/// pins every coordinate to `ε/ρ_k` — the bisection tolerance is scaled
/// by the smallest weight so the loosest coordinate still resolves to
/// ~1e-13. The alternative parametrization in `X = Σx` is numerically
/// treacherous: near tiny optima `φ'(X)` moves ~1e13 per unit of `X`,
/// so an `X` resolved to 1e-13 still yields a garbage shift and a
/// collapsed-to-zero prox (a spurious ADMM fixed point where both
/// residuals vanish and `ρ` adaptation never engages).
///
/// Bracket: below `t_lo = min_k ρ_k(v_k − caps_k)` every share
/// saturates (`S ≡ Σ caps`), so `H(t_lo) ≥ 0` means the all-capped
/// point is the answer; at `t_hi = max_k ρ_k·v_k`, `S → 0` and
/// `φ' → −∞` give `H(t_hi) = +∞`, so the sign change always exists.
#[allow(clippy::too_many_arguments)]
fn task_prox(
    x: &mut [f64],
    v: &[f64],
    caps: &[f64],
    rho: &[f64],
    work: f64,
    gamma: f64,
    alpha: f64,
    p0: f64,
) {
    let l = x.len();
    if l == 0 {
        return;
    }
    let cap_sum: f64 = caps.iter().sum();
    if cap_sum <= 0.0 {
        for xk in x.iter_mut() {
            *xk = 0.0;
        }
        return;
    }
    let cpow = gamma * (alpha - 1.0) * work.powf(alpha);
    if cpow <= 0.0 {
        // Zero-work task: φ' ≡ p₀ and the prox is a plain shifted clamp.
        for k in 0..l {
            x[k] = (v[k] - p0 / rho[k]).clamp(0.0, caps[k]);
        }
        return;
    }
    let total = |t: f64| -> f64 {
        let mut s = 0.0;
        for k in 0..l {
            s += (v[k] - t / rho[k]).clamp(0.0, caps[k]);
        }
        s
    };
    let h = |t: f64| t - (p0 - cpow * total(t).powf(-alpha));
    let mut t_lo = f64::INFINITY;
    let mut t_hi = f64::NEG_INFINITY;
    let mut rho_min = f64::INFINITY;
    for k in 0..l {
        t_lo = t_lo.min(rho[k] * (v[k] - caps[k]));
        t_hi = t_hi.max(rho[k] * v[k]);
        rho_min = rho_min.min(rho[k]);
    }
    if h(t_lo) >= 0.0 {
        x.copy_from_slice(caps);
        return;
    }
    let t = bisect(h, t_lo, t_hi, 1e-13 * rho_min.min(1.0));
    for k in 0..l {
        x[k] = (v[k] - t / rho[k]).clamp(0.0, caps[k]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::solve_pgd;
    use esched_subinterval::Timeline;
    use esched_types::{PolynomialPower, TaskSet};

    fn program(triples: &[(f64, f64, f64)], cores: usize, alpha: f64, p0: f64) -> EnergyProgram {
        let ts = TaskSet::from_triples(triples);
        let tl = Timeline::build(&ts);
        EnergyProgram::new(&ts, &tl, cores, PolynomialPower::paper(alpha, p0))
    }

    #[test]
    fn solves_paper_section_ii_example() {
        let ep = program(
            &[(0.0, 12.0, 4.0), (2.0, 10.0, 2.0), (4.0, 8.0, 4.0)],
            2,
            3.0,
            0.01,
        );
        let r = solve_admm(&ep, &SolveOptions::precise());
        assert!(r.converged, "gap = {}", r.gap);
        let expect = 155.0 / 32.0 + 0.2;
        assert!(
            (r.objective - expect).abs() < 1e-5,
            "objective {} vs expected {}",
            r.objective,
            expect
        );
        assert!(ep.is_feasible(&r.x, 1e-9));
        let tt = ep.total_times(&r.x);
        assert!((tt[0] - 32.0 / 3.0).abs() < 1e-3, "X0 = {}", tt[0]);
        assert!((tt[1] - 16.0 / 3.0).abs() < 1e-3, "X1 = {}", tt[1]);
        assert!((tt[2] - 4.0).abs() < 1e-3, "X2 = {}", tt[2]);
    }

    #[test]
    fn matches_pgd_on_a_contended_instance() {
        let ep = program(
            &[
                (0.0, 10.0, 8.0),
                (2.0, 18.0, 14.0),
                (4.0, 16.0, 8.0),
                (6.0, 14.0, 4.0),
                (8.0, 20.0, 10.0),
                (12.0, 22.0, 6.0),
            ],
            2,
            3.0,
            0.05,
        );
        let a = solve_admm(&ep, &SolveOptions::precise());
        let p = solve_pgd(&ep, ep.initial_point(), &SolveOptions::precise());
        assert!(a.converged);
        assert!(
            (a.objective - p.objective).abs() <= 2e-5 * (1.0 + p.objective.abs()),
            "admm {} vs pgd {}",
            a.objective,
            p.objective
        );
        assert!(crate::kkt::kkt_report(&ep, &a.x).is_optimal(1e-5));
    }

    #[test]
    fn returns_duals_and_warm_restart_converges_immediately() {
        let ep = program(
            &[(0.0, 12.0, 4.0), (2.0, 10.0, 2.0), (4.0, 8.0, 4.0)],
            2,
            3.0,
            0.01,
        );
        let cold = solve_admm(&ep, &SolveOptions::default());
        assert!(cold.converged);
        let dual = cold.dual.clone().expect("admm carries duals");
        assert_eq!(dual.len(), ep.dim());
        let warm_opts = SolveOptions::default()
            .with_warm_start(cold.x.clone())
            .with_warm_start_dual(dual);
        let warm = solve_admm(&ep, &warm_opts);
        assert!(warm.converged);
        assert!(
            warm.iters < cold.iters,
            "warm {} !< cold {}",
            warm.iters,
            cold.iters
        );
    }

    #[test]
    fn mismatched_warm_dual_is_ignored() {
        let ep = program(&[(0.0, 5.0, 2.0)], 1, 2.0, 0.25);
        let opts = SolveOptions::precise().with_warm_start_dual(vec![f64::NAN; ep.dim()]);
        let r = solve_admm(&ep, &opts);
        assert!(r.converged);
        assert!(
            (r.objective - 2.0).abs() < 1e-6,
            "objective {}",
            r.objective
        );
    }

    #[test]
    fn task_prox_agrees_with_unconstrained_optimality() {
        // Single task, generous caps: at the root, x sums to X and
        // φ'(X) + ρ(x_k − v_k) = 0 for interior coordinates.
        let v = [0.4, 0.7, 0.2];
        let caps = [10.0, 10.0, 10.0];
        let mut x = [0.0; 3];
        let (work, rho, gamma, alpha, p0) = (2.0, 1.5, 1.0, 3.0, 0.1);
        task_prox(&mut x, &v, &caps, &[rho; 3], work, gamma, alpha, p0);
        let x_tot: f64 = x.iter().sum();
        let dphi = p0 - gamma * (alpha - 1.0) * work.powf(alpha) * x_tot.powf(-alpha);
        for k in 0..3 {
            let grad = dphi + rho * (x[k] - v[k]);
            assert!(grad.abs() < 1e-8, "k={k}: stationarity residual {grad}");
        }
    }
}
