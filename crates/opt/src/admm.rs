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
//!   `i` with box caps `Δ_k`, weights `ρ_k` and anchor `v = z − u`,
//!   `argmin φ_i(Σ_k x_k) + Σ_k (ρ_k/2)(x_k − v_k)²` has the closed form
//!   `x_k = clamp(v_k − t/ρ_k, 0, Δ_k)`, where the shift `t = φ_i'(X)` is
//!   the root of one increasing scalar equation in `t`-space (where a
//!   shift error of `ε` moves coordinate `k` by at most `ε/ρ_k`). It is
//!   solved in log form by safeguarded Newton
//!   ([`crate::scalar::newton_increasing`]), starting from the task's
//!   shift of the round before: on `large_n(256)` that takes 4.6
//!   evaluations of `S(t)` per task and round. The task's constants
//!   (`γ(α−1)c^α` and its total box) are computed once per solve.
//! * **z-update, one ρ-weighted capped-simplex projection per
//!   subinterval**, solved exactly by the crate's one projection kernel
//!   (`project_block` in [`crate::projection`]): a deterministic breakpoint
//!   sweep. The breakpoints are all positive, so they sort by their bit
//!   patterns as integers, then by position (on `large_n(256)` about 40
//!   blocks bind per round, ~47 breakpoints each).
//!
//! Both steps split exactly: the x-step per task, the z-step per
//! subinterval. From `PARALLEL_MIN_TASKS` (64) tasks up, a solve runs its
//! rounds on a team of the pool's workers ([`esched_obs::pool::Pool::team`]),
//! started once for the whole solve. Each member owns a contiguous task
//! range for the x-step (task blocks are contiguous in the flat layout)
//! and a contiguous subinterval range for the z-step, both fixed for the
//! solve and balanced by flat-variable count. A member reads the
//! round's inputs (`v = z − u`, `w = x̂ + u`, the penalties), which the
//! caller rewrites between steps behind an `RwLock`, and writes only its
//! own `Mutex`-guarded part, which the caller gathers. Every task's and
//! every block's arithmetic is a pure function of its own data, and every
//! reduction (residual, objective, duality gap, penalty refresh,
//! averaging) runs on the caller in index order, so the result is
//! **byte-identical at any member count**. On a 2-vCPU VM a round on 2
//! members takes 0.64–0.73 of the serial round from 64 to 2,048 tasks
//! (DESIGN.md §11).
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
//! so a warm start that is already optimal returns after zero rounds, on
//! the caller alone: it starts no team.

use crate::energy_program::{EnergyProgram, X_FLOOR};
use crate::projection::project_block;
use crate::scalar::newton_increasing;
use crate::solver::{IterSample, SolveOptions, SolveResult, SolverTelemetry};
use esched_obs::pool::Pool;
use esched_obs::{event, span, Level};
use std::sync::{Mutex, RwLock};
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
/// From this task count up, a solve runs its rounds on a team of
/// `pool.threads()` members; below it, on the caller alone (bit-identical
/// either way). The team starts once per solve, so a round pays only two
/// hand-offs: on a 2-vCPU VM (`large_n`, `fast()`, 2 members vs serial,
/// alternated) a round lost at 16 tasks (8.9 vs 7.7 µs), tied at 32
/// (each side won one of two runs) and won from 40 (24–26 vs 28–34 µs);
/// at 64, 46 vs 64 µs.
const PARALLEL_MIN_TASKS: usize = 64;

/// Solve with consensus ADMM on an env-sized pool
/// (`ESCHED_ENGINE_THREADS`); see [`solve_admm_in`].
pub fn solve_admm(ep: &EnergyProgram, opts: &SolveOptions) -> SolveResult {
    solve_admm_in(ep, opts, &Pool::new())
}

/// Solve with consensus ADMM, running each round's per-task and
/// per-subinterval steps on a team of `pool`'s workers (from
/// `PARALLEL_MIN_TASKS` tasks up; on the caller alone below).
///
/// Starts from [`SolveOptions::warm_start`] /
/// [`SolveOptions::warm_start_dual`] when set (validated; mismatches fall
/// back to the cold start), and returns the unscaled dual point in
/// [`SolveResult::dual`] for the next warm start.
pub fn solve_admm_in(ep: &EnergyProgram, opts: &SolveOptions, pool: &Pool) -> SolveResult {
    let dim = ep.dim();
    let n_tasks = ep.task_count();
    let t_start = Instant::now();
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

    let mut fz = ep.objective(&z);
    let mut gap = ep.duality_gap(&z);
    let mut gap_evals = 1usize;
    let mut gap_fresh = true;
    let mut converged = gap <= opts.gap_tol * (1.0 + fz.abs());
    // A start that certifies runs its zero rounds on the caller alone, so
    // it starts no team.
    let pool = if n_tasks >= PARALLEL_MIN_TASKS && !converged {
        pool.clone()
    } else {
        Pool::with_threads(1)
    };
    let members = pool.threads();
    let _span = span!(
        Level::Debug,
        "solve_admm",
        dim = dim,
        tasks = n_tasks,
        workers = members,
        max_iters = opts.max_iters
    );
    let (gamma, alpha, p0) = ep.power_parameters();

    // Box cap of every flat variable (the Δ_j of its subinterval), and
    // each task's prox constants — all fixed for the whole solve.
    let mut caps = vec![0.0_f64; dim];
    let mut prox_consts = Vec::with_capacity(n_tasks);
    for i in 0..n_tasks {
        let (a, b) = ep.span_of_task(i);
        let o = ep.offset_of_task(i);
        for (k, j) in (a..b).enumerate() {
            caps[o + k] = ep.delta_of_sub(j);
        }
        let task_caps = &caps[o..o + (b - a)];
        prox_consts.push(ProxConsts::new(task_caps, ep.work_of_task(i), gamma, alpha));
    }

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

    // Each member's share of a round, fixed for the solve and balanced by
    // flat-variable count: a contiguous task range for the x-step (task
    // blocks are contiguous in the flat layout) and a contiguous
    // subinterval range for the z-step.
    let task_vars: Vec<usize> = (0..n_tasks)
        .map(|i| ep.offset_of_task(i))
        .chain([dim])
        .collect();
    let mut sub_vars = vec![0usize];
    for j in 0..ep.subinterval_count() {
        sub_vars.push(sub_vars[j] + ep.vars_of_sub(j).len());
    }
    let task_cut = balanced_cuts(&task_vars, members);
    let sub_cut = balanced_cuts(&sub_vars, members);
    let parts: Vec<Mutex<Part>> = (0..members)
        .map(|p| {
            Mutex::new(Part {
                x: vec![0.0; task_vars[task_cut[p + 1]] - task_vars[task_cut[p]]],
                // NaN until a root has been solved for.
                shift: vec![f64::NAN; task_cut[p + 1] - task_cut[p]],
                z: vec![0.0; sub_vars[sub_cut[p + 1]] - sub_vars[sub_cut[p]]],
                events: Vec::new(),
            })
        })
        .collect();
    let inputs = RwLock::new(Inputs {
        v: vec![0.0; dim],
        w: vec![0.0; dim],
        rho_of,
    });
    // One member's share of one step. It reads only the caller's inputs
    // and writes only its own part, so results are byte-identical at any
    // member count.
    let work = |member: usize, step: Step| {
        let inputs = inputs
            .read()
            .expect("the caller writes inputs between steps");
        let part = &mut *parts[member]
            .lock()
            .expect("no member panicked holding its part");
        match step {
            Step::Prox => {
                let base = task_vars[task_cut[member]];
                let tasks = task_cut[member]..task_cut[member + 1];
                for (i, last) in tasks.zip(part.shift.iter_mut()) {
                    let r = task_vars[i]..task_vars[i + 1];
                    if let Some(t) = task_prox(
                        &mut part.x[r.start - base..r.end - base],
                        &inputs.v[r.clone()],
                        &caps[r.clone()],
                        &inputs.rho_of[r],
                        prox_consts[i],
                        alpha,
                        p0,
                        *last,
                    ) {
                        *last = t;
                    }
                }
            }
            Step::Project => {
                let base = sub_vars[sub_cut[member]];
                for j in sub_cut[member]..sub_cut[member + 1] {
                    let delta = ep.delta_of_sub(j);
                    z_step_block(
                        ep.vars_of_sub(j),
                        delta,
                        ep.cores as f64 * delta,
                        &inputs.w,
                        &inputs.rho_of,
                        &mut part.events,
                        &mut part.z[sub_vars[j] - base..sub_vars[j + 1] - base],
                    );
                }
            }
        }
    };

    // The over-relaxed x-step point x̂, gathered from the members' parts.
    let mut x = vec![0.0_f64; dim];

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

    // Every reduction below runs on the caller, in index order.
    pool.team(work, |team| {
        while !converged && iters < opts.max_iters {
            iters += 1;
            let mut guard = inputs
                .write()
                .expect("no member holds the inputs between steps");
            let Inputs { v, rho_of, .. } = &mut *guard;

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
                    for k in task_vars[i]..task_vars[i + 1] {
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
            drop(guard);
            team.run(Step::Prox);

            // Over-relaxed consensus: x̂ = RELAX·x + (1−RELAX)·z, then the
            // blockwise ρ-weighted capped-simplex projection of x̂ + u
            // gives z⁺ (weighting by ρ_i is what the diagonal penalty
            // prescribes — the consensus step must charge each task its
            // own price to move).
            let mut guard = inputs
                .write()
                .expect("no member holds the inputs between steps");
            for (p, part) in parts.iter().enumerate() {
                let part = part.lock().expect("no member panicked holding its part");
                for (k, &xk) in (task_vars[task_cut[p]]..).zip(&part.x) {
                    x[k] = RELAX * xk + (1.0 - RELAX) * z[k];
                    guard.w[k] = x[k] + u[k];
                }
            }
            drop(guard);
            team.run(Step::Project);
            for (p, part) in parts.iter().enumerate() {
                let part = part.lock().expect("no member panicked holding its part");
                let vars = (sub_cut[p]..sub_cut[p + 1]).flat_map(|j| ep.vars_of_sub(j));
                for (&k, &zk) in vars.zip(&part.z) {
                    z[k] = zk;
                }
            }
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
    });

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
    let rho_of = inputs.into_inner().expect("the team has stopped").rho_of;
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
        levels: None,
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

/// The two parallel steps of a round.
#[derive(Clone, Copy)]
enum Step {
    /// The per-task proximal solves (x-step).
    Prox,
    /// The per-subinterval projections (z-step).
    Project,
}

/// The inputs of a round's steps, which the caller rewrites between them.
struct Inputs {
    /// The x-step anchor `z − u`.
    v: Vec<f64>,
    /// The z-step point `x̂ + u`.
    w: Vec<f64>,
    /// Per-coordinate penalty `ρ_k`.
    rho_of: Vec<f64>,
}

/// One team member's outputs: the prox points and shifts of its task
/// range, and the projections of its subinterval range, block after block
/// in [`EnergyProgram::vars_of_sub`] order, which the caller scatters
/// into `z`.
struct Part {
    x: Vec<f64>,
    /// Each task's prox shift from the last round, the first Newton
    /// iterate of the next.
    shift: Vec<f64>,
    z: Vec<f64>,
    /// [`project_block`]'s reusable breakpoint buffer.
    events: Vec<(u64, usize, f64)>,
}

/// Cut the items whose flat-variable counts have the running sums
/// `prefix` (`prefix[0] = 0`, one more entry than items) into `parts`
/// contiguous ranges of about equal variable count: range `p` is
/// `cut[p]..cut[p + 1]`.
fn balanced_cuts(prefix: &[usize], parts: usize) -> Vec<usize> {
    let items = prefix.len() - 1;
    let total = prefix[items];
    let mut cut: Vec<usize> = (0..parts)
        .map(|p| prefix.partition_point(|&s| s * parts < p * total))
        .collect();
    cut.push(items);
    cut
}

/// The z-step on one subinterval's block: the ρ-weighted projection
/// ([`project_block`]) of `w` over the flat variables `vars` (ascending),
/// all capped at `delta`, onto `Σ_k z_k ≤ budget = m·Δ_j`. The
/// projection of `vars[i]` goes to `out[i]`.
///
/// # Panics
/// On a NaN in `w` ("finite breakpoints").
fn z_step_block(
    vars: &[usize],
    delta: f64,
    budget: f64,
    w: &[f64],
    rho: &[f64],
    events: &mut Vec<(u64, usize, f64)>,
    out: &mut [f64],
) {
    project_block(
        vars.len(),
        |i| w[vars[i]],
        |i| rho[vars[i]],
        |_| delta,
        budget,
        events,
        |i, y| out[i] = y,
    );
}

/// The per-task constants of [`task_prox`], fixed for a whole solve.
#[derive(Clone, Copy)]
struct ProxConsts {
    /// `Σ_k caps_k`, the task's total box.
    cap_sum: f64,
    /// `cpow = γ(α−1)·c^α`, so that `φ'(X) = p₀ − cpow·X^−α`.
    cpow: f64,
}

impl ProxConsts {
    fn new(caps: &[f64], work: f64, gamma: f64, alpha: f64) -> Self {
        Self {
            cap_sum: caps.iter().sum(),
            cpow: gamma * (alpha - 1.0) * work.powf(alpha),
        }
    }
}

/// Exact proximal step for one task: minimize
/// `φ(Σ_k x_k) + Σ_k (ρ_k/2)(x_k − v_k)²` over `0 ≤ x_k ≤ caps_k`.
///
/// Stationarity gives `x_k = clamp(v_k − t/ρ_k, 0, caps_k)` where
/// `t = φ'(X)` is the task's marginal power, and the self-consistency
/// condition `t = p₀ − cpow·S(t)^−α` (`cpow = γ(α−1)c^α`, from `consts`,
/// `S(t) = Σ_k clamp(v_k − t/ρ_k, 0, caps_k)`) is solved **in `t`-space**,
/// where a `t` error of `ε` moves every coordinate by at most `ε/ρ_k`.
/// The alternative parametrization in `X = Σx` is numerically
/// treacherous: near tiny optima `φ'(X)` moves ~1e13 per unit of `X`, so
/// an `X` resolved to 1e-13 still yields a garbage shift and a
/// collapsed-to-zero prox (a spurious ADMM fixed point where both
/// residuals vanish and `ρ` adaptation never engages).
///
/// Bracket: below `t_lo = min_k ρ_k(v_k − caps_k)` every share saturates
/// (`S ≡ Σ caps`), so if `t_lo` already satisfies
/// `t_lo ≥ p₀ − cpow·(Σ caps)^−α` the all-capped point is the answer.
/// Otherwise the root lies in `(t_lo, min(t_hi, p₀))` with
/// `t_hi = max_k ρ_k·v_k` (where `S` reaches 0): `p₀ − t = cpow·S^−α > 0`
/// rules out `t ≥ p₀`. On that bracket the root solves the log form
///
/// ```text
/// F(t) = ln cpow − α·ln S(t) − ln(p₀ − t) = 0,
/// F′(t) = α·σ(t)/S(t) + 1/(p₀ − t),   σ = Σ 1/ρ_k over 0 < x_k < caps_k,
/// ```
///
/// which is increasing and, between the kinks of `S`, convex — the power
/// law `S^−α` that makes the plain form hopeless for Newton near `S ≈ 0`
/// becomes a logarithm. `F` is evaluated as one logarithm of the ratio
/// `cpow·S^−α/(p₀ − t)`, so its sign is as sharp as that of the plain
/// difference; three logarithms summed would carry the rounding of each
/// large term into the near-zero sum.
///
/// [`newton_increasing`] solves it, with `start` as the first iterate
/// (the last round's shift for this task, or the bracket midpoint) and
/// the tolerance `1e-13·min(ρ_min, 1)·(1 + |t|)`: the returned `t` is
/// the midpoint of a bracket of that width across which `F` changes
/// sign, so it lies within half of it of the root and every coordinate
/// within `1e-13·(1 + |t|)` of its exact value. The stop is certified by
/// that sign change, not by a short step, because near `S ≈ 0` Newton's
/// step is short only because `F` is steep.
///
/// Returns the shift `t`, or `None` where a shortcut decided the point
/// (zero width, zero work, all capped).
#[allow(clippy::too_many_arguments)]
fn task_prox(
    x: &mut [f64],
    v: &[f64],
    caps: &[f64],
    rho: &[f64],
    consts: ProxConsts,
    alpha: f64,
    p0: f64,
    start: f64,
) -> Option<f64> {
    let l = x.len();
    if l == 0 {
        return None;
    }
    if consts.cap_sum <= 0.0 {
        for xk in x.iter_mut() {
            *xk = 0.0;
        }
        return None;
    }
    let cpow = consts.cpow;
    if cpow <= 0.0 {
        // Zero-work task: φ' ≡ p₀ and the prox is a plain shifted clamp.
        for k in 0..l {
            x[k] = (v[k] - p0 / rho[k]).clamp(0.0, caps[k]);
        }
        return None;
    }
    let mut t_lo = f64::INFINITY;
    let mut t_hi = f64::NEG_INFINITY;
    let mut rho_min = f64::INFINITY;
    for k in 0..l {
        t_lo = t_lo.min(rho[k] * (v[k] - caps[k]));
        t_hi = t_hi.max(rho[k] * v[k]);
        rho_min = rho_min.min(rho[k]);
    }
    let s_lo: f64 = (0..l)
        .map(|k| (v[k] - t_lo / rho[k]).clamp(0.0, caps[k]))
        .sum();
    if t_lo - (p0 - cpow * s_lo.powf(-alpha)) >= 0.0 {
        x.copy_from_slice(caps);
        return None;
    }
    let log_form = |t: f64| -> (f64, f64) {
        let (mut s, mut sigma) = (0.0, 0.0);
        for k in 0..l {
            let y = v[k] - t / rho[k];
            if y >= caps[k] {
                s += caps[k];
            } else if y > 0.0 {
                s += y;
                sigma += 1.0 / rho[k];
            }
        }
        let slack = p0 - t;
        (
            (cpow * s.powf(-alpha) / slack).ln(),
            alpha * sigma / s + 1.0 / slack,
        )
    };
    let tol = 1e-13 * rho_min.min(1.0);
    let t = newton_increasing(log_form, t_lo, t_hi.min(p0), start, tol);
    for k in 0..l {
        x[k] = (v[k] - t / rho[k]).clamp(0.0, caps[k]);
    }
    Some(t)
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
        task_prox(
            &mut x,
            &v,
            &caps,
            &[rho; 3],
            ProxConsts::new(&caps, work, gamma, alpha),
            alpha,
            p0,
            f64::NAN,
        );
        let x_tot: f64 = x.iter().sum();
        let dphi = p0 - gamma * (alpha - 1.0) * work.powf(alpha) * x_tot.powf(-alpha);
        for k in 0..3 {
            let grad = dphi + rho * (x[k] - v[k]);
            assert!(grad.abs() < 1e-8, "k={k}: stationarity residual {grad}");
        }
    }

    /// Reference prox: bisection of `H(t) = t − φ'(S(t))` on
    /// `[t_lo, t_hi]` to `1e-13·min(ρ_min, 1)`, behind the same
    /// shortcuts. Returns the shift like [`task_prox`].
    #[allow(clippy::too_many_arguments)]
    fn task_prox_bisection(
        x: &mut [f64],
        v: &[f64],
        caps: &[f64],
        rho: &[f64],
        work: f64,
        gamma: f64,
        alpha: f64,
        p0: f64,
    ) -> Option<f64> {
        let l = x.len();
        if l == 0 {
            return None;
        }
        let cap_sum: f64 = caps.iter().sum();
        if cap_sum <= 0.0 {
            x.fill(0.0);
            return None;
        }
        let cpow = gamma * (alpha - 1.0) * work.powf(alpha);
        if cpow <= 0.0 {
            for k in 0..l {
                x[k] = (v[k] - p0 / rho[k]).clamp(0.0, caps[k]);
            }
            return None;
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
            return None;
        }
        let t = crate::scalar::bisect(h, t_lo, t_hi, 1e-13 * rho_min.min(1.0));
        for k in 0..l {
            x[k] = (v[k] - t / rho[k]).clamp(0.0, caps[k]);
        }
        Some(t)
    }

    /// xorshift64* in `[0, 1)`.
    fn unit(state: &mut u64) -> f64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn newton_prox_matches_the_bisection_prox_on_random_subproblems() {
        let mut state = 0x5eed_0123_4567_89ab_u64;
        let mut solved = 0usize;
        let mut warm = 0usize;
        for case in 0..12_000 {
            let rng = &mut state;
            let l = 1 + (unit(rng) * 64.0) as usize;
            let alpha = [2.0, 2.5, 3.0][case % 3];
            let p0 = [0.0, 0.1, 0.2][(case / 3) % 3];
            let work = match (case / 9) % 4 {
                0 => 0.0,
                1 => 1e-9,
                _ => 0.5 + 50.0 * unit(rng),
            };
            let mut caps = vec![0.0; l];
            let mut rho = vec![0.0; l];
            let mut v = vec![0.0; l];
            for k in 0..l {
                // Mixed caps: a few slivers among ordinary widths.
                caps[k] = if unit(rng) < 0.2 {
                    1e-6 * unit(rng)
                } else {
                    0.05 + 10.0 * unit(rng)
                };
                rho[k] = 10f64.powf(-4.0 + 10.0 * unit(rng));
                // Anchors below 0, inside the box and above the cap.
                v[k] = caps[k] * (-1.5 + 4.0 * unit(rng));
            }
            let mut xb = vec![f64::NAN; l];
            let tb = task_prox_bisection(&mut xb, &v, &caps, &rho, work, 1.0, alpha, p0);
            // Cold starts; warm starts near and far from the root; and
            // starts just under the top of the bracket, where S ≈ 0 and
            // Newton's steps are short because F is steep.
            let top = (0..l)
                .fold(f64::NEG_INFINITY, |a, k| a.max(rho[k] * v[k]))
                .min(p0);
            let start = match (tb, case % 5) {
                (Some(t), 1) => t * (1.0 + 1e-3 * (unit(rng) - 0.5)),
                (Some(t), 2) => t - 1e3 * unit(rng),
                (Some(t), 3) => t + 1e-9 * (unit(rng) - 0.5),
                (Some(_), 4) => match case % 3 {
                    0 => top.next_down(),
                    1 => top - 1e-15 * (1.0 + top.abs()),
                    _ => top - 1e-12 * (1.0 + top.abs()),
                },
                _ => f64::NAN,
            };
            let mut xn = vec![f64::NAN; l];
            let consts = ProxConsts::new(&caps, work, 1.0, alpha);
            let tn = task_prox(&mut xn, &v, &caps, &rho, consts, alpha, p0, start);
            let (Some(tb), Some(tn)) = (tb, tn) else {
                assert_eq!(tb, tn, "case {case}: shortcut disagrees");
                assert_eq!(xb, xn, "case {case}: shortcut point differs");
                continue;
            };
            solved += 1;
            warm += usize::from(start.is_finite());
            let rho_min = rho.iter().fold(f64::INFINITY, |a, &r| a.min(r));
            let tol = 1e-13 * rho_min.min(1.0) * (1.0 + tb.abs());
            // Both are midpoints of sign-change brackets narrower than tol
            // around the root. Where tol is finer than the equation's own
            // rounding — its terms t and p₀ − t = cpow·S^−α are each
            // rounded to 2^−52 of their size — a few ulps of the larger.
            let slack = tol.max(8.0 * f64::EPSILON * tb.abs().max(p0 - tb));
            assert!(
                (tn - tb).abs() <= slack,
                "case {case}: t newton {tn:e} vs bisection {tb:e}, tol {tol:e}"
            );
            for k in 0..l {
                let bound = slack / rho[k] + 4.0 * f64::EPSILON * v[k].abs().max(caps[k]);
                assert!(
                    (xn[k] - xb[k]).abs() <= bound,
                    "case {case}, k {k}: x {} vs {}, bound {bound:e}",
                    xn[k],
                    xb[k]
                );
            }
        }
        assert!(
            solved >= 5_000 && warm >= 2_000,
            "solved {solved}, warm {warm}"
        );
    }

    /// Reference sweep: the arithmetic of [`project_block`] with a stable
    /// `sort_by` over `partial_cmp` on the breakpoint, then the flat
    /// index, then the slope change.
    fn project_block_reference(
        vars: &[usize],
        delta: f64,
        budget: f64,
        w: &[f64],
        rho: &[f64],
        out: &mut [f64],
    ) {
        let mut s0 = 0.0_f64;
        for &k in vars {
            s0 += w[k].clamp(0.0, delta);
        }
        if s0 <= budget {
            for &k in vars {
                out[k] = w[k].clamp(0.0, delta);
            }
            return;
        }
        let mut events: Vec<(f64, usize, f64)> = Vec::new();
        let mut slope = 0.0_f64;
        for &k in vars {
            let t_uncap = rho[k] * (w[k] - delta);
            let t_zero = rho[k] * w[k];
            if t_zero <= 0.0 {
                continue;
            }
            if t_uncap > 0.0 {
                events.push((t_uncap, k, -1.0 / rho[k]));
            } else {
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
            None => events.last().map(|e| e.0).unwrap_or(0.0),
        };
        for &k in vars {
            out[k] = (w[k] - theta / rho[k]).clamp(0.0, delta);
        }
    }

    /// Runs both sweeps on one block and requires equal bits. The block's
    /// flat variables are spread out (`3i + 1`, NaN between them), so the
    /// z-step's gather and the position order of the shared kernel's sort
    /// are checked against the reference's flat-index order.
    fn assert_block_matches(case: usize, delta: f64, budget: f64, w: &[f64], rho: &[f64]) {
        let vars: Vec<usize> = (0..w.len()).map(|i| 3 * i + 1).collect();
        let spread = |v: &[f64]| {
            let mut flat = vec![f64::NAN; 3 * v.len() + 1];
            for (&k, &x) in vars.iter().zip(v) {
                flat[k] = x;
            }
            flat
        };
        let (w, rho) = (spread(w), spread(rho));
        let mut events = Vec::new();
        let mut got = vec![f64::NAN; vars.len()];
        z_step_block(&vars, delta, budget, &w, &rho, &mut events, &mut got);
        let mut want = vec![f64::NAN; w.len()];
        project_block_reference(&vars, delta, budget, &w, &rho, &mut want);
        let (got, want): (Vec<u64>, Vec<u64>) = (
            got.iter().map(|y| y.to_bits()).collect(),
            vars.iter().map(|&k| want[k].to_bits()).collect(),
        );
        assert_eq!(got, want, "case {case}: delta {delta:e}, budget {budget:e}");
    }

    #[test]
    fn integer_keyed_sweep_matches_the_comparator_sweep_bit_for_bit() {
        let mut state = 0x0b10_c4ed_5eed_0001_u64;
        let mut binding = 0usize;
        let blocks = 24_000;
        for case in 0..blocks {
            let rng = &mut state;
            let l = 1 + (unit(rng) * 48.0) as usize;
            let delta = match case % 4 {
                0 => 1e-9 * (1.0 + unit(rng)),
                1 => 2f64.powi((unit(rng) * 8.0) as i32 - 4),
                _ => 0.01 + 10.0 * unit(rng),
            };
            // Budget: 0, up to every share capped, or slack.
            let cores = match case % 7 {
                0 => 0,
                6 => l + 1,
                _ => 1 + (unit(rng) * l as f64) as usize,
            };
            let budget = cores as f64 * delta;
            // Δ̄/Δ scale shared by the block, ρ_i per variable.
            let scale = 10f64.powf(-3.0 + 6.0 * unit(rng));
            let all_capped = case % 11 == 0;
            // Mostly variables whose two breakpoints coincide.
            let tie_heavy = case % 13 == 5;
            let mut w = vec![0.0; l];
            let mut rho = vec![0.0; l];
            for k in 0..l {
                rho[k] = 10f64.powf(-4.0 + 10.0 * unit(rng)) * scale;
                let kind = if tie_heavy && unit(rng) < 0.7 {
                    3
                } else {
                    (unit(rng) * 9.0) as usize
                };
                w[k] = match (all_capped, kind) {
                    (true, _) | (false, 0) => delta * (1.0 + 3.0 * unit(rng)),
                    (false, 1) => -delta * unit(rng),
                    (false, 2) => [0.0, -0.0, delta][(unit(rng) * 3.0) as usize],
                    // Δ below an ulp of w: t_uncap == t_zero.
                    (false, 3) => delta * 2f64.powi(54 + (unit(rng) * 8.0) as i32),
                    _ => delta * unit(rng),
                };
                // Exact breakpoint ties across variables: another
                // variable's zero point, or its un-cap point.
                if k > 0 && unit(rng) < 0.25 {
                    let o = (unit(rng) * k as f64) as usize;
                    rho[k] = rho[o];
                    w[k] = if unit(rng) < 0.5 { w[o] } else { w[o] - delta };
                }
            }
            let s0: f64 = w.iter().map(|y| y.clamp(0.0, delta)).sum();
            binding += usize::from(s0 > budget);
            assert_block_matches(case, delta, budget, &w, &rho);
        }
        assert!(binding >= 10_000, "only {binding} binding blocks");
    }

    #[test]
    fn sweep_sorts_an_infinite_breakpoint() {
        let w = [f64::INFINITY, 0.5, 0.75, 2.0];
        let rho = [1.0, 2.0, 0.5, 1e6];
        assert_block_matches(0, 1.0, 1.5, &w, &rho);
    }

    #[test]
    #[should_panic(expected = "finite breakpoints")]
    fn sweep_rejects_a_nan_breakpoint() {
        let w = [0.5, f64::NAN, 0.75];
        let mut out = [0.0; 3];
        z_step_block(
            &[0, 1, 2],
            1.0,
            1.0,
            &w,
            &[1.0; 3],
            &mut Vec::new(),
            &mut out,
        );
    }
}
