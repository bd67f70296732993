//! The optimal baseline `E^OPT` (Theorem 1) and its constructive half:
//! extracting a legal schedule from the convex program's solution.
//!
//! The paper normalizes every experimental result by the optimum of the
//! reformulated convex program. This module solves the program with a
//! pluggable solver from `esched-opt` and — implementing the second half
//! of Theorem 1's proof — materializes the optimal `x_{i,j}` into a
//! collision-free schedule via Algorithm 1.
//!
//! Unless the caller brings its own start, a solve starts at the exact
//! optimum ([`esched_opt::exact`], Fujishige's decomposition): the named
//! iterative solver certifies that point with its own duality gap and
//! returns it at once, and iterates only where the point fails to certify.
//! So the iterative solvers are the safety net, not the work, and the
//! `E^OPT ≤ E^F2` lower bound holds because `S^F2` is a feasible point of
//! the same program.

use crate::packing::{pack_subinterval, PackItem};
use crate::Pool;
use esched_opt::{
    solve_exact, EnergyProgram, SolveOptions, SolveResult, SolverKind, SolverTelemetry,
};
use esched_subinterval::Timeline;
use esched_types::time::EPS;
use esched_types::{PolynomialPower, Schedule, TaskSet};

/// The optimal solution: energy, certificate, and a legal schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalSolution {
    /// Optimal energy `E^OPT` (the experiment normalizer): the solver's
    /// objective at its returned iterate, before the dust clean and the
    /// starvation repair move [`OptimalSolution::x`].
    pub energy: f64,
    /// The solver's certified duality gap (an upper bound on the
    /// suboptimality of [`OptimalSolution::energy`]), taken at the
    /// solver's iterate. It is *not* re-certified after the dust clean and
    /// the starvation repair, so it does not bound the gap of the returned
    /// [`OptimalSolution::x`], which those steps may have moved.
    pub gap: f64,
    /// Solver iterations used.
    pub iters: usize,
    /// Full solver telemetry (iterations, stalls, gap evaluations, wall
    /// time) — what the engine's `OptSummary` forwards into run reports.
    pub telemetry: SolverTelemetry,
    /// Per-task total execution times `X_i` at the optimum.
    pub total_times: Vec<f64>,
    /// Per-task frequencies `C_i / X_i`.
    pub freq: Vec<f64>,
    /// The materialized optimal schedule.
    pub schedule: Schedule,
    /// The final flat iterate `x_{i,j}` (post dust-clean and repair) —
    /// reusable as [`SolveOptions::warm_start`] for a nearby instance of
    /// the same dimension.
    pub x: Vec<f64>,
}

/// Solve the energy program for `tasks` on `cores` cores and extract a
/// schedule. Uses [`SolverKind::ProjectedGradient`]; see
/// [`optimal_energy_with`] to pick a solver.
///
/// # Examples
///
/// ```
/// use esched_core::optimal_energy;
/// use esched_opt::SolveOptions;
/// use esched_types::{PolynomialPower, TaskSet};
///
/// // Section II: three tasks, two cores, p(f) = f³ + 0.01 →
/// // E^OPT = 155/32 + 0.2.
/// let tasks = TaskSet::from_triples(&[
///     (0.0, 12.0, 4.0), (2.0, 10.0, 2.0), (4.0, 8.0, 4.0),
/// ]);
/// let sol = optimal_energy(
///     &tasks, 2, &PolynomialPower::paper(3.0, 0.01), &SolveOptions::precise(),
/// );
/// assert!((sol.energy - (155.0 / 32.0 + 0.2)).abs() < 1e-5);
/// ```
pub fn optimal_energy(
    tasks: &TaskSet,
    cores: usize,
    power: &PolynomialPower,
    opts: &SolveOptions,
) -> OptimalSolution {
    optimal_energy_with(tasks, cores, power, opts, SolverKind::ProjectedGradient)
}

/// [`optimal_energy`] with an explicit solver choice.
pub fn optimal_energy_with(
    tasks: &TaskSet,
    cores: usize,
    power: &PolynomialPower,
    opts: &SolveOptions,
    solver: SolverKind,
) -> OptimalSolution {
    let timeline = Timeline::build(tasks);
    optimal_energy_in_pool(tasks, &timeline, cores, power, opts, solver, None)
}

/// [`optimal_energy_with`] against a caller-built [`Timeline`], so a
/// pipeline that already decomposed the instance (the engine runs the
/// heuristics and the optimum off one timeline) doesn't rebuild it, and
/// with an optional shared worker [`Pool`] for the decomposed solver
/// ([`SolverKind::Admm`]) to fan its per-task subproblems across — the
/// engine threads its intra-instance pool through here so one warm set of
/// workers serves allocation *and* certification. `None` falls back to an
/// env-sized pool; serial solvers ignore it either way, and results are
/// byte-identical at any worker count.
///
/// **Start point.** When `opts` carries neither
/// [`SolveOptions::warm_start`] nor [`SolveOptions::warm_start_dual`],
/// the solve starts at the exact optimum: this function runs
/// [`solve_exact`] and passes its `x` as the warm start, and for
/// [`SolverKind::Admm`] `y = −∇E(x)`, the consensus dual's value at an
/// optimum, as the dual start. The named solver certifies the start with
/// its own Frank–Wolfe gap and returns it after zero iterations, or
/// iterates from it where it does not certify. [`SolverKind::Exact`] is
/// the seed itself and runs once. A caller's own start always wins and is
/// used as given.
#[allow(clippy::too_many_arguments)]
pub fn optimal_energy_in_pool(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    power: &PolynomialPower,
    opts: &SolveOptions,
    solver: SolverKind,
    pool: Option<&Pool>,
) -> OptimalSolution {
    let ep = EnergyProgram::new(tasks, timeline, cores, *power);
    let seeded;
    let opts = match exact_seed(&ep, opts, solver) {
        Some(seed) => {
            seeded = seed;
            &seeded
        }
        None => opts,
    };
    let mut result: SolveResult = match pool {
        Some(pool) => solver.solve_in(&ep, opts, pool),
        None => solver.solve(&ep, opts),
    };
    clean_dust(&ep, tasks, timeline, &mut result.x);
    repair_starved(&ep, tasks, timeline, cores, power, &mut result.x);
    let total_times = ep.total_times(&result.x);
    // Frequency is the exact `C_i/X_i` whenever the solver allocated *any*
    // time, however small — flooring the denominator at EPS (as this once
    // did) silently under-delivers tiny tasks: a task with `X_i < EPS`
    // would run at the diluted `C_i/EPS` over only `X_i` time and miss its
    // work by nearly all of `C_i`. The clamp below exists solely so a
    // literal `X_i = 0` yields a huge-but-finite frequency instead of inf
    // (no segment is emitted in that case anyway).
    let freq: Vec<f64> = tasks
        .iter()
        .map(|(i, t)| t.wcec / total_times[i].max(f64::MIN_POSITIVE))
        .collect();
    let schedule = extract_schedule(timeline, cores, &ep, &result.x, &freq);
    OptimalSolution {
        energy: result.objective,
        gap: result.gap,
        iters: result.iters,
        telemetry: result.telemetry,
        total_times,
        freq,
        schedule,
        x: result.x,
    }
}

/// `opts` with the exact optimum as its start (see
/// [`optimal_energy_in_pool`]), or `None` where the solve keeps `opts` as
/// given: the caller set a start, or the solver is the exact one.
fn exact_seed(ep: &EnergyProgram, opts: &SolveOptions, solver: SolverKind) -> Option<SolveOptions> {
    if opts.warm_start.is_some() || opts.warm_start_dual.is_some() || solver == SolverKind::Exact {
        return None;
    }
    let x = solve_exact(ep, opts).x;
    let dual = (solver == SolverKind::Admm).then(|| {
        let mut g = vec![0.0; ep.dim()];
        ep.gradient(&x, &mut g);
        g.iter_mut().for_each(|v| *v = -*v);
        g
    });
    Some(SolveOptions {
        warm_start: Some(x),
        warm_start_dual: dual,
        ..opts.clone()
    })
}

/// Zero out solver "dust": first-order methods leave tiny positive
/// `x_{i,j}` values (≪ any real allocation) scattered across blocks. They
/// carry negligible work but materialize as micro-segments that bloat the
/// schedule and interact badly with packing tolerances. Dropping them
/// *before* frequencies are computed keeps delivered work exactly `C_i`
/// (the frequency rises to compensate). A task's largest entry is always
/// kept, so `X_i` stays positive.
fn clean_dust(ep: &EnergyProgram, tasks: &TaskSet, timeline: &Timeline, x: &mut [f64]) {
    for i in 0..tasks.len() {
        let span = timeline.span(i);
        let mut best_k = None;
        let mut best_v = 0.0;
        for j in span.clone() {
            let k = ep.flat_index(i, j).expect("span index");
            if x[k] > best_v {
                best_v = x[k];
                best_k = Some(k);
            }
        }
        for j in span {
            let k = ep.flat_index(i, j).expect("span index");
            let threshold = 1e-6 * (1.0 + timeline.delta(j));
            if x[k] < threshold && Some(k) != best_k {
                x[k] = 0.0;
            }
        }
    }
}

/// Repair solver starvation: a first-order method can exit with an
/// (exactly or nearly) zero allocation for a task whose execution
/// requirement is tiny relative to the instance — the projection clamps
/// its sliver onto the constraint boundary and the stalled gradient never
/// pulls it back before the iteration budget runs out. Zero time is not
/// "approximately optimal": it is infeasible at any finite frequency, and
/// the extracted schedule would deliver none of the task's work. Top such
/// tasks back up toward their ideal execution time `C_i/f_i^O` using spare
/// subinterval capacity; the missing time is below the solver's
/// resolution, so the spare is essentially always there.
fn repair_starved(
    ep: &EnergyProgram,
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    power: &PolynomialPower,
    x: &mut [f64],
) {
    esched_obs::metric_counter!("esched.core.repair_starved_calls").inc();
    let mut used = vec![0.0; timeline.len()];
    for i in 0..tasks.len() {
        for j in timeline.span(i) {
            if let Some(k) = ep.flat_index(i, j) {
                used[j] += x[k];
            }
        }
    }
    for (i, t) in tasks.iter() {
        let span = timeline.span(i);
        let have: f64 = span
            .clone()
            .filter_map(|j| ep.flat_index(i, j))
            .map(|k| x[k])
            .sum();
        if have > EPS {
            continue;
        }
        esched_obs::metric_counter!("esched.core.repair_starved_tasks").inc();
        let f_ideal = power.optimal_frequency(t.wcec, t.window_len().max(EPS));
        let mut need = (t.wcec / f_ideal - have).max(0.0);
        let mut got = have;
        for j in span.clone() {
            if need <= 0.0 {
                break;
            }
            let Some(k) = ep.flat_index(i, j) else {
                continue;
            };
            let delta = timeline.delta(j);
            let spare = (cores as f64 * delta - used[j]).min(delta - x[k]).max(0.0);
            let take = spare.min(need);
            x[k] += take;
            used[j] += take;
            need -= take;
            got += take;
        }
        // Saturated span (the co-runners soak every instant): shave a
        // sliver off their allocations instead. A donor that gives up δ
        // just runs δ·f faster — its delivered work is exact by
        // construction — while *zero* time for the starved task is
        // infeasible at any frequency. The target here is the modest
        // "run at max(1, f_crit)" time, so the donation is at most C_i.
        let t_min = t.wcec / power.critical_frequency().max(1.0);
        let mut steal = (t_min - got).max(0.0);
        if steal <= 0.0 {
            continue;
        }
        for j in span {
            if steal <= 0.0 {
                break;
            }
            let Some(k) = ep.flat_index(i, j) else {
                continue;
            };
            let delta = timeline.delta(j);
            for &other in &timeline.subintervals()[j].overlapping {
                if steal <= 0.0 || other == i {
                    continue;
                }
                let Some(ko) = ep.flat_index(other, j) else {
                    continue;
                };
                // Never take more than half a donor's slot, and respect
                // the receiver's own per-subinterval cap x ≤ Δ.
                let take = (x[ko] / 2.0).min(steal).min((delta - x[k]).max(0.0));
                x[ko] -= take;
                x[k] += take;
                steal -= take;
            }
        }
    }
}

/// Materialize an optimal `x` into a schedule: per subinterval, pack the
/// per-task execution times with Algorithm 1 at each task's equal
/// frequency `C_i/X_i` — the constructive step of Theorem 1.
fn extract_schedule(
    timeline: &Timeline,
    cores: usize,
    ep: &EnergyProgram,
    x: &[f64],
    freq: &[f64],
) -> Schedule {
    let mut out = Schedule::new(cores);
    let mut items: Vec<PackItem> = Vec::new();
    for sub in timeline.subintervals() {
        items.clear();
        for &i in &sub.overlapping {
            if let Some(k) = ep.flat_index(i, sub.index) {
                let d = x[k];
                // Work-aware dust gate: for a tiny task the solver's whole
                // allocation can sit below EPS, yet at `C_i/X_i` that
                // sliver carries the task's entire work — dropping it by
                // duration alone delivered zero work for such tasks.
                if d > 0.0 && !crate::packing::negligible(d, freq[i]) {
                    items.push(PackItem {
                        task: i,
                        duration: d,
                        freq: freq[i],
                    });
                }
            }
        }
        pack_subinterval(
            &items,
            sub.interval.start,
            sub.interval.end,
            cores,
            &mut out,
        )
        .expect("solver iterates are feasible");
    }
    out.coalesce();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::der::der_schedule;
    use crate::refine::tests::arb_instance;
    use esched_obs::rng::ChaCha8;
    use esched_types::{validate_schedule, PowerModel};
    use esched_workload::{GeneratorConfig, IntensityDist, WorkloadGenerator};

    fn intro() -> TaskSet {
        TaskSet::from_triples(&[(0.0, 12.0, 4.0), (2.0, 10.0, 2.0), (4.0, 8.0, 4.0)])
    }

    /// The paper's worked VD example: six tasks that contend on four
    /// cores.
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

    /// `per_n` task sets for each of Figure 10's first four task counts
    /// (`sweep-fig10`'s law: intensity uniform on [0.1, 1]).
    fn fig10_law_sets(per_n: u64) -> impl Iterator<Item = TaskSet> {
        [5, 10, 15, 20].into_iter().flat_map(move |n| {
            let config = GeneratorConfig::paper_default()
                .with_tasks(n)
                .with_intensity(IntensityDist::Uniform { lo: 0.1, hi: 1.0 });
            (0..per_n).map(move |k| WorkloadGenerator::new(config, 901 + k).generate())
        })
    }

    /// On the PGD path `E^OPT ≤ E^F2`: the solve returns the exact optimum
    /// of a program that `S^F2` is a feasible point of, with objective
    /// `E^F2`.
    fn assert_opt_below_f2(tasks: &TaskSet, cores: usize, power: &PolynomialPower) {
        let opt = optimal_energy(tasks, cores, power, &SolveOptions::fast());
        let f2 = der_schedule(tasks, cores, power).final_energy;
        assert!(
            opt.energy <= f2 * (1.0 + 1e-12),
            "E^OPT {} above E^F2 {f2} ({} tasks, {cores} cores)",
            opt.energy,
            tasks.len()
        );
    }

    #[test]
    fn opt_lower_bounds_der_final_energy() {
        let power = PolynomialPower::paper(3.0, 0.2);
        for tasks in fig10_law_sets(10) {
            assert_opt_below_f2(&tasks, 4, &power);
        }
        let mut rng = ChaCha8::seed_from_u64(0x5eed_0f20);
        for _ in 0..300 {
            let (tasks, cores, power) = arb_instance(&mut rng);
            assert_opt_below_f2(&tasks, cores, &power);
        }
    }

    #[test]
    #[ignore = "release-size: 1,600 sets; run with --release --include-ignored"]
    fn opt_lower_bounds_der_final_energy_on_1600_fig10_sets() {
        let power = PolynomialPower::paper(3.0, 0.2);
        for tasks in fig10_law_sets(400) {
            assert_opt_below_f2(&tasks, 4, &power);
        }
    }

    #[test]
    fn a_light_timeline_is_solved_at_its_start() {
        // With n ≤ m every subinterval is light: each task has its whole
        // window, so S^F2 is the ideal S^O and already optimal.
        let tasks = intro();
        for power in [PolynomialPower::cubic(), PolynomialPower::paper(3.0, 0.2)] {
            for cores in [3, 4] {
                let opts = SolveOptions::default();
                let sol = optimal_energy(&tasks, cores, &power, &opts);
                assert!(sol.iters <= 1, "{} iterations", sol.iters);
                assert!(sol.telemetry.converged);
                assert!(
                    sol.gap <= opts.gap_tol * (1.0 + sol.energy),
                    "gap {}",
                    sol.gap
                );
                let f2 = der_schedule(&tasks, cores, &power).final_energy;
                assert!(
                    (sol.energy - f2).abs() <= 1e-12 * f2,
                    "{} vs {f2}",
                    sol.energy
                );
            }
        }
    }

    /// `optimal_energy_with` run on a caller's start is the solver's own
    /// run on it, then the dust clean and the repair.
    fn assert_solved_as_given(opts: &SolveOptions, solver: SolverKind) {
        let (tasks, cores, power) = (vd(), 4, PolynomialPower::paper(3.0, 0.1));
        let timeline = Timeline::build(&tasks);
        let ep = EnergyProgram::new(&tasks, &timeline, cores, power);
        let direct = solver.solve(&ep, opts);
        let mut x = direct.x.clone();
        clean_dust(&ep, &tasks, &timeline, &mut x);
        repair_starved(&ep, &tasks, &timeline, cores, &power, &mut x);
        let sol = optimal_energy_with(&tasks, cores, &power, opts, solver);
        assert_eq!(sol.energy.to_bits(), direct.objective.to_bits());
        assert_eq!(sol.gap.to_bits(), direct.gap.to_bits());
        assert_eq!(sol.iters, direct.iters);
        assert_eq!(sol.x, x);
    }

    #[test]
    fn a_caller_start_is_used_as_given() {
        let (tasks, power) = (vd(), PolynomialPower::paper(3.0, 0.1));
        let timeline = Timeline::build(&tasks);
        let ep = EnergyProgram::new(&tasks, &timeline, 4, power);
        let fast = SolveOptions::fast();
        let primal = fast.clone().with_warm_start(ep.initial_point());
        let dual = fast.clone().with_warm_start_dual(vec![0.0; ep.dim()]);
        for solver in SolverKind::ALL {
            assert_solved_as_given(&primal, solver);
            assert_solved_as_given(&dual, solver);
        }
        // Without a caller start the solve is seeded with the exact
        // optimum, which every iterative solver certifies at once.
        let exact = SolverKind::Exact.solve(&ep, &fast);
        for solver in SolverKind::ALL {
            let seeded = optimal_energy_with(&tasks, 4, &power, &fast, solver);
            if solver == SolverKind::Exact {
                assert_eq!(seeded.energy.to_bits(), exact.objective.to_bits());
                continue;
            }
            assert_eq!(seeded.iters, 0, "{}", solver.name());
            assert!(
                (seeded.energy - exact.objective).abs() <= 1e-15 * exact.objective,
                "{}: {} vs {}",
                solver.name(),
                seeded.energy,
                exact.objective
            );
            assert!(seeded.gap <= fast.gap_tol * (1.0 + seeded.energy));
        }
    }

    #[test]
    fn section_ii_example_energy_and_schedule() {
        let ts = intro();
        let p = PolynomialPower::paper(3.0, 0.01);
        let sol = optimal_energy(&ts, 2, &p, &SolveOptions::precise());
        let expect = 155.0 / 32.0 + 0.2;
        assert!(
            (sol.energy - expect).abs() < 1e-5,
            "E^OPT = {} vs {}",
            sol.energy,
            expect
        );
        validate_schedule(&sol.schedule, &ts).assert_legal();
        // Schedule energy agrees with the analytic optimum. The packing
        // rounds the work delivered to exactly C_i, so small drift is OK.
        let se = sol.schedule.energy(&p);
        assert!((se - sol.energy).abs() < 1e-4 * (1.0 + sol.energy), "{se}");
    }

    #[test]
    fn all_solvers_agree() {
        let ts = intro();
        let p = PolynomialPower::paper(3.0, 0.05);
        let solve = |kind| optimal_energy_with(&ts, 2, &p, &SolveOptions::default(), kind);
        let a = solve(SolverKind::ProjectedGradient);
        let b = solve(SolverKind::BlockDescent);
        let c = solve(SolverKind::Admm);
        assert!((a.energy - b.energy).abs() < 2e-3 * (1.0 + a.energy));
        assert!((a.energy - c.energy).abs() < 2e-3 * (1.0 + a.energy));
        // The block-descent and ADMM solutions extract legal schedules too.
        esched_types::validate_schedule(&b.schedule, &ts).assert_legal();
        esched_types::validate_schedule(&c.schedule, &ts).assert_legal();
    }

    #[test]
    fn optimum_lower_bounds_heuristics() {
        let ts = TaskSet::from_triples(&[
            (0.0, 10.0, 8.0),
            (2.0, 18.0, 14.0),
            (4.0, 16.0, 8.0),
            (6.0, 14.0, 4.0),
            (8.0, 20.0, 10.0),
            (12.0, 22.0, 6.0),
        ]);
        let p = PolynomialPower::cubic();
        let opt = optimal_energy(&ts, 4, &p, &SolveOptions::default());
        let der = crate::der::der_schedule(&ts, 4, &p);
        let even = crate::even::even_schedule(&ts, 4, &p);
        assert!(opt.energy <= der.final_energy + 1e-6);
        assert!(opt.energy <= even.final_energy + 1e-6);
        // And with p0 = 0 the unlimited-core ideal lower-bounds everything.
        let ideal = crate::ideal::ideal_schedule(&ts, &p);
        assert!(ideal.energy <= opt.energy + 1e-6);
    }

    #[test]
    fn optimal_schedule_is_legal_across_power_models() {
        let ts = intro();
        for p in [
            PolynomialPower::cubic(),
            PolynomialPower::paper(2.0, 0.25),
            PolynomialPower::paper(3.0, 0.2),
        ] {
            let sol = optimal_energy(&ts, 2, &p, &SolveOptions::default());
            validate_schedule(&sol.schedule, &ts).assert_legal();
            assert!(sol.energy > 0.0);
            let _ = p.power(1.0);
        }
    }
}
