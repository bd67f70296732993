//! The optimal baseline `E^OPT` (Theorem 1) and its constructive half:
//! extracting a legal schedule from the convex program's solution.
//!
//! The paper normalizes every experimental result by the optimum of the
//! reformulated convex program. This module solves the program with a
//! pluggable first-order solver from `esched-opt` and — implementing the
//! second half of Theorem 1's proof — materializes the optimal `x_{i,j}`
//! into a collision-free schedule via Algorithm 1.

use crate::packing::{pack_subinterval, PackItem};
use crate::Pool;
use esched_opt::{EnergyProgram, SolveOptions, SolveResult, SolverTelemetry};
use esched_subinterval::Timeline;
use esched_types::{PolynomialPower, Schedule, TaskSet};

/// Which method solves the convex program.
///
/// This is [`esched_opt::SolverKind`] re-exported under its historical
/// name — existing `Solver::Fista`-style call sites keep compiling, while
/// new code (the engine's `EngineConfig`, the solver study) can use the
/// unified `SolverKind::solve` dispatch directly.
pub use esched_opt::SolverKind as Solver;

/// The optimal solution: energy, certificate, and a legal schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalSolution {
    /// Optimal energy `E^OPT` (the experiment normalizer).
    pub energy: f64,
    /// Certified duality gap (upper bound on suboptimality).
    pub gap: f64,
    /// Solver iterations used.
    pub iters: usize,
    /// Full solver telemetry (iterations, stalls, gap evaluations, wall
    /// time) — what [`crate::nec::evaluate_nec_full`] forwards into run
    /// reports.
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
/// schedule. Uses [`Solver::ProjectedGradient`]; see
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
    optimal_energy_with(tasks, cores, power, opts, Solver::ProjectedGradient)
}

/// [`optimal_energy`] with an explicit solver choice.
pub fn optimal_energy_with(
    tasks: &TaskSet,
    cores: usize,
    power: &PolynomialPower,
    opts: &SolveOptions,
    solver: Solver,
) -> OptimalSolution {
    let timeline = Timeline::build(tasks);
    optimal_energy_in(tasks, &timeline, cores, power, opts, solver)
}

/// [`optimal_energy_with`] against a caller-built [`Timeline`], so batch
/// pipelines that already decomposed the instance (the engine runs the
/// heuristics and the optimum off one timeline) don't rebuild it.
pub fn optimal_energy_in(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    power: &PolynomialPower,
    opts: &SolveOptions,
    solver: Solver,
) -> OptimalSolution {
    optimal_energy_in_pool(tasks, timeline, cores, power, opts, solver, None)
}

/// [`optimal_energy_in`] with an optional shared worker [`Pool`] for the
/// decomposed solver ([`Solver::Admm`]) to fan its per-task subproblems
/// across — the engine threads its intra-instance pool through here so
/// one warm set of workers serves allocation *and* certification. `None`
/// falls back to an env-sized pool; serial solvers ignore it either way,
/// and results are byte-identical at any worker count.
#[allow(clippy::too_many_arguments)]
pub fn optimal_energy_in_pool(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    power: &PolynomialPower,
    opts: &SolveOptions,
    solver: Solver,
    pool: Option<&Pool>,
) -> OptimalSolution {
    let ep = EnergyProgram::new(tasks, timeline, cores, *power);
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
    use esched_types::time::EPS;
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
    use esched_types::{validate_schedule, PowerModel};

    fn intro() -> TaskSet {
        TaskSet::from_triples(&[(0.0, 12.0, 4.0), (2.0, 10.0, 2.0), (4.0, 8.0, 4.0)])
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
        let a = optimal_energy_with(
            &ts,
            2,
            &p,
            &SolveOptions::default(),
            Solver::ProjectedGradient,
        );
        let b = optimal_energy_with(&ts, 2, &p, &SolveOptions::default(), Solver::Fista);
        let c = optimal_energy_with(&ts, 2, &p, &SolveOptions::default(), Solver::FrankWolfe);
        let d = optimal_energy_with(&ts, 2, &p, &SolveOptions::default(), Solver::InteriorPoint);
        let e = optimal_energy_with(&ts, 2, &p, &SolveOptions::default(), Solver::BlockDescent);
        let f = optimal_energy_with(&ts, 2, &p, &SolveOptions::default(), Solver::Admm);
        assert!((a.energy - b.energy).abs() < 1e-3 * (1.0 + a.energy));
        assert!((a.energy - c.energy).abs() < 1e-3 * (1.0 + a.energy));
        assert!((a.energy - d.energy).abs() < 2e-3 * (1.0 + a.energy));
        assert!((a.energy - e.energy).abs() < 2e-3 * (1.0 + a.energy));
        assert!((a.energy - f.energy).abs() < 2e-3 * (1.0 + a.energy));
        // The IP, block-descent, and ADMM solutions extract legal
        // schedules too.
        esched_types::validate_schedule(&d.schedule, &ts).assert_legal();
        esched_types::validate_schedule(&e.schedule, &ts).assert_legal();
        esched_types::validate_schedule(&f.schedule, &ts).assert_legal();
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
