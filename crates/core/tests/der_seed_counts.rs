//! `esched.opt.warm_starts` counts the solves that `optimal_energy_with`
//! starts from `S^F2`, and a caller's own start is counted as before. The
//! counter is process-global, so this binary holds a single test.

use esched_core::optimal_energy_with;
use esched_opt::{EnergyProgram, SolveOptions, SolverKind};
use esched_subinterval::Timeline;
use esched_types::{PolynomialPower, TaskSet};

#[test]
fn warm_starts_count_seeded_solves() {
    let tasks = TaskSet::from_triples(&[
        (0.0, 10.0, 8.0),
        (2.0, 18.0, 14.0),
        (4.0, 16.0, 8.0),
        (6.0, 14.0, 4.0),
        (8.0, 20.0, 10.0),
        (12.0, 22.0, 6.0),
    ]);
    let power = PolynomialPower::paper(3.0, 0.1);
    let timeline = Timeline::build(&tasks);
    let ep = EnergyProgram::new(&tasks, &timeline, 4, power);
    let warm_starts = || esched_obs::metrics::counter("esched.opt.warm_starts").get();
    let count = |opts: &SolveOptions, solver: SolverKind| {
        let before = warm_starts();
        optimal_energy_with(&tasks, 4, &power, opts, solver);
        warm_starts() - before
    };
    let fast = SolveOptions::fast();
    for solver in SolverKind::ALL {
        let seeded = u64::from(solver != SolverKind::InteriorPoint);
        assert_eq!(count(&fast, solver), seeded, "{}", solver.name());
    }
    // A caller's primal start counts once, as it always did; a dual-only
    // start keeps ADMM's own cold primal and counts nothing.
    let primal = fast.clone().with_warm_start(ep.initial_point());
    assert_eq!(count(&primal, SolverKind::ProjectedGradient), 1);
    let dual = fast.clone().with_warm_start_dual(vec![0.0; ep.dim()]);
    assert_eq!(count(&dual, SolverKind::Admm), 0);
    // A direct solver call is never seeded.
    let before = warm_starts();
    SolverKind::ProjectedGradient.solve(&ep, &fast);
    assert_eq!(warm_starts() - before, 0);
}
