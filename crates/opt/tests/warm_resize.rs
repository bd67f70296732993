//! Regression tests for warm-starting solvers across task-set mutations.
//!
//! When the online engine re-certifies energy after an arrival or
//! completion, the `EnergyProgram` dimension changes between solves. A
//! stale warm start must never panic or silently corrupt the solve: the
//! direct entry points sanitize the start (wrong dimension or non-finite
//! entries fall back to the canonical interior point; feasible points
//! pass through untouched), and `warm_start_from_totals` carries the old
//! optimum's per-task totals into the new geometry.

use esched_opt::{
    kkt_report, solve_block_descent_from, solve_pgd, EnergyProgram, SolveOptions, SolverKind,
};
use esched_subinterval::Timeline;
use esched_types::{PolynomialPower, TaskSet};

fn program(tasks: &TaskSet, cores: usize) -> EnergyProgram {
    let tl = Timeline::build(tasks);
    EnergyProgram::new(tasks, &tl, cores, PolynomialPower::paper(3.0, 0.1))
}

fn small() -> TaskSet {
    TaskSet::from_triples(&[(0.0, 12.0, 4.0), (2.0, 10.0, 2.0), (4.0, 8.0, 4.0)])
}

fn grown() -> TaskSet {
    TaskSet::from_triples(&[
        (0.0, 12.0, 4.0),
        (2.0, 10.0, 2.0),
        (4.0, 8.0, 4.0),
        (5.0, 14.0, 3.0),
    ])
}

#[test]
fn wrong_dimension_warm_start_does_not_panic_and_still_converges() {
    let ep_old = program(&small(), 2);
    let ep_new = program(&grown(), 2);
    assert_ne!(ep_old.dim(), ep_new.dim(), "mutation must change dim");

    // A stale optimum from the old program, fed raw into every direct
    // entry point of the new one.
    let stale = solve_pgd(&ep_old, ep_old.initial_point(), &SolveOptions::default()).x;
    let cold = solve_pgd(&ep_new, ep_new.initial_point(), &SolveOptions::precise()).objective;

    for (name, r) in [
        (
            "pgd",
            solve_pgd(&ep_new, stale.clone(), &SolveOptions::precise()),
        ),
        (
            "block_descent",
            solve_block_descent_from(&ep_new, stale.clone(), &SolveOptions::precise()),
        ),
    ] {
        assert_eq!(r.x.len(), ep_new.dim(), "{name}: wrong output dim");
        assert!(ep_new.is_feasible(&r.x, 1e-6), "{name}: infeasible result");
        assert!(
            (r.objective - cold).abs() < 1e-4 * (1.0 + cold),
            "{name}: warm {} vs cold {cold}",
            r.objective
        );
    }
}

#[test]
fn non_finite_warm_start_is_replaced() {
    let ep = program(&small(), 2);
    let mut bad = ep.initial_point();
    bad[0] = f64::NAN;
    let r = solve_pgd(&ep, bad, &SolveOptions::default());
    assert!(r.objective.is_finite());
    assert!(ep.is_feasible(&r.x, 1e-6));
}

#[test]
fn solver_kind_with_stale_warm_start_on_grown_program_is_safe() {
    let ep_old = program(&small(), 2);
    let ep_new = program(&grown(), 2);
    let stale = solve_pgd(&ep_old, ep_old.initial_point(), &SolveOptions::default()).x;
    let cold = SolverKind::ProjectedGradient
        .solve(&ep_new, &SolveOptions::precise())
        .objective;
    for kind in [SolverKind::ProjectedGradient, SolverKind::BlockDescent] {
        let opts = SolveOptions::precise().with_warm_start(stale.clone());
        let r = kind.solve(&ep_new, &opts);
        assert_eq!(r.x.len(), ep_new.dim());
        assert!(
            (r.objective - cold).abs() < 1e-4 * (1.0 + cold),
            "{kind:?}: {} vs {cold}",
            r.objective
        );
    }
}

#[test]
fn totals_remap_is_feasible_and_recovers_the_objective() {
    let ep_old = program(&small(), 2);
    let ep_new = program(&grown(), 2);
    let old_opt = solve_pgd(&ep_old, ep_old.initial_point(), &SolveOptions::precise());
    let totals = ep_old.total_times(&old_opt.x);

    let warm = ep_new.warm_start_from_totals(&totals);
    assert_eq!(warm.len(), ep_new.dim());
    assert!(ep_new.is_feasible(&warm, 1e-9), "remap must be feasible");

    let warm_r = solve_pgd(&ep_new, warm, &SolveOptions::precise());
    let cold_r = solve_pgd(&ep_new, ep_new.initial_point(), &SolveOptions::precise());
    assert!(
        (warm_r.objective - cold_r.objective).abs() < 1e-5 * (1.0 + cold_r.objective),
        "warm {} vs cold {}",
        warm_r.objective,
        cold_r.objective
    );
    let rep = kkt_report(&ep_new, &warm_r.x);
    assert!(rep.is_optimal(1e-4), "warm-started solve not certified");
}

#[test]
fn totals_remap_ignores_garbage_targets() {
    let ep = program(&grown(), 2);
    // Too-short, NaN, and negative targets must all degrade gracefully.
    for totals in [
        vec![],
        vec![f64::NAN, -1.0],
        vec![f64::INFINITY, 0.0, 1.0, 2.0, 3.0, 4.0],
    ] {
        let w = ep.warm_start_from_totals(&totals);
        assert_eq!(w.len(), ep.dim());
        assert!(ep.is_feasible(&w, 1e-9));
    }
}
