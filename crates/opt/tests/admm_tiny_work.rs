//! Named regressions for ADMM on tasks whose optimal execution time is
//! orders of magnitude shorter than their window (tiny work, static power
//! p₀ > 0, so the optimum runs near the critical speed for a sliver of
//! the window).
//!
//! The cold start gives such a task its whole window, where the objective
//! is nearly flat, so its curvature-matched penalty starts at the floor
//! `RHO_TASK_MIN`. The first over-relaxed round then throws the consensus
//! iterate to zero and loads the scaled dual with a window-sized error,
//! which the optimum's tiny residuals repay only slowly; the penalty
//! refresh has to climb ten-plus orders of magnitude, 2× per refresh,
//! before the task moves again. Two defects stopped it from getting
//! there: the stall guard counted those rounds as a frozen point and gave
//! up after ~100 of them, and the curvature was floored at X = 1e-6, so
//! the penalty stopped climbing before it matched optima below that. Each
//! instance is a shrunk repro from the differential fuzzer's
//! `solver-agreement` oracle: one task on one core, α = 3.

use esched_opt::{kkt_report, EnergyProgram, SolveOptions, SolverKind};
use esched_subinterval::Timeline;
use esched_types::{PolynomialPower, TaskSet};

/// The fuzzer's ADMM-vs-PGD agreement band (relative to 1 + |E|).
const ADMM_AGREE_TOL: f64 = 2e-5;

fn certifies_and_agrees_with_pgd(release: f64, deadline: f64, wcec: f64, p0: f64) {
    let tasks = TaskSet::from_triples(&[(release, deadline, wcec)]);
    let timeline = Timeline::build(&tasks);
    let ep = EnergyProgram::new(&tasks, &timeline, 1, PolynomialPower::paper(3.0, p0));
    let admm = SolverKind::Admm.solve(&ep, &SolveOptions::default());
    let pgd = SolverKind::ProjectedGradient.solve(&ep, &SolveOptions::default());
    let kkt = kkt_report(&ep, &admm.x);
    assert!(admm.converged, "ADMM stopped after {} rounds", admm.iters);
    assert!(kkt.is_optimal(1e-5), "{kkt:?}");
    assert!(
        (admm.objective - pgd.objective).abs() <= ADMM_AGREE_TOL * (1.0 + pgd.objective.abs()),
        "admm {} vs pgd {}",
        admm.objective,
        pgd.objective
    );
}

#[test]
fn optimum_below_the_old_curvature_floor() {
    // X* ≈ 1.7e-9: under the 1e-6 floor the penalty used to stop at.
    certifies_and_agrees_with_pgd(10.0, 24.0, 1.342_778_055_728_723_5e-9, 1.0);
}

#[test]
fn optimum_a_millionth_of_the_window() {
    certifies_and_agrees_with_pgd(4.0, 23.0, 2.280_650_357_998_02e-5, 4.296_795_709_848_601);
}

#[test]
fn optimum_a_millionth_of_a_short_window() {
    certifies_and_agrees_with_pgd(2.0, 6.0, 2.349_649_829_114_74e-6, 0.2);
}

#[test]
fn optimum_a_ten_millionth_of_a_long_window() {
    certifies_and_agrees_with_pgd(50.0, 150.0, 1.159_911_645_869_708_8e-5, 1.0);
}
