//! Solver study: convergence and agreement of the four solvers on the
//! energy program, at several instance sizes — projected gradient, exact
//! block-coordinate descent, the decomposed parallel consensus ADMM, and
//! the exact decomposition — each run cold.
//!
//! This is the evidence behind trusting the NEC normalizations: all four
//! methods must agree to well below the margins the figures report, with
//! certified duality gaps.

use crate::report::write_artifact;
use esched_obs::chrome::{convergence_trace, ConvergencePoint};
use esched_obs::{RunReport, TrialRecord, Value};
use esched_opt::{kkt_report, EnergyProgram, SolveOptions, SolverKind, SolverTelemetry};
use esched_subinterval::Timeline;
use esched_types::PolynomialPower;
use esched_workload::{GeneratorConfig, WorkloadGenerator};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One solver's run record.
#[derive(Debug, Clone)]
pub struct SolverRun {
    /// Solver name.
    pub name: &'static str,
    /// Instance size (tasks).
    pub tasks: usize,
    /// Final objective.
    pub objective: f64,
    /// Certified duality gap.
    pub gap: f64,
    /// Iterations used.
    pub iters: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Projected-gradient KKT residual (solver-independent certificate).
    pub kkt_residual: f64,
    /// The solver's own telemetry (stalls, gap evaluations, backtracks).
    pub telemetry: SolverTelemetry,
}

/// Run all four solvers on instances of each size.
pub fn run(sizes: &[usize], seed: u64) -> Vec<SolverRun> {
    let mut out = Vec::new();
    for &n in sizes {
        let tasks =
            WorkloadGenerator::new(GeneratorConfig::paper_default().with_tasks(n), seed).generate();
        let tl = Timeline::build(&tasks);
        let ep = EnergyProgram::new(&tasks, &tl, 4, PolynomialPower::paper(3.0, 0.1));
        let opts = SolveOptions::default();
        for kind in SolverKind::ALL {
            let t0 = Instant::now();
            let r = kind.solve(&ep, &opts);
            let seconds = t0.elapsed().as_secs_f64();
            let kkt = kkt_report(&ep, &r.x);
            out.push(SolverRun {
                name: kind.name(),
                tasks: n,
                objective: r.objective,
                gap: r.gap,
                iters: r.iters,
                seconds,
                kkt_residual: kkt.projected_gradient_residual,
                telemetry: r.telemetry,
            });
        }
    }
    out
}

/// Render and persist the study.
pub fn run_and_report(seed: u64, outdir: &Path) -> String {
    let runs = run(&[10, 20, 40], seed);
    let mut out = String::from("Solver study (m=4, alpha=3, p0=0.1; default tolerances)\n");
    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>14} {:>11} {:>8} {:>9} {:>11}",
        "tasks", "solver", "objective", "gap", "iters", "seconds", "kkt_resid"
    );
    let mut csv = String::from("tasks,solver,objective,gap,iters,seconds,kkt_residual\n");
    for r in &runs {
        let _ = writeln!(
            out,
            "{:>6} {:>12} {:>14.6} {:>11.2e} {:>8} {:>9.4} {:>11.2e}",
            r.tasks, r.name, r.objective, r.gap, r.iters, r.seconds, r.kkt_residual
        );
        let _ = writeln!(
            csv,
            "{},{},{:.9},{:.3e},{},{:.5},{:.3e}",
            r.tasks, r.name, r.objective, r.gap, r.iters, r.seconds, r.kkt_residual
        );
    }
    // Agreement check line.
    for &n in &[10usize, 20, 40] {
        let objs: Vec<f64> = runs
            .iter()
            .filter(|r| r.tasks == n)
            .map(|r| r.objective)
            .collect();
        let lo = objs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = objs.iter().cloned().fold(0.0_f64, f64::max);
        let _ = writeln!(
            out,
            "n = {n}: solver agreement spread = {:.2e} (relative)",
            (hi - lo) / lo
        );
    }
    let _ = write_artifact(outdir, "solvers.csv", &csv);
    // Structured artifact: one trial record per (size, solver) run.
    let mut report = RunReport::new("solvers").with_meta("seed", Value::Num(seed as f64));
    for (k, r) in runs.iter().enumerate() {
        let t = &r.telemetry;
        let mut rec = TrialRecord::new(k as u64, seed);
        rec.solver_iters = t.iters as u64;
        rec.gap_evals = t.gap_evals as u64;
        rec.converged = t.converged;
        rec.final_gap = t.final_gap;
        rec.solve_wall_s = t.wall_s;
        rec.extra
            .push(("solver".to_string(), Value::Str(r.name.to_string())));
        rec.extra
            .push(("tasks".to_string(), Value::Num(r.tasks as f64)));
        rec.extra
            .push(("objective".to_string(), Value::Num(r.objective)));
        rec.extra
            .push(("kkt_residual".to_string(), Value::Num(r.kkt_residual)));
        rec.extra
            .push(("backtracks".to_string(), Value::Num(t.backtracks as f64)));
        rec.extra
            .push(("stalls".to_string(), Value::Num(t.stalls as f64)));
        report.push(rec);
    }
    let _ = report.write_to_dir(outdir);

    // Convergence traces: re-run every solver on the n=20 instance with
    // per-iteration tracing on and render each run as Chrome counter
    // tracks (objective / gap / step over iterations), loadable in
    // Perfetto alongside a span capture.
    let tasks =
        WorkloadGenerator::new(GeneratorConfig::paper_default().with_tasks(20), seed).generate();
    let tl = Timeline::build(&tasks);
    let ep = EnergyProgram::new(&tasks, &tl, 4, PolynomialPower::paper(3.0, 0.1));
    let opts = SolveOptions::default().with_trace_iters(true);
    for kind in SolverKind::ALL {
        let r = kind.solve(&ep, &opts);
        let points: Vec<ConvergencePoint> = r
            .iter_trace
            .unwrap_or_default()
            .iter()
            .map(|s| ConvergencePoint {
                iter: s.iter,
                objective: s.objective,
                gap: s.gap,
                step: s.step,
            })
            .collect();
        let doc = convergence_trace(kind.name(), &points);
        let file = format!("convergence_{}.trace.json", kind.name());
        let _ = write_artifact(outdir, &file, &doc.to_string_pretty());
        let _ = writeln!(out, "convergence trace: {file} ({} samples)", points.len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_solvers_agree_within_tolerance() {
        let runs = run(&[10], 77);
        let names: Vec<_> = runs.iter().map(|r| r.name).collect();
        assert_eq!(names, ["pgd", "block_descent", "admm", "exact"]);
        let lo = runs
            .iter()
            .map(|r| r.objective)
            .fold(f64::INFINITY, f64::min);
        let hi = runs.iter().map(|r| r.objective).fold(0.0_f64, f64::max);
        assert!(
            (hi - lo) / lo < 2e-3,
            "solver spread too large: {lo} vs {hi}"
        );
        for r in &runs {
            assert!(r.gap >= -1e-9, "{}: negative gap {}", r.name, r.gap);
            assert!(r.seconds >= 0.0);
        }
    }

    #[test]
    fn every_solver_yields_an_iteration_trace_when_asked() {
        let tasks =
            WorkloadGenerator::new(GeneratorConfig::paper_default().with_tasks(10), 7).generate();
        let tl = Timeline::build(&tasks);
        let ep = EnergyProgram::new(&tasks, &tl, 4, PolynomialPower::paper(3.0, 0.1));
        let opts = SolveOptions::fast().with_trace_iters(true);
        for kind in SolverKind::ALL {
            let r = kind.solve(&ep, &opts);
            let trace = r.iter_trace.unwrap_or_default();
            assert!(!trace.is_empty(), "{}: empty iteration trace", kind.name());
            // Iteration numbers are positive and non-decreasing.
            let mut prev = 0usize;
            for s in &trace {
                assert!(s.iter >= prev.max(1), "{}: iter order", kind.name());
                assert!(s.objective.is_finite());
                prev = s.iter;
            }
            let doc = convergence_trace(
                kind.name(),
                &trace
                    .iter()
                    .map(|s| ConvergencePoint {
                        iter: s.iter,
                        objective: s.objective,
                        gap: s.gap,
                        step: s.step,
                    })
                    .collect::<Vec<_>>(),
            );
            assert!(!doc
                .get("traceEvents")
                .and_then(Value::as_array)
                .unwrap()
                .is_empty());
        }
    }
}
