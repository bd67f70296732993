//! Determinism and warm-start contracts for the decomposed ADMM solver.
//!
//! Each round's per-task and per-subinterval steps run on a team of the
//! pool's workers, each member on its own contiguous share, and every
//! reduction runs in a fixed order on the calling thread — so the
//! `SolveResult` must be byte-identical at any worker count. These tests
//! pin that contract at 1 to 8 workers on instances large enough to take
//! the team path, and check that a warm start from the previous
//! primal/dual point strictly reduces the iteration count.

use esched_obs::pool::Pool;
use esched_opt::{kkt_report, EnergyProgram, SolveOptions, SolveResult, SolverKind};
use esched_subinterval::Timeline;
use esched_types::{PolynomialPower, TaskSet};

/// Deterministic pseudo-random task set. Releases are spread over a long
/// horizon so windows overlap only locally: the flat dimension stays
/// small even at thousands of tasks, keeping the test fast in debug
/// builds.
fn big_tasks(n: usize, seed: u64) -> TaskSet {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        // xorshift64*: plain integer arithmetic, identical on every run.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    };
    let horizon = 3.0 * n as f64;
    let mut triples = Vec::with_capacity(n);
    for _ in 0..n {
        let release = horizon * next();
        let span = 4.0 + 8.0 * next();
        let wcec = 0.5 + 4.0 * next();
        triples.push((release, release + span, wcec));
    }
    TaskSet::from_triples(&triples)
}

fn program(tasks: &TaskSet) -> EnergyProgram {
    let tl = Timeline::build(tasks);
    EnergyProgram::new(tasks, &tl, 4, PolynomialPower::paper(3.0, 0.1))
}

/// Strip the one nondeterministic field (wall-clock) so the rest of the
/// result can be compared bit-for-bit.
fn canonical(mut r: SolveResult) -> SolveResult {
    r.telemetry.wall_s = 0.0;
    r
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Solve `ep` on a pool of each width in `workers` and require every
/// result to equal the first, bit for bit.
fn assert_identical_across(ep: &EnergyProgram, opts: &SolveOptions, workers: &[usize]) {
    let results: Vec<SolveResult> = workers
        .iter()
        .map(|&w| canonical(esched_opt::solve_admm_in(ep, opts, &Pool::with_threads(w))))
        .collect();

    let base = &results[0];
    assert!(base.converged, "reference solve must converge");
    for (r, w) in results.iter().zip(workers) {
        assert_eq!(bits(&r.x), bits(&base.x), "{w} workers: primal differs");
        assert_eq!(
            r.dual.as_deref().map(bits),
            base.dual.as_deref().map(bits),
            "{w} workers: dual differs"
        );
        assert_eq!(
            r.objective.to_bits(),
            base.objective.to_bits(),
            "{w} workers: objective differs"
        );
        assert_eq!(
            r.gap.to_bits(),
            base.gap.to_bits(),
            "{w} workers: gap differs"
        );
        assert_eq!(r.iters, base.iters, "{w} workers: iteration count differs");
        assert_eq!(r.converged, base.converged);
        assert_eq!(r.telemetry.backtracks, base.telemetry.backtracks);
        assert_eq!(r.telemetry.stalls, base.telemetry.stalls);
        let trace = |r: &SolveResult| -> Option<Vec<[u64; 3]>> {
            r.iter_trace.as_ref().map(|t| {
                t.iter()
                    .map(|s| [s.objective.to_bits(), s.gap.to_bits(), s.step.to_bits()])
                    .collect()
            })
        };
        assert_eq!(
            trace(r),
            trace(base),
            "{w} workers: iteration trace differs"
        );
    }
}

#[test]
fn byte_identical_across_1_4_8_workers() {
    let tasks = big_tasks(4200, 7);
    let ep = program(&tasks);
    assert!(ep.task_count() >= 4096, "must exercise the parallel path");
    assert_identical_across(&ep, &SolveOptions::default(), &[1, 4, 8]);
}

/// At a few hundred tasks, the size `certify-256` solves, every round runs
/// on the team. The iteration trace carries the primal residual, the one
/// reduction no other field depends on.
#[test]
fn byte_identical_across_1_2_4_8_workers_at_300_tasks() {
    let tasks = big_tasks(300, 7);
    let ep = program(&tasks);
    let opts = SolveOptions::default().with_trace_iters(true);
    assert_identical_across(&ep, &opts, &[1, 2, 4, 8]);
}

#[test]
fn warm_started_resolve_strictly_drops_iterations() {
    let tasks = big_tasks(300, 11);
    let ep = program(&tasks);
    let pool = Pool::with_threads(4);

    let cold = esched_opt::solve_admm_in(&ep, &SolveOptions::default(), &pool);
    assert!(cold.converged, "cold solve must converge");
    let duals = cold.dual.clone().expect("admm must return its dual point");

    let warm_opts = SolveOptions::default()
        .with_warm_start(cold.x.clone())
        .with_warm_start_dual(duals);
    let warm = esched_opt::solve_admm_in(&ep, &warm_opts, &pool);

    assert!(warm.converged, "warm solve must converge");
    assert!(
        warm.iters < cold.iters,
        "warm start must strictly drop iterations: warm {} vs cold {}",
        warm.iters,
        cold.iters
    );
    assert!(
        (warm.objective - cold.objective).abs() <= 1e-6 * (1.0 + cold.objective.abs()),
        "warm and cold optima must match: {} vs {}",
        warm.objective,
        cold.objective
    );
}

#[test]
fn admm_agrees_with_every_certifying_serial_solver() {
    let tasks = big_tasks(24, 23);
    let ep = program(&tasks);
    let admm = SolverKind::Admm.solve(&ep, &SolveOptions::default());
    let admm_kkt = kkt_report(&ep, &admm.x);
    assert!(
        admm_kkt.is_optimal(1e-5),
        "admm fails the independent KKT certificate: residual {:e}, gap {:e}",
        admm_kkt.projected_gradient_residual,
        admm_kkt.duality_gap
    );
    // Two certified points are provably within 2e-5 of each other in
    // objective, and both serial solvers certify under `precise()`.
    for kind in [SolverKind::ProjectedGradient, SolverKind::BlockDescent] {
        let r = kind.solve(&ep, &SolveOptions::precise());
        assert!(
            kkt_report(&ep, &r.x).is_optimal(1e-5),
            "{} fails the KKT certificate",
            kind.name()
        );
        let diff = (admm.objective - r.objective).abs() / (1.0 + r.objective.abs());
        assert!(
            diff <= 2e-5,
            "admm {} vs certified {} {}: relative diff {:e}",
            admm.objective,
            kind.name(),
            r.objective,
            diff
        );
    }
}
