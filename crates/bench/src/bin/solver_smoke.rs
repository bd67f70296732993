//! `solver_smoke` — the CI gate for the decomposed ADMM and the exact
//! E^OPT solvers.
//!
//! Three checks, all fatal on failure. Two at n = 4096 (grid-snapped
//! `WorkloadSpec::large_n`):
//!
//! 1. **Fig8-style cores sweep certifies**: every point of the
//!    `m ∈ {2, 4, 6, 8, 10, 12}` sweep (`α = 3`, `p₀ = 0.2`), solved by
//!    [`solve_admm_in`] with the primal *and dual* point warm-chained
//!    between sweep positions, must converge AND pass the independent
//!    KKT certificate at 1e-5 — the same bar every serial solver is held
//!    to.
//! 2. **Byte-identity across worker counts**: the cold `m = 4` solve
//!    must converge, and repeated on explicit 1-, 4-, and 8-worker pools
//!    must agree bit-for-bit in primal, dual, objective, gap, and
//!    iteration count.
//!    CI additionally launches this binary under
//!    `ESCHED_ENGINE_THREADS=4`, which sizes every pool the harness
//!    creates implicitly; the explicit pools cover 1 and 8 regardless.
//!
//! And one at n = 16384:
//!
//! 3. **The exact solver certifies at scale**: `large_n(16384)` seed 1000
//!    (`m = 4`, `α = 3`, `p₀ = 0.2`), solved by [`solve_exact`], must pass
//!    the KKT certificate at 1e-9.

use esched_core::Pool;
use esched_opt::{kkt_report, solve_admm_in, solve_exact, EnergyProgram, SolveOptions};
use esched_subinterval::Timeline;
use esched_types::PolynomialPower;
use esched_workload::WorkloadSpec;
use std::time::Instant;

const N: usize = 4096;
const SWEEP_CORES: [usize; 6] = [2, 4, 6, 8, 10, 12];
const KKT_TOL: f64 = 1e-5;
const EXACT_N: usize = 16_384;
const EXACT_KKT_TOL: f64 = 1e-9;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn main() {
    let tasks = WorkloadSpec::large_n(N).instantiate(3);
    let tl = Timeline::build(&tasks);
    let power = PolynomialPower::paper(3.0, 0.2);
    let pool = Pool::with_threads(8);

    // --- 1. fig8-style cores sweep, every point KKT-certified ---
    let mut warm: Option<(Vec<f64>, Vec<f64>)> = None;
    for cores in SWEEP_CORES {
        let ep = EnergyProgram::new(&tasks, &tl, cores, power);
        let mut opts = SolveOptions::fast();
        if let Some((x, y)) = warm.take() {
            opts = opts.with_warm_start(x).with_warm_start_dual(y);
        }
        let t0 = Instant::now();
        let r = solve_admm_in(&ep, &opts, &pool);
        let wall = t0.elapsed().as_secs_f64();
        assert!(
            r.converged,
            "cores={cores}: admm did not converge (gap {:e})",
            r.gap
        );
        let kkt = kkt_report(&ep, &r.x);
        assert!(
            kkt.is_optimal(KKT_TOL),
            "cores={cores}: KKT certificate failed (residual {:e}, gap {:e})",
            kkt.projected_gradient_residual,
            kkt.duality_gap
        );
        println!(
            "solver_smoke: cores={cores} certified in {wall:.2}s ({} iters, obj {:.6e})",
            r.iters, r.objective
        );
        let dual = r.dual.clone().expect("admm returns its dual point");
        warm = Some((r.x, dual));
    }

    // --- 2. byte-identity at 1, 4, 8 workers ---
    let ep = EnergyProgram::new(&tasks, &tl, 4, power);
    let reference = solve_admm_in(&ep, &SolveOptions::fast(), &Pool::with_threads(1));
    assert!(reference.converged, "cold admm at m=4 did not converge");
    for workers in [4usize, 8] {
        let r = solve_admm_in(&ep, &SolveOptions::fast(), &Pool::with_threads(workers));
        assert_eq!(
            bits(&r.x),
            bits(&reference.x),
            "{workers} workers: primal diverged from serial"
        );
        assert_eq!(
            r.dual.as_deref().map(bits),
            reference.dual.as_deref().map(bits),
            "{workers} workers: dual diverged from serial"
        );
        assert_eq!(r.objective.to_bits(), reference.objective.to_bits());
        assert_eq!(r.gap.to_bits(), reference.gap.to_bits());
        assert_eq!(r.iters, reference.iters);
    }
    println!("solver_smoke: n={N} m=4 solve byte-identical at 1/4/8 workers");

    // --- 3. the exact solver at n = 16384, certified at 1e-9 ---
    let tasks = WorkloadSpec::large_n(EXACT_N).instantiate(1000);
    let ep = EnergyProgram::new(&tasks, &Timeline::build(&tasks), 4, power);
    let t0 = Instant::now();
    let r = solve_exact(&ep, &SolveOptions::fast());
    let wall = t0.elapsed().as_secs_f64();
    let kkt = kkt_report(&ep, &r.x);
    assert!(
        kkt.is_optimal(EXACT_KKT_TOL),
        "exact n={EXACT_N}: KKT certificate failed at {EXACT_KKT_TOL:e}: {kkt:?}"
    );
    println!(
        "solver_smoke: exact n={EXACT_N} m=4 certified at {EXACT_KKT_TOL:e} in {wall:.2}s \
         ({} max-flows, {} levels, obj {:.6e})",
        r.iters,
        r.levels.as_ref().map_or(0, Vec::len),
        r.objective
    );
}
