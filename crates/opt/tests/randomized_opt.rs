//! Seeded randomized tests for the optimization substrate.

use esched_obs::rng::ChaCha8;
use esched_opt::{
    feasible_at_frequency, min_uniform_frequency, project_capped_simplex, solve_pgd, EnergyProgram,
    SolveOptions,
};
use esched_subinterval::Timeline;
use esched_types::{PolynomialPower, Task, TaskSet};

const CASES: usize = 40;

fn arb_task_set(rng: &mut ChaCha8, max_tasks: usize) -> TaskSet {
    let n = rng.gen_range_usize(1, max_tasks + 1);
    TaskSet::new(
        (0..n)
            .map(|_| {
                let r = rng.gen_range_f64(0.0, 30.0);
                let len = rng.gen_range_f64(0.5, 25.0);
                let intensity = rng.gen_range_f64(0.05, 1.2);
                Task::of(r, r + len, (len * intensity).max(1e-3))
            })
            .collect(),
    )
    .unwrap()
}

fn arb_vec(rng: &mut ChaCha8, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
    let n = rng.gen_range_usize(min_len, max_len);
    (0..n).map(|_| rng.gen_range_f64(lo, hi)).collect()
}

#[test]
fn projection_is_idempotent() {
    let mut rng = ChaCha8::seed_from_u64(0x0b70_0001);
    for _ in 0..CASES {
        let z = arb_vec(&mut rng, -3.0, 5.0, 1, 12);
        let cap_frac = rng.gen_range_f64(0.05, 1.2);
        let u = vec![1.0; z.len()];
        let cap = cap_frac * z.len() as f64 * 0.5;
        let mut p1 = vec![0.0; z.len()];
        project_capped_simplex(&z, &u, cap, &mut p1);
        let mut p2 = vec![0.0; z.len()];
        project_capped_simplex(&p1, &u, cap, &mut p2);
        for (a, b) in p1.iter().zip(&p2) {
            assert!(
                (a - b).abs() < 1e-7,
                "projection not idempotent: {a} vs {b}"
            );
        }
    }
}

#[test]
fn projection_is_nonexpansive() {
    let mut rng = ChaCha8::seed_from_u64(0x0b70_0002);
    for _ in 0..CASES {
        let z1 = arb_vec(&mut rng, -3.0, 5.0, 4, 10);
        let n = z1.len();
        let z2: Vec<f64> = z1
            .iter()
            .map(|a| a + rng.gen_range_f64(-1.0, 1.0))
            .collect();
        let cap_frac = rng.gen_range_f64(0.05, 1.2);
        let u = vec![1.0; n];
        let cap = cap_frac * n as f64 * 0.5;
        let mut p1 = vec![0.0; n];
        let mut p2 = vec![0.0; n];
        project_capped_simplex(&z1, &u, cap, &mut p1);
        project_capped_simplex(&z2, &u, cap, &mut p2);
        let dp: f64 = p1
            .iter()
            .zip(&p2)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
            .sqrt();
        let dz: f64 = z1
            .iter()
            .zip(&z2)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(dp <= dz + 1e-6, "expansive projection: {dp} > {dz}");
    }
}

#[test]
fn lmo_beats_random_feasible_points() {
    let mut rng = ChaCha8::seed_from_u64(0x0b70_0003);
    for _ in 0..CASES {
        let tasks = arb_task_set(&mut rng, 8);
        let cores = rng.gen_range_usize(1, 4);
        let tl = Timeline::build(&tasks);
        let ep = EnergyProgram::new(&tasks, &tl, cores, PolynomialPower::paper(3.0, 0.1));
        let g: Vec<f64> = (0..ep.dim())
            .map(|_| rng.gen_range_f64(-2.0, 2.0))
            .collect();
        let mut s = vec![0.0; ep.dim()];
        ep.lmo(&g, &mut s);
        assert!(ep.is_feasible(&s, 1e-12));
        let s_val: f64 = g.iter().zip(&s).map(|(a, b)| a * b).sum();
        // Candidate: a random point in the box, scaled per subinterval
        // into its capacity.
        let mut y = vec![0.0; ep.dim()];
        for j in 0..ep.subinterval_count() {
            let vars = ep.vars_of_sub(j);
            let delta = ep.delta_of_sub(j);
            for &k in vars {
                y[k] = rng.gen_range_f64(0.0, delta);
            }
            let ysum: f64 = vars.iter().map(|&k| y[k]).sum();
            if ysum > ep.capacity(j) {
                for &k in vars {
                    y[k] *= ep.capacity(j) / ysum;
                }
            }
        }
        let y_val: f64 = g.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!(s_val <= y_val + 1e-9, "LMO {s_val} beaten by {y_val}");
    }
}

#[test]
fn solver_respects_feasibility_and_certifies() {
    let mut rng = ChaCha8::seed_from_u64(0x0b70_0004);
    for _ in 0..CASES {
        let tasks = arb_task_set(&mut rng, 8);
        let cores = rng.gen_range_usize(1, 4);
        let p0 = rng.gen_range_f64(0.0, 0.3);
        let tl = Timeline::build(&tasks);
        let ep = EnergyProgram::new(&tasks, &tl, cores, PolynomialPower::paper(3.0, p0));
        let r = solve_pgd(&ep, ep.initial_point(), &SolveOptions::fast());
        assert!(ep.is_feasible(&r.x, 1e-6));
        assert!(r.objective.is_finite() && r.objective > 0.0);
        assert!(r.gap >= -1e-9);
        // The certified gap bounds suboptimality vs. the initial point.
        let f0 = ep.objective(&ep.initial_point());
        assert!(r.objective <= f0 + 1e-9);
    }
}

#[test]
fn flow_minimum_frequency_is_consistent() {
    let mut rng = ChaCha8::seed_from_u64(0x0b70_0005);
    for _ in 0..CASES {
        let tasks = arb_task_set(&mut rng, 6);
        let cores = rng.gen_range_usize(1, 4);
        let tl = Timeline::build(&tasks);
        let f = min_uniform_frequency(&tasks, &tl, cores);
        assert!(f > 0.0 && f.is_finite());
        assert!(feasible_at_frequency(&tasks, &tl, cores, f * (1.0 + 1e-9)));
        assert!(!feasible_at_frequency(&tasks, &tl, cores, f * (1.0 - 1e-9)));
        // More cores never raise the minimum frequency.
        let f_more = min_uniform_frequency(&tasks, &tl, cores + 1);
        assert!(
            f_more <= f * (1.0 + 1e-12),
            "more cores raised f*: {f_more} > {f}"
        );
    }
}

#[test]
fn energy_program_objective_is_convex_along_segments() {
    let mut rng = ChaCha8::seed_from_u64(0x0b70_0006);
    for _ in 0..CASES {
        // Convexity spot-check: f(λx + (1−λ)y) ≤ λf(x) + (1−λ)f(y) for the
        // initial point and a projected perturbation.
        let tasks = arb_task_set(&mut rng, 6);
        let lambda = rng.gen_range_f64(0.0, 1.0);
        let tl = Timeline::build(&tasks);
        let ep = EnergyProgram::new(&tasks, &tl, 2, PolynomialPower::paper(2.5, 0.1));
        let x = ep.initial_point();
        let z: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(k, &v)| v * (0.3 + (k % 3) as f64 * 0.35))
            .collect();
        let mut y = vec![0.0; ep.dim()];
        ep.project(&z, &mut y);
        let mid: Vec<f64> = x
            .iter()
            .zip(&y)
            .map(|(a, b)| lambda * a + (1.0 - lambda) * b)
            .collect();
        let lhs = ep.objective(&mid);
        let rhs = lambda * ep.objective(&x) + (1.0 - lambda) * ep.objective(&y);
        assert!(
            lhs <= rhs + 1e-7 * (1.0 + rhs.abs()),
            "convexity violated: {lhs} > {rhs}"
        );
    }
}

#[test]
fn warm_start_matches_cold_solution_and_saves_iterations() {
    use esched_opt::SolverKind;
    let mut rng = ChaCha8::seed_from_u64(0x0b70_0007);
    let mut warm_iters = 0usize;
    let mut cold_iters = 0usize;
    for _ in 0..12 {
        let tasks = arb_task_set(&mut rng, 8);
        let tl = Timeline::build(&tasks);
        // The sweep pattern: solve at one static power, re-solve the same
        // instance at a neighboring one seeded from the first optimum.
        let ep_a = EnergyProgram::new(&tasks, &tl, 2, PolynomialPower::paper(3.0, 0.1));
        let ep_b = EnergyProgram::new(&tasks, &tl, 2, PolynomialPower::paper(3.0, 0.15));
        let opts = SolveOptions::fast();
        let first = SolverKind::ProjectedGradient.solve(&ep_a, &opts);
        let cold = SolverKind::ProjectedGradient.solve(&ep_b, &opts);
        let warm_opts = opts.clone().with_warm_start(first.x);
        let warm = SolverKind::ProjectedGradient.solve(&ep_b, &warm_opts);
        assert!(
            (warm.objective - cold.objective).abs() < 1e-4 * (1.0 + cold.objective),
            "warm and cold optima diverged: {} vs {}",
            warm.objective,
            cold.objective
        );
        warm_iters += warm.iters;
        cold_iters += cold.iters;
    }
    assert!(
        warm_iters <= cold_iters,
        "warm starts cost more iterations overall: {warm_iters} > {cold_iters}"
    );
}

#[test]
fn mismatched_warm_start_falls_back_to_cold_start() {
    let tasks = TaskSet::from_triples(&[(0.0, 12.0, 4.0), (2.0, 10.0, 2.0), (4.0, 8.0, 4.0)]);
    let tl = Timeline::build(&tasks);
    let ep = EnergyProgram::new(&tasks, &tl, 2, PolynomialPower::paper(3.0, 0.1));
    let opts = SolveOptions::fast();
    // Wrong dimension and non-finite entries must both be rejected, not
    // fed into the solver.
    let wrong_dim = opts.clone().with_warm_start(vec![1.0; ep.dim() + 1]);
    assert!(wrong_dim.warm_point(&ep).is_none());
    let non_finite = opts.clone().with_warm_start(vec![f64::NAN; ep.dim()]);
    assert!(non_finite.warm_point(&ep).is_none());
    let cold = esched_opt::SolverKind::ProjectedGradient.solve(&ep, &opts);
    let fallback = esched_opt::SolverKind::ProjectedGradient.solve(&ep, &wrong_dim);
    assert_eq!(cold.x, fallback.x, "fallback must reproduce the cold solve");
}
