//! The paper's reformulated convex energy program (Section IV.B).
//!
//! Variables: execution time `x_{i,j}` of task `i` during subinterval `j`,
//! restricted to the pairs where task `i`'s window covers subinterval `j`.
//! Writing `X_i = Σ_j x_{i,j}` for the total execution time of task `i`,
//! the objective is
//!
//! ```text
//! E(x) = Σ_i [ γ · C_i^α / X_i^{α−1} + p₀ · X_i ]
//! ```
//!
//! (each task runs at its equal-frequency optimum `f_i = C_i / X_i`,
//! by Observation 1), subject to
//!
//! ```text
//! 0 ≤ x_{i,j} ≤ Δ_j                    (box per available pair)
//! Σ_i x_{i,j} ≤ m · Δ_j                (capacity per subinterval)
//! ```
//!
//! The feasible set is a Cartesian product of capped simplices — one per
//! subinterval — so Euclidean projection decomposes blockwise
//! ([`crate::projection`]). This module owns the variable layout, the
//! objective/gradient oracle, blockwise projection and LMO, and a feasible
//! starting point. The solvers in [`crate::gradient`], [`crate::fista`],
//! and [`crate::frank_wolfe`] are generic over this oracle.

// Indexed loops below walk several parallel arrays at once; iterator
// zips would obscure the numerics. Silence clippy's range-loop lint here.
#![allow(clippy::needless_range_loop)]

use crate::projection::project_onto_budget;
use esched_subinterval::Timeline;
use esched_types::{PolynomialPower, TaskSet};

/// Minimum total execution time any task is allowed to shrink to, as a
/// fraction of the time it would need at an (arbitrarily chosen) very high
/// reference frequency. Keeps the objective and gradient finite; the true
/// optimum is always far from this floor because energy diverges as
/// `X_i → 0`.
pub(crate) const X_FLOOR: f64 = 1e-9;

/// The convex program instance: layout plus oracle.
#[derive(Debug, Clone)]
pub struct EnergyProgram {
    /// Number of cores `m`.
    pub cores: usize,
    /// Power model (continuous). Private: `works_pow` is derived from it.
    power: PolynomialPower,
    /// `C_i` per task.
    works: Vec<f64>,
    /// `C_i^α` per task, cached for the objective and gradient.
    works_pow: Vec<f64>,
    /// `Δ_j` per subinterval.
    deltas: Vec<f64>,
    /// Per-task contiguous range of subinterval indices (from the
    /// timeline).
    spans: Vec<(usize, usize)>,
    /// Flat-variable offset of each task's block; task `i`'s variables are
    /// `flat[offsets[i] .. offsets[i] + span_len(i)]`, ordered by
    /// subinterval.
    offsets: Vec<usize>,
    /// Total variable count.
    dim: usize,
    /// For each subinterval `j`: the flat indices of the variables that
    /// participate in its capacity constraint.
    block_vars: Vec<Vec<usize>>,
}

impl EnergyProgram {
    /// Build the program for `tasks` on `cores` cores under `power`, using
    /// `timeline` for the variable layout.
    pub fn new(tasks: &TaskSet, timeline: &Timeline, cores: usize, power: PolynomialPower) -> Self {
        assert!(cores > 0);
        let works: Vec<f64> = tasks.tasks().iter().map(|t| t.wcec).collect();
        let works_pow = works.iter().map(|c| c.powf(power.alpha)).collect();
        let deltas: Vec<f64> = (0..timeline.len()).map(|j| timeline.delta(j)).collect();
        let mut spans = Vec::with_capacity(tasks.len());
        let mut offsets = Vec::with_capacity(tasks.len());
        let mut dim = 0usize;
        for i in 0..tasks.len() {
            let r = timeline.span(i);
            spans.push((r.start, r.end));
            offsets.push(dim);
            dim += r.len();
        }
        let mut block_vars = vec![Vec::new(); timeline.len()];
        for i in 0..tasks.len() {
            let (a, b) = spans[i];
            for j in a..b {
                block_vars[j].push(offsets[i] + (j - a));
            }
        }
        Self {
            cores,
            power,
            works,
            works_pow,
            deltas,
            spans,
            offsets,
            dim,
            block_vars,
        }
    }

    /// Number of flat variables.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.works.len()
    }

    /// Number of subintervals.
    pub fn subinterval_count(&self) -> usize {
        self.deltas.len()
    }

    /// Capacity `m·Δ_j` of subinterval `j`'s coupling constraint.
    pub fn capacity(&self, sub: usize) -> f64 {
        self.cores as f64 * self.deltas[sub]
    }

    /// Subinterval length `Δ_j`.
    pub fn delta_of_sub(&self, sub: usize) -> f64 {
        self.deltas[sub]
    }

    /// The power parameters `(γ, α, p₀)` the objective was built with.
    pub fn power_parameters(&self) -> (f64, f64, f64) {
        (self.power.gamma, self.power.alpha, self.power.p0)
    }

    /// Execution requirement `C_i` of task `i`.
    pub fn work_of_task(&self, task: usize) -> f64 {
        self.works[task]
    }

    /// The contiguous subinterval range `[a, b)` task `i`'s window covers.
    pub fn span_of_task(&self, task: usize) -> (usize, usize) {
        self.spans[task]
    }

    /// Flat-variable offset of task `i`'s block; its variables are
    /// `flat[offset .. offset + (b − a)]` for `(a, b) =`
    /// [`EnergyProgram::span_of_task`], ordered by subinterval. The
    /// decomposed ADMM solver leans on this contiguity to give each team
    /// member one contiguous range of the flat vector.
    pub fn offset_of_task(&self, task: usize) -> usize {
        self.offsets[task]
    }

    /// Flat indices of the variables participating in subinterval `j`'s
    /// capacity constraint (ascending).
    pub fn vars_of_sub(&self, sub: usize) -> &[usize] {
        &self.block_vars[sub]
    }

    /// Flat index of `x_{i,j}`, if task `i` is available in subinterval
    /// `j`.
    pub fn flat_index(&self, task: usize, sub: usize) -> Option<usize> {
        let (a, b) = self.spans[task];
        (a..b)
            .contains(&sub)
            .then(|| self.offsets[task] + (sub - a))
    }

    /// Total execution time `X_i` of task `i` under `x`.
    pub fn total_time(&self, x: &[f64], task: usize) -> f64 {
        let (a, b) = self.spans[task];
        let o = self.offsets[task];
        x[o..o + (b - a)].iter().sum()
    }

    /// Per-task total times as a vector.
    pub fn total_times(&self, x: &[f64]) -> Vec<f64> {
        (0..self.works.len())
            .map(|i| self.total_time(x, i))
            .collect()
    }

    /// Objective value `E(x)`. Infinite when some `X_i` is ~0.
    pub fn objective(&self, x: &[f64]) -> f64 {
        let a = self.power.alpha;
        let mut e = 0.0;
        for (i, &ca) in self.works_pow.iter().enumerate() {
            let xi = self.total_time(x, i).max(X_FLOOR);
            e += self.power.gamma * ca / xi.powf(a - 1.0) + self.power.p0 * xi;
        }
        e
    }

    /// Gradient of the objective into `g`. The partial w.r.t. every
    /// variable of task `i` is the same:
    /// `∂E/∂x_{i,j} = −γ(α−1)·C_i^α / X_i^α + p₀`.
    pub fn gradient(&self, x: &[f64], g: &mut [f64]) {
        assert_eq!(g.len(), self.dim);
        let a = self.power.alpha;
        for (i, &ca) in self.works_pow.iter().enumerate() {
            let (s0, s1) = self.spans[i];
            let o = self.offsets[i];
            let xi = self.total_time(x, i).max(X_FLOOR);
            let gi = -self.power.gamma * (a - 1.0) * ca / xi.powf(a) + self.power.p0;
            for k in 0..(s1 - s0) {
                g[o + k] = gi;
            }
        }
    }

    /// Project `z` onto the feasible polytope, blockwise per subinterval.
    pub fn project(&self, z: &[f64], out: &mut [f64]) {
        assert_eq!(z.len(), self.dim);
        assert_eq!(out.len(), self.dim);
        // Caps are uniform per block (`Δ_j`), so the box clamp and its sum
        // go straight into `out`; only a block whose budget binds is staged
        // for the multiplier search. Both buffers stay unallocated while
        // no budget binds.
        let mut zb: Vec<f64> = Vec::new();
        let mut ob: Vec<f64> = Vec::new();
        for (j, vars) in self.block_vars.iter().enumerate() {
            let delta = self.deltas[j];
            let cap = self.cores as f64 * delta;
            let mut sum = 0.0;
            for &k in vars {
                let y = z[k].max(0.0).min(delta);
                out[k] = y;
                sum += y;
            }
            if sum <= cap {
                continue;
            }
            zb.clear();
            zb.extend(vars.iter().map(|&k| z[k]));
            ob.resize(vars.len(), 0.0);
            project_onto_budget(&zb, |_| delta, cap, &mut ob);
            for (&k, &y) in vars.iter().zip(&ob) {
                out[k] = y;
            }
        }
    }

    /// Linear-minimization oracle over the feasible polytope (blockwise).
    ///
    /// Per subinterval, fill the most negative gradients first, each up to
    /// `Δ_j`, until the budget `m·Δ_j` is spent; everything else is 0.
    /// Only negative gradients are sorted, keyed by their inverted bit
    /// pattern (a negative float's bits grow with its magnitude) and then by
    /// flat index, which ascends with the position in the block: the order
    /// of a stable ascending sort of the whole block, without its ±0 and
    /// positive entries, which are never filled.
    ///
    /// # Panics
    /// On a NaN gradient.
    pub fn lmo(&self, g: &[f64], out: &mut [f64]) {
        assert_eq!(g.len(), self.dim);
        assert_eq!(out.len(), self.dim);
        let mut fill: Vec<(u64, usize)> = Vec::new();
        for (j, vars) in self.block_vars.iter().enumerate() {
            fill.clear();
            for &k in vars {
                out[k] = 0.0;
                let gk = g[k];
                assert!(!gk.is_nan(), "finite gradient");
                if gk < 0.0 {
                    fill.push((!gk.to_bits(), k));
                }
            }
            fill.sort_unstable();
            let delta = self.deltas[j];
            let mut budget = self.cores as f64 * delta;
            for &(_, k) in &fill {
                if budget <= 0.0 {
                    break;
                }
                let take = delta.min(budget);
                out[k] = take;
                budget -= take;
            }
        }
    }

    /// Certified duality gap at feasible `x`:
    /// `gap(x) = ⟨∇E(x), x − s⟩` with `s` the LMO minimizer. For convex `E`,
    /// `E(x) − E* ≤ gap(x)`.
    pub fn duality_gap(&self, x: &[f64]) -> f64 {
        let mut g = vec![0.0; self.dim];
        let mut s = vec![0.0; self.dim];
        self.gradient(x, &mut g);
        self.lmo(&g, &mut s);
        g.iter()
            .zip(x.iter().zip(&s))
            .map(|(&gk, (&xk, &sk))| gk * (xk - sk))
            .sum()
    }

    /// A feasible, interior-ish starting point: in every subinterval give
    /// each overlapping task `min(Δ_j, m·Δ_j/n_j)` — the evenly allocating
    /// rule, which is feasible by construction and keeps every `X_i`
    /// comfortably positive.
    pub fn initial_point(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.dim];
        for (j, vars) in self.block_vars.iter().enumerate() {
            if vars.is_empty() {
                continue;
            }
            let share =
                (self.cores as f64 * self.deltas[j] / vars.len() as f64).min(self.deltas[j]);
            for &k in vars {
                x[k] = share;
            }
        }
        x
    }

    /// Build a feasible warm-start point whose per-task totals track a
    /// previous optimum's `X_i` — the remap used when the task set
    /// mutated between solves (online arrivals, completions, window
    /// shifts change both `dim` and the subinterval layout, so the raw
    /// `x` vector cannot carry over). The objective depends on `x` only
    /// through the totals `X_i`, so any point reproducing the old totals
    /// re-enters the new program at (nearly) the old objective value.
    ///
    /// `totals[i]` is the target total of task `i`; tasks beyond
    /// `totals.len()` (arrivals) keep the evenly-allocating share, and
    /// non-finite or non-positive targets are ignored. Each target is
    /// spread uniformly over the task's span, clamped to the box, and
    /// the result is projected onto the block constraints.
    pub fn warm_start_from_totals(&self, totals: &[f64]) -> Vec<f64> {
        let mut x = self.initial_point();
        for i in 0..self.task_count() {
            let Some(&target) = totals.get(i) else {
                continue;
            };
            if !target.is_finite() || target <= 0.0 {
                continue;
            }
            let (a, b) = self.spans[i];
            if a == b {
                continue;
            }
            let per = target / (b - a) as f64;
            let o = self.offsets[i];
            for (k, j) in (a..b).enumerate() {
                x[o + k] = per.min(self.deltas[j]);
            }
        }
        let mut out = vec![0.0; self.dim];
        self.project(&x, &mut out);
        out
    }

    /// Is `x` feasible (within `tol`)?
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        for (j, vars) in self.block_vars.iter().enumerate() {
            let delta = self.deltas[j];
            let mut sum = 0.0;
            for &k in vars {
                if x[k] < -tol || x[k] > delta + tol {
                    return false;
                }
                sum += x[k];
            }
            if sum > self.cores as f64 * delta + tol {
                return false;
            }
        }
        true
    }

    /// Per-task execution times by subinterval: `result[i][j_local]`
    /// aligned with the task's span. Used to materialize a schedule from a
    /// solution.
    pub fn per_task_allocation(&self, x: &[f64]) -> Vec<Vec<(usize, f64)>> {
        (0..self.works.len())
            .map(|i| {
                let (a, b) = self.spans[i];
                let o = self.offsets[i];
                (a..b).map(|j| (j, x[o + (j - a)])).collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projection::{lmo_capped_simplex, project_capped_simplex};
    use esched_obs::rng::ChaCha8;
    use esched_subinterval::Timeline;
    use esched_types::TaskSet;

    fn intro_program(cores: usize, alpha: f64, p0: f64) -> (EnergyProgram, TaskSet) {
        let ts = TaskSet::from_triples(&[(0.0, 12.0, 4.0), (2.0, 10.0, 2.0), (4.0, 8.0, 4.0)]);
        let tl = Timeline::build(&ts);
        let p = PolynomialPower::paper(alpha, p0);
        (EnergyProgram::new(&ts, &tl, cores, p), ts)
    }

    #[test]
    fn layout_counts() {
        let (ep, _) = intro_program(2, 3.0, 0.01);
        // Spans: τ0 covers all 5 subintervals, τ1 covers 3, τ2 covers 1.
        assert_eq!(ep.dim(), 9);
        assert_eq!(ep.task_count(), 3);
        assert_eq!(ep.subinterval_count(), 5);
        assert_eq!(ep.flat_index(0, 0), Some(0));
        assert_eq!(ep.flat_index(0, 4), Some(4));
        assert_eq!(ep.flat_index(1, 0), None);
        assert_eq!(ep.flat_index(1, 1), Some(5));
        assert_eq!(ep.flat_index(2, 2), Some(8));
    }

    #[test]
    fn initial_point_is_feasible() {
        let (ep, _) = intro_program(2, 3.0, 0.01);
        let x0 = ep.initial_point();
        assert!(ep.is_feasible(&x0, 1e-9));
        // Every task gets positive time.
        for i in 0..3 {
            assert!(ep.total_time(&x0, i) > 0.0);
        }
    }

    #[test]
    fn objective_matches_hand_computation() {
        let (ep, _) = intro_program(2, 3.0, 0.01);
        // Put τ0's full window to use: X0 = 32/3, X1 = 16/3, X2 = 4 (the
        // paper's optimal solution). E = Σ C³/X² + 0.01·ΣX.
        let mut x = vec![0.0; ep.dim()];
        // τ0 occupies [0,2],[2,4] fully, 8/3 of [4,8], [8,10],[10,12] fully.
        x[ep.flat_index(0, 0).unwrap()] = 2.0;
        x[ep.flat_index(0, 1).unwrap()] = 2.0;
        x[ep.flat_index(0, 2).unwrap()] = 8.0 / 3.0;
        x[ep.flat_index(0, 3).unwrap()] = 2.0;
        x[ep.flat_index(0, 4).unwrap()] = 2.0;
        // τ1: [2,4] full, 4/3 of [4,8], [8,10] full.
        x[ep.flat_index(1, 1).unwrap()] = 2.0;
        x[ep.flat_index(1, 2).unwrap()] = 4.0 / 3.0;
        x[ep.flat_index(1, 3).unwrap()] = 2.0;
        // τ2: 4 of [4,8].
        x[ep.flat_index(2, 2).unwrap()] = 4.0;
        assert!(ep.is_feasible(&x, 1e-9));
        let expect = 64.0 / (32.0_f64 / 3.0).powi(2)
            + 8.0 / (16.0_f64 / 3.0).powi(2)
            + 64.0 / 16.0
            + 0.01 * (32.0 / 3.0 + 16.0 / 3.0 + 4.0);
        assert!((ep.objective(&x) - expect).abs() < 1e-10);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (ep, _) = intro_program(2, 3.0, 0.05);
        let x = ep.initial_point();
        let mut g = vec![0.0; ep.dim()];
        ep.gradient(&x, &mut g);
        let h = 1e-6;
        for k in 0..ep.dim() {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp[k] += h;
            xm[k] -= h;
            let fd = (ep.objective(&xp) - ep.objective(&xm)) / (2.0 * h);
            assert!(
                (g[k] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                "k={k}: {g:?} vs fd {fd}",
                g = g[k]
            );
        }
    }

    #[test]
    fn projection_produces_feasible_points() {
        let (ep, _) = intro_program(2, 3.0, 0.01);
        let z: Vec<f64> = (0..ep.dim()).map(|k| 3.0 - k as f64 * 0.7).collect();
        let mut out = vec![0.0; ep.dim()];
        ep.project(&z, &mut out);
        assert!(ep.is_feasible(&out, 1e-9));
    }

    #[test]
    fn lmo_produces_feasible_vertices() {
        let (ep, _) = intro_program(2, 3.0, 0.01);
        let x = ep.initial_point();
        let mut g = vec![0.0; ep.dim()];
        ep.gradient(&x, &mut g);
        let mut s = vec![0.0; ep.dim()];
        ep.lmo(&g, &mut s);
        assert!(ep.is_feasible(&s, 1e-9));
    }

    #[test]
    fn duality_gap_nonnegative_and_zero_at_optimum_direction() {
        let (ep, _) = intro_program(2, 3.0, 0.01);
        let x = ep.initial_point();
        assert!(ep.duality_gap(&x) >= -1e-9);
    }

    #[test]
    fn total_times_sum_matches_blocks() {
        let (ep, _) = intro_program(2, 3.0, 0.0);
        let x = ep.initial_point();
        let tt = ep.total_times(&x);
        for (i, &t) in tt.iter().enumerate() {
            assert!((t - ep.total_time(&x, i)).abs() < 1e-12);
        }
    }

    /// A random program: up to 12 tasks on one to four cores, with
    /// release times on a coarse grid so windows share boundaries, and a
    /// random `γ` so no factor of the objective is an exact 1.
    fn random_program(rng: &mut ChaCha8) -> EnergyProgram {
        let n = rng.gen_range_usize(1, 13);
        let triples: Vec<(f64, f64, f64)> = (0..n)
            .map(|_| {
                let r = rng.gen_range_usize(0, 8) as f64 * 1.5;
                let len = rng.gen_range_f64(0.5, 12.0);
                (r, r + len, len * rng.gen_range_f64(0.0, 1.5))
            })
            .collect();
        let ts = TaskSet::from_triples(&triples);
        let tl = Timeline::build(&ts);
        let alpha = [2.0, 2.5, 3.0][rng.gen_range_usize(0, 3)];
        let gamma = rng.gen_range_f64(0.1, 3.0);
        let power = PolynomialPower::new(gamma, alpha, rng.gen_range_f64(0.0, 0.3)).unwrap();
        EnergyProgram::new(&ts, &tl, rng.gen_range_usize(1, 5), power)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|y| y.to_bits()).collect()
    }

    /// Reference LMO: every block staged and handed to the slice-based
    /// greedy fill.
    fn lmo_reference(ep: &EnergyProgram, g: &[f64], out: &mut [f64]) {
        for (j, vars) in ep.block_vars.iter().enumerate() {
            let delta = ep.deltas[j];
            let gb: Vec<f64> = vars.iter().map(|&k| g[k]).collect();
            let mut ob = vec![0.0; vars.len()];
            lmo_capped_simplex(&gb, &vec![delta; vars.len()], ep.capacity(j), &mut ob);
            for (&k, &v) in vars.iter().zip(&ob) {
                out[k] = v;
            }
        }
    }

    /// Reference projection: every block staged with a slice of caps.
    fn project_reference(ep: &EnergyProgram, z: &[f64], out: &mut [f64]) {
        for (j, vars) in ep.block_vars.iter().enumerate() {
            let delta = ep.deltas[j];
            let zb: Vec<f64> = vars.iter().map(|&k| z[k]).collect();
            let mut ob = vec![0.0; vars.len()];
            project_capped_simplex(&zb, &vec![delta; vars.len()], ep.capacity(j), &mut ob);
            for (&k, &v) in vars.iter().zip(&ob) {
                out[k] = v;
            }
        }
    }

    #[test]
    fn lmo_and_projection_match_the_staged_oracles_bit_for_bit() {
        let mut rng = ChaCha8::seed_from_u64(0x1a0_0b17);
        let mut blocks = 0usize;
        for _ in 0..300 {
            let ep = random_program(&mut rng);
            let dim = ep.dim();
            for round in 0..40 {
                // Gradients from a small pool so ties are common, with
                // ±0, tiny, huge and infinite negatives among them.
                let pool = [
                    -1.0,
                    -0.5,
                    -0.5,
                    -0.0,
                    0.0,
                    0.25,
                    -f64::MIN_POSITIVE,
                    -5e-324,
                    -f64::MAX,
                    f64::NEG_INFINITY,
                    f64::INFINITY,
                ];
                let g: Vec<f64> = (0..dim)
                    .map(|_| match round % 3 {
                        0 => pool[rng.gen_range_usize(0, pool.len())],
                        1 => rng.gen_range_f64(-2.0, 2.0),
                        _ => -(rng.gen_range_usize(1, 4) as f64),
                    })
                    .collect();
                let (mut got, mut want) = (vec![f64::NAN; dim], vec![f64::NAN; dim]);
                ep.lmo(&g, &mut got);
                lmo_reference(&ep, &g, &mut want);
                assert_eq!(bits(&got), bits(&want), "lmo, g = {g:?}");

                let z: Vec<f64> = (0..dim).map(|_| rng.gen_range_f64(-2.0, 8.0)).collect();
                ep.project(&z, &mut got);
                project_reference(&ep, &z, &mut want);
                assert_eq!(bits(&got), bits(&want), "project, z = {z:?}");
                blocks += ep.subinterval_count();
            }
        }
        assert!(blocks >= 10_000, "only {blocks} blocks");
    }

    #[test]
    #[should_panic(expected = "finite gradient")]
    fn lmo_rejects_a_nan_gradient() {
        let (ep, _) = intro_program(2, 3.0, 0.01);
        let mut g = vec![-1.0; ep.dim()];
        g[3] = f64::NAN;
        ep.lmo(&g, &mut vec![0.0; ep.dim()]);
    }

    #[test]
    fn cached_work_powers_match_the_uncached_formulas_bit_for_bit() {
        let mut rng = ChaCha8::seed_from_u64(0xca_c4ed);
        for _ in 0..300 {
            let ep = random_program(&mut rng);
            let (gamma, a, p0) = ep.power_parameters();
            let x: Vec<f64> = (0..ep.dim()).map(|_| rng.gen_range_f64(0.0, 2.0)).collect();
            let mut e = 0.0;
            let mut want = vec![0.0; ep.dim()];
            for (i, &c) in ep.works.iter().enumerate() {
                let xi = ep.total_time(&x, i).max(X_FLOOR);
                e += gamma * c.powf(a) / xi.powf(a - 1.0) + p0 * xi;
                let gi = -gamma * (a - 1.0) * c.powf(a) / xi.powf(a) + p0;
                let (s0, s1) = ep.spans[i];
                want[ep.offsets[i]..ep.offsets[i] + (s1 - s0)].fill(gi);
            }
            assert_eq!(ep.objective(&x).to_bits(), e.to_bits());
            let mut got = vec![f64::NAN; ep.dim()];
            ep.gradient(&x, &mut got);
            assert_eq!(bits(&got), bits(&want));
        }
    }
}
