//! Projection onto the *capped simplex*
//! `{ y : 0 ≤ y_k ≤ u_k, Σ_k y_k ≤ c }`, in the metric `Σ_k ρ_k (y_k − w_k)²`.
//!
//! The feasible region of the paper's reformulated energy program is a
//! Cartesian product of capped simplices — one per subinterval, because
//! each variable `x_{i,j}` appears in exactly one coupling constraint
//! `Σ_i x_{i,j} ≤ m·Δ_j`. Projection therefore decomposes blockwise, and
//! this module provides the one single-block kernel, `project_block`.
//! Every projection in the crate runs it: [`crate::EnergyProgram::project`]
//! (unit weights, cap `Δ_j`; so PGD, the KKT report and every
//! warm-start repair), [`project_capped_simplex`] (unit weights, a cap per
//! coordinate) and ADMM's z-step (its penalties `ρ_k`, cap `Δ_j`).
//!
//! The projection is exact, by the KKT conditions:
//! `y_k(θ) = clamp(w_k − θ/ρ_k, 0, u_k)`, where the budget multiplier
//! `θ ≥ 0` is zero if the clamped point already fits, and otherwise
//! solves `Σ_k y_k(θ) = c`. That sum is piecewise linear and
//! non-increasing in `θ`, so one sorted sweep over its breakpoints finds
//! the crossing segment, and `θ` is its linear root — no iteration, no
//! tolerance.

/// The projection of one block of `n` coordinates onto
/// `{0 ≤ y ≤ cap, Σ y ≤ budget}` in the metric `Σ_k ρ_k (y_k − w_k)²`:
/// coordinate `i` has value `w(i)`, weight `rho(i) > 0` and cap
/// `cap(i) ≥ 0`, and its projection is handed to `put(i, y)`.
///
/// Every coordinate is first `put` at its box clamp; when their sum
/// exceeds `budget`, each is `put` again at `clamp(w − θ/ρ, 0, cap)`.
/// `S(θ) = Σ_k clamp(w_k − θ/ρ_k, 0, cap_k)` has its breakpoints at
/// `ρ_k(w_k − cap_k)`, where a share un-caps, and at `ρ_k·w_k`, where it
/// hits zero; its slope is `−Σ 1/ρ_k` over the shares strictly between
/// their bounds. The sweep visits the breakpoints in sorted order and
/// solves the linear segment that crosses the budget. Exactness matters
/// for ADMM: with weights spanning ten orders of magnitude, a bisected `θ`
/// accurate to 1e-13 relative would still leave `O(θ_err/ρ_k)` error on
/// the smallest weights. With unit weights (`rho = |_| 1.0`) the
/// arithmetic is that of `ρ ≡ 1`: `θ/1.0 = θ`, `1.0·w = w`, and the
/// slopes are sums of ±1.
///
/// The sweep order is fixed: every breakpoint is `> 0` (or `+∞`), so it
/// is sorted by its bit pattern, then by position, then by slope change
/// (`total_cmp`; only an un-cap and a zero event of the same coordinate
/// can tie on the first two, and the un-cap, whose change is negative,
/// goes first). No two distinct events compare equal, so the unstable
/// sort is deterministic. `events` is the caller's reusable buffer.
///
/// Rounding is not polished away: with unit weights, `Σ_k y_k` exceeds
/// `budget` by at most about `2(n + 1)·ε·(max_k w_k + Σ_k clamp(w_k) +
/// budget)` — relative to the values swept, not to the budget, so a
/// zero budget can come out a few ulps of `max_k w_k` above zero.
///
/// # Panics
/// On a NaN value ("finite breakpoints"), and, through `f64::clamp`, on
/// a negative or NaN cap.
pub(crate) fn project_block(
    n: usize,
    w: impl Fn(usize) -> f64,
    rho: impl Fn(usize) -> f64,
    cap: impl Fn(usize) -> f64,
    budget: f64,
    events: &mut Vec<(u64, usize, f64)>,
    mut put: impl FnMut(usize, f64),
) {
    let mut s0 = 0.0_f64;
    for i in 0..n {
        let y = w(i).clamp(0.0, cap(i));
        put(i, y);
        s0 += y;
    }
    if s0 <= budget {
        return;
    }
    events.clear();
    let mut slope = 0.0_f64;
    for i in 0..n {
        let (wi, r) = (w(i), rho(i));
        let t_uncap = r * (wi - cap(i));
        let t_zero = r * wi;
        if t_zero <= 0.0 {
            continue; // w_k ≤ 0: zero for every θ ≥ 0.
        }
        assert!(!t_zero.is_nan(), "finite breakpoints");
        let inv = 1.0 / r;
        if t_uncap > 0.0 {
            // Capped at θ = 0; becomes active at t_uncap.
            events.push((t_uncap.to_bits(), i, -inv));
        } else {
            // Active at θ = 0.
            slope -= inv;
        }
        events.push((t_zero.to_bits(), i, inv));
    }
    events.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.total_cmp(&b.2)));
    let mut theta = 0.0_f64;
    let mut s = s0;
    let mut found = None;
    for &(t, _, ds) in events.iter() {
        let t = f64::from_bits(t);
        let s_next = s + slope * (t - theta);
        if s_next <= budget && slope < 0.0 {
            found = Some(theta + (budget - s) / slope);
            break;
        }
        s = s_next;
        theta = t;
        slope += ds;
    }
    let theta = match found {
        Some(t) => t,
        // S(θ) reaches 0 at the last breakpoint, and budget ≥ 0, so
        // a crossing segment always exists unless budget is exactly 0.
        None => events.last().map_or(0.0, |e| f64::from_bits(e.0)),
    };
    for i in 0..n {
        put(i, (w(i) - theta / rho(i)).clamp(0.0, cap(i)));
    }
}

/// Project `z` onto `{0 ≤ y ≤ u, Σy ≤ cap}`, writing the result into `out`.
///
/// # Panics
/// If slice lengths disagree, any `u_k < 0`, `cap < 0`, or any `z_k` is
/// NaN.
pub fn project_capped_simplex(z: &[f64], u: &[f64], cap: f64, out: &mut [f64]) {
    assert_eq!(z.len(), u.len());
    assert_eq!(z.len(), out.len());
    assert!(cap >= 0.0, "negative capacity {cap}");
    debug_assert!(u.iter().all(|&x| x >= 0.0));
    project_block(
        z.len(),
        |i| z[i],
        |_| 1.0,
        |i| u[i],
        cap,
        &mut Vec::new(),
        |i, y| out[i] = y,
    );
}

/// Linear-minimization oracle over the same capped simplex:
/// `argmin_{0 ≤ s ≤ u, Σs ≤ cap} ⟨g, s⟩`.
///
/// Greedy: sort coordinates by gradient ascending and fill `s_k = u_k`
/// while the gradient is negative and budget remains. (Positive-gradient
/// coordinates stay at 0 since the budget constraint is `≤`.) The oracle
/// that [`crate::EnergyProgram::lmo`], which sorts only the negative
/// gradients, is tested against bit for bit.
#[cfg(test)]
pub(crate) fn lmo_capped_simplex(g: &[f64], u: &[f64], cap: f64, out: &mut [f64]) {
    assert_eq!(g.len(), u.len());
    assert_eq!(g.len(), out.len());
    out.fill(0.0);
    let mut order: Vec<usize> = (0..g.len()).collect();
    order.sort_by(|&a, &b| g[a].partial_cmp(&g[b]).expect("finite gradient"));
    let mut budget = cap;
    for k in order {
        if g[k] >= 0.0 || budget <= 0.0 {
            break;
        }
        let take = u[k].min(budget);
        out[k] = take;
        budget -= take;
    }
}

/// The dual-bisection projection that [`project_block`] replaced, kept as
/// the oracle of the differential tests: clamp to the box; when the
/// budget binds, bisect `λ` to a bracket narrower than `1e-14·(1 + λ)`,
/// then shrink the strictly interior coordinates by the residue so the
/// budget holds ("exact-budget polish").
#[cfg(test)]
pub(crate) fn project_bisection(z: &[f64], u: &[f64], cap: f64, out: &mut [f64]) {
    for ((o, &zi), &ui) in out.iter_mut().zip(z).zip(u) {
        *o = zi.max(0.0).min(ui);
    }
    if out.iter().sum::<f64>() <= cap {
        return;
    }
    let lam_hi = z.iter().cloned().fold(0.0_f64, f64::max).max(1e-30);
    let residual = |lam: f64| -> f64 {
        z.iter()
            .zip(u)
            .map(|(&zi, &ui)| (zi - lam).max(0.0).min(ui))
            .sum::<f64>()
            - cap
    };
    let lam = crate::scalar::bisect(residual, 0.0, lam_hi, BISECTION_TOL);
    for ((o, &zi), &ui) in out.iter_mut().zip(z).zip(u) {
        *o = (zi - lam).max(0.0).min(ui);
    }
    let s: f64 = out.iter().sum();
    if s > cap {
        let excess = s - cap;
        let interior: f64 = out
            .iter()
            .zip(u)
            .filter(|&(&y, &ui)| y > 0.0 && y < ui)
            .map(|(&y, _)| y)
            .sum();
        if interior > 0.0 {
            let scale = excess / interior;
            for (y, &ui) in out.iter_mut().zip(u) {
                if *y > 0.0 && *y < ui {
                    *y -= *y * scale;
                }
            }
        }
    }
}

/// [`project_bisection`]'s relative bracket width on `λ`.
#[cfg(test)]
const BISECTION_TOL: f64 = 1e-14;

#[cfg(test)]
mod tests {
    use super::*;
    use esched_obs::rng::ChaCha8;

    fn assert_feasible(y: &[f64], u: &[f64], cap: f64) {
        for (&yi, &ui) in y.iter().zip(u) {
            assert!(
                yi >= -1e-12 && yi <= ui + 1e-12,
                "box violated: {yi} vs {ui}"
            );
        }
        assert!(
            y.iter().sum::<f64>() <= cap + 1e-9,
            "budget violated: {} > {cap}",
            y.iter().sum::<f64>()
        );
    }

    #[test]
    fn projection_is_identity_on_feasible_points() {
        let z = [0.5, 0.25];
        let u = [1.0, 1.0];
        let mut out = [0.0; 2];
        project_capped_simplex(&z, &u, 1.0, &mut out);
        assert_eq!(out, z);
    }

    #[test]
    fn projection_clamps_box_when_budget_slack() {
        let z = [2.0, -1.0];
        let u = [1.0, 1.0];
        let mut out = [0.0; 2];
        project_capped_simplex(&z, &u, 5.0, &mut out);
        assert_eq!(out, [1.0, 0.0]);
    }

    #[test]
    fn projection_onto_plain_simplex() {
        // u large → reduces to the classic simplex projection.
        // Projecting (1,1) onto Σ ≤ 1 gives (0.5, 0.5).
        let z = [1.0, 1.0];
        let u = [10.0, 10.0];
        let mut out = [0.0; 2];
        project_capped_simplex(&z, &u, 1.0, &mut out);
        assert!((out[0] - 0.5).abs() < 1e-9);
        assert!((out[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn projection_respects_caps_under_budget_pressure() {
        // z = (3, 3, 0.1), u = (1, 2, 1), cap = 2.5.
        // λ solves min(3−λ,1)+min(3−λ,2)+clamp(0.1−λ) = 2.5.
        let z = [3.0, 3.0, 0.1];
        let u = [1.0, 2.0, 1.0];
        let mut out = [0.0; 3];
        project_capped_simplex(&z, &u, 2.5, &mut out);
        assert_feasible(&out, &u, 2.5);
        assert!((out.iter().sum::<f64>() - 2.5).abs() < 1e-9);
        // Coordinate 0 hits its cap; coordinate 2 drops to 0 (z too small).
        assert!((out[0] - 1.0).abs() < 1e-9);
        assert!(out[2].abs() < 1e-9);
        assert!((out[1] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn projection_variational_inequality_holds() {
        // ⟨z − P(z), y − P(z)⟩ ≤ 0 for all feasible y: test against a grid
        // of feasible points.
        let z = [1.3, -0.2, 0.9, 2.4];
        let u = [1.0, 0.5, 1.0, 1.5];
        let cap = 2.0;
        let mut p = [0.0; 4];
        project_capped_simplex(&z, &u, cap, &mut p);
        assert_feasible(&p, &u, cap);
        // Random-ish feasible test points.
        let candidates = [
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 0.5, 0.5, 0.0],
            [0.5, 0.5, 1.0, 0.0],
            [0.0, 0.0, 0.5, 1.5],
            [1.0, 0.0, 0.0, 1.0],
        ];
        for y in candidates {
            assert_feasible(&y, &u, cap);
            let ip: f64 = (0..4).map(|k| (z[k] - p[k]) * (y[k] - p[k])).sum();
            assert!(ip <= 1e-7, "variational inequality violated: {ip}");
        }
    }

    #[test]
    fn projection_zero_cap_gives_zero() {
        let z = [1.0, 2.0];
        let u = [1.0, 1.0];
        let mut out = [9.0; 2];
        project_capped_simplex(&z, &u, 0.0, &mut out);
        assert!(out.iter().all(|&y| y.abs() < 1e-9));
    }

    #[test]
    fn projection_empty_input() {
        let mut out: [f64; 0] = [];
        project_capped_simplex(&[], &[], 1.0, &mut out);
    }

    #[test]
    fn lmo_fills_most_negative_first() {
        let g = [-3.0, 1.0, -1.0];
        let u = [1.0, 5.0, 5.0];
        let mut s = [0.0; 3];
        lmo_capped_simplex(&g, &u, 4.0, &mut s);
        // g0 = −3 filled to cap 1, then g2 = −1 takes remaining 3 of its 5;
        // g1 > 0 stays 0.
        assert_eq!(s, [1.0, 0.0, 3.0]);
    }

    #[test]
    fn lmo_leaves_budget_unused_when_gradients_positive() {
        let g = [2.0, 0.5];
        let u = [1.0, 1.0];
        let mut s = [9.0; 2];
        lmo_capped_simplex(&g, &u, 2.0, &mut s);
        assert_eq!(s, [0.0, 0.0]);
    }

    #[test]
    fn lmo_minimizes_inner_product() {
        // Compare against brute-force over vertices of a small instance.
        let g = [-1.0, -2.0, 0.5];
        let u = [1.0, 1.0, 1.0];
        let cap = 1.5;
        let mut s = [0.0; 3];
        lmo_capped_simplex(&g, &u, cap, &mut s);
        let val: f64 = g.iter().zip(&s).map(|(a, b)| a * b).sum();
        // Enumerate a fine grid of feasible points and check none is better.
        let steps = 7;
        for a in 0..=steps {
            for b in 0..=steps {
                for c in 0..=steps {
                    let y = [
                        a as f64 / steps as f64,
                        b as f64 / steps as f64,
                        c as f64 / steps as f64,
                    ];
                    if y.iter().sum::<f64>() <= cap {
                        let v: f64 = g.iter().zip(&y).map(|(p, q)| p * q).sum();
                        assert!(val <= v + 1e-12);
                    }
                }
            }
        }
    }

    /// A random block `(w, u, budget)` for the differential tests. The
    /// magnitude runs from 1e-12 to 1e6, caps are uniform (as in
    /// [`crate::EnergyProgram::project`]) or one per coordinate, and `case`
    /// cycles through the shapes that stress the sweep: a zero budget,
    /// every coordinate capped, zero caps, a cap below an ulp of its value,
    /// non-positive values, and tied values and breakpoints.
    fn random_block(case: usize, rng: &mut ChaCha8) -> (Vec<f64>, Vec<f64>, f64) {
        let n = rng.gen_range_usize(1, 41);
        let scale = 10f64.powf(rng.gen_range_f64(-12.0, 6.0));
        let uniform = !case.is_multiple_of(3);
        let delta = scale * rng.gen_range_f64(0.01, 10.0);
        let mut u: Vec<f64> = (0..n)
            .map(|_| match () {
                _ if uniform => delta,
                _ if case % 5 == 1 && rng.gen_bool(0.3) => 0.0,
                _ => scale * rng.gen_range_f64(0.0, 10.0),
            })
            .collect();
        let all_capped = case.is_multiple_of(11);
        let tie_heavy = case % 13 == 5;
        let mut w = vec![0.0; n];
        for k in 0..n {
            let kind = if tie_heavy && rng.gen_bool(0.7) {
                3
            } else {
                rng.gen_range_usize(0, 9)
            };
            w[k] = match (all_capped, kind) {
                (true, _) | (false, 0) => u[k] * rng.gen_range_f64(1.0, 4.0),
                (false, 1) => -scale * rng.gen_f64(),
                (false, 2) => [0.0, -0.0, u[k]][rng.gen_range_usize(0, 3)],
                // u_k below an ulp of w_k: its two breakpoints coincide.
                (false, 3) => u[k] * 2f64.powi(rng.gen_range_usize(54, 62) as i32) + scale,
                _ => scale * rng.gen_range_f64(0.0, 10.0),
            };
            // Exact ties: another coordinate's value, or (equal caps) its
            // un-cap breakpoint as this one's zero breakpoint.
            if k > 0 && rng.gen_bool(0.25) {
                let o = rng.gen_range_usize(0, k);
                u[k] = u[o];
                w[k] = if rng.gen_bool(0.5) { w[o] } else { w[o] - u[o] };
            }
        }
        let total: f64 = u.iter().sum();
        let budget = match case % 7 {
            0 => 0.0,
            6 => total * rng.gen_range_f64(1.0, 2.0),
            _ if uniform => rng.gen_range_usize(1, n + 1) as f64 * delta,
            _ => total * rng.gen_f64(),
        };
        (w, u, budget)
    }

    /// The forward-error scale of the sweep on one block:
    /// `(n + 1)·ε·(t_max + s0 + budget)`, with `t_max` the largest value
    /// (the largest breakpoint) and `s0` the box clamp's sum.
    ///
    /// With unit weights the slopes are exact integers of size at most
    /// `n`. Rounding `s0` costs `n·ε/2·s0`. Each step of the running sum
    /// adds `slope·(t − θ)` with two roundings of `ε/2·|slope|·(t − θ)`,
    /// and the steps telescope, so all of them cost `n·ε·t_max`; the
    /// additions cost `ε/2·s0` per event, at most `2n` events. Each
    /// rounded un-cap breakpoint moves the tracked sum by at most
    /// `ε/2·t_max`. Forming `θ` and the `w_k − θ` adds about
    /// `n·ε/2·t_max + ε·(s0 + budget)`. The slope cancels from
    /// `Σ_k y_k − budget = −slope·(θ̂ − θ)`, so the sum is off by at most
    /// about `2(n + 1)·ε·(t_max + s0 + budget)`, and a coordinate by that
    /// over the crossing segment's slope (at least 1).
    fn sweep_error_scale(w: &[f64], u: &[f64], budget: f64) -> f64 {
        let t_max = w.iter().fold(0.0_f64, |m, &x| m.max(x));
        let s0: f64 = w.iter().zip(u).map(|(x, c)| x.clamp(0.0, *c)).sum();
        (w.len() + 1) as f64 * f64::EPSILON * (t_max + s0 + budget)
    }

    #[test]
    fn sweep_agrees_with_the_bisection_oracle_on_random_blocks() {
        let mut rng = ChaCha8::seed_from_u64(0x5eeb_0b15);
        let (mut binding, mut zero_budget) = (0usize, 0usize);
        let blocks = 12_000;
        for case in 0..blocks {
            let (w, u, budget) = random_block(case, &mut rng);
            let n = w.len();
            let mut got = vec![f64::NAN; n];
            project_capped_simplex(&w, &u, budget, &mut got);
            let mut want = vec![f64::NAN; n];
            project_bisection(&w, &u, budget, &mut want);

            let s0: f64 = w.iter().zip(&u).map(|(x, c)| x.clamp(0.0, *c)).sum();
            binding += usize::from(s0 > budget);
            zero_budget += usize::from(budget == 0.0 && s0 > 0.0);
            let err = sweep_error_scale(&w, &u, budget);
            for (k, (&y, &c)) in got.iter().zip(&u).enumerate() {
                assert!(
                    (0.0..=c).contains(&y),
                    "case {case}, k {k}: {y:e} outside [0, {c:e}]"
                );
            }
            // Twice the derived bound, which keeps first-order terms only.
            let sum: f64 = got.iter().sum();
            assert!(
                sum <= budget + 4.0 * err,
                "case {case}: Σ = {sum:e} > budget {budget:e} + {:e}",
                4.0 * err
            );
            // The oracle's λ is within BISECTION_TOL·(1 + λ), and its
            // polish moves a coordinate by at most the residue it removes,
            // at most n times that. Both sides round like the sweep's
            // derived bound (2·err each); the test allows twice their sum.
            let t_max = w.iter().fold(0.0_f64, |m, &x| m.max(x));
            let bound = (n + 1) as f64 * BISECTION_TOL * (1.0 + t_max) + 8.0 * err;
            for k in 0..n {
                assert!(
                    (got[k] - want[k]).abs() <= bound,
                    "case {case}, k {k}: {:e} vs oracle {:e}, bound {bound:e}",
                    got[k],
                    want[k]
                );
            }
        }
        assert!(binding >= blocks / 2, "only {binding} binding blocks");
        assert!(
            zero_budget >= 1_000,
            "only {zero_budget} zero-budget blocks"
        );
    }

    #[test]
    fn unit_weights_give_the_bits_of_rho_one() {
        let mut rng = ChaCha8::seed_from_u64(0x0e_ea1);
        for case in 0..4_000 {
            let (w, u, budget) = random_block(case, &mut rng);
            let ones = vec![1.0; w.len()];
            let mut events = Vec::new();
            let (mut unit, mut rho_one) = (vec![f64::NAN; w.len()], vec![f64::NAN; w.len()]);
            project_block(
                w.len(),
                |i| w[i],
                |_| 1.0,
                |i| u[i],
                budget,
                &mut events,
                |i, y| unit[i] = y,
            );
            project_block(
                w.len(),
                |i| w[i],
                |i| ones[i],
                |i| u[i],
                budget,
                &mut events,
                |i, y| rho_one[i] = y,
            );
            let bits = |v: &[f64]| v.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&unit), bits(&rho_one), "case {case}");
        }
    }

    #[test]
    #[should_panic(expected = "finite breakpoints")]
    fn projection_rejects_a_nan_value() {
        let mut out = [0.0; 3];
        project_capped_simplex(&[0.5, f64::NAN, 0.75], &[1.0; 3], 1.0, &mut out);
    }
}
