//! Euclidean projection onto the *capped simplex*
//! `{ y : 0 ≤ y_k ≤ u_k, Σ_k y_k ≤ c }`.
//!
//! The feasible region of the paper's reformulated energy program is a
//! Cartesian product of capped simplices — one per subinterval, because
//! each variable `x_{i,j}` appears in exactly one coupling constraint
//! `Σ_i x_{i,j} ≤ m·Δ_j`. Projection therefore decomposes blockwise, and
//! this module provides the single-block primitive.
//!
//! The projection is computed exactly (up to bisection tolerance) via the
//! KKT conditions: `y_k(λ) = clamp(z_k − λ, 0, u_k)` where the multiplier
//! `λ ≥ 0` is zero if the clamped point already satisfies the budget, and
//! otherwise solves `Σ_k y_k(λ) = c` — a piecewise-linear decreasing
//! equation solved by bisection.

use crate::scalar::bisect;

/// Clamp each coordinate into `[0, u_k]`.
fn clamp_box(z: &[f64], u: &[f64], out: &mut [f64]) {
    for ((o, &zi), &ui) in out.iter_mut().zip(z).zip(u) {
        *o = zi.max(0.0).min(ui);
    }
}

/// Project `z` onto `{0 ≤ y ≤ u, Σy ≤ cap}`, writing the result into `out`.
///
/// # Panics
/// If slice lengths disagree, any `u_k < 0`, or `cap < 0`.
pub fn project_capped_simplex(z: &[f64], u: &[f64], cap: f64, out: &mut [f64]) {
    assert_eq!(z.len(), u.len());
    assert_eq!(z.len(), out.len());
    assert!(cap >= 0.0, "negative capacity {cap}");
    debug_assert!(u.iter().all(|&x| x >= 0.0));

    if z.is_empty() {
        return;
    }

    clamp_box(z, u, out);
    let sum: f64 = out.iter().sum();
    if sum <= cap {
        return; // budget slack: λ = 0, box clamp is the projection.
    }
    project_onto_budget(z, |k| u[k], cap, out);
}

/// The binding case of [`project_capped_simplex`]: the box clamp of `z`
/// overshoots `cap`, so `λ > 0` solves `Σ_k clamp(z_k − λ, 0, u(k)) = cap`.
/// Writes every coordinate of `out`. `u` maps a position to its cap, so a
/// caller whose caps are uniform passes a constant instead of a slice.
pub(crate) fn project_onto_budget(z: &[f64], u: impl Fn(usize) -> f64, cap: f64, out: &mut [f64]) {
    // Σ_k clamp(z_k − λ) is continuous, non-increasing in λ; at λ = 0 it
    // exceeds cap, and at λ = max(z_k) it is 0 ≤ cap. Bisect.
    let lam_hi = z.iter().cloned().fold(0.0_f64, f64::max).max(1e-30);
    let residual = |lam: f64| -> f64 {
        z.iter()
            .enumerate()
            .map(|(k, &zi)| (zi - lam).max(0.0).min(u(k)))
            .sum::<f64>()
            - cap
    };
    let lam = bisect(residual, 0.0, lam_hi, 1e-14);
    for (k, (o, &zi)) in out.iter_mut().zip(z).enumerate() {
        *o = (zi - lam).max(0.0).min(u(k));
    }
    // Exact-budget polish: distribute the tiny bisection residue over the
    // strictly interior coordinates so downstream feasibility checks see
    // Σ ≤ cap precisely.
    let s: f64 = out.iter().sum();
    if s > cap {
        let excess = s - cap;
        let interior: f64 = out
            .iter()
            .enumerate()
            .filter(|&(k, &y)| y > 0.0 && y < u(k))
            .map(|(_, &y)| y)
            .sum();
        if interior > 0.0 {
            let scale = excess / interior;
            for (k, y) in out.iter_mut().enumerate() {
                if *y > 0.0 && *y < u(k) {
                    *y -= *y * scale;
                }
            }
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
