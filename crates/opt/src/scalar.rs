//! One-dimensional solvers: bisection root finding, safeguarded Newton,
//! and golden-section minimization.
//!
//! These primitives back block-coordinate descent's waterfilling
//! (bisection), the ADMM per-task prox (safeguarded Newton), and the
//! power-curve fit (golden section over the exponent). The capped-simplex projection needs none of them:
//! it solves its multiplier exactly by a breakpoint sweep.

/// Default tolerance for scalar solves.
pub const TOL: f64 = 1e-12;

/// Find a root of `f` in `[lo, hi]` by bisection. Requires a sign change
/// (or a root at an endpoint); returns the midpoint of the final bracket.
///
/// # Panics
/// If `f(lo)` and `f(hi)` have the same (nonzero) sign.
pub fn bisect(mut f: impl FnMut(f64) -> f64, mut lo: f64, mut hi: f64, tol: f64) -> f64 {
    let mut flo = f(lo);
    let fhi = f(hi);
    if flo == 0.0 {
        return lo;
    }
    if fhi == 0.0 {
        return hi;
    }
    assert!(
        flo * fhi < 0.0,
        "bisect requires a sign change: f({lo}) = {flo}, f({hi}) = {fhi}"
    );
    // 200 iterations halve the bracket far below f64 resolution even for
    // astronomically wide inputs; the tolerance check usually exits earlier.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let fm = f(mid);
        if fm == 0.0 || (hi - lo) < tol * (1.0 + mid.abs()) {
            return mid;
        }
        if flo * fm < 0.0 {
            hi = mid;
        } else {
            lo = mid;
            flo = fm;
        }
    }
    0.5 * (lo + hi)
}

/// Root of a nondecreasing `f` by safeguarded Newton, to the same
/// contract as [`bisect`]: the result is a point where the evaluated `f`
/// is 0, or the midpoint of a bracket `[a, b]` across which it changes
/// sign, with `b − a < tol·(1 + |mid|)` — or with `a` and `b` adjacent
/// floats, the finest bracket `f64` has. Like [`bisect`], it gives up
/// after 200 evaluations and returns the midpoint of its bracket then.
///
/// `f` returns `(f(t), f′(t))`. The caller vouches for `f(lo) < 0 < f(hi)`;
/// the ends are never evaluated, so an end where `f` is infinite is fine.
/// `start` is the first iterate (the midpoint if it is not strictly
/// inside the bracket).
///
/// Every evaluation tightens the bracket by the sign of `f`. The next
/// iterate is the Newton point, unless that leaves the bracket or moves
/// more than half the step before last — then the bracket midpoint, the
/// `rtsafe` rule of *Numerical Recipes*. A short Newton step is never a
/// stop on its own: where `f` is steep the step is short although the
/// root is far. Instead, a Newton step shorter than `ε/2`
/// (`ε = tol·(1 + |t|)`) is carried `ε/4` further, at least one float,
/// past the predicted root. If the prediction was within `ε/4` of the
/// root, that probe lands on the other side, the bracket between the
/// probe and the current iterate is narrower than `ε`, and the next pass
/// returns its midpoint; otherwise the probe just tightens the bracket.
/// So a result is always certified by a sign change, never by a step
/// length.
pub fn newton_increasing(
    mut f: impl FnMut(f64) -> (f64, f64),
    mut lo: f64,
    mut hi: f64,
    start: f64,
    tol: f64,
) -> f64 {
    let mut t = if start > lo && start < hi {
        start
    } else {
        0.5 * (lo + hi)
    };
    let (mut last_step, mut step_before) = (hi - lo, hi - lo);
    for _ in 0..200 {
        let (ft, dft) = f(t);
        if ft == 0.0 {
            return t;
        }
        if ft < 0.0 {
            lo = t;
        } else {
            hi = t;
        }
        let mid = 0.5 * (lo + hi);
        if hi - lo < tol * (1.0 + mid.abs()) || mid == lo || mid == hi {
            return mid;
        }
        let newton = t - ft / dft;
        let step = (newton - t).abs();
        // False for a NaN or infinite step as well.
        let shrinking = 2.0 * step <= step_before;
        let eps = tol * (1.0 + t.abs());
        let next = if shrinking && step < 0.5 * eps {
            // Probe just past the predicted root, seen from t.
            let toward = if ft > 0.0 { -1.0 } else { 1.0 };
            let mut probe = newton + toward * 0.25 * eps;
            if probe == t {
                probe = if ft > 0.0 { t.next_down() } else { t.next_up() };
            }
            if probe > lo && probe < hi {
                probe
            } else {
                mid
            }
        } else if shrinking && newton > lo && newton < hi {
            newton
        } else {
            mid
        };
        step_before = last_step;
        last_step = (next - t).abs();
        t = next;
    }
    0.5 * (lo + hi)
}

/// Golden-section minimization of a unimodal `f` on `[lo, hi]`.
/// Returns the minimizing abscissa.
pub fn golden_min(mut f: impl FnMut(f64) -> f64, mut lo: f64, mut hi: f64, tol: f64) -> f64 {
    const INV_PHI: f64 = 0.618_033_988_749_894_8; // (√5 − 1)/2
    let mut a = hi - INV_PHI * (hi - lo);
    let mut b = lo + INV_PHI * (hi - lo);
    let mut fa = f(a);
    let mut fb = f(b);
    for _ in 0..300 {
        if (hi - lo) < tol * (1.0 + lo.abs().max(hi.abs())) {
            break;
        }
        if fa <= fb {
            hi = b;
            b = a;
            fb = fa;
            a = hi - INV_PHI * (hi - lo);
            fa = f(a);
        } else {
            lo = a;
            a = b;
            fa = fb;
            b = lo + INV_PHI * (hi - lo);
            fb = f(b);
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, TOL);
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn bisect_accepts_root_at_endpoint() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, TOL), 0.0);
        assert_eq!(bisect(|x| x - 1.0, 0.0, 1.0, TOL), 1.0);
    }

    #[test]
    #[should_panic(expected = "sign change")]
    fn bisect_rejects_same_sign() {
        let _ = bisect(|x| x * x + 1.0, -1.0, 1.0, TOL);
    }

    #[test]
    fn newton_matches_bisection_on_cubic() {
        let f = |x: f64| (x * x * x - 8.0, 3.0 * x * x);
        let r = newton_increasing(f, 0.0, 10.0, 5.0, TOL);
        assert!((r - 2.0).abs() < 1e-10);
    }

    #[test]
    fn newton_survives_zero_derivative_start() {
        // f'(5) = 0 for f = (x−5)³ + 1: the derivative vanishes at the
        // start, so the bisection fallback must kick in.
        let f = |x: f64| {
            let d = x - 5.0;
            (d * d * d + 1.0, 3.0 * d * d)
        };
        let r = newton_increasing(f, 0.0, 10.0, 5.0, TOL);
        assert!((r - 4.0).abs() < 1e-8);
    }

    #[test]
    fn newton_does_not_stop_on_a_short_step_where_f_is_steep() {
        // f = −ln(1 − x) − 1 climbs to +∞ at x = 1, so Newton steps from
        // just below 1 are tiny although the root 1 − 1/e is far away.
        let f = |x: f64| (-(1.0 - x).ln() - 1.0, 1.0 / (1.0 - x));
        let root = 1.0 - (-1.0_f64).exp();
        let r = newton_increasing(f, 0.0, 1.0, 1.0 - 1e-15, 1e-13);
        assert!((r - root).abs() < 1e-13, "{r} vs {root}");
    }

    #[test]
    fn newton_stops_at_adjacent_floats_below_a_subresolution_tolerance() {
        let f = |x: f64| (x - 1.0 / 3.0, 1.0);
        let r = newton_increasing(f, 0.0, 1.0, 0.9, 1e-30);
        assert!((r - 1.0 / 3.0).abs() <= f64::EPSILON, "{r}");
    }

    #[test]
    fn golden_finds_parabola_minimum() {
        // Derivative-free minimization can only locate a quadratic minimum
        // to ~√ε_machine ≈ 1e-8; test at 1e-6 for headroom.
        let r = golden_min(|x| (x - 3.2) * (x - 3.2) + 1.0, -10.0, 10.0, 1e-12);
        assert!((r - 3.2).abs() < 1e-6);
    }

    #[test]
    fn golden_finds_energy_per_work_minimum() {
        // p(f)/f = f^2 + 0.25/f has its minimum at f_crit = 0.5.
        let r = golden_min(|f: f64| f * f + 0.25 / f, 1e-3, 10.0, 1e-12);
        assert!((r - 0.5).abs() < 1e-6);
    }

    #[test]
    fn golden_handles_boundary_minimum() {
        let r = golden_min(|x| x, 2.0, 5.0, 1e-12);
        assert!((r - 2.0).abs() < 1e-6);
    }
}
