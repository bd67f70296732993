//! Normalized Energy Consumption (NEC) — the metric of every figure and
//! table in Section VI.
//!
//! One [`NecPoint`] divides each energy of the battery by the
//! convex-programming optimum `E^OPT`: the ideal case `S^O`, the evenly
//! allocating method (`S^I1`, `S^F1`) and the DER-based method (`S^I2`,
//! `S^F2`). The engine builds it for any request with a solver set, from
//! the one timeline and ideal solution its heuristics use:
//!
//! * `NEC of Idl = E^O / E^OPT` (can fall below 1 — the ideal case ignores
//!   the core limit — and can exceed 1 when static power makes stretching
//!   suboptimal… it is a *reference*, not a competitor),
//! * `NEC of I1, F1, I2, F2 ≥ 1` up to solver tolerance.

/// The five normalized energies of one evaluation, plus the normalizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NecPoint {
    /// `E^O / E^OPT` — "NEC of Idl".
    pub ideal: f64,
    /// `E^{I1} / E^OPT` — evenly allocating, intermediate.
    pub i1: f64,
    /// `E^{F1} / E^OPT` — evenly allocating, final.
    pub f1: f64,
    /// `E^{I2} / E^OPT` — DER-based, intermediate.
    pub i2: f64,
    /// `E^{F2} / E^OPT` — DER-based, final.
    pub f2: f64,
    /// The normalizer `E^OPT` itself.
    pub opt_energy: f64,
}

impl NecPoint {
    /// The five NEC values in presentation order (Idl, I1, F1, I2, F2).
    pub fn as_array(&self) -> [f64; 5] {
        [self.ideal, self.i1, self.f1, self.i2, self.f2]
    }
}

/// Mean of a set of NEC points, component-wise (the per-setting average of
/// 100 trials reported in the paper's figures).
pub fn mean_nec(points: &[NecPoint]) -> NecPoint {
    assert!(!points.is_empty());
    let n = points.len() as f64;
    let mut acc = [0.0; 5];
    let mut opt = 0.0;
    for p in points {
        let a = p.as_array();
        for k in 0..5 {
            acc[k] += a[k];
        }
        opt += p.opt_energy;
    }
    NecPoint {
        ideal: acc[0] / n,
        i1: acc[1] / n,
        f1: acc[2] / n,
        i2: acc[3] / n,
        f2: acc[4] / n,
        opt_energy: opt / n,
    }
}

/// Component-wise sample standard deviation of a set of NEC points
/// (Bessel-corrected; zero for fewer than two points). `opt_energy`
/// carries the std of the normalizer itself.
pub fn std_nec(points: &[NecPoint]) -> NecPoint {
    assert!(!points.is_empty());
    if points.len() < 2 {
        return NecPoint {
            ideal: 0.0,
            i1: 0.0,
            f1: 0.0,
            i2: 0.0,
            f2: 0.0,
            opt_energy: 0.0,
        };
    }
    let m = mean_nec(points);
    let n = (points.len() - 1) as f64;
    let mut acc = [0.0; 5];
    let mut opt = 0.0;
    for p in points {
        let a = p.as_array();
        let b = m.as_array();
        for k in 0..5 {
            acc[k] += (a[k] - b[k]).powi(2);
        }
        opt += (p.opt_energy - m.opt_energy).powi(2);
    }
    NecPoint {
        ideal: (acc[0] / n).sqrt(),
        i1: (acc[1] / n).sqrt(),
        f1: (acc[2] / n).sqrt(),
        i2: (acc[3] / n).sqrt(),
        f2: (acc[4] / n).sqrt(),
        opt_energy: (opt / n).sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_nec_of_identical_points_is_zero() {
        let p = NecPoint {
            ideal: 1.0,
            i1: 1.5,
            f1: 1.2,
            i2: 1.1,
            f2: 1.05,
            opt_energy: 7.0,
        };
        let s = std_nec(&[p, p, p]);
        for v in s.as_array() {
            assert_eq!(v, 0.0);
        }
        assert_eq!(s.opt_energy, 0.0);
        // Single point: defined as zero.
        let s1 = std_nec(&[p]);
        assert_eq!(s1.f2, 0.0);
    }

    #[test]
    fn std_nec_matches_hand_computation() {
        let mut a = NecPoint {
            ideal: 1.0,
            i1: 1.0,
            f1: 1.0,
            i2: 1.0,
            f2: 1.0,
            opt_energy: 10.0,
        };
        let mut b = a;
        a.f2 = 1.0;
        b.f2 = 3.0;
        // Sample std of {1, 3} = √2.
        let s = std_nec(&[a, b]);
        assert!((s.f2 - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn mean_nec_averages_componentwise() {
        let a = NecPoint {
            ideal: 1.0,
            i1: 2.0,
            f1: 1.5,
            i2: 1.2,
            f2: 1.1,
            opt_energy: 10.0,
        };
        let b = NecPoint {
            ideal: 0.8,
            i1: 4.0,
            f1: 2.5,
            i2: 1.4,
            f2: 1.3,
            opt_energy: 20.0,
        };
        let m = mean_nec(&[a, b]);
        assert!((m.ideal - 0.9).abs() < 1e-12);
        assert!((m.i1 - 3.0).abs() < 1e-12);
        assert!((m.f1 - 2.0).abs() < 1e-12);
        assert!((m.i2 - 1.3).abs() < 1e-12);
        assert!((m.f2 - 1.2).abs() < 1e-12);
        assert!((m.opt_energy - 15.0).abs() < 1e-12);
    }
}
