//! Time arithmetic helpers.
//!
//! All quantities in this workspace (release times, deadlines, execution
//! requirements measured in cycles at unit frequency, schedule segment
//! boundaries) are `f64` seconds. Floating-point schedules accumulate
//! rounding error through repeated subinterval splitting and wrap-around
//! packing, so every ordering decision that feeds a legality check goes
//! through the tolerant comparisons defined here instead of raw `<`/`==`.

/// Absolute tolerance used by the tolerant comparison helpers.
///
/// Chosen so that a horizon of ~10⁴ time units with ~10⁶ arithmetic
/// operations stays well inside the tolerance, while genuine modelling
/// errors (which are ≥ 1e-3 in every experiment in the paper) are far
/// outside it.
pub const EPS: f64 = 1e-7;

/// Relative-plus-absolute tolerance equality: `|a − b| ≤ EPS·max(1,|a|,|b|)`.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    approx_eq_tol(a, b, EPS)
}

/// [`approx_eq`] with a caller-supplied tolerance.
#[inline]
pub fn approx_eq_tol(a: f64, b: f64, tol: f64) -> bool {
    let scale = 1.0_f64.max(a.abs()).max(b.abs());
    (a - b).abs() <= tol * scale
}

/// Tolerant `a ≤ b`: true when `a < b` or the two are approximately equal.
#[inline]
pub fn approx_le(a: f64, b: f64) -> bool {
    a <= b || approx_eq(a, b)
}

/// Tolerant `a ≥ b`.
#[inline]
pub fn approx_ge(a: f64, b: f64) -> bool {
    a >= b || approx_eq(a, b)
}

/// Strictly less under tolerance: `a < b` and *not* approximately equal.
#[inline]
pub fn definitely_lt(a: f64, b: f64) -> bool {
    a < b && !approx_eq(a, b)
}

/// Strictly greater under tolerance.
#[inline]
pub fn definitely_gt(a: f64, b: f64) -> bool {
    a > b && !approx_eq(a, b)
}

/// Is `x` approximately zero?
#[inline]
pub fn approx_zero(x: f64) -> bool {
    x.abs() <= EPS
}

/// Clamp a value into `[lo, hi]`, tolerating values that stray outside the
/// interval by no more than the tolerance (a hard failure otherwise is the
/// caller's job; this function simply clamps).
#[inline]
pub fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo <= hi, "clamp called with inverted interval [{lo}, {hi}]");
    x.max(lo).min(hi)
}

/// A half-open-by-convention time interval `[start, end]`.
///
/// Intervals are *closed* for containment tests (matching the paper's
/// `[t_j, t_{j+1}]` notation) but *open at the right end* for overlap tests,
/// so that back-to-back segments `[0,1]` and `[1,2]` do not count as
/// overlapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Left endpoint.
    pub start: f64,
    /// Right endpoint; invariant `end ≥ start`.
    pub end: f64,
}

impl Interval {
    /// Create an interval, panicking on NaN or inverted endpoints.
    #[inline]
    pub fn new(start: f64, end: f64) -> Self {
        assert!(
            start.is_finite() && end.is_finite(),
            "interval endpoints must be finite: [{start}, {end}]"
        );
        assert!(
            approx_le(start, end),
            "interval endpoints inverted: [{start}, {end}]"
        );
        Self {
            start,
            end: end.max(start),
        }
    }

    /// Interval length `end − start` (never negative).
    #[inline]
    pub fn length(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }

    /// Does this interval contain time point `t` (closed endpoints,
    /// tolerant)?
    #[inline]
    pub fn contains(&self, t: f64) -> bool {
        approx_le(self.start, t) && approx_le(t, self.end)
    }

    /// Is `other` entirely inside `self` (tolerant, closed endpoints)?
    #[inline]
    pub fn covers(&self, other: &Interval) -> bool {
        approx_le(self.start, other.start) && approx_le(other.end, self.end)
    }

    /// Length of the intersection of the two intervals (0 when disjoint).
    #[inline]
    pub fn overlap_len(&self, other: &Interval) -> f64 {
        let lo = self.start.max(other.start);
        let hi = self.end.min(other.end);
        (hi - lo).max(0.0)
    }

    /// Do the two intervals overlap in an interval of positive length?
    ///
    /// Sharing only an endpoint does *not* count as overlapping.
    #[inline]
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.overlap_len(other) > EPS
    }

    /// The intersection interval, if it has positive (or zero) extent.
    #[inline]
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.start.max(other.start);
        let hi = self.end.min(other.end);
        if approx_le(lo, hi) {
            Some(Interval::new(lo, hi.max(lo)))
        } else {
            None
        }
    }

    /// Midpoint of the interval.
    #[inline]
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.start + self.end)
    }

    /// Is this interval (approximately) a single point?
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        approx_eq(self.start, self.end)
    }
}

/// Sort a slice of time points ascending and remove approximate duplicates.
///
/// Used when constructing subinterval boundaries from release times and
/// deadlines: two event points closer than the tolerance collapse into one
/// (the first representative is kept).
pub fn sort_dedup_times(times: &mut Vec<f64>) {
    times.retain(|t| t.is_finite());
    times.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs after retain"));
    times.dedup_by(|a, b| approx_eq(*a, *b));
}

/// Sum a slice of `f64` with Neumaier (improved Kahan) compensation.
///
/// Energy totals add thousands of per-segment terms of wildly different
/// magnitudes (static energy of long slow segments vs. dynamic energy of
/// short fast ones); compensated summation keeps golden-value tests stable
/// across evaluation orders.
pub fn compensated_sum(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = CompensatedSum::default();
    for v in values {
        sum.add(v);
    }
    sum.total()
}

/// [`compensated_sum`] one value at a time, for producers that stream
/// their terms instead of collecting them: the same values added in the
/// same order give the same bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompensatedSum {
    sum: f64,
    comp: f64,
}

impl CompensatedSum {
    /// Add `v` to the running sum.
    #[inline]
    pub fn add(&mut self, v: f64) {
        let t = self.sum + v;
        if self.sum.abs() >= v.abs() {
            self.comp += (self.sum - t) + v;
        } else {
            self.comp += (v - t) + self.sum;
        }
        self.sum = t;
    }

    /// The compensated total of everything added so far.
    #[inline]
    pub fn total(&self) -> f64 {
        self.sum + self.comp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_scales_with_magnitude() {
        assert!(approx_eq(1.0, 1.0 + 1e-9));
        assert!(approx_eq(1e6, 1e6 + 1e-2));
        assert!(!approx_eq(1.0, 1.001));
        assert!(!approx_eq(0.0, 1e-3));
    }

    #[test]
    fn approx_zero_tolerates_tiny_values() {
        assert!(approx_zero(0.0));
        assert!(approx_zero(1e-12));
        assert!(approx_zero(-1e-12));
        assert!(!approx_zero(1e-3));
    }

    #[test]
    fn tolerant_orderings_are_consistent() {
        assert!(approx_le(1.0, 1.0));
        assert!(approx_le(1.0, 1.0 + 1e-12));
        assert!(approx_le(1.0 + 1e-12, 1.0));
        assert!(approx_ge(2.0, 1.0));
        assert!(definitely_lt(1.0, 2.0));
        assert!(!definitely_lt(1.0, 1.0 + 1e-12));
        assert!(definitely_gt(2.0, 1.0));
    }

    #[test]
    fn interval_basic_geometry() {
        let a = Interval::new(0.0, 4.0);
        assert_eq!(a.length(), 4.0);
        assert!(a.contains(0.0));
        assert!(a.contains(4.0));
        assert!(a.contains(2.0));
        assert!(!a.contains(4.5));
        assert_eq!(a.midpoint(), 2.0);
        assert!(!a.is_degenerate());
        assert!(Interval::new(3.0, 3.0).is_degenerate());
    }

    #[test]
    fn interval_overlap_semantics() {
        let a = Interval::new(0.0, 4.0);
        let b = Interval::new(2.0, 6.0);
        let c = Interval::new(4.0, 8.0);
        assert!(a.overlaps(&b));
        assert_eq!(a.overlap_len(&b), 2.0);
        // Back-to-back intervals share only an endpoint: not overlapping.
        assert!(!a.overlaps(&c));
        assert_eq!(a.overlap_len(&c), 0.0);
        assert!(a.intersect(&c).unwrap().is_degenerate());
        assert!(Interval::new(0.0, 1.0)
            .intersect(&Interval::new(2.0, 3.0))
            .is_none());
    }

    #[test]
    fn interval_covers() {
        let outer = Interval::new(0.0, 10.0);
        assert!(outer.covers(&Interval::new(0.0, 10.0)));
        assert!(outer.covers(&Interval::new(2.0, 8.0)));
        assert!(!outer.covers(&Interval::new(-1.0, 5.0)));
        assert!(!outer.covers(&Interval::new(5.0, 11.0)));
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn interval_rejects_inverted_endpoints() {
        let _ = Interval::new(5.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn interval_rejects_nan() {
        let _ = Interval::new(f64::NAN, 1.0);
    }

    #[test]
    fn sort_dedup_collapses_near_duplicates() {
        let mut ts = vec![4.0, 0.0, 2.0, 2.0 + 1e-12, 8.0, 0.0];
        sort_dedup_times(&mut ts);
        assert_eq!(ts, vec![0.0, 2.0, 4.0, 8.0]);
    }

    #[test]
    fn sort_dedup_drops_non_finite() {
        let mut ts = vec![1.0, f64::NAN, f64::INFINITY, 0.5];
        sort_dedup_times(&mut ts);
        assert_eq!(ts, vec![0.5, 1.0]);
    }

    #[test]
    fn compensated_sum_matches_exact_on_adversarial_input() {
        // 1 + 1e16 - 1e16 == 1 exactly under compensated summation, but 0
        // under naive left-to-right addition.
        let s = compensated_sum([1.0, 1e16, -1e16]);
        assert_eq!(s, 1.0);
        let naive: f64 = [1.0, 1e16, -1e16].iter().sum();
        assert_eq!(naive, 0.0);
    }

    #[test]
    fn clamp_behaves() {
        assert_eq!(clamp(5.0, 0.0, 4.0), 4.0);
        assert_eq!(clamp(-1.0, 0.0, 4.0), 0.0);
        assert_eq!(clamp(2.0, 0.0, 4.0), 2.0);
    }
}
