//! Schedule representation.
//!
//! A [`Schedule`] is the concrete object every algorithm in this workspace
//! produces: a set of execution [`Segment`]s, each placing one task on one
//! core over a time interval at a fixed frequency. The paper's abstract
//! solution (`x_{i,j}` execution times plus per-task frequencies) is always
//! materialized into this form so that it can be validated, simulated, and
//! measured uniformly.

use crate::power::PowerModel;
use crate::task::TaskId;
use crate::time::{approx_eq, compensated_sum, Interval, EPS};
use std::cmp::Ordering;
use std::collections::HashMap;

/// One contiguous execution of a task on a core at a fixed frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// The task being executed.
    pub task: TaskId,
    /// Core index in `0..m`.
    pub core: usize,
    /// Execution interval.
    pub interval: Interval,
    /// Execution frequency (positive).
    pub freq: f64,
}

impl Segment {
    /// Construct a segment.
    ///
    /// # Panics
    /// If the frequency is not positive and finite.
    #[inline]
    pub fn new(task: TaskId, core: usize, start: f64, end: f64, freq: f64) -> Self {
        assert!(
            freq.is_finite() && freq > 0.0,
            "segment frequency must be positive and finite, got {freq}"
        );
        Self {
            task,
            core,
            interval: Interval::new(start, end),
            freq,
        }
    }

    /// Work completed by this segment: `f · (end − start)`.
    #[inline]
    pub fn work(&self) -> f64 {
        self.freq * self.interval.length()
    }

    /// Segment duration.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.interval.length()
    }

    /// Energy drawn by this segment under `model`.
    #[inline]
    pub fn energy<P: PowerModel>(&self, model: &P) -> f64 {
        model.energy_for_duration(self.freq, self.duration())
    }

    /// The coalesce rule: extend `self`, the last kept segment on `next`'s
    /// core, to cover `next` when both run the same task at the same
    /// frequency back to back. Returns whether `next` was absorbed.
    /// [`Schedule::coalesce`], [`Schedule::push_coalesced`] and any
    /// producer that coalesces while it streams apply this one rule.
    #[inline]
    pub fn try_extend(&mut self, next: &Segment) -> bool {
        // Frequencies must agree *relatively* — merging rewrites the run's
        // frequency, so the work error is |Δf|·duration. `approx_eq`'s
        // absolute floor would call any two frequencies below EPS "equal"
        // and silently lose work for tiny tasks running at sub-EPS
        // frequencies.
        let freq_close =
            (self.freq - next.freq).abs() <= EPS * self.freq.abs().max(next.freq.abs());
        // Adjacency must be near-exact, not EPS-loose: an EPS-scale gate
        // would bridge a real sub-EPS gap — time that may hold another
        // task's sliver segment on this core — and the merged run would
        // double-book it. Producers chain segment boundaries exactly (pack
        // cursors, shared subinterval endpoints), so a few-ulp relative
        // tolerance is all genuine adjacency needs.
        let (end, start) = (self.interval.end, next.interval.start);
        let adjacent = (start - end).abs() <= 1e-12 * (1.0 + end.abs().max(start.abs()));
        let merge = self.task == next.task && freq_close && adjacent;
        if merge {
            self.interval.end = next.interval.end.max(end);
        }
        merge
    }
}

/// The coalesce rule's per-core state: the index of the last kept segment
/// on each core (`usize::MAX` while a core has none). Out-of-range cores
/// go in a map, so a corrupt core index cannot size an allocation.
#[derive(Debug, Clone)]
pub struct CoreTails {
    cores: Vec<usize>,
    stray: HashMap<usize, usize>,
}

impl CoreTails {
    /// No kept segment on any of `cores` cores.
    pub fn new(cores: usize) -> Self {
        Self {
            cores: vec![usize::MAX; cores],
            stray: HashMap::new(),
        }
    }

    /// The slot holding `core`'s last kept segment index.
    #[inline]
    pub fn slot(&mut self, core: usize) -> &mut usize {
        match self.cores.get_mut(core) {
            Some(slot) => slot,
            None => self.stray.entry(core).or_insert(usize::MAX),
        }
    }
}

/// A complete multi-core schedule: `m` cores plus a list of segments.
///
/// The structure itself does not enforce legality (that is
/// [`crate::validate::validate_schedule`]'s job) but provides the
/// accounting primitives legality checks and metrics are built from.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Number of cores `m`.
    pub cores: usize,
    segments: Vec<Segment>,
}

impl Schedule {
    /// An empty schedule on `cores` cores.
    ///
    /// # Panics
    /// If `cores == 0`.
    pub fn new(cores: usize) -> Self {
        Self::with_capacity(cores, 0)
    }

    /// An empty schedule on `cores` cores with room for `segments`
    /// segments, for producers that know an upper bound on their output
    /// and would otherwise grow the buffer by doubling.
    ///
    /// # Panics
    /// If `cores == 0`.
    pub fn with_capacity(cores: usize, segments: usize) -> Self {
        assert!(cores > 0, "a schedule needs at least one core");
        Self {
            cores,
            segments: Vec::with_capacity(segments),
        }
    }

    /// Append a segment. Degenerate segments are silently dropped — they
    /// arise naturally from boundary cases in wrap-around packing and carry
    /// no work. The gate is work-aware, not duration-only: a sub-EPS sliver
    /// executed at high frequency can carry work well above the validator's
    /// per-task tolerance, and dropping it here would silently starve the
    /// task (timeline subintervals can legitimately be shorter than EPS).
    /// Out-of-range core/task indices are accepted here and reported by
    /// [`crate::validate::validate_schedule`], so that deserialized or
    /// hand-built schedules can be diagnosed rather than crashed on.
    pub fn push(&mut self, seg: Segment) {
        let d = seg.duration();
        if d > EPS || (d > 0.0 && seg.work() > crate::validate::WORK_TOL * 0.1) {
            self.segments.push(seg);
        }
    }

    /// Append a segment, dropping only zero-length ones. For producers
    /// whose inputs are already dust-filtered and whose output must
    /// conserve work exactly — McNaughton packing splits an item at the
    /// subinterval boundary, and the head piece can fall under [`push`](Self::push)'s
    /// dust gate even though its sibling pieces only add back up to the
    /// item with it included.
    #[inline]
    pub fn push_exact(&mut self, seg: Segment) {
        if seg.duration() > 0.0 {
            self.segments.push(seg);
        }
    }

    /// Make room for at least `additional` more segments.
    pub fn reserve(&mut self, additional: usize) {
        self.segments.reserve(additional);
    }

    /// Release unused segment capacity, for producers that reserved an
    /// upper bound.
    pub fn shrink_to_fit(&mut self) {
        self.segments.shrink_to_fit();
    }

    /// All segments, in insertion order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when no segments have been scheduled.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Segments of one task, sorted by start time.
    pub fn task_segments(&self, task: TaskId) -> Vec<Segment> {
        let mut v: Vec<Segment> = self
            .segments
            .iter()
            .filter(|s| s.task == task)
            .copied()
            .collect();
        v.sort_by(|a, b| {
            a.interval
                .start
                .partial_cmp(&b.interval.start)
                .expect("finite segment times")
        });
        v
    }

    /// Segments on one core, sorted by start time.
    pub fn core_segments(&self, core: usize) -> Vec<Segment> {
        let mut v: Vec<Segment> = self
            .segments
            .iter()
            .filter(|s| s.core == core)
            .copied()
            .collect();
        v.sort_by(|a, b| {
            a.interval
                .start
                .partial_cmp(&b.interval.start)
                .expect("finite segment times")
        });
        v
    }

    /// Total work completed for `task` across all its segments.
    pub fn work_of(&self, task: TaskId) -> f64 {
        compensated_sum(
            self.segments
                .iter()
                .filter(|s| s.task == task)
                .map(Segment::work),
        )
    }

    /// Total busy time of `core`.
    pub fn busy_time(&self, core: usize) -> f64 {
        compensated_sum(
            self.segments
                .iter()
                .filter(|s| s.core == core)
                .map(Segment::duration),
        )
    }

    /// Total energy of the schedule under `model`
    /// (`Σ_segments p(f)·duration`; idle cores sleep at zero power).
    pub fn energy<P: PowerModel>(&self, model: &P) -> f64 {
        compensated_sum(self.segments.iter().map(|s| s.energy(model)))
    }

    /// Latest segment end time (0 for an empty schedule).
    pub fn makespan(&self) -> f64 {
        self.segments
            .iter()
            .map(|s| s.interval.end)
            .fold(0.0, f64::max)
    }

    /// Every segment, grouped by task in ascending id order and sorted by
    /// start within each task, ties in insertion order: the runs
    /// [`Schedule::task_segments`] returns for each of
    /// [`Schedule::task_ids`], concatenated. One O(S log S) stable sort
    /// instead of one filter of the whole list per task.
    pub fn segments_by_task(&self) -> Vec<Segment> {
        let mut v = self.segments.clone();
        v.sort_by(|a, b| {
            a.task.cmp(&b.task).then(
                a.interval
                    .start
                    .partial_cmp(&b.interval.start)
                    .expect("finite segment times"),
            )
        });
        v
    }

    /// Number of migrations: per task, count consecutive-segment pairs
    /// (in time order) that change core.
    pub fn migrations(&self) -> usize {
        self.segments_by_task()
            .windows(2)
            .filter(|w| w[0].task == w[1].task && w[0].core != w[1].core)
            .count()
    }

    /// Number of preemptions: per task, count consecutive-segment pairs with
    /// a gap between them (the task was set aside and resumed).
    pub fn preemptions(&self) -> usize {
        self.segments_by_task()
            .windows(2)
            .filter(|w| {
                w[0].task == w[1].task && !approx_eq(w[0].interval.end, w[1].interval.start)
            })
            .count()
    }

    /// Distinct task ids appearing in the schedule, ascending.
    pub fn task_ids(&self) -> Vec<TaskId> {
        let mut ids: Vec<TaskId> = self.segments.iter().map(|s| s.task).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// True when the segments are in canonical order: by start time, then
    /// core, then task. [`Schedule::coalesce`] leaves every schedule so.
    pub fn is_canonical(&self) -> bool {
        self.segments
            .is_sorted_by(|a, b| canonical_order(a, b).is_le())
    }

    /// Append `seg` to a schedule built in canonical order, coalescing as
    /// it goes: zero-length segments are dropped as by
    /// [`push_exact`](Self::push_exact), and a segment that extends the
    /// last kept segment on its core ([`Segment::try_extend`]) merges into
    /// it. Appending a canonical sequence this way leaves exactly what
    /// appending it and then calling [`coalesce`](Self::coalesce) leaves,
    /// without the second pass. `tails` carries the rule's state between
    /// calls; start it with [`CoreTails::new`] for an empty schedule.
    #[inline]
    pub fn push_coalesced(&mut self, seg: Segment, tails: &mut CoreTails) {
        if seg.duration() <= 0.0 {
            return;
        }
        debug_assert!(
            self.segments
                .last()
                .is_none_or(|last| last.interval.start <= seg.interval.start),
            "push_coalesced needs segments in canonical order"
        );
        let tail = tails.slot(seg.core);
        if let Some(last) = self.segments.get_mut(*tail) {
            if last.try_extend(&seg) {
                return;
            }
        }
        *tail = self.segments.len();
        self.segments.push(seg);
    }

    /// Merge adjacent segments of the same task on the same core at the same
    /// frequency into single segments, and leave the list in canonical
    /// order (start, core, task; ties in insertion order). Cosmetic, but
    /// keeps segment counts (and preemption metrics) meaningful after
    /// subinterval-by-subinterval construction.
    ///
    /// One stable sort into canonical order, skipped when the list is
    /// already canonical, then one in-place pass in which a segment may
    /// only extend the last kept segment on its own core
    /// ([`Segment::try_extend`]). A piece is therefore never merged across
    /// another segment on its core — not even a sub-tolerance sliver,
    /// which a bridging merge would double-book. Segments on a core index
    /// `≥ cores` merge by the same rule; the validator reports them.
    pub fn coalesce(&mut self) {
        if !self.is_canonical() {
            self.segments.sort_by(canonical_order);
        }
        let mut tails = CoreTails::new(self.cores);
        let segs = &mut self.segments;
        let mut kept = 0;
        for i in 0..segs.len() {
            let seg = segs[i];
            let tail = tails.slot(seg.core);
            if let Some(last) = segs.get_mut(*tail) {
                if last.try_extend(&seg) {
                    continue;
                }
            }
            segs[kept] = seg;
            *tail = kept;
            kept += 1;
        }
        segs.truncate(kept);
        segs.shrink_to_fit();
    }

    /// Average core utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: f64) -> f64 {
        if horizon <= 0.0 {
            return 0.0;
        }
        let busy: f64 = (0..self.cores).map(|c| self.busy_time(c)).sum();
        busy / (self.cores as f64 * horizon)
    }
}

/// Canonical segment order: start time, then core, then task. Starts
/// compare with `partial_cmp`, so `-0.0` and `+0.0` tie.
fn canonical_order(a: &Segment, b: &Segment) -> Ordering {
    a.interval
        .start
        .partial_cmp(&b.interval.start)
        .expect("finite segment times")
        .then(a.core.cmp(&b.core))
        .then(a.task.cmp(&b.task))
}

/// A per-task constant frequency assignment plus per-task available time —
/// the *analytic* form of the paper's final schedules (`S^F1`, `S^F2`),
/// before materialization into segments.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyAssignment {
    /// `f_i` for each task.
    pub freq: Vec<f64>,
    /// Total available execution time `A_i` for each task.
    pub avail: Vec<f64>,
}

impl FrequencyAssignment {
    /// Analytic energy `Σ_i p(f_i)·C_i/f_i` of executing requirements
    /// `works[i]` at the assigned frequencies.
    pub fn energy<P: PowerModel>(&self, works: &[f64], model: &P) -> f64 {
        assert_eq!(works.len(), self.freq.len());
        compensated_sum(
            works
                .iter()
                .zip(&self.freq)
                .map(|(&c, &f)| model.energy_for_work(c, f)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PolynomialPower;

    fn two_core_fixture() -> Schedule {
        let mut s = Schedule::new(2);
        s.push(Segment::new(0, 0, 0.0, 4.0, 0.75)); // τ0 on M0
        s.push(Segment::new(1, 1, 2.0, 4.0, 0.75)); // τ1 on M1
        s.push(Segment::new(2, 0, 4.0, 8.0, 1.0)); // τ2 on M0
        s.push(Segment::new(0, 1, 8.0, 12.0, 0.75)); // τ0 migrates to M1
        s
    }

    #[test]
    fn segment_work_and_energy() {
        let seg = Segment::new(0, 0, 0.0, 4.0, 0.5);
        assert_eq!(seg.work(), 2.0);
        assert_eq!(seg.duration(), 4.0);
        let p = PolynomialPower::paper(3.0, 0.01);
        assert!((seg.energy(&p) - (0.125 + 0.01) * 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn segment_rejects_zero_frequency() {
        let _ = Segment::new(0, 0, 0.0, 1.0, 0.0);
    }

    #[test]
    fn work_accounting() {
        let s = two_core_fixture();
        assert!((s.work_of(0) - (4.0 * 0.75 + 4.0 * 0.75)).abs() < 1e-12);
        assert!((s.work_of(1) - 1.5).abs() < 1e-12);
        assert!((s.work_of(2) - 4.0).abs() < 1e-12);
        assert_eq!(s.work_of(99), 0.0);
    }

    #[test]
    fn busy_time_and_utilization() {
        let s = two_core_fixture();
        assert_eq!(s.busy_time(0), 8.0);
        assert_eq!(s.busy_time(1), 6.0);
        assert!((s.utilization(12.0) - 14.0 / 24.0).abs() < 1e-12);
        assert_eq!(s.utilization(0.0), 0.0);
    }

    #[test]
    fn migrations_and_preemptions() {
        let s = two_core_fixture();
        // τ0 runs [0,4] on M0 then [8,12] on M1: one migration, one gap.
        assert_eq!(s.migrations(), 1);
        assert_eq!(s.preemptions(), 1);
    }

    #[test]
    fn makespan_and_ids() {
        let s = two_core_fixture();
        assert_eq!(s.makespan(), 12.0);
        assert_eq!(s.task_ids(), vec![0, 1, 2]);
    }

    #[test]
    fn zero_length_segments_are_dropped() {
        let mut s = Schedule::new(1);
        s.push(Segment::new(0, 0, 3.0, 3.0, 1.0));
        assert!(s.is_empty());
    }

    #[test]
    fn coalesce_merges_contiguous_equal_frequency_runs() {
        let mut s = Schedule::new(1);
        s.push(Segment::new(0, 0, 0.0, 2.0, 0.5));
        s.push(Segment::new(0, 0, 2.0, 4.0, 0.5));
        s.push(Segment::new(0, 0, 4.0, 6.0, 0.8)); // different frequency
        s.push(Segment::new(1, 0, 6.0, 7.0, 0.8)); // different task
        s.coalesce();
        assert_eq!(s.len(), 3);
        assert_eq!(s.segments()[0].interval.end, 4.0);
        // Work is preserved by coalescing.
        assert!((s.work_of(0) - (2.0 + 1.6)).abs() < 1e-12);
    }

    #[test]
    fn schedule_energy_sums_segments() {
        let s = two_core_fixture();
        let p = PolynomialPower::paper(3.0, 0.0);
        let by_hand: f64 = s.segments().iter().map(|seg| seg.energy(&p)).sum();
        assert!((s.energy(&p) - by_hand).abs() < 1e-12);
    }

    #[test]
    fn frequency_assignment_energy() {
        let fa = FrequencyAssignment {
            freq: vec![0.5, 1.0],
            avail: vec![8.0, 2.0],
        };
        let p = PolynomialPower::paper(3.0, 0.0);
        // E = C·f² for p0=0, α=3.
        let e = fa.energy(&[4.0, 2.0], &p);
        assert!((e - (4.0 * 0.25 + 2.0 * 1.0)).abs() < 1e-12);
    }

    #[test]
    fn json_round_trip() {
        use esched_obs::json::{parse, FromJson, ToJson};
        let s = two_core_fixture();
        let back = Schedule::from_json(&parse(&s.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(s, back);
    }
}
