//! The [`Timeline`]: a task set's horizon decomposed into subintervals,
//! with per-subinterval overlap information.
//!
//! This is the central data structure of the paper's approach. Everything
//! downstream — even allocation, DER-based allocation, the convex program's
//! variable layout — is indexed by `(task, subinterval)` pairs taken from a
//! `Timeline`.

use crate::boundaries::covering_range;
use esched_types::task::{TaskId, TaskSet};
use esched_types::time::Interval;

/// One subinterval `[t_j, t_{j+1}]` together with its overlapping tasks.
#[derive(Debug, Clone, PartialEq)]
pub struct Subinterval {
    /// Index `j` in the timeline.
    pub index: usize,
    /// The interval itself.
    pub interval: Interval,
    /// Ids of tasks whose window fully covers this subinterval, ascending.
    /// (The paper's *overlapping tasks*, `n_j = overlapping.len()`.)
    pub overlapping: Vec<TaskId>,
}

impl Subinterval {
    /// Subinterval length `Δ_j = t_{j+1} − t_j`.
    #[inline]
    pub fn delta(&self) -> f64 {
        self.interval.length()
    }

    /// Number of overlapping tasks `n_j`.
    #[inline]
    pub fn overlap_count(&self) -> usize {
        self.overlapping.len()
    }

    /// Is this subinterval *heavily overlapped* for `m` cores
    /// (`n_j > m`)?
    #[inline]
    pub fn is_heavy(&self, cores: usize) -> bool {
        self.overlap_count() > cores
    }
}

/// The full decomposition of a task set's horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    boundaries: Vec<f64>,
    subintervals: Vec<Subinterval>,
    /// For each task, the contiguous range of subinterval indices its
    /// window covers (`start..end` into `subintervals`).
    spans: Vec<(usize, usize)>,
}

/// Reusable buffers for [`Timeline::build_with`].
///
/// A timeline build is the first allocation of every per-instance pipeline
/// run: a boundary vector, a subinterval vector, and one overlap vector
/// per subinterval. Batch executors (the `esched-engine` workers) keep one
/// scratch per worker, build each instance's timeline out of it, and
/// [`recycle`](TimelineScratch::recycle) the timeline when the instance is
/// done — so after the first few instances the build allocates nothing.
#[derive(Debug, Default)]
pub struct TimelineScratch {
    boundaries: Vec<f64>,
    subintervals: Vec<Subinterval>,
    spans: Vec<(usize, usize)>,
    /// Sweep-line state: the tasks active in the current subinterval,
    /// id-ascending.
    active: Vec<TaskId>,
    /// Double buffer for the per-boundary active-set merge.
    active_next: Vec<TaskId>,
    /// CSR offsets of the per-boundary release buckets
    /// (`add_ids[add_offsets[j]..add_offsets[j+1]]` = tasks whose span
    /// starts at subinterval `j`).
    add_offsets: Vec<usize>,
    /// CSR payload of the release buckets, id-ascending per bucket.
    add_ids: Vec<TaskId>,
}

impl TimelineScratch {
    /// Empty scratch (the first build through it allocates normally).
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a finished [`Timeline`] apart and keep its buffers for the
    /// next [`Timeline::build_with`] call.
    pub fn recycle(&mut self, timeline: Timeline) {
        self.boundaries = timeline.boundaries;
        self.subintervals = timeline.subintervals;
        self.spans = timeline.spans;
    }
}

impl Timeline {
    /// Decompose `tasks` into subintervals and compute overlap sets.
    ///
    /// Runs in `O(n log n + n·N)` for `n` tasks and `N ≤ 2n` boundaries.
    ///
    /// # Examples
    ///
    /// ```
    /// use esched_subinterval::Timeline;
    /// use esched_types::TaskSet;
    ///
    /// let tasks = TaskSet::from_triples(&[
    ///     (0.0, 12.0, 4.0), (2.0, 10.0, 2.0), (4.0, 8.0, 4.0),
    /// ]);
    /// let tl = Timeline::build(&tasks);
    /// assert_eq!(tl.len(), 5);
    /// // On 2 cores, only [4, 8] (all three tasks ready) is heavy.
    /// assert_eq!(tl.heavy_indices(2), vec![2]);
    /// ```
    pub fn build(tasks: &TaskSet) -> Self {
        Self::build_with(tasks, &mut TimelineScratch::new())
    }

    /// [`Timeline::build`] reusing the buffers held by `scratch`.
    ///
    /// The returned timeline owns its storage as usual; hand it back via
    /// [`TimelineScratch::recycle`] when the instance is finished to make
    /// the next build through the same scratch allocation-free.
    pub fn build_with(tasks: &TaskSet, scratch: &mut TimelineScratch) -> Self {
        let _span = esched_obs::span!(
            esched_obs::Level::Debug,
            "timeline_build",
            n_tasks = tasks.len()
        );
        let mut boundaries = std::mem::take(&mut scratch.boundaries);
        tasks.event_points_into(&mut boundaries);
        let n_subs = boundaries.len().saturating_sub(1);
        let mut subintervals = std::mem::take(&mut scratch.subintervals);
        // Reuse surviving subintervals (and their overlap vectors) in
        // place; only the tail beyond the recycled length allocates.
        subintervals.truncate(n_subs);
        for (index, sub) in subintervals.iter_mut().enumerate() {
            sub.index = index;
            sub.interval = Interval::new(boundaries[index], boundaries[index + 1]);
            sub.overlapping.clear();
        }
        for index in subintervals.len()..n_subs {
            subintervals.push(Subinterval {
                index,
                interval: Interval::new(boundaries[index], boundaries[index + 1]),
                overlapping: Vec::new(),
            });
        }
        let mut spans = std::mem::take(&mut scratch.spans);
        spans.clear();
        spans.reserve(tasks.len());
        for (_, t) in tasks.iter() {
            let range = covering_range(&boundaries, t.release, t.deadline);
            spans.push((range.start, range.end));
        }
        // Sweep the boundaries left to right, maintaining the id-sorted
        // active set by delta encoding: at subinterval `j`, drop the tasks
        // whose span ends at `j` and merge in those whose span starts
        // there. Each subinterval's overlap list is then one bulk copy, so
        // the build is output-sized (`O(n log n + Σ_j n_j)`) instead of
        // re-scanning the boundary list per task.
        let add_offsets = &mut scratch.add_offsets;
        add_offsets.clear();
        add_offsets.resize(n_subs + 2, 0);
        // Tasks with an empty span (both endpoints collapsed onto one
        // boundary) cover no subinterval and must stay out of the add
        // buckets: the removal test below only fires for tasks that were
        // active in a *previous* subinterval, so an empty-span task merged
        // in at `a` would never be dropped again.
        for &(a, b) in spans.iter() {
            if a < b {
                add_offsets[a + 2] += 1;
            }
        }
        for k in 2..add_offsets.len() {
            add_offsets[k] += add_offsets[k - 1];
        }
        // `add_offsets[j+1]` now starts bucket `j`; the fill below advances
        // it to the bucket's end, restoring the canonical CSR offsets
        // shifted once — tasks arrive in id order, so buckets stay sorted.
        let add_ids = &mut scratch.add_ids;
        add_ids.clear();
        add_ids.resize(tasks.len(), 0);
        for (id, &(a, b)) in spans.iter().enumerate() {
            if a < b {
                add_ids[add_offsets[a + 1]] = id;
                add_offsets[a + 1] += 1;
            }
        }
        let active = &mut scratch.active;
        let next = &mut scratch.active_next;
        active.clear();
        for (j, sub) in subintervals.iter_mut().enumerate() {
            let adds = &add_ids[add_offsets[j]..add_offsets[j + 1]];
            next.clear();
            let mut add_it = adds.iter().peekable();
            for &id in active.iter() {
                if spans[id].1 == j {
                    continue; // window ended at this boundary
                }
                while let Some(&&a) = add_it.peek() {
                    if a < id {
                        next.push(a);
                        add_it.next();
                    } else {
                        break;
                    }
                }
                next.push(id);
            }
            next.extend(add_it);
            std::mem::swap(active, next);
            sub.overlapping.extend_from_slice(active);
        }
        esched_obs::metric_counter!("esched.subinterval.timeline_builds").inc();
        esched_obs::metric_histogram!("esched.subinterval.subintervals_per_build")
            .record(subintervals.len() as u64);
        Self {
            boundaries,
            subintervals,
            spans,
        }
    }

    /// Update this timeline after a single task's window was shifted,
    /// reusing the existing decomposition when possible.
    ///
    /// `tasks` must be the *updated* task set (same length, same ids) in
    /// which only `task`'s release/deadline differ from the set this
    /// timeline was built from. A shift changes the event-point multiset
    /// by at most two vacated and two new points, so the patch runs in
    /// four steps:
    ///
    /// 1. take `task` out of the overlap lists of its old span;
    /// 2. decide each vacated boundary (the old span's two endpoints)
    ///    against the event points of every *other* task:
    ///    * some point equals it bitwise — the boundary stays;
    ///    * no point is within the comparison tolerance of it — the
    ///      boundary is removed: its two subintervals merge and every
    ///      span index above it shifts down by one;
    ///    * some point is approx- but not bitwise-equal to it — the full
    ///      build's dedup would pick that point as the new representative,
    ///      so we fall back to [`Timeline::build`];
    /// 3. splice each new endpoint in exactly as
    ///    [`rebuild_inserted`](Timeline::rebuild_inserted) does, falling
    ///    back in the same approx-but-not-bitwise case;
    /// 4. add `task` to the overlap lists of its new span.
    ///
    /// Each step keeps the result bitwise identical to a full rebuild, by
    /// the argument `rebuild_inserted` documents: the dedup keeps a value
    /// iff it is not approx-equal to the previous *kept* value, so
    /// removing a point that was not kept, removing a kept point that no
    /// remaining point is near, or adding a point near no kept one never
    /// re-decides a neighbor. A vacated value whose bits another task
    /// still holds leaves the sorted sequence unchanged. Signed zeros are
    /// the one case where equal values differ in bits, so a vacated or new
    /// zero whose sign differs from a surviving one also falls back.
    ///
    /// Returns `true` when the timeline was patched in place, `false` when
    /// it fell back to a full rebuild (the result is correct either way).
    pub fn rebuild_shifted(&mut self, tasks: &TaskSet, task: TaskId) -> bool {
        debug_assert_eq!(self.spans.len(), tasks.len(), "a shift keeps every id");
        if self.patch_shifted(tasks, task) {
            return true;
        }
        *self = Timeline::build(tasks);
        false
    }

    /// The in-place half of [`Timeline::rebuild_shifted`]. On `false` the
    /// timeline is left half-patched and the caller rebuilds it.
    fn patch_shifted(&mut self, tasks: &TaskSet, task: TaskId) -> bool {
        let (old_a, old_b) = self.spans[task];
        for sub in &mut self.subintervals[old_a..old_b] {
            if let Ok(pos) = sub.overlapping.binary_search(&task) {
                sub.overlapping.remove(pos);
            }
        }
        // A placeholder no boundary removal below can shift: index
        // updates only touch values above the removed boundary.
        self.spans[task] = (0, 0);
        // Higher index first, so removing it cannot move the lower one.
        let vacated = [old_b, old_a];
        let vacated = if old_a == old_b {
            &vacated[..1]
        } else {
            &vacated[..]
        };
        for &k in vacated {
            let v = self.boundaries[k];
            match anchor(tasks, task, v) {
                Anchor::Exact => {}
                Anchor::Near => return false,
                Anchor::Free => {
                    if !self.remove_boundary(k) {
                        return false;
                    }
                }
            }
        }
        let t = tasks.get(task);
        if !(self.insert_boundary(t.release) && self.insert_boundary(t.deadline)) {
            return false;
        }
        let range = covering_range(&self.boundaries, t.release, t.deadline);
        for sub in &mut self.subintervals[range.clone()] {
            let ov = &mut sub.overlapping;
            if let Err(pos) = ov.binary_search(&task) {
                ov.reserve_exact(1);
                ov.insert(pos, task);
            }
        }
        self.spans[task] = (range.start, range.end);
        true
    }

    /// Update this timeline after a new task arrived, reusing the existing
    /// decomposition when possible.
    ///
    /// `tasks` must be the updated task set in which `task` is the *last*
    /// id and every other task is unchanged from the set this timeline was
    /// built from. Each new endpoint is handled in one of three ways:
    ///
    /// * bitwise equal to an existing boundary — nothing to do;
    /// * farther than the comparison tolerance from both neighboring
    ///   boundaries — a *clean insert*: the enclosing subinterval is split
    ///   (or a gap subinterval is prepended/appended beyond the current
    ///   horizon) and every span index above the split shifts by one;
    /// * approx- but not bitwise-equal to a boundary — the full build's
    ///   dedup could pick a different representative or cascade, so we
    ///   fall back to [`Timeline::build`].
    ///
    /// In the first two cases the result is bitwise identical to a full
    /// rebuild: an exact duplicate never changes the dedup's kept set, and
    /// a clean insert adds exactly one kept value without re-deciding any
    /// neighbor (dedup keeps a value iff it is non-approx to the previous
    /// *kept* value, which the tolerance check on both neighbors
    /// preserves).
    ///
    /// Returns `true` when the timeline was patched in place, `false` when
    /// it fell back to a full rebuild (the result is correct either way).
    pub fn rebuild_inserted(&mut self, tasks: &TaskSet, task: TaskId) -> bool {
        assert_eq!(
            task + 1,
            tasks.len(),
            "rebuild_inserted expects the arriving task to be the last id"
        );
        assert_eq!(
            self.spans.len() + 1,
            tasks.len(),
            "rebuild_inserted expects exactly one new task"
        );
        let t = tasks.get(task);
        for val in [t.release, t.deadline] {
            if !self.insert_boundary(val) {
                *self = Timeline::build(tasks);
                return false;
            }
        }
        let locate = |points: &[f64], v: f64| {
            points
                .binary_search_by(|p| p.partial_cmp(&v).expect("boundaries are finite"))
                .expect("endpoint was just inserted or matched bitwise")
        };
        let a = locate(&self.boundaries, t.release);
        let b = locate(&self.boundaries, t.deadline);
        debug_assert!(a < b, "validated window spans at least one subinterval");
        for sub in &mut self.subintervals[a..b] {
            // The arriving task has the largest id, so it always lands at
            // the tail of the id-ascending overlap lists.
            debug_assert!(sub.overlapping.last().is_none_or(|&last| last < task));
            // Grow by exactly one: a doubling would leave spare capacity
            // in every list a long event stream touches.
            sub.overlapping.reserve_exact(1);
            sub.overlapping.push(task);
        }
        self.spans.push((a, b));
        true
    }

    /// Splice boundary value `x` into the decomposition. Returns `false`
    /// when `x` is approx- but not bitwise-equal to an existing boundary
    /// (including a zero of the other sign), i.e. when only a full
    /// rebuild reproduces [`Timeline::build`].
    fn insert_boundary(&mut self, x: f64) -> bool {
        let idx = match self
            .boundaries
            .binary_search_by(|p| p.partial_cmp(&x).expect("boundaries are finite"))
        {
            Ok(k) => return self.boundaries[k].to_bits() == x.to_bits(),
            Err(idx) => idx,
        };
        let near = |k: usize| esched_types::time::approx_eq(self.boundaries[k], x);
        if (idx > 0 && near(idx - 1)) || (idx < self.boundaries.len() && near(idx)) {
            return false;
        }
        self.boundaries.insert(idx, x);
        if idx == 0 {
            // New earliest event point: a gap subinterval covered by no
            // existing task precedes the old horizon.
            self.subintervals.insert(
                0,
                Subinterval {
                    index: 0,
                    interval: Interval::new(x, self.boundaries[1]),
                    overlapping: Vec::new(),
                },
            );
            for (a, b) in self.spans.iter_mut() {
                *a += 1;
                *b += 1;
            }
        } else if idx == self.boundaries.len() - 1 {
            // New latest event point: append a gap subinterval.
            self.subintervals.push(Subinterval {
                index: idx - 1,
                interval: Interval::new(self.boundaries[idx - 1], x),
                overlapping: Vec::new(),
            });
        } else {
            // Split subinterval `idx - 1` at `x`; both halves keep the
            // overlap set of the original (no window starts or ends at a
            // non-boundary point).
            let k = idx - 1;
            let right_end = self.subintervals[k].interval.end;
            let overlapping = self.subintervals[k].overlapping.clone();
            self.subintervals[k].interval = Interval::new(self.subintervals[k].interval.start, x);
            self.subintervals.insert(
                k + 1,
                Subinterval {
                    index: k + 1,
                    interval: Interval::new(x, right_end),
                    overlapping,
                },
            );
            for (a, b) in self.spans.iter_mut() {
                if *a > k {
                    *a += 1;
                }
                if *b > k {
                    *b += 1;
                }
            }
        }
        for (index, sub) in self.subintervals.iter_mut().enumerate().skip(idx) {
            sub.index = index;
        }
        true
    }

    /// Remove boundary `k`, at which no task's window starts or ends any
    /// more: its two subintervals merge into one (a first or last
    /// boundary drops the uncovered edge subinterval instead) and every
    /// span index above `k` shifts down by one. Returns `false` when the
    /// two neighbors of `k` are approx-equal to each other — the dedup
    /// would then drop the upper one as well — or when fewer than two
    /// boundaries would remain; only a full rebuild is exact there.
    fn remove_boundary(&mut self, k: usize) -> bool {
        let last = self.boundaries.len() - 1;
        if last < 2
            || (0 < k
                && k < last
                && esched_types::time::approx_eq(self.boundaries[k - 1], self.boundaries[k + 1]))
        {
            return false;
        }
        self.boundaries.remove(k);
        if k == 0 || k == last {
            let gap = self.subintervals.remove(k.min(last - 1));
            debug_assert!(gap.overlapping.is_empty(), "edge boundary still owned");
        } else {
            // No window starts or ends at `k`, so both halves hold the
            // same tasks: keep the left list, widen it to the right end.
            let right = self.subintervals.remove(k);
            let left = &mut self.subintervals[k - 1];
            debug_assert_eq!(left.overlapping, right.overlapping);
            left.interval = Interval::new(left.interval.start, right.interval.end);
        }
        for (a, b) in self.spans.iter_mut() {
            if *a > k {
                *a -= 1;
            }
            if *b > k {
                *b -= 1;
            }
        }
        for (index, sub) in self.subintervals.iter_mut().enumerate().skip(k) {
            sub.index = index;
        }
        true
    }

    /// The boundary points `t_1 … t_N`.
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// All subintervals, in time order.
    pub fn subintervals(&self) -> &[Subinterval] {
        &self.subintervals
    }

    /// Number of subintervals `N − 1`.
    pub fn len(&self) -> usize {
        self.subintervals.len()
    }

    /// True when there are no subintervals (impossible for a validated task
    /// set; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.subintervals.is_empty()
    }

    /// Subinterval by index.
    pub fn get(&self, j: usize) -> &Subinterval {
        &self.subintervals[j]
    }

    /// `Δ_j` of subinterval `j`.
    pub fn delta(&self, j: usize) -> f64 {
        self.subintervals[j].delta()
    }

    /// The contiguous subinterval index range covered by task `i`'s window.
    pub fn span(&self, task: TaskId) -> std::ops::Range<usize> {
        let (a, b) = self.spans[task];
        a..b
    }

    /// Does task `i`'s window cover subinterval `j`? (The availability
    /// predicate behind the box constraints `0 ≤ x_{i,j} ≤ Δ_j`.)
    pub fn available(&self, task: TaskId, j: usize) -> bool {
        let (a, b) = self.spans[task];
        (a..b).contains(&j)
    }

    /// Indices of heavily overlapped subintervals for `m` cores.
    ///
    /// Allocates; hot paths should use [`Timeline::heavy_iter`].
    pub fn heavy_indices(&self, cores: usize) -> Vec<usize> {
        self.heavy_iter(cores).collect()
    }

    /// Indices of lightly overlapped subintervals for `m` cores.
    ///
    /// Allocates; hot paths should use [`Timeline::light_iter`].
    pub fn light_indices(&self, cores: usize) -> Vec<usize> {
        self.light_iter(cores).collect()
    }

    /// Iterate the indices of heavily overlapped subintervals for `m`
    /// cores, without allocating.
    pub fn heavy_iter(&self, cores: usize) -> impl Iterator<Item = usize> + '_ {
        self.subintervals
            .iter()
            .filter(move |s| s.is_heavy(cores))
            .map(|s| s.index)
    }

    /// Iterate the indices of lightly overlapped subintervals for `m`
    /// cores, without allocating.
    pub fn light_iter(&self, cores: usize) -> impl Iterator<Item = usize> + '_ {
        self.subintervals
            .iter()
            .filter(move |s| !s.is_heavy(cores))
            .map(|s| s.index)
    }

    /// Maximum overlap count over all subintervals (`max_j n_j`) — bounds
    /// the evenly-allocating method's approximation factor
    /// `(n_max/m)^{α−1}`.
    pub fn peak_overlap(&self) -> usize {
        self.subintervals
            .iter()
            .map(Subinterval::overlap_count)
            .max()
            .unwrap_or(0)
    }

    /// The number of (task, subinterval) pairs with availability — the
    /// variable count of the reformulated convex program.
    pub fn variable_count(&self) -> usize {
        self.spans.iter().map(|(a, b)| b - a).sum()
    }
}

/// How the event points of the tasks other than a shifted one anchor a
/// boundary value it vacated.
enum Anchor {
    /// Some point holds the value bitwise: the boundary stays.
    Exact,
    /// Some point is within tolerance but none holds the exact bits: the
    /// full build would keep a different representative.
    Near,
    /// No point is within tolerance: the boundary goes.
    Free,
}

fn anchor(tasks: &TaskSet, skip: TaskId, v: f64) -> Anchor {
    let (mut exact, mut near) = (false, false);
    for (id, t) in tasks.iter() {
        if id == skip {
            continue;
        }
        for p in [t.release, t.deadline] {
            let same_bits = p.to_bits() == v.to_bits();
            if p == v && !same_bits {
                // A zero of the other sign: which one the build keeps
                // depends on the order of the points.
                return Anchor::Near;
            }
            exact |= same_bits;
            near |= esched_types::time::approx_eq(p, v);
        }
    }
    if exact {
        Anchor::Exact
    } else if near {
        Anchor::Near
    } else {
        Anchor::Free
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esched_types::task::{Task, TaskSet};

    fn vd_example() -> TaskSet {
        TaskSet::from_triples(&[
            (0.0, 10.0, 8.0),
            (2.0, 18.0, 14.0),
            (4.0, 16.0, 8.0),
            (6.0, 14.0, 4.0),
            (8.0, 20.0, 10.0),
            (12.0, 22.0, 6.0),
        ])
    }

    #[test]
    fn vd_example_heavy_subintervals_are_8_10_and_12_14() {
        // The paper: on a quad-core only [8,10] and [12,14] are heavy.
        let tl = Timeline::build(&vd_example());
        assert_eq!(tl.len(), 11);
        let heavy = tl.heavy_indices(4);
        assert_eq!(heavy.len(), 2);
        let h0 = tl.get(heavy[0]);
        let h1 = tl.get(heavy[1]);
        assert_eq!((h0.interval.start, h0.interval.end), (8.0, 10.0));
        assert_eq!((h1.interval.start, h1.interval.end), (12.0, 14.0));
        // Five overlapping tasks in each.
        assert_eq!(h0.overlapping, vec![0, 1, 2, 3, 4]);
        assert_eq!(h1.overlapping, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn light_indices_complement_heavy() {
        let tl = Timeline::build(&vd_example());
        let mut all = tl.heavy_indices(4);
        all.extend(tl.light_indices(4));
        all.sort_unstable();
        assert_eq!(all, (0..11).collect::<Vec<_>>());
    }

    #[test]
    fn spans_and_availability() {
        let tl = Timeline::build(&vd_example());
        // τ0 = (0, 10): subintervals 0..5.
        assert_eq!(tl.span(0), 0..5);
        assert!(tl.available(0, 0));
        assert!(tl.available(0, 4));
        assert!(!tl.available(0, 5));
        // τ5 = (12, 22): subintervals 6..11.
        assert_eq!(tl.span(5), 6..11);
        assert!(!tl.available(5, 5));
        assert!(tl.available(5, 10));
    }

    #[test]
    fn peak_overlap_and_variable_count() {
        let tl = Timeline::build(&vd_example());
        assert_eq!(tl.peak_overlap(), 5);
        // Spans: 5 + 8 + 6 + 4 + 6 + 5 = 34 variables.
        assert_eq!(tl.variable_count(), 34);
    }

    #[test]
    fn single_task_timeline() {
        let ts = TaskSet::from_triples(&[(1.0, 5.0, 2.0)]);
        let tl = Timeline::build(&ts);
        assert_eq!(tl.len(), 1);
        assert_eq!(tl.get(0).overlapping, vec![0]);
        assert!(!tl.get(0).is_heavy(1));
        assert_eq!(tl.heavy_indices(1), Vec::<usize>::new());
    }

    #[test]
    fn heavy_definition_is_strictly_greater() {
        // Two tasks overlapping, two cores: n_j == m is *light*.
        let ts = TaskSet::from_triples(&[(0.0, 4.0, 1.0), (0.0, 4.0, 1.0)]);
        let tl = Timeline::build(&ts);
        assert!(!tl.get(0).is_heavy(2));
        assert!(tl.get(0).is_heavy(1));
    }

    #[test]
    fn disjoint_windows_never_overlap() {
        let ts = TaskSet::from_triples(&[(0.0, 2.0, 1.0), (2.0, 4.0, 1.0), (4.0, 6.0, 1.0)]);
        let tl = Timeline::build(&ts);
        assert_eq!(tl.len(), 3);
        for j in 0..3 {
            assert_eq!(tl.get(j).overlapping, vec![j]);
        }
        assert_eq!(tl.peak_overlap(), 1);
    }

    /// The pre-sweep-line builder: push each task onto every subinterval
    /// in its span. Kept as the oracle for the sweep-line equivalence test.
    fn build_naive(tasks: &TaskSet) -> Timeline {
        let boundaries = tasks.event_points();
        let n_subs = boundaries.len().saturating_sub(1);
        let mut subintervals: Vec<Subinterval> = (0..n_subs)
            .map(|index| Subinterval {
                index,
                interval: Interval::new(boundaries[index], boundaries[index + 1]),
                overlapping: Vec::new(),
            })
            .collect();
        let mut spans = Vec::with_capacity(tasks.len());
        for (id, t) in tasks.iter() {
            let range = covering_range(&boundaries, t.release, t.deadline);
            for sub in &mut subintervals[range.clone()] {
                sub.overlapping.push(id);
            }
            spans.push((range.start, range.end));
        }
        Timeline {
            boundaries,
            subintervals,
            spans,
        }
    }

    fn random_tasks(rng: &mut esched_obs::ChaCha8, n: usize) -> TaskSet {
        let triples: Vec<(f64, f64, f64)> = (0..n)
            .map(|_| {
                // Quantize to a coarse grid so boundary collisions (shared
                // event points) are common, exercising the dedup path.
                let r = (rng.gen_range_f64(0.0, 40.0) * 2.0).round() / 2.0;
                let d = r + (rng.gen_range_f64(0.5, 20.0) * 2.0).round().max(1.0) / 2.0;
                let c = rng.gen_range_f64(0.1, (d - r).max(0.2));
                (r, d, c)
            })
            .collect();
        TaskSet::from_triples(&triples)
    }

    #[test]
    fn sweep_line_matches_naive_builder_on_random_sets() {
        let mut rng = esched_obs::ChaCha8::seed_from_u64(0x7133_11ae);
        let mut scratch = TimelineScratch::new();
        for case in 0..300 {
            let n = 1 + (case % 60);
            let ts = random_tasks(&mut rng, n);
            let swept = Timeline::build_with(&ts, &mut scratch);
            let naive = build_naive(&ts);
            assert_eq!(swept, naive, "case {case} (n = {n})");
            scratch.recycle(swept);
        }
    }

    #[test]
    fn rebuild_shifted_on_existing_boundaries_matches_full_rebuild() {
        let mut rng = esched_obs::ChaCha8::seed_from_u64(0xbead);
        for case in 0..200 {
            let n = 3 + (case % 40);
            let ts = random_tasks(&mut rng, n);
            let mut tl = Timeline::build(&ts);
            let victim = rng.gen_range_usize(0, n);
            // Shift the victim's window onto two other boundary points so
            // the incremental path is exercised (it still may fall back
            // when a nudged endpoint lands within tolerance of one).
            let pts = tl.boundaries().to_vec();
            let a = rng.gen_range_usize(0, pts.len() - 1);
            let b = rng.gen_range_usize(a + 1, pts.len());
            let mut triples: Vec<(f64, f64, f64)> = ts
                .iter()
                .map(|(_, t)| (t.release, t.deadline, t.wcec))
                .collect();
            let (mut lo, mut hi) = (pts[a], pts[b]);
            // Every third case, nudge one endpoint off the exact boundary
            // value: within the comparison tolerance (the patch must spot
            // the non-bitwise match and fall back) or just outside it (a
            // genuinely new boundary).
            if case % 3 == 0 {
                let nudge = if case % 2 == 0 { 5e-8 } else { 3e-7 } * 1.0_f64.max(hi.abs());
                if case % 4 == 0 {
                    lo += nudge;
                } else {
                    hi -= nudge;
                }
            }
            let span = hi - lo;
            triples[victim] = (lo, hi, triples[victim].2.min(span * 0.9));
            let shifted = TaskSet::from_triples(&triples);
            tl.rebuild_shifted(&shifted, victim);
            assert_eq!(tl, Timeline::build(&shifted), "case {case}");
        }
    }

    #[test]
    fn rebuild_shifted_falls_back_when_endpoint_only_approx_matches_a_boundary() {
        // Another task anchors a boundary at exactly 100.0; the victim
        // moves its release to a value approx- but not bitwise-equal to
        // it. The full build keeps the smaller value as the dedup
        // representative, so patching in place would keep a stale
        // boundary value.
        let ts = TaskSet::from_triples(&[(0.0, 100.0, 5.0), (20.0, 120.0, 5.0), (40.0, 60.0, 2.0)]);
        let mut tl = Timeline::build(&ts);
        let mut triples: Vec<(f64, f64, f64)> = ts
            .iter()
            .map(|(_, t)| (t.release, t.deadline, t.wcec))
            .collect();
        triples[2] = (100.0 - 5e-6, 120.0, 2.0);
        let shifted = TaskSet::from_triples(&triples);
        tl.rebuild_shifted(&shifted, 2);
        assert_eq!(tl, Timeline::build(&shifted));
        assert!(tl.boundaries().contains(&(100.0 - 5e-6)));
        assert!(!tl.boundaries().contains(&100.0));
    }

    #[test]
    fn rebuild_shifted_falls_back_when_vacated_boundary_survives_only_approximately() {
        // The victim's old deadline 30.0 is the dedup representative;
        // another task's endpoint sits within tolerance at 30.0 + 2e-6.
        // Once the victim leaves, the full build keeps 30.0 + 2e-6 — an
        // approx-equal anchor must not be treated as keeping 30.0 alive.
        let ts =
            TaskSet::from_triples(&[(0.0, 50.0, 5.0), (10.0, 30.0 + 2e-6, 5.0), (0.0, 30.0, 2.0)]);
        let mut tl = Timeline::build(&ts);
        assert!(tl.boundaries().contains(&30.0));
        let mut triples: Vec<(f64, f64, f64)> = ts
            .iter()
            .map(|(_, t)| (t.release, t.deadline, t.wcec))
            .collect();
        triples[2] = (0.0, 50.0, 2.0);
        let shifted = TaskSet::from_triples(&triples);
        tl.rebuild_shifted(&shifted, 2);
        assert_eq!(tl, Timeline::build(&shifted));
        assert!(tl.boundaries().contains(&(30.0 + 2e-6)));
        assert!(!tl.boundaries().contains(&30.0));
    }

    #[test]
    fn rebuild_shifted_near_collapsed_window_falls_back() {
        // A valid window so narrow that both endpoints lie within
        // tolerance of boundary 20, which the victim vacates. While τ1
        // still holds 20, neither endpoint can be spliced in and the patch
        // falls back; when the victim was 20's only owner, 20 goes and
        // both endpoints become boundaries of their own.
        for (tau1_deadline, half_width, patched) in [(20.0, 1.5e-6, false), (25.0, 2e-6, true)] {
            let ts = TaskSet::from_triples(&[
                (0.0, 30.0, 5.0),
                (5.0, tau1_deadline, 3.0),
                (2.0, 20.0, 1.0),
            ]);
            let mut tl = Timeline::build(&ts);
            let mut triples: Vec<(f64, f64, f64)> = ts
                .iter()
                .map(|(_, t)| (t.release, t.deadline, t.wcec))
                .collect();
            triples[2] = (20.0 - half_width, 20.0 + half_width, 1e-7);
            let shifted = TaskSet::from_triples(&triples);
            assert_eq!(tl.rebuild_shifted(&shifted, 2), patched);
            assert_eq!(tl, Timeline::build(&shifted));
        }
    }

    /// `Timeline::build` equality plus boundary bits, so a representative
    /// that differs only in the sign of a zero is caught too.
    fn assert_matches_build(tl: &Timeline, tasks: &TaskSet, context: &str) {
        let want = Timeline::build(tasks);
        assert_eq!(*tl, want, "{context}");
        let bits = |t: &Timeline| {
            t.boundaries()
                .iter()
                .map(|b| b.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(tl), bits(&want), "{context}: boundary bits");
    }

    /// One random window move for `victim`, drawn from the shapes the
    /// online engine sees and the edge cases of the patch.
    fn random_shift(
        rng: &mut esched_obs::ChaCha8,
        ts: &TaskSet,
        victim: usize,
    ) -> (usize, f64, f64) {
        let pts = ts.event_points();
        let t = ts.get(victim);
        let (r, d) = (t.release, t.deadline);
        let tol_nudge = |x: f64| 3e-8 * 1.0_f64.max(x.abs());
        match rng.gen_range_usize(0, 7) {
            // The online workload's ±0.25 slide.
            0 => {
                let s = if rng.gen_bool(0.5) { 0.25 } else { -0.25 };
                (victim, r + s, d + s)
            }
            // Both endpoints snapped onto existing boundaries.
            1 => {
                let a = rng.gen_range_usize(0, pts.len() - 1);
                let b = rng.gen_range_usize(a + 1, pts.len());
                (victim, pts[a], pts[b])
            }
            // A sub-tolerance nudge: of the victim's own endpoint, or onto
            // another boundary approx- but not bitwise.
            2 => {
                if rng.gen_bool(0.5) {
                    (victim, r + tol_nudge(r), d)
                } else {
                    let k = rng.gen_range_usize(0, pts.len() - 1);
                    let lo = pts[k] - tol_nudge(pts[k]);
                    (victim, lo, lo.max(d) + 1.0)
                }
            }
            // The owner of the first or last boundary slides: the
            // horizon shrinks or grows.
            3 => {
                let first = rng.gen_bool(0.5);
                let owner = (0..ts.len())
                    .find(|&i| {
                        let t = ts.get(i);
                        if first {
                            t.release == pts[0]
                        } else {
                            t.deadline == pts[pts.len() - 1]
                        }
                    })
                    .expect("some task owns each edge boundary");
                let t = ts.get(owner);
                let s = rng.gen_range_f64(-3.0, 3.0);
                (owner, t.release + s, t.deadline + s)
            }
            // New endpoints bitwise on a boundary the same event vacates.
            4 => {
                let w = rng.gen_range_f64(0.5, 5.0);
                if rng.gen_bool(0.5) {
                    (victim, d, d + w)
                } else {
                    (victim, r - w, r)
                }
            }
            // Off-grid move anywhere.
            5 => {
                let lo = rng.gen_range_f64(pts[0] - 2.0, pts[pts.len() - 1] + 2.0);
                (victim, lo, lo + rng.gen_range_f64(0.3, 10.0))
            }
            // Stretch one end, keep the other.
            _ => (victim, r, d + rng.gen_range_f64(-0.5, 3.0).max(r - d + 0.1)),
        }
    }

    #[test]
    fn rebuild_shifted_matches_full_rebuild_over_random_shift_sequences() {
        let mut rng = esched_obs::ChaCha8::seed_from_u64(0x5b1f_7ed5);
        let (mut attempts, mut patched) = (0usize, 0usize);
        for case in 0..150 {
            let n = 1 + (case % 40);
            // Every other case lives on negative times.
            let offset = if case % 2 == 0 { 0.0 } else { -60.0 };
            let mut triples: Vec<(f64, f64, f64)> = random_tasks(&mut rng, n)
                .iter()
                .map(|(_, t)| (t.release + offset, t.deadline + offset, t.wcec))
                .collect();
            let mut ts = TaskSet::from_triples(&triples);
            let mut tl = Timeline::build(&ts);
            for step in 0..25 {
                let victim = rng.gen_range_usize(0, n);
                let (victim, r, d) = random_shift(&mut rng, &ts, victim);
                if Task::new(r, d, 1.0).is_err() {
                    continue;
                }
                triples[victim].0 = r;
                triples[victim].1 = d;
                ts = TaskSet::from_triples(&triples);
                attempts += 1;
                patched += usize::from(tl.rebuild_shifted(&ts, victim));
                assert_matches_build(&tl, &ts, &format!("case {case} step {step}"));
            }
        }
        // Most moves clear every tolerance check: the patch path must be
        // the one that ran, not the fallback.
        assert!(
            patched * 4 > attempts * 3,
            "only {patched} of {attempts} shifts patched in place"
        );
    }

    #[test]
    fn rebuild_shifted_patches_an_off_grid_interior_slide() {
        // τ3 = (6, 14) alone owns both its endpoints; a ±0.25 slide
        // vacates both and lands between boundaries.
        for s in [0.25, -0.25] {
            let ts = vd_example();
            let mut tl = Timeline::build(&ts);
            let mut triples: Vec<(f64, f64, f64)> = ts
                .iter()
                .map(|(_, t)| (t.release, t.deadline, t.wcec))
                .collect();
            triples[3] = (6.0 + s, 14.0 + s, 4.0);
            let shifted = TaskSet::from_triples(&triples);
            assert!(tl.rebuild_shifted(&shifted, 3), "slide {s} fell back");
            assert_matches_build(&tl, &shifted, &format!("slide {s}"));
            assert!(!tl.boundaries().contains(&6.0) && !tl.boundaries().contains(&14.0));
        }
    }

    #[test]
    fn rebuild_shifted_falls_back_on_a_zero_of_the_other_sign() {
        let shift = |triples: &[(f64, f64, f64)], victim: usize, window: (f64, f64)| {
            let ts = TaskSet::from_triples(triples);
            let mut tl = Timeline::build(&ts);
            let mut moved = triples.to_vec();
            (moved[victim].0, moved[victim].1) = window;
            let shifted = TaskSet::from_triples(&moved);
            assert!(!tl.rebuild_shifted(&shifted, victim));
            assert_matches_build(&tl, &shifted, "signed zero");
            tl.boundaries()[0].to_bits()
        };
        // τ0's +0.0 is the representative; τ2 still holds +0.0 bitwise,
        // but once τ0 leaves, τ1's -0.0 comes first in the build's stable
        // order and becomes the representative.
        let vacated = shift(
            &[(0.0, 10.0, 1.0), (-0.0, 5.0, 1.0), (0.0, 8.0, 1.0)],
            0,
            (1.0, 10.0),
        );
        assert_eq!(vacated, (-0.0_f64).to_bits());
        // τ0 moves onto -0.0 while τ1's +0.0 is the representative: τ0's
        // point sorts first, so the build keeps -0.0.
        let landed = shift(&[(1.0, 10.0, 1.0), (0.0, 5.0, 1.0)], 0, (-0.0, 10.0));
        assert_eq!(landed, (-0.0_f64).to_bits());
    }

    #[test]
    fn rebuild_inserted_matches_full_rebuild_on_random_arrivals() {
        let mut rng = esched_obs::ChaCha8::seed_from_u64(0x0a11_5eed);
        for case in 0..300 {
            let n = 2 + (case % 40);
            let ts = random_tasks(&mut rng, n);
            let mut tl = Timeline::build(&ts);
            let pts = tl.boundaries().to_vec();
            let last = *pts.last().unwrap();
            // Mix of arrival shapes: on existing boundaries, off-grid,
            // beyond the horizon, before the first release, and within
            // tolerance of a boundary (which must fall back).
            let (r, d) = match case % 5 {
                0 => {
                    let a = rng.gen_range_usize(0, pts.len() - 1);
                    let b = rng.gen_range_usize(a + 1, pts.len());
                    (pts[a], pts[b])
                }
                1 => {
                    let r = rng.gen_range_f64(0.0, 40.0);
                    (r, r + rng.gen_range_f64(0.5, 20.0))
                }
                2 => {
                    let r = last + rng.gen_range_f64(0.5, 5.0);
                    (r, r + rng.gen_range_f64(0.5, 5.0))
                }
                3 => (
                    pts[0] - rng.gen_range_f64(0.5, 5.0),
                    pts[rng.gen_range_usize(0, pts.len())],
                ),
                _ => {
                    let k = rng.gen_range_usize(0, pts.len());
                    let r = pts[k] + 3e-8 * 1.0_f64.max(pts[k].abs());
                    (r, r + rng.gen_range_f64(0.5, 10.0))
                }
            };
            let c = rng.gen_range_f64(0.1, (d - r).max(0.2));
            let mut triples: Vec<(f64, f64, f64)> = ts
                .iter()
                .map(|(_, t)| (t.release, t.deadline, t.wcec))
                .collect();
            triples.push((r, d, c));
            let grown = TaskSet::from_triples(&triples);
            tl.rebuild_inserted(&grown, n);
            assert_eq!(tl, Timeline::build(&grown), "case {case} (n = {n})");
        }
    }

    #[test]
    fn rebuild_inserted_splits_subintervals_and_appends_gap() {
        let ts = vd_example();
        let mut tl = Timeline::build(&ts);
        // (5, 27): release splits [4, 6] in two, deadline extends the
        // horizon past 22 with a gap subinterval [22, 27].
        let mut triples: Vec<(f64, f64, f64)> = ts
            .iter()
            .map(|(_, t)| (t.release, t.deadline, t.wcec))
            .collect();
        triples.push((5.0, 27.0, 3.0));
        let grown = TaskSet::from_triples(&triples);
        tl.rebuild_inserted(&grown, 6);
        assert_eq!(tl, Timeline::build(&grown));
        assert!(tl.boundaries().contains(&5.0));
        assert!(tl.boundaries().contains(&27.0));
        assert_eq!(tl.len(), 13);
        assert_eq!(tl.span(6), 3..13);
    }

    #[test]
    fn rebuild_shifted_off_grid_falls_back_to_full_rebuild() {
        let ts = vd_example();
        let mut tl = Timeline::build(&ts);
        // Move τ3, the only owner of 6 and 14, to an off-boundary window:
        // the decomposition changes at all four points.
        let mut triples: Vec<(f64, f64, f64)> = ts
            .iter()
            .map(|(_, t)| (t.release, t.deadline, t.wcec))
            .collect();
        triples[3] = (5.0, 13.0, 3.0);
        let shifted = TaskSet::from_triples(&triples);
        tl.rebuild_shifted(&shifted, 3);
        assert_eq!(tl, Timeline::build(&shifted));
        assert!(tl.boundaries().contains(&5.0));
        assert!(tl.boundaries().contains(&13.0));
    }

    #[test]
    fn heavy_and_light_iters_match_indices() {
        let tl = Timeline::build(&vd_example());
        for m in 1..=6 {
            assert_eq!(tl.heavy_iter(m).collect::<Vec<_>>(), tl.heavy_indices(m));
            assert_eq!(tl.light_iter(m).collect::<Vec<_>>(), tl.light_indices(m));
        }
    }

    #[test]
    fn intro_example_timeline() {
        // Fig. 1(a) tasks on 2 cores: only [4, 8] is heavy.
        let ts = TaskSet::from_triples(&[(0.0, 12.0, 4.0), (2.0, 10.0, 2.0), (4.0, 8.0, 4.0)]);
        let tl = Timeline::build(&ts);
        assert_eq!(tl.len(), 5);
        assert_eq!(tl.heavy_indices(2), vec![2]);
        let h = tl.get(2);
        assert_eq!((h.interval.start, h.interval.end), (4.0, 8.0));
        assert_eq!(h.overlapping, vec![0, 1, 2]);
    }
}
