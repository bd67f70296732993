//! Schedule legality checking.
//!
//! A schedule is *legal* for a task set on `m` cores when:
//!
//! 1. no two segments on the same core overlap in time,
//! 2. no task executes on two cores at the same time (the migration model
//!    allows moving, not cloning),
//! 3. every segment lies inside its task's `[R_i, D_i]` window,
//! 4. every task receives at least its execution requirement `C_i`,
//! 5. every segment references a valid core (`< m`).
//!
//! [`validate_schedule`] collects *all* violations rather than stopping at
//! the first, which makes property-test failures and simulator diagnostics
//! actionable.

use crate::schedule::{Schedule, Segment};
use crate::task::{TaskId, TaskSet};
use crate::time::{compensated_sum, EPS};
use std::fmt;

/// A single legality violation.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Two segments on the same core overlap.
    CoreOverlap {
        /// The core.
        core: usize,
        /// First segment's task.
        task_a: TaskId,
        /// Second segment's task.
        task_b: TaskId,
        /// Length of the overlapping region.
        overlap: f64,
    },
    /// One task runs concurrently with itself on two cores.
    SelfOverlap {
        /// The task.
        task: TaskId,
        /// Length of the overlapping region.
        overlap: f64,
    },
    /// A segment starts before its task's release or ends after its
    /// deadline.
    OutsideWindow {
        /// The task.
        task: TaskId,
        /// Segment start.
        start: f64,
        /// Segment end.
        end: f64,
    },
    /// A task finishes with less work than its requirement.
    Underserved {
        /// The task.
        task: TaskId,
        /// Work the schedule delivers.
        delivered: f64,
        /// Work the task requires.
        required: f64,
    },
    /// A segment references a core index `≥ m`.
    BadCore {
        /// The task whose segment is misplaced.
        task: TaskId,
        /// The out-of-range core index.
        core: usize,
    },
    /// A segment references a task id `≥ n`.
    BadTask {
        /// The out-of-range task id.
        task: TaskId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::CoreOverlap {
                core,
                task_a,
                task_b,
                overlap,
            } => write!(
                f,
                "core {core}: tasks {task_a} and {task_b} overlap by {overlap:.6}"
            ),
            Violation::SelfOverlap { task, overlap } => {
                write!(
                    f,
                    "task {task} runs on two cores simultaneously ({overlap:.6})"
                )
            }
            Violation::OutsideWindow { task, start, end } => {
                write!(
                    f,
                    "task {task}: segment [{start:.6}, {end:.6}] outside window"
                )
            }
            Violation::Underserved {
                task,
                delivered,
                required,
            } => write!(
                f,
                "task {task}: delivered {delivered:.6} < required {required:.6}"
            ),
            Violation::BadCore { task, core } => {
                write!(f, "task {task}: segment on nonexistent core {core}")
            }
            Violation::BadTask { task } => write!(f, "segment references unknown task {task}"),
        }
    }
}

/// Result of validation: either legal, or the full list of violations.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Every violation found.
    pub violations: Vec<Violation>,
}

impl ValidationReport {
    /// True when the schedule is legal.
    pub fn is_legal(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with a readable listing if illegal — for tests.
    ///
    /// # Panics
    /// When any violation was recorded.
    pub fn assert_legal(&self) {
        if !self.is_legal() {
            let msgs: Vec<String> = self.violations.iter().map(|v| v.to_string()).collect();
            panic!("illegal schedule:\n  {}", msgs.join("\n  "));
        }
    }
}

/// Tolerance used for work-completion checks; looser than [`EPS`] because
/// delivered work multiplies times by frequencies, compounding rounding.
pub const WORK_TOL: f64 = 1e-6;

/// Check all legality conditions of `schedule` against `tasks`.
///
/// `schedule.cores` is taken as `m`. Window and work checks are tolerant
/// ([`EPS`] for geometry, [`WORK_TOL`] relative for work).
///
/// Runs in O(S log S) for S segments: the segments are bucketed per core
/// and per task once, instead of filtered once per core and per task.
pub fn validate_schedule(schedule: &Schedule, tasks: &TaskSet) -> ValidationReport {
    let mut violations = Vec::new();
    let n = tasks.len();
    let segments = schedule.segments();

    // 5 + bad task ids.
    for seg in segments {
        if seg.core >= schedule.cores {
            violations.push(Violation::BadCore {
                task: seg.task,
                core: seg.core,
            });
        }
        if seg.task >= n {
            violations.push(Violation::BadTask { task: seg.task });
        }
    }
    // Don't try window/work checks for out-of-range tasks.
    if violations
        .iter()
        .any(|v| matches!(v, Violation::BadTask { .. }))
    {
        return ValidationReport { violations };
    }

    // Segment indices per core and per task, in insertion order.
    let mut by_core: Vec<Vec<usize>> = vec![Vec::new(); schedule.cores];
    let mut by_task: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, seg) in segments.iter().enumerate() {
        if let Some(bucket) = by_core.get_mut(seg.core) {
            bucket.push(i);
        }
        by_task[seg.task].push(i);
    }
    // Summed in insertion order, as `Schedule::work_of` does, so the sums
    // round identically.
    let delivered: Vec<f64> = by_task
        .iter()
        .map(|bucket| compensated_sum(bucket.iter().map(|&i| segments[i].work())))
        .collect();

    // 1. Per-core overlap.
    for (core, bucket) in by_core.iter_mut().enumerate() {
        for (a, b, overlap) in neighbour_overlaps(segments, bucket) {
            violations.push(Violation::CoreOverlap {
                core,
                task_a: a.task,
                task_b: b.task,
                overlap,
            });
        }
    }

    // 2. Per-task self-overlap.
    for (task, bucket) in by_task.iter_mut().enumerate() {
        for (_, _, overlap) in neighbour_overlaps(segments, bucket) {
            violations.push(Violation::SelfOverlap { task, overlap });
        }
    }

    // 3. Window containment.
    for seg in segments {
        let t = tasks.get(seg.task);
        if !t.window().covers(&seg.interval) {
            violations.push(Violation::OutsideWindow {
                task: seg.task,
                start: seg.interval.start,
                end: seg.interval.end,
            });
        }
    }

    // 4. Work completion.
    for ((id, t), &delivered) in tasks.iter().zip(&delivered) {
        if delivered < t.wcec * (1.0 - WORK_TOL) - WORK_TOL {
            violations.push(Violation::Underserved {
                task: id,
                delivered,
                required: t.wcec,
            });
        }
    }

    ValidationReport { violations }
}

/// Overlaps longer than [`EPS`] between start-time neighbours of `bucket`
/// (indices into `segments`). The bucket is first sorted by start time,
/// stably, as `Schedule::core_segments` sorts; any overlap then shows
/// between neighbours.
fn neighbour_overlaps<'a>(
    segments: &'a [Segment],
    bucket: &'a mut [usize],
) -> impl Iterator<Item = (&'a Segment, &'a Segment, f64)> + 'a {
    bucket.sort_by(|&a, &b| {
        segments[a]
            .interval
            .start
            .partial_cmp(&segments[b].interval.start)
            .expect("finite segment times")
    });
    let bucket: &'a [usize] = bucket;
    bucket.windows(2).filter_map(move |w| {
        let (a, b) = (&segments[w[0]], &segments[w[1]]);
        let overlap = a.interval.overlap_len(&b.interval);
        (overlap > EPS).then_some((a, b, overlap))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSet;

    fn tasks() -> TaskSet {
        TaskSet::from_triples(&[(0.0, 12.0, 4.0), (2.0, 10.0, 2.0), (4.0, 8.0, 4.0)])
    }

    /// The paper's Fig. 2(b) optimal 2-core schedule for the intro tasks.
    fn legal_schedule() -> Schedule {
        let mut s = Schedule::new(2);
        // τ0: total time y1 + x1 = 8 + 8/3 at f = 4/(32/3) = 0.375.
        let f0 = 4.0 / (8.0 + 8.0 / 3.0);
        s.push(Segment::new(0, 0, 0.0, 4.0, f0));
        s.push(Segment::new(0, 0, 4.0, 4.0 + 8.0 / 3.0, f0));
        s.push(Segment::new(0, 0, 8.0, 12.0, f0));
        // τ1: y2 + x2 = 4 + 4/3 at f = 2/(16/3) = 0.375.
        let f1 = 2.0 / (4.0 + 4.0 / 3.0);
        s.push(Segment::new(1, 1, 2.0, 4.0, f1));
        // Middle piece lands on M0 right after τ0's middle piece ends.
        s.push(Segment::new(1, 0, 4.0 + 8.0 / 3.0, 8.0, f1));
        s.push(Segment::new(1, 1, 8.0, 10.0, f1));
        // τ2: x3 = 4 at f = 1 — needs a core for the whole of [4, 8], so
        // give it M1 exclusively and move τ1's middle piece onto M0 after
        // τ0's piece ends.
        s.push(Segment::new(2, 1, 4.0, 8.0, 1.0));
        s
    }

    #[test]
    fn paper_fig2b_schedule_is_legal() {
        let report = validate_schedule(&legal_schedule(), &tasks());
        report.assert_legal();
    }

    #[test]
    fn detects_core_overlap() {
        let mut s = Schedule::new(1);
        s.push(Segment::new(0, 0, 0.0, 6.0, 1.0));
        s.push(Segment::new(1, 0, 5.0, 8.0, 1.0));
        let ts = TaskSet::from_triples(&[(0.0, 12.0, 6.0), (0.0, 12.0, 3.0)]);
        let report = validate_schedule(&s, &ts);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::CoreOverlap { core: 0, .. })));
    }

    #[test]
    fn detects_self_overlap_across_cores() {
        let mut s = Schedule::new(2);
        s.push(Segment::new(0, 0, 0.0, 4.0, 0.5));
        s.push(Segment::new(0, 1, 2.0, 6.0, 0.5));
        let ts = TaskSet::from_triples(&[(0.0, 12.0, 4.0)]);
        let report = validate_schedule(&s, &ts);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::SelfOverlap { task: 0, .. })));
    }

    #[test]
    fn detects_window_violation() {
        let mut s = Schedule::new(1);
        s.push(Segment::new(0, 0, 0.0, 5.0, 1.0));
        let ts = TaskSet::from_triples(&[(1.0, 12.0, 5.0)]); // released at 1
        let report = validate_schedule(&s, &ts);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::OutsideWindow { task: 0, .. })));
    }

    #[test]
    fn detects_underserved_task() {
        let mut s = Schedule::new(1);
        s.push(Segment::new(0, 0, 0.0, 2.0, 1.0)); // delivers 2 < 4
        let ts = TaskSet::from_triples(&[(0.0, 12.0, 4.0)]);
        let report = validate_schedule(&s, &ts);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Underserved { task: 0, .. })));
    }

    #[test]
    fn detects_bad_core_and_task() {
        let mut s = Schedule::new(1);
        s.push(Segment::new(0, 3, 0.0, 4.0, 1.0));
        let ts = TaskSet::from_triples(&[(0.0, 12.0, 4.0)]);
        let report = validate_schedule(&s, &ts);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::BadCore { core: 3, .. })));

        let mut s = Schedule::new(1);
        s.push(Segment::new(7, 0, 0.0, 4.0, 1.0));
        let report = validate_schedule(&s, &ts);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::BadTask { task: 7 })));
    }

    #[test]
    fn back_to_back_segments_do_not_overlap() {
        let mut s = Schedule::new(1);
        s.push(Segment::new(0, 0, 0.0, 4.0, 1.0));
        s.push(Segment::new(1, 0, 4.0, 8.0, 0.5));
        let ts = TaskSet::from_triples(&[(0.0, 12.0, 4.0), (0.0, 12.0, 2.0)]);
        validate_schedule(&s, &ts).assert_legal();
    }

    #[test]
    fn work_tolerance_accepts_rounding_noise() {
        let mut s = Schedule::new(1);
        // Deliver 4·(1−1e-9) ≈ 4: inside tolerance.
        s.push(Segment::new(0, 0, 0.0, 4.0, 1.0 - 1e-9));
        let ts = TaskSet::from_triples(&[(0.0, 12.0, 4.0)]);
        validate_schedule(&s, &ts).assert_legal();
    }
}
