//! The single-sweep fast path of [`simulate`](crate::simulate).
//!
//! The event loop in [`crate::engine`] lists every event, sorts the list
//! and walks it in batches of near-equal times. For a schedule in
//! canonical (start, core, task) order whose cores never double-book and
//! whose tasks all meet their deadlines, the order that sort computes is
//! already in the segment list: filtered by core it is each core's
//! execution order, and filtered by task it is the order in which the
//! task's work is credited. [`sweep`] walks the list once with per-core
//! and per-task state and builds the [`SimReport`] the event loop would,
//! bit for bit. Whenever it cannot show that, it returns `None`, and
//! `simulate` runs the event loop.
//!
//! # Why the report is the event loop's
//!
//! The sweep falls back unless every segment has finite boundaries with
//! `start < end`, a finite frequency `≥ 0`, a core `< cores` and a task
//! `< n`, and the list is canonical. It then requires, comparing exactly:
//!
//! * **Per core, `end ≤ start` of the next segment.** The event loop then
//!   runs each core's segments one after another, and the sweep calls the
//!   same [`Core::start`]/[`Core::stop`] in the same order, so energy, busy
//!   time, activations and transitions match. Handovers (`end == start`)
//!   are fine: ends rank before starts. An overlap falls back, because in
//!   the event loop batch membership decides whether it is a conflict.
//! * **Per task, ends that do not decrease in list order.** The event loop
//!   credits a task's work as its ends are processed: in (time, segment
//!   index) order, except that a segment whose start and end share an
//!   event batch (shorter than the batching tolerance) has its end
//!   *deferred* until its core's next start in the batch, or the end of
//!   the batch. A self-overlap is not a reason to fall back: McNaughton
//!   wrap-around splits often overlap a task with itself by an ulp across
//!   two cores, and the event loop credits them in list order. Starts are
//!   never deferred, so preemptions and migrations, counted from the
//!   task's previous core, follow list order too.
//! * **No two deferred ends of one task in one batch, unless their order
//!   does not matter.** Two deferred ends of a task can be credited out of
//!   list order (the later one's core may reach its next start first). Both
//!   segments then lie inside one batch, so the second ends within
//!   `EPS·max(1, |t|)` of the first's start; the sweep treats any such
//!   pair as a possible swap. It checks that `(w + a) + b` and
//!   `(w + b) + a` round to the same value, and falls back when they do
//!   not, or when a third segment of the task is that close as well.
//! * **Every segment ends at or before its task's deadline.** All of a
//!   task's work is then credited at or before its deadline event, except
//!   for deferred ends in the deadline's own batch: those are dust
//!   segments ranked after the deadline, which the event loop credits to
//!   the shortfall separately (the `pending` sum). So both paths decide the
//!   miss verdict on the same exact quantity, `wcec − W`, rounded
//!   differently; the margin below covers that.
//!
//! # The miss margin
//!
//! The sweep only decides "no miss", and only when its shortfall
//! `ŝ = wcec ⊖ Ŵ` clears the event loop's threshold by
//! `(k + 2)·ε·(wcec + Ŵ)` for `k` credited segments (ε the machine
//! epsilon, `u = ε/2` the unit roundoff). Both paths add the same `k`
//! nonnegative products. The sweep sums them in one sequence, within
//! `(k − 1)·u·W` of the exact `W`, and subtracts once: `ŝ` is within
//! `k·u·(wcec + W)` of `wcec − W`, up to second-order terms. The event
//! loop sums a credited part and a pending part separately and subtracts
//! twice, which gives the same bound. The two computed shortfalls are
//! thus within `2k·u·(wcec + W) = k·ε·(wcec + W)` of each other, and the
//! `2·ε·(wcec + W)` left over absorbs the second-order terms and the
//! rounding of the margin itself. Anything closer to the threshold, and
//! any miss, falls back, so the event loop produces every miss list.

use crate::machine::Core;
use crate::metrics::SimReport;
use esched_types::time::EPS;
use esched_types::validate::WORK_TOL;
use esched_types::{PowerModel, Schedule, TaskSet};

/// `core` of a task that has not run yet.
const NO_CORE: u32 = u32::MAX;

/// A task's deadline, its work so far, and what the sweep remembers of
/// its previous segment, in one 64-byte record: the sweep's only access
/// per segment that does not follow the segment list.
#[derive(Clone, Copy)]
struct TaskState {
    deadline: f64,
    work: f64,
    start: f64,
    end: f64,
    /// The task's work before its previous segment was credited, and
    /// that segment's credit.
    before: f64,
    credit: f64,
    core: u32,
    /// Segments credited so far.
    segments: u32,
    /// The previous segment might be deferred in one batch with its own
    /// predecessor.
    paired: bool,
}

/// The event loop's report for `schedule`, computed in one pass over its
/// segments, or `None` when the pass cannot show it equal (see the module
/// docs).
pub(crate) fn sweep<P: PowerModel>(
    schedule: &Schedule,
    tasks: &TaskSet,
    model: &P,
) -> Option<SimReport> {
    let segments = schedule.segments();
    let mut cores = vec![Core::default(); schedule.cores];
    let mut core_end = vec![f64::NEG_INFINITY; schedule.cores];
    let mut states: Vec<TaskState> = tasks
        .iter()
        .map(|(_, t)| TaskState {
            deadline: t.deadline,
            work: 0.0,
            start: f64::NEG_INFINITY,
            end: f64::NEG_INFINITY,
            before: 0.0,
            credit: 0.0,
            core: NO_CORE,
            segments: 0,
            paired: false,
        })
        .collect();
    let (mut preemptions, mut migrations) = (0usize, 0usize);
    let mut prev = None;
    for seg in segments {
        let (start, end, freq) = (seg.interval.start, seg.interval.end, seg.freq);
        let finite = start.is_finite() && end.is_finite() && freq.is_finite();
        if !(finite && start < end && freq >= 0.0) {
            return None;
        }
        let key = (start, seg.core, seg.task);
        if prev.is_some_and(|p| p > key) {
            return None;
        }
        prev = Some(key);
        let core = cores.get_mut(seg.core)?;
        let at = u32::try_from(seg.core).ok()?;
        let task = states.get_mut(seg.task)?;
        if core_end[seg.core] > start || task.end > end || end > task.deadline {
            return None;
        }
        core_end[seg.core] = end;

        // `+ 0.0` reads −0.0 as +0.0, as the event loop's keys do. With
        // `start < end` that leaves the duration's bits unchanged.
        core.start(seg.task, freq, start + 0.0).ok()?;
        let (_, credit) = core.stop(end + 0.0, model)?;
        let before = task.work;
        let work = before + credit;

        let mut paired = false;
        if task.core != NO_CORE {
            preemptions += 1;
            migrations += usize::from(task.core != at);
            let scale = 1.0_f64.max(task.start.abs()).max(end.abs());
            paired = end - task.start <= 2.0 * EPS * scale;
            let swapped = (task.before + credit) + task.credit;
            if paired && (task.paired || swapped.to_bits() != work.to_bits()) {
                return None;
            }
        }
        *task = TaskState {
            work,
            start,
            end,
            before,
            credit,
            core: at,
            segments: task.segments + 1,
            paired,
            ..*task
        };
    }

    for (task, state) in tasks.tasks().iter().zip(&states) {
        let (wcec, work) = (task.wcec, state.work);
        let margin = (f64::from(state.segments) + 2.0) * f64::EPSILON * (wcec + work);
        if !(margin.is_finite() && wcec - work <= wcec * WORK_TOL + WORK_TOL - margin) {
            return None;
        }
    }

    let queue_peak = 2 * (segments.len() + tasks.len());
    let horizon = tasks.horizon();
    Some(SimReport {
        energy: cores.iter().map(|c| c.energy).sum(),
        core_energy: cores.iter().map(|c| c.energy).collect(),
        core_busy: cores.iter().map(|c| c.busy).collect(),
        work_done: states.iter().map(|t| t.work).collect(),
        deadline_misses: Vec::new(),
        conflicts: Vec::new(),
        activations: cores.iter().map(|c| c.activations).collect(),
        core_transitions: cores.iter().map(|c| 2 * c.activations).collect(),
        queue_peak,
        preemptions,
        migrations,
        horizon: (horizon.start, horizon.end),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate_traced;
    use crate::simulate;
    use esched_obs::rng::ChaCha8;
    use esched_types::{PolynomialPower, Segment, Task};

    /// `Debug` prints every `f64` so that it reads back to the same bits,
    /// with −0.0 distinct from +0.0: equal strings are equal reports, bit
    /// for bit, in every field.
    fn bits(report: &SimReport) -> String {
        format!("{report:?}")
    }

    fn schedule_of(cores: usize, segments: &[Segment]) -> Schedule {
        let mut s = Schedule::new(cores);
        for &seg in segments {
            s.push_exact(seg);
        }
        s
    }

    /// The sweep takes `schedule` and reports what the event loop does.
    fn assert_fast(schedule: &Schedule, tasks: &TaskSet, power: &PolynomialPower) {
        let oracle = simulate_traced(schedule, tasks, power).0;
        let fast = sweep(schedule, tasks, power)
            .unwrap_or_else(|| panic!("fell back on {schedule:?}; event loop: {oracle:?}"));
        assert_eq!(bits(&fast), bits(&oracle), "{schedule:?}");
        assert_eq!(bits(&simulate(schedule, tasks, power)), bits(&oracle));
    }

    /// The sweep declines `schedule`, and `simulate` reports what the event
    /// loop does.
    fn assert_falls_back(schedule: &Schedule, tasks: &TaskSet, power: &PolynomialPower) {
        assert!(sweep(schedule, tasks, power).is_none(), "{schedule:?}");
        let oracle = simulate_traced(schedule, tasks, power).0;
        assert_eq!(bits(&simulate(schedule, tasks, power)), bits(&oracle));
    }

    /// Paper-style tasks: release U[0, 200), C U[10, 30), intensity in
    /// {0.1, …, 1.0}, `D = R + C/intensity`; shifted to `offset`.
    fn paper_tasks(rng: &mut ChaCha8, n: usize, offset: f64) -> TaskSet {
        let tasks = (0..n)
            .map(|_| {
                let release = offset + rng.gen_range_f64(0.0, 200.0);
                let wcec = rng.gen_range_f64(10.0, 30.0);
                let intensity = rng.gen_range_usize(1, 11) as f64 / 10.0;
                Task::of(release, release + wcec / intensity, wcec)
            })
            .collect();
        TaskSet::new(tasks).expect("valid tasks")
    }

    /// Tasks on a coarse grid, so releases and deadlines tie exactly.
    fn grid_tasks(rng: &mut ChaCha8, n: usize) -> TaskSet {
        let tasks = (0..n)
            .map(|_| {
                let release = rng.gen_range_usize(0, 8) as f64 * 2.5;
                let len = rng.gen_range_usize(1, 8) as f64 * 2.5;
                Task::of(release, release + len, rng.gen_range_f64(0.5, len))
            })
            .collect();
        TaskSet::new(tasks).expect("valid tasks")
    }

    #[test]
    fn matches_the_event_loop_on_der_and_even_schedules() {
        let mut rng = ChaCha8::seed_from_u64(0xfa57_0001);
        let mut fast = 0;
        let mut total = 0;
        for round in 0..240 {
            let n = [5, 10, 15, 20, 40][round % 5];
            let cores = rng.gen_range_usize(1, 6);
            let power = PolynomialPower::paper(rng.gen_range_f64(2.0, 3.0), 0.2);
            let tasks = match round % 3 {
                0 => paper_tasks(&mut rng, n, 0.0),
                1 => paper_tasks(&mut rng, n, -1e3),
                _ => grid_tasks(&mut rng, n),
            };
            for outcome in [
                esched_core::der_schedule(&tasks, cores, &power),
                esched_core::even_schedule(&tasks, cores, &power),
            ] {
                for schedule in [&outcome.intermediate_schedule, &outcome.schedule] {
                    let oracle = simulate_traced(schedule, &tasks, &power).0;
                    if let Some(report) = sweep(schedule, &tasks, &power) {
                        assert_eq!(bits(&report), bits(&oracle), "{schedule:?}");
                        fast += 1;
                    }
                    assert_eq!(bits(&simulate(schedule, &tasks, &power)), bits(&oracle));
                    total += 1;
                }
            }
        }
        assert_eq!(
            fast, total,
            "fast path taken on {fast} of {total} schedules"
        );
    }

    #[test]
    fn takes_handovers_signed_zeros_and_negative_times() {
        let power = PolynomialPower::paper(3.0, 0.1);
        // Back-to-back handovers on one core, `end == start` exactly.
        let tasks = TaskSet::from_triples(&[(0.0, 4.0, 2.0), (0.0, 8.0, 2.0), (0.0, 9.0, 1.0)]);
        let s = schedule_of(
            1,
            &[
                Segment::new(0, 0, 0.0, 4.0, 0.5),
                Segment::new(1, 0, 4.0, 6.0, 1.0),
                Segment::new(2, 0, 6.0, 8.0, 0.5),
            ],
        );
        assert_fast(&s, &tasks, &power);
        // ±0.0 boundaries, either way round.
        let tasks = TaskSet::from_triples(&[(-2.0, 0.0, 2.0), (0.0, 2.0, 2.0)]);
        for (end, start) in [(-0.0, 0.0), (0.0, -0.0)] {
            let s = schedule_of(
                1,
                &[
                    Segment::new(0, 0, -2.0, end, 1.0),
                    Segment::new(1, 0, start, 2.0, 1.0),
                ],
            );
            assert_fast(&s, &tasks, &power);
        }
        // Negative times, a migration and a preemption.
        let tasks = TaskSet::from_triples(&[(-9.0, -1.0, 4.0), (-9.0, -3.0, 3.0)]);
        let s = schedule_of(
            2,
            &[
                Segment::new(0, 0, -9.0, -7.0, 1.0),
                Segment::new(1, 1, -9.0, -6.0, 1.0),
                Segment::new(0, 1, -6.0, -4.0, 1.0),
            ],
        );
        assert_fast(&s, &tasks, &power);
    }

    #[test]
    fn takes_an_ulp_self_overlap_across_two_cores() {
        // A McNaughton wrap-around split whose head ends one ulp after its
        // tail starts on the other core.
        let power = PolynomialPower::paper(3.0, 0.1);
        let tasks = TaskSet::from_triples(&[(0.0, 5.0, 3.0), (0.0, 5.0, 5.0)]);
        let s = schedule_of(
            2,
            &[
                Segment::new(0, 0, 0.0, 3.0, 1.0),
                Segment::new(1, 1, 0.0, 3.0_f64.next_up(), 1.0),
                Segment::new(1, 0, 3.0, 5.0, 1.0),
            ],
        );
        assert_fast(&s, &tasks, &power);
        let r = sweep(&s, &tasks, &power).unwrap();
        assert_eq!((r.preemptions, r.migrations), (1, 1));
    }

    #[test]
    fn takes_dust_segments_ending_exactly_at_a_deadline() {
        // Each dust piece is shorter than the batching tolerance at t = 10
        // (1e-6), so its start and end share the deadline's batch, its end
        // is deferred, and the event loop credits it to the shortfall after
        // the deadline. Its work exceeds the miss threshold, so that credit
        // decides the verdict.
        let power = PolynomialPower::paper(3.0, 0.1);
        let dust = 4e-7;
        let at = 10.0 - dust;
        let late = 50.0 * (10.0 - at);
        let tasks = TaskSet::from_triples(&[
            (0.0, 12.0, at),
            (0.0, 10.0, 5.0 + late),
            (0.0, 10.0, 4.0 + late),
            (9.0, 14.0, 4.0),
        ]);
        let s = schedule_of(
            3,
            &[
                Segment::new(0, 0, 0.0, at, 1.0),
                Segment::new(1, 1, 0.0, 5.0, 1.0),
                Segment::new(2, 2, 0.0, 4.0, 1.0),
                Segment::new(1, 0, at, 10.0, 50.0),
                Segment::new(2, 1, at, 10.0, 50.0),
                Segment::new(3, 0, 10.0, 14.0, 1.0),
            ],
        );
        let (oracle, log) = simulate_traced(&s, &tasks, &power);
        assert!(oracle.is_clean(), "{oracle:?}");
        // The dust ends are logged after both deadlines: they were deferred.
        let kinds: Vec<&str> = log
            .iter()
            .filter(|e| e.time == 10.0)
            .map(|e| e.kind.as_str())
            .collect();
        assert_eq!(
            kinds,
            ["deadline", "deadline", "end", "start", "end"],
            "{log:?}"
        );
        assert_fast(&s, &tasks, &power);
    }

    /// Task 0 runs `[0, 5]` on core 2, then two dust pieces of ~2e-7 in one
    /// event batch at t = 10: `a` on core 1 at frequency `fa`, then `b` on
    /// core 0 at 0.7. Core 0 reaches its next start before core 1 does, so
    /// the event loop credits `b` before `a`.
    fn swapped_dust(fa: f64) -> (Schedule, TaskSet) {
        let (a0, a1, b0, b1) = (10.0, 10.0 + 2e-7, 10.0 + 3e-7, 10.0 + 5e-7);
        let s = schedule_of(
            3,
            &[
                Segment::new(1, 0, 0.0, b0, 1.0),
                Segment::new(0, 2, 0.0, 5.0, 1.0),
                Segment::new(0, 1, a0, a1, fa),
                Segment::new(0, 0, b0, b1, 0.7),
                Segment::new(2, 0, b1, 20.0, 1.0),
                Segment::new(3, 1, 10.0 + 9e-7, 20.0, 1.0),
            ],
        );
        let tasks = TaskSet::from_triples(&[
            (0.0, 11.0, 5.0 + 3e-7),
            (0.0, 11.0, b0),
            (0.0, 20.0, 20.0 - b1),
            (0.0, 20.0, 20.0 - 10.0 - 9e-7),
        ]);
        (s, tasks)
    }

    #[test]
    fn takes_a_swapped_dust_pair_only_when_the_order_cannot_show() {
        let power = PolynomialPower::paper(3.0, 0.1);
        let credit = |fa: f64| fa * ((10.0_f64 + 2e-7) - 10.0);
        let b = 0.7 * ((10.0_f64 + 5e-7) - (10.0 + 3e-7));
        let commutes =
            |fa: f64| ((5.0 + credit(fa)) + b).to_bits() == ((5.0 + b) + credit(fa)).to_bits();
        let candidates: Vec<f64> = (1..400).map(|i| 1.0 + f64::from(i) / 1000.0).collect();
        let same = *candidates.iter().find(|&&fa| commutes(fa)).unwrap();
        let differs = *candidates.iter().find(|&&fa| !commutes(fa)).unwrap();
        let (s, tasks) = swapped_dust(same);
        assert_fast(&s, &tasks, &power);
        let (s, tasks) = swapped_dust(differs);
        assert_falls_back(&s, &tasks, &power);
        // The event loop really did credit the pair out of list order.
        let oracle = simulate_traced(&s, &tasks, &power).0;
        assert_eq!(
            oracle.work_done[0].to_bits(),
            ((5.0 + b) + credit(differs)).to_bits()
        );
    }

    #[test]
    fn falls_back_where_it_cannot_show_the_event_loops_report() {
        let power = PolynomialPower::paper(3.0, 0.1);
        let tasks = TaskSet::from_triples(&[(0.0, 10.0, 5.0), (0.0, 10.0, 3.0)]);
        // A one-ulp overlap on one core.
        let s = schedule_of(
            1,
            &[
                Segment::new(0, 0, 0.0, 5.0, 1.0),
                Segment::new(1, 0, 5.0_f64.next_down(), 8.0, 1.0),
            ],
        );
        assert_falls_back(&s, &tasks, &power);
        // A task whose ends go out of order.
        let s = schedule_of(
            2,
            &[
                Segment::new(0, 0, 0.0, 4.0, 1.0),
                Segment::new(0, 1, 1.0, 2.0, 1.0),
                Segment::new(1, 1, 2.0, 5.0, 1.0),
            ],
        );
        assert_falls_back(&s, &tasks, &power);
        // An end one ulp past its deadline.
        let s = schedule_of(
            2,
            &[
                Segment::new(0, 0, 0.0, 10.0_f64.next_up(), 0.5),
                Segment::new(1, 1, 0.0, 3.0, 1.0),
            ],
        );
        assert_falls_back(&s, &tasks, &power);
        // A shortfall at the miss threshold: not a miss, but too close to
        // tell from the sweep's rounding.
        let short = 5.0 - (5.0 * WORK_TOL + WORK_TOL);
        let s = schedule_of(
            2,
            &[
                Segment::new(0, 0, 0.0, short, 1.0),
                Segment::new(1, 1, 0.0, 3.0, 1.0),
            ],
        );
        assert!(simulate_traced(&s, &tasks, &power).0.is_clean());
        assert_falls_back(&s, &tasks, &power);
        // A real miss: the event loop lists it.
        let s = schedule_of(
            2,
            &[
                Segment::new(0, 0, 0.0, 2.5, 1.0),
                Segment::new(1, 1, 0.0, 3.0, 1.0),
            ],
        );
        assert_falls_back(&s, &tasks, &power);
        assert_eq!(simulate(&s, &tasks, &power).deadline_misses, vec![0]);
        // A task id past the task set.
        let s = schedule_of(
            2,
            &[
                Segment::new(0, 0, 0.0, 5.0, 1.0),
                Segment::new(1, 1, 0.0, 3.0, 1.0),
                Segment::new(2, 1, 3.0, 4.0, 1.0),
            ],
        );
        assert_falls_back(&s, &tasks, &power);
        // Non-canonical order.
        let s = schedule_of(
            2,
            &[
                Segment::new(1, 1, 0.0, 3.0, 1.0),
                Segment::new(0, 0, 0.0, 5.0, 1.0),
            ],
        );
        assert!(!s.is_canonical());
        assert_falls_back(&s, &tasks, &power);
    }
}
