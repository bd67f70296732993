//! Event types and the sorted event list.
//!
//! The simulator is event-driven: every segment boundary, task release,
//! and task deadline becomes an [`Event`], processed in global time order
//! with a deterministic tie-break (ends before starts at the same instant,
//! so back-to-back segments hand over cleanly).
//!
//! Every event is known before the run starts, so the engine sorts them
//! once, as compact [`EventKey`]s, and walks the sorted list with a cursor.
//! A key is decoded into a full [`Event`] only when the engine reaches it.
//!
//! A key is one `u128` whose integer order is the event order: time, then
//! rank, then segment index or task id. `sorted_events` lists the keys
//! as runs that are already ascending for a schedule in canonical
//! (start, core, task) order — starts in segment order, ends grouped by
//! core, then releases, then deadlines — and one stable sort merges them.
//! The keys are distinct, so the result is the same for any schedule; a
//! shuffled segment list or a double-booked core only makes the runs
//! shorter and the sort slower.

use esched_types::{Schedule, Task, TaskId, TaskSet};

/// What happens at an event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A segment stops executing on a core (processed first at an instant).
    SegmentEnd {
        /// Core the segment ran on.
        core: usize,
        /// The task.
        task: TaskId,
        /// Index of the segment in the schedule's segment list.
        segment: usize,
    },
    /// A task's deadline passes (work check happens here).
    Deadline {
        /// The task.
        task: TaskId,
    },
    /// A task becomes available.
    Release {
        /// The task.
        task: TaskId,
    },
    /// A segment starts executing on a core (processed last at an instant).
    SegmentStart {
        /// Core the segment runs on.
        core: usize,
        /// The task.
        task: TaskId,
        /// Index of the segment in the schedule's segment list.
        segment: usize,
        /// Execution frequency.
        freq: f64,
    },
}

const END: u8 = 0;
const DEADLINE: u8 = 1;
const RELEASE: u8 = 2;
const START: u8 = 3;

impl EventKind {
    /// Processing priority at equal timestamps (lower first).
    pub(crate) fn rank(&self) -> u8 {
        match self {
            EventKind::SegmentEnd { .. } => END,
            EventKind::Deadline { .. } => DEADLINE,
            EventKind::Release { .. } => RELEASE,
            EventKind::SegmentStart { .. } => START,
        }
    }
}

/// A timestamped event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// When the event fires.
    pub time: f64,
    /// What it is.
    pub kind: EventKind,
}

/// Bit position of the rank inside [`EventKey`]'s tag.
const RANK_SHIFT: u32 = 62;

/// The sign bit of an `f64`'s bit pattern.
const SIGN: u64 = 1 << 63;

/// A 16-byte sort key standing for one [`Event`]. The high half is the
/// event's time as an unsigned integer that orders like the time; the low
/// half is a tag holding the event's rank above the segment index (for
/// segment boundaries) or the task id (for releases and deadlines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EventKey(u128);

impl EventKey {
    fn new(time: f64, rank: u8, index: usize) -> Self {
        assert!(time.is_finite(), "event time must be finite");
        // `+ 0.0` turns −0.0 into +0.0, so the two are one instant. Then a
        // positive time gets its sign bit set, sorting above every negative
        // one, and a negative time has all bits flipped, so a larger
        // magnitude sorts lower.
        let bits = (time + 0.0).to_bits();
        let ordered = if bits & SIGN == 0 { bits | SIGN } else { !bits };
        let tag = (u64::from(rank) << RANK_SHIFT) | index as u64;
        Self((u128::from(ordered) << 64) | u128::from(tag))
    }

    /// The event's time, with −0.0 read back as +0.0.
    pub(crate) fn time(self) -> f64 {
        let ordered = (self.0 >> 64) as u64;
        let bits = if ordered & SIGN == 0 {
            !ordered
        } else {
            ordered ^ SIGN
        };
        f64::from_bits(bits)
    }

    fn tag(self) -> u64 {
        self.0 as u64
    }

    /// The full event, read back from the schedule or task set it indexes.
    pub(crate) fn decode(self, schedule: &Schedule, tasks: &TaskSet) -> Event {
        let index = (self.tag() & ((1 << RANK_SHIFT) - 1)) as usize;
        match (self.tag() >> RANK_SHIFT) as u8 {
            END => {
                let seg = &schedule.segments()[index];
                Event {
                    time: seg.interval.end,
                    kind: EventKind::SegmentEnd {
                        core: seg.core,
                        task: seg.task,
                        segment: index,
                    },
                }
            }
            DEADLINE => Event {
                time: tasks.get(index).deadline,
                kind: EventKind::Deadline { task: index },
            },
            RELEASE => Event {
                time: tasks.get(index).release,
                kind: EventKind::Release { task: index },
            },
            _ => {
                let seg = &schedule.segments()[index];
                Event {
                    time: seg.interval.start,
                    kind: EventKind::SegmentStart {
                        core: seg.core,
                        task: seg.task,
                        segment: index,
                        freq: seg.freq,
                    },
                }
            }
        }
    }
}

/// Every event of a run, sorted by time, then rank, then segment index or
/// task id.
///
/// # Panics
/// If any segment boundary, release or deadline is not finite.
pub(crate) fn sorted_events(schedule: &Schedule, tasks: &[Task]) -> Vec<EventKey> {
    let segments = schedule.segments();
    let mut keys = Vec::with_capacity(2 * (segments.len() + tasks.len()));
    keys.extend(
        segments
            .iter()
            .enumerate()
            .map(|(idx, seg)| EventKey::new(seg.interval.start, START, idx)),
    );
    // Ends grouped by core, in segment order within a core, by a counting
    // pass. Segments on cores at or past `schedule.cores` share one last
    // group.
    let group = |core: usize| core.min(schedule.cores);
    let mut next = vec![0; schedule.cores + 1];
    for seg in segments {
        next[group(seg.core)] += 1;
    }
    let mut at = keys.len();
    for slot in &mut next {
        let count = *slot;
        *slot = at;
        at += count;
    }
    keys.resize(at, EventKey(0));
    for (idx, seg) in segments.iter().enumerate() {
        let slot = &mut next[group(seg.core)];
        keys[*slot] = EventKey::new(seg.interval.end, END, idx);
        *slot += 1;
    }
    keys.extend(
        tasks
            .iter()
            .enumerate()
            .map(|(id, t)| EventKey::new(t.release, RELEASE, id)),
    );
    keys.extend(
        tasks
            .iter()
            .enumerate()
            .map(|(id, t)| EventKey::new(t.deadline, DEADLINE, id)),
    );
    // Stable, so it finds the ascending runs and merges them.
    keys.sort();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use esched_obs::rng::ChaCha8;
    use esched_types::{PolynomialPower, Segment};

    /// Reference for [`sorted_events`]: every key as a (time, tag) pair,
    /// then one comparison sort. Returns the sorted (time bits, tag)
    /// sequence.
    fn reference_sorted_events(schedule: &Schedule, tasks: &[Task]) -> Vec<(u64, u64)> {
        let key = |time: f64, rank: u8, index: usize| {
            assert!(time.is_finite(), "event time must be finite");
            (time + 0.0, (u64::from(rank) << RANK_SHIFT) | index as u64)
        };
        let mut keys = Vec::with_capacity(2 * (schedule.len() + tasks.len()));
        for (idx, seg) in schedule.segments().iter().enumerate() {
            keys.push(key(seg.interval.start, START, idx));
            keys.push(key(seg.interval.end, END, idx));
        }
        for (id, t) in tasks.iter().enumerate() {
            keys.push(key(t.release, RELEASE, id));
            keys.push(key(t.deadline, DEADLINE, id));
        }
        keys.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        keys.into_iter()
            .map(|(t, tag)| (t.to_bits(), tag))
            .collect()
    }

    fn assert_matches_reference(schedule: &Schedule, tasks: &[Task]) {
        let got: Vec<(u64, u64)> = sorted_events(schedule, tasks)
            .into_iter()
            .map(|k| (k.time().to_bits(), k.tag()))
            .collect();
        assert_eq!(
            got,
            reference_sorted_events(schedule, tasks),
            "{schedule:?}"
        );
    }

    /// A time on a coarse grid through zero, so boundaries tie exactly
    /// across cores and tasks; zero comes with either sign.
    fn grid_time(rng: &mut ChaCha8) -> f64 {
        let t = rng.gen_range_usize(0, 17) as f64 * 0.5 - 4.0;
        if t == 0.0 && rng.gen_bool(0.5) {
            -0.0
        } else {
            t
        }
    }

    /// Two distinct grid times, in order.
    fn grid_window(rng: &mut ChaCha8) -> (f64, f64) {
        loop {
            let (a, b) = (grid_time(rng), grid_time(rng));
            if a != b {
                return (a.min(b), a.max(b));
            }
        }
    }

    fn random_tasks(rng: &mut ChaCha8, n: usize) -> Vec<Task> {
        (0..n)
            .map(|_| {
                let (r, d) = grid_window(rng);
                Task::of(r, d, rng.gen_range_f64(0.1, 2.0))
            })
            .collect()
    }

    /// Segments anywhere on the grid, so cores are double-booked and each
    /// core's ends are out of order; some land on cores at or past `cores`.
    fn overlapping_schedule(rng: &mut ChaCha8, cores: usize) -> Schedule {
        let mut s = Schedule::new(cores);
        for _ in 0..rng.gen_range_usize(0, 40) {
            let (start, end) = grid_window(rng);
            let core = match rng.gen_range_usize(0, 10) {
                0 => cores + rng.gen_range_usize(0, 3),
                1 => usize::MAX - rng.gen_range_usize(0, 3),
                _ => rng.gen_range_usize(0, cores),
            };
            s.push_exact(Segment::new(
                rng.gen_range_usize(0, 8),
                core,
                start,
                end,
                1.0,
            ));
        }
        s
    }

    /// Segments far from the grid, including large negative times.
    fn scattered_schedule(rng: &mut ChaCha8, cores: usize) -> Schedule {
        let mut s = Schedule::new(cores);
        for _ in 0..rng.gen_range_usize(1, 30) {
            let start = rng.gen_range_f64(-1e12, 1e3);
            let end = start + rng.gen_range_f64(0.0, 1e6);
            let core = rng.gen_range_usize(0, cores + 1);
            s.push_exact(Segment::new(
                rng.gen_range_usize(0, 8),
                core,
                start,
                end,
                1.0,
            ));
        }
        s
    }

    fn shuffled(rng: &mut ChaCha8, schedule: &Schedule) -> Schedule {
        let mut segs = schedule.segments().to_vec();
        for i in (1..segs.len()).rev() {
            segs.swap(i, rng.gen_range_usize(0, i + 1));
        }
        let mut s = Schedule::new(schedule.cores);
        for seg in segs {
            s.push_exact(seg);
        }
        s
    }

    #[test]
    fn matches_the_comparison_sort_on_canonical_schedules_and_their_shuffles() {
        let mut rng = ChaCha8::seed_from_u64(0xe7e7_0001);
        let power = PolynomialPower::paper(3.0, 0.1);
        for _ in 0..60 {
            let n = rng.gen_range_usize(1, 24);
            let cores = rng.gen_range_usize(1, 5);
            let tasks = TaskSet::new(random_tasks(&mut rng, n)).expect("valid tasks");
            let outcome = esched_core::der_schedule(&tasks, cores, &power);
            for schedule in [&outcome.intermediate_schedule, &outcome.schedule] {
                assert!(schedule.is_canonical());
                assert_matches_reference(schedule, tasks.tasks());
                assert_matches_reference(&shuffled(&mut rng, schedule), tasks.tasks());
            }
        }
    }

    #[test]
    fn matches_the_comparison_sort_on_broken_and_degenerate_schedules() {
        let mut rng = ChaCha8::seed_from_u64(0xe7e7_0002);
        for _ in 0..400 {
            let cores = rng.gen_range_usize(1, 5);
            let n = rng.gen_range_usize(0, 12);
            let tasks = random_tasks(&mut rng, n);
            let schedule = overlapping_schedule(&mut rng, cores);
            assert_matches_reference(&schedule, &tasks);
            assert_matches_reference(&schedule, &[]);
            assert_matches_reference(&Schedule::new(cores), &tasks);
            assert_matches_reference(&scattered_schedule(&mut rng, cores), &tasks);
        }
        assert_matches_reference(&Schedule::new(1), &[]);
    }

    #[test]
    fn key_time_round_trips_bit_for_bit_and_orders_like_the_time() {
        let times = [
            -f64::MAX,
            -1e300,
            -2.5,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            1.0,
            1e300,
            f64::MAX,
        ];
        let keys: Vec<EventKey> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| EventKey::new(t, START, i))
            .collect();
        for (key, &t) in keys.iter().zip(&times) {
            assert_eq!(key.time().to_bits(), (t + 0.0).to_bits(), "{t:e}");
        }
        assert_eq!(keys[5].time().to_bits(), 0.0_f64.to_bits());
        // Keys compare like their times; ±0 tie on time and fall back to
        // the index.
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(keys[5].0 >> 64, keys[6].0 >> 64);
    }
}
