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

use esched_types::{Schedule, TaskId, TaskSet};

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

/// A 16-byte sort key standing for one [`Event`]: its time, and a tag
/// holding the event's rank above the segment index (for segment
/// boundaries) or the task id (for releases and deadlines).
#[derive(Debug, Clone, Copy)]
pub(crate) struct EventKey {
    /// The event's time, with −0.0 normalised to +0.0 so that
    /// [`f64::total_cmp`] orders it like `==` does.
    pub(crate) time: f64,
    tag: u64,
}

impl EventKey {
    fn new(time: f64, rank: u8, index: usize) -> Self {
        assert!(time.is_finite(), "event time must be finite");
        Self {
            time: time + 0.0,
            tag: (u64::from(rank) << RANK_SHIFT) | index as u64,
        }
    }

    /// The full event, read back from the schedule or task set it indexes.
    pub(crate) fn decode(self, schedule: &Schedule, tasks: &TaskSet) -> Event {
        let index = (self.tag & ((1 << RANK_SHIFT) - 1)) as usize;
        match (self.tag >> RANK_SHIFT) as u8 {
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
pub(crate) fn sorted_events(schedule: &Schedule, tasks: &TaskSet) -> Vec<EventKey> {
    let mut keys = Vec::with_capacity(2 * (schedule.len() + tasks.len()));
    for (idx, seg) in schedule.segments().iter().enumerate() {
        keys.push(EventKey::new(seg.interval.start, START, idx));
        keys.push(EventKey::new(seg.interval.end, END, idx));
    }
    for (id, t) in tasks.iter() {
        keys.push(EventKey::new(t.release, RELEASE, id));
        keys.push(EventKey::new(t.deadline, DEADLINE, id));
    }
    keys.sort_unstable_by(|a, b| a.time.total_cmp(&b.time).then(a.tag.cmp(&b.tag)));
    keys
}
