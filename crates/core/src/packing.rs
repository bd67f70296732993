//! Algorithm 1: collision-free packing of allocated execution times within
//! one subinterval (McNaughton-style wrap-around).
//!
//! Given a subinterval `[t_j, t_{j+1}]` of length `Δ` and per-task
//! durations `d_i` with `d_i ≤ Δ` and `Σ d_i ≤ m·Δ`, the wrap-around rule
//! fills core 1 left to right, and when a task would run past `t_{j+1}`
//! splits it: the spill-over runs at the *start* of the next core. Because
//! `d_i ≤ Δ`, the two pieces of a split task never overlap in time, so the
//! task never runs concurrently with itself — the paper's "safe way to
//! schedule these tasks".
//!
//! The fill works core by core, but schedules keep their segments in
//! canonical (start, core, task) order. Each core's pieces already come
//! out in start order, so the packer merges the per-core runs by
//! (start, core) instead of sorting them: every core's run opens at the
//! subinterval start, so the pieces there go out core by core, and then
//! each step emits the earliest remaining piece. Builders that coalesce or
//! sum energy take the segments as they are emitted, so nothing is sorted
//! or revisited.

use esched_types::time::EPS;
use esched_types::validate::WORK_TOL;
use esched_types::{Schedule, Segment, TaskId};
use std::cell::RefCell;

/// Is a `(duration, freq)` pair too small to matter?
///
/// An item is dust only when its *duration* is below `EPS` **and** the
/// *work* it carries (`duration · freq`) is far below the validator's
/// `WORK_TOL`. Judging by duration alone is wrong at the boundaries the
/// fuzzer probes: a `1e-8`-long piece running at frequency `1e3` carries
/// `1e-5` work — ten times the validation tolerance — and dropping it
/// turns a legal schedule into an underserved one.
#[must_use]
pub fn negligible(duration: f64, freq: f64) -> bool {
    duration <= EPS && duration * freq <= WORK_TOL * 0.1
}

/// One task's share of a subinterval: how long it runs and at what
/// frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackItem {
    /// The task.
    pub task: TaskId,
    /// Duration it must occupy a core within the subinterval.
    pub duration: f64,
    /// Frequency it runs at during this subinterval.
    pub freq: f64,
}

/// Errors from [`pack_subinterval`].
#[derive(Debug, Clone, PartialEq)]
pub enum PackError {
    /// Some `d_i > Δ` (cannot avoid self-overlap).
    ItemTooLong {
        /// The offending task.
        task: TaskId,
        /// Its requested duration.
        duration: f64,
        /// The subinterval length.
        delta: f64,
    },
    /// `Σ d_i > m·Δ` (not enough core time).
    Overcommitted {
        /// Total requested duration.
        total: f64,
        /// Available core time `m·Δ`.
        capacity: f64,
    },
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::ItemTooLong {
                task,
                duration,
                delta,
            } => write!(
                f,
                "task {task}: duration {duration} exceeds subinterval {delta}"
            ),
            PackError::Overcommitted { total, capacity } => {
                write!(f, "total duration {total} exceeds capacity {capacity}")
            }
        }
    }
}

impl std::error::Error for PackError {}

/// The most segments [`pack_subinterval`] appends for `items` items on
/// `cores` cores: `items + min(items, cores − 1)`.
pub(crate) fn max_packed_segments(items: usize, cores: usize) -> usize {
    items + items.min(cores.saturating_sub(1))
}

/// Pack `items` into `[t0, t1]` on `cores` cores, appending segments to
/// `out`. Items with ~zero duration are skipped. Durations are clamped to
/// `Δ` after the validity check, so callers may pass values that exceed
/// `Δ` by floating-point noise.
///
/// At most `items.len() + min(items.len(), cores − 1)` segments are
/// appended: each item yields one segment, plus a second for each
/// wrap-around split, and a split moves the fill to the next core, so
/// there are at most `cores − 1` of them.
///
/// The appended segments are in canonical order (start, core, task; see
/// [`Schedule::coalesce`]), and all of them start in `[t0, t1)`. Packing
/// disjoint subintervals in time order therefore builds a canonical
/// schedule, which `coalesce` merges without sorting.
///
/// # Errors
/// [`PackError`] when an item exceeds the subinterval length or the items
/// exceed total capacity (both with tolerance).
pub fn pack_subinterval(
    items: &[PackItem],
    t0: f64,
    t1: f64,
    cores: usize,
    out: &mut Schedule,
) -> Result<(), PackError> {
    // One reservation instead of the buffer doubling through the pushes.
    out.reserve(max_packed_segments(items.len(), cores));
    pack_each(items, t0, t1, cores, &mut |seg| out.push_exact(seg))
}

/// [`pack_subinterval`] handing each non-empty segment to `emit`, in
/// canonical order, instead of appending it to a schedule.
///
/// The wrap-around fill places pieces core by core, so each core's pieces
/// come out in start order but the cores interleave in time. The fill
/// stages them in a per-thread buffer, one run per core; a merge then
/// emits the piece with the earliest start, the lower core on a tie.
/// Within a core the non-empty pieces start strictly later one after
/// another, so the merge gives exactly the stable (start, core, task)
/// order, with no sort. `emit` must not pack: the buffer stays borrowed
/// while it runs.
pub(crate) fn pack_each(
    items: &[PackItem],
    t0: f64,
    t1: f64,
    cores: usize,
    emit: &mut impl FnMut(Segment),
) -> Result<(), PackError> {
    let delta = t1 - t0;
    debug_assert!(delta >= 0.0);
    // Validity gates are time-scale aware: durations are computed from
    // boundary times, so their rounding noise grows with |t|, not just Δ.
    let tol = EPS * (1.0 + delta.abs().max(t0.abs()).max(t1.abs()));

    let mut total = 0.0;
    for it in items {
        if it.duration > delta + tol {
            return Err(PackError::ItemTooLong {
                task: it.task,
                duration: it.duration,
                delta,
            });
        }
        total += it.duration;
    }
    let capacity = cores as f64 * delta;
    if total > capacity + tol * cores as f64 {
        return Err(PackError::Overcommitted { total, capacity });
    }
    esched_obs::metric_counter!("esched.core.pack_calls").inc();
    esched_obs::metric_counter!("esched.core.pack_items").add(items.len() as u64);

    let splits = RUNS.with_borrow_mut(|runs| {
        let splits = fill(items, t0, t1, cores, tol, runs);
        runs.merge(items, t0, emit);
        splits
    });
    // One update per call: the two refinement builds pack on two threads.
    if splits > 0 {
        esched_obs::metric_counter!("esched.core.pack_splits").add(splits);
    }
    Ok(())
}

/// A piece the fill places on a core: `(item, start, end)`.
type Piece = (usize, f64, f64);

/// The fill's pieces, staged one run per core; reused call to call on
/// each thread, so packing allocates only when a subinterval outgrows
/// every earlier one.
#[derive(Debug)]
struct Runs {
    /// Every piece, core by core.
    pieces: Vec<Piece>,
    /// Per used core, in core order: its next piece and the end of its run
    /// in `pieces`, and that piece's start (`∞` once the run is done).
    lanes: Vec<Lane>,
}

#[derive(Debug, Clone, Copy)]
struct Lane {
    next: usize,
    end: usize,
    start: f64,
}

thread_local! {
    static RUNS: RefCell<Runs> = const {
        RefCell::new(Runs {
            pieces: Vec::new(),
            lanes: Vec::new(),
        })
    };
}

/// Algorithm 1's wrap-around fill: place `items` core by core into
/// `runs`. Returns the number of wrap-around splits.
fn fill(items: &[PackItem], t0: f64, t1: f64, cores: usize, tol: f64, runs: &mut Runs) -> u64 {
    let Runs { pieces, lanes } = runs;
    pieces.clear();
    lanes.clear();
    let delta = t1 - t0;
    // Fill decisions use a *tight* tolerance at arithmetic-rounding scale,
    // not the loose validity `tol`: advancing to the next core while `tol`
    // of capacity remains discards up to `tol` per core, and for
    // subintervals whose length is near `EPS` that loss compounds until
    // the leftover items land on core `k == cores` — a nonexistent core.
    let fill_tol = 1e-12 * (1.0 + t1.abs().max(t0.abs()));
    let mut splits = 0;
    // The current core is `lanes.len()`; `cursor` is its next free
    // instant.
    let mut cursor = t0;
    for (item, it) in items.iter().enumerate() {
        let d = it.duration.min(delta).max(0.0);
        if negligible(d, it.freq) {
            continue;
        }
        if lanes.len() >= cores {
            // Every core is full to within `fill_tol`; the validity gates
            // bound whatever remains by their tolerance slack.
            break;
        }
        if cursor + d > t1 + fill_tol {
            // Split: the first piece finishes off this core…
            splits += 1;
            if lanes.len() + 1 >= cores {
                // Capacity says this cannot happen; guard against
                // accumulated rounding by clamping onto the last core.
                let end = t1.min(cursor + d);
                if end > cursor {
                    pieces.push((item, cursor, end));
                }
                close_run(lanes, pieces.len());
                continue;
            }
            let spill = (cursor + d - t1).min(delta).max(0.0);
            debug_assert!(
                t0 + spill <= cursor + tol,
                "wrap-around self-overlap: spill end {} vs second start {}",
                t0 + spill,
                cursor
            );
            pieces.push((item, cursor, t1));
            close_run(lanes, pieces.len());
            // …and the spill-over opens the next one.
            pieces.push((item, t0, t0 + spill));
            cursor = t0 + spill;
        } else {
            pieces.push((item, cursor, (cursor + d).min(t1)));
            cursor += d;
            if cursor >= t1 - fill_tol {
                close_run(lanes, pieces.len());
                cursor = t0;
            }
        }
    }
    if pieces.len() > lanes.last().map_or(0, |lane| lane.end) {
        close_run(lanes, pieces.len());
    }
    splits
}

/// End the current core's run at piece `end`; the next core's run starts
/// there.
fn close_run(lanes: &mut Vec<Lane>, end: usize) {
    lanes.push(Lane {
        next: lanes.last().map_or(0, |lane| lane.end),
        end,
        start: f64::INFINITY,
    });
}

impl Runs {
    /// Emit every non-empty piece as a segment, earliest start first, the
    /// lower core on a tie.
    fn merge(&mut self, items: &[PackItem], t0: f64, emit: &mut impl FnMut(Segment)) {
        let Runs { pieces, lanes } = self;
        let head = |lane: &Lane| {
            if lane.next < lane.end {
                pieces[lane.next].1
            } else {
                f64::INFINITY
            }
        };
        let mut take = |core: usize, lane: &mut Lane| {
            let (item, start, end) = pieces[lane.next];
            lane.next += 1;
            lane.start = head(lane);
            let it = &items[item];
            let seg = Segment::new(it.task, core, start, end, it.freq);
            if seg.duration() > 0.0 {
                emit(seg);
            }
        };
        // Every run opens at `t0`, the earliest start there is, so the
        // pieces at `t0` go out core by core without a scan.
        for (core, lane) in lanes.iter_mut().enumerate() {
            while head(lane) == t0 {
                take(core, lane);
            }
            lane.start = head(lane);
        }
        loop {
            // `<` orders the starts as `partial_cmp` does (`-0.0` ties
            // `+0.0`), and the tie goes to the lower core.
            let (mut core, mut first) = (0, f64::INFINITY);
            for (k, lane) in lanes.iter().enumerate() {
                if lane.start < first {
                    (core, first) = (k, lane.start);
                }
            }
            let Some(lane) = lanes.get_mut(core).filter(|lane| lane.next < lane.end) else {
                break;
            };
            take(core, lane);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esched_obs::rng::ChaCha8;
    use esched_types::time::Interval;

    fn items(ds: &[f64]) -> Vec<PackItem> {
        ds.iter()
            .enumerate()
            .map(|(i, &d)| PackItem {
                task: i,
                duration: d,
                freq: 1.0,
            })
            .collect()
    }

    fn check_no_core_overlap(s: &Schedule) {
        for c in 0..s.cores {
            let segs = s.core_segments(c);
            for w in segs.windows(2) {
                assert!(
                    w[0].interval.overlap_len(&w[1].interval) <= 1e-9,
                    "core {c} overlap: {:?} vs {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    fn check_no_self_overlap(s: &Schedule) {
        for t in s.task_ids() {
            let segs = s.task_segments(t);
            for w in segs.windows(2) {
                assert!(
                    w[0].interval.overlap_len(&w[1].interval) <= 1e-9,
                    "task {t} self-overlap"
                );
            }
        }
    }

    /// The packer as it was before the canonical-order merge: the
    /// wrap-around fill appending core by core, then a stable sort of the
    /// appended segments by (start, core, task).
    fn sorted_pack(
        items: &[PackItem],
        t0: f64,
        t1: f64,
        cores: usize,
    ) -> Result<Vec<Segment>, PackError> {
        let delta = t1 - t0;
        let tol = EPS * (1.0 + delta.abs().max(t0.abs()).max(t1.abs()));
        let mut total = 0.0;
        for it in items {
            if it.duration > delta + tol {
                return Err(PackError::ItemTooLong {
                    task: it.task,
                    duration: it.duration,
                    delta,
                });
            }
            total += it.duration;
        }
        let capacity = cores as f64 * delta;
        if total > capacity + tol * cores as f64 {
            return Err(PackError::Overcommitted { total, capacity });
        }
        let mut out = Schedule::new(cores);
        let fill_tol = 1e-12 * (1.0 + t1.abs().max(t0.abs()));
        let mut k = 0usize;
        let mut cursor = t0;
        for it in items {
            let d = it.duration.min(delta).max(0.0);
            if negligible(d, it.freq) {
                continue;
            }
            if k >= cores {
                break;
            }
            if cursor + d > t1 + fill_tol {
                let spill = (cursor + d - t1).min(delta).max(0.0);
                if k + 1 >= cores {
                    let end = t1.min(cursor + d);
                    if end > cursor {
                        out.push_exact(Segment::new(it.task, k, cursor, end, it.freq));
                    }
                    cursor = t1;
                    k += 1;
                    continue;
                }
                out.push_exact(Segment::new(it.task, k + 1, t0, t0 + spill, it.freq));
                out.push_exact(Segment::new(it.task, k, cursor, t1, it.freq));
                k += 1;
                cursor = t0 + spill;
            } else {
                out.push_exact(Segment::new(
                    it.task,
                    k,
                    cursor,
                    (cursor + d).min(t1),
                    it.freq,
                ));
                cursor += d;
                if cursor >= t1 - fill_tol {
                    k += 1;
                    cursor = t0;
                }
            }
        }
        let mut segs = out.segments().to_vec();
        segs.sort_by(|a, b| {
            a.interval
                .start
                .partial_cmp(&b.interval.start)
                .unwrap()
                .then(a.core.cmp(&b.core))
                .then(a.task.cmp(&b.task))
        });
        Ok(segs)
    }

    /// Every field of every segment, `f64`s as bits.
    fn seg_bits(segs: &[Segment]) -> Vec<(TaskId, usize, u64, u64, u64)> {
        segs.iter()
            .map(|g| {
                (
                    g.task,
                    g.core,
                    g.interval.start.to_bits(),
                    g.interval.end.to_bits(),
                    g.freq.to_bits(),
                )
            })
            .collect()
    }

    /// A subinterval and items to pack into it: boundaries at ±0, at
    /// negative times and near 1e6; durations on a grid (ties between
    /// cores), random, full-length, zero, negligible dust, or sub-EPS but
    /// carrying real work at high frequency; filled to a random share of
    /// capacity, exactly to capacity (a split on every core), or past it
    /// by up to half the validity slack (the clamped last core). Often
    /// more cores than items, sometimes dozens of cores.
    fn arb_pack(rng: &mut ChaCha8) -> (Vec<PackItem>, f64, f64, usize) {
        let delta = match rng.gen_range_usize(0, 4) {
            0 => rng.gen_range_usize(1, 9) as f64 * 0.5,
            1 => 1e-6,
            _ => rng.gen_range_f64(0.01, 5.0),
        };
        let (t0, t1) = match rng.gen_range_usize(0, 6) {
            0 => (-0.0, delta),
            1 => (-delta, -0.0),
            2 => (-3.5, -3.5 + delta),
            3 => (1e6 - delta, 1e6),
            4 => (1e6, 1e6 + delta),
            _ => {
                let t0 = rng.gen_range_f64(0.0, 100.0);
                (t0, t0 + delta)
            }
        };
        let delta = t1 - t0;
        let cores = if rng.gen_bool(0.15) {
            rng.gen_range_usize(17, 48)
        } else {
            rng.gen_range_usize(1, 10)
        };
        let n = rng.gen_range_usize(0, 3 * cores + 4);
        let mut items: Vec<PackItem> = (0..n)
            .map(|task| {
                let (duration, freq) = match rng.gen_range_usize(0, 11) {
                    0 => (1e-9, 1.0),
                    1 => (5e-8, 1e3),
                    10 => (5e-11, 1e4),
                    2 => (0.0, 1.0),
                    3 => (delta, rng.gen_range_f64(0.2, 2.0)),
                    4..=6 => (
                        rng.gen_range_usize(1, 8) as f64 * delta / 8.0,
                        rng.gen_range_f64(0.2, 2.0),
                    ),
                    _ => (rng.gen_range_f64(0.0, delta), rng.gen_range_f64(0.2, 2.0)),
                };
                PackItem {
                    task,
                    duration,
                    freq,
                }
            })
            .collect();
        let total: f64 = items.iter().map(|it| it.duration).sum();
        let capacity = cores as f64 * delta;
        let tol = EPS * (1.0 + delta.abs().max(t0.abs()).max(t1.abs()));
        let target = match rng.gen_range_usize(0, 4) {
            0 => capacity,
            1 => capacity + 0.5 * tol * cores as f64,
            _ => rng.gen_range_f64(0.1, 1.0) * capacity,
        };
        if total > target {
            for it in &mut items {
                it.duration = (it.duration * (target / total)).min(delta + 0.5 * tol);
            }
        }
        (items, t0, t1, cores)
    }

    #[test]
    fn merge_packs_exactly_what_the_sorted_fill_packed() {
        let mut rng = ChaCha8::seed_from_u64(0x9ac_3e6e);
        let (mut packed, mut overfull, mut many_cores, mut full_splits) = (0, 0, 0, 0);
        for _ in 0..20_000 {
            let (items, t0, t1, cores) = arb_pack(&mut rng);
            let mut got = Schedule::new(cores);
            let result = pack_subinterval(&items, t0, t1, cores, &mut got);
            let want = sorted_pack(&items, t0, t1, cores);
            match (&result, &want) {
                (Ok(()), Ok(want)) => {
                    assert_eq!(
                        seg_bits(got.segments()),
                        seg_bits(want),
                        "{cores} cores on [{t0}, {t1}]: {items:?}"
                    );
                    assert!(got.is_canonical());
                    packed += 1;
                    let total: f64 = items.iter().map(|it| it.duration).sum();
                    overfull += usize::from(total > cores as f64 * (t1 - t0));
                    many_cores += usize::from(got.len() > 64);
                    full_splits += usize::from(cores > 1 && got.len() >= items.len() + cores - 1);
                }
                (Err(e), Err(w)) => assert_eq!(e, w),
                _ => panic!("{result:?} vs {want:?} for {cores} cores on [{t0}, {t1}]"),
            }
        }
        // The generator reaches the cases the merge must get right.
        assert!(packed > 15_000, "{packed} packed");
        assert!(overfull > 100, "{overfull} overfull");
        assert!(many_cores > 100, "{many_cores} with more than 64 segments");
        assert!(
            full_splits > 100,
            "{full_splits} with a split on every core"
        );
    }

    #[test]
    fn a_piece_that_rounds_to_nothing_keeps_its_core_first_at_the_start() {
        // At t = 1e6 the first item's piece rounds to zero length and is
        // dropped, so core 0's second piece also starts at t0; it goes
        // before core 1's spill-over, which starts there too.
        let its: Vec<PackItem> = [(5e-11, 1e4), (1.5, 1.0), (1.0, 1.0)]
            .iter()
            .enumerate()
            .map(|(task, &(duration, freq))| PackItem {
                task,
                duration,
                freq,
            })
            .collect();
        let (t0, t1) = (1e6, 1e6 + 2.0);
        let mut s = Schedule::new(2);
        pack_subinterval(&its, t0, t1, 2, &mut s).unwrap();
        assert_eq!(
            seg_bits(s.segments()),
            seg_bits(&sorted_pack(&its, t0, t1, 2).unwrap())
        );
        let heads: Vec<(f64, usize, TaskId)> = s
            .segments()
            .iter()
            .map(|g| (g.interval.start, g.core, g.task))
            .collect();
        assert_eq!(heads[..2], [(t0, 0, 1), (t0, 1, 2)]);
    }

    #[test]
    fn appended_segments_are_in_canonical_order() {
        // Five wrap-around items, three of them split across cores, packed
        // after an earlier subinterval.
        let mut s = Schedule::new(4);
        pack_subinterval(&items(&[2.0, 1.5]), 6.0, 8.0, 4, &mut s).unwrap();
        pack_subinterval(&items(&[1.6; 5]), 8.0, 10.0, 4, &mut s).unwrap();
        assert!(s.is_canonical());
        let starts: Vec<(f64, usize)> = s
            .segments()
            .iter()
            .map(|x| (x.interval.start, x.core))
            .collect();
        assert_eq!(starts[..2], [(6.0, 0), (6.0, 1)]);
        assert_eq!(starts[2..6], [(8.0, 0), (8.0, 1), (8.0, 2), (8.0, 3)]);
    }

    #[test]
    fn appends_at_most_items_plus_min_items_cores_minus_one_segments() {
        let mut rng = ChaCha8::seed_from_u64(0x09ac_0b0d);
        for _ in 0..2_000 {
            let cores = rng.gen_range_usize(1, 9);
            let n = rng.gen_range_usize(0, 13);
            let (t0, t1) = (3.0, 5.0);
            // Random durations scaled to fill a random share of capacity,
            // up to all of it (a split on every core), with dust mixed in.
            let mut ds: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.1) {
                        1e-9
                    } else {
                        rng.gen_range_f64(0.05, 2.0)
                    }
                })
                .collect();
            let total: f64 = ds.iter().sum();
            let fill = if rng.gen_bool(0.3) {
                1.0
            } else {
                rng.gen_range_f64(0.1, 1.0)
            };
            let scale = (fill * cores as f64 * (t1 - t0) / total.max(1e-12)).min(1.0);
            for d in &mut ds {
                *d = (*d * scale).min(t1 - t0);
            }
            let mut s = Schedule::new(cores);
            pack_subinterval(&items(&[1.0]), 0.0, 2.0, cores, &mut s).unwrap();
            let before = s.len();
            if pack_subinterval(&items(&ds), t0, t1, cores, &mut s).is_ok() {
                let appended = s.len() - before;
                assert!(
                    appended <= n + n.min(cores - 1),
                    "{appended} segments from {n} items on {cores} cores"
                );
            }
        }
        // The bound is tight: the second and third items both wrap.
        let mut s = Schedule::new(3);
        pack_subinterval(&items(&[1.5; 3]), 0.0, 2.0, 3, &mut s).unwrap();
        assert_eq!(s.len(), 3 + 2);
        assert_eq!(max_packed_segments(3, 3), 3 + 2);
    }

    #[test]
    fn paper_vd_even_allocation_packs_five_tasks_on_four_cores() {
        // Section V.D, interval [8,10]: five tasks × 8/5 each on 4 cores.
        let mut s = Schedule::new(4);
        pack_subinterval(&items(&[1.6; 5]), 8.0, 10.0, 4, &mut s).unwrap();
        check_no_core_overlap(&s);
        check_no_self_overlap(&s);
        // Every task receives its full allocation.
        for t in 0..5 {
            let d: f64 = s.task_segments(t).iter().map(|x| x.duration()).sum();
            assert!((d - 1.6).abs() < 1e-9, "task {t}: {d}");
        }
        // All inside the subinterval.
        let iv = Interval::new(8.0, 10.0);
        for seg in s.segments() {
            assert!(iv.covers(&seg.interval));
        }
        // Exactly the tasks that wrap get two segments: with 8/5 each,
        // task 0 fits [8, 9.6]; task 1 splits (9.6→10 + 8→9.2); etc.
        assert!(s.migrations() >= 1);
    }

    #[test]
    fn exact_fill_uses_every_core_fully() {
        let mut s = Schedule::new(2);
        pack_subinterval(&items(&[2.0, 2.0]), 0.0, 2.0, 2, &mut s).unwrap();
        check_no_core_overlap(&s);
        assert!((s.busy_time(0) - 2.0).abs() < 1e-9);
        assert!((s.busy_time(1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_item_longer_than_subinterval() {
        let mut s = Schedule::new(2);
        let err = pack_subinterval(&items(&[2.5]), 0.0, 2.0, 2, &mut s).unwrap_err();
        assert!(matches!(err, PackError::ItemTooLong { task: 0, .. }));
    }

    #[test]
    fn rejects_overcommitted_input() {
        let mut s = Schedule::new(2);
        let err = pack_subinterval(&items(&[2.0, 2.0, 1.0]), 0.0, 2.0, 2, &mut s).unwrap_err();
        assert!(matches!(err, PackError::Overcommitted { .. }));
    }

    #[test]
    fn tolerates_floating_point_noise_at_capacity() {
        let mut s = Schedule::new(2);
        let d = 2.0 + 1e-12;
        pack_subinterval(&items(&[d, d]), 0.0, 2.0, 2, &mut s).unwrap();
        check_no_core_overlap(&s);
    }

    #[test]
    fn zero_duration_items_are_skipped() {
        let mut s = Schedule::new(1);
        pack_subinterval(&items(&[0.0, 1.0, 0.0]), 0.0, 2.0, 1, &mut s).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.segments()[0].task, 1);
    }

    #[test]
    fn split_pieces_never_overlap_in_time() {
        // Adversarial: items sized to force a wrap at every boundary.
        let ds = [1.5, 1.5, 1.5, 1.5, 1.5];
        let mut s = Schedule::new(4);
        pack_subinterval(&items(&ds), 0.0, 2.0, 4, &mut s).unwrap();
        check_no_core_overlap(&s);
        check_no_self_overlap(&s);
        for (t, &d) in ds.iter().enumerate() {
            let got: f64 = s.task_segments(t).iter().map(|x| x.duration()).sum();
            assert!((got - d).abs() < 1e-9);
        }
    }

    #[test]
    fn full_length_item_takes_whole_core() {
        let mut s = Schedule::new(3);
        pack_subinterval(&items(&[2.0, 1.0, 2.0]), 4.0, 6.0, 3, &mut s).unwrap();
        check_no_core_overlap(&s);
        check_no_self_overlap(&s);
        let d0: f64 = s.task_segments(0).iter().map(|x| x.duration()).sum();
        assert!((d0 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn near_eps_subinterval_never_emits_nonexistent_core() {
        // Regression (found by esched-check): with Δ ≈ 1e-6 the old
        // `EPS·(1+Δ)` advance tolerance was ~10% of the subinterval, so
        // each core "finished" early and the leftover items were pushed
        // onto core `k == cores` — a nonexistent core that made the
        // simulator index out of bounds.
        let t0 = 100.0;
        let t1 = 100.0 + 1e-6;
        let ds = [9e-7, 9e-7, 1.5e-7];
        let mut s = Schedule::new(2);
        pack_subinterval(&items(&ds), t0, t1, 2, &mut s).unwrap();
        for seg in s.segments() {
            assert!(seg.core < 2, "segment on nonexistent core: {seg:?}");
        }
        check_no_core_overlap(&s);
        check_no_self_overlap(&s);
        for (t, &d) in ds.iter().enumerate() {
            let got: f64 = s.task_segments(t).iter().map(|x| x.duration()).sum();
            assert!((got - d).abs() <= 1e-12, "task {t}: got {got}, want {d}");
        }
    }

    #[test]
    fn tiny_duration_high_frequency_item_is_not_dropped() {
        // Regression (found by esched-check): a piece shorter than EPS
        // still matters when the work it carries exceeds WORK_TOL.
        let its = vec![PackItem {
            task: 0,
            duration: 5e-8,
            freq: 1e3,
        }];
        let mut s = Schedule::new(1);
        pack_subinterval(&its, 0.0, 1.0, 1, &mut s).unwrap();
        let d: f64 = s.task_segments(0).iter().map(|x| x.duration()).sum();
        assert!((d - 5e-8).abs() < 1e-15, "duration kept: {d}");
    }

    #[test]
    fn preserves_per_item_frequency() {
        let its = vec![
            PackItem {
                task: 0,
                duration: 1.0,
                freq: 0.5,
            },
            PackItem {
                task: 1,
                duration: 1.5,
                freq: 0.9,
            },
        ];
        let mut s = Schedule::new(2);
        pack_subinterval(&its, 0.0, 2.0, 2, &mut s).unwrap();
        for seg in s.segments() {
            let want = if seg.task == 0 { 0.5 } else { 0.9 };
            assert_eq!(seg.freq, want);
        }
    }
}
