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

use esched_types::time::EPS;
use esched_types::validate::WORK_TOL;
use esched_types::{Schedule, Segment, TaskId};

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

/// Pack `items` into `[t0, t1]` on `cores` cores, appending segments to
/// `out`. Items with ~zero duration are skipped. Durations are clamped to
/// `Δ` after the validity check, so callers may pass values that exceed
/// `Δ` by floating-point noise.
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
    let first = out.len();

    // Wrap-around fill. `cursor` is the next free instant on core `k`.
    //
    // Fill decisions use a *tight* tolerance at arithmetic-rounding scale,
    // not the loose validity `tol` above: advancing to the next core while
    // `tol` of capacity remains discards up to `tol` per core, and for
    // subintervals whose length is near `EPS` that loss compounds until the
    // leftover items land on core `k == cores` — a nonexistent core.
    let fill_tol = 1e-12 * (1.0 + t1.abs().max(t0.abs()));
    let mut k = 0usize;
    let mut cursor = t0;
    for it in items {
        let d = it.duration.min(delta).max(0.0);
        if negligible(d, it.freq) {
            continue;
        }
        if k >= cores {
            // Every core is full to within `fill_tol`; the validity gates
            // above bound whatever remains by their tolerance slack.
            break;
        }
        if cursor + d > t1 + fill_tol {
            // Split: spill-over goes to the start of the next core…
            esched_obs::metric_counter!("esched.core.pack_splits").inc();
            let spill = (cursor + d - t1).min(delta).max(0.0);
            debug_assert!(
                t0 + spill <= cursor + tol,
                "wrap-around self-overlap: spill end {} vs second start {}",
                t0 + spill,
                cursor
            );
            if k + 1 >= cores {
                // Capacity says this cannot happen; guard against
                // accumulated rounding by clamping onto the last core.
                let end = t1.min(cursor + d);
                if end > cursor {
                    out.push_exact(Segment::new(it.task, k, cursor, end, it.freq));
                }
                cursor = t1;
                k += 1;
                continue;
            }
            out.push_exact(Segment::new(it.task, k + 1, t0, t0 + spill, it.freq));
            // …and the first piece finishes off the current core.
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
    // The fill runs core by core; put this subinterval's segments in
    // canonical order.
    out.sort_canonical_from(first);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
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
