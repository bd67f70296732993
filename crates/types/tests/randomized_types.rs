//! Seeded randomized tests for the foundation types: interval algebra,
//! task-set demand, schedule accounting, coalescing, and validator
//! soundness.
//!
//! Each test draws `CASES` random inputs from a fixed-seed ChaCha8
//! stream, so failures are reproducible bit-for-bit.

use esched_core::{pack_subinterval, PackItem};
use esched_obs::rng::ChaCha8;
use esched_types::schedule::CoreTails;
use esched_types::time::{approx_eq, compensated_sum, Interval};
use esched_types::validate::WORK_TOL;
use esched_types::{
    validate_schedule, PolynomialPower, PowerModel, Schedule, Segment, Task, TaskSet, Violation,
    EPS,
};

const CASES: usize = 64;

fn arb_interval(rng: &mut ChaCha8) -> Interval {
    let s = rng.gen_range_f64(0.0, 100.0);
    let len = rng.gen_range_f64(0.01, 50.0);
    Interval::new(s, s + len)
}

fn arb_tasks(rng: &mut ChaCha8, max_tasks: usize) -> Vec<(f64, f64, f64)> {
    let n = rng.gen_range_usize(1, max_tasks + 1);
    (0..n)
        .map(|_| {
            (
                rng.gen_range_f64(0.0, 50.0),
                rng.gen_range_f64(0.1, 30.0),
                rng.gen_range_f64(0.1, 20.0),
            )
        })
        .collect()
}

#[test]
fn overlap_is_symmetric_and_bounded() {
    let mut rng = ChaCha8::seed_from_u64(0x7970_0001);
    for _ in 0..CASES {
        let a = arb_interval(&mut rng);
        let b = arb_interval(&mut rng);
        let ab = a.overlap_len(&b);
        let ba = b.overlap_len(&a);
        assert!((ab - ba).abs() < 1e-12);
        assert!(ab <= a.length() + 1e-12);
        assert!(ab <= b.length() + 1e-12);
        assert!(ab >= 0.0);
    }
}

#[test]
fn intersection_agrees_with_overlap_len() {
    let mut rng = ChaCha8::seed_from_u64(0x7970_0002);
    for _ in 0..CASES {
        let a = arb_interval(&mut rng);
        let b = arb_interval(&mut rng);
        match a.intersect(&b) {
            Some(i) => assert!((i.length() - a.overlap_len(&b)).abs() < 1e-9),
            None => assert!(a.overlap_len(&b) < 1e-9),
        }
    }
}

#[test]
fn covers_implies_overlap_equals_inner_length() {
    let mut rng = ChaCha8::seed_from_u64(0x7970_0003);
    for _ in 0..CASES {
        let a = arb_interval(&mut rng);
        let b = arb_interval(&mut rng);
        if a.covers(&b) {
            assert!((a.overlap_len(&b) - b.length()).abs() < 1e-7 * (1.0 + b.length()));
        }
    }
}

#[test]
fn contains_midpoint() {
    let mut rng = ChaCha8::seed_from_u64(0x7970_0004);
    for _ in 0..CASES {
        let a = arb_interval(&mut rng);
        assert!(a.contains(a.midpoint()));
        assert!(a.contains(a.start));
        assert!(a.contains(a.end));
    }
}

#[test]
fn demand_is_monotone_in_the_interval() {
    let mut rng = ChaCha8::seed_from_u64(0x7970_0005);
    for _ in 0..CASES {
        let tasks = arb_tasks(&mut rng, 12);
        let t1 = rng.gen_range_f64(0.0, 40.0);
        let width = rng.gen_range_f64(1.0, 60.0);
        let widen = rng.gen_range_f64(0.0, 20.0);
        let ts = TaskSet::new(
            tasks
                .iter()
                .map(|&(r, len, c)| Task::of(r, r + len, c))
                .collect(),
        )
        .unwrap();
        let t2 = t1 + width;
        let narrow = ts.demand(t1, t2);
        let wide = ts.demand(t1 - widen, t2 + widen);
        assert!(wide >= narrow - 1e-9, "widening decreased demand");
        assert!(narrow >= 0.0);
        // Demand over everything equals total work.
        let all = ts.demand(f64::NEG_INFINITY, f64::INFINITY);
        assert!((all - ts.total_work()).abs() < 1e-9);
    }
}

#[test]
fn event_points_are_sorted_and_within_horizon() {
    let mut rng = ChaCha8::seed_from_u64(0x7970_0006);
    for _ in 0..CASES {
        let tasks = arb_tasks(&mut rng, 12);
        let ts = TaskSet::new(
            tasks
                .iter()
                .map(|&(r, len, c)| Task::of(r, r + len, c))
                .collect(),
        )
        .unwrap();
        let pts = ts.event_points();
        assert!(pts.len() >= 2);
        for w in pts.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(approx_eq(pts[0], ts.earliest_release()));
        assert!(approx_eq(*pts.last().unwrap(), ts.latest_deadline()));
    }
}

#[test]
fn schedule_work_and_energy_accounting() {
    let mut rng = ChaCha8::seed_from_u64(0x7970_0007);
    for _ in 0..CASES {
        let n = rng.gen_range_usize(0, 16);
        let mut s = Schedule::new(3);
        for _ in 0..n {
            let task = rng.gen_range_usize(0, 4);
            let core = rng.gen_range_usize(0, 3);
            let start = rng.gen_range_f64(0.0, 20.0);
            let len = rng.gen_range_f64(0.05, 5.0);
            let freq = rng.gen_range_f64(0.1, 2.0);
            s.push(Segment::new(task, core, start, start + len, freq));
        }
        // Total work = Σ per-task work.
        let total: f64 = (0..4).map(|t| s.work_of(t)).sum();
        let by_segment: f64 = s.segments().iter().map(|x| x.work()).sum();
        assert!((total - by_segment).abs() < 1e-9 * (1.0 + by_segment));
        // Energy under two models is consistent with per-segment sums.
        for p in [PolynomialPower::cubic(), PolynomialPower::paper(2.0, 0.3)] {
            let e = s.energy(&p);
            let by_seg: f64 = s.segments().iter().map(|x| x.energy(&p)).sum();
            assert!((e - by_seg).abs() < 1e-9 * (1.0 + by_seg));
            assert!(e >= 0.0);
            let _ = p.power(1.0);
        }
        // Busy time splits across cores.
        let busy: f64 = (0..3).map(|c| s.busy_time(c)).sum();
        let dur: f64 = s.segments().iter().map(|x| x.duration()).sum();
        assert!((busy - dur).abs() < 1e-9 * (1.0 + dur));
    }
}

#[test]
fn coalesce_preserves_work_and_legality_status() {
    let mut rng = ChaCha8::seed_from_u64(0x7970_0008);
    for _ in 0..CASES {
        let n = rng.gen_range_usize(0, 12);
        let mut s = Schedule::new(2);
        for _ in 0..n {
            let task = rng.gen_range_usize(0, 3);
            let core = rng.gen_range_usize(0, 2);
            let start = rng.gen_range_f64(0.0, 20.0);
            let len = rng.gen_range_f64(0.05, 5.0);
            s.push(Segment::new(task, core, start, start + len, 1.0));
        }
        let works_before: Vec<f64> = (0..3).map(|t| s.work_of(t)).collect();
        let mut t = s.clone();
        t.coalesce();
        for (k, &w) in works_before.iter().enumerate() {
            assert!(
                (t.work_of(k) - w).abs() < 1e-7 * (1.0 + w),
                "task {k}: {} vs {w}",
                t.work_of(k)
            );
        }
        assert!(t.len() <= s.len());
    }
}

#[test]
fn compensated_sum_matches_naive_on_benign_inputs() {
    let mut rng = ChaCha8::seed_from_u64(0x7970_0009);
    for _ in 0..CASES {
        let n = rng.gen_range_usize(0, 64);
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(-100.0, 100.0)).collect();
        let a = compensated_sum(xs.iter().copied());
        let b: f64 = xs.iter().sum();
        assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
    }
}

#[test]
fn validator_accepts_disjoint_single_core_schedules() {
    let mut rng = ChaCha8::seed_from_u64(0x7970_000a);
    for _ in 0..CASES {
        // Build a chain of back-to-back segments and matching tasks: must
        // always validate.
        let n = rng.gen_range_usize(1, 8);
        let mut s = Schedule::new(1);
        let mut tasks = Vec::new();
        let mut t = 0.0;
        for i in 0..n {
            let len = rng.gen_range_f64(0.1, 3.0);
            s.push(Segment::new(i, 0, t, t + len, 1.0));
            tasks.push(Task::of(t, t + len, len));
            t += len;
        }
        let ts = TaskSet::new(tasks).unwrap();
        let report = validate_schedule(&s, &ts);
        assert!(report.is_legal(), "{:?}", report.violations);
    }
}

/// The validator as first written: one filter over the whole segment list
/// per core and per task. O(n·S), but obviously the five conditions.
fn filtering_validator(schedule: &Schedule, tasks: &TaskSet) -> Vec<Violation> {
    let mut violations = Vec::new();
    for seg in schedule.segments() {
        if seg.core >= schedule.cores {
            violations.push(Violation::BadCore {
                task: seg.task,
                core: seg.core,
            });
        }
        if seg.task >= tasks.len() {
            violations.push(Violation::BadTask { task: seg.task });
        }
    }
    if violations
        .iter()
        .any(|v| matches!(v, Violation::BadTask { .. }))
    {
        return violations;
    }
    for core in 0..schedule.cores {
        for w in schedule.core_segments(core).windows(2) {
            let overlap = w[0].interval.overlap_len(&w[1].interval);
            if overlap > EPS {
                violations.push(Violation::CoreOverlap {
                    core,
                    task_a: w[0].task,
                    task_b: w[1].task,
                    overlap,
                });
            }
        }
    }
    for task in schedule.task_ids() {
        for w in schedule.task_segments(task).windows(2) {
            let overlap = w[0].interval.overlap_len(&w[1].interval);
            if overlap > EPS {
                violations.push(Violation::SelfOverlap { task, overlap });
            }
        }
    }
    for seg in schedule.segments() {
        if !tasks.get(seg.task).window().covers(&seg.interval) {
            violations.push(Violation::OutsideWindow {
                task: seg.task,
                start: seg.interval.start,
                end: seg.interval.end,
            });
        }
    }
    for (id, t) in tasks.iter() {
        let delivered = schedule.work_of(id);
        if delivered < t.wcec * (1.0 - WORK_TOL) - WORK_TOL {
            violations.push(Violation::Underserved {
                task: id,
                delivered,
                required: t.wcec,
            });
        }
    }
    violations
}

#[test]
fn validator_reports_what_a_filter_per_core_and_task_reports() {
    let mut rng = ChaCha8::seed_from_u64(0x7970_000b);
    for _ in 0..CASES {
        let ts = TaskSet::new(
            arb_tasks(&mut rng, 8)
                .iter()
                .map(|&(r, len, c)| Task::of(r, r + len, c))
                .collect(),
        )
        .unwrap();
        let cores = rng.gen_range_usize(1, 4);
        let mut s = Schedule::new(cores);
        // Segments on a coarse grid, so starts tie and segments overlap;
        // now and then on a core that does not exist or for a task that
        // does not exist.
        for _ in 0..rng.gen_range_usize(0, 24) {
            let start = rng.gen_range_usize(0, 20) as f64 * 5.0;
            let len = rng.gen_range_usize(1, 4) as f64 * 5.0;
            let spare_core = usize::from(rng.gen_bool(0.05));
            let core = rng.gen_range_usize(0, cores + spare_core);
            let spare_task = usize::from(rng.gen_bool(0.02));
            let task = rng.gen_range_usize(0, ts.len() + spare_task);
            s.push(Segment::new(
                task,
                core,
                start,
                start + len,
                rng.gen_range_f64(0.1, 2.0),
            ));
        }
        assert_eq!(
            validate_schedule(&s, &ts).violations,
            filtering_validator(&s, &ts)
        );
    }
}

/// `Schedule::coalesce` before the single-sort rewrite, kept verbatim as
/// the reference: a stable sort by (core, task, start), a merge of
/// consecutive pieces of one task on one core, and a second stable sort
/// by (start, core).
fn reference_coalesce(schedule: &Schedule) -> Vec<Segment> {
    let mut merged: Vec<Segment> = Vec::with_capacity(schedule.len());
    let mut segs = schedule.segments().to_vec();
    segs.sort_by(|a, b| {
        (a.core, a.task).cmp(&(b.core, b.task)).then(
            a.interval
                .start
                .partial_cmp(&b.interval.start)
                .expect("finite"),
        )
    });
    for seg in segs {
        if let Some(last) = merged.last_mut() {
            let freq_close =
                (last.freq - seg.freq).abs() <= EPS * last.freq.abs().max(seg.freq.abs());
            let adjacent = (seg.interval.start - last.interval.end).abs()
                <= 1e-12 * (1.0 + last.interval.end.abs().max(seg.interval.start.abs()));
            if last.core == seg.core && last.task == seg.task && freq_close && adjacent {
                last.interval.end = seg.interval.end.max(last.interval.end);
                continue;
            }
        }
        merged.push(seg);
    }
    merged.sort_by(|a, b| {
        a.interval
            .start
            .partial_cmp(&b.interval.start)
            .expect("finite")
            .then(a.core.cmp(&b.core))
    });
    merged
}

/// Segments as bit patterns, so `-0.0` and `+0.0` compare unequal.
fn bits(segs: &[Segment]) -> Vec<(usize, usize, u64, u64, u64)> {
    segs.iter()
        .map(|s| {
            (
                s.task,
                s.core,
                s.interval.start.to_bits(),
                s.interval.end.to_bits(),
                s.freq.to_bits(),
            )
        })
        .collect()
}

fn schedule_of(cores: usize, segs: &[Segment]) -> Schedule {
    let mut s = Schedule::new(cores);
    for &seg in segs {
        s.push_exact(seg);
    }
    s
}

fn shuffled(rng: &mut ChaCha8, schedule: &Schedule) -> Schedule {
    let mut segs = schedule.segments().to_vec();
    for i in (1..segs.len()).rev() {
        segs.swap(i, rng.gen_range_usize(0, i + 1));
    }
    schedule_of(schedule.cores, &segs)
}

/// Coalesce `schedule` and check the result bit for bit against the
/// reference; the result is canonical, coalescing it again changes
/// nothing, and appending the segments in canonical order with
/// `push_coalesced` builds the same list. Returns the number of segments
/// merged away.
fn assert_coalesces_as_reference(schedule: &Schedule) -> usize {
    let want = reference_coalesce(schedule);
    let mut got = schedule.clone();
    got.coalesce();
    assert_eq!(bits(got.segments()), bits(&want));
    assert!(got.is_canonical());
    let mut again = got.clone();
    again.coalesce();
    assert_eq!(bits(again.segments()), bits(got.segments()));

    let mut canonical = schedule.segments().to_vec();
    canonical.sort_by(|a, b| {
        a.interval
            .start
            .partial_cmp(&b.interval.start)
            .expect("finite")
            .then(a.core.cmp(&b.core))
            .then(a.task.cmp(&b.task))
    });
    let mut streamed = Schedule::new(schedule.cores);
    let mut tails = CoreTails::new(schedule.cores);
    for seg in canonical {
        streamed.push_coalesced(seg, &mut tails);
    }
    assert_eq!(bits(streamed.segments()), bits(got.segments()));
    schedule.len() - got.len()
}

/// A schedule packed by Algorithm 1 over a chain of adjacent subintervals,
/// as the refinement builds one: tasks keep one frequency across
/// subintervals (now and then another, which blocks a merge), and often
/// fill a whole subinterval, so pieces chain across boundaries. With
/// `through_zero` the boundaries are integer multiples of one width and
/// one of them is exactly `0.0`.
fn packed_chain(rng: &mut ChaCha8, through_zero: bool) -> Schedule {
    let cores = rng.gen_range_usize(1, 5);
    let tasks = rng.gen_range_usize(1, 10);
    let freqs: Vec<f64> = (0..tasks).map(|_| rng.gen_range_f64(0.2, 2.0)).collect();
    let subs = rng.gen_range_usize(1, 12);
    let width = rng.gen_range_f64(0.1, 4.0);
    let zero_at = rng.gen_range_usize(0, subs) as f64;
    let mut bounds = vec![if through_zero {
        -zero_at * width
    } else {
        rng.gen_range_f64(0.0, 100.0)
    }];
    for j in 1..=subs {
        let next = if through_zero {
            (j as f64 - zero_at) * width
        } else if rng.gen_bool(0.1) {
            bounds[j - 1] + 1e-7
        } else {
            bounds[j - 1] + rng.gen_range_f64(0.1, 4.0)
        };
        bounds.push(next);
    }
    let mut s = Schedule::new(cores);
    let mut items: Vec<PackItem> = Vec::new();
    for w in bounds.windows(2) {
        let delta = w[1] - w[0];
        items.clear();
        for (task, &task_freq) in freqs.iter().enumerate() {
            if !rng.gen_bool(0.6) {
                continue;
            }
            let duration = if rng.gen_bool(0.3) {
                delta
            } else {
                delta * rng.gen_range_f64(0.05, 1.0)
            };
            let freq = if rng.gen_bool(0.1) {
                rng.gen_range_f64(0.2, 2.0)
            } else {
                task_freq
            };
            items.push(PackItem {
                task,
                duration,
                freq,
            });
        }
        for i in (1..items.len()).rev() {
            items.swap(i, rng.gen_range_usize(0, i + 1));
        }
        let total: f64 = items.iter().map(|it| it.duration).sum();
        let capacity = cores as f64 * delta;
        if total > capacity {
            for it in &mut items {
                it.duration *= capacity / total;
            }
        }
        pack_subinterval(&items, w[0], w[1], cores, &mut s).unwrap();
    }
    s
}

#[test]
fn coalesce_matches_the_two_sort_reference_on_packed_chains() {
    let mut rng = ChaCha8::seed_from_u64(0x7970_000c);
    let mut merged = 0;
    for _ in 0..4 * CASES {
        let s = packed_chain(&mut rng, false);
        // Packing disjoint subintervals in time order builds a canonical
        // schedule, so `coalesce` merges it without a sort.
        assert!(s.is_canonical());
        merged += assert_coalesces_as_reference(&s);
        assert_coalesces_as_reference(&shuffled(&mut rng, &s));
    }
    assert!(merged > 0, "no case merged a segment");
}

#[test]
fn coalesce_matches_the_reference_across_signed_zero_starts() {
    let mut rng = ChaCha8::seed_from_u64(0x7970_000d);
    let mut flipped = 0;
    for _ in 0..4 * CASES {
        let s = packed_chain(&mut rng, true);
        // Turn some starts at +0.0 into -0.0, and now and then add a copy
        // with the other sign, so starts tie across the two zeros.
        let mut segs = Vec::new();
        for &seg in s.segments() {
            let mut seg = seg;
            if seg.interval.start == 0.0 && rng.gen_bool(0.5) {
                seg.interval.start = -0.0;
                flipped += 1;
            }
            segs.push(seg);
            if seg.interval.start == 0.0 && rng.gen_bool(0.2) {
                let mut twin = seg;
                twin.interval.start = -seg.interval.start;
                segs.push(twin);
            }
        }
        let s = schedule_of(s.cores, &segs);
        assert!(s.is_canonical());
        assert_coalesces_as_reference(&s);
        assert_coalesces_as_reference(&shuffled(&mut rng, &s));
    }
    assert!(flipped > 0, "no case started a segment at -0.0");
}

#[test]
fn coalesce_merges_on_cores_beyond_the_core_count_as_on_real_cores() {
    let mut rng = ChaCha8::seed_from_u64(0x7970_000e);
    for _ in 0..4 * CASES {
        let s = packed_chain(&mut rng, false);
        // Declare fewer cores than the packing used, and move some of the
        // surplus cores far out of range.
        let cores = rng.gen_range_usize(1, s.cores + 1);
        let far = [1 << 40, usize::MAX - 8];
        let segs: Vec<Segment> = s
            .segments()
            .iter()
            .map(|&seg| {
                let mut seg = seg;
                if seg.core >= cores && rng.gen_bool(0.5) {
                    seg.core += far[rng.gen_range_usize(0, 2)];
                }
                seg
            })
            .collect();
        let s = schedule_of(cores, &segs);
        assert_coalesces_as_reference(&s);
        assert_coalesces_as_reference(&shuffled(&mut rng, &s));
    }
}

/// The one intended difference from the reference: a sub-tolerance sliver
/// of another task between two adjacent pieces of one task on one core.
/// The reference merges the two pieces across the sliver and books the
/// core twice for it; `coalesce` keeps all three segments.
#[test]
fn coalesce_does_not_merge_across_a_sliver_of_another_task() {
    let sliver_end = 1.0 + 1e-12;
    let mut s = Schedule::new(1);
    s.push_exact(Segment::new(0, 0, 0.0, 1.0, 1.0));
    s.push_exact(Segment::new(1, 0, 1.0, sliver_end, 1.0));
    s.push_exact(Segment::new(0, 0, sliver_end, 2.0, 1.0));
    let tasks = TaskSet::new(vec![Task::of(0.0, 2.0, 2.0), Task::of(0.0, 2.0, 1e-12)]).unwrap();

    let reference = reference_coalesce(&s);
    assert_eq!(reference.len(), 2);
    assert!(reference[0].interval.overlap_len(&reference[1].interval) > 0.0);

    let mut got = s.clone();
    got.coalesce();
    assert_eq!(bits(got.segments()), bits(s.segments()));
    validate_schedule(&got, &tasks).assert_legal();
}

#[test]
fn migrations_and_preemptions_match_a_filter_per_task() {
    let mut rng = ChaCha8::seed_from_u64(0x7970_000f);
    for case in 0..4 * CASES {
        let s = if case % 2 == 0 {
            packed_chain(&mut rng, false)
        } else {
            // A coarse grid, so starts tie and segments abut and overlap.
            let cores = rng.gen_range_usize(1, 4);
            let mut s = Schedule::new(cores);
            for _ in 0..rng.gen_range_usize(0, 24) {
                let start = rng.gen_range_usize(0, 20) as f64;
                let len = rng.gen_range_usize(1, 4) as f64;
                s.push(Segment::new(
                    rng.gen_range_usize(0, 5),
                    rng.gen_range_usize(0, cores),
                    start,
                    start + len,
                    1.0,
                ));
            }
            shuffled(&mut rng, &s)
        };
        let (mut migrations, mut preemptions) = (0, 0);
        for task in s.task_ids() {
            let segs = s.task_segments(task);
            migrations += segs.windows(2).filter(|w| w[0].core != w[1].core).count();
            preemptions += segs
                .windows(2)
                .filter(|w| !approx_eq(w[0].interval.end, w[1].interval.start))
                .count();
        }
        assert_eq!(s.migrations(), migrations);
        assert_eq!(s.preemptions(), preemptions);
        let concatenated: Vec<Segment> = s
            .task_ids()
            .into_iter()
            .flat_map(|task| s.task_segments(task))
            .collect();
        assert_eq!(bits(&s.segments_by_task()), bits(&concatenated));
    }
}
