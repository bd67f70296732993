//! Seeded randomized tests for the simulator: energy/work conservation,
//! conflict detection soundness, and online-dispatch sanity.

use esched_obs::rng::ChaCha8;
use esched_sim::{dispatch, simulate, DispatchPolicy};
use esched_types::{PolynomialPower, PowerModel, Schedule, Segment, Task, TaskSet};

const CASES: usize = 48;

/// Disjoint single-core schedule + tasks that exactly match it.
fn chain_schedule(lens: &[f64], freq: f64) -> (Schedule, TaskSet) {
    let mut s = Schedule::new(1);
    let mut tasks = Vec::new();
    let mut t = 0.0;
    for (i, &len) in lens.iter().enumerate() {
        s.push(Segment::new(i, 0, t, t + len, freq));
        tasks.push(Task::of(t, t + len, len * freq));
        t += len;
    }
    (s, TaskSet::new(tasks).unwrap())
}

fn arb_lens(rng: &mut ChaCha8, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
    let n = rng.gen_range_usize(min_len, max_len);
    (0..n).map(|_| rng.gen_range_f64(lo, hi)).collect()
}

#[test]
fn simulated_energy_matches_analytic_for_clean_chains() {
    let mut rng = ChaCha8::seed_from_u64(0x51b0_0001);
    for _ in 0..CASES {
        let lens = arb_lens(&mut rng, 0.1, 4.0, 1, 10);
        let freq = rng.gen_range_f64(0.1, 2.0);
        let alpha = rng.gen_range_f64(2.0, 3.0);
        let p0 = rng.gen_range_f64(0.0, 0.3);
        let (s, ts) = chain_schedule(&lens, freq);
        let p = PolynomialPower::paper(alpha, p0);
        let r = simulate(&s, &ts, &p);
        assert!(r.is_clean(), "{:?} {:?}", r.conflicts, r.deadline_misses);
        assert!(
            (r.energy - s.energy(&p)).abs() < 1e-7 * (1.0 + s.energy(&p)),
            "sim {} vs analytic {}",
            r.energy,
            s.energy(&p)
        );
        // Work conservation per task.
        for (i, t) in ts.iter() {
            assert!((r.work_done[i] - t.wcec).abs() < 1e-6 * (1.0 + t.wcec));
        }
        let _ = p.power(1.0);
    }
}

#[test]
fn truncating_any_segment_causes_a_miss() {
    let mut rng = ChaCha8::seed_from_u64(0x51b0_0002);
    for _ in 0..CASES {
        let lens = arb_lens(&mut rng, 0.5, 4.0, 2, 8);
        let victim_frac = rng.gen_range_f64(0.05, 0.9);
        let (s, ts) = chain_schedule(&lens, 1.0);
        // Rebuild with the first segment truncated.
        let mut broken = Schedule::new(1);
        for (k, seg) in s.segments().iter().enumerate() {
            if k == 0 {
                let end = seg.interval.start + seg.interval.length() * victim_frac;
                broken.push(Segment::new(
                    seg.task,
                    seg.core,
                    seg.interval.start,
                    end,
                    seg.freq,
                ));
            } else {
                broken.push(*seg);
            }
        }
        let r = simulate(&broken, &ts, &PolynomialPower::cubic());
        assert!(r.deadline_misses.contains(&0), "truncation not detected");
    }
}

#[test]
fn overlapping_injection_is_detected() {
    let mut rng = ChaCha8::seed_from_u64(0x51b0_0003);
    for _ in 0..CASES {
        let lens = arb_lens(&mut rng, 0.5, 4.0, 2, 8);
        let (s, ts) = chain_schedule(&lens, 1.0);
        // Inject a segment overlapping the first on the same core.
        let mut broken = s.clone();
        let first = s.segments()[0];
        broken.push(Segment::new(
            1,
            0,
            first.interval.start + 0.1 * first.interval.length(),
            first.interval.start + 0.6 * first.interval.length(),
            1.0,
        ));
        let r = simulate(&broken, &ts, &PolynomialPower::cubic());
        assert!(!r.conflicts.is_empty(), "injected overlap not detected");
    }
}

/// A clean multi-core schedule on a slot grid shared by all cores, so
/// boundaries on different cores tie exactly; tasks resume and migrate
/// from slot to slot. Each task's window is the span of its segments.
fn grid_schedule(rng: &mut ChaCha8) -> (Schedule, TaskSet) {
    let cores = rng.gen_range_usize(2, 5);
    let mut s = Schedule::new(cores);
    // Per task: (release, deadline, work).
    let mut windows: Vec<(f64, f64, f64)> = Vec::new();
    let mut t = 0.0;
    for _ in 0..rng.gen_range_usize(2, 12) {
        let end = t + rng.gen_range_f64(0.1, 3.0);
        for core in 0..cores {
            if core > 0 && !rng.gen_bool(0.75) {
                continue;
            }
            // Resume a task not already running in this slot (one whose
            // window does not end with it), or start a new one.
            let resume = (!windows.is_empty() && rng.gen_bool(0.5))
                .then(|| rng.gen_range_usize(0, windows.len()))
                .filter(|&task| windows[task].1 != end);
            let task = resume.unwrap_or_else(|| {
                windows.push((t, end, 0.0));
                windows.len() - 1
            });
            let freq = rng.gen_range_f64(0.2, 1.5);
            s.push(Segment::new(task, core, t, end, freq));
            windows[task].1 = end;
            windows[task].2 += (end - t) * freq;
        }
        t = end;
    }
    let tasks = windows.iter().map(|&(r, d, c)| Task::of(r, d, c)).collect();
    (s, TaskSet::new(tasks).unwrap())
}

#[test]
fn shuffling_the_segment_list_leaves_the_report_bitwise_identical() {
    let mut rng = ChaCha8::seed_from_u64(0x51b0_0006);
    let p = PolynomialPower::paper(3.0, 0.1);
    for _ in 0..CASES {
        let (s, ts) = grid_schedule(&mut rng);
        let r = simulate(&s, &ts, &p);
        assert!(r.is_clean(), "{r:?}");
        let mut segs = s.segments().to_vec();
        for i in (1..segs.len()).rev() {
            segs.swap(i, rng.gen_range_usize(0, i + 1));
        }
        let mut shuffled = Schedule::new(s.cores);
        for seg in segs {
            shuffled.push(seg);
        }
        let r2 = simulate(&shuffled, &ts, &p);
        assert_eq!(format!("{r:?}"), format!("{r2:?}"));
    }
}

#[test]
fn online_dispatch_work_is_conserved_up_to_misses() {
    let mut rng = ChaCha8::seed_from_u64(0x51b0_0004);
    for _ in 0..CASES {
        let n = rng.gen_range_usize(1, 8);
        let ts = TaskSet::new(
            (0..n)
                .map(|_| {
                    let r = rng.gen_range_f64(0.0, 20.0);
                    let len = rng.gen_range_f64(1.0, 15.0);
                    let i = rng.gen_range_f64(0.05, 1.0);
                    Task::of(r, r + len, len * i)
                })
                .collect(),
        )
        .unwrap();
        let cores = rng.gen_range_usize(1, 4);
        let freqs: Vec<f64> = ts
            .tasks()
            .iter()
            .map(|t| t.intensity().max(0.01) * 1.5)
            .collect();
        let out = dispatch(&ts, cores, &freqs, DispatchPolicy::Edf, &[]);
        for (i, t) in ts.iter() {
            let got = out.schedule.work_of(i);
            if out.misses.contains(&i) {
                assert!(got < t.wcec + 1e-6);
            } else {
                assert!(
                    (got - t.wcec).abs() < 1e-6 * (1.0 + t.wcec),
                    "task {i}: {got} vs {}",
                    t.wcec
                );
            }
        }
        // Never more cores in use than exist: per-time accounting via
        // busy time bound.
        let horizon = ts.horizon();
        for c in 0..cores {
            assert!(out.schedule.busy_time(c) <= horizon.length() + 1e-6);
        }
    }
}

#[test]
fn activations_bound_segments() {
    let mut rng = ChaCha8::seed_from_u64(0x51b0_0005);
    for _ in 0..CASES {
        let lens = arb_lens(&mut rng, 0.1, 3.0, 1, 10);
        let (s, ts) = chain_schedule(&lens, 1.0);
        let r = simulate(&s, &ts, &PolynomialPower::cubic());
        let total_act: usize = r.activations.iter().sum();
        // Back-to-back handovers still stop/start: one activation per
        // segment on this chain.
        assert_eq!(total_act, s.len());
    }
}
