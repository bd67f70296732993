//! Frequency refinement and schedule materialization.
//!
//! Given an availability matrix `a_{i,j}`, two schedules are derived:
//!
//! * the **intermediate** schedule (`S^I1`/`S^I2`): every task completes,
//!   in each subinterval, exactly the work the ideal case `S^O` completes
//!   there. Where the allocation is tighter than the ideal execution time,
//!   the frequency rises to squeeze the same work into the allocated time
//!   (Sections V.B.1 / V.C.1);
//! * the **final** schedule (`S^F1`/`S^F2`): each task's total available
//!   time `A_i = Σ_j a_{i,j}` feeds the per-task optimum of Eq. 22-23,
//!   `f_i = max{ f_crit, C_i/A_i }`, and the task's execution time
//!   `C_i/f_i` is spread over its available slots proportionally.
//!
//! Both are materialized into concrete [`Schedule`]s via Algorithm 1
//! ([`crate::packing`]) so they can be validated and simulated; their
//! energies are the analytic `E^I`/`E^F` of the paper. The two builds
//! read the same allocation and nothing of each other, so
//! [`build_outcome_with`] runs them side by side when given a pool.
//! Each schedule's segment buffer is sized once, to the packer's upper
//! bound for the timeline.

use crate::allocation::AvailMatrix;
use crate::ideal::IdealSolution;
use crate::packing::{max_packed_segments, pack_subinterval, PackItem};
use crate::pool::Pool;
use crate::scratch::Scratch;
use esched_obs::{span, Level};
use esched_subinterval::Timeline;
use esched_types::time::EPS;
use esched_types::{FrequencyAssignment, PolynomialPower, Schedule, TaskSet};

/// Everything a heuristic run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct HeuristicOutcome {
    /// Per-(task, subinterval) available times `a_{i,j}`.
    pub avail: AvailMatrix,
    /// Per-task totals `A_i`.
    pub total_avail: Vec<f64>,
    /// The final per-task frequency assignment (Eq. 22-23).
    pub assignment: FrequencyAssignment,
    /// Energy of the intermediate schedule (`E^{I1}` / `E^{I2}`).
    pub intermediate_energy: f64,
    /// Energy of the final schedule (`E^{F1}` / `E^{F2}`).
    pub final_energy: f64,
    /// The materialized intermediate schedule.
    pub intermediate_schedule: Schedule,
    /// The materialized final schedule.
    pub schedule: Schedule,
}

/// The most segments packing every subinterval of `timeline` can emit:
/// one packed item per overlapping task, plus the packer's splits.
fn packed_capacity(timeline: &Timeline, cores: usize) -> usize {
    timeline
        .subintervals()
        .iter()
        .map(|sub| max_packed_segments(sub.overlapping.len(), cores))
        .sum()
}

/// Build the intermediate schedule: per subinterval, each overlapping task
/// runs for `min(u, a)` where `u = |U_i^O ∩ sub|`, at frequency `f_i^O`
/// when `u ≤ a` and at the squeezed `u·f_i^O/a` otherwise. The work
/// completed per subinterval equals the ideal case's.
pub fn intermediate_schedule(
    timeline: &Timeline,
    cores: usize,
    ideal: &IdealSolution,
    avail: &AvailMatrix,
) -> Schedule {
    intermediate_schedule_with(timeline, cores, ideal, avail, &mut Vec::new())
}

/// [`intermediate_schedule`] staging pack items in a caller-owned buffer.
pub fn intermediate_schedule_with(
    timeline: &Timeline,
    cores: usize,
    ideal: &IdealSolution,
    avail: &AvailMatrix,
    items: &mut Vec<PackItem>,
) -> Schedule {
    let mut out = Schedule::with_capacity(cores, packed_capacity(timeline, cores));
    // Ideal-overlap staging: computed for the whole column in one tight
    // pass before the branchy item-selection loop, so the hot part of the
    // column walk is a flat sequential fill.
    let mut overlaps: Vec<f64> = Vec::new();
    for sub in timeline.subintervals() {
        items.clear();
        let cells = avail.col(sub.index);
        overlaps.clear();
        overlaps.extend(
            sub.overlapping
                .iter()
                .map(|&i| ideal.exec_overlap(i, &sub.interval)),
        );
        for (pos, &i) in sub.overlapping.iter().enumerate() {
            let u = overlaps[pos];
            if crate::packing::negligible(u, ideal.freq[i]) {
                continue;
            }
            let a = cells[pos];
            // Strict comparison: running for `u > a` — even by only EPS —
            // lets tasks collectively overshoot `m·Δ` when Δ is itself
            // near EPS. A dust-sized overshoot lands in the squeeze branch
            // instead, where the frequency rises by the same dust factor.
            let (duration, freq) = if u <= a {
                (u, ideal.freq[i])
            } else if a > 0.0 && !crate::packing::negligible(a, u * ideal.freq[i] / a) {
                (a, u * ideal.freq[i] / a)
            } else {
                // No allocation at all in this subinterval: the ideal work
                // here is lost; the *final* schedule recovers feasibility,
                // but the intermediate schedule (matching the paper's
                // analytic construction) simply cannot place it. Skip —
                // tasks with positive DER always receive positive
                // allocation (see allocation.rs), so this arises only for
                // zero allocations where u is also ~0.
                continue;
            };
            items.push(PackItem {
                task: i,
                duration,
                freq,
            });
        }
        pack_subinterval(items, sub.interval.start, sub.interval.end, cores, &mut out)
            .expect("intermediate durations respect capacity by construction");
    }
    out.coalesce();
    out
}

/// Final frequency assignment from per-task available totals:
/// `f_i = max{ f_crit, C_i / A_i }`.
pub fn final_assignment(
    tasks: &TaskSet,
    total_avail: &[f64],
    power: &PolynomialPower,
) -> FrequencyAssignment {
    assert_eq!(tasks.len(), total_avail.len());
    let freq = tasks
        .iter()
        .map(|(i, t)| {
            // Clamp the denominator away from ~0 so a degenerate timeline
            // (a task whose only subintervals are near-EPS slivers) yields
            // a large-but-finite frequency instead of dividing into
            // NaN/inf. The validator reports the task as underserved if
            // its work is material; nothing downstream panics.
            let a = total_avail[i].max(EPS);
            power.optimal_frequency(t.wcec, a)
        })
        .collect();
    FrequencyAssignment {
        freq,
        avail: total_avail.to_vec(),
    }
}

/// Materialize the final schedule: task `i` needs `d_i = C_i/f_i ≤ A_i`
/// core time, spread over its available slots in proportion
/// `x_{i,j} = a_{i,j}·d_i/A_i`, then packed per subinterval by Algorithm 1.
pub fn final_schedule(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    avail: &AvailMatrix,
    assignment: &FrequencyAssignment,
) -> Schedule {
    final_schedule_with(
        tasks,
        timeline,
        cores,
        avail,
        assignment,
        &mut Vec::new(),
        &mut Vec::new(),
    )
}

/// [`final_schedule`] staging pack items and per-task scale factors in
/// caller-owned buffers.
pub fn final_schedule_with(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    avail: &AvailMatrix,
    assignment: &FrequencyAssignment,
    items: &mut Vec<PackItem>,
    scale: &mut Vec<f64>,
) -> Schedule {
    let n = tasks.len();
    // Per-task scale factor d_i / A_i ∈ (0, 1].
    scale.clear();
    scale.resize(n, 0.0);
    for (i, t) in tasks.iter() {
        let d = t.wcec / assignment.freq[i];
        let a = assignment.avail[i];
        debug_assert!(
            d <= a.max(EPS) * (1.0 + 1e-9),
            "duration {d} exceeds avail {a}"
        );
        // Guard the ~0-availability degenerate: scale 0 (no time to give)
        // rather than dividing into inf/NaN.
        scale[i] = if a > 0.0 { (d / a).min(1.0) } else { 0.0 };
    }
    let mut out = Schedule::with_capacity(cores, packed_capacity(timeline, cores));
    // Scaled-usage staging: one flat gather-multiply over the column's
    // cells before the branchy item-selection loop — the multiply runs
    // over sequential slab loads, which is what the autovectorizer needs.
    let mut used_buf: Vec<f64> = Vec::new();
    for sub in timeline.subintervals() {
        items.clear();
        let cells = avail.col(sub.index);
        used_buf.clear();
        used_buf.extend(
            sub.overlapping
                .iter()
                .zip(cells.iter())
                .map(|(&i, &a)| a * scale[i]),
        );
        for (pos, &i) in sub.overlapping.iter().enumerate() {
            let used = used_buf[pos];
            // Work-aware dust filter: a sub-EPS slot still matters when the
            // task's frequency is high enough that it carries real work.
            if crate::packing::negligible(used, assignment.freq[i]) {
                continue;
            }
            items.push(PackItem {
                task: i,
                duration: used,
                freq: assignment.freq[i],
            });
        }
        pack_subinterval(items, sub.interval.start, sub.interval.end, cores, &mut out)
            .expect("scaled durations respect capacity by construction");
    }
    out.coalesce();
    out
}

/// Assemble the full [`HeuristicOutcome`] from an availability matrix.
/// Shared tail of the even and DER pipelines.
pub fn build_outcome(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    power: &PolynomialPower,
    ideal: &IdealSolution,
    avail: AvailMatrix,
) -> HeuristicOutcome {
    build_outcome_with(
        tasks,
        timeline,
        cores,
        power,
        ideal,
        avail,
        &mut Scratch::new(),
        None,
    )
}

/// [`build_outcome`] staging pack items and scale factors in `scratch`.
///
/// With a `pool`, the intermediate schedule and its energy are built on
/// the calling thread while the final assignment, its analytic energy and
/// the final schedule are built on a second thread ([`Pool::join`]; in
/// sequence when the pool has one worker). The two builds share no
/// state, so the outcome is bit-identical with or without a pool.
#[allow(clippy::too_many_arguments)] // the refinement inputs plus where to run them
pub fn build_outcome_with(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    power: &PolynomialPower,
    ideal: &IdealSolution,
    avail: AvailMatrix,
    scratch: &mut Scratch,
    pool: Option<&Pool>,
) -> HeuristicOutcome {
    let _span = span!(
        Level::Debug,
        "refine_frequencies",
        n_tasks = tasks.len(),
        n_subintervals = timeline.len(),
        cores = cores,
    );
    let total_avail = avail.totals();
    let Scratch { items, scale, .. } = scratch;
    let intermediate_job = || {
        let schedule = intermediate_schedule_with(timeline, cores, ideal, &avail, items);
        let energy = schedule.energy(power);
        (schedule, energy)
    };
    let final_job = || {
        let assignment = final_assignment(tasks, &total_avail, power);
        let works: Vec<f64> = tasks.tasks().iter().map(|t| t.wcec).collect();
        let energy = assignment.energy(&works, power);
        // Its own staging buffer: the intermediate build may be using
        // the scratch one at the same time.
        let schedule = final_schedule_with(
            tasks,
            timeline,
            cores,
            &avail,
            &assignment,
            &mut Vec::new(),
            scale,
        );
        (assignment, energy, schedule)
    };
    let serial = Pool::with_threads(1);
    let ((intermediate, intermediate_energy), (assignment, final_energy, schedule)) =
        pool.unwrap_or(&serial).join(intermediate_job, final_job);
    HeuristicOutcome {
        avail,
        total_avail,
        assignment,
        intermediate_energy,
        final_energy,
        intermediate_schedule: intermediate,
        schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::{allocate, allocate_even, AllocRequest};
    use crate::ideal::ideal_schedule;
    use esched_obs::rng::ChaCha8;
    use esched_types::{validate_schedule, Task};

    fn allocate_der(
        tasks: &TaskSet,
        tl: &Timeline,
        cores: usize,
        ideal: &IdealSolution,
    ) -> AvailMatrix {
        allocate(AllocRequest::new(tasks, tl, cores, ideal))
    }

    fn vd_tasks() -> TaskSet {
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
    fn vd_even_final_energy_matches_paper_33_0642() {
        let ts = vd_tasks();
        let tl = Timeline::build(&ts);
        let p = PolynomialPower::cubic();
        let ideal = ideal_schedule(&ts, &p);
        let avail = allocate_even(&ts, &tl, 4);
        let out = build_outcome(&ts, &tl, 4, &p, &ideal, avail);
        assert!(
            (out.final_energy - 33.0642).abs() < 5e-4,
            "E^F1 = {} vs paper 33.0642",
            out.final_energy
        );
        // Paper's final frequencies.
        let expect = [
            8.0 / 9.6,
            14.0 / 15.2,
            8.0 / 11.2,
            4.0 / 7.2,
            10.0 / 11.2,
            6.0 / 9.6,
        ];
        for (i, &e) in expect.iter().enumerate() {
            assert!(
                (out.assignment.freq[i] - e).abs() < 1e-9,
                "task {i}: {} vs {e}",
                out.assignment.freq[i]
            );
        }
    }

    #[test]
    fn vd_der_final_energy_matches_paper_31_8362() {
        let ts = vd_tasks();
        let tl = Timeline::build(&ts);
        let p = PolynomialPower::cubic();
        let ideal = ideal_schedule(&ts, &p);
        let avail = allocate_der(&ts, &tl, 4, &ideal);
        let out = build_outcome(&ts, &tl, 4, &p, &ideal, avail);
        assert!(
            (out.final_energy - 31.8362).abs() < 5e-4,
            "E^F2 = {} vs paper 31.8362",
            out.final_energy
        );
        // DER beats even allocation on this instance, as the paper shows.
        let even = build_outcome(&ts, &tl, 4, &p, &ideal, allocate_even(&ts, &tl, 4));
        assert!(out.final_energy < even.final_energy);
    }

    #[test]
    fn both_final_schedules_are_legal() {
        let ts = vd_tasks();
        let tl = Timeline::build(&ts);
        for p in [PolynomialPower::cubic(), PolynomialPower::paper(3.0, 0.2)] {
            let ideal = ideal_schedule(&ts, &p);
            for avail in [
                allocate_even(&ts, &tl, 4),
                allocate_der(&ts, &tl, 4, &ideal),
            ] {
                let out = build_outcome(&ts, &tl, 4, &p, &ideal, avail);
                validate_schedule(&out.schedule, &ts).assert_legal();
            }
        }
    }

    #[test]
    fn intermediate_schedules_are_legal() {
        let ts = vd_tasks();
        let tl = Timeline::build(&ts);
        let p = PolynomialPower::cubic();
        let ideal = ideal_schedule(&ts, &p);
        for avail in [
            allocate_even(&ts, &tl, 4),
            allocate_der(&ts, &tl, 4, &ideal),
        ] {
            let out = build_outcome(&ts, &tl, 4, &p, &ideal, avail);
            validate_schedule(&out.intermediate_schedule, &ts).assert_legal();
        }
    }

    #[test]
    fn final_improves_on_intermediate() {
        // E^F ≤ E^I (final refinement only re-optimizes frequencies).
        let ts = vd_tasks();
        let tl = Timeline::build(&ts);
        for p in [
            PolynomialPower::cubic(),
            PolynomialPower::paper(3.0, 0.1),
            PolynomialPower::paper(2.0, 0.2),
        ] {
            let ideal = ideal_schedule(&ts, &p);
            for avail in [
                allocate_even(&ts, &tl, 4),
                allocate_der(&ts, &tl, 4, &ideal),
            ] {
                let out = build_outcome(&ts, &tl, 4, &p, &ideal, avail);
                assert!(
                    out.final_energy <= out.intermediate_energy + 1e-9,
                    "p0={} final {} > intermediate {}",
                    p.p0,
                    out.final_energy,
                    out.intermediate_energy
                );
            }
        }
    }

    #[test]
    fn final_schedule_energy_matches_analytic_energy() {
        let ts = vd_tasks();
        let tl = Timeline::build(&ts);
        let p = PolynomialPower::paper(3.0, 0.05);
        let ideal = ideal_schedule(&ts, &p);
        let out = build_outcome(&ts, &tl, 4, &p, &ideal, allocate_der(&ts, &tl, 4, &ideal));
        let sched_energy = out.schedule.energy(&p);
        assert!(
            (sched_energy - out.final_energy).abs() < 1e-6 * (1.0 + out.final_energy),
            "schedule {} vs analytic {}",
            sched_energy,
            out.final_energy
        );
    }

    /// `got` equals `want` field by field, every `f64` bit for bit.
    fn assert_same_outcome(got: &HeuristicOutcome, want: &HeuristicOutcome) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let segments = |s: &Schedule| {
            s.segments()
                .iter()
                .map(|g| {
                    (
                        g.task,
                        g.core,
                        g.interval.start.to_bits(),
                        g.interval.end.to_bits(),
                        g.freq.to_bits(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let HeuristicOutcome {
            avail,
            total_avail,
            assignment,
            intermediate_energy,
            final_energy,
            intermediate_schedule,
            schedule,
        } = want;
        assert_eq!(&got.avail, avail);
        assert_eq!(bits(&got.total_avail), bits(total_avail));
        assert_eq!(bits(&got.assignment.freq), bits(&assignment.freq));
        assert_eq!(bits(&got.assignment.avail), bits(&assignment.avail));
        assert_eq!(
            got.intermediate_energy.to_bits(),
            intermediate_energy.to_bits()
        );
        assert_eq!(got.final_energy.to_bits(), final_energy.to_bits());
        for (g, w) in [
            (&got.intermediate_schedule, intermediate_schedule),
            (&got.schedule, schedule),
        ] {
            assert_eq!(g.cores, w.cores);
            assert_eq!(segments(g), segments(w));
        }
    }

    /// Up to ten tasks on up to twelve cores (often more cores than
    /// tasks), with times on a coarse grid so windows share boundaries,
    /// some boundaries nudged by a sub-`EPS` amount so the timeline has
    /// sliver subintervals, and some tasks carrying dust-sized work.
    fn arb_instance(rng: &mut ChaCha8) -> (TaskSet, usize, PolynomialPower) {
        let n = rng.gen_range_usize(1, 11);
        let nudge = |rng: &mut ChaCha8, t: f64| {
            if rng.gen_bool(0.2) {
                t + 3e-8
            } else {
                t
            }
        };
        let tasks = (0..n)
            .map(|_| {
                let r = rng.gen_range_usize(0, 20) as f64 * 0.5;
                let r = nudge(rng, r);
                let d = r + rng.gen_range_usize(1, 16) as f64 * 0.5;
                let d = nudge(rng, d);
                let c = if rng.gen_bool(0.15) {
                    1e-9
                } else {
                    (d - r) * rng.gen_range_f64(0.05, 1.5)
                };
                Task::of(r, d, c)
            })
            .collect();
        let cores = rng.gen_range_usize(1, 13);
        let power =
            PolynomialPower::paper(rng.gen_range_f64(2.0, 3.0), rng.gen_range_f64(0.0, 0.3));
        (TaskSet::new(tasks).unwrap(), cores, power)
    }

    #[test]
    fn a_pool_builds_the_same_outcome_bit_for_bit() {
        let pools = [Pool::with_threads(2), Pool::with_threads(4)];
        let mut rng = ChaCha8::seed_from_u64(0x5eed_00f2);
        for _ in 0..200 {
            let (ts, cores, p) = arb_instance(&mut rng);
            let tl = Timeline::build(&ts);
            let ideal = ideal_schedule(&ts, &p);
            for avail in [
                allocate_even(&ts, &tl, cores),
                allocate_der(&ts, &tl, cores, &ideal),
            ] {
                let serial = build_outcome(&ts, &tl, cores, &p, &ideal, avail.clone());
                for pool in &pools {
                    let pooled = build_outcome_with(
                        &ts,
                        &tl,
                        cores,
                        &p,
                        &ideal,
                        avail.clone(),
                        &mut Scratch::new(),
                        Some(pool),
                    );
                    assert_same_outcome(&pooled, &serial);
                }
            }
        }
    }

    #[test]
    fn high_static_power_leaves_slack_unused() {
        // With f_crit above the stretch frequency, the final schedule uses
        // less than the available time.
        let ts = TaskSet::from_triples(&[(0.0, 100.0, 1.0)]);
        let tl = Timeline::build(&ts);
        let p = PolynomialPower::paper(2.0, 0.25); // f_crit = 0.5
        let ideal = ideal_schedule(&ts, &p);
        let out = build_outcome(&ts, &tl, 1, &p, &ideal, allocate_even(&ts, &tl, 1));
        assert!((out.assignment.freq[0] - 0.5).abs() < 1e-12);
        let busy = out.schedule.busy_time(0);
        assert!((busy - 2.0).abs() < 1e-9, "busy = {busy}");
        validate_schedule(&out.schedule, &ts).assert_legal();
    }
}
