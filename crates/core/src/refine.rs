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
//! [`build_outcome_with`] materializes both into concrete [`Schedule`]s
//! via Algorithm 1 ([`crate::packing`]) so they can be validated and
//! simulated; their energies are the analytic `E^I`/`E^F` of the paper.
//! The two builds read the same allocation and nothing of each other, so
//! they run side by side when given a pool. Each schedule's segment
//! buffer is sized once, to the packer's upper bound for the timeline,
//! and trimmed at the end; segments are coalesced as they are appended
//! ([`Schedule::push_coalesced`]), so no closing pass revisits them.
//!
//! The paper needs Algorithm 1 for the intermediate schedule only to show
//! that it exists. [`refine_with`], the engine's step, keeps what a
//! request returns — both energies and `S^F` — and never builds `S^I`: it
//! streams the packer's segments through the same coalesce rule into the
//! energy sum, so `E^I` keeps its bits.

use crate::allocation::AvailMatrix;
use crate::ideal::IdealSolution;
use crate::packing::{max_packed_segments, negligible, pack_each, PackItem};
use crate::scratch::Scratch;
use crate::Pool;
use esched_obs::{span, Level};
use esched_subinterval::Timeline;
use esched_types::schedule::CoreTails;
use esched_types::time::{CompensatedSum, EPS};
use esched_types::{FrequencyAssignment, PolynomialPower, PowerModel, Schedule, Segment, TaskSet};
use std::collections::VecDeque;

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
    let mut tails = CoreTails::new(cores);
    pack_intermediate(timeline, cores, ideal, avail, items, &mut |seg| {
        out.push_coalesced(seg, &mut tails)
    });
    out.shrink_to_fit();
    out
}

/// `intermediate_schedule_with(..).energy(power)`, bit for bit, without
/// building the schedule: the packer's segments stream through the
/// coalesce rule into the energy sum. `p(f)` at each task's ideal
/// frequency is computed once per task; only squeezed segments evaluate
/// the power model themselves.
fn intermediate_energy_with(
    timeline: &Timeline,
    cores: usize,
    power: &PolynomialPower,
    ideal: &IdealSolution,
    avail: &AvailMatrix,
    items: &mut Vec<PackItem>,
) -> f64 {
    let ideal_power: Vec<f64> = ideal.freq.iter().map(|&f| power.power(f)).collect();
    let mut energy = EnergyStream::new(cores);
    pack_intermediate(timeline, cores, ideal, avail, items, &mut |seg| {
        let p = if seg.freq == ideal.freq[seg.task] {
            ideal_power[seg.task]
        } else {
            power.power(seg.freq)
        };
        energy.push(seg, p);
    });
    energy.total()
}

/// `Schedule::energy` of the schedule that [`Schedule::push_coalesced`]
/// would build from a canonical segment stream, summed as the segments
/// arrive.
///
/// A kept segment's energy is final once nothing can extend it: a later
/// segment was kept on its core, or the stream has moved past its end by
/// more than the coalesce rule's adjacency slack (twice it, so rounding
/// cannot reopen it). Kept segments wait in kept order until then, so the
/// sum adds the same terms in the same order as `Schedule::energy` on the
/// built schedule, and only a few segments per core are ever held.
struct EnergyStream {
    /// Kept segments that may still be extended, with `p(f)`, in kept
    /// order.
    open: VecDeque<(Segment, f64)>,
    /// Kept segments already summed: the kept index of `open[0]`.
    summed: usize,
    /// Kept index of each core's last kept segment.
    tails: CoreTails,
    sum: CompensatedSum,
}

impl EnergyStream {
    fn new(cores: usize) -> Self {
        Self {
            open: VecDeque::new(),
            summed: 0,
            tails: CoreTails::new(cores),
            sum: CompensatedSum::default(),
        }
    }

    /// Take the next non-empty segment of a canonical stream, drawing
    /// power `p` while it runs.
    fn push(&mut self, seg: Segment, p: f64) {
        let tail = self.tails.slot(seg.core);
        let last = tail
            .checked_sub(self.summed)
            .and_then(|k| self.open.get_mut(k));
        if !last.is_some_and(|(last, _)| last.try_extend(&seg)) {
            *tail = self.summed + self.open.len();
            self.open.push_back((seg, p));
        }
        let now = seg.interval.start;
        while let Some((first, p)) = self.open.front() {
            let end = first.interval.end;
            let closed = *self.tails.slot(first.core) != self.summed
                || now - end > 2e-12 * (1.0 + end.abs().max(now.abs()));
            if !closed {
                break;
            }
            self.sum.add(p * first.duration());
            self.open.pop_front();
            self.summed += 1;
        }
    }

    /// The energy of every segment taken.
    fn total(mut self) -> f64 {
        for (seg, p) in self.open.drain(..) {
            self.sum.add(p * seg.duration());
        }
        self.sum.total()
    }
}

/// Stage and pack [`intermediate_schedule`]'s items subinterval by
/// subinterval; `emit` receives its segments in canonical order, before
/// coalescing.
fn pack_intermediate(
    timeline: &Timeline,
    cores: usize,
    ideal: &IdealSolution,
    avail: &AvailMatrix,
    items: &mut Vec<PackItem>,
    emit: &mut impl FnMut(Segment),
) {
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
            if negligible(u, ideal.freq[i]) {
                continue;
            }
            let a = cells[pos];
            // Strict comparison: running for `u > a` — even by only EPS —
            // lets tasks collectively overshoot `m·Δ` when Δ is itself
            // near EPS. A dust-sized overshoot lands in the squeeze branch
            // instead, where the frequency rises by the same dust factor.
            let (duration, freq) = if u <= a {
                (u, ideal.freq[i])
            } else if a > 0.0 && !negligible(a, u * ideal.freq[i] / a) {
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
        pack_each(items, sub.interval.start, sub.interval.end, cores, emit)
            .expect("intermediate durations respect capacity by construction");
    }
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

/// The analytic half of final refinement: the assignment of Eq. 22-23
/// over the per-task totals `A_i` of `avail` (which it keeps as
/// [`FrequencyAssignment::avail`]), and its energy `E^F`. Every path that
/// turns an allocation into a final energy (refinement, the online
/// engine's replan, the shadow audit's replay) goes through here, so they
/// agree bit for bit.
pub fn assign_final(
    tasks: &TaskSet,
    avail: &AvailMatrix,
    power: &PolynomialPower,
) -> (FrequencyAssignment, f64) {
    let total_avail = avail.totals();
    let assignment = final_assignment(tasks, &total_avail, power);
    let works: Vec<f64> = tasks.tasks().iter().map(|t| t.wcec).collect();
    let energy = assignment.energy(&works, power);
    (assignment, energy)
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
    final_scale(tasks, assignment, scale);
    let mut out = Schedule::with_capacity(cores, packed_capacity(timeline, cores));
    let mut tails = CoreTails::new(cores);
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
            if negligible(used, assignment.freq[i]) {
                continue;
            }
            items.push(PackItem {
                task: i,
                duration: used,
                freq: assignment.freq[i],
            });
        }
        pack_each(
            items,
            sub.interval.start,
            sub.interval.end,
            cores,
            &mut |seg| out.push_coalesced(seg, &mut tails),
        )
        .expect("scaled durations respect capacity by construction");
    }
    // Give back the unused part of the packer's bound: left reserved, it
    // kept `plan-65k`'s peak RSS ~17 MiB higher (the allocator reuses
    // freed, already resident pages for it).
    out.shrink_to_fit();
    out
}

/// Per-task scale factor `d_i/A_i ∈ [0, 1]` of the final schedule, into
/// `scale`: task `i` runs `d_i = C_i/f_i` of its `A_i`, so `a_{i,j}·scale_i`
/// is its execution time in subinterval `j`.
pub(crate) fn final_scale(tasks: &TaskSet, assignment: &FrequencyAssignment, scale: &mut Vec<f64>) {
    scale.clear();
    scale.resize(tasks.len(), 0.0);
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
/// the calling thread while the per-task totals, the final assignment,
/// its analytic energy and the final schedule are built on a second
/// thread ([`Pool::join`]; in sequence when the pool has one worker). The
/// two builds share no state, so the outcome is bit-identical with or
/// without a pool.
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
    let _span = refine_span(tasks, timeline, cores);
    let Scratch { items, scale, .. } = scratch;
    let intermediate_job = || {
        let schedule = intermediate_schedule_with(timeline, cores, ideal, &avail, items);
        let energy = schedule.energy(power);
        (schedule, energy)
    };
    let final_job = || refine_final(tasks, timeline, cores, power, &avail, scale);
    let serial = Pool::with_threads(1);
    let ((intermediate, intermediate_energy), (assignment, final_energy, schedule)) =
        pool.unwrap_or(&serial).join(intermediate_job, final_job);
    HeuristicOutcome {
        avail,
        total_avail: assignment.avail.clone(),
        assignment,
        intermediate_energy,
        final_energy,
        intermediate_schedule: intermediate,
        schedule,
    }
}

/// What the engine keeps of refinement.
#[derive(Debug, Clone, PartialEq)]
pub struct Refined {
    /// Energy of the intermediate schedule (`E^{I1}` / `E^{I2}`).
    pub intermediate_energy: f64,
    /// Energy of the final schedule (`E^{F1}` / `E^{F2}`).
    pub final_energy: f64,
    /// The materialized final schedule.
    pub schedule: Schedule,
}

/// [`build_outcome_with`]'s energies and final schedule, bit for bit,
/// from a borrowed allocation and without building the intermediate
/// schedule: `E^I` is summed while its segments stream out of the packer
/// (the paper needs Algorithm 1 there only to show the schedule exists).
/// Runs the two halves side by side on `pool` as
/// [`build_outcome_with`] does.
#[allow(clippy::too_many_arguments)] // the refinement inputs plus where to run them
pub fn refine_with(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    power: &PolynomialPower,
    ideal: &IdealSolution,
    avail: &AvailMatrix,
    scratch: &mut Scratch,
    pool: Option<&Pool>,
) -> Refined {
    let _span = refine_span(tasks, timeline, cores);
    let Scratch { items, scale, .. } = scratch;
    let intermediate_job = || intermediate_energy_with(timeline, cores, power, ideal, avail, items);
    let final_job = || refine_final(tasks, timeline, cores, power, avail, scale);
    let serial = Pool::with_threads(1);
    let (intermediate_energy, (_, final_energy, schedule)) =
        pool.unwrap_or(&serial).join(intermediate_job, final_job);
    Refined {
        intermediate_energy,
        final_energy,
        schedule,
    }
}

fn refine_span(tasks: &TaskSet, timeline: &Timeline, cores: usize) -> esched_obs::trace::Span {
    span!(
        Level::Debug,
        "refine_frequencies",
        n_tasks = tasks.len(),
        n_subintervals = timeline.len(),
        cores = cores,
    )
}

/// The final half of refinement: the assignment of Eq. 22-23, its
/// analytic energy `E^F`, and `S^F`.
fn refine_final(
    tasks: &TaskSet,
    timeline: &Timeline,
    cores: usize,
    power: &PolynomialPower,
    avail: &AvailMatrix,
    scale: &mut Vec<f64>,
) -> (FrequencyAssignment, f64, Schedule) {
    let (assignment, energy) = assign_final(tasks, avail, power);
    // Its own staging buffer: the intermediate build may be using the
    // scratch one at the same time.
    let schedule = final_schedule_with(
        tasks,
        timeline,
        cores,
        avail,
        &assignment,
        &mut Vec::new(),
        scale,
    );
    (assignment, energy, schedule)
}

#[cfg(test)]
pub(crate) mod tests {
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
    pub(crate) fn arb_instance(rng: &mut ChaCha8) -> (TaskSet, usize, PolynomialPower) {
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
                for pool in [None, Some(&pools[0]), Some(&pools[1])] {
                    let pooled = build_outcome_with(
                        &ts,
                        &tl,
                        cores,
                        &p,
                        &ideal,
                        avail.clone(),
                        &mut Scratch::new(),
                        pool,
                    );
                    assert_same_outcome(&pooled, &serial);
                    let refined = refine_with(
                        &ts,
                        &tl,
                        cores,
                        &p,
                        &ideal,
                        &avail,
                        &mut Scratch::new(),
                        pool,
                    );
                    assert_eq!(
                        refined.intermediate_energy.to_bits(),
                        serial.intermediate_energy.to_bits()
                    );
                    assert_eq!(
                        refined.final_energy.to_bits(),
                        serial.final_energy.to_bits()
                    );
                    assert_eq!(refined.schedule, serial.schedule);
                }
            }
        }
    }

    /// `E^I` streamed from the packer is the built intermediate
    /// schedule's energy, bit for bit, and coalescing while appending
    /// builds what appending everything and then coalescing builds.
    #[test]
    fn streamed_intermediate_energy_and_schedule_match_the_built_ones() {
        let mut rng = ChaCha8::seed_from_u64(0x5eed_0e1e);
        for _ in 0..200 {
            let (ts, cores, p) = arb_instance(&mut rng);
            let tl = Timeline::build(&ts);
            let ideal = ideal_schedule(&ts, &p);
            for avail in [
                allocate_even(&ts, &tl, cores),
                allocate_der(&ts, &tl, cores, &ideal),
            ] {
                let built = intermediate_schedule(&tl, cores, &ideal, &avail);
                let streamed =
                    intermediate_energy_with(&tl, cores, &p, &ideal, &avail, &mut Vec::new());
                assert_eq!(streamed.to_bits(), built.energy(&p).to_bits());

                let mut appended = Schedule::new(cores);
                pack_intermediate(&tl, cores, &ideal, &avail, &mut Vec::new(), &mut |seg| {
                    appended.push_exact(seg)
                });
                appended.coalesce();
                assert_eq!(built, appended);
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
