//! The DER-based allocating method end-to-end (Section V.C): `S^I2` →
//! `S^F2`. This is the paper's headline algorithm.

use crate::allocation::{allocate, AllocRequest};
use crate::ideal::ideal_schedule;
use crate::refine::{build_outcome_with, HeuristicOutcome};
use crate::scratch::Scratch;
use esched_subinterval::Timeline;
use esched_types::{PolynomialPower, TaskSet};

/// Run the DER-based allocating method on `tasks` over `cores` cores under
/// `power`: heavy subintervals are divided in proportion to each task's
/// Desired Execution Requirement (Algorithm 2), frequencies refined per
/// Eq. 22-23, and both schedules materialized via Algorithm 1.
///
/// # Examples
///
/// ```
/// use esched_core::der_schedule;
/// use esched_types::{validate_schedule, PolynomialPower, TaskSet};
///
/// // The paper's Section V.D example: E^F2 = 31.8362 on a quad-core.
/// let tasks = TaskSet::from_triples(&[
///     (0.0, 10.0, 8.0), (2.0, 18.0, 14.0), (4.0, 16.0, 8.0),
///     (6.0, 14.0, 4.0), (8.0, 20.0, 10.0), (12.0, 22.0, 6.0),
/// ]);
/// let out = der_schedule(&tasks, 4, &PolynomialPower::cubic());
/// assert!((out.final_energy - 31.8362).abs() < 5e-4);
/// validate_schedule(&out.schedule, &tasks).assert_legal();
/// ```
pub fn der_schedule(tasks: &TaskSet, cores: usize, power: &PolynomialPower) -> HeuristicOutcome {
    der_schedule_with(tasks, cores, power, &mut Scratch::new())
}

/// [`der_schedule`] reusing the buffers in `scratch` — the timeline's
/// boundary/subinterval vectors, Algorithm 2's DER staging list, and
/// Algorithm 1's pack-item buffer all survive into the next call, so a
/// batch driver touches the allocator only when an instance outgrows every
/// previous one.
pub fn der_schedule_with(
    tasks: &TaskSet,
    cores: usize,
    power: &PolynomialPower,
    scratch: &mut Scratch,
) -> HeuristicOutcome {
    let _span = esched_obs::span!(
        esched_obs::Level::Info,
        "der_schedule",
        n_tasks = tasks.len(),
        cores = cores,
    );
    let timeline = Timeline::build_with(tasks, &mut scratch.timeline);
    let ideal = ideal_schedule(tasks, power);
    let avail = allocate(AllocRequest::new(tasks, &timeline, cores, &ideal).with_scratch(scratch));
    let out = build_outcome_with(tasks, &timeline, cores, power, &ideal, avail, scratch, None);
    scratch.timeline.recycle(timeline);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use esched_types::validate_schedule;

    #[test]
    fn intro_example_runs_clean() {
        let ts = TaskSet::from_triples(&[(0.0, 12.0, 4.0), (2.0, 10.0, 2.0), (4.0, 8.0, 4.0)]);
        let p = PolynomialPower::paper(3.0, 0.01);
        let out = der_schedule(&ts, 2, &p);
        validate_schedule(&out.schedule, &ts).assert_legal();
        validate_schedule(&out.intermediate_schedule, &ts).assert_legal();
        assert!(out.final_energy <= out.intermediate_energy + 1e-9);
    }

    #[test]
    fn single_heavy_interval_splits_by_der() {
        // Uneven DERs on one core: the dense task gets the larger share.
        let ts = TaskSet::from_triples(&[(0.0, 4.0, 3.0), (0.0, 4.0, 1.0)]);
        let p = PolynomialPower::cubic();
        let out = der_schedule(&ts, 1, &p);
        // DERs: 3 and 1 → allocations 3 and 1 over the 4-unit pool.
        assert!((out.total_avail[0] - 3.0).abs() < 1e-9);
        assert!((out.total_avail[1] - 1.0).abs() < 1e-9);
        validate_schedule(&out.schedule, &ts).assert_legal();
    }

    #[test]
    fn der_never_loses_to_even_on_skewed_instances() {
        // A dense task fighting a lazy one: DER should allocate the dense
        // task more time and win (or tie) on energy.
        let ts = TaskSet::from_triples(&[(0.0, 8.0, 7.0), (0.0, 8.0, 1.0), (0.0, 8.0, 7.0)]);
        let p = PolynomialPower::cubic();
        let der = der_schedule(&ts, 2, &p);
        let even = crate::even::even_schedule(&ts, 2, &p);
        assert!(
            der.final_energy <= even.final_energy + 1e-9,
            "der {} vs even {}",
            der.final_energy,
            even.final_energy
        );
    }
}
