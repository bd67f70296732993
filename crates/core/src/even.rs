//! The evenly allocating method end-to-end (Section V.B): `S^I1` → `S^F1`.

use crate::allocation::allocate_even;
use crate::ideal::ideal_schedule;
use crate::refine::{build_outcome_with, HeuristicOutcome};
use crate::scratch::Scratch;
use esched_subinterval::Timeline;
use esched_types::{PolynomialPower, TaskSet};

/// Run the evenly allocating method on `tasks` over `cores` cores under
/// `power`: light subintervals grant full occupancy, heavy subintervals
/// are split `m·Δ_j/n_j` per task, frequencies are refined per Eq. 22-23,
/// and both the intermediate and final schedules are materialized.
///
/// # Examples
///
/// ```
/// use esched_core::even_schedule;
/// use esched_types::{PolynomialPower, TaskSet};
///
/// let tasks = TaskSet::from_triples(&[
///     (0.0, 10.0, 8.0), (2.0, 18.0, 14.0), (4.0, 16.0, 8.0),
///     (6.0, 14.0, 4.0), (8.0, 20.0, 10.0), (12.0, 22.0, 6.0),
/// ]);
/// let out = even_schedule(&tasks, 4, &PolynomialPower::cubic());
/// // The paper's E^F1 for this instance.
/// assert!((out.final_energy - 33.0642).abs() < 5e-4);
/// // The final refinement never increases energy.
/// assert!(out.final_energy <= out.intermediate_energy);
/// ```
pub fn even_schedule(tasks: &TaskSet, cores: usize, power: &PolynomialPower) -> HeuristicOutcome {
    even_schedule_with(tasks, cores, power, &mut Scratch::new())
}

/// [`even_schedule`] reusing the buffers in `scratch`; see
/// [`crate::der::der_schedule_with`] for the reuse contract.
pub fn even_schedule_with(
    tasks: &TaskSet,
    cores: usize,
    power: &PolynomialPower,
    scratch: &mut Scratch,
) -> HeuristicOutcome {
    let _span = esched_obs::span!(
        esched_obs::Level::Info,
        "even_schedule",
        n_tasks = tasks.len(),
        cores = cores,
    );
    let timeline = Timeline::build_with(tasks, &mut scratch.timeline);
    let ideal = ideal_schedule(tasks, power);
    let avail = allocate_even(tasks, &timeline, cores);
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
        let out = even_schedule(&ts, 2, &p);
        validate_schedule(&out.schedule, &ts).assert_legal();
        validate_schedule(&out.intermediate_schedule, &ts).assert_legal();
        assert!(out.final_energy <= out.intermediate_energy + 1e-9);
    }

    #[test]
    fn no_heavy_subintervals_reduces_to_ideal() {
        // Two tasks, two cores: every subinterval light → the final
        // schedule equals the ideal energy.
        let ts = TaskSet::from_triples(&[(0.0, 8.0, 4.0), (2.0, 10.0, 4.0)]);
        let p = PolynomialPower::paper(3.0, 0.05);
        let out = even_schedule(&ts, 2, &p);
        let ideal = crate::ideal::ideal_schedule(&ts, &p);
        assert!(
            (out.final_energy - ideal.energy).abs() < 1e-9,
            "final {} vs ideal {}",
            out.final_energy,
            ideal.energy
        );
        assert!(
            (out.intermediate_energy - ideal.energy).abs() < 1e-9,
            "intermediate {} vs ideal {}",
            out.intermediate_energy,
            ideal.energy
        );
    }
}
