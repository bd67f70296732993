//! Related-work baselines beyond YDS.
//!
//! The paper positions its heuristics against two broad families:
//! optimal-but-heavy global solutions (refs \[2\], \[4\], \[8\] — represented
//! here by the convex program in [`crate::optimal`]) and simpler schemes a
//! practitioner might deploy instead. This module implements two of the
//! latter:
//!
//! * [`partitioned_yds`] — *partitioned* scheduling: assign each task to
//!   one core (worst-fit decreasing by intensity), then run the optimal
//!   uniprocessor YDS schedule per core. No migrations; the price is load
//!   imbalance that global schemes avoid.
//! * [`uniform_frequency`] — a non-DVFS-aware baseline: every core runs at
//!   the single lowest frequency that keeps the instance feasible
//!   (McNaughton-packable per subinterval), tasks are packed by
//!   Algorithm 1. This is what "set one governor frequency and forget"
//!   costs.

use crate::packing::{pack_subinterval, PackItem};
use crate::yds::yds_schedule;
use esched_subinterval::Timeline;
use esched_types::time::EPS;
use esched_types::{PolynomialPower, Schedule, Segment, TaskId, TaskSet};

/// Outcome of a baseline scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineOutcome {
    /// Total energy.
    pub energy: f64,
    /// The materialized schedule.
    pub schedule: Schedule,
    /// Which core each task was assigned to (partitioned baselines only;
    /// empty for global ones).
    pub assignment: Vec<usize>,
}

/// Partitioned scheduling: worst-fit decreasing assignment by intensity,
/// then per-core YDS.
///
/// Worst-fit (least-loaded core first) balances the per-core intensity
/// sums, which is what matters for YDS energy on each core.
pub fn partitioned_yds(tasks: &TaskSet, cores: usize, power: &PolynomialPower) -> BaselineOutcome {
    assert!(cores > 0);
    // Sort tasks by intensity descending.
    let mut order: Vec<TaskId> = (0..tasks.len()).collect();
    order.sort_by(|&a, &b| {
        tasks
            .get(b)
            .intensity()
            .partial_cmp(&tasks.get(a).intensity())
            .expect("finite intensities")
            .then(a.cmp(&b))
    });
    let mut load = vec![0.0_f64; cores];
    let mut assignment = vec![0usize; tasks.len()];
    for &i in &order {
        let (core, _) = load
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite loads"))
            .expect("at least one core");
        assignment[i] = core;
        load[core] += tasks.get(i).intensity();
    }

    // Per-core YDS over the core's tasks, remapped to original ids.
    let mut schedule = Schedule::new(cores);
    let mut energy = 0.0;
    for core in 0..cores {
        let ids: Vec<TaskId> = (0..tasks.len())
            .filter(|&i| assignment[i] == core)
            .collect();
        if ids.is_empty() {
            continue;
        }
        let sub = TaskSet::new(ids.iter().map(|&i| *tasks.get(i)).collect())
            .expect("subset of a valid set is valid");
        let yds = yds_schedule(&sub, power);
        energy += yds.energy;
        for seg in yds.schedule.segments() {
            schedule.push(Segment::new(
                ids[seg.task],
                core,
                seg.interval.start,
                seg.interval.end,
                seg.freq,
            ));
        }
    }
    schedule.coalesce();
    BaselineOutcome {
        energy,
        schedule,
        assignment,
    }
}

/// Uniform-frequency baseline: every task runs at the minimum globally
/// feasible frequency `f*`, which is exactly `1/λ₁`, the first level of
/// the exact solver's decomposition
/// ([`esched_opt::min_uniform_frequency`]); a feasible per-(task,
/// subinterval) spread at that frequency is computed exactly by max-flow
/// ([`esched_opt::flow::feasible_allocation`] — the ref-\[4\] reduction)
/// and packed by Algorithm 1.
pub fn uniform_frequency(
    tasks: &TaskSet,
    cores: usize,
    power: &PolynomialPower,
) -> BaselineOutcome {
    assert!(cores > 0);
    let timeline = Timeline::build(tasks);
    // Bump by a relative hair so the flow at the chosen frequency is
    // numerically feasible.
    let f_star = esched_opt::min_uniform_frequency(tasks, &timeline, cores) * (1.0 + 1e-9);
    let x = esched_opt::flow::feasible_allocation(tasks, &timeline, cores, f_star)
        .expect("the minimum uniform frequency is feasible");

    // Pack per subinterval.
    let mut schedule = Schedule::new(cores);
    let mut items: Vec<PackItem> = Vec::new();
    for sub in timeline.subintervals() {
        items.clear();
        for &i in &sub.overlapping {
            let d = x[i][sub.index].min(sub.delta());
            if d > EPS {
                items.push(PackItem {
                    task: i,
                    duration: d,
                    freq: f_star,
                });
            }
        }
        pack_subinterval(
            &items,
            sub.interval.start,
            sub.interval.end,
            cores,
            &mut schedule,
        )
        .expect("repaired spread is packable");
    }
    schedule.coalesce();
    let energy = schedule.energy(power);
    BaselineOutcome {
        energy,
        schedule,
        assignment: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::der::der_schedule;
    use esched_types::validate_schedule;

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
    fn partitioned_yds_is_legal() {
        let ts = vd_tasks();
        let p = PolynomialPower::cubic();
        let out = partitioned_yds(&ts, 4, &p);
        validate_schedule(&out.schedule, &ts).assert_legal();
        assert_eq!(out.assignment.len(), 6);
        assert!(out.assignment.iter().all(|&c| c < 4));
        assert!(out.energy > 0.0);
    }

    #[test]
    fn partitioned_yds_single_core_equals_yds() {
        let ts = vd_tasks();
        let p = PolynomialPower::cubic();
        let part = partitioned_yds(&ts, 1, &p);
        let yds = yds_schedule(&ts, &p);
        assert!((part.energy - yds.energy).abs() < 1e-9);
    }

    #[test]
    fn global_der_beats_partitioned_yds_on_imbalanced_instances() {
        // One long window with several short dense tasks: partitioning
        // strands capacity, the global heuristic shares it.
        let ts = TaskSet::from_triples(&[
            (0.0, 4.0, 3.5),
            (0.0, 4.0, 3.5),
            (0.0, 4.0, 3.5),
            (0.0, 16.0, 2.0),
        ]);
        let p = PolynomialPower::cubic();
        let part = partitioned_yds(&ts, 2, &p);
        let der = der_schedule(&ts, 2, &p);
        validate_schedule(&part.schedule, &ts).assert_legal();
        assert!(
            der.final_energy <= part.energy * 1.001,
            "der {} vs partitioned {}",
            der.final_energy,
            part.energy
        );
    }

    #[test]
    fn uniform_frequency_is_legal_and_worse_than_der() {
        let ts = vd_tasks();
        let p = PolynomialPower::cubic();
        let uni = uniform_frequency(&ts, 4, &p);
        validate_schedule(&uni.schedule, &ts).assert_legal();
        let der = der_schedule(&ts, 4, &p);
        assert!(
            der.final_energy <= uni.energy * (1.0 + 1e-9),
            "der {} vs uniform {}",
            der.final_energy,
            uni.energy
        );
    }

    #[test]
    fn uniform_frequency_single_task() {
        let ts = TaskSet::from_triples(&[(0.0, 10.0, 5.0)]);
        let p = PolynomialPower::cubic();
        let uni = uniform_frequency(&ts, 1, &p);
        validate_schedule(&uni.schedule, &ts).assert_legal();
        // f* = 0.5 (+ the numerical bump), runs the whole window:
        // E = 0.5³·10 = 1.25.
        assert!((uni.energy - 1.25).abs() < 1e-6);
    }

    #[test]
    fn uniform_frequency_repairs_overloaded_spread() {
        // A task whose window is mostly covered by a busy region: the
        // proportional spread overloads the contested subinterval and the
        // repair pass must rebalance.
        let ts = TaskSet::from_triples(&[(0.0, 4.0, 4.0), (0.0, 4.0, 4.0), (0.0, 8.0, 4.0)]);
        let p = PolynomialPower::cubic();
        let uni = uniform_frequency(&ts, 2, &p);
        validate_schedule(&uni.schedule, &ts).assert_legal();
    }
}
