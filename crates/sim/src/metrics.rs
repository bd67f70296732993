//! Simulation report: what the engine measured.

use esched_types::TaskId;

/// A schedule conflict observed during simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Conflict {
    /// When it happened.
    pub time: f64,
    /// The core involved.
    pub core: usize,
    /// The task that was already running.
    pub running: TaskId,
    /// The task whose start was rejected.
    pub rejected: TaskId,
}

/// Everything a simulation run measures.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Total energy integrated over all cores.
    pub energy: f64,
    /// Per-core energy.
    pub core_energy: Vec<f64>,
    /// Per-core busy time.
    pub core_busy: Vec<f64>,
    /// Work delivered to each task by its deadline.
    pub work_done: Vec<f64>,
    /// Tasks that did not reach their required work by their deadline.
    pub deadline_misses: Vec<TaskId>,
    /// Start events rejected because the core was busy.
    pub conflicts: Vec<Conflict>,
    /// Per-core activation counts (sleep → active transitions).
    pub activations: Vec<usize>,
    /// Per-core state-transition tallies (both sleep → active and
    /// active → sleep).
    pub core_transitions: Vec<usize>,
    /// Events in the run: all are queued up front, so this is the queue's high-water mark.
    pub queue_peak: usize,
    /// Times a task resumed after having already run (its execution was
    /// split across segments).
    pub preemptions: usize,
    /// Times a task resumed on a different core than its previous segment.
    pub migrations: usize,
    /// Simulated horizon `[start, end]`.
    pub horizon: (f64, f64),
}

impl SimReport {
    /// Did the schedule execute cleanly: no conflicts, no misses?
    pub fn is_clean(&self) -> bool {
        self.conflicts.is_empty() && self.deadline_misses.is_empty()
    }

    /// Total energy including a fixed wake-up cost per core activation —
    /// the transition-overhead extension the base platform model omits
    /// (cores sleep at zero power, but entering/leaving sleep is not free
    /// on real silicon). Schedules with many short segments pay more
    /// here; coalesced offline packings pay least.
    pub fn energy_with_wakeup(&self, wakeup_cost: f64) -> f64 {
        assert!(wakeup_cost >= 0.0);
        self.energy + wakeup_cost * self.activations.iter().sum::<usize>() as f64
    }

    /// Average utilization over the horizon.
    pub fn utilization(&self) -> f64 {
        let span = self.horizon.1 - self.horizon.0;
        if span <= 0.0 || self.core_busy.is_empty() {
            return 0.0;
        }
        self.core_busy.iter().sum::<f64>() / (span * self.core_busy.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_and_utilization() {
        let r = SimReport {
            energy: 1.0,
            core_energy: vec![0.5, 0.5],
            core_busy: vec![4.0, 2.0],
            work_done: vec![1.0],
            deadline_misses: vec![],
            conflicts: vec![],
            activations: vec![1, 1],
            core_transitions: vec![2, 2],
            queue_peak: 6,
            preemptions: 0,
            migrations: 0,
            horizon: (0.0, 6.0),
        };
        assert!(r.is_clean());
        assert!((r.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn wakeup_energy_adds_per_activation() {
        let r = SimReport {
            energy: 10.0,
            core_energy: vec![5.0, 5.0],
            core_busy: vec![1.0, 1.0],
            work_done: vec![],
            deadline_misses: vec![],
            conflicts: vec![],
            activations: vec![3, 2],
            core_transitions: vec![6, 4],
            queue_peak: 10,
            preemptions: 2,
            migrations: 1,
            horizon: (0.0, 2.0),
        };
        assert!((r.energy_with_wakeup(0.0) - 10.0).abs() < 1e-12);
        assert!((r.energy_with_wakeup(0.5) - 12.5).abs() < 1e-12);
    }

    #[test]
    fn misses_make_it_dirty() {
        let r = SimReport {
            energy: 0.0,
            core_energy: vec![],
            core_busy: vec![],
            work_done: vec![],
            deadline_misses: vec![3],
            conflicts: vec![],
            activations: vec![],
            core_transitions: vec![],
            queue_peak: 0,
            preemptions: 0,
            migrations: 0,
            horizon: (0.0, 0.0),
        };
        assert!(!r.is_clean());
        assert_eq!(r.utilization(), 0.0);
    }
}
