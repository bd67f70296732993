//! The validator and the simulator on DER schedules at the sizes the
//! planning benchmark runs: both must stay near-linear in the segment
//! count (the validator buckets segments per core and per task; the
//! simulator sorts its event list once).
//!
//! The 65k simulation is a release-mode test:
//! `cargo test --release -p esched-engine --test large_n -- --include-ignored`.

use esched_core::der_schedule;
use esched_sim::simulate;
use esched_types::{validate_schedule, PolynomialPower};
use esched_workload::WorkloadSpec;

#[test]
fn validator_accepts_a_16k_task_der_schedule() {
    let tasks = WorkloadSpec::large_n(16_384).instantiate(1);
    let schedule = der_schedule(&tasks, 8, &PolynomialPower::paper(3.0, 0.1)).schedule;
    let report = validate_schedule(&schedule, &tasks);
    assert!(report.is_legal(), "{:?}", &report.violations[..1]);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode test")]
fn simulator_runs_a_65k_task_der_schedule_clean() {
    let tasks = WorkloadSpec::large_n(65_536).instantiate(1);
    let power = PolynomialPower::paper(3.0, 0.1);
    let schedule = der_schedule(&tasks, 8, &power).schedule;
    let report = simulate(&schedule, &tasks, &power);
    assert!(report.is_clean(), "{:?}", report.conflicts.first());
    assert_eq!(report.queue_peak, 2 * schedule.len() + 2 * tasks.len());
    let analytic = schedule.energy(&power);
    assert!(
        (report.energy - analytic).abs() <= 1e-9 * analytic,
        "simulated {} vs analytic {analytic}",
        report.energy
    );
}
