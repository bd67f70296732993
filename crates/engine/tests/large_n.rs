//! The validator, the simulator and schedule coalescing on DER schedules
//! at the sizes the planning benchmark runs: all must stay near-linear in
//! the segment count (the validator buckets segments per core and per
//! task; the simulator takes its single-sweep fast path on a canonical
//! schedule, bit-identical to the event loop, and the event loop still
//! orders a shuffled or reversed segment list exactly; packing leaves
//! each schedule in canonical order, so coalescing skips its sort). Refinement on a pool, which builds the
//! two schedules side by side, must give the serial outcome bit for bit,
//! and the engine's refine step, which streams `E^I` instead of building
//! the intermediate schedule, must give its energies and final schedule.
//!
//! The 65k tests are release-mode tests:
//! `cargo test --release -p esched-engine --test large_n -- --include-ignored`.

use esched_core::{
    allocate, build_outcome_with, der_schedule, ideal_schedule, refine_with, AllocRequest,
    HeuristicOutcome, Pool, Scratch,
};
use esched_obs::rng::ChaCha8;
use esched_sim::{simulate, simulate_traced, Conflict, SimReport};
use esched_subinterval::Timeline;
use esched_types::{validate_schedule, PolynomialPower, Schedule, Segment};
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

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode test")]
fn a_65k_task_der_plan_comes_out_canonical_and_coalesced() {
    let tasks = WorkloadSpec::large_n(65_536).instantiate(1);
    let power = PolynomialPower::paper(3.0, 0.1);
    let outcome = der_schedule(&tasks, 8, &power);
    for schedule in [&outcome.intermediate_schedule, &outcome.schedule] {
        assert!(schedule.is_canonical());
        let mut again = schedule.clone();
        again.coalesce();
        assert_eq!(&again, schedule);
    }
    let energy = outcome.schedule.energy(&power);
    assert!(
        (energy - outcome.final_energy).abs() <= 1e-9 * outcome.final_energy,
        "schedule {energy} vs analytic {}",
        outcome.final_energy
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

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode test")]
fn refining_a_65k_task_der_plan_on_a_pool_is_bit_identical() {
    let tasks = WorkloadSpec::large_n(65_536).instantiate(1);
    let power = PolynomialPower::paper(3.0, 0.1);
    let cores = 8;
    let timeline = Timeline::build(&tasks);
    let ideal = ideal_schedule(&tasks, &power);
    let avail = allocate(AllocRequest::new(&tasks, &timeline, cores, &ideal));
    let refine = |pool: Option<&Pool>| {
        build_outcome_with(
            &tasks,
            &timeline,
            cores,
            &power,
            &ideal,
            avail.clone(),
            &mut Scratch::new(),
            pool,
        )
    };
    let serial = refine(None);
    for threads in [2, 4] {
        assert_same_outcome(&refine(Some(&Pool::with_threads(threads))), &serial);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode test")]
fn the_engine_refine_step_matches_the_built_outcome_at_65k_tasks() {
    let tasks = WorkloadSpec::large_n(65_536).instantiate(1);
    let power = PolynomialPower::paper(3.0, 0.1);
    let cores = 8;
    let timeline = Timeline::build(&tasks);
    let ideal = ideal_schedule(&tasks, &power);
    let avail = allocate(AllocRequest::new(&tasks, &timeline, cores, &ideal));
    let built = build_outcome_with(
        &tasks,
        &timeline,
        cores,
        &power,
        &ideal,
        avail.clone(),
        &mut Scratch::new(),
        None,
    );
    let pool = Pool::with_threads(2);
    for pool in [None, Some(&pool)] {
        let refined = refine_with(
            &tasks,
            &timeline,
            cores,
            &power,
            &ideal,
            &avail,
            &mut Scratch::new(),
            pool,
        );
        assert_eq!(
            refined.intermediate_energy.to_bits(),
            built.intermediate_schedule.energy(&power).to_bits()
        );
        assert_eq!(refined.final_energy.to_bits(), built.final_energy.to_bits());
        assert_eq!(refined.schedule, built.schedule);
    }
}

fn schedule_of(cores: usize, segments: &[Segment]) -> Schedule {
    let mut s = Schedule::new(cores);
    for &seg in segments {
        s.push_exact(seg);
    }
    s
}

/// `got` equals `want` field by field, every `f64` bit for bit.
fn assert_same_report(got: &SimReport, want: &SimReport) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let conflicts = |v: &[Conflict]| {
        v.iter()
            .map(|c| (c.time.to_bits(), c.core, c.running, c.rejected))
            .collect::<Vec<_>>()
    };
    let SimReport {
        energy,
        core_energy,
        core_busy,
        work_done,
        deadline_misses,
        conflicts: got_conflicts,
        activations,
        core_transitions,
        queue_peak,
        preemptions,
        migrations,
        horizon,
    } = got;
    assert_eq!(energy.to_bits(), want.energy.to_bits());
    assert_eq!(bits(core_energy), bits(&want.core_energy));
    assert_eq!(bits(core_busy), bits(&want.core_busy));
    assert_eq!(bits(work_done), bits(&want.work_done));
    assert_eq!(deadline_misses, &want.deadline_misses);
    assert_eq!(conflicts(got_conflicts), conflicts(&want.conflicts));
    assert_eq!(activations, &want.activations);
    assert_eq!(core_transitions, &want.core_transitions);
    assert_eq!(*queue_peak, want.queue_peak);
    assert_eq!(*preemptions, want.preemptions);
    assert_eq!(*migrations, want.migrations);
    assert_eq!(
        bits(&[horizon.0, horizon.1]),
        bits(&[want.horizon.0, want.horizon.1])
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode test")]
fn a_shuffled_or_reversed_65k_task_schedule_simulates_bit_identically() {
    let tasks = WorkloadSpec::large_n(65_536).instantiate(1);
    let power = PolynomialPower::paper(3.0, 0.1);
    let schedule = der_schedule(&tasks, 8, &power).schedule;
    let canonical = simulate(&schedule, &tasks, &power);
    assert!(canonical.is_clean(), "{:?}", canonical.conflicts.first());
    // `simulate_traced` always runs the event loop.
    assert_same_report(&simulate_traced(&schedule, &tasks, &power).0, &canonical);

    let mut segments = schedule.segments().to_vec();
    let mut rng = ChaCha8::seed_from_u64(0x65_536);
    for i in (1..segments.len()).rev() {
        segments.swap(i, rng.gen_range_usize(0, i + 1));
    }
    let shuffled = schedule_of(schedule.cores, &segments);
    assert_same_report(&simulate(&shuffled, &tasks, &power), &canonical);

    segments.clone_from_slice(schedule.segments());
    segments.reverse();
    let reversed = schedule_of(schedule.cores, &segments);
    assert_same_report(&simulate(&reversed, &tasks, &power), &canonical);
}
