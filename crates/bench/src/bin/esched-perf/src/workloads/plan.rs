//! `plan-65k`: closed loop, one client, `Engine::run` on 65,536-task
//! grid-snapped instances — DER, refine/pack and the simulator check with
//! intra-instance allocation parallelism; no solver.

use super::{closed_loop, derive_seed, ms_since, Measured, Traced, Workload};
use crate::check::{digest_outcome, violations};
use crate::ledger::Recorder;
use crate::mirror;
use crate::stats::{mean, Fnv1a};
use esched_core::{ideal_schedule, DEFAULT_PARALLEL_THRESHOLD};
use esched_engine::{Engine, EngineConfig, ScheduleOutcome, ScheduleRequest};
use esched_types::PolynomialPower;
use esched_workload::WorkloadSpec;
use std::time::Instant;

const TASKS: usize = 65_536;
const CORES: usize = 8;
/// Requests every run completes, whatever its length: the digest and the
/// energy cover exactly these.
const FIXED: usize = 4;

/// The workload.
pub struct Plan;

/// The seed, and the engine requests run on.
pub struct Inputs {
    seed: u64,
    engine: Engine,
}

/// Request `i` of the stream for `seed`; every request is a new
/// instance.
fn request(seed: u64, i: usize) -> ScheduleRequest {
    let tasks = WorkloadSpec::large_n(TASKS).instantiate(derive_seed(seed, i as u64));
    ScheduleRequest::new(tasks, CORES, PolynomialPower::paper(3.0, 0.1)).with_config(
        EngineConfig::new()
            .with_sim_verify(true)
            .with_telemetry(false)
            .with_intra_parallelism(DEFAULT_PARALLEL_THRESHOLD),
    )
}

/// The checks every planned outcome must pass.
fn check(out: &ScheduleOutcome, request: &ScheduleRequest) -> Result<(), String> {
    let sim = out.sim.ok_or("no simulator verdict")?;
    if !sim.clean {
        return Err(format!(
            "simulator: {} deadline misses, {} conflicts",
            sim.deadline_misses, sim.conflicts
        ));
    }
    match violations(&out.schedule, &request.tasks) {
        0 => Ok(()),
        v => Err(format!("schedule has {v} validator violations")),
    }
}

impl Workload for Plan {
    type Inputs = Inputs;
    const TAIL_PERCENTILE: f64 = 80.0;

    fn setup(seed: u64, _seconds: f64, workers: usize) -> Inputs {
        let engine = Engine::with_threads(workers);
        // Warm-up: one request faults in the allocator's and the
        // simulator's working set.
        let _ = engine.run(&request(seed, 0));
        Inputs { seed, engine }
    }

    fn run(inputs: &Inputs, seconds: f64) -> Measured {
        let mut m = Measured::default();
        let mut digest = Fnv1a::default();
        let mut energy = Vec::new();
        closed_loop(seconds, FIXED, |i| {
            let request = request(inputs.seed, i);
            let t = Instant::now();
            let result = inputs.engine.run(&request);
            let ms = ms_since(t);
            m.tally.attempted += 1;
            match result {
                Ok(out) => {
                    m.latencies_ms.push(ms);
                    if let Err(e) = check(&out, &request) {
                        m.tally.fail(format!("request {i}: {e}"));
                    }
                    if i < FIXED {
                        digest_outcome(&mut digest, &out);
                        energy.push(
                            out.energy / ideal_schedule(&request.tasks, &request.power).energy,
                        );
                    }
                }
                Err(e) => m.tally.fail(format!("request {i}: {e}")),
            }
        });
        m.throughput_per_s = 1e3 / mean(&m.latencies_ms);
        m.energy_over_ideal = mean(&energy);
        m.digest = digest.hex();
        m
    }

    fn trace(inputs: &Inputs, seconds: f64, rec: &mut Recorder) -> Traced {
        let mut traced = Traced::default();
        closed_loop(seconds, 1, |i| {
            let request = request(inputs.seed, i);
            let (want, got) = traced.pair(
                i,
                || inputs.engine.run(&request),
                || rec.op(|rec| mirror::execute(rec, &request)),
            );
            traced.tally.check(want.as_ref() == Ok(&got), || {
                format!("request {i}: traced mirror differs from Engine::run")
            });
        });
        traced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = request(7, 0);
        assert_eq!(a, request(7, 0));
        assert_eq!(a.tasks.len(), TASKS);
        assert_ne!(a.tasks, request(8, 0).tasks);
        assert_ne!(a.tasks, request(7, 1).tasks);
    }
}
