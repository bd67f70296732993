//! `sweep-fig10`: closed-loop batches of Figure 10's trials on the engine
//! pool — n ∈ {5, 10, 15, 20} tasks, m = 4, p₀ = 0.2, with the experiment
//! harness's per-trial pipeline (DER, fast PGD solve for NEC, simulator
//! check).
//!
//! The figure's lower half of task counts: from n = 30 up, a few PGD
//! solves that run into the iteration cap decide a run's time, and a
//! 20-second run did not hold enough of them for its throughput to repeat
//! within 25% from seed to seed.

use super::{closed_loop, derive_seed, ms_since, Measured, Traced, Workload};
use crate::check::{digest_outcome, violations};
use crate::ledger::{counter_delta, histogram_sum_delta, Recorder};
use crate::mirror;
use crate::stats::{mean, Fnv1a};
use esched_engine::{Engine, EngineConfig, ScheduleOutcome, ScheduleRequest};
use esched_obs::metrics;
use esched_opt::{SolveOptions, SolverKind};
use esched_types::PolynomialPower;
use esched_workload::{GeneratorConfig, IntensityDist, WorkloadGenerator};
use std::time::Instant;

const TASK_COUNTS: [usize; 4] = [5, 10, 15, 20];
const CORES: usize = 4;
/// Trials per task count in one batch: 256 trials per batch.
const SEEDS_PER_BATCH: usize = 64;
/// Batches every run completes, whatever its length: the digest and the
/// energy cover exactly these.
const FIXED: usize = 2;

/// The workload.
pub struct Sweep;

/// The seed, and the engine batches run on.
pub struct Inputs {
    seed: u64,
    engine: Engine,
}

/// Batch `b` of the stream for `seed`: new task sets in every batch.
fn batch(seed: u64, b: usize) -> Vec<ScheduleRequest> {
    // `trial_requests` in the experiment harness, without solver
    // telemetry (wall-clock numbers only; canonical outputs exclude it).
    let config = EngineConfig::new()
        .with_solver(SolverKind::ProjectedGradient)
        .with_solve_options(SolveOptions::fast())
        .with_sim_verify(true)
        .with_telemetry(false);
    let base = derive_seed(seed, 2 << 32 | b as u64);
    TASK_COUNTS
        .iter()
        .flat_map(|&n| {
            let generator = GeneratorConfig::paper_default()
                .with_tasks(n)
                .with_intensity(IntensityDist::Uniform { lo: 0.1, hi: 1.0 });
            (0..SEEDS_PER_BATCH as u64)
                .map(move |k| WorkloadGenerator::new(generator, base.wrapping_add(k)).generate())
        })
        .map(|tasks| {
            ScheduleRequest::new(tasks, CORES, PolynomialPower::paper(3.0, 0.2))
                .with_config(config.clone())
        })
        .collect()
}

fn check(out: &ScheduleOutcome, request: &ScheduleRequest) -> Result<(), String> {
    match out.sim {
        Some(sim) if sim.clean => {}
        _ => return Err("simulator verdict missing or not clean".to_string()),
    }
    if out.nec.is_none() {
        return Err("no NEC point".to_string());
    }
    match violations(&out.schedule, &request.tasks) {
        0 => Ok(()),
        v => Err(format!("schedule has {v} validator violations")),
    }
}

impl Workload for Sweep {
    type Inputs = Inputs;
    const TAIL_PERCENTILE: f64 = 80.0;

    fn setup(seed: u64, _seconds: f64, workers: usize) -> Inputs {
        let engine = Engine::with_threads(workers);
        let _ = engine.run_batch(&batch(seed, 0));
        Inputs { seed, engine }
    }

    fn run(inputs: &Inputs, seconds: f64) -> Measured {
        let mut m = Measured::default();
        let mut digest = Fnv1a::default();
        let (mut energy, mut nec) = (Vec::new(), Vec::new());
        let mut trials = 0usize;
        let before = metrics::snapshot();
        let batches = closed_loop(seconds, FIXED, |b| {
            let batch = batch(inputs.seed, b);
            let t = Instant::now();
            let results = inputs.engine.run_batch(&batch);
            m.latencies_ms.push(ms_since(t));
            trials += batch.len();
            for (j, (result, request)) in results.into_iter().zip(&batch).enumerate() {
                m.tally.attempted += 1;
                let out = match result {
                    Ok(out) => out,
                    Err(e) => {
                        m.tally.fail(format!("batch {b} trial {j}: {e}"));
                        continue;
                    }
                };
                if let Err(e) = check(&out, request) {
                    m.tally.fail(format!("batch {b} trial {j}: {e}"));
                }
                if let (true, Some(n)) = (b < FIXED, out.nec) {
                    digest_outcome(&mut digest, &out);
                    energy.push(n.f2 / n.ideal);
                    nec.push(n.f2);
                }
            }
        });
        let after = metrics::snapshot();
        let busy_ms: f64 = m.latencies_ms.iter().sum();
        m.throughput_per_s = trials as f64 / (busy_ms / 1e3);
        m.energy_over_ideal = mean(&energy);
        m.digest = digest.hex();
        let per_batch = |name: &str| counter_delta(&before, &after, name) / batches as f64;
        let job_ms = histogram_sum_delta(&before, &after, "esched.engine.job_wall_ns") / 1e6;
        let workers = inputs
            .engine
            .threads()
            .min(SEEDS_PER_BATCH * TASK_COUNTS.len());
        m.observed = vec![
            ("opt.nec_f2", mean(&nec)),
            ("pool.jobs", per_batch("esched.engine.jobs")),
            ("pool.steals", per_batch("esched.engine.steals")),
            ("pool.utilization", job_ms / (workers as f64 * busy_ms)),
        ];
        m
    }

    fn trace(inputs: &Inputs, seconds: f64, rec: &mut Recorder) -> Traced {
        // Serial replay, one trial per operation: the pool's batch
        // mechanics are measured by `run`, the layers here.
        let mut traced = Traced::default();
        let start = Instant::now();
        'batches: for b in 0.. {
            for (j, request) in batch(inputs.seed, b).iter().enumerate() {
                if traced.tally.attempted > 0 && start.elapsed().as_secs_f64() >= seconds {
                    break 'batches;
                }
                let (want, got) = traced.pair(
                    j,
                    || inputs.engine.run(request),
                    || rec.op(|rec| mirror::execute(rec, request)),
                );
                traced.tally.check(want.as_ref() == Ok(&got), || {
                    format!("batch {b} trial {j}: traced mirror differs from Engine::run")
                });
            }
        }
        traced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = batch(11, 0);
        assert_eq!(a, batch(11, 0));
        assert_eq!(a.len(), SEEDS_PER_BATCH * TASK_COUNTS.len());
        assert_eq!(a[0].tasks.len(), TASK_COUNTS[0]);
        assert_ne!(a[0].tasks, batch(12, 0)[0].tasks);
        assert_ne!(a[0].tasks, batch(11, 1)[0].tasks);
    }
}
