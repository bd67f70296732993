//! `certify-256`: closed loop, one client, time to a certified `E^OPT`:
//! `Engine::run` with pool-parallel ADMM at `SolveOptions::fast()`, then
//! the KKT certificate of the returned optimum.

use super::{closed_loop, derive_seed, ms_since, Measured, Tally, Traced, Workload};
use crate::check::digest_outcome;
use crate::ledger::Recorder;
use crate::mirror;
use crate::stats::{mean, Fnv1a};
use esched_core::DEFAULT_PARALLEL_THRESHOLD;
use esched_engine::{Engine, EngineConfig, ScheduleOutcome, ScheduleRequest};
use esched_opt::{kkt_report, EnergyProgram, KktReport, SolveOptions, SolverKind};
use esched_subinterval::Timeline;
use esched_types::PolynomialPower;
use esched_workload::WorkloadSpec;
use std::time::Instant;

const TASKS: usize = 256;
const CORES: usize = 4;
/// Requests every run completes, whatever its length: the digest and the
/// energy cover exactly these. Energy varies by a few percent between
/// instances of this size, so the mean needs this many to repeat within
/// 2% from seed to seed.
const FIXED: usize = 128;
/// Relative KKT tolerance of the certificate. `SolveOptions::fast()` stops
/// at a 1e-5 gap, but the Frank–Wolfe gap of the cleaned-up optimum the
/// engine returns exceeds that on about half of these instances, and
/// reached 1.04e-4 on one in ~2,700; 1e-3 leaves every instance a margin.
const KKT_TOL: f64 = 1e-3;

/// The workload.
pub struct Certify;

/// The seed, and the engine requests run on.
pub struct Inputs {
    seed: u64,
    engine: Engine,
}

/// Request `i` of the stream for `seed`. Solve time varies severalfold
/// between instances of one law, so every request is a new instance: a
/// run's median then averages over as many instances as it completes.
fn request(seed: u64, i: usize) -> ScheduleRequest {
    let tasks = WorkloadSpec::large_n(TASKS).instantiate(derive_seed(seed, 1 << 32 | i as u64));
    ScheduleRequest::new(tasks, CORES, PolynomialPower::paper(3.0, 0.2)).with_config(
        EngineConfig::new()
            .with_solver(SolverKind::Admm)
            .with_solve_options(SolveOptions::fast())
            .with_telemetry(false)
            .with_intra_parallelism(DEFAULT_PARALLEL_THRESHOLD),
    )
}

/// The certificate of an outcome's optimum, as the untraced operation
/// computes it.
fn certificate(request: &ScheduleRequest, out: &ScheduleOutcome) -> Option<KktReport> {
    let timeline = Timeline::build(&request.tasks);
    let ep = EnergyProgram::new(&request.tasks, &timeline, request.cores, request.power);
    Some(kkt_report(&ep, out.opt_x.as_deref()?))
}

/// One certification: solve, then certify.
fn certify(
    engine: &Engine,
    request: &ScheduleRequest,
) -> Result<(ScheduleOutcome, KktReport), String> {
    let out = engine.run(request).map_err(|e| e.to_string())?;
    let kkt = certificate(request, &out).ok_or("no optimum in the outcome")?;
    Ok((out, kkt))
}

fn check(tally: &mut Tally, i: usize, out: &ScheduleOutcome, kkt: &KktReport) {
    let converged = out.opt.as_ref().is_some_and(|o| o.converged);
    tally.check(converged, || {
        format!("request {i}: solver did not converge")
    });
    tally.check(kkt.is_optimal(KKT_TOL), || {
        format!("request {i}: not KKT-optimal at {KKT_TOL}: {kkt:?}")
    });
}

impl Workload for Certify {
    type Inputs = Inputs;
    const TAIL_PERCENTILE: f64 = 90.0;

    fn setup(seed: u64, _seconds: f64, workers: usize) -> Inputs {
        let engine = Engine::with_threads(workers);
        let _ = certify(&engine, &request(seed, 0));
        Inputs { seed, engine }
    }

    fn run(inputs: &Inputs, seconds: f64) -> Measured {
        let mut m = Measured::default();
        let mut digest = Fnv1a::default();
        let (mut energy, mut nec) = (Vec::new(), Vec::new());
        closed_loop(seconds, FIXED, |i| {
            let request = request(inputs.seed, i);
            let t = Instant::now();
            let result = certify(&inputs.engine, &request);
            let ms = ms_since(t);
            m.tally.attempted += 1;
            match result {
                Ok((out, kkt)) => {
                    m.latencies_ms.push(ms);
                    check(&mut m.tally, i, &out, &kkt);
                    if let (true, Some(n)) = (i < FIXED, out.nec) {
                        digest_outcome(&mut digest, &out);
                        energy.push(n.f2 / n.ideal);
                        nec.push(n.f2);
                    }
                }
                Err(e) => m.tally.fail(format!("request {i}: {e}")),
            }
        });
        m.throughput_per_s = 1e3 / mean(&m.latencies_ms);
        m.energy_over_ideal = mean(&energy);
        m.digest = digest.hex();
        m.observed.push(("opt.nec_f2", mean(&nec)));
        m
    }

    fn trace(inputs: &Inputs, seconds: f64, rec: &mut Recorder) -> Traced {
        let mut traced = Traced::default();
        closed_loop(seconds, 1, |i| {
            let request = request(inputs.seed, i);
            let (want, got) = traced.pair(
                i,
                || certify(&inputs.engine, &request),
                || {
                    rec.op(|rec| {
                        let out = mirror::execute(rec, &request);
                        let kkt = rec.span("opt.kkt", || certificate(&request, &out));
                        kkt.map(|kkt| (out, kkt))
                    })
                },
            );
            let same = matches!((&want, &got), (Ok(w), Some(g)) if w == g);
            traced.tally.check(same, || {
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
        let a = request(3, 0);
        assert_eq!(a, request(3, 0));
        assert_eq!(a.tasks.len(), TASKS);
        assert_ne!(a.tasks, request(4, 0).tasks);
        assert_ne!(a.tasks, request(3, 1).tasks);
    }
}
