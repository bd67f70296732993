//! The engine's batch output is a pure function of the batch: byte-for-byte
//! identical `ScheduleOutcome` JSON regardless of worker count or steal
//! interleaving. CI re-runs this file under `ESCHED_ENGINE_THREADS=1,4,8`.

use esched_engine::{Engine, EngineConfig, ScheduleRequest};
use esched_obs::json::{ToJson, Value};
use esched_opt::{SolveOptions, SolverKind};
use esched_types::PolynomialPower;
use esched_workload::{GeneratorConfig, WorkloadGenerator};
use std::sync::Arc;

/// A batch exercising the full pipeline: heuristics, E^OPT solve (NEC),
/// and a simulator cross-check, over seeded paper-style workloads.
fn requests() -> Vec<ScheduleRequest> {
    let config = EngineConfig::new()
        .with_solver(SolverKind::ProjectedGradient)
        .with_solve_options(SolveOptions::fast())
        .with_sim_verify(true);
    (0..24)
        .map(|k| {
            let mut gen = WorkloadGenerator::new(
                GeneratorConfig::paper_default().with_tasks(10),
                9000 + k as u64,
            );
            ScheduleRequest::new(gen.generate(), 4, PolynomialPower::paper(3.0, 0.1))
                .with_config(config.clone())
        })
        .collect()
}

fn batch_json(engine: &Engine) -> Vec<String> {
    engine
        .run_batch(&requests())
        .into_iter()
        .map(|r| r.expect("no job panicked").to_json().to_string())
        .collect()
}

#[test]
fn outcome_json_is_identical_across_worker_counts() {
    let serial = batch_json(&Engine::with_threads(1));
    assert_eq!(serial.len(), 24);
    for threads in [4, 8] {
        assert_eq!(
            batch_json(&Engine::with_threads(threads)),
            serial,
            "outcome JSON diverged at {threads} workers"
        );
    }
}

#[test]
fn env_sized_engine_matches_serial() {
    // `Engine::new` honours ESCHED_ENGINE_THREADS; CI sets it to 1, 4,
    // and 8 in turn, so this pins determinism at the env-selected size.
    let serial = batch_json(&Engine::with_threads(1));
    assert_eq!(batch_json(&Engine::new()), serial);
}

#[test]
fn repeated_runs_are_identical() {
    let engine = Engine::new();
    assert_eq!(batch_json(&engine), batch_json(&engine));
}

/// Outcome equality covers what `to_json()` encodes, so two runs of one
/// request compare equal under the default config, whose solver
/// telemetry carries each run's own wall time.
#[test]
fn repeated_runs_compare_equal_with_default_telemetry() {
    let config = EngineConfig::new().with_solver(SolverKind::ProjectedGradient);
    assert!(config.telemetry);
    let mut gen = WorkloadGenerator::new(GeneratorConfig::paper_default().with_tasks(10), 9000);
    let request = ScheduleRequest::new(gen.generate(), 4, PolynomialPower::paper(3.0, 0.1))
        .with_config(config);
    let engine = Engine::with_threads(1);
    let first = engine.run(&request).expect("no job panicked");
    let second = engine.run(&request).expect("no job panicked");
    assert!(first.opt.as_ref().and_then(|o| o.telemetry).is_some());
    assert_eq!(first, second);
}

/// Request-scoped tracing and the flight recorder are observability-only:
/// with a request-scoped Chrome sink installed and the recorder on, the
/// outcome JSON must stay byte-identical across worker counts (request
/// ids and timings live in `ScheduleOutcome::trace`, which the canonical
/// encoding excludes).
#[test]
fn outcomes_identical_with_request_scoped_observability_on() {
    let sink = Arc::new(esched_obs::chrome::ChromeTraceSink::request_scoped());
    esched_obs::trace::init_with(esched_obs::trace::Filter::parse("debug"), sink.clone());
    esched_obs::recorder::set_enabled(true);
    let serial = batch_json(&Engine::with_threads(1));
    for threads in [4, 8] {
        assert_eq!(
            batch_json(&Engine::with_threads(threads)),
            serial,
            "outcome JSON diverged at {threads} workers with observability on"
        );
    }
    esched_obs::trace::disable();

    // The sink really was in request-scoped mode: engine spans landed on
    // per-request tracks, and the flight ring holds request-tagged spans.
    let doc = sink.to_json();
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents");
    assert!(
        events.iter().any(|e| {
            e.get("pid").and_then(Value::as_u64) == Some(esched_obs::chrome::REQUESTS_PID)
                && e.get("name").and_then(Value::as_str) == Some("engine_execute")
        }),
        "no request-track engine spans captured"
    );
    assert!(
        esched_obs::recorder::snapshot()
            .iter()
            .any(|r| r.name == "engine_execute" && r.request != 0),
        "no request-tagged flight spans recorded"
    );
}

/// Intra-instance fan-out must not break determinism: with
/// `with_intra_parallelism(1)` every request's DER allocation is split
/// across the worker pool (threshold 1 forces the parallel path even on
/// these small instances), and the outcome JSON must still be
/// byte-identical at 1, 4, and 8 workers — chunk boundaries and the
/// reduction order are a pure function of the CSR shape, never of the
/// worker count or steal interleaving.
#[test]
fn intra_parallel_outcomes_identical_across_worker_counts() {
    let fan_out = |threads: usize| -> Vec<String> {
        let engine = Engine::with_threads(threads);
        let reqs: Vec<ScheduleRequest> = requests()
            .into_iter()
            .map(|rq| {
                let cfg = rq.config.clone().with_intra_parallelism(1);
                rq.with_config(cfg)
            })
            .collect();
        engine
            .run_batch(&reqs)
            .into_iter()
            .map(|r| r.expect("no job panicked").to_json().to_string())
            .collect()
    };
    let serial = batch_json(&Engine::with_threads(1));
    let fanned_serial = fan_out(1);
    assert_eq!(
        fanned_serial, serial,
        "intra-parallel fan-out changed the outcome vs the plain path"
    );
    for threads in [4, 8] {
        assert_eq!(
            fan_out(threads),
            fanned_serial,
            "intra-parallel outcome JSON diverged at {threads} workers"
        );
    }
}

/// Warm-start seeding happens at submission time (the driver copies the
/// previous batch's solutions into the next batch's requests), so the
/// two-phase sweep pattern must stay byte-identical across worker counts
/// too — the acceptance gate for threading `warm_start` through the
/// engine.
#[test]
fn warm_started_batches_are_identical_across_worker_counts() {
    let run = |threads: usize| -> Vec<String> {
        let engine = Engine::with_threads(threads);
        // Phase 1: cold solves at p0 = 0.1.
        let seeds: Vec<Option<Vec<f64>>> = engine
            .run_batch(&requests())
            .into_iter()
            .map(|r| r.expect("no job panicked").opt_x)
            .collect();
        // Phase 2: the same task sets at p0 = 0.3, seeded from phase 1.
        let warmed: Vec<ScheduleRequest> = requests()
            .into_iter()
            .zip(seeds)
            .map(|(mut rq, seed)| {
                assert!(seed.is_some(), "solver-enabled outcome carries its iterate");
                rq.power = PolynomialPower::paper(3.0, 0.3);
                rq.config.solve_options.warm_start = seed;
                rq
            })
            .collect();
        engine
            .run_batch(&warmed)
            .into_iter()
            .map(|r| r.expect("no job panicked").to_json().to_string())
            .collect()
    };
    let serial = run(1);
    assert_eq!(serial.len(), 24);
    for threads in [4, 8] {
        assert_eq!(
            run(threads),
            serial,
            "warm-started outcome JSON diverged at {threads} workers"
        );
    }
}
