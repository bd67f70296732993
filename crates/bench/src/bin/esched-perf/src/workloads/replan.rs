//! `replan-1k`: an open loop feeding `OnlineEngine::apply` a fixed 80
//! events/s, spread round-robin over four independent plans, each a dense
//! paper-law instance of 1,024 tasks on 8 cores. The event mix is 5%
//! arrivals, 30% early completions at 0.9·C (MORA-style slack
//! reclamation) and 65% window shifts of ±0.25.
//!
//! Four plans rather than one: replan cost and energy depend on how
//! crowded the instance is, and with a single instance that varied by
//! ~10% from seed to seed.

use super::{derive_seed, Measured, Traced, Workload};
use crate::check::digest_outcome;
use crate::ledger::Recorder;
use crate::mirror;
use crate::stats::{max_sustainable_rate, mean, percentile, Fnv1a};
use esched_core::ideal_schedule;
use esched_engine::{Engine, EngineConfig, OnlineEngine, OnlineEvent, ScheduleOutcome};
use esched_obs::rng::ChaCha8;
use esched_types::{PolynomialPower, Task, TaskSet};
use esched_workload::{GeneratorConfig, WorkloadGenerator};
use std::time::{Duration, Instant};

const TASKS: usize = 1024;
const CORES: usize = 8;
/// Independent plans the events are spread over.
const PLANS: usize = 4;
/// Events per second the generator sends, over all plans.
const RATE: f64 = 80.0;
/// Latency limit of `online.capacity_eps`: the highest rate whose tail
/// latency, replayed over the measured service times, stays within it.
/// It is a per-layer metric rather than the end-to-end throughput because
/// it hinges on a few slow events and repeated only within ~20% from run
/// to run on a shared 2-vCPU host.
const LIMIT_S: f64 = 0.020;
/// Events of the warm-up stream, run on throwaway engines.
const WARMUP_EVENTS: usize = 64;

fn power() -> PolynomialPower {
    PolynomialPower::paper(3.0, 0.1)
}

fn config() -> EngineConfig {
    EngineConfig::new()
        .with_sim_verify(true)
        .with_telemetry(false)
}

/// The workload.
pub struct Replan;

/// The initial task sets and the event stream, each event tagged with the
/// plan it goes to.
pub struct Inputs {
    initial: Vec<TaskSet>,
    events: Vec<(usize, OnlineEvent)>,
    workers: usize,
}

/// The initial task set of `plan` for `seed`.
fn initial(seed: u64, plan: usize) -> TaskSet {
    WorkloadGenerator::new(
        GeneratorConfig::paper_default().with_tasks(TASKS),
        derive_seed(seed, 3 << 32 | (plan as u64) << 8),
    )
    .generate()
}

/// `count` events drawn from `seed`, going round-robin to the plans that
/// start from `initial`. A shadow copy of each plan's task list tracks
/// what its events do, so every event is valid when applied in order.
fn events(seed: u64, initial: &[TaskSet], count: usize) -> Vec<(usize, OnlineEvent)> {
    let mut rng = ChaCha8::seed_from_u64(derive_seed(seed, 3 << 32 | 1));
    let arrivals = WorkloadGenerator::new(
        GeneratorConfig::paper_default().with_tasks(count.max(1)),
        derive_seed(seed, 3 << 32 | 2),
    )
    .generate();
    let mut shadows: Vec<Vec<Task>> = initial.iter().map(|t| t.tasks().to_vec()).collect();
    let mut next_arrival = 0;
    (0..count)
        .map(|k| {
            let plan = k % initial.len();
            let shadow = &mut shadows[plan];
            let u = rng.gen_f64();
            if u < 0.05 {
                let task = *arrivals.get(next_arrival);
                next_arrival += 1;
                shadow.push(task);
                return (plan, OnlineEvent::Arrive(task));
            }
            let task = rng.gen_range_usize(0, shadow.len());
            let t = &mut shadow[task];
            let event = if u < 0.35 {
                t.wcec *= 0.9;
                OnlineEvent::Complete {
                    task,
                    actual_work: t.wcec,
                }
            } else {
                let delta = if rng.gen_bool(0.5) { 0.25 } else { -0.25 };
                t.release += delta;
                t.deadline += delta;
                OnlineEvent::Shift {
                    task,
                    release: t.release,
                    deadline: t.deadline,
                }
            };
            (plan, event)
        })
        .collect()
}

fn engine(initial: &TaskSet) -> OnlineEngine {
    OnlineEngine::new(initial.clone(), CORES, power()).with_config(config())
}

/// Spin until `due`. Sleeping instead lets the core idle between events,
/// and on a virtual machine the first event after an idle stretch ran up
/// to a third slower from one run to the next.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// The final-state check: the online plan must equal the offline
/// pipeline's plan for the same tasks, in value and in canonical JSON
/// bytes, and simulate clean. The online outcome is folded into `digest`;
/// the offline one into a copy taken just before, so the two encodings
/// are compared byte for byte with one pass each.
fn check_final(
    digest: &mut Fnv1a,
    outcome: &ScheduleOutcome,
    offline: &ScheduleOutcome,
) -> Result<(), String> {
    let mut want = *digest;
    digest_outcome(digest, outcome);
    digest_outcome(&mut want, offline);
    if outcome != offline || want != *digest {
        return Err("online outcome differs from Engine::run on the same tasks".to_string());
    }
    match outcome.sim {
        Some(sim) if sim.clean => Ok(()),
        _ => Err("final plan does not simulate clean".to_string()),
    }
}

fn kind(event: &OnlineEvent) -> usize {
    match event {
        OnlineEvent::Arrive(_) => 0,
        OnlineEvent::Complete { .. } => 1,
        OnlineEvent::Shift { .. } => 2,
    }
}

impl Workload for Replan {
    type Inputs = Inputs;
    const TAIL_PERCENTILE: f64 = 95.0;

    fn setup(seed: u64, seconds: f64, workers: usize) -> Inputs {
        let initial: Vec<TaskSet> = (0..PLANS).map(|p| initial(seed, p)).collect();
        let events = events(seed, &initial, (RATE * seconds).round().max(1.0) as usize);
        let mut warm: Vec<OnlineEngine> = initial.iter().map(engine).collect();
        for (plan, event) in events.iter().take(WARMUP_EVENTS) {
            let _ = warm[*plan].apply(event);
        }
        Inputs {
            initial,
            events,
            workers,
        }
    }

    fn run(inputs: &Inputs, _seconds: f64) -> Measured {
        let mut m = Measured::default();
        let mut engines: Vec<OnlineEngine> = inputs.initial.iter().map(engine).collect();
        let n = inputs.events.len();
        let mut service_s = Vec::with_capacity(n);
        let mut by_kind: [Vec<f64>; 3] = Default::default();
        let (mut late_max_ms, mut backlog_max) = (0.0_f64, 0usize);
        let (mut patch_attempts, mut patched) = (0usize, 0usize);
        let (mut dirty_ratio, mut fallbacks) = (0.0, 0usize);
        let interval = Duration::from_secs_f64(1.0 / RATE);
        let t0 = Instant::now() + Duration::from_millis(5);
        let mut prev_end = t0;
        for (k, (plan, event)) in inputs.events.iter().enumerate() {
            let due = t0 + interval * k as u32;
            wait_until(due);
            let start = Instant::now();
            let result = engines[*plan].apply(event);
            let end = Instant::now();
            m.tally.attempted += 1;
            // When the server was idle at the due time, any delay before
            // the start is the generator's, not queueing.
            if prev_end <= due {
                late_max_ms = late_max_ms.max((start - due).as_secs_f64() * 1e3);
            }
            let due_by_start = ((start - t0).as_secs_f64() * RATE) as usize + 1;
            backlog_max = backlog_max.max(due_by_start.min(n).saturating_sub(k + 1));
            prev_end = end;
            let service = (end - start).as_secs_f64();
            service_s.push(service);
            by_kind[kind(event)].push(service * 1e3);
            m.latencies_ms.push((end - due).as_secs_f64() * 1e3);
            match result {
                Ok(report) => {
                    if !matches!(event, OnlineEvent::Complete { .. }) {
                        patch_attempts += 1;
                        patched += usize::from(!report.timeline_rebuilt);
                    }
                    dirty_ratio +=
                        report.der.dirty_columns as f64 / report.der.total_columns.max(1) as f64;
                    fallbacks += usize::from(report.der.fell_back);
                }
                Err(e) => m.tally.fail(format!("event {k}: {e}")),
            }
        }
        let mut digest = Fnv1a::default();
        let mut energy = Vec::with_capacity(PLANS);
        let offline = Engine::with_threads(inputs.workers);
        for (plan, engine) in engines.iter_mut().enumerate() {
            let outcome = engine.outcome();
            match offline.run(&engine.as_request()) {
                Ok(want) => {
                    if let Err(e) = check_final(&mut digest, &outcome, &want) {
                        m.tally.fail(format!("plan {plan}: {e}"));
                    }
                }
                Err(e) => {
                    digest_outcome(&mut digest, &outcome);
                    m.tally.fail(format!("plan {plan}: offline run: {e}"));
                }
            }
            energy.push(outcome.energy / ideal_schedule(engine.tasks(), &power()).energy);
        }
        m.digest = digest.hex();
        m.energy_over_ideal = mean(&energy);
        let service_ms: Vec<f64> = service_s.iter().map(|s| s * 1e3).collect();
        // Events per second of service: the rate at which the replanner
        // would be busy all of the time.
        m.throughput_per_s = 1e3 / mean(&service_ms);
        let share = |part: usize, whole: usize| part as f64 / whole.max(1) as f64;
        m.observed = vec![
            ("online.service_p50_ms", percentile(&service_ms, 50.0)),
            ("online.service_p99_ms", percentile(&service_ms, 99.0)),
            (
                "online.service_arrive_p50_ms",
                percentile(&by_kind[0], 50.0),
            ),
            (
                "online.service_complete_p50_ms",
                percentile(&by_kind[1], 50.0),
            ),
            ("online.service_shift_p50_ms", percentile(&by_kind[2], 50.0)),
            (
                "online.capacity_eps",
                max_sustainable_rate(&service_s, Self::TAIL_PERCENTILE, LIMIT_S),
            ),
            ("subinterval.patch_ratio", share(patched, patch_attempts)),
            ("allocation.dirty_ratio", dirty_ratio / n as f64),
            ("allocation.fallback_ratio", share(fallbacks, n)),
            ("loadgen.late_max_ms", late_max_ms),
            ("loadgen.backlog_max", backlog_max as f64),
        ];
        m
    }

    fn trace(inputs: &Inputs, seconds: f64, rec: &mut Recorder) -> Traced {
        // Closed-loop replay of the same stream from the same start, each
        // event applied to the engine and to the traced mirror.
        let mut traced = Traced::default();
        let mut engines: Vec<OnlineEngine> = inputs.initial.iter().map(engine).collect();
        let mut mirrors: Vec<mirror::Online> = inputs
            .initial
            .iter()
            .map(|tasks| mirror::Online::new(tasks.clone(), CORES, power()))
            .collect();
        let start = Instant::now();
        for (k, (plan, event)) in inputs.events.iter().enumerate() {
            if k > 0 && start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            let (engine, mirror) = (&mut engines[*plan], &mut mirrors[*plan]);
            let (want, got) = traced.pair(
                k,
                || engine.apply(event),
                || rec.op(|rec| mirror.apply(rec, event)),
            );
            let same = want.as_ref() == Ok(&got) && engine.assignment() == mirror.assignment();
            traced.tally.check(same, || {
                format!("event {k}: traced mirror differs from OnlineEngine::apply")
            });
            if !same {
                break;
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
        let a = initial(5, 0);
        assert_eq!(a, initial(5, 0));
        assert_eq!(a.len(), TASKS);
        assert_ne!(a, initial(6, 0));
        assert_ne!(a, initial(5, 1));
        let plans = [a, initial(5, 1)];
        let stream = events(5, &plans, 400);
        assert_eq!(stream, events(5, &plans, 400));
        assert_ne!(stream, events(6, &plans, 400));
        assert!(stream
            .iter()
            .enumerate()
            .all(|(k, (plan, _))| *plan == k % 2));
        let arrivals = stream.iter().filter(|(_, e)| kind(e) == 0).count();
        let completions = stream.iter().filter(|(_, e)| kind(e) == 1).count();
        assert!(
            (8..=35).contains(&arrivals),
            "{arrivals} arrivals in 400 events"
        );
        assert!(
            (90..=150).contains(&completions),
            "{completions} completions"
        );
    }

    #[test]
    fn every_event_applies_and_the_mirror_tracks_the_engine() {
        let initial =
            WorkloadGenerator::new(GeneratorConfig::paper_default().with_tasks(48), 9).generate();
        let stream = events(9, std::slice::from_ref(&initial), 120);
        let mut online = engine(&initial);
        let mut mirror = mirror::Online::new(initial.clone(), CORES, power());
        let mut rec = Recorder::default();
        for (_, event) in &stream {
            let want = online.apply(event).expect("generated events are valid");
            let got = rec.op(|rec| mirror.apply(rec, event));
            assert_eq!(want, got);
            assert_eq!(online.assignment(), mirror.assignment());
        }
        assert!(rec.ledger().reconciles());
    }
}
