//! The per-instance pipeline. Every request ends in one [`finish`]: the
//! offline [`execute`] builds a plan from scratch (timeline, ideal case,
//! the chosen heuristic's allocation) and
//! [`OnlineEngine::outcome`](crate::OnlineEngine::outcome) lends the plan
//! it maintains; from there refinement, the `E^OPT` solve and NEC, the
//! simulator verdict and the discrete stage are one code path, with all
//! hot allocations drawn from a worker's [`Scratch`].

use crate::config::{Algorithm, EngineConfig, ScheduleRequest};
use crate::outcome::{DiscreteSummary, OptSummary, ScheduleOutcome, SimVerdict};
use esched_core::{
    allocate, allocate_even, ideal_schedule, optimal_energy_in_pool, quantize_schedule,
    refine_with, AllocRequest, AvailMatrix, IdealSolution, NecPoint, Pool, QuantizePolicy, Refined,
    Scratch,
};
use esched_obs::{RequestId, RequestScope, TraceCtx};
use esched_sim::simulate;
use esched_subinterval::Timeline;
use esched_types::{PolynomialPower, TaskSet};
use std::time::Instant;

/// A borrowed plan: the instance and the stages [`finish`] starts from.
pub(crate) struct Plan<'a> {
    pub tasks: &'a TaskSet,
    pub cores: usize,
    pub power: &'a PolynomialPower,
    pub timeline: &'a Timeline,
    pub ideal: &'a IdealSolution,
}

/// `plan`'s availability matrix under `algorithm`. DER water-fills on
/// the intra pool when the `intra_parallelism` knob is set.
fn allocation(
    algorithm: Algorithm,
    plan: &Plan,
    cfg: &EngineConfig,
    scratch: &mut Scratch,
    intra_pool: Option<&Pool>,
) -> AvailMatrix {
    match algorithm {
        Algorithm::Even => allocate_even(plan.tasks, plan.timeline, plan.cores),
        Algorithm::Der => {
            let mut req = AllocRequest::new(plan.tasks, plan.timeline, plan.cores, plan.ideal)
                .with_scratch(scratch);
            if let (Some(threshold), Some(pool)) = (cfg.intra_parallelism, intra_pool) {
                req = req.with_pool(pool).with_parallel_threshold(threshold);
            }
            allocate(req)
        }
    }
}

/// Run the full pipeline for one request.
///
/// Panics on a malformed request (`cores == 0`); the pool catches the
/// unwind and reports the job as a failed outcome, so one bad instance
/// never takes down a batch. Each call allocates a fresh [`RequestId`] and
/// holds a [`RequestScope`] for the whole pipeline, so spans, flight
/// records, and metric events emitted anywhere below carry the request —
/// including the panic stamp a malformed request leaves in the flight
/// recorder on its way out.
pub fn execute(scratch: &mut Scratch, request: &ScheduleRequest) -> ScheduleOutcome {
    let request_id = RequestId::next();
    let _req_scope = RequestScope::enter(request_id);
    let _flight = esched_obs::flight_span!("engine_execute");
    let mut trace = TraceCtx::new(request_id);
    assert!(
        request.cores >= 1,
        "ScheduleRequest requires at least one core"
    );
    let cfg = &request.config;
    let _span = esched_obs::span!(
        esched_obs::Level::Debug,
        "engine_execute",
        n_tasks = request.tasks.len(),
        cores = request.cores,
    );
    // One timeline and one ideal solution feed every stage — the
    // heuristics, the convex program, and the NEC normalization — instead
    // of each rebuilding its own as the free functions do.
    let t_phase = Instant::now();
    let timeline = Timeline::build_with(&request.tasks, &mut scratch.timeline);
    let ideal = ideal_schedule(&request.tasks, &request.power);
    trace.record_phase("timeline", t_phase.elapsed());

    // The intra-instance pool is only materialized when the knob is set;
    // it shares sizing rules (`ESCHED_ENGINE_THREADS`) with the batch
    // pool.
    let intra_pool = cfg.intra_parallelism.map(|_| Pool::new());
    let plan = Plan {
        tasks: &request.tasks,
        cores: request.cores,
        power: &request.power,
        timeline: &timeline,
        ideal: &ideal,
    };
    let t_alloc = Instant::now();
    let avail = allocation(cfg.algorithm, &plan, cfg, scratch, intra_pool.as_ref());
    let outcome = finish(
        &plan,
        &avail,
        cfg,
        scratch,
        intra_pool.as_ref(),
        trace,
        t_alloc,
    );
    scratch.timeline.recycle(timeline);
    outcome
}

/// Everything after the plan: refine `avail` (the allocation of
/// `cfg.algorithm`), and, as `cfg` asks, run the other heuristic and the
/// `E^OPT` solve for the NEC, the simulator and the discrete stage.
///
/// The intra pool serves allocation, refinement (the intermediate and
/// final schedules built side by side) and the decomposed solver; all
/// keep the outcome byte-identical with or without it. The `der_alloc`
/// phase is timed from `t_alloc`, so an offline request's covers its
/// allocation too.
pub(crate) fn finish(
    plan: &Plan,
    avail: &AvailMatrix,
    cfg: &EngineConfig,
    scratch: &mut Scratch,
    intra_pool: Option<&Pool>,
    mut trace: TraceCtx,
    t_alloc: Instant,
) -> ScheduleOutcome {
    // Refinement takes the pool by the allocator's rule: more than one
    // worker, and a timeline that reaches the `intra_parallelism`
    // threshold.
    let refine_pool = intra_pool.filter(|p| {
        p.threads() > 1
            && cfg
                .intra_parallelism
                .is_some_and(|t| plan.timeline.len() >= t)
    });
    let refine = |avail: &AvailMatrix, scratch: &mut Scratch| -> Refined {
        refine_with(
            plan.tasks,
            plan.timeline,
            plan.cores,
            plan.power,
            plan.ideal,
            avail,
            scratch,
            refine_pool,
        )
    };
    let chosen = refine(avail, scratch);
    trace.record_phase("der_alloc", t_alloc.elapsed());

    let t_phase = Instant::now();
    let (opt, nec, opt_x) = match cfg.solver {
        Some(kind) => {
            // NEC normalizes *both* heuristics, so run the one not chosen
            // as well.
            let other_algorithm = match cfg.algorithm {
                Algorithm::Der => Algorithm::Even,
                Algorithm::Even => Algorithm::Der,
            };
            let other_avail = allocation(other_algorithm, plan, cfg, scratch, intra_pool);
            let other = refine(&other_avail, scratch);
            let (even, der) = match cfg.algorithm {
                Algorithm::Der => (&other, &chosen),
                Algorithm::Even => (&chosen, &other),
            };
            let sol = optimal_energy_in_pool(
                plan.tasks,
                plan.timeline,
                plan.cores,
                plan.power,
                &cfg.solve_options,
                kind,
                intra_pool,
            );
            let e = sol.energy;
            let nec = NecPoint {
                ideal: plan.ideal.energy / e,
                i1: even.intermediate_energy / e,
                f1: even.final_energy / e,
                i2: der.intermediate_energy / e,
                f2: der.final_energy / e,
                opt_energy: e,
            };
            let opt = OptSummary {
                solver: kind.name(),
                energy: sol.energy,
                gap: sol.gap,
                iters: sol.iters,
                converged: sol.telemetry.converged,
                telemetry: cfg.telemetry.then_some(sol.telemetry),
            };
            (Some(opt), Some(nec), Some(sol.x))
        }
        None => (None, None, None),
    };
    trace.record_phase("solve", t_phase.elapsed());

    let t_phase = Instant::now();
    let sim = cfg.sim_verify.then(|| {
        let report = simulate(&chosen.schedule, plan.tasks, plan.power);
        SimVerdict {
            clean: report.is_clean(),
            deadline_misses: report.deadline_misses.len(),
            conflicts: report.conflicts.len(),
            energy: report.energy,
        }
    });
    trace.record_phase("sim_verify", t_phase.elapsed());
    let t_phase = Instant::now();
    let discrete = cfg.discrete.as_ref().map(|table| {
        let out = quantize_schedule(&chosen.schedule, table, QuantizePolicy::NextUp);
        DiscreteSummary {
            energy: out.energy,
            misses: out.misses.len(),
            feasible: out.feasible,
        }
    });
    trace.record_phase("discrete", t_phase.elapsed());

    ScheduleOutcome {
        algorithm: cfg.algorithm,
        energy: chosen.final_energy,
        intermediate_energy: chosen.intermediate_energy,
        schedule: chosen.schedule,
        nec,
        opt,
        opt_x,
        sim,
        discrete,
        trace: cfg.telemetry.then_some(trace),
    }
}

#[cfg(test)]
mod tests {
    use crate::{Engine, EngineConfig, ScheduleRequest};
    use esched_core::NecPoint;
    use esched_opt::SolverKind;
    use esched_types::{PolynomialPower, TaskSet};

    /// The engine's NEC for the paper's worked VD example on four cores,
    /// normalized by a projected-gradient `E^OPT`.
    fn vd_nec() -> NecPoint {
        let tasks = TaskSet::from_triples(&[
            (0.0, 10.0, 8.0),
            (2.0, 18.0, 14.0),
            (4.0, 16.0, 8.0),
            (6.0, 14.0, 4.0),
            (8.0, 20.0, 10.0),
            (12.0, 22.0, 6.0),
        ]);
        let request = ScheduleRequest::new(tasks, 4, PolynomialPower::cubic())
            .with_config(EngineConfig::new().with_solver(SolverKind::ProjectedGradient));
        let outcome = Engine::with_threads(1).run(&request).expect("engine run");
        outcome.nec.expect("a solver was set")
    }

    #[test]
    fn heuristic_necs_are_at_least_one() {
        let nec = vd_nec();
        for (label, v) in [
            ("i1", nec.i1),
            ("f1", nec.f1),
            ("i2", nec.i2),
            ("f2", nec.f2),
        ] {
            assert!(v >= 1.0 - 1e-4, "{label} = {v} below 1");
        }
        // Finals improve on intermediates.
        assert!(nec.f1 <= nec.i1 + 1e-9);
        assert!(nec.f2 <= nec.i2 + 1e-9);
    }

    #[test]
    fn ideal_lower_bounds_opt_when_static_power_is_zero() {
        let nec = vd_nec();
        assert!(nec.ideal <= 1.0 + 1e-6, "ideal NEC = {}", nec.ideal);
    }

    #[test]
    fn vd_example_f2_beats_f1() {
        let nec = vd_nec();
        assert!(nec.f2 < nec.f1, "f2 {} vs f1 {}", nec.f2, nec.f1);
    }
}
