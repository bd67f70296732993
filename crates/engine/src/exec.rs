//! The per-instance pipeline: one [`ScheduleRequest`] in, one
//! [`ScheduleOutcome`] out, all hot allocations drawn from a worker's
//! [`Scratch`].

use crate::config::{Algorithm, ScheduleRequest};
use crate::outcome::{DiscreteSummary, OptSummary, ScheduleOutcome, SimVerdict};
use esched_core::{
    allocate, allocate_even, ideal_schedule, optimal_energy_in_pool, quantize_schedule,
    refine_with, AllocRequest, NecPoint, Pool, QuantizePolicy, Refined, Scratch,
};
use esched_obs::{RequestId, RequestScope, TraceCtx};
use esched_sim::simulate;
use esched_subinterval::Timeline;
use std::time::Instant;

/// The intra pool when refinement should use it: by the allocator's rule,
/// the pool has more than one worker and the timeline reaches the
/// `intra_parallelism` threshold.
pub(crate) fn refine_pool<'a>(
    pool: Option<&'a Pool>,
    threshold: Option<usize>,
    timeline: &Timeline,
) -> Option<&'a Pool> {
    pool.filter(|p| p.threads() > 1 && threshold.is_some_and(|t| timeline.len() >= t))
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
    // pool. It serves allocation (column chunks) and refinement (the
    // intermediate and final schedules built side by side); both keep
    // the outcome byte-identical either way.
    let intra_pool = cfg.intra_parallelism.map(|_| Pool::new());
    let refine_pool = refine_pool(intra_pool.as_ref(), cfg.intra_parallelism, &timeline);
    let run_even = |scratch: &mut Scratch| -> Refined {
        let avail = allocate_even(&request.tasks, &timeline, request.cores);
        refine_with(
            &request.tasks,
            &timeline,
            request.cores,
            &request.power,
            &ideal,
            &avail,
            scratch,
            refine_pool,
        )
    };
    let run_der = |scratch: &mut Scratch| -> Refined {
        let mut alloc_req = AllocRequest::new(&request.tasks, &timeline, request.cores, &ideal)
            .with_scratch(&mut *scratch);
        if let (Some(threshold), Some(pool)) = (cfg.intra_parallelism, intra_pool.as_ref()) {
            alloc_req = alloc_req.with_pool(pool).with_parallel_threshold(threshold);
        }
        let avail = allocate(alloc_req);
        refine_with(
            &request.tasks,
            &timeline,
            request.cores,
            &request.power,
            &ideal,
            &avail,
            scratch,
            refine_pool,
        )
    };

    let t_phase = Instant::now();
    let chosen = match cfg.algorithm {
        Algorithm::Der => run_der(scratch),
        Algorithm::Even => run_even(scratch),
    };
    trace.record_phase("der_alloc", t_phase.elapsed());

    let t_phase = Instant::now();
    let (opt, nec, opt_x) = match cfg.solver {
        Some(kind) => {
            // NEC normalizes *both* heuristics, so run the one not chosen
            // above as well.
            let other = match cfg.algorithm {
                Algorithm::Der => run_even(scratch),
                Algorithm::Even => run_der(scratch),
            };
            let (even, der) = match cfg.algorithm {
                Algorithm::Der => (&other, &chosen),
                Algorithm::Even => (&chosen, &other),
            };
            // The decomposed solver reuses the intra-instance pool when
            // one is materialized, so allocation and certification share
            // a single set of workers; serial solvers ignore it.
            let sol = optimal_energy_in_pool(
                &request.tasks,
                &timeline,
                request.cores,
                &request.power,
                &cfg.solve_options,
                kind,
                intra_pool.as_ref(),
            );
            let e = sol.energy;
            let nec = NecPoint {
                ideal: ideal.energy / e,
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
    scratch.timeline.recycle(timeline);

    let t_phase = Instant::now();
    let sim = cfg.sim_verify.then(|| {
        let report = simulate(&chosen.schedule, &request.tasks, &request.power);
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
