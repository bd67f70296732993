//! The oracle battery: every free cross-check the paper's structure
//! provides, run against one [`Instance`].
//!
//! Each oracle is *differential* — it compares two independent
//! computations of the same fact (analytic energy vs. convex lower bound,
//! validator vs. simulator, continuous feasibility vs. discrete
//! quantization) — so a violation localizes a bug without needing a known
//! ground truth. The whole pipeline runs under `catch_unwind`, turning
//! every internal `assert!`/`expect` into a reported [`OracleClass::Panic`]
//! instead of a crashed fuzz loop.

use crate::instance::Instance;
use esched_core::{
    der_schedule, even_schedule, optimal_energy, quantize_schedule, requantize_schedule,
    two_level_assignment, HeuristicOutcome, OptimalSolution, QuantizePolicy,
};
use esched_opt::SolveOptions;
use esched_sim::{simulate, simulate_traced, SimReport};
use esched_subinterval::Timeline;
use esched_types::validate::WORK_TOL;
use esched_types::{validate_schedule, DiscretePower, PowerModel, Schedule, TaskSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Which oracle a violation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OracleClass {
    /// Any panic inside the pipeline (failed internal assert, NaN
    /// comparison, packing error escalated to `expect`).
    Panic,
    /// Energy ordering: `E^OPT − ε ≤ E(S)` or `E^F ≤ E^I` violated.
    EnergyOrdering,
    /// `validate_schedule` and the simulator disagree, a constructed
    /// schedule is outright illegal, or `simulate` reports other bits than
    /// the event loop `simulate_traced` always runs.
    ValidatorSim,
    /// Per-subinterval packing capacity or per-task occupancy exceeded.
    Packing,
    /// Delivered work `Σ segment·freq` drifted from `C_i`.
    WorkConservation,
    /// Discrete-mode feasibility verdicts disagree across code paths.
    Discrete,
    /// The water-filling DER allocator and the round-based reference
    /// implementation disagree beyond `WORK_TOL` on some
    /// `(task, subinterval)` share.
    Allocation,
    /// The online engine diverged from the offline pipeline: an event was
    /// wrongly rejected, an incrementally repaired plan failed the
    /// validator⟺simulator oracle, or the final online outcome is not
    /// byte-identical to a from-scratch run on the same task set.
    Online,
    /// The decomposed ADMM solver or the exact solver disagrees with the
    /// reference optimum beyond the agreement band, or its solution fails
    /// the independent KKT certificate.
    SolverAgreement,
}

impl OracleClass {
    /// Stable lowercase name used in corpus metadata and filenames.
    pub fn name(&self) -> &'static str {
        match self {
            OracleClass::Panic => "panic",
            OracleClass::EnergyOrdering => "energy-ordering",
            OracleClass::ValidatorSim => "validator-sim",
            OracleClass::Packing => "packing",
            OracleClass::WorkConservation => "work-conservation",
            OracleClass::Discrete => "discrete",
            OracleClass::Allocation => "allocation",
            OracleClass::Online => "online",
            OracleClass::SolverAgreement => "solver-agreement",
        }
    }

    /// Parse the stable name back (for corpus metadata).
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "panic" => OracleClass::Panic,
            "energy-ordering" => OracleClass::EnergyOrdering,
            "validator-sim" => OracleClass::ValidatorSim,
            "packing" => OracleClass::Packing,
            "work-conservation" => OracleClass::WorkConservation,
            "discrete" => OracleClass::Discrete,
            "allocation" => OracleClass::Allocation,
            "online" => OracleClass::Online,
            "solver-agreement" => OracleClass::SolverAgreement,
            _ => return None,
        })
    }
}

/// One oracle violation on one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleViolation {
    /// Which oracle fired.
    pub class: OracleClass,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.class.name(), self.message)
    }
}

/// Relative slack added on top of the solver's certified gap when testing
/// the lower bound `E^OPT − ε ≤ E(S)`: the analytic energies and the
/// solver objective are computed by different summation orders.
pub const ORDER_REL_TOL: f64 = 1e-6;

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The five-level discrete table used by the quantization oracles: level
/// frequencies on the analytic scale with powers taken from the
/// instance's own polynomial model (so the table is always strictly
/// increasing in both columns). The top level is 1.0 — tasks that need
/// `f > 1` are genuine deadline misses, which keeps the `None` path of
/// `pick_level`/`two_level_split` exercised.
pub fn oracle_table(power: &esched_types::PolynomialPower) -> DiscretePower {
    let freqs = [0.15, 0.4, 0.6, 0.8, 1.0];
    DiscretePower::from_pairs(
        &freqs
            .iter()
            .map(|&f| (f, power.power(f)))
            .collect::<Vec<_>>(),
    )
}

/// Run every oracle on `inst` and collect all violations.
pub fn check_instance(inst: &Instance) -> Vec<OracleViolation> {
    let mut out = Vec::new();

    // Stage 1: run the full pipeline, catching panics per stage so one
    // blown assert doesn't hide the other schedulers' results.
    let even = run_caught("even_schedule", &mut out, || {
        even_schedule(&inst.tasks, inst.cores, &inst.power)
    });
    let der = run_caught("der_schedule", &mut out, || {
        der_schedule(&inst.tasks, inst.cores, &inst.power)
    });
    let opt = run_caught("optimal_energy", &mut out, || {
        optimal_energy(
            &inst.tasks,
            inst.cores,
            &inst.power,
            &SolveOptions::default(),
        )
    });

    let timeline = match run_caught("timeline_build", &mut out, || Timeline::build(&inst.tasks)) {
        Some(tl) => tl,
        None => return out,
    };

    // Stage 2: oracles over whatever survived.
    if let (Some(even), Some(der)) = (&even, &der) {
        check_energy_ordering(inst, even, der, opt.as_ref(), &mut out);
    }
    for (label, outcome) in [("even", &even), ("der", &der)] {
        if let Some(o) = outcome {
            check_schedule(
                inst,
                &format!("S^I ({label})"),
                &o.intermediate_schedule,
                &timeline,
                false,
                &mut out,
            );
            check_schedule(
                inst,
                &format!("S^F ({label})"),
                &o.schedule,
                &timeline,
                true,
                &mut out,
            );
        }
    }
    if let Some(opt) = &opt {
        check_schedule(inst, "S^OPT", &opt.schedule, &timeline, true, &mut out);
    }
    if let Some(der) = &der {
        check_discrete(inst, der, &mut out);
    }
    check_allocation(inst, &timeline, &mut out);
    if let Some(opt) = &opt {
        check_solver_agreement(inst, &timeline, opt, &mut out);
    }
    out
}

/// Relative band for the decomposed-vs-serial solver agreement oracle.
pub const ADMM_AGREE_TOL: f64 = 2e-5;

/// Relative KKT tolerance the exact solver's point must pass wherever the
/// reference certifies.
pub const EXACT_KKT_TOL: f64 = 1e-9;

/// Differential check of the decomposed parallel solver and the exact
/// solver, both run cold on the instance's program: each must land within
/// [`ADMM_AGREE_TOL`] (relative) of the reference objective, the
/// optimum [`optimal_energy`] returned, and its solution must pass the
/// solver-independent KKT certificate, ADMM at 1e-5 and the exact solver
/// at [`EXACT_KKT_TOL`]. Exercised on every fuzz instance, so the 3-seed ×
/// 2000-iteration CI battery covers both across the whole instance
/// distribution.
fn check_solver_agreement(
    inst: &Instance,
    timeline: &Timeline,
    opt: &OptimalSolution,
    out: &mut Vec<OracleViolation>,
) {
    use esched_opt::{kkt_report, EnergyProgram, SolverKind};
    let ep = EnergyProgram::new(&inst.tasks, timeline, inst.cores, inst.power);
    let mut legs = Vec::new();
    for (kind, kkt_tol) in [(SolverKind::Admm, 1e-5), (SolverKind::Exact, EXACT_KKT_TOL)] {
        let label = format!("solve_{}", kind.name());
        if let Some(sol) = run_caught(&label, out, || kind.solve(&ep, &SolveOptions::default())) {
            legs.push((kind.name(), sol, kkt_tol));
        }
    }
    // Differential, like every oracle here: the checks are anchored to
    // instances where the reference point itself certifies. On
    // degenerate fuzz instances (near-zero work, extreme scale ratios)
    // the X_FLOOR regularization leaves the floored objective flat while
    // the gradient still points inward, so *no* solver's point can pass
    // KKT and uncertified objectives say nothing about each other — the
    // meaningful contract is "wherever the reference certifies, ADMM and
    // the exact solver certify and agree".
    let reference = kkt_report(&ep, &opt.x);
    if !reference.is_optimal(1e-5) {
        return;
    }
    // Compare program objectives at the points — NOT `opt.energy`, which
    // is the solver's objective before the dust clean and the starvation
    // repair moved `opt.x`.
    let scale = 1.0 + reference.objective.abs();
    for (name, sol, kkt_tol) in legs {
        if (sol.objective - reference.objective).abs() > ADMM_AGREE_TOL * scale {
            out.push(OracleViolation {
                class: OracleClass::SolverAgreement,
                message: format!(
                    "{name} objective {} vs reference {} (|diff| = {:e} > {ADMM_AGREE_TOL:e} relative)",
                    sol.objective,
                    reference.objective,
                    (sol.objective - reference.objective).abs() / scale
                ),
            });
        }
        let report = kkt_report(&ep, &sol.x);
        if !report.is_optimal(kkt_tol) {
            out.push(OracleViolation {
                class: OracleClass::SolverAgreement,
                message: format!(
                    "{name} solution fails KKT at {kkt_tol:e} where the reference certifies: residual {:e}, gap {:e}, feasibility {:e}",
                    report.projected_gradient_residual, report.duality_gap, report.feasibility_violation
                ),
            });
        }
    }
}

/// Differential check of the water-filling DER allocator against the
/// round-based reference: every `(task, subinterval)` share must agree to
/// `WORK_TOL`. Note the `Waterfill` strategy itself dispatches on
/// `ESCHED_DER_REFERENCE`, so under that flag this oracle degenerates to
/// reference-vs-reference — the CI fuzz-smoke step uses exactly that to
/// pin the rest of the battery onto the reference path.
fn check_allocation(inst: &Instance, timeline: &Timeline, out: &mut Vec<OracleViolation>) {
    use esched_core::{allocate, ideal_schedule, AllocRequest, DerStrategy};
    let Some(ideal) = run_caught("ideal_schedule", out, || {
        ideal_schedule(&inst.tasks, &inst.power)
    }) else {
        return;
    };
    let Some(fast) = run_caught("allocate_der", out, || {
        allocate(AllocRequest::new(&inst.tasks, timeline, inst.cores, &ideal))
    }) else {
        return;
    };
    let Some(reference) = run_caught("allocate_der_reference", out, || {
        allocate(
            AllocRequest::new(&inst.tasks, timeline, inst.cores, &ideal)
                .strategy(DerStrategy::Reference),
        )
    }) else {
        return;
    };
    for (i, _) in inst.tasks.iter() {
        for j in timeline.span(i) {
            let a = fast.get(i, j);
            let b = reference.get(i, j);
            if (a - b).abs() > WORK_TOL {
                out.push(OracleViolation {
                    class: OracleClass::Allocation,
                    message: format!(
                        "allocate_der vs reference diverge on task {i}, subinterval {j}: \
                         {a} vs {b} (|diff| = {:e})",
                        (a - b).abs()
                    ),
                });
            }
        }
    }
}

fn run_caught<T>(stage: &str, out: &mut Vec<OracleViolation>, f: impl FnOnce() -> T) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Some(v),
        Err(payload) => {
            out.push(OracleViolation {
                class: OracleClass::Panic,
                message: format!("{stage} panicked: {}", panic_message(payload)),
            });
            None
        }
    }
}

/// [`simulate`], checked against the event loop that [`simulate_traced`]
/// always runs: whichever path `simulate` takes, its report must equal the
/// event loop's in every field, bit for bit. `None` when either panicked.
fn simulate_checked<P: PowerModel>(
    label: &str,
    schedule: &Schedule,
    tasks: &TaskSet,
    power: &P,
    out: &mut Vec<OracleViolation>,
) -> Option<SimReport> {
    let sim = run_caught(&format!("simulate {label}"), out, || {
        simulate(schedule, tasks, power)
    })?;
    let traced = run_caught(&format!("simulate_traced {label}"), out, || {
        simulate_traced(schedule, tasks, power).0
    })?;
    // `Debug` prints each f64 so that it reads back to the same bits.
    if format!("{sim:?}") != format!("{traced:?}") {
        out.push(OracleViolation {
            class: OracleClass::ValidatorSim,
            message: format!("{label}: simulate's report differs from the event loop's"),
        });
    }
    Some(sim)
}

/// `E^OPT − ε ≤ E(S)` for all four constructed schedules, and the final
/// refinement never increases energy (`E^F ≤ E^I` per method). `ε` is the
/// solver's certified duality gap plus [`ORDER_REL_TOL`] relative slack.
fn check_energy_ordering(
    _inst: &Instance,
    even: &HeuristicOutcome,
    der: &HeuristicOutcome,
    opt: Option<&OptimalSolution>,
    out: &mut Vec<OracleViolation>,
) {
    let pairs = [
        ("E^I1", even.intermediate_energy),
        ("E^F1", even.final_energy),
        ("E^I2", der.intermediate_energy),
        ("E^F2", der.final_energy),
    ];
    for (label, e) in pairs {
        if !e.is_finite() || e < 0.0 {
            out.push(OracleViolation {
                class: OracleClass::EnergyOrdering,
                message: format!("{label} = {e} is not a finite non-negative energy"),
            });
        }
    }
    if let Some(opt) = opt {
        let eps = opt.gap.max(0.0) + ORDER_REL_TOL * (1.0 + opt.energy.abs());
        let floor = opt.energy - eps;
        for (label, e) in pairs {
            if e.is_finite() && e < floor {
                out.push(OracleViolation {
                    class: OracleClass::EnergyOrdering,
                    message: format!(
                        "{label} = {e} undercuts E^OPT = {} by more than eps = {eps}",
                        opt.energy
                    ),
                });
            }
        }
    }
    for (method, i, f) in [
        ("even", even.intermediate_energy, even.final_energy),
        ("der", der.intermediate_energy, der.final_energy),
    ] {
        if f > i + ORDER_REL_TOL * (1.0 + i.abs()) {
            out.push(OracleViolation {
                class: OracleClass::EnergyOrdering,
                message: format!("{method}: E^F = {f} exceeds E^I = {i}"),
            });
        }
    }
}

/// Legality, validator ⟺ simulator agreement, per-subinterval packing
/// capacity, and (for final/optimal schedules) work conservation.
fn check_schedule(
    inst: &Instance,
    label: &str,
    schedule: &Schedule,
    timeline: &Timeline,
    conserve_work: bool,
    out: &mut Vec<OracleViolation>,
) {
    let report = validate_schedule(schedule, &inst.tasks);
    let legal = report.is_legal();
    if !legal {
        let msgs: Vec<String> = report
            .violations
            .iter()
            .take(3)
            .map(|v| v.to_string())
            .collect();
        out.push(OracleViolation {
            class: OracleClass::ValidatorSim,
            message: format!("{label}: illegal schedule: {}", msgs.join("; ")),
        });
    }
    if let Some(sim) = simulate_checked(label, schedule, &inst.tasks, &inst.power, out) {
        if sim.is_clean() != legal {
            out.push(OracleViolation {
                class: OracleClass::ValidatorSim,
                message: format!(
                    "{label}: validator says legal={legal} but simulator says clean={} \
                     (conflicts={}, misses={:?})",
                    sim.is_clean(),
                    sim.conflicts.len(),
                    sim.deadline_misses
                ),
            });
        }
    }
    check_packing(inst, label, schedule, timeline, out);
    if conserve_work {
        for (id, t) in inst.tasks.iter() {
            let delivered = schedule.work_of(id);
            if (delivered - t.wcec).abs() > WORK_TOL * (1.0 + t.wcec) {
                out.push(OracleViolation {
                    class: OracleClass::WorkConservation,
                    message: format!(
                        "{label}: task {id} delivered {delivered} work, requirement {}",
                        t.wcec
                    ),
                });
            }
        }
    }
}

/// Per subinterval `[t_j, t_{j+1}]`: total occupied core time is at most
/// `m·Δ_j`, and no single task occupies more than `Δ_j` (the McNaughton
/// precondition that rules out self-overlap).
fn check_packing(
    inst: &Instance,
    label: &str,
    schedule: &Schedule,
    timeline: &Timeline,
    out: &mut Vec<OracleViolation>,
) {
    for sub in timeline.subintervals() {
        let delta = sub.delta();
        let tol = WORK_TOL * (1.0 + delta) * inst.cores as f64;
        let mut total = 0.0;
        let mut per_task = vec![0.0_f64; inst.tasks.len()];
        for seg in schedule.segments() {
            let ov = seg.interval.overlap_len(&sub.interval);
            total += ov;
            if seg.task < per_task.len() {
                per_task[seg.task] += ov;
            }
        }
        if total > inst.cores as f64 * delta + tol {
            out.push(OracleViolation {
                class: OracleClass::Packing,
                message: format!(
                    "{label}: subinterval {} [{}, {}] packs {total} core time > m*delta = {}",
                    sub.index,
                    sub.interval.start,
                    sub.interval.end,
                    inst.cores as f64 * delta
                ),
            });
        }
        for (task, &occ) in per_task.iter().enumerate() {
            if occ > delta + tol {
                out.push(OracleViolation {
                    class: OracleClass::Packing,
                    message: format!(
                        "{label}: task {task} occupies {occ} inside subinterval {} of length {delta}",
                        sub.index
                    ),
                });
            }
        }
    }
}

/// Discrete-mode differential checks on the DER final schedule `S^F2`:
///
/// * `quantize_schedule` under both policies must agree on feasibility
///   (both ask "is there a level ≥ f?" — only their choice differs);
/// * the miss set must equal the set of tasks with a segment frequency
///   (tolerantly) above the top level;
/// * `two_level_assignment` must agree with `quantize_up` about which
///   tasks exceed the table (the `pick_level == None` path);
/// * the requantized schedule must stay collision-free and
///   window-contained, and when feasible must simulate clean under the
///   table.
fn check_discrete(inst: &Instance, der: &HeuristicOutcome, out: &mut Vec<OracleViolation>) {
    let table = oracle_table(&inst.power);
    let top = table.max_freq();
    let f2 = &der.schedule;

    let nu = match run_caught("quantize_schedule(NextUp)", out, || {
        quantize_schedule(f2, &table, QuantizePolicy::NextUp)
    }) {
        Some(v) => v,
        None => return,
    };
    let be = match run_caught("quantize_schedule(BestEfficiency)", out, || {
        quantize_schedule(f2, &table, QuantizePolicy::BestEfficiency)
    }) {
        Some(v) => v,
        None => return,
    };
    if nu.misses != be.misses {
        out.push(OracleViolation {
            class: OracleClass::Discrete,
            message: format!(
                "policy disagreement: NextUp misses {:?} vs BestEfficiency misses {:?}",
                nu.misses, be.misses
            ),
        });
    }
    // Independent recomputation of the miss set from raw segment
    // frequencies, using the shared tolerant comparison.
    let mut expect: Vec<usize> = f2
        .segments()
        .iter()
        .filter(|s| !esched_types::time::approx_le(s.freq, top))
        .map(|s| s.task)
        .collect();
    expect.sort_unstable();
    expect.dedup();
    if nu.misses != expect {
        out.push(OracleViolation {
            class: OracleClass::Discrete,
            message: format!(
                "NextUp misses {:?} but segment frequencies above top level {top} belong to {:?}",
                nu.misses, expect
            ),
        });
    }

    // Per-task agreement between the two-level emulation and quantize_up.
    let works: Vec<f64> = inst.tasks.tasks().iter().map(|t| t.wcec).collect();
    if let Some(tl_out) = run_caught("two_level_assignment", out, || {
        two_level_assignment(&der.assignment, &works, &table)
    }) {
        let mut expect_tl: Vec<usize> = der
            .assignment
            .freq
            .iter()
            .enumerate()
            .filter(|(_, &f)| table.quantize_up(f).is_none())
            .map(|(i, _)| i)
            .collect();
        expect_tl.sort_unstable();
        if tl_out.misses != expect_tl {
            out.push(OracleViolation {
                class: OracleClass::Discrete,
                message: format!(
                    "two_level_assignment misses {:?} disagree with quantize_up misses {:?}",
                    tl_out.misses, expect_tl
                ),
            });
        }
    }

    // The requantized schedule stays structurally legal; fully legal and
    // clean-simulating when quantization reported feasibility.
    if let Some(req) = run_caught("requantize_schedule", out, || {
        requantize_schedule(f2, &table, QuantizePolicy::NextUp)
    }) {
        let report = validate_schedule(&req, &inst.tasks);
        let structural: Vec<&esched_types::validate::Violation> = report
            .violations
            .iter()
            .filter(|v| !matches!(v, esched_types::validate::Violation::Underserved { .. }))
            .collect();
        if !structural.is_empty() {
            out.push(OracleViolation {
                class: OracleClass::Discrete,
                message: format!(
                    "requantized S^F2 lost structural legality: {}",
                    structural
                        .iter()
                        .take(3)
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join("; ")
                ),
            });
        }
        if nu.feasible {
            if !report.is_legal() {
                out.push(OracleViolation {
                    class: OracleClass::Discrete,
                    message:
                        "quantize_schedule reported feasible but requantized schedule is illegal"
                            .to_string(),
                });
            }
            if let Some(sim) = simulate_checked("requantized", &req, &inst.tasks, &table, out) {
                if !sim.is_clean() {
                    out.push(OracleViolation {
                        class: OracleClass::Discrete,
                        message: format!(
                            "quantize_schedule reported feasible but requantized simulation \
                             has {} conflicts / misses {:?}",
                            sim.conflicts.len(),
                            sim.deadline_misses
                        ),
                    });
                }
            }
        }
    }
}

/// Convenience: true when `check_instance` reports nothing.
pub fn instance_passes(inst: &Instance) -> bool {
    check_instance(inst).is_empty()
}

/// Helper for tests and the shrinker: the violation classes present.
pub fn violation_classes(violations: &[OracleViolation]) -> Vec<OracleClass> {
    let mut classes: Vec<OracleClass> = violations.iter().map(|v| v.class).collect();
    classes.dedup();
    classes
}

#[cfg(test)]
mod tests {
    use super::*;
    use esched_types::{PolynomialPower, TaskSet};

    #[test]
    fn paper_vd_instance_passes_all_oracles() {
        let inst = Instance::new(
            TaskSet::from_triples(&[
                (0.0, 10.0, 8.0),
                (2.0, 18.0, 14.0),
                (4.0, 16.0, 8.0),
                (6.0, 14.0, 4.0),
                (8.0, 20.0, 10.0),
                (12.0, 22.0, 6.0),
            ]),
            4,
            PolynomialPower::cubic(),
        );
        let v = check_instance(&inst);
        assert!(v.is_empty(), "violations: {v:?}");
    }

    #[test]
    fn intro_instance_with_static_power_passes() {
        let inst = Instance::new(
            TaskSet::from_triples(&[(0.0, 12.0, 4.0), (2.0, 10.0, 2.0), (4.0, 8.0, 4.0)]),
            2,
            PolynomialPower::paper(3.0, 0.01),
        );
        let v = check_instance(&inst);
        assert!(v.is_empty(), "violations: {v:?}");
    }

    #[test]
    fn oracle_class_names_round_trip() {
        for c in [
            OracleClass::Panic,
            OracleClass::EnergyOrdering,
            OracleClass::ValidatorSim,
            OracleClass::Packing,
            OracleClass::WorkConservation,
            OracleClass::Discrete,
            OracleClass::Allocation,
            OracleClass::Online,
        ] {
            assert_eq!(OracleClass::from_name(c.name()), Some(c));
        }
        assert_eq!(OracleClass::from_name("nope"), None);
    }

    #[test]
    fn oracle_table_is_valid_for_any_power() {
        for p in [
            PolynomialPower::cubic(),
            PolynomialPower::paper(2.0, 0.0),
            PolynomialPower::paper(3.0, 5.0),
        ] {
            let t = oracle_table(&p);
            assert_eq!(t.levels().len(), 5);
            assert_eq!(t.max_freq(), 1.0);
        }
    }
}
