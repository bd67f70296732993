//! # esched-core
//!
//! The scheduling algorithms of Li & Wu, *"Energy-Aware Scheduling for
//! Aperiodic Tasks on Multi-core Processors"* (ICPP 2014):
//!
//! * [`ideal`] — the unlimited-core ideal case `S^O` (Eq. 19),
//! * [`allocation`] — available-time allocation: light subintervals,
//!   the evenly allocating rule, and Algorithm 2 (DER-based),
//! * [`packing`] — Algorithm 1 (wrap-around collision-free packing),
//! * [`refine`] — intermediate/final schedule construction and the final
//!   frequency setting (Eq. 22-23),
//! * [`even`] / [`der`] — the two methods end-to-end (`S^F1`, `S^F2`),
//! * [`optimal`] — the convex-programming optimum `E^OPT` with schedule
//!   extraction (Theorem 1),
//! * [`yds`] — the YDS optimal uniprocessor baseline,
//! * [`discrete`] — practical discrete-frequency execution and
//!   deadline-miss accounting (Section VI.C),
//! * [`core_count`] — the Section VI.D core-count selection sweep,
//! * [`replan`] — non-clairvoyant event-driven replanning (aperiodic
//!   arrivals not known in advance),
//! * [`nec`] — the Normalized Energy Consumption point every experiment
//!   reports, and its per-setting mean and spread,
//! * [`Pool`] — the std-only work-stealing pool of
//!   [`esched_obs::pool`], re-exported; used for batch jobs and for
//!   intra-instance fan-out of the DER allocator.
//!
//! The pipeline is instrumented with `esched-obs` tracing spans:
//! `der_schedule`/`even_schedule` at INFO, and `timeline_build`,
//! `ideal_schedule`, `allocate_even`/`allocate_der`,
//! `refine_frequencies`, `reclaim_der`, and `quantize_schedule` at
//! DEBUG. All of it is off (one atomic load per call site) unless a
//! subscriber is installed via `esched_obs::trace::init_from_env`
//! (`ESCHED_LOG=debug`, or per-crate like `esched_core=debug,info`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod baselines;
pub mod core_count;
pub mod der;
pub mod discrete;
pub mod even;
pub mod ideal;
pub mod nec;
pub mod optimal;
pub mod packing;
pub mod quality;
pub mod reclaim;
pub mod refine;
pub mod replan;
pub mod scratch;
pub mod yds;

pub use allocation::{
    allocate, allocate_even, allocate_work_proportional, reallocate_der_patched,
    repair_der_in_place, AllocRequest, AvailMatrix, DerRepairStats, DerStrategy,
    DEFAULT_PARALLEL_THRESHOLD,
};
pub use baselines::{partitioned_yds, uniform_frequency, BaselineOutcome};
pub use core_count::{select_core_count, CoreCountChoice, Method};
pub use der::{der_schedule, der_schedule_with};
pub use discrete::{
    best_discrete_split, quantize_schedule, requantize_schedule, two_level_assignment,
    two_level_split, DiscreteOutcome, QuantizePolicy, TwoLevelSplit,
};
pub use esched_obs::pool::{Pool, PoolError};
pub use even::{even_schedule, even_schedule_with};
pub use ideal::{ideal_schedule, IdealSolution};
pub use nec::{mean_nec, std_nec, NecPoint};
pub use optimal::{optimal_energy, optimal_energy_in_pool, optimal_energy_with, OptimalSolution};
pub use packing::{pack_subinterval, PackError, PackItem};
pub use quality::{analyze, ScheduleQuality, TaskQuality};
pub use reclaim::{no_reclaim_energy, reclaim_der, ReclaimOutcome};
pub use refine::{
    assign_final, build_outcome, build_outcome_with, final_assignment, final_schedule,
    final_schedule_with, intermediate_schedule, intermediate_schedule_with, refine_with,
    HeuristicOutcome, Refined,
};
pub use replan::{replan_der, ReplanOutcome};
pub use scratch::Scratch;
pub use yds::{yds_schedule, YdsSolution};
