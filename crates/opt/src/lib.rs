//! # esched-opt
//!
//! Convex-optimization substrate for the `esched` workspace.
//!
//! The paper proves (Theorem 1) that energy-minimal scheduling of
//! aperiodic tasks with static power is a convex program solvable in
//! polynomial time, and uses that optimum — computed by an interior-point
//! solver in the authors' setup — purely as the normalization baseline
//! `E^OPT` for every experiment. This crate supplies that baseline from
//! scratch:
//!
//! * [`energy_program`] — the reformulated program (variables `x_{i,j}`,
//!   blockwise capped-simplex feasible set, objective/gradient oracle),
//! * [`projection`] — exact Euclidean projection and linear-minimization
//!   oracle for one capped-simplex block,
//! * [`gradient`] / [`fista`] / [`frank_wolfe`] — three independent
//!   first-order solvers (cross-checked in tests and ablation benches),
//! * [`barrier`] — a structure-exploiting primal log-barrier interior
//!   point method (the solver the paper names), with [`linalg`] as its
//!   dense-solve substrate,
//! * [`block_descent`] — Gauss–Seidel over subintervals with exact
//!   closed-form waterfilling block solves,
//! * [`admm`] — consensus ADMM with exact per-task proximal solves fanned
//!   across the shared worker pool: the decomposed, parallel solver for
//!   large instances, and the only one with dual (price) state,
//! * [`kkt`] — solver-independent optimality certification,
//! * [`scalar`] — bisection / safeguarded Newton / golden section,
//! * [`least_squares`] — the `p(f) = γf^α + p₀` power-curve fit
//!   (Section VI.C),
//! * [`flow`] — Dinic max-flow and the exact flow-based schedulability
//!   test underlying the related-work algorithms (refs \[2\] and \[4\]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admm;
pub mod barrier;
pub mod block_descent;
pub mod energy_program;
pub mod fista;
pub mod flow;
pub mod frank_wolfe;
pub mod gradient;
pub mod kkt;
pub mod least_squares;
pub mod linalg;
pub mod projection;
pub mod scalar;
pub mod solver;

pub use admm::{solve_admm, solve_admm_in};
pub use barrier::solve_barrier;
pub use block_descent::{solve_block_descent, solve_block_descent_from};
pub use energy_program::EnergyProgram;
pub use fista::solve_fista;
pub use flow::{feasible_at_frequency, min_frequency_by_flow, Dinic};
pub use frank_wolfe::solve_frank_wolfe;
pub use gradient::solve_pgd;
pub use kkt::{kkt_report, price_certificate, subinterval_prices, KktReport};
pub use least_squares::{fit_power_curve, PowerFit};
pub use projection::{lmo_capped_simplex, project_capped_simplex};
pub use solver::{IterSample, SolveOptions, SolveResult, SolverKind, SolverTelemetry};
