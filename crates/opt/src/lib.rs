//! # esched-opt
//!
//! Convex-optimization substrate for the `esched` workspace.
//!
//! The paper proves (Theorem 1) that energy-minimal scheduling of
//! aperiodic tasks with static power is a convex program solvable in
//! polynomial time, and uses that optimum — computed by an interior-point
//! solver (CVX) in the authors' setup — purely as the normalization
//! baseline `E^OPT` for every experiment. This crate supplies that
//! baseline from scratch: exactly, by Fujishige's decomposition, and with
//! three iterative solvers — PGD (the default), block descent (the
//! reference) and ADMM (the parallel one) — each certified by
//! [`kkt_report`]:
//!
//! * [`energy_program`] — the reformulated program (variables `x_{i,j}`,
//!   blockwise capped-simplex feasible set, objective/gradient oracle),
//! * [`projection`] — the one exact (weighted) projection onto a
//!   capped-simplex block, a sorted breakpoint sweep shared by the
//!   program's projection and ADMM's z-step,
//! * [`exact`] — the exact optimum: Fujishige's decomposition algorithm,
//!   one maximum flow per split, which also gives the minimum uniform
//!   frequency,
//! * [`gradient`] — projected gradient descent with backtracking, the
//!   default solver,
//! * [`block_descent`] — Gauss–Seidel over subintervals with exact
//!   closed-form waterfilling block solves, the independent reference
//!   the other two solvers are cross-checked against,
//! * [`admm`] — consensus ADMM with exact per-task proximal solves fanned
//!   across the shared worker pool: the decomposed, parallel solver for
//!   large instances, and the only one with dual (price) state,
//! * [`kkt`] — solver-independent optimality certification,
//! * [`scalar`] — bisection / safeguarded Newton / golden section,
//! * [`least_squares`] — the `p(f) = γf^α + p₀` power-curve fit
//!   (Section VI.C),
//! * [`flow`] — Dinic max-flow and the exact flow-based schedulability
//!   test underlying the related-work algorithms (refs \[2\] and \[4\]) and
//!   the exact solver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admm;
pub mod block_descent;
pub mod energy_program;
pub mod exact;
pub mod flow;
pub mod gradient;
pub mod kkt;
pub mod least_squares;
pub mod projection;
pub mod scalar;
pub mod solver;

pub use admm::{solve_admm, solve_admm_in};
pub use block_descent::{solve_block_descent, solve_block_descent_from};
pub use energy_program::EnergyProgram;
pub use exact::{min_uniform_frequency, solve_exact};
pub use flow::{feasible_at_frequency, Dinic};
pub use gradient::solve_pgd;
pub use kkt::{kkt_report, price_certificate, subinterval_prices, KktReport};
pub use least_squares::{fit_power_curve, PowerFit};
pub use projection::project_capped_simplex;
pub use solver::{IterSample, SolveOptions, SolveResult, SolverKind, SolverTelemetry};
