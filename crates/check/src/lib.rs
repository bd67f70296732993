//! # esched-check
//!
//! A dependency-free property-based **differential correctness harness**
//! for the scheduling pipeline. The paper supplies unusually strong free
//! oracles — `E^OPT ≤ E(S)` for every legal schedule `S` (Theorem 1),
//! `E^F ≤ E^I` per method, McNaughton packing legality (Algorithm 1), and
//! the independence of the analytic layer (`esched-core`) from the
//! discrete-event simulator (`esched-sim`) — and this crate turns them
//! into a standing adversarial test subsystem with three layers:
//!
//! * [`gen`] — an **adversarial generator** biased toward the pipeline's
//!   hard regions: duplicate and near-duplicate release/deadline times,
//!   zero-slack windows (`C_i ≈ D_i − R_i`), subinterval lengths near
//!   `EPS`/`WORK_TOL`, overlap counts `n_j` at and around the core count
//!   `m`, high static power (critical-frequency-dominated instances), and
//!   single-task / single-core degenerates;
//! * [`oracles`] — run on every generated instance: energy ordering
//!   (`E^OPT − ε ≤ E(S)` for `S ∈ {S^I1, S^F1, S^I2, S^F2}` and
//!   `E^F ≤ E^I`), `validate_schedule` ⟺ clean-simulation agreement,
//!   `simulate` ≡ the traced event loop bit for bit,
//!   per-subinterval packing capacity (`Σ busy ≤ m·Δ_j + tol`), work
//!   conservation (`Σ segment·freq = C_i`), quantized-schedule
//!   feasibility agreement under the discrete model, and — because the
//!   whole pipeline runs under `catch_unwind` — any panic anywhere;
//! * [`shrink`](mod@shrink) — an **auto-shrinker** that minimizes a failing instance
//!   (drop tasks, reduce cores, simplify the power model, round times,
//!   shrink requirements) while preserving the failing oracle class, so
//!   the repro committed to `corpus/` is a minimal one;
//! * [`online`] — an **online-vs-offline differential oracle**
//!   (`--online` mode): random arrival/completion/shift streams replayed
//!   through the incremental `OnlineEngine`, every repaired plan
//!   re-verified against the validator⟺simulator battery, and the final
//!   online outcome required to be byte-identical to a from-scratch
//!   offline run; shrunk scripts commit under `corpus/online/`.
//! * [`scale`] — a **large-n allocator battery** (`--scale N` mode):
//!   grid-snapped `WorkloadSpec::large_n` instances up to `N` tasks run
//!   through the vectorized, pool-parallel allocator and compared
//!   cell-by-cell against the round-based reference strategy, plus
//!   reference-free capacity invariants.
//!
//! The binary (`cargo run -p esched-check -- --iters 1000 --seed 42`)
//! drives the loop, writes shrunk repros to [`corpus`] as JSON, and exits
//! non-zero on any violation; `tests/corpus_replay.rs` replays the
//! committed corpus as a permanent regression suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod gen;
pub mod instance;
pub mod online;
pub mod oracles;
pub mod scale;
pub mod shrink;

pub use corpus::{load_corpus_dir, write_corpus};
pub use gen::gen_instance;
pub use instance::Instance;
pub use online::{
    check_online, gen_online, load_online_corpus_dir, shrink_online, write_online_corpus,
    OnlineScript,
};
pub use oracles::{check_instance, OracleClass, OracleViolation};
pub use scale::{run_scale, ScaleReport};
pub use shrink::shrink;
