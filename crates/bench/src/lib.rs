//! The `benchjson` micro-timing harness and its shared fixtures.
//!
//! [`harness`] times a curated, fixed-iteration suite of the pipeline's
//! primitives, heuristics and solvers. This is where the paper's
//! "lightweight, suitable for real-time systems" claim becomes a
//! measured number: the heuristics must sit orders of magnitude below
//! the convex solver. The end-to-end benchmark is the separate
//! `esched-perf` package under `src/bin/esched-perf`.

use esched_types::TaskSet;
use esched_workload::{GeneratorConfig, WorkloadGenerator};

pub mod harness;

/// A deterministic paper-style task set with `n` tasks.
pub fn paper_tasks(n: usize, seed: u64) -> TaskSet {
    WorkloadGenerator::new(GeneratorConfig::paper_default().with_tasks(n), seed).generate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        assert_eq!(paper_tasks(10, 1), paper_tasks(10, 1));
    }
}
