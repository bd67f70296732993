//! The four workloads. Each builds its inputs from the seed (set-up),
//! measures its operations with tracing off ([`Workload::run`]), and
//! replays them through the traced mirror next to the engine
//! ([`Workload::trace`]).

pub mod certify;
pub mod plan;
pub mod replan;
pub mod sweep;

use crate::ledger::Recorder;
use esched_obs::rng::ChaCha8;
use std::time::Instant;

/// Messages kept per run; further failures are only counted.
const KEPT_FAILURES: usize = 8;

/// Operations attempted and the checks they failed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Failed checks.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count a failed check.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(message);
        }
    }

    /// Count a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(message());
        }
    }

    /// Fold another phase's tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = KEPT_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}

/// What an untraced run measured.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Operations and failed checks.
    pub tally: Tally,
    /// Latency of every operation, in ms.
    pub latencies_ms: Vec<f64>,
    /// Operations per second the workload sustains.
    pub throughput_per_s: f64,
    /// Mean `E(S^F2) / E(S^O)` over the workload's fixed input set.
    pub energy_over_ideal: f64,
    /// FNV-1a digest of the canonical outcome JSON of the fixed input set.
    pub digest: String,
    /// Per-layer values seen without tracing, by per-layer metric name.
    pub observed: Vec<(&'static str, f64)>,
}

/// What a traced replay measured, beyond the recorder's spans.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Operations and failed checks (a mirror that diverges fails).
    pub tally: Tally,
    /// The untraced engine's time for each replayed operation, in ms.
    pub untraced_ms: Vec<f64>,
}

impl Traced {
    /// Run operation `i` untraced and through the traced mirror, timing
    /// the untraced one. The order alternates, so that neither side always
    /// finds the caches and the allocator warmed by the other.
    pub fn pair<A, B>(
        &mut self,
        i: usize,
        untraced: impl FnOnce() -> A,
        traced: impl FnOnce() -> B,
    ) -> (A, B) {
        self.tally.attempted += 1;
        let mut traced = Some(traced);
        let first = if i % 2 == 1 {
            traced.take().map(|f| f())
        } else {
            None
        };
        let t = Instant::now();
        let a = untraced();
        self.untraced_ms.push(ms_since(t));
        let b = first
            .or_else(|| traced.take().map(|f| f()))
            .expect("the traced side runs exactly once");
        (a, b)
    }
}

/// One workload.
pub trait Workload {
    /// Everything generated from the seed before measuring.
    type Inputs;

    /// The latency percentile reported as `latency_tail_ms`, chosen from
    /// how many operations a default run completes.
    const TAIL_PERCENTILE: f64;

    /// Generate the inputs for a run of `seconds` and warm up.
    fn setup(seed: u64, seconds: f64, workers: usize) -> Self::Inputs;

    /// Measure for about `seconds`, tracing off.
    fn run(inputs: &Self::Inputs, seconds: f64) -> Measured;

    /// Replay operations for about `seconds`, each through the engine
    /// and through the traced mirror, and compare their results.
    fn trace(inputs: &Self::Inputs, seconds: f64, rec: &mut Recorder) -> Traced;
}

/// A generator seed for part `part` of a workload's inputs, derived from
/// the run's seed so that every part is reproducible on its own.
pub fn derive_seed(seed: u64, part: u64) -> u64 {
    let mut rng = ChaCha8::seed_from_u64(seed ^ part.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    rng.next_u64()
}

/// Run `op(0), op(1), …` until `seconds` have passed and at least
/// `min_ops` have run; returns how many ran.
pub fn closed_loop(seconds: f64, min_ops: usize, mut op: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut i = 0;
    while i < min_ops || start.elapsed().as_secs_f64() < seconds {
        op(i);
        i += 1;
    }
    i
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_keeps_counting_past_the_kept_messages() {
        let mut a = Tally::default();
        for i in 0..10 {
            a.fail(format!("f{i}"));
        }
        assert_eq!((a.failed, a.failures.len()), (10, KEPT_FAILURES));
        let mut b = Tally {
            attempted: 3,
            ..Tally::default()
        };
        b.check(false, || "x".to_string());
        b.check(true, || unreachable!());
        b.absorb(a);
        assert_eq!((b.attempted, b.failed), (3, 11));
    }

    #[test]
    fn closed_loop_runs_the_minimum_then_stops_on_time() {
        let mut seen = Vec::new();
        assert_eq!(closed_loop(0.0, 3, |i| seen.push(i)), 3);
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
    }
}
