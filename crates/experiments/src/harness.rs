//! Monte-Carlo driver shared by every experiment.
//!
//! Each figure point is the mean of `trials` independent task sets
//! (the paper uses 100). Trials are submitted as one batch to the
//! `esched-engine` work-stealing pool; the per-trial seed is
//! `base_seed + trial_index` and the engine indexes results by
//! submission order, so results are bit-identical regardless of worker
//! count or interleaving.
//!
//! The NEC sweep experiments (fig6–fig10) are all instances of one
//! generic [`ExperimentSpec`]: a list of [`SweepPoint`]s (platform +
//! workload distribution per x value) plus presentation labels. Each fig
//! module now only declares its spec; the run/report plumbing lives here
//! once.

use crate::report::{nec_csv_with_std, nec_table, write_artifact};
use esched_core::{mean_nec, NecPoint};
use esched_engine::{Engine, EngineConfig, ScheduleRequest};
use esched_obs::{RunReport, TrialRecord, Value};
use esched_opt::{SolveOptions, SolverKind};
use esched_types::PolynomialPower;
use esched_workload::{GeneratorConfig, WorkloadGenerator};
use std::path::Path;

/// Order-preserving parallel map over `0..n` on scoped threads. Static
/// chunking is fine here: trials within an experiment have near-uniform
/// cost.
pub fn parallel_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n.max(1));
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let mut results: Vec<Option<T>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    let chunk = n.div_ceil(threads);
    let f = &f;
    std::thread::scope(|s| {
        for (c, slots) in results.chunks_mut(chunk).enumerate() {
            s.spawn(move || {
                for (j, out) in slots.iter_mut().enumerate() {
                    *out = Some(f(c * chunk + j));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("worker filled every slot"))
        .collect()
}

/// One experiment setting: a platform plus a workload distribution.
#[derive(Debug, Clone, Copy)]
pub struct TrialSpec {
    /// Number of cores.
    pub cores: usize,
    /// Platform power model.
    pub power: PolynomialPower,
    /// Workload distribution.
    pub config: GeneratorConfig,
    /// Monte-Carlo repetitions.
    pub trials: usize,
    /// Base RNG seed; trial `k` uses `base_seed + k`.
    pub base_seed: u64,
}

/// Build the engine requests for a spec's trials: trial `k` gets the task
/// set generated from `base_seed + k` and a full-battery pipeline (DER
/// schedule, fast `E^OPT` solve for NEC, optional sim cross-check). Each
/// solve starts at the exact optimum, which PGD certifies at once.
fn trial_requests(spec: &TrialSpec, sim_verify: bool) -> Vec<ScheduleRequest> {
    let config = EngineConfig::new()
        .with_solver(SolverKind::ProjectedGradient)
        .with_solve_options(SolveOptions::fast())
        .with_sim_verify(sim_verify);
    (0..spec.trials)
        .map(|k| {
            let mut gen = WorkloadGenerator::new(spec.config, spec.base_seed + k as u64);
            ScheduleRequest {
                tasks: gen.generate(),
                cores: spec.cores,
                power: spec.power,
                config: config.clone(),
            }
        })
        .collect()
}

/// Mean NEC over the spec's trials (engine batch).
pub fn mean_nec_for(spec: &TrialSpec) -> NecPoint {
    nec_stats_for(spec).0
}

/// `(mean, sample std)` of the NEC over the spec's trials (engine batch).
pub fn nec_stats_for(spec: &TrialSpec) -> (NecPoint, NecPoint) {
    let outcomes = Engine::new().run_batch(&trial_requests(spec, false));
    let points: Vec<NecPoint> = outcomes
        .into_iter()
        .map(|r| {
            r.expect("trial pipeline panicked")
                .nec
                .expect("solver configured")
        })
        .collect();
    (mean_nec(&points), esched_core::std_nec(&points))
}

/// [`nec_stats_for`] that also appends one [`TrialRecord`] per trial to
/// `report`: convex-solver telemetry (iterations, gap evaluations, wall
/// time, certified gap), a clean-sim verdict from simulating the `S^F2`
/// schedule, and the trial's F2 NEC. `point` labels which sweep setting
/// the trials belong to (e.g. `"p0=0.10"`).
pub fn nec_stats_reported(
    spec: &TrialSpec,
    point: &str,
    report: &mut RunReport,
) -> (NecPoint, NecPoint) {
    let outcomes = Engine::new().run_batch(&trial_requests(spec, true));
    let mut points: Vec<NecPoint> = Vec::with_capacity(outcomes.len());
    let base = report.trials.len() as u64;
    for (k, result) in outcomes.into_iter().enumerate() {
        let outcome = result.expect("trial pipeline panicked");
        let nec = outcome.nec.expect("solver configured");
        let opt = outcome.opt.as_ref().expect("solver configured");
        let t = opt.telemetry.expect("telemetry enabled by default");
        let seed = spec.base_seed + k as u64;
        let mut rec = TrialRecord::new(base + k as u64, seed);
        rec.solver_iters = t.iters as u64;
        rec.gap_evals = t.gap_evals as u64;
        rec.converged = t.converged;
        rec.final_gap = t.final_gap;
        rec.solve_wall_s = t.wall_s;
        rec.sim_clean = outcome.sim.map(|s| s.clean);
        rec.extra
            .push(("point".to_string(), Value::Str(point.to_string())));
        rec.extra.push(("nec_f2".to_string(), Value::Num(nec.f2)));
        report.push(rec);
        points.push(nec);
    }
    (mean_nec(&points), esched_core::std_nec(&points))
}

/// One x value of a sweep experiment: its labels plus the platform and
/// workload distribution to draw trials from.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// x-axis label in tables and CSVs (e.g. `"0.10"`, `"[0.3,1]"`).
    pub x: String,
    /// The `point` tag written into each trial record (e.g. `"p0=0.10"`).
    pub tag: String,
    /// Number of cores.
    pub cores: usize,
    /// Platform power model.
    pub power: PolynomialPower,
    /// Workload distribution.
    pub config: GeneratorConfig,
}

/// A whole NEC sweep experiment (one figure): presentation labels plus
/// the sweep points. The run/report driver shared by fig6–fig10.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Short name: the [`RunReport`] name and the CSV file stem
    /// (e.g. `"fig6"`).
    pub name: &'static str,
    /// x column label in the printed table.
    pub table_x: &'static str,
    /// x column label in the CSV (usually equals `table_x`).
    pub csv_x: &'static str,
    /// Title up to (but excluding) the trailing `", {trials} trials)"`.
    pub title: &'static str,
    /// The swept settings, in x order.
    pub points: Vec<SweepPoint>,
}

impl ExperimentSpec {
    /// Run every point's trials through the engine; returns
    /// `(x labels, mean rows, std rows, per-trial report)`.
    pub fn run_stats_reported(
        &self,
        trials: usize,
        base_seed: u64,
    ) -> (Vec<String>, Vec<NecPoint>, Vec<NecPoint>, RunReport) {
        let mut report = RunReport::new(self.name)
            .with_meta("trials_per_point", Value::Num(trials as f64))
            .with_meta("base_seed", Value::Num(base_seed as f64));
        let mut xs = Vec::new();
        let mut rows = Vec::new();
        let mut stds = Vec::new();
        for point in &self.points {
            let spec = TrialSpec {
                cores: point.cores,
                power: point.power,
                config: point.config,
                trials,
                base_seed,
            };
            xs.push(point.x.clone());
            let (mean, std) = nec_stats_reported(&spec, &point.tag, &mut report);
            rows.push(mean);
            stds.push(std);
        }
        (xs, rows, stds, report)
    }

    /// Run the sweep; returns `(x labels, mean rows, std rows)`.
    pub fn run_stats(
        &self,
        trials: usize,
        base_seed: u64,
    ) -> (Vec<String>, Vec<NecPoint>, Vec<NecPoint>) {
        let (xs, rows, stds, _) = self.run_stats_reported(trials, base_seed);
        (xs, rows, stds)
    }

    /// Run the sweep; returns `(x labels, mean rows)`.
    pub fn run(&self, trials: usize, base_seed: u64) -> (Vec<String>, Vec<NecPoint>) {
        let (xs, rows, _) = self.run_stats(trials, base_seed);
        (xs, rows)
    }

    /// Run, render the table, and write `<name>.csv` plus the run report
    /// to `outdir`.
    pub fn run_and_report(&self, trials: usize, base_seed: u64, outdir: &Path) -> String {
        let (xs, rows, stds, report) = self.run_stats_reported(trials, base_seed);
        let table = nec_table(self.table_x, &xs, &rows);
        let _ = write_artifact(
            outdir,
            &format!("{}.csv", self.name),
            &nec_csv_with_std(self.csv_x, &xs, &rows, &stds),
        );
        let _ = report.write_to_dir(outdir);
        format!("{}, {trials} trials)\n{table}", self.title)
    }
}

/// Run a closure once per trial in parallel and collect the results —
/// for experiments that measure more than NEC (e.g. deadline misses).
pub fn per_trial<T: Send>(
    config: GeneratorConfig,
    trials: usize,
    base_seed: u64,
    f: impl Fn(u64, esched_types::TaskSet) -> T + Sync,
) -> Vec<T> {
    parallel_map(trials, |k| {
        let seed = base_seed + k as u64;
        let mut gen = WorkloadGenerator::new(config, seed);
        let tasks = gen.generate();
        f(seed, tasks)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_nec_is_deterministic_and_sane() {
        let spec = TrialSpec {
            cores: 4,
            power: PolynomialPower::paper(3.0, 0.1),
            config: GeneratorConfig::paper_default().with_tasks(8),
            trials: 4,
            base_seed: 99,
        };
        let a = mean_nec_for(&spec);
        let b = mean_nec_for(&spec);
        assert_eq!(a, b);
        // NECs of heuristics ≥ ~1.
        assert!(a.f2 >= 0.999, "f2 = {}", a.f2);
        assert!(a.f1 >= 0.999, "f1 = {}", a.f1);
        assert!(a.i1 >= a.f1 - 1e-9);
        assert!(a.i2 >= a.f2 - 1e-9);
    }

    #[test]
    fn per_trial_passes_distinct_seeds() {
        let seeds = per_trial(
            GeneratorConfig::paper_default().with_tasks(3),
            5,
            1000,
            |seed, _tasks| seed,
        );
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1000, 1001, 1002, 1003, 1004]);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(37, |i| i * 2);
        assert_eq!(out, (0..37).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(parallel_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, |i| i + 5), vec![5]);
    }
}
