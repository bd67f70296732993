//! Deterministic benchmark harness behind the `benchjson` binary.
//!
//! This module runs a small curated suite with *fixed* iteration counts
//! (adaptive sample counts would make runs incomparable), records
//! wall-time percentiles plus a metrics-registry delta per entry, and
//! serializes everything into the stable `BENCH_*.json` schema that
//! `benchjson --compare` diffs.

use crate::paper_tasks;
use esched_core::{
    allocate, der_schedule, even_schedule, ideal_schedule, optimal_energy, pack_subinterval,
    AllocRequest, DerStrategy, PackItem, Pool, DEFAULT_PARALLEL_THRESHOLD,
};
use esched_engine::{Engine, EngineConfig, OnlineEngine, OnlineEvent, ScheduleRequest};
use esched_obs::health::SloPolicy;
use esched_obs::json::Value;
use esched_obs::stats::Summary;
use esched_obs::{metrics, report};
use esched_opt::{solve_admm_in, solve_pgd, EnergyProgram, SolveOptions, SolverKind};
use esched_subinterval::Timeline;
use esched_types::{validate_schedule, PolynomialPower, Schedule};
use esched_workload::WorkloadSpec;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Version of the `BENCH_*.json` schema this harness writes.
pub const SCHEMA_VERSION: u64 = 1;

/// Default regression threshold for [`compare`]: a current p50 more than
/// 25% above the baseline p50 fails the gate.
pub const DEFAULT_THRESHOLD: f64 = 0.25;

/// Whether a regression on `name` fails the gate (vs. advisory only).
///
/// `micro/*` entries time single deterministic primitives with fixed
/// inputs, so their p50s are stable enough to fail CI on; `online/*`
/// entries are equally deterministic single-threaded work and guard the
/// incremental-replan latency claim, and `opt/admm/*` entries run a
/// fixed warm-chained sweep with deterministic task-chunking (the work
/// is a machine-independent iteration count, so even the 16k point is
/// stable enough to gate). Everything else (`opt/*` serial-solver
/// sweeps, `engine/*` pool timings, `scaling/*`, `ablation/*`) is
/// iteration-count- and scheduler-noise-prone and stays advisory — as
/// are the remaining large-n scaling entries (`…/16k`, `…/65k`,
/// `…/262k`), whose few-iteration runs on shared CI hardware are too
/// noisy to fail on.
pub fn gating(name: &str) -> bool {
    if name.starts_with("opt/admm/") {
        return true;
    }
    let large_n = name.ends_with("/16k") || name.ends_with("/65k") || name.ends_with("/262k");
    (name.starts_with("micro/") || name.starts_with("online/")) && !large_n
}

/// One curated benchmark: a name, a fixed iteration count, and the
/// closure to time.
pub struct CuratedBench {
    /// Stable entry name (`suite/case/size`), the join key for compares.
    pub name: &'static str,
    /// Timed iterations (fixed, so runs are comparable).
    pub iters: usize,
    /// The workload; timed once per iteration.
    pub run: Box<dyn FnMut()>,
}

/// Measured outcome of one curated entry.
pub struct BenchResult {
    /// Entry name.
    pub name: &'static str,
    /// Timed iterations.
    pub iters: usize,
    /// Per-iteration wall time in nanoseconds.
    pub wall_ns: Summary,
    /// Metrics-registry delta over the timed iterations.
    pub metrics: metrics::Snapshot,
}

/// The curated suite (micro-primitives, runtime scaling, solver
/// ablation, online replan) with fixed seeds and iteration counts. A
/// couple dozen entries, a few seconds total in release.
pub fn curated_suite() -> Vec<CuratedBench> {
    let power = PolynomialPower::paper(3.0, 0.1);
    let mut suite: Vec<CuratedBench> = Vec::new();

    // --- micro_primitives subset ---
    let tasks80 = paper_tasks(80, 3);
    let tl80 = Timeline::build(&tasks80);
    let ideal80 = ideal_schedule(&tasks80, &power);
    {
        let tasks = tasks80.clone();
        suite.push(CuratedBench {
            name: "micro/timeline_build/80",
            iters: 200,
            run: Box::new(move || {
                black_box(Timeline::build(&tasks));
            }),
        });
    }
    {
        let (tasks, tl, ideal) = (tasks80.clone(), tl80.clone(), ideal80.clone());
        suite.push(CuratedBench {
            name: "micro/der_alloc/80",
            iters: 200,
            run: Box::new(move || {
                black_box(allocate(AllocRequest::new(&tasks, &tl, 4, &ideal)));
            }),
        });
    }
    // Large-n micro entries: the asymptotic regime the water-filling
    // allocator and sweep-line build were written for. The paired
    // `der_alloc`/`der_alloc_reference` entries at 1024 are measured in
    // the same run so their p50 ratio is a same-machine speedup figure.
    for n in [512usize, 1024] {
        let tasks = paper_tasks(n, 3);
        let tl = Timeline::build(&tasks);
        let ideal = ideal_schedule(&tasks, &power);
        let iters = if n == 512 { 24 } else { 12 };
        {
            let (tasks, tl, ideal) = (tasks.clone(), tl.clone(), ideal.clone());
            suite.push(CuratedBench {
                name: if n == 512 {
                    "micro/der_alloc/512"
                } else {
                    "micro/der_alloc/1024"
                },
                iters,
                run: Box::new(move || {
                    black_box(allocate(AllocRequest::new(&tasks, &tl, 4, &ideal)));
                }),
            });
        }
        if n == 1024 {
            {
                let (tasks, tl, ideal) = (tasks.clone(), tl.clone(), ideal.clone());
                suite.push(CuratedBench {
                    name: "micro/der_alloc_reference/1024",
                    iters,
                    run: Box::new(move || {
                        black_box(allocate(
                            AllocRequest::new(&tasks, &tl, 4, &ideal)
                                .strategy(DerStrategy::Reference),
                        ));
                    }),
                });
            }
            let tasks = tasks.clone();
            suite.push(CuratedBench {
                name: "micro/timeline_build/1024",
                iters: 24,
                run: Box::new(move || {
                    black_box(Timeline::build(&tasks));
                }),
            });
        }
    }
    // Flight-recorder overhead on the 1024-task DER allocation, which
    // carries a `flight_span!` on its hot entry point. The on/off pair is
    // measured in the same run; the acceptance target is <3% p50 overhead
    // when recording and ~0 when disabled.
    {
        let tasks = paper_tasks(1024, 3);
        let tl = Timeline::build(&tasks);
        let ideal = ideal_schedule(&tasks, &power);
        for on in [true, false] {
            let (tasks, tl, ideal) = (tasks.clone(), tl.clone(), ideal.clone());
            suite.push(CuratedBench {
                name: if on {
                    "micro/obs_overhead/recorder_on"
                } else {
                    "micro/obs_overhead/recorder_off"
                },
                iters: 12,
                run: Box::new(move || {
                    let was = esched_obs::recorder::is_enabled();
                    esched_obs::recorder::set_enabled(on);
                    black_box(allocate(AllocRequest::new(&tasks, &tl, 4, &ideal)));
                    esched_obs::recorder::set_enabled(was);
                }),
            });
        }
    }
    // --- large-n scaling entries (grid-snapped WorkloadSpec::large_n
    // instances, so CSR cells stay O(n) and a 262 144-task timeline fits
    // comfortably in memory). der_alloc entries run the vectorized
    // water-fill with intra-instance fan-out across an 8-worker pool;
    // der_alloc_serial/65k is the round-based serial scalar path measured
    // in the same run, so the p50 ratio of the 65k pair is a same-machine
    // speedup figure. All large-n names are advisory (`gating` excludes
    // them): a handful of iterations on shared CI hardware is too noisy
    // to fail the build on.
    // Fixtures are built lazily on the first (warmup) call — `run_entry`
    // always warms up at least once before the timed bracket — so merely
    // constructing the suite (as the unit tests do, in debug) never pays
    // for a 262 144-task timeline.
    {
        struct LargeFixture {
            tasks: esched_types::TaskSet,
            tl: Timeline,
            ideal: esched_core::IdealSolution,
        }
        let build = move |n: usize| {
            let tasks = WorkloadSpec::large_n(n).instantiate(3);
            let tl = Timeline::build(&tasks);
            let ideal = ideal_schedule(&tasks, &power);
            LargeFixture { tasks, tl, ideal }
        };
        let pool = Pool::with_threads(8);
        for (name, n, iters) in [
            ("micro/der_alloc/16k", 16_384usize, 16usize),
            ("micro/der_alloc/65k", 65_536, 8),
            ("micro/der_alloc/262k", 262_144, 3),
        ] {
            let pool = pool.clone();
            let mut fixture: Option<LargeFixture> = None;
            suite.push(CuratedBench {
                name,
                iters,
                run: Box::new(move || {
                    let fx = fixture.get_or_insert_with(|| build(n));
                    black_box(allocate(
                        AllocRequest::new(&fx.tasks, &fx.tl, 4, &fx.ideal)
                            .with_pool(&pool)
                            .with_parallel_threshold(DEFAULT_PARALLEL_THRESHOLD),
                    ));
                }),
            });
        }
        {
            let mut fixture: Option<LargeFixture> = None;
            suite.push(CuratedBench {
                name: "micro/der_alloc_serial/65k",
                iters: 4,
                run: Box::new(move || {
                    let fx = fixture.get_or_insert_with(|| build(65_536));
                    black_box(allocate(
                        AllocRequest::new(&fx.tasks, &fx.tl, 4, &fx.ideal)
                            .strategy(DerStrategy::Reference),
                    ));
                }),
            });
        }
        {
            let mut tasks: Option<esched_types::TaskSet> = None;
            suite.push(CuratedBench {
                name: "micro/timeline_build/65k",
                iters: 8,
                run: Box::new(move || {
                    let ts =
                        tasks.get_or_insert_with(|| WorkloadSpec::large_n(65_536).instantiate(3));
                    black_box(Timeline::build(ts));
                }),
            });
        }
    }

    {
        let items: Vec<PackItem> = (0..24)
            .map(|i| PackItem {
                task: i,
                duration: 0.2 + 0.4 * (i as f64 * 0.23).fract(),
                freq: 1.0,
            })
            .collect();
        suite.push(CuratedBench {
            name: "micro/pack/24",
            iters: 400,
            run: Box::new(move || {
                let mut s = Schedule::new(8);
                pack_subinterval(black_box(&items), 0.0, 2.0, 8, &mut s).unwrap();
                black_box(s);
            }),
        });
    }
    {
        let tasks = paper_tasks(40, 17);
        let out = der_schedule(&tasks, 4, &power);
        suite.push(CuratedBench {
            name: "micro/validate/40",
            iters: 200,
            run: Box::new(move || {
                black_box(validate_schedule(&out.schedule, &tasks));
            }),
        });
    }

    // --- runtime_scaling subset ---
    {
        let tasks = paper_tasks(80, 99);
        let p = power;
        suite.push(CuratedBench {
            name: "scaling/heuristic_der/80",
            iters: 60,
            run: Box::new(move || {
                black_box(der_schedule(&tasks, 4, &p).final_energy);
            }),
        });
    }
    {
        let tasks = paper_tasks(80, 99);
        let p = power;
        suite.push(CuratedBench {
            name: "scaling/heuristic_even/80",
            iters: 60,
            run: Box::new(move || {
                black_box(even_schedule(&tasks, 4, &p).final_energy);
            }),
        });
    }
    {
        let tasks = paper_tasks(20, 99);
        let p = power;
        suite.push(CuratedBench {
            name: "scaling/convex_optimum/20",
            iters: 12,
            run: Box::new(move || {
                black_box(optimal_energy(&tasks, 4, &p, &SolveOptions::fast()).energy);
            }),
        });
    }

    // --- solver ablation: a cold PGD solve of the program ---
    {
        let tasks = paper_tasks(20, 7);
        let tl = Timeline::build(&tasks);
        let p = power;
        suite.push(CuratedBench {
            name: "ablation/pgd/20",
            iters: 15,
            run: Box::new(move || {
                let ep = EnergyProgram::new(&tasks, &tl, 4, p);
                let opts = SolveOptions::fast();
                black_box(solve_pgd(&ep, ep.initial_point(), &opts).objective);
            }),
        });
    }

    // --- warm-started sweep (fig8 pattern: same instance, cores swept) ---
    // The energy program's dimension depends only on the timeline, not on
    // `m`, so a cores sweep is the canonical warm-start consumer: each
    // point's solve is seeded from the previous point's optimum. The cold
    // twin re-solves every point from the canonical interior start;
    // comparing the two entries' p50s in one run gives the warm-start
    // payoff figure.
    {
        let tasks = paper_tasks(24, 7);
        let tl = Timeline::build(&tasks);
        for warm in [false, true] {
            let (tasks, tl, p) = (tasks.clone(), tl.clone(), power);
            suite.push(CuratedBench {
                name: if warm {
                    "opt/warm_vs_cold/fig8"
                } else {
                    "opt/cold_sweep/fig8"
                },
                iters: 10,
                run: Box::new(move || {
                    let mut prev: Option<Vec<f64>> = None;
                    for cores in [2usize, 4, 8, 16] {
                        let ep = EnergyProgram::new(&tasks, &tl, cores, p);
                        let mut opts = SolveOptions::fast();
                        if warm {
                            opts.warm_start = prev.take();
                        }
                        let r = SolverKind::ProjectedGradient.solve(&ep, &opts);
                        black_box(r.objective);
                        prev = Some(r.x);
                    }
                }),
            });
        }
    }

    // --- decomposed ADMM solver at scale (fig8-style cores sweep) ---
    // Each timed iteration runs the cores sweep [2, 4, 8, 16] on one
    // grid-snapped `WorkloadSpec::large_n` instance, warm-chaining the
    // primal *and dual* point from one sweep position into the next —
    // exactly how `Engine`'s fig8 driver and the online engine consume
    // the solver. Fixtures are lazy (see the large-n note above). The
    // solver's per-task fan-out runs on an 8-worker pool; chunking is
    // deterministic, so these entries gate despite their size — the work
    // per iteration is a fixed, machine-independent iteration count.
    {
        let pool = Pool::with_threads(8);
        for (name, n, iters) in [
            ("opt/admm/1024", 1024usize, 6usize),
            ("opt/admm/4096", 4096, 4),
            ("opt/admm/16k", 16_384, 3),
        ] {
            let pool = pool.clone();
            let p = power;
            let mut fixture: Option<(esched_types::TaskSet, Timeline)> = None;
            suite.push(CuratedBench {
                name,
                iters,
                run: Box::new(move || {
                    let (tasks, tl) = fixture.get_or_insert_with(|| {
                        let tasks = WorkloadSpec::large_n(n).instantiate(3);
                        let tl = Timeline::build(&tasks);
                        (tasks, tl)
                    });
                    let mut warm: Option<(Vec<f64>, Vec<f64>)> = None;
                    for cores in [2usize, 4, 8, 16] {
                        let ep = EnergyProgram::new(tasks, tl, cores, p);
                        let mut opts = SolveOptions::fast();
                        if let Some((x, y)) = warm.take() {
                            opts = opts.with_warm_start(x).with_warm_start_dual(y);
                        }
                        let r = solve_admm_in(&ep, &opts, &pool);
                        black_box(r.objective);
                        let dual = r.dual.clone().unwrap_or_default();
                        warm = Some((r.x, dual));
                    }
                }),
            });
        }
    }

    // --- engine batch execution ---
    // 64 full-pipeline instances (DER + fast E^OPT solve) per iteration,
    // serial vs. 8 workers. The speedup criterion compares these two
    // entries' p50s; on a single-core runner they coincide.
    {
        let requests: Vec<ScheduleRequest> = (0..64)
            .map(|k| {
                ScheduleRequest::new(paper_tasks(20, 1000 + k as u64), 4, power).with_config(
                    EngineConfig::new()
                        .with_solver(SolverKind::ProjectedGradient)
                        .with_solve_options(SolveOptions::fast()),
                )
            })
            .collect();
        for (name, threads) in [("engine/batch_64x/1t", 1usize), ("engine/batch_64x/8t", 8)] {
            let reqs = requests.clone();
            suite.push(CuratedBench {
                name,
                iters: 6,
                run: Box::new(move || {
                    black_box(Engine::with_threads(threads).run_batch(&reqs));
                }),
            });
        }
    }
    // Pool scaling at 8 threads over a wide batch of cheap heuristic-only
    // instances: dominated by queueing/stealing overhead, so it catches
    // pool regressions the solver-heavy entry would mask.
    {
        let requests: Vec<ScheduleRequest> = (0..128)
            .map(|k| ScheduleRequest::new(paper_tasks(40, 2000 + k as u64), 4, power))
            .collect();
        suite.push(CuratedBench {
            name: "engine/scaling_8t/128",
            iters: 6,
            run: Box::new(move || {
                black_box(Engine::with_threads(8).run_batch(&requests));
            }),
        });
    }

    // --- online incremental replanning ---
    // One event applied per timed iteration against a persistent
    // 1024-task online engine, paired with a from-scratch execute of the
    // same mutated instance: the two p50s in one run give the
    // incremental-replan speedup (the acceptance bar is ≥5×, asserted by
    // the `online_smoke` binary). Events slide task windows by ±0.25 with
    // a stride coprime to n, so the engine keeps replanning fresh
    // subintervals without the task set drifting unboundedly.
    {
        let tasks = paper_tasks(1024, 3);
        {
            let mut engine = OnlineEngine::new(tasks.clone(), 8, power);
            let n = tasks.len();
            let mut i = 0usize;
            suite.push(CuratedBench {
                name: "online/replan_p99",
                iters: 120,
                run: Box::new(move || {
                    let id = (i * 193) % n;
                    let t = *engine.tasks().get(id);
                    let delta = if i.is_multiple_of(2) { 0.25 } else { -0.25 };
                    let event = OnlineEvent::Shift {
                        task: id,
                        release: t.release + delta,
                        deadline: t.deadline + delta,
                    };
                    black_box(engine.apply(&event).expect("replan event rejected"));
                    i += 1;
                }),
            });
        }
        {
            let mut engine = OnlineEngine::new(tasks, 8, power);
            let t = *engine.tasks().get(0);
            engine
                .apply(&OnlineEvent::Shift {
                    task: 0,
                    release: t.release + 0.25,
                    deadline: t.deadline + 0.25,
                })
                .expect("mutation rejected");
            let request = engine.as_request();
            suite.push(CuratedBench {
                name: "online/offline_execute",
                iters: 6,
                run: Box::new(move || {
                    black_box(
                        Engine::with_threads(1)
                            .run(&request)
                            .expect("offline run failed"),
                    );
                }),
            });
        }
    }

    // --- health-layer overhead on the replan hot path ---
    // The same sliding-shift stream as online/replan_p99, once bare and
    // once with the full health stack recording every event (windowed
    // sketches + rate-limited SLO evaluation; the audit sampler is off —
    // it runs on a background worker and never blocks the hot path).
    // The acceptance bar — on/off ≤ 1.02 — is asserted by the
    // `health_smoke` binary; here both p50s are compare-gated so either
    // side regressing trips CI.
    for (name, with_health) in [
        ("online/health_overhead_off", false),
        ("online/health_overhead_on", true),
    ] {
        let tasks = paper_tasks(1024, 3);
        let n = tasks.len();
        let mut engine = OnlineEngine::new(tasks, 8, power);
        if with_health {
            engine = engine.with_health(
                SloPolicy::new(Duration::from_secs(10))
                    .with_replan_p99(Duration::from_secs(1))
                    .with_regret_ceiling(0.5)
                    .with_fallback_rate_ceiling(1.0)
                    .with_heartbeat_timeout(Duration::from_secs(60)),
            );
        }
        let mut i = 0usize;
        suite.push(CuratedBench {
            name,
            iters: 120,
            run: Box::new(move || {
                let id = (i * 193) % n;
                let t = *engine.tasks().get(id);
                let delta = if i.is_multiple_of(2) { 0.25 } else { -0.25 };
                let event = OnlineEvent::Shift {
                    task: id,
                    release: t.release + delta,
                    deadline: t.deadline + delta,
                };
                black_box(engine.apply(&event).expect("replan event rejected"));
                i += 1;
            }),
        });
    }

    suite
}

/// Run one curated entry: a short warmup, then `iters` timed iterations
/// bracketed by metrics snapshots.
pub fn run_entry(bench: &mut CuratedBench) -> BenchResult {
    let warmup = (bench.iters / 10).max(1);
    for _ in 0..warmup {
        (bench.run)();
    }
    let before = metrics::snapshot();
    let mut samples = Vec::with_capacity(bench.iters);
    for _ in 0..bench.iters {
        let t0 = Instant::now();
        (bench.run)();
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    let delta = metrics::snapshot().delta_since(&before);
    BenchResult {
        name: bench.name,
        iters: bench.iters,
        wall_ns: Summary::of(&samples),
        metrics: delta,
    }
}

/// Run the whole curated suite, reporting progress through `progress`
/// (called with each entry name before it runs; pass `|_| {}` to
/// silence).
pub fn run_suite(mut progress: impl FnMut(&str)) -> Vec<BenchResult> {
    curated_suite()
        .iter_mut()
        .map(|b| {
            progress(b.name);
            run_entry(b)
        })
        .collect()
}

/// Serialize results into the `BENCH_*.json` document: a header tying
/// the run to a commit plus one object per entry.
pub fn results_to_json(results: &[BenchResult]) -> Value {
    let entries: Vec<Value> = results
        .iter()
        .map(|r| {
            Value::obj(vec![
                ("name", Value::Str(r.name.to_string())),
                ("iters", Value::Num(r.iters as f64)),
                ("wall_ns", r.wall_ns.to_json()),
                ("metrics", r.metrics.to_json()),
            ])
        })
        .collect();
    Value::obj(vec![
        ("schema_version", Value::Num(SCHEMA_VERSION as f64)),
        (
            "git_sha",
            match report::git_short_sha() {
                Some(sha) => Value::Str(sha.to_string()),
                None => Value::Null,
            },
        ),
        (
            "esched_version",
            Value::Str(report::esched_version().to_string()),
        ),
        ("entries", Value::Arr(entries)),
    ])
}

/// One entry whose current p50 exceeds the baseline p50 by more than the
/// threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Entry name.
    pub name: String,
    /// Baseline p50 wall time, nanoseconds.
    pub base_p50: f64,
    /// Current p50 wall time, nanoseconds.
    pub cur_p50: f64,
    /// `cur_p50 / base_p50`.
    pub ratio: f64,
}

fn entry_p50s(doc: &Value) -> Result<Vec<(String, f64)>, String> {
    let entries = doc
        .get("entries")
        .and_then(Value::as_array)
        .ok_or("missing \"entries\" array")?;
    entries
        .iter()
        .map(|e| {
            let name = e
                .get("name")
                .and_then(Value::as_str)
                .ok_or("entry missing \"name\"")?;
            let p50 = e
                .get("wall_ns")
                .and_then(|w| w.get("p50"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("entry {name:?} missing wall_ns.p50"))?;
            Ok((name.to_string(), p50))
        })
        .collect()
}

/// Compare two `BENCH_*.json` documents. Returns the entries whose
/// current p50 regressed by more than `threshold` (0.25 = 25%).
///
/// The two documents must cover the same entry set: an entry present in
/// only one of them is an error, not a silent pass — a current entry with
/// no baseline would otherwise never be gated (the baseline must be
/// refreshed in the same change that adds a bench), and a baseline entry
/// with no current measurement means the gate silently narrowed. Also
/// errors on malformed documents.
pub fn compare(
    baseline: &Value,
    current: &Value,
    threshold: f64,
) -> Result<Vec<Regression>, String> {
    let base = entry_p50s(baseline)?;
    let cur = entry_p50s(current)?;
    let missing_in_baseline: Vec<&str> = cur
        .iter()
        .filter(|(n, _)| !base.iter().any(|(b, _)| b == n))
        .map(|(n, _)| n.as_str())
        .collect();
    let missing_in_current: Vec<&str> = base
        .iter()
        .filter(|(n, _)| !cur.iter().any(|(c, _)| c == n))
        .map(|(n, _)| n.as_str())
        .collect();
    if !missing_in_baseline.is_empty() || !missing_in_current.is_empty() {
        let mut parts = Vec::new();
        if !missing_in_baseline.is_empty() {
            parts.push(format!(
                "missing from baseline (refresh it): {}",
                missing_in_baseline.join(", ")
            ));
        }
        if !missing_in_current.is_empty() {
            parts.push(format!(
                "missing from current run: {}",
                missing_in_current.join(", ")
            ));
        }
        return Err(format!("entry sets differ: {}", parts.join("; ")));
    }
    let mut regressions = Vec::new();
    for (name, cur_p50) in &cur {
        let Some((_, base_p50)) = base.iter().find(|(n, _)| n == name) else {
            unreachable!("entry sets verified equal above");
        };
        if *base_p50 > 0.0 && *cur_p50 > base_p50 * (1.0 + threshold) {
            regressions.push(Regression {
                name: name.clone(),
                base_p50: *base_p50,
                cur_p50: *cur_p50,
                ratio: cur_p50 / base_p50,
            });
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The metric counters are process-global, and building the curated
    /// suite bumps some of them (its fixtures build timelines). Every
    /// test that builds the suite holds this lock, so the counter delta
    /// one of them reads is its own.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn doc(entries: &[(&str, f64)]) -> Value {
        Value::obj(vec![
            ("schema_version", Value::Num(1.0)),
            ("git_sha", Value::Str("abc1234".into())),
            ("esched_version", Value::Str("0.1.0".into())),
            (
                "entries",
                Value::Arr(
                    entries
                        .iter()
                        .map(|(n, p50)| {
                            Value::obj(vec![
                                ("name", Value::Str(n.to_string())),
                                ("iters", Value::Num(10.0)),
                                (
                                    "wall_ns",
                                    Value::obj(vec![
                                        ("count", Value::Num(10.0)),
                                        ("mean", Value::Num(*p50)),
                                        ("p50", Value::Num(*p50)),
                                        ("p95", Value::Num(*p50 * 1.2)),
                                        ("min", Value::Num(*p50 * 0.8)),
                                        ("max", Value::Num(*p50 * 1.5)),
                                    ]),
                                ),
                                ("metrics", Value::obj(vec![])),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn compare_flags_a_synthetic_2x_regression() {
        let base = doc(&[("a", 100.0), ("b", 100.0)]);
        let cur = doc(&[("a", 200.0), ("b", 110.0)]);
        let regs = compare(&base, &cur, DEFAULT_THRESHOLD).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "a");
        assert!((regs[0].ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn compare_tolerates_below_threshold_noise() {
        let base = doc(&[("a", 100.0)]);
        let cur = doc(&[("a", 124.0)]);
        assert!(compare(&base, &cur, DEFAULT_THRESHOLD).unwrap().is_empty());
    }

    #[test]
    fn compare_errors_on_missing_baseline_entry() {
        let base = doc(&[("a", 100.0)]);
        let cur = doc(&[("a", 100.0), ("brand_new", 9999.0)]);
        let err = compare(&base, &cur, DEFAULT_THRESHOLD).unwrap_err();
        assert!(err.contains("brand_new"), "unhelpful error: {err}");
        assert!(err.contains("missing from baseline"), "{err}");
    }

    #[test]
    fn compare_errors_on_missing_current_entry() {
        let base = doc(&[("a", 100.0), ("dropped", 50.0)]);
        let cur = doc(&[("a", 100.0)]);
        let err = compare(&base, &cur, DEFAULT_THRESHOLD).unwrap_err();
        assert!(err.contains("dropped"), "unhelpful error: {err}");
        assert!(err.contains("missing from current"), "{err}");
    }

    #[test]
    fn online_entries_are_present_and_gating() {
        let _serial = serial();
        let suite = curated_suite();
        assert!(suite.iter().any(|b| b.name == "online/replan_p99"));
        assert!(suite.iter().any(|b| b.name == "online/offline_execute"));
        assert!(suite.iter().any(|b| b.name == "online/health_overhead_on"));
        assert!(suite.iter().any(|b| b.name == "online/health_overhead_off"));
        assert!(gating("online/replan_p99"));
        assert!(gating("online/health_overhead_on"));
        assert!(!gating("engine/batch_64x/1t"));
    }

    #[test]
    fn large_n_entries_are_present_but_advisory() {
        let _serial = serial();
        let suite = curated_suite();
        for name in [
            "micro/der_alloc/16k",
            "micro/der_alloc/65k",
            "micro/der_alloc/262k",
            "micro/der_alloc_serial/65k",
            "micro/timeline_build/65k",
        ] {
            assert!(suite.iter().any(|b| b.name == name), "{name} missing");
            assert!(!gating(name), "{name} must stay advisory");
        }
        // The small-n micro entries still gate.
        assert!(gating("micro/der_alloc/1024"));
        assert!(gating("micro/timeline_build/80"));
    }

    #[test]
    fn admm_entries_gate_and_serial_solver_sweeps_are_advisory() {
        let _serial = serial();
        let suite = curated_suite();
        for name in ["opt/admm/1024", "opt/admm/4096", "opt/admm/16k"] {
            assert!(suite.iter().any(|b| b.name == name), "{name} missing");
            assert!(gating(name), "{name} must gate");
        }
        assert!(!gating("opt/warm_vs_cold/fig8"));
    }

    #[test]
    fn compare_rejects_malformed_documents() {
        let good = doc(&[("a", 100.0)]);
        let bad = Value::obj(vec![("nope", Value::Null)]);
        assert!(compare(&bad, &good, 0.25).is_err());
        assert!(compare(&good, &bad, 0.25).is_err());
    }

    #[test]
    fn suite_has_at_least_six_entries_with_stable_unique_names() {
        let _serial = serial();
        let suite = curated_suite();
        assert!(suite.len() >= 6, "only {} entries", suite.len());
        let mut names: Vec<&str> = suite.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), suite.len(), "duplicate entry names");
    }

    #[test]
    fn run_entry_produces_samples_and_metric_deltas() {
        let _serial = serial();
        let mut bench = curated_suite()
            .into_iter()
            .find(|b| b.name == "micro/timeline_build/80")
            .unwrap();
        bench.iters = 5;
        let r = run_entry(&mut bench);
        assert_eq!(r.wall_ns.count, 5);
        assert!(r.wall_ns.p50 > 0.0);
        assert!(r.wall_ns.p95 >= r.wall_ns.p50);
        // Timeline::build increments its build counter once per iteration
        // (warmup is outside the snapshot bracket).
        assert_eq!(
            r.metrics.counter("esched.subinterval.timeline_builds"),
            Some(5)
        );
    }

    #[test]
    fn results_json_has_header_and_entry_shape() {
        let _serial = serial();
        let mut bench = curated_suite().swap_remove(0);
        bench.iters = 3;
        let results = vec![run_entry(&mut bench)];
        let doc = results_to_json(&results);
        assert_eq!(doc.get("schema_version").and_then(Value::as_u64), Some(1));
        assert!(doc.get("esched_version").and_then(Value::as_str).is_some());
        let entries = doc.get("entries").and_then(Value::as_array).unwrap();
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert!(e.get("wall_ns").and_then(|w| w.get("p50")).is_some());
        assert!(e.get("metrics").is_some());
        // Round-trips through the parser.
        let reparsed = esched_obs::json::parse(&doc.to_string_pretty()).unwrap();
        assert_eq!(entry_p50s(&reparsed).unwrap().len(), 1);
    }
}
