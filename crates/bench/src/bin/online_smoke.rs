//! `online_smoke` — the CI gate for the online arrival engine.
//!
//! Three checks, all fatal on failure:
//!
//! 1. **Byte-identity under load**: streams 512 deterministic
//!    arrival/completion/shift events through [`OnlineEngine`],
//!    spot-checking every 128 events and finally asserting the online
//!    outcome is byte-identical (struct equality *and* JSON text) to the
//!    offline pipeline at 1, 4, and 8 workers.
//! 2. **Replan speedup**: at n=1024 the median incremental replan must be
//!    at least 5× faster than a from-scratch `execute` of the same
//!    mutated instance, and at least 18 of its 20 ±0.25 window slides
//!    must patch the timeline in place instead of rebuilding it.
//! 3. **Benchjson coverage**: the curated `online/*` entries run and the
//!    emitted document contains `online/replan_p99`, so the perf gate
//!    actually tracks the replan path.
//!
//! CI runs this with `ESCHED_ENGINE_THREADS=4`; the explicit
//! `Engine::with_threads` calls below cover 1 and 8 regardless.

use esched_bench::harness;
use esched_bench::paper_tasks;
use esched_engine::{Engine, OnlineEngine, OnlineEvent};
use esched_obs::json::Value;
use esched_types::{PolynomialPower, Task};
use std::time::Instant;

/// Spot-check cadence during the stream (and the stream length).
const EVENTS: usize = 512;
const CHECK_EVERY: usize = 128;
/// The acceptance bar: incremental replan vs. from-scratch execute.
const MIN_SPEEDUP: f64 = 5.0;
/// Of the 20 slides at n=1024, how many must patch the timeline in place.
const MIN_PATCHED_SHIFTS: usize = 18;

fn assert_byte_identical(engine: &mut OnlineEngine, workers: &[usize], context: &str) {
    let request = engine.as_request();
    let got = engine.outcome();
    for &w in workers {
        let want = Engine::with_threads(w)
            .run(&request)
            .expect("offline run failed");
        assert!(
            got == want,
            "{context}: outcome diverged from offline at {w} workers"
        );
        use esched_obs::json::ToJson;
        assert!(
            got.to_json().to_string() == want.to_json().to_string(),
            "{context}: JSON encoding diverged from offline at {w} workers"
        );
    }
}

/// The deterministic 512-event stream: arrivals (half off-grid, half
/// snapped onto an existing deadline), completions at 80% of `C_i`, and
/// ±0.3 window slides.
fn event_for(i: usize, engine: &OnlineEngine) -> OnlineEvent {
    let n = engine.len();
    match i % 4 {
        0 | 3 => {
            let release = if i % 8 == 3 {
                // Snap onto an existing boundary: the patch-vs-rebuild
                // decision point.
                engine.tasks().get((i * 13) % n).deadline
            } else {
                (i as f64 * 0.381) % 45.0
            };
            let window = 2.0 + ((i * 7) % 13) as f64 * 0.5;
            OnlineEvent::Arrive(Task::of(release, release + window, 0.3 + 0.4 * window))
        }
        1 => {
            let task = (i * 31) % n;
            OnlineEvent::Complete {
                task,
                actual_work: engine.tasks().get(task).wcec * 0.8,
            }
        }
        _ => {
            let task = (i * 17) % n;
            let t = *engine.tasks().get(task);
            let delta = if i % 8 < 4 { 0.3 } else { -0.3 };
            OnlineEvent::Shift {
                task,
                release: t.release + delta,
                deadline: t.deadline + delta,
            }
        }
    }
}

fn median_ns(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    samples[samples.len() / 2]
}

fn main() {
    let power = PolynomialPower::paper(3.0, 0.1);

    // --- 1. byte-identity over the 512-event stream ---
    let mut engine = OnlineEngine::new(paper_tasks(64, 9), 8, power);
    for i in 0..EVENTS {
        let event = event_for(i, &engine);
        engine.apply(&event).expect("stream event rejected");
        if (i + 1) % CHECK_EVERY == 0 {
            assert_byte_identical(&mut engine, &[1], &format!("after event {}", i + 1));
            println!(
                "online_smoke: {} events applied, n={}, outcome matches offline",
                i + 1,
                engine.len()
            );
        }
    }
    assert_byte_identical(&mut engine, &[1, 4, 8], "after the full stream");
    println!(
        "online_smoke: {EVENTS}-event stream byte-identical to offline at 1/4/8 workers (final n={})",
        engine.len()
    );

    // --- 2. replan-vs-execute speedup at n=1024 ---
    let mut big = OnlineEngine::new(paper_tasks(1024, 3), 8, power);
    let mut replan_ns = Vec::with_capacity(20);
    let mut patched = 0usize;
    for i in 0..20usize {
        let id = (i * 193) % big.len();
        let t = *big.tasks().get(id);
        let delta = if i.is_multiple_of(2) { 0.25 } else { -0.25 };
        let event = OnlineEvent::Shift {
            task: id,
            release: t.release + delta,
            deadline: t.deadline + delta,
        };
        let t0 = Instant::now();
        let report = big.apply(&event).expect("replan event rejected");
        replan_ns.push(t0.elapsed().as_nanos() as f64);
        patched += usize::from(!report.timeline_rebuilt);
    }
    println!("online_smoke: n=1024 {patched}/20 shifts patched the timeline in place");
    assert!(
        patched >= MIN_PATCHED_SHIFTS,
        "only {patched} of 20 shifts patched the timeline (need >= {MIN_PATCHED_SHIFTS}); \
         shifts are falling back to a full rebuild"
    );
    let request = big.as_request();
    let offline = Engine::with_threads(1);
    let mut exec_ns = Vec::with_capacity(3);
    for _ in 0..3 {
        let t0 = Instant::now();
        offline.run(&request).expect("offline run failed");
        exec_ns.push(t0.elapsed().as_nanos() as f64);
    }
    let replan = median_ns(&mut replan_ns);
    let exec = median_ns(&mut exec_ns);
    let speedup = exec / replan;
    println!(
        "online_smoke: n=1024 replan p50 {:.3} ms, from-scratch execute p50 {:.3} ms, speedup {speedup:.1}x",
        replan / 1e6,
        exec / 1e6
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "incremental replan is only {speedup:.1}x faster than from-scratch execute (need >= {MIN_SPEEDUP}x)"
    );

    // --- 3. the curated online entries land in benchjson ---
    let mut results = Vec::new();
    for mut bench in harness::curated_suite() {
        if bench.name.starts_with("online/") {
            results.push(harness::run_entry(&mut bench));
        }
    }
    let doc = harness::results_to_json(&results);
    let names: Vec<&str> = doc
        .get("entries")
        .and_then(Value::as_array)
        .expect("entries array")
        .iter()
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    assert!(
        names.contains(&"online/replan_p99"),
        "online/replan_p99 missing from benchjson entries: {names:?}"
    );
    for r in &results {
        println!(
            "online_smoke: benchjson entry {} p50 {:.3} ms",
            r.name,
            r.wall_ns.p50 / 1e6
        );
    }
    println!("online_smoke: OK");
}
