//! Golden-file test for the Chrome-trace exporter: a small two-task,
//! two-core pipeline run captured through [`esched::obs::chrome`] must
//! produce trace-event JSON that parses back with `obs::json`, has
//! balanced B/E events with monotonic timestamps, and renders the
//! schedule with one thread per core plus frequency counter tracks.

use esched::obs::chrome::{ChromeTraceSink, SCHEDULE_PID};
use esched::obs::json::{parse, Value};
use esched::obs::trace;
use esched::sim::chrome_schedule_trace;
use esched::types::{PolynomialPower, TaskSet};
use std::sync::{Arc, Mutex, MutexGuard};

/// Held by every test in this file. The capture test installs a
/// process-global sink; run alongside it, the other test's pipeline spans
/// would land in the capture, possibly as a span entered before the sink
/// was installed and exited after, which unbalances the trace.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn two_task_two_core_schedule() -> esched::types::Schedule {
    // Two overlapping tasks on two cores — small enough to eyeball, big
    // enough to exercise packing and the span hierarchy.
    let tasks = TaskSet::from_triples(&[(0.0, 8.0, 4.0), (2.0, 10.0, 5.0)]);
    esched::core::der_schedule(&tasks, 2, &PolynomialPower::paper(3.0, 0.1)).schedule
}

fn events(doc: &Value) -> &[Value] {
    doc.get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array")
}

fn ph(e: &Value) -> &str {
    e.get("ph").and_then(Value::as_str).expect("ph")
}

#[test]
fn captured_spans_round_trip_as_valid_balanced_chrome_json() {
    let _serial = serial();
    let sink = ChromeTraceSink::new();
    trace::init_with(trace::Filter::parse("debug"), Arc::new(sink.clone()));
    let schedule = two_task_two_core_schedule();
    trace::disable();
    assert!(!schedule.segments().is_empty());

    // Serialize, then parse back through the crate's own JSON parser —
    // this is the validity check Perfetto relies on.
    let text = sink.to_json().to_string_pretty();
    let doc = parse(&text).expect("exporter emits parseable JSON");
    let evs = events(&doc);
    assert!(!evs.is_empty(), "pipeline run produced no trace events");

    // Balanced B/E per (pid, tid), closing in LIFO order.
    let mut open: std::collections::HashMap<(u64, u64), u64> = std::collections::HashMap::new();
    let mut b = 0usize;
    let mut e = 0usize;
    for ev in evs {
        let key = (
            ev.get("pid").and_then(Value::as_u64).unwrap_or(0),
            ev.get("tid").and_then(Value::as_u64).unwrap_or(0),
        );
        match ph(ev) {
            "B" => {
                b += 1;
                *open.entry(key).or_insert(0) += 1;
            }
            "E" => {
                e += 1;
                let depth = open.entry(key).or_insert(0);
                assert!(*depth > 0, "E without matching B on {key:?}");
                *depth -= 1;
            }
            _ => {}
        }
    }
    assert_eq!(b, e, "unbalanced B/E events");
    assert!(b > 0, "no duration events captured");
    assert!(open.values().all(|d| *d == 0));

    // Timestamps are monotonic per thread (events are appended in wall
    // order by one sink).
    let mut last: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    for ev in evs {
        if ph(ev) == "M" {
            continue;
        }
        let tid = ev.get("tid").and_then(Value::as_u64).unwrap_or(0);
        let ts = ev.get("ts").and_then(Value::as_f64).expect("ts");
        assert!(ts >= *last.get(&tid).unwrap_or(&0.0), "ts went backwards");
        last.insert(tid, ts);
    }
}

#[test]
fn schedule_converter_renders_cores_as_threads_with_freq_counters() {
    let _serial = serial();
    let schedule = two_task_two_core_schedule();
    let doc = parse(&chrome_schedule_trace(&schedule).to_string_pretty()).expect("valid JSON");
    let evs = events(&doc);

    // All events live in the schedule process.
    assert!(evs
        .iter()
        .all(|e| e.get("pid").and_then(Value::as_u64) == Some(SCHEDULE_PID)));

    // One thread-name metadata record per core.
    let thread_names: Vec<&str> = evs
        .iter()
        .filter(|e| ph(e) == "M")
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .filter(|n| n.starts_with("core "))
        .collect();
    assert_eq!(thread_names, vec!["core 0", "core 1"]);

    // Balanced durations: one B and one E per schedule segment.
    let n_b = evs.iter().filter(|e| ph(e) == "B").count();
    let n_e = evs.iter().filter(|e| ph(e) == "E").count();
    assert_eq!(n_b, schedule.segments().len());
    assert_eq!(n_e, n_b);

    // Frequency counter track: every segment contributes an on-sample
    // carrying its frequency and an off-sample at zero.
    let counters: Vec<&Value> = evs.iter().filter(|e| ph(e) == "C").collect();
    assert_eq!(counters.len(), 2 * schedule.segments().len());
    for c in &counters {
        let name = c.get("name").and_then(Value::as_str).unwrap();
        assert!(name.ends_with(" freq"), "unexpected counter {name:?}");
        assert!(c.get("args").and_then(|a| a.get("f")).is_some());
    }

    // Counter timestamps are monotonic within each core's track.
    let mut last: std::collections::HashMap<&str, f64> = std::collections::HashMap::new();
    for c in &counters {
        let name = c.get("name").and_then(Value::as_str).unwrap();
        let ts = c.get("ts").and_then(Value::as_f64).unwrap();
        assert!(ts >= *last.get(name).unwrap_or(&0.0));
        last.insert(name, ts);
    }
}
