//! Chrome-trace (`chrome://tracing` / Perfetto) export.
//!
//! Two converters share the [Trace Event Format] JSON emitted here:
//!
//! * [`ChromeTraceSink`] — a [`Sink`] that turns the live [`crate::trace`]
//!   span hierarchy into duration events: span enter → `"B"`, span exit →
//!   `"E"`, point events → `"i"` (instant) or `"C"` (counter, when every
//!   field is numeric — e.g. the `simulate` engine's "simulation done"
//!   counters render as tracks). Timestamps are microseconds since the
//!   sink was created, taken from one monotonic clock, so they are
//!   non-decreasing per thread; each OS thread becomes one trace `tid`.
//! * [`schedule_trace`] — renders a finished schedule (one `"thread"` per
//!   core, one duration event per segment) with a per-core frequency
//!   counter track, so the *produced* schedule opens next to the solver
//!   run that produced it. The schedule side uses `pid` [`SCHEDULE_PID`],
//!   the sink uses [`SPANS_PID`]; [`merge`] concatenates any number of
//!   traces into one file for exactly that side-by-side view.
//!
//! The output loads directly in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`; it is plain [`Value`] JSON, so tests parse it back
//! with [`crate::json::parse`] and assert balance/monotonicity.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::Value;
use crate::trace::{FieldValue, Record, RecordKind, Sink};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// `pid` used for span/event records captured by [`ChromeTraceSink`].
pub const SPANS_PID: u64 = 1;
/// `pid` used for schedule renderings from [`schedule_trace`].
pub const SCHEDULE_PID: u64 = 2;
/// `pid` used for flight-recorder dumps ([`crate::recorder::to_chrome`]).
pub const FLIGHT_PID: u64 = 3;
/// `pid` used for per-request tracks when a [`ChromeTraceSink`] runs in
/// request-scoped mode ([`ChromeTraceSink::request_scoped`]); separate
/// from [`SPANS_PID`] so request ids never collide with thread indices.
pub const REQUESTS_PID: u64 = 4;
/// `pid` used for solver convergence counter tracks
/// ([`convergence_trace`]).
pub const CONVERGENCE_PID: u64 = 5;

/// One segment of a schedule, decoupled from `esched-types` (which
/// depends on this crate): the caller maps its own segment type into
/// this plain record. Times are in the schedule's own unit (seconds in
/// this workspace) and are scaled to microseconds by [`schedule_trace`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSegment {
    /// Task id (becomes the event name `task <id>`).
    pub task: usize,
    /// Core the segment runs on (becomes the trace `tid`).
    pub core: usize,
    /// Segment start time.
    pub start: f64,
    /// Segment end time.
    pub end: f64,
    /// Execution frequency (rendered as the per-core counter track).
    pub freq: f64,
}

struct ChromeInner {
    start: Instant,
    /// Known OS threads, in first-seen order; index = trace `tid`.
    threads: Vec<ThreadId>,
    /// Request ids seen while in request-scoped mode, first-seen order.
    requests: Vec<u64>,
    /// Group events by originating request instead of OS thread.
    request_scoped: bool,
    events: Vec<Value>,
}

/// A [`Sink`] that buffers trace-event JSON for the records it receives.
///
/// Install it with [`crate::trace::init_with`], run the workload, then
/// call [`ChromeTraceSink::to_json`] (after `trace::disable()` or once
/// all spans have closed — a still-open span would leave an unbalanced
/// `"B"`). Clones share the same buffer.
#[derive(Clone)]
pub struct ChromeTraceSink {
    inner: Arc<Mutex<ChromeInner>>,
}

impl Default for ChromeTraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl ChromeTraceSink {
    /// New empty sink; timestamps are measured from this call.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Mutex::new(ChromeInner {
                start: Instant::now(),
                threads: Vec::new(),
                requests: Vec::new(),
                request_scoped: false,
                events: Vec::new(),
            })),
        }
    }

    /// New empty sink in **request-scoped mode**: records produced while
    /// the emitting thread is inside a `RequestScope` land on a
    /// per-request track (`pid` [`REQUESTS_PID`], `tid` = request id)
    /// instead of the emitting OS thread's track. This is what keeps a
    /// stolen job's spans grouped with its originating request — under
    /// the work-stealing pool, the OS thread that *finishes* a request is
    /// not always the one that represents it. Records emitted outside
    /// any request scope fall back to thread tracks as in [`Self::new`].
    pub fn request_scoped() -> Self {
        let sink = Self::new();
        sink.inner
            .lock()
            .expect("chrome sink poisoned")
            .request_scoped = true;
        sink
    }

    /// Number of buffered trace events.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("chrome sink poisoned")
            .events
            .len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The buffered events as a complete Trace Event Format document.
    pub fn to_json(&self) -> Value {
        let inner = self.inner.lock().expect("chrome sink poisoned");
        let mut events: Vec<Value> = vec![process_name_event(SPANS_PID, "esched spans")];
        for (tid, _) in inner.threads.iter().enumerate() {
            events.push(thread_name_event(
                SPANS_PID,
                tid as u64,
                &format!("thread {tid}"),
            ));
        }
        if !inner.requests.is_empty() {
            events.push(process_name_event(REQUESTS_PID, "esched requests"));
            for &req in &inner.requests {
                events.push(thread_name_event(
                    REQUESTS_PID,
                    req,
                    &format!("request {req}"),
                ));
            }
        }
        events.extend(inner.events.iter().cloned());
        trace_document(events)
    }

    /// Write [`ChromeTraceSink::to_json`] to `path` as pretty JSON.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_string_pretty())
    }
}

impl Sink for ChromeTraceSink {
    fn record(&self, rec: &Record) {
        let thread = std::thread::current().id();
        let request = crate::ctx::current_request_raw();
        let mut inner = self.inner.lock().expect("chrome sink poisoned");
        let ts = inner.start.elapsed().as_nanos() as f64 / 1_000.0;
        // In request-scoped mode, records emitted inside a RequestScope
        // land on the request's own track — tid = request id under
        // REQUESTS_PID — so a job finished by a *stealing* worker still
        // groups with its originating request. Everything else (and every
        // record in plain mode) uses the emitting OS thread's track.
        let (pid, tid) = if inner.request_scoped && request != 0 {
            if !inner.requests.contains(&request) {
                inner.requests.push(request);
            }
            (REQUESTS_PID, request)
        } else {
            let tid = match inner.threads.iter().position(|&t| t == thread) {
                Some(i) => i,
                None => {
                    inner.threads.push(thread);
                    inner.threads.len() - 1
                }
            } as u64;
            (SPANS_PID, tid)
        };
        let mut ev = match &rec.kind {
            RecordKind::SpanEnter => {
                duration_event("B", &rec.name, &rec.target, ts, pid, tid, &rec.fields)
            }
            RecordKind::SpanExit { .. } => {
                duration_event("E", &rec.name, &rec.target, ts, pid, tid, &rec.fields)
            }
            RecordKind::Event => {
                let numeric = !rec.fields.is_empty()
                    && rec.fields.iter().all(|(_, v)| field_num(v).is_some());
                if numeric {
                    counter_event(pid, &rec.name, ts, tid, &rec.fields)
                } else {
                    instant_event(&rec.name, &rec.target, ts, pid, tid, &rec.fields)
                }
            }
        };
        // Tag with the originating request so downstream tooling (and
        // `merge`d documents) can regroup events regardless of mode.
        if request != 0 {
            if let Value::Obj(pairs) = &mut ev {
                pairs.push(("req".to_string(), Value::Num(request as f64)));
            }
        }
        inner.events.push(ev);
    }
}

/// Render a schedule as one Trace Event Format document: one trace
/// "thread" per core (named `core <k>`), one `"B"`/`"E"` pair per
/// segment, and a `core<k> freq` counter track that steps to the
/// segment's frequency at its start and back to zero at its end.
///
/// `time_scale_us` converts schedule time units to microseconds; the
/// workspace's schedules are in abstract seconds, so pass `1e6` (what
/// [`schedule_trace_seconds`] does). Events are emitted sorted by
/// timestamp (ends before counters before begins at equal times), so
/// per-`tid` timestamps are non-decreasing.
pub fn schedule_trace(cores: usize, segments: &[TraceSegment], time_scale_us: f64) -> Value {
    // (ts, rank, event): rank orders E(0) < C(1) < B(2) at equal times so
    // a gapless handover closes the outgoing segment before the next opens.
    let mut keyed: Vec<(f64, u8, Value)> = Vec::with_capacity(segments.len() * 4);
    for seg in segments {
        let t0 = seg.start * time_scale_us;
        let t1 = seg.end * time_scale_us;
        let name = format!("task {}", seg.task);
        let args = vec![("f".to_string(), Value::Num(seg.freq))];
        keyed.push((
            t0,
            2,
            event_obj(
                "B",
                &name,
                "schedule",
                t0,
                SCHEDULE_PID,
                seg.core as u64,
                args.clone(),
            ),
        ));
        keyed.push((
            t1,
            0,
            event_obj(
                "E",
                &name,
                "schedule",
                t1,
                SCHEDULE_PID,
                seg.core as u64,
                Vec::new(),
            ),
        ));
        let track = format!("core{} freq", seg.core);
        keyed.push((
            t0,
            2,
            event_obj(
                "C",
                &track,
                "schedule",
                t0,
                SCHEDULE_PID,
                seg.core as u64,
                vec![("f".to_string(), Value::Num(seg.freq))],
            ),
        ));
        keyed.push((
            t1,
            1,
            event_obj(
                "C",
                &track,
                "schedule",
                t1,
                SCHEDULE_PID,
                seg.core as u64,
                vec![("f".to_string(), Value::Num(0.0))],
            ),
        ));
    }
    keyed.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finite timestamps")
            .then(a.1.cmp(&b.1))
    });
    let mut events: Vec<Value> = vec![process_name_event(SCHEDULE_PID, "esched schedule")];
    for core in 0..cores {
        events.push(thread_name_event(
            SCHEDULE_PID,
            core as u64,
            &format!("core {core}"),
        ));
    }
    events.extend(keyed.into_iter().map(|(_, _, e)| e));
    trace_document(events)
}

/// [`schedule_trace`] for schedules whose times are in seconds.
pub fn schedule_trace_seconds(cores: usize, segments: &[TraceSegment]) -> Value {
    schedule_trace(cores, segments, 1e6)
}

/// One per-iteration sample of a solver run, decoupled from `esched-opt`
/// (which depends on this crate): the caller maps its own iteration-trace
/// type into this plain record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergencePoint {
    /// Iteration number (sweeps for block descent, Newton steps for the
    /// barrier method).
    pub iter: usize,
    /// Objective value at this iterate.
    pub objective: f64,
    /// Last known certified duality gap (may be `inf` before the first
    /// gap check; non-finite values are skipped in the rendering).
    pub gap: f64,
    /// Step size / step-quality scalar (solver-specific: step length for
    /// the gradient methods, `γ` for Frank–Wolfe, objective decrease for
    /// block descent, barrier `μ` progress for interior point).
    pub step: f64,
}

/// Render a solver's per-iteration trace as Chrome **counter tracks**
/// (`"C"` events under [`CONVERGENCE_PID`], one track each for objective,
/// gap, and step, named `<solver> <quantity>`), with the iteration number
/// as the time axis (1 iteration = 1 µs). Merge with a span capture via
/// [`merge`] to inspect convergence next to the run that produced it.
pub fn convergence_trace(solver: &str, points: &[ConvergencePoint]) -> Value {
    let mut events: Vec<Value> = vec![process_name_event(
        CONVERGENCE_PID,
        &format!("esched solver convergence: {solver}"),
    )];
    for p in points {
        let ts = p.iter as f64;
        for (quantity, v) in [("objective", p.objective), ("gap", p.gap), ("step", p.step)] {
            if !v.is_finite() {
                continue;
            }
            events.push(event_obj(
                "C",
                &format!("{solver} {quantity}"),
                "convergence",
                ts,
                CONVERGENCE_PID,
                0,
                vec![(quantity.to_string(), Value::Num(v))],
            ));
        }
    }
    trace_document(events)
}

/// Concatenate several Trace Event Format documents into one (e.g. a
/// [`ChromeTraceSink`] capture plus a [`schedule_trace`] rendering).
/// Inputs that are not documents produced by this module contribute no
/// events.
pub fn merge(traces: &[Value]) -> Value {
    let mut events = Vec::new();
    for t in traces {
        if let Some(Value::Arr(evs)) = t.get("traceEvents") {
            events.extend(evs.iter().cloned());
        }
    }
    trace_document(events)
}

pub(crate) fn trace_document(events: Vec<Value>) -> Value {
    Value::obj(vec![
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", Value::Str("ms".to_string())),
    ])
}

fn field_num(v: &FieldValue) -> Option<f64> {
    match v {
        FieldValue::U64(x) => Some(*x as f64),
        FieldValue::I64(x) => Some(*x as f64),
        FieldValue::F64(x) => Some(*x),
        FieldValue::Bool(_) | FieldValue::Str(_) => None,
    }
}

fn field_args(fields: &[(&'static str, FieldValue)]) -> Vec<(String, Value)> {
    fields
        .iter()
        .map(|(k, v)| {
            let jv = match v {
                FieldValue::U64(x) => Value::Num(*x as f64),
                FieldValue::I64(x) => Value::Num(*x as f64),
                FieldValue::F64(x) => Value::Num(*x),
                FieldValue::Bool(b) => Value::Bool(*b),
                FieldValue::Str(s) => Value::Str(s.clone()),
            };
            (k.to_string(), jv)
        })
        .collect()
}

pub(crate) fn event_obj(
    ph: &str,
    name: &str,
    cat: &str,
    ts: f64,
    pid: u64,
    tid: u64,
    args: Vec<(String, Value)>,
) -> Value {
    let mut pairs = vec![
        ("ph".to_string(), Value::Str(ph.to_string())),
        ("name".to_string(), Value::Str(name.to_string())),
        ("cat".to_string(), Value::Str(cat.to_string())),
        ("ts".to_string(), Value::Num(ts)),
        ("pid".to_string(), Value::Num(pid as f64)),
        ("tid".to_string(), Value::Num(tid as f64)),
    ];
    if !args.is_empty() {
        pairs.push(("args".to_string(), Value::Obj(args)));
    }
    Value::Obj(pairs)
}

fn duration_event(
    ph: &str,
    name: &str,
    target: &str,
    ts: f64,
    pid: u64,
    tid: u64,
    fields: &[(&'static str, FieldValue)],
) -> Value {
    event_obj(ph, name, target, ts, pid, tid, field_args(fields))
}

fn instant_event(
    name: &str,
    target: &str,
    ts: f64,
    pid: u64,
    tid: u64,
    fields: &[(&'static str, FieldValue)],
) -> Value {
    let mut ev = event_obj("i", name, target, ts, pid, tid, field_args(fields));
    if let Value::Obj(pairs) = &mut ev {
        // Instant scope: thread.
        pairs.push(("s".to_string(), Value::Str("t".to_string())));
    }
    ev
}

fn counter_event(
    pid: u64,
    name: &str,
    ts: f64,
    tid: u64,
    fields: &[(&'static str, FieldValue)],
) -> Value {
    let args = fields
        .iter()
        .filter_map(|(k, v)| field_num(v).map(|n| (k.to_string(), Value::Num(n))))
        .collect();
    event_obj("C", name, "counter", ts, pid, tid, args)
}

pub(crate) fn process_name_event(pid: u64, name: &str) -> Value {
    event_obj(
        "M",
        "process_name",
        "__metadata",
        0.0,
        pid,
        0,
        vec![("name".to_string(), Value::Str(name.to_string()))],
    )
}

pub(crate) fn thread_name_event(pid: u64, tid: u64, name: &str) -> Value {
    event_obj(
        "M",
        "thread_name",
        "__metadata",
        0.0,
        pid,
        tid,
        vec![("name".to_string(), Value::Str(name.to_string()))],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::trace::{disable, init_with, serial, Filter, Level};

    fn phases(doc: &Value) -> Vec<String> {
        doc.get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap().to_string())
            .collect()
    }

    #[test]
    fn sink_produces_balanced_b_e_pairs() {
        let _g = serial();
        let sink = ChromeTraceSink::new();
        init_with(Filter::parse("trace"), Arc::new(sink.clone()));
        {
            let _outer = crate::span!(Level::Info, "outer", n = 2usize);
            {
                let _inner = crate::span!(Level::Debug, "inner");
            }
            crate::event!(Level::Info, "note", msg = "hello");
            crate::event!(Level::Debug, "counters", a = 1usize, b = 2.5f64);
        }
        disable();
        let doc = sink.to_json();
        let text = doc.to_string_pretty();
        let parsed = parse(&text).unwrap();
        let ph = phases(&parsed);
        assert_eq!(ph.iter().filter(|p| *p == "B").count(), 2);
        assert_eq!(ph.iter().filter(|p| *p == "E").count(), 2);
        // The all-numeric event renders as a counter, the other as instant.
        assert_eq!(ph.iter().filter(|p| *p == "C").count(), 1);
        assert_eq!(ph.iter().filter(|p| *p == "i").count(), 1);
        // Timestamps are non-decreasing in emission order (one thread).
        let evs = parsed.get("traceEvents").unwrap().as_array().unwrap();
        let ts: Vec<f64> = evs
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() != Some("M"))
            .map(|e| e.get("ts").unwrap().as_f64().unwrap())
            .collect();
        assert!(
            ts.windows(2).all(|w| w[0] <= w[1]),
            "ts not monotonic: {ts:?}"
        );
    }

    #[test]
    fn schedule_trace_has_core_threads_and_freq_counters() {
        let segs = [
            TraceSegment {
                task: 0,
                core: 0,
                start: 0.0,
                end: 1.5,
                freq: 0.8,
            },
            TraceSegment {
                task: 1,
                core: 1,
                start: 0.5,
                end: 2.0,
                freq: 1.2,
            },
        ];
        let doc = schedule_trace_seconds(2, &segs);
        let parsed = parse(&doc.to_string_pretty()).unwrap();
        let evs = parsed.get("traceEvents").unwrap().as_array().unwrap();
        // 1 process_name + 2 thread_name + per segment (B + E + 2 C).
        assert_eq!(evs.len(), 3 + 4 * segs.len());
        let ph = phases(&parsed);
        assert_eq!(ph.iter().filter(|p| *p == "B").count(), 2);
        assert_eq!(ph.iter().filter(|p| *p == "E").count(), 2);
        assert_eq!(ph.iter().filter(|p| *p == "C").count(), 4);
        // Frequency counter carries the segment frequency at start.
        let c0 = evs
            .iter()
            .find(|e| {
                e.get("ph").unwrap().as_str() == Some("C")
                    && e.get("name").unwrap().as_str() == Some("core0 freq")
            })
            .unwrap();
        assert_eq!(
            c0.get("args").unwrap().get("f").unwrap().as_f64(),
            Some(0.8)
        );
    }

    #[test]
    fn request_scoped_sink_groups_by_request_not_thread() {
        let _g = serial();
        let sink = ChromeTraceSink::request_scoped();
        init_with(Filter::parse("trace"), Arc::new(sink.clone()));
        let req_a = crate::ctx::RequestId::next();
        let req_b = crate::ctx::RequestId::next();
        // Two requests on two different OS threads (as under a
        // work-stealing pool), plus one record outside any scope.
        std::thread::scope(|s| {
            s.spawn(|| {
                let _scope = crate::ctx::RequestScope::enter(req_a);
                let _span = crate::span!(Level::Info, "job");
            });
            s.spawn(|| {
                let _scope = crate::ctx::RequestScope::enter(req_b);
                let _span = crate::span!(Level::Info, "job");
            });
        });
        crate::event!(Level::Info, "outside", msg = "no scope");
        disable();
        let doc = sink.to_json();
        let parsed = parse(&doc.to_string_pretty()).unwrap();
        let evs = parsed.get("traceEvents").unwrap().as_array().unwrap();
        // Each request's B/E pair sits on tid = request id under the
        // requests pid, tagged with its req.
        for req in [req_a, req_b] {
            let mine: Vec<_> = evs
                .iter()
                .filter(|e| {
                    e.get("ph").unwrap().as_str() != Some("M")
                        && e.get("tid").unwrap().as_u64() == Some(req.as_u64())
                })
                .collect();
            assert_eq!(mine.len(), 2, "one B and one E for {req}");
            for e in mine {
                assert_eq!(e.get("pid").unwrap().as_u64(), Some(REQUESTS_PID));
                assert_eq!(e.get("req").unwrap().as_u64(), Some(req.as_u64()));
            }
        }
        // The out-of-scope event stays on a thread track with no req tag.
        let outside = evs
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("outside"))
            .unwrap();
        assert_eq!(outside.get("pid").unwrap().as_u64(), Some(SPANS_PID));
        assert!(outside.get("req").is_none());
        // Track metadata names both requests.
        let tracks: Vec<&str> = evs
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("thread_name"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
            })
            .collect();
        assert!(tracks.contains(&format!("request {}", req_a.as_u64()).as_str()));
    }

    #[test]
    fn convergence_trace_renders_counter_tracks() {
        let points = [
            ConvergencePoint {
                iter: 1,
                objective: 10.0,
                gap: f64::INFINITY,
                step: 1.0,
            },
            ConvergencePoint {
                iter: 2,
                objective: 8.0,
                gap: 0.5,
                step: 0.5,
            },
        ];
        let doc = convergence_trace("pgd", &points);
        let parsed = parse(&doc.to_string_pretty()).unwrap();
        let evs = parsed.get("traceEvents").unwrap().as_array().unwrap();
        let counters: Vec<_> = evs
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("C"))
            .collect();
        // Point 1 skips its non-finite gap: 3 + 2 counter samples.
        assert_eq!(counters.len(), 5);
        let gap = counters
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("pgd gap"))
            .unwrap();
        assert_eq!(gap.get("ts").unwrap().as_f64(), Some(2.0));
        assert_eq!(
            gap.get("args").unwrap().get("gap").unwrap().as_f64(),
            Some(0.5)
        );
        assert!(counters
            .iter()
            .all(|e| e.get("pid").unwrap().as_u64() == Some(CONVERGENCE_PID)));
    }

    #[test]
    fn merge_concatenates_events() {
        let a = schedule_trace_seconds(
            1,
            &[TraceSegment {
                task: 0,
                core: 0,
                start: 0.0,
                end: 1.0,
                freq: 1.0,
            }],
        );
        let b = schedule_trace_seconds(1, &[]);
        let merged = merge(&[a.clone(), b.clone()]);
        let na = a.get("traceEvents").unwrap().as_array().unwrap().len();
        let nb = b.get("traceEvents").unwrap().as_array().unwrap().len();
        assert_eq!(
            merged.get("traceEvents").unwrap().as_array().unwrap().len(),
            na + nb
        );
        // Junk input contributes nothing.
        assert_eq!(
            merge(&[Value::Num(3.0)])
                .get("traceEvents")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            0
        );
    }
}
