//! Zero-cost-when-disabled tracing spans and events.
//!
//! Modeled on the `tracing` crate's surface but reduced to what the
//! scheduling pipeline needs: leveled, targeted spans with typed fields,
//! wall-time measurement on span exit, and an `ESCHED_LOG`-style filter.
//!
//! The fast path is a single relaxed atomic load: [`enabled`] compares the
//! requested level against a global ceiling that is 0 (`off`) until a
//! subscriber is installed. The [`crate::span!`]/[`crate::event!`] macros
//! expand to an `if enabled(..)` guard, so field expressions are never
//! evaluated and no allocation happens while tracing is off or the filter
//! rejects the call site — pinned by the
//! `fields_are_evaluated_only_when_the_filter_passes` test below.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Verbosity level, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or surprising failures.
    Error = 1,
    /// Suspicious conditions (e.g. solver hit the iteration cap).
    Warn = 2,
    /// One line per pipeline stage.
    Info = 3,
    /// Per-phase details: allocation rounds, solver stop reasons.
    Debug = 4,
    /// Per-iteration firehose.
    Trace = 5,
}

impl Level {
    fn from_str_opt(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

/// A typed span/event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned counter.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v:.6}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v:?}"),
        }
    }
}

macro_rules! impl_from_field {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {
        $(impl From<$t> for FieldValue {
            fn from(v: $t) -> Self { FieldValue::$variant(v as $conv) }
        })*
    };
}
impl_from_field!(
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64,
    u64 => U64 as u64, usize => U64 as u64,
    i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64,
    i64 => I64 as i64, isize => I64 as i64,
    f32 => F64 as f64, f64 => F64 as f64,
);

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// What a [`Record`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A span was entered.
    SpanEnter,
    /// A span was exited; carries the elapsed wall time in nanoseconds.
    SpanExit {
        /// Elapsed wall time inside the span.
        elapsed_ns: u64,
    },
    /// A point-in-time event.
    Event,
}

/// One emitted trace record, as handed to a [`Sink`].
#[derive(Debug, Clone)]
pub struct Record {
    /// Severity.
    pub level: Level,
    /// Module path of the emitting code.
    pub target: String,
    /// Span or event name.
    pub name: String,
    /// Typed fields.
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Enter/exit/event.
    pub kind: RecordKind,
    /// Span nesting depth on this thread at emission time.
    pub depth: usize,
}

/// Where records go once the layer is enabled.
pub trait Sink: Send + Sync {
    /// Consume one record.
    fn record(&self, rec: &Record);
}

/// A sink that pretty-prints records to stderr, indented by span depth.
pub struct StderrSink;

impl Sink for StderrSink {
    fn record(&self, rec: &Record) {
        let indent = "  ".repeat(rec.depth);
        let mut fields = String::new();
        for (k, v) in &rec.fields {
            fields.push(' ');
            fields.push_str(k);
            fields.push('=');
            fields.push_str(&v.to_string());
        }
        let line = match rec.kind {
            RecordKind::SpanEnter => format!(
                "{indent}{:5} {}::{}{{{}}}",
                rec.level.as_str(),
                rec.target,
                rec.name,
                fields.trim_start()
            ),
            RecordKind::SpanExit { elapsed_ns } => format!(
                "{indent}{:5} {}::{} done in {:.3}ms{}",
                rec.level.as_str(),
                rec.target,
                rec.name,
                elapsed_ns as f64 / 1e6,
                fields
            ),
            RecordKind::Event => format!(
                "{indent}{:5} {}: {}{}",
                rec.level.as_str(),
                rec.target,
                rec.name,
                fields
            ),
        };
        eprintln!("{line}");
    }
}

/// A sink that buffers records in memory — used by tests and by the
/// harness when assembling run reports.
///
/// # Consumer contract
///
/// [`MemorySink::drain`] is an atomic swap: the buffer is emptied and its
/// contents returned in one step under the sink's lock, so **every record
/// is observed by exactly one `drain` call** even with concurrent
/// producers and multiple draining threads. What is *not* atomic is any
/// composition with [`MemorySink::len`]/[`MemorySink::is_empty`]: a
/// `len()`-then-`drain()` sequence can see more (producers appended) or
/// fewer (another consumer drained) records than `len()` reported. Treat
/// `len()` as advisory and size nothing off it; use the length of the
/// `Vec` that `drain()` returns, or [`MemorySink::snapshot`] for a
/// consistent read-only copy. The intended topology is a single consumer;
/// multiple consumers are safe (no loss, no duplication) but partition
/// the records between them.
#[derive(Default, Clone)]
pub struct MemorySink {
    records: Arc<Mutex<Vec<Record>>>,
}

impl MemorySink {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take everything recorded so far, leaving the buffer empty. Atomic:
    /// concurrent producers either land in the returned batch or in the
    /// fresh buffer, never both and never neither (see the type-level
    /// consumer contract).
    pub fn drain(&self) -> Vec<Record> {
        std::mem::take(&mut *self.records.lock().expect("sink poisoned"))
    }

    /// Copy of everything recorded so far, without consuming it. Unlike
    /// `len()` + indexed reads, the copy is internally consistent.
    pub fn snapshot(&self) -> Vec<Record> {
        self.records.lock().expect("sink poisoned").clone()
    }

    /// Number of buffered records. Advisory only: by the time the caller
    /// acts on it, producers or another consumer may have changed the
    /// buffer — pair producers/consumers through [`MemorySink::drain`]
    /// instead of `len()`-guarded reads.
    pub fn len(&self) -> usize {
        self.records.lock().expect("sink poisoned").len()
    }

    /// Is the buffer empty? Advisory, like [`MemorySink::len`].
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn record(&self, rec: &Record) {
        self.records
            .lock()
            .expect("sink poisoned")
            .push(rec.clone());
    }
}

/// One `target=level` directive of the filter.
#[derive(Debug, Clone, PartialEq)]
struct Directive {
    /// Target prefix (`esched_core`, `esched_opt::solver`, …); empty
    /// matches everything.
    prefix: String,
    level: Level,
}

/// A parsed `ESCHED_LOG`-style filter.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Filter {
    directives: Vec<Directive>,
}

impl Filter {
    /// Parse a filter string: a comma-separated list of `level` or
    /// `target=level` directives, e.g. `debug` or
    /// `esched_core=trace,esched_opt=info`. Unknown pieces are ignored.
    pub fn parse(spec: &str) -> Filter {
        let mut directives = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() || part.eq_ignore_ascii_case("off") {
                continue;
            }
            if let Some((target, level)) = part.split_once('=') {
                if let Some(level) = Level::from_str_opt(level) {
                    directives.push(Directive {
                        prefix: target.trim().to_string(),
                        level,
                    });
                }
            } else if let Some(level) = Level::from_str_opt(part) {
                directives.push(Directive {
                    prefix: String::new(),
                    level,
                });
            }
        }
        Filter { directives }
    }

    /// The most verbose level any directive allows (the global ceiling).
    fn max_level(&self) -> u8 {
        self.directives
            .iter()
            .map(|d| d.level as u8)
            .max()
            .unwrap_or(0)
    }

    /// Does this filter pass `level` for `target`?
    fn passes(&self, level: Level, target: &str) -> bool {
        let mut best: Option<(usize, Level)> = None;
        for d in &self.directives {
            if target.starts_with(d.prefix.as_str())
                && best.is_none_or(|(len, _)| d.prefix.len() >= len)
            {
                best = Some((d.prefix.len(), d.level));
            }
        }
        match best {
            Some((_, allowed)) => level <= allowed,
            None => false,
        }
    }
}

/// Global level ceiling; 0 = disabled. The only thing the fast path reads.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);

struct Subscriber {
    filter: Filter,
    sink: Arc<dyn Sink>,
}

fn subscriber() -> &'static Mutex<Option<Subscriber>> {
    static SUBSCRIBER: OnceLock<Mutex<Option<Subscriber>>> = OnceLock::new();
    SUBSCRIBER.get_or_init(|| Mutex::new(None))
}

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Is tracing enabled at `level` for `target`? The macro fast path: a
/// single relaxed atomic load when tracing is off.
#[inline]
pub fn enabled(level: Level, target: &str) -> bool {
    let ceiling = MAX_LEVEL.load(Ordering::Relaxed);
    if (level as u8) > ceiling {
        return false;
    }
    match &*subscriber().lock().expect("subscriber poisoned") {
        Some(sub) => sub.filter.passes(level, target),
        None => false,
    }
}

/// Install `sink` behind `filter`. Replaces any previous subscriber.
pub fn init_with(filter: Filter, sink: Arc<dyn Sink>) {
    let ceiling = filter.max_level();
    *subscriber().lock().expect("subscriber poisoned") = Some(Subscriber { filter, sink });
    MAX_LEVEL.store(ceiling, Ordering::Relaxed);
}

/// Install a stderr subscriber from the `ESCHED_LOG` environment variable.
/// Returns `true` when tracing ended up enabled. Unset, empty, or `off`
/// leaves tracing fully disabled.
pub fn init_from_env() -> bool {
    match std::env::var("ESCHED_LOG") {
        Ok(spec) => init_from_spec(&spec),
        Err(_) => false,
    }
}

/// Install a stderr subscriber from a filter string (see [`Filter::parse`]).
pub fn init_from_spec(spec: &str) -> bool {
    let filter = Filter::parse(spec);
    if filter.max_level() == 0 {
        disable();
        return false;
    }
    init_with(filter, Arc::new(StderrSink));
    true
}

/// Turn tracing off and drop the subscriber.
pub fn disable() {
    MAX_LEVEL.store(0, Ordering::Relaxed);
    *subscriber().lock().expect("subscriber poisoned") = None;
}

fn dispatch(rec: &Record) {
    if let Some(sub) = &*subscriber().lock().expect("subscriber poisoned") {
        if sub.filter.passes(rec.level, &rec.target) {
            sub.sink.record(rec);
        }
    }
}

/// Emit a point-in-time event. Use via the [`crate::event!`] macro.
pub fn emit_event(level: Level, target: &str, name: &str, fields: Vec<(&'static str, FieldValue)>) {
    dispatch(&Record {
        level,
        target: target.to_string(),
        name: name.to_string(),
        fields,
        kind: RecordKind::Event,
        depth: DEPTH.with(|d| d.get()),
    });
}

/// An RAII span guard: emits an enter record on creation and an exit
/// record (with elapsed wall time) on drop. Obtained via [`crate::span!`].
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    level: Level,
    target: &'static str,
    name: &'static str,
    start: Instant,
}

impl Span {
    /// The no-op span returned while tracing is disabled.
    #[inline]
    pub fn disabled() -> Span {
        Span { inner: None }
    }

    /// Enter a span (the enabled path of the [`crate::span!`] macro).
    pub fn enter(
        level: Level,
        target: &'static str,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) -> Span {
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        dispatch(&Record {
            level,
            target: target.to_string(),
            name: name.to_string(),
            fields,
            kind: RecordKind::SpanEnter,
            depth,
        });
        Span {
            inner: Some(SpanInner {
                level,
                target,
                name,
                start: Instant::now(),
            }),
        }
    }

    /// Attach late fields to the exit record by emitting an event inside
    /// the span (fields computed mid-span, e.g. iteration counts).
    pub fn record(&self, name: &str, fields: Vec<(&'static str, FieldValue)>) {
        if let Some(inner) = &self.inner {
            emit_event(inner.level, inner.target, name, fields);
        }
    }

    /// Is this span live (tracing was enabled when it was created)?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let depth = DEPTH.with(|d| {
                let v = d.get().saturating_sub(1);
                d.set(v);
                v
            });
            dispatch(&Record {
                level: inner.level,
                target: inner.target.to_string(),
                name: inner.name.to_string(),
                fields: Vec::new(),
                kind: RecordKind::SpanExit {
                    elapsed_ns: inner.start.elapsed().as_nanos() as u64,
                },
                depth,
            });
        }
    }
}

/// Open a leveled span with typed fields. Returns a [`Span`] guard; bind
/// it (`let _span = span!(…)`) so it stays open for the scope.
///
/// ```
/// use esched_obs::{span, Level};
/// let _s = span!(Level::Debug, "allocation", n_tasks = 20usize, cores = 4usize);
/// ```
#[macro_export]
macro_rules! span {
    ($level:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::trace::enabled($level, module_path!()) {
            $crate::trace::Span::enter(
                $level,
                module_path!(),
                $name,
                vec![$((stringify!($key), $crate::trace::FieldValue::from($val))),*],
            )
        } else {
            $crate::trace::Span::disabled()
        }
    };
}

/// Emit a leveled point event with typed fields.
///
/// ```
/// use esched_obs::{event, Level};
/// event!(Level::Warn, "solver hit iteration cap", iters = 5000usize);
/// ```
#[macro_export]
macro_rules! event {
    ($level:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::trace::enabled($level, module_path!()) {
            $crate::trace::emit_event(
                $level,
                module_path!(),
                $name,
                vec![$((stringify!($key), $crate::trace::FieldValue::from($val))),*],
            );
        }
    };
}

/// The subscriber is global; unit tests that install one (here and in
/// [`crate::chrome`]) must not run concurrently with each other or with
/// tests that assume tracing is off. This lock serializes them.
#[cfg(test)]
pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_cheap() {
        let _g = serial();
        disable();
        assert!(!enabled(Level::Error, "esched_core"));
        let span = crate::span!(Level::Info, "noop", x = 1usize);
        assert!(!span.is_enabled());
    }

    #[test]
    fn filter_parsing_and_matching() {
        let f = Filter::parse("esched_core=debug,esched_opt=trace,info");
        assert_eq!(f.max_level(), Level::Trace as u8);
        assert!(f.passes(Level::Debug, "esched_core::allocation"));
        assert!(!f.passes(Level::Trace, "esched_core::allocation"));
        assert!(f.passes(Level::Trace, "esched_opt::gradient"));
        // Bare level applies to unmatched targets.
        assert!(f.passes(Level::Info, "esched_sim::engine"));
        assert!(!f.passes(Level::Debug, "esched_sim::engine"));
        // `off` and garbage disable nothing but parse cleanly.
        assert_eq!(Filter::parse("off").max_level(), 0);
        assert_eq!(Filter::parse("nonsense").max_level(), 0);
    }

    #[test]
    fn spans_and_events_reach_the_sink() {
        let _g = serial();
        let sink = MemorySink::new();
        init_with(Filter::parse("trace"), Arc::new(sink.clone()));
        {
            let span = crate::span!(Level::Debug, "outer", n = 3usize);
            assert!(span.is_enabled());
            crate::event!(Level::Info, "midpoint", progress = 0.5f64);
        }
        disable();
        let recs = sink.drain();
        assert_eq!(recs.len(), 3); // enter, event, exit
        assert_eq!(recs[0].kind, RecordKind::SpanEnter);
        assert_eq!(recs[0].fields, vec![("n", FieldValue::U64(3))]);
        assert_eq!(recs[1].kind, RecordKind::Event);
        assert_eq!(recs[1].depth, 1); // nested inside the span
        assert!(matches!(recs[2].kind, RecordKind::SpanExit { .. }));
    }

    #[test]
    fn fields_are_evaluated_only_when_the_filter_passes() {
        let _g = serial();
        let span_evals = Cell::new(0usize);
        let event_evals = Cell::new(0usize);
        let fire = || {
            let _span = crate::span!(
                Level::Debug,
                "lazy",
                n = span_evals.replace(span_evals.get() + 1)
            );
            crate::event!(
                Level::Debug,
                "lazy",
                n = event_evals.replace(event_evals.get() + 1)
            );
        };

        disable();
        fire();
        assert_eq!((span_evals.get(), event_evals.get()), (0, 0), "disabled");

        // A level the filter rejects, then a target it rejects.
        for spec in ["warn", "some_other_crate=trace"] {
            let sink = MemorySink::new();
            init_with(Filter::parse(spec), Arc::new(sink.clone()));
            fire();
            disable();
            assert_eq!((span_evals.get(), event_evals.get()), (0, 0), "{spec}");
            assert!(sink.is_empty(), "{spec}");
        }

        // Scoped to this module, so spans other tests emit concurrently
        // (the pool's `engine_batch`) stay out of the sink.
        let sink = MemorySink::new();
        init_with(
            Filter::parse("esched_obs::trace=debug"),
            Arc::new(sink.clone()),
        );
        fire();
        disable();
        assert_eq!((span_evals.get(), event_evals.get()), (1, 1), "debug");
        assert_eq!(sink.len(), 3); // enter, event, exit
    }

    #[test]
    fn filter_blocks_unmatched_targets() {
        let _g = serial();
        let sink = MemorySink::new();
        init_with(
            Filter::parse("some_other_crate=trace"),
            Arc::new(sink.clone()),
        );
        crate::event!(Level::Info, "should not appear");
        disable();
        assert!(sink.is_empty());
    }

    #[test]
    fn init_from_spec_round_trip() {
        let _g = serial();
        assert!(!init_from_spec("off"));
        assert!(!enabled(Level::Error, "x"));
        assert!(init_from_spec("warn"));
        assert!(enabled(Level::Warn, "anything"));
        assert!(!enabled(Level::Info, "anything"));
        disable();
    }

    #[test]
    fn drain_is_an_atomic_swap_every_record_observed_once() {
        // Exercises the documented consumer contract directly against the
        // Sink impl (no global subscriber): concurrent producers plus a
        // concurrent drainer must neither lose nor duplicate records.
        let sink = MemorySink::new();
        let per_thread = 400usize;
        let n_producers = 4usize;
        let drained = std::thread::scope(|s| {
            for t in 0..n_producers {
                let sink = sink.clone();
                s.spawn(move || {
                    for k in 0..per_thread {
                        sink.record(&Record {
                            level: Level::Info,
                            target: "contract".to_string(),
                            name: format!("{t}:{k}"),
                            fields: Vec::new(),
                            kind: RecordKind::Event,
                            depth: 0,
                        });
                    }
                });
            }
            let sink = sink.clone();
            s.spawn(move || {
                let mut got = Vec::new();
                for _ in 0..50 {
                    got.extend(sink.drain());
                    std::thread::yield_now();
                }
                got
            })
            .join()
            .expect("drainer panicked")
        });
        let mut names: Vec<String> = drained
            .into_iter()
            .chain(sink.drain())
            .map(|r| r.name)
            .collect();
        assert_eq!(names.len(), n_producers * per_thread, "records lost");
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n_producers * per_thread, "records duplicated");
        assert!(sink.is_empty());
    }

    #[test]
    fn snapshot_does_not_consume() {
        let sink = MemorySink::new();
        sink.record(&Record {
            level: Level::Info,
            target: "t".to_string(),
            name: "a".to_string(),
            fields: Vec::new(),
            kind: RecordKind::Event,
            depth: 0,
        });
        assert_eq!(sink.snapshot().len(), 1);
        assert_eq!(sink.snapshot().len(), 1);
        assert_eq!(sink.drain().len(), 1);
        assert!(sink.snapshot().is_empty());
    }

    #[test]
    fn field_value_conversions() {
        assert_eq!(FieldValue::from(3usize), FieldValue::U64(3));
        assert_eq!(FieldValue::from(-2i64), FieldValue::I64(-2));
        assert_eq!(FieldValue::from(0.5f64), FieldValue::F64(0.5));
        assert_eq!(FieldValue::from(true), FieldValue::Bool(true));
        assert_eq!(FieldValue::from("x"), FieldValue::Str("x".into()));
    }
}
