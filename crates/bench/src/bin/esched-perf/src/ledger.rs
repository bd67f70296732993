//! The per-layer ledger: spans recorded from outside the program around
//! each public call the engine makes, their self times, and the Perfetto
//! file they are written to.
//!
//! A span is named `<layer>.<call>` (or just `<layer>`), where the layer
//! is the workspace module the call lives in. Every traced operation is
//! one root span named `exec` with its own operation id; the root's self
//! time is the glue between layer calls, so per operation
//! `Σ layer self time + exec self time = exec wall time` exactly.

use crate::spec::{per_layer, Source, PER_LAYER};
use crate::stats::median;
use esched_obs::json::Value;
use esched_obs::metrics::{self, Metric, Snapshot};
use std::collections::BTreeMap;
use std::time::Instant;

/// Name of every operation's root span.
pub const ROOT: &str = "exec";

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, or [`ROOT`].
    pub name: &'static str,
    /// The operation (request or event) the span belongs to.
    pub op: u32,
    /// Index of the enclosing span in the recorder's span list.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The module the call belongs to: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Workspace counters read around each operation, and the per-layer
/// count each one feeds.
const COUNTERS: [(&str, &str); 7] = [
    (
        "esched.core.der_waterfill_capped",
        "allocation.capped_columns",
    ),
    (
        "esched.core.der_parallel_chunks",
        "allocation.parallel_chunks",
    ),
    ("esched.core.pack_items", "packing.items"),
    ("esched.core.pack_splits", "packing.splits"),
    ("esched.sim.events", "sim.events"),
    ("esched.sim.preemptions", "sim.preemptions"),
    ("esched.sim.migrations", "sim.migrations"),
];

/// Change of counter `name` between two registry snapshots (0 when the
/// counter has not been registered yet).
pub fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    let now = after.counter(name).unwrap_or(0);
    now.saturating_sub(before.counter(name).unwrap_or(0)) as f64
}

/// Change of histogram `name`'s sample sum between two snapshots.
pub fn histogram_sum_delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    let sum = |s: &Snapshot| match s.get(name) {
        Some(Metric::Histogram { sum, .. }) => *sum,
        _ => 0,
    };
    sum(after).saturating_sub(sum(before)) as f64
}

/// In-memory span store for one traced phase.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Index of the open root span while an operation runs.
    root: Option<usize>,
    ops: u32,
    /// Per-operation counts, keyed by per-layer metric name.
    counts: Vec<BTreeMap<&'static str, f64>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            root: None,
            ops: 0,
            counts: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run one operation under a fresh root span, reading the workspace
    /// counters before and after it (outside the span, so the reads cost
    /// the operation nothing).
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Recorder) -> T) -> T {
        assert!(self.root.is_none(), "operations do not nest");
        let before = metrics::snapshot();
        let op = self.ops;
        self.ops += 1;
        self.counts.push(BTreeMap::new());
        self.root = Some(self.spans.len());
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: ROOT,
            op,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        let out = f(self);
        let end_ns = self.now_ns();
        let root = self.root.take().expect("root span is open");
        self.spans[root].end_ns = end_ns;
        let after = metrics::snapshot();
        for (counter, name) in COUNTERS {
            self.count(name, counter_delta(&before, &after, counter));
        }
        out
    }

    /// Time one layer call inside the current operation.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let parent = self.root.expect("spans live inside an operation");
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.spans[parent].op,
            parent: Some(parent),
            start_ns,
            end_ns,
        });
        out
    }

    /// Add `value` to the current operation's count `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        let counts = self
            .counts
            .last_mut()
            .expect("counts live inside an operation");
        *counts.entry(name).or_insert(0.0) += value;
    }

    /// Operations recorded so far.
    pub fn ops(&self) -> usize {
        self.ops as usize
    }

    /// Wall time of each operation, in milliseconds.
    pub fn op_walls_ms(&self) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Mean over operations of count `name` (absent counts as 0).
    pub fn mean_count(&self, name: &str) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        let total = self
            .counts
            .iter()
            .filter_map(|c| c.get(name))
            .fold(0.0, |sum, v| sum + v);
        total / self.counts.len() as f64
    }

    /// The ledger of the recorded operations.
    pub fn ledger(&self) -> Ledger {
        Ledger::of(&self.spans, self.ops())
    }

    /// The spans as Chrome/Perfetto trace events of process `pid` named
    /// `process`: one complete (`"X"`) event per span, its layer as the
    /// category and its operation id as an argument.
    pub fn perfetto_events(&self, pid: usize, process: &str) -> Vec<Value> {
        let pid = Value::Num(pid as f64);
        let name = Value::obj(vec![
            ("name", Value::Str("process_name".to_string())),
            ("ph", Value::Str("M".to_string())),
            ("pid", pid.clone()),
            (
                "args",
                Value::obj(vec![("name", Value::Str(process.to_string()))]),
            ),
        ]);
        std::iter::once(name)
            .chain(self.spans.iter().map(|s| {
                Value::obj(vec![
                    ("name", Value::Str(s.name.to_string())),
                    ("cat", Value::Str(s.layer().to_string())),
                    ("ph", Value::Str("X".to_string())),
                    ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Num(s.dur_ns() as f64 / 1e3)),
                    ("pid", pid.clone()),
                    ("tid", Value::Num(1.0)),
                    (
                        "args",
                        Value::obj(vec![("op", Value::Num(f64::from(s.op)))]),
                    ),
                ])
            }))
            .collect()
    }
}

/// A Perfetto-loadable trace document holding `events`.
pub fn perfetto_doc(events: Vec<Value>) -> Value {
    Value::obj(vec![
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", Value::Str("ms".to_string())),
    ])
}

/// The per-layer metrics of a traced run, in table order: span self
/// times and counts from `rec`, values the workload `observed`, and the
/// tracing overhead against the `untraced_ms` operations replayed next to
/// the traced ones.
pub fn per_layer_metrics(
    rec: &Recorder,
    observed: &[(&'static str, f64)],
    untraced_ms: &[f64],
) -> Vec<(String, f64)> {
    for (name, _) in observed {
        assert!(
            per_layer(name).is_some_and(|m| m.source == Source::Observed),
            "{name} is not an observed per-layer metric"
        );
    }
    let ledger = rec.ledger();
    let under = |prefix: &'static str| {
        move |name: &str| {
            name.strip_prefix(prefix)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
        }
    };
    PER_LAYER
        .iter()
        .map(|m| {
            let value = match m.source {
                Source::SelfMs(prefix) => ledger.mean_ms(under(prefix)),
                Source::Count => rec.mean_count(m.name),
                Source::Observed => observed
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map_or(0.0, |(_, v)| *v),
                Source::Derived => match m.name {
                    "exec.wall_ms" => ledger.wall_ms(),
                    "exec.heuristics_ms" => ["subinterval", "ideal", "allocation", "refine"]
                        .iter()
                        .map(|layer| ledger.layer_ms(layer))
                        .sum(),
                    "opt.us_per_iter" => {
                        let iters = rec.mean_count("opt.iters");
                        if iters > 0.0 {
                            ledger.mean_ms(under("opt.solve")) * 1e3 / iters
                        } else {
                            0.0
                        }
                    }
                    "exec.trace_overhead_pct" => {
                        let untraced = median(untraced_ms);
                        if untraced > 0.0 {
                            (median(&rec.op_walls_ms()) / untraced - 1.0) * 100.0
                        } else {
                            0.0
                        }
                    }
                    other => unreachable!("no derivation for {other}"),
                },
            };
            (m.name.to_string(), value)
        })
        .collect()
}

/// Self time of every span: its duration minus the durations of its
/// direct children. Children run sequentially inside their parent, so
/// this is the part of the parent's interval no child covers.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per-operation self-time totals, summed by span name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Ledger {
    /// Operations covered.
    pub ops: usize,
    /// Total self time per span name, in nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Total wall time of the root spans, in nanoseconds.
    pub wall_ns: u64,
    /// Spans that end outside their parent or before they start, and
    /// children whose total exceeds their parent's duration: any of
    /// these breaks the reconciliation.
    pub malformed: usize,
}

impl Ledger {
    fn of(spans: &[Span], ops: usize) -> Self {
        let mut ledger = Ledger {
            ops,
            ..Ledger::default()
        };
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.end_ns < s.start_ns {
                ledger.malformed += 1;
                continue;
            }
            match s.parent {
                None => ledger.wall_ns += s.dur_ns(),
                Some(p) => {
                    let parent = &spans[p];
                    if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                        ledger.malformed += 1;
                    }
                    child_ns[p] += s.dur_ns();
                }
            }
        }
        for (s, &c) in spans.iter().zip(&child_ns) {
            if c > s.dur_ns() {
                ledger.malformed += 1;
            }
        }
        for (s, own) in spans.iter().zip(self_times_ns(spans)) {
            *ledger.self_ns.entry(s.name).or_insert(0) += own;
        }
        ledger
    }

    /// Mean self time per operation of the spans `select` accepts, in ms.
    pub fn mean_ms(&self, select: impl Fn(&str) -> bool) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        let ns: u64 = self
            .self_ns
            .iter()
            .filter(|(name, _)| select(name))
            .map(|(_, &ns)| ns)
            .sum();
        ns as f64 / 1e6 / self.ops as f64
    }

    /// Mean self time per operation of one layer, in ms.
    pub fn layer_ms(&self, layer: &str) -> f64 {
        self.mean_ms(|name| name.split('.').next() == Some(layer))
    }

    /// Mean wall time per operation, in ms.
    pub fn wall_ms(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.wall_ns as f64 / 1e6 / self.ops as f64
        }
    }

    /// Σ self times over every span minus the root walls, in ns: zero
    /// when the spans nest properly, which is what "the ledger
    /// reconciles" means.
    pub fn residual_ns(&self) -> i128 {
        let total: u64 = self.self_ns.values().sum();
        i128::from(total) - i128::from(self.wall_ns)
    }

    /// Whether every span nests and the layers add up to the wall time.
    pub fn reconciles(&self) -> bool {
        self.malformed == 0 && self.residual_ns() == 0
    }

    /// Per-layer rows `(layer, mean self ms, share of wall)`, largest
    /// first, for the printed table.
    pub fn rows(&self) -> Vec<(&'static str, f64, f64)> {
        let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (name, &ns) in &self.self_ns {
            let layer = name.split('.').next().unwrap_or(name);
            *by_layer.entry(layer).or_insert(0) += ns;
        }
        let wall = self.wall_ns.max(1) as f64;
        let ops = self.ops.max(1) as f64;
        let mut rows: Vec<_> = by_layer
            .into_iter()
            .map(|(layer, ns)| (layer, ns as f64 / 1e6 / ops, ns as f64 / wall))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // exec [0,100] ⊃ a [10,40], b [50,90]; b's time is not a's.
        let spans = vec![
            span(ROOT, None, 0, 100),
            span("allocation", Some(0), 10, 40),
            span("refine.final", Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 40]);
        let ledger = Ledger::of(&spans, 1);
        assert!(ledger.reconciles());
        assert_eq!(ledger.wall_ns, 100);
        assert_eq!(ledger.layer_ms("refine"), 40e-6);
        assert_eq!(ledger.layer_ms(ROOT), 30e-6);
        assert_eq!(ledger.rows()[0].0, "refine");
    }

    #[test]
    fn malformed_spans_break_the_reconciliation() {
        let escaping = vec![span(ROOT, None, 0, 100), span("ideal", Some(0), 90, 120)];
        assert!(!Ledger::of(&escaping, 1).reconciles());
        let overfull = vec![
            span(ROOT, None, 0, 100),
            span("ideal", Some(0), 0, 80),
            span("ideal", Some(0), 20, 100),
        ];
        assert!(!Ledger::of(&overfull, 1).reconciles());
    }

    #[test]
    fn recorded_operations_reconcile_and_render() {
        let mut rec = Recorder::default();
        for _ in 0..3 {
            rec.op(|rec| {
                rec.span("subinterval.build", || {
                    std::hint::black_box((0..1000).sum::<u64>())
                });
                rec.span("ideal", || std::hint::black_box((0..1000).product::<u64>()));
                rec.count("refine.segments", 2.0);
            });
        }
        let ledger = rec.ledger();
        assert_eq!(ledger.ops, 3);
        assert!(ledger.reconciles());
        assert_eq!(rec.op_walls_ms().len(), 3);
        assert_eq!(rec.mean_count("refine.segments"), 2.0);
        assert_eq!(rec.mean_count("packing.items"), 0.0);
        let events = rec.perfetto_events(1, "test");
        assert_eq!(events.len(), 10, "a process name plus nine spans");
        assert_eq!(
            events[2].get("cat").and_then(Value::as_str),
            Some("subinterval")
        );

        let metrics = per_layer_metrics(&rec, &[("opt.nec_f2", 1.25)], &[1.0, 2.0, 3.0]);
        let value = |name: &str| metrics.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(value("opt.nec_f2"), 1.25);
        assert_eq!(value("refine.segments"), 2.0);
        assert_eq!(value("sim.ms"), 0.0);
        let parts = value("subinterval.ms") + value("ideal.ms") + value("exec.overhead_ms");
        assert!((parts - value("exec.wall_ms")).abs() < 1e-12);
    }
}
