//! The benchmark's tables: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with where each comes from.
//! `BENCHMARK.json` at the repository root states the same tables; a unit
//! test keeps the two equal.

/// Whether a larger or a smaller value is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old`
    /// (negative when it is better).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        let delta = match self {
            Better::Lower => new - old,
            Better::Higher => old - new,
        };
        delta / old.abs().max(f64::MIN_POSITIVE)
    }
}

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// CLI and report name.
    pub name: &'static str,
    /// Why the benchmark runs it.
    pub why: &'static str,
}

/// The four workloads, in run order.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "plan-65k",
        why: "Offline planning at scale: DER, refine/pack and sim on 65,536 tasks, no solver; a working set larger than L2.",
    },
    WorkloadSpec {
        name: "replan-1k",
        why: "Open-loop online replanning at 80 events/s on 1,024 dense tasks; patch and repair paths only, no refine/pack/sim.",
    },
    WorkloadSpec {
        name: "certify-256",
        why: "Time to a KKT-certified E^OPT with pool-parallel ADMM on 256 tasks; the solver dominates, heuristics are minor.",
    },
    WorkloadSpec {
        name: "sweep-fig10",
        why: "Figure 10 regeneration: batches of tiny dense instances on the pool, where dispatch and small PGD solves dominate.",
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric, measured with tracing off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which it may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// Every end-to-end metric. Every workload reports all of them.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "energy_over_ideal",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.08,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// The end-to-end metric called `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Where a per-layer value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Mean self time per traced operation of the spans named by this
    /// prefix: a layer (`allocation`) or one call (`refine.assign`).
    SelfMs(&'static str),
    /// Mean per-operation count recorded under the metric's name.
    Count,
    /// Reported by the workload under the metric's name.
    Observed,
    /// Computed from the other values when the ledger is assembled.
    Derived,
}

/// A per-layer metric, measured in the traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    /// `<layer>.<quantity>`, the layer being the workspace module.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// How the value is obtained.
    pub source: Source,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, source: Source) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
    }
}

use Better::{Higher, Lower};
use Source::{Count, Derived, Observed, SelfMs};

/// Every per-layer metric. Every workload reports all of them; a layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [PerLayer; 42] = [
    layer("subinterval.ms", "ms", Lower, SelfMs("subinterval")),
    layer("subinterval.subintervals", "count", Lower, Count),
    layer("subinterval.cells", "count", Lower, Count),
    layer("subinterval.patch_ratio", "ratio", Higher, Observed),
    layer("ideal.ms", "ms", Lower, SelfMs("ideal")),
    layer("allocation.ms", "ms", Lower, SelfMs("allocation")),
    layer("allocation.capped_columns", "count", Lower, Count),
    layer("allocation.parallel_chunks", "count", Higher, Count),
    layer("allocation.dirty_ratio", "ratio", Lower, Observed),
    layer("allocation.fallback_ratio", "ratio", Lower, Observed),
    layer("refine.ms", "ms", Lower, SelfMs("refine")),
    layer("refine.assign_ms", "ms", Lower, SelfMs("refine.assign")),
    layer(
        "refine.intermediate_ms",
        "ms",
        Lower,
        SelfMs("refine.intermediate"),
    ),
    layer("refine.final_ms", "ms", Lower, SelfMs("refine.final")),
    layer("refine.segments", "count", Lower, Count),
    layer("packing.items", "count", Lower, Count),
    layer("packing.splits", "count", Lower, Count),
    layer("opt.solve_ms", "ms", Lower, SelfMs("opt.solve")),
    layer("opt.kkt_ms", "ms", Lower, SelfMs("opt.kkt")),
    layer("opt.iters", "count", Lower, Count),
    layer("opt.us_per_iter", "us/iter", Lower, Derived),
    layer("opt.nec_f2", "ratio", Lower, Observed),
    layer("sim.ms", "ms", Lower, SelfMs("sim")),
    layer("sim.events", "count", Lower, Count),
    layer("sim.preemptions", "count", Lower, Count),
    layer("sim.migrations", "count", Lower, Count),
    layer("online.task_set_ms", "ms", Lower, SelfMs("online")),
    layer("online.service_p50_ms", "ms", Lower, Observed),
    layer("online.service_p99_ms", "ms", Lower, Observed),
    layer("online.service_arrive_p50_ms", "ms", Lower, Observed),
    layer("online.service_complete_p50_ms", "ms", Lower, Observed),
    layer("online.service_shift_p50_ms", "ms", Lower, Observed),
    layer("online.capacity_eps", "1/s", Higher, Observed),
    layer("loadgen.late_max_ms", "ms", Lower, Observed),
    layer("loadgen.backlog_max", "count", Lower, Observed),
    layer("pool.jobs", "count", Lower, Observed),
    layer("pool.steals", "count", Lower, Observed),
    layer("pool.utilization", "ratio", Higher, Observed),
    layer("exec.wall_ms", "ms", Lower, Derived),
    layer("exec.overhead_ms", "ms", Lower, SelfMs("exec")),
    layer("exec.heuristics_ms", "ms", Lower, Derived),
    layer("exec.trace_overhead_pct", "%", Lower, Derived),
];

/// The per-layer metric called `name`.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Unit of any metric, end-to-end or per-layer.
pub fn unit(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| per_layer(name).map(|m| m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use esched_obs::json::{parse, Value};

    /// `BENCHMARK.json` at the repository root.
    const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

    fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        doc.get(key).and_then(Value::as_array).unwrap_or(&[])
    }

    fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
        entry.get(key).and_then(Value::as_str).unwrap_or_default()
    }

    #[test]
    fn benchmark_json_states_the_same_tables() {
        let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads: Vec<(&str, &str)> = entries(&doc, "workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let want: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, want);

        let e2e: Vec<(&str, &str, &str, f64)> = entries(&doc, "end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(f64::NAN);
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let want: Vec<(&str, &str, &str, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better.name(), m.bound))
            .collect();
        assert_eq!(e2e, want);

        let layers: Vec<(&str, &str, &str)> = entries(&doc, "per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let want: Vec<(&str, &str, &str)> = PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better.name()))
            .collect();
        assert_eq!(layers, want);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
    }

    #[test]
    fn worsening_respects_the_direction() {
        assert_eq!(Better::Lower.worsening(10.0, 11.0), 0.1);
        assert_eq!(Better::Higher.worsening(10.0, 11.0), -0.1);
        assert_eq!(Better::Higher.worsening(10.0, 8.0), 0.2);
    }
}
