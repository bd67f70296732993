//! The JSON report a run writes, and `compare` over two of them.

use crate::host::Host;
use crate::spec;
use crate::workloads::Tally;
use esched_obs::json::{self, Value};

/// Identifies the report layout.
const SCHEMA: &str = "esched-perf/1";

/// How the traced replay compares with the untraced engine.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerSummary {
    /// Traced operations.
    pub ops: usize,
    /// Σ layer self time − Σ operation wall, in ns; 0 when the ledger
    /// reconciles.
    pub residual_ns: f64,
    /// Whether every span nests and the layers add up to the wall time.
    pub reconciles: bool,
    /// Median traced operation, in ms.
    pub traced_p50_ms: f64,
    /// Median untraced operation replayed next to it, in ms.
    pub untraced_p50_ms: f64,
    /// `(layer, mean self ms per operation, share of wall)`, largest first.
    pub layers: Vec<(String, f64, f64)>,
}

impl LedgerSummary {
    /// Tracing overhead: traced over untraced median, minus one, in %.
    pub fn overhead_pct(&self) -> f64 {
        (self.traced_p50_ms / self.untraced_p50_ms - 1.0) * 100.0
    }

    fn to_json(&self) -> Value {
        let layers = self
            .layers
            .iter()
            .map(|(l, ms, share)| {
                Value::obj(vec![
                    ("layer", Value::Str(l.clone())),
                    ("self_ms", Value::Num(*ms)),
                    ("share", Value::Num(*share)),
                ])
            })
            .collect();
        Value::obj(vec![
            ("ops", Value::Num(self.ops as f64)),
            ("residual_ns", Value::Num(self.residual_ns)),
            ("reconciles", Value::Bool(self.reconciles)),
            ("traced_p50_ms", Value::Num(self.traced_p50_ms)),
            ("untraced_p50_ms", Value::Num(self.untraced_p50_ms)),
            ("overhead_pct", Value::Num(self.overhead_pct())),
            ("layers", Value::Arr(layers)),
        ])
    }

    fn from_json(v: &Value) -> Option<Self> {
        let num = |k: &str| v.get(k).and_then(Value::as_f64);
        let layers = v
            .get("layers")?
            .as_array()?
            .iter()
            .map(|row| {
                Some((
                    row.get("layer")?.as_str()?.to_string(),
                    row.get("self_ms")?.as_f64()?,
                    row.get("share")?.as_f64()?,
                ))
            })
            .collect::<Option<_>>()?;
        Some(Self {
            ops: v.get("ops")?.as_u64()? as usize,
            residual_ns: num("residual_ns")?,
            reconciles: v.get("reconciles")?.as_bool()?,
            traced_p50_ms: num("traced_p50_ms")?,
            untraced_p50_ms: num("untraced_p50_ms")?,
            layers,
        })
    }
}

/// One workload's part of a report.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Operations and failed checks.
    pub tally: Tally,
    /// FNV-1a digest of the canonical outcome JSON of the fixed input set.
    pub digest: String,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// `(metric, value)`: the end-to-end metrics, or in a traced run the
    /// per-layer ones, in table order.
    pub metrics: Vec<(String, f64)>,
    /// The traced replay's reconciliation, in a traced run.
    pub ledger: Option<LedgerSummary>,
}

impl WorkloadResult {
    /// No check failed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// `{"name": {"value": v, "unit": u}, …}`.
    pub fn metrics_json(&self) -> Value {
        Value::Obj(
            self.metrics
                .iter()
                .map(|(name, value)| {
                    let unit = spec::unit(name).unwrap_or("");
                    (
                        name.clone(),
                        Value::obj(vec![
                            ("value", Value::Num(*value)),
                            ("unit", Value::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("name", Value::Str(self.name.clone())),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.tally.attempted as f64)),
            ("failed", Value::Num(self.tally.failed as f64)),
            (
                "failures",
                Value::Arr(
                    self.tally
                        .failures
                        .iter()
                        .cloned()
                        .map(Value::Str)
                        .collect(),
                ),
            ),
            ("digest", Value::Str(self.digest.clone())),
            ("samples", Value::Num(self.samples as f64)),
            ("metrics", self.metrics_json()),
            (
                "ledger",
                self.ledger
                    .as_ref()
                    .map_or(Value::Null, LedgerSummary::to_json),
            ),
        ])
    }

    fn from_json(v: &Value) -> Option<Self> {
        let metrics = match v.get("metrics")? {
            Value::Obj(pairs) => pairs
                .iter()
                .map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect::<Option<_>>()?,
            _ => return None,
        };
        let failures = v
            .get("failures")?
            .as_array()?
            .iter()
            .map(|f| f.as_str().map(str::to_string))
            .collect::<Option<_>>()?;
        Some(Self {
            name: v.get("name")?.as_str()?.to_string(),
            tally: Tally {
                attempted: v.get("attempted")?.as_u64()?,
                failed: v.get("failed")?.as_u64()?,
                failures,
            },
            digest: v.get("digest")?.as_str()?.to_string(),
            samples: v.get("samples")?.as_u64()? as usize,
            metrics,
            ledger: match v.get("ledger")? {
                Value::Null => None,
                l => Some(LedgerSummary::from_json(l)?),
            },
        })
    }
}

/// Everything one invocation measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The input seed.
    pub seed: u64,
    /// Measured seconds per workload.
    pub seconds: f64,
    /// Whether this was a traced (per-layer) run.
    pub traced: bool,
    /// What it ran on.
    pub host: Host,
    /// One entry per workload, in run order.
    pub workloads: Vec<WorkloadResult>,
}

impl Report {
    /// JSON form.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("schema", Value::Str(SCHEMA.to_string())),
            ("seed", Value::Num(self.seed as f64)),
            ("seconds", Value::Num(self.seconds)),
            ("traced", Value::Bool(self.traced)),
            ("host", self.host.to_json()),
            (
                "workloads",
                Value::Arr(self.workloads.iter().map(WorkloadResult::to_json).collect()),
            ),
        ])
    }

    /// Parse [`Report::to_json`] output.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        if v.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Err(format!("not an {SCHEMA} report"));
        }
        let parse = || {
            Some(Self {
                seed: v.get("seed")?.as_u64()?,
                seconds: v.get("seconds")?.as_f64()?,
                traced: v.get("traced")?.as_bool()?,
                host: Host::from_json(v.get("host")?)?,
                workloads: v
                    .get("workloads")?
                    .as_array()?
                    .iter()
                    .map(WorkloadResult::from_json)
                    .collect::<Option<_>>()?,
            })
        };
        parse().ok_or_else(|| "malformed report".to_string())
    }

    /// Read a report file.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        Self::from_json(&doc).map_err(|e| format!("{path}: {e}"))
    }
}

/// Compare `new` against `base`: one line per metric × workload with its
/// change against its bound. Returns the lines and whether every bound
/// held and nothing failed. Digest mismatches are flagged; they fail
/// nothing by themselves, because a change may alter outputs on purpose.
pub fn compare(base: &Report, new: &Report) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut ok = true;
    if base.traced || new.traced {
        lines.push("note: traced reports hold per-layer metrics, which have no bounds".to_string());
    }
    for w in &new.workloads {
        let Some(b) = base.workloads.iter().find(|b| b.name == w.name) else {
            lines.push(format!("{}: not in the base report", w.name));
            continue;
        };
        if w.tally.failed > 0 {
            ok = false;
            lines.push(format!(
                "{}: {} failed checks  EXCEEDED (bound 0)",
                w.name, w.tally.failed
            ));
        }
        if w.digest != b.digest {
            let why = if base.seed == new.seed && base.seconds == new.seconds {
                "outputs differ"
            } else {
                "different seed or run length"
            };
            lines.push(format!(
                "{}: digest {} -> {}  FLAG ({why})",
                w.name, b.digest, w.digest
            ));
        }
        for (name, value) in &w.metrics {
            let Some(&(_, old)) = b.metrics.iter().find(|(n, _)| n == name) else {
                continue;
            };
            let unit = spec::unit(name).unwrap_or("");
            match spec::end_to_end(name) {
                Some(m) => {
                    let worse = m.better.worsening(old, *value);
                    let exceeded = worse > m.bound;
                    ok &= !exceeded;
                    lines.push(format!(
                        "{:<12} {:<18} {:>12.4} -> {:>12.4} {:<5} {:>+7.1}% worse (bound {:.0}%){}",
                        w.name,
                        name,
                        old,
                        value,
                        unit,
                        worse * 100.0,
                        m.bound * 100.0,
                        if exceeded { "  EXCEEDED" } else { "" }
                    ));
                }
                None => lines.push(format!(
                    "{:<12} {:<32} {:>12.4} -> {:>12.4} {unit}",
                    w.name, name, old, value
                )),
            }
        }
    }
    (lines, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host {
            nproc: 2,
            cpu_model: "Test CPU".to_string(),
            rustc: "rustc 1.0.0".to_string(),
            workers: 2,
            engine_threads_env: Some("2".to_string()),
            git_sha: "abc1234".to_string(),
        }
    }

    fn report(p50: f64, digest: &str, ledger: Option<LedgerSummary>) -> Report {
        Report {
            seed: 1,
            seconds: 20.0,
            traced: ledger.is_some(),
            host: host(),
            workloads: vec![WorkloadResult {
                name: "plan-65k".to_string(),
                tally: Tally {
                    attempted: 25,
                    failed: 0,
                    failures: vec![],
                },
                digest: digest.to_string(),
                samples: 25,
                metrics: vec![
                    ("latency_p50_ms".to_string(), p50),
                    ("throughput_per_s".to_string(), 1.625),
                ],
                ledger,
            }],
        }
    }

    #[test]
    fn report_json_round_trips() {
        let ledger = LedgerSummary {
            ops: 7,
            residual_ns: 0.0,
            reconciles: true,
            traced_p50_ms: 612.5,
            untraced_p50_ms: 600.25,
            layers: vec![("sim".to_string(), 330.125, 0.5)],
        };
        for r in [
            report(600.0, "fnv1a64:00", None),
            report(0.1, "x", Some(ledger)),
        ] {
            let text = r.to_json().to_string_pretty();
            let back = Report::from_json(&json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, r);
        }
        assert!(Report::from_json(&Value::obj(vec![])).is_err());
    }

    #[test]
    fn compare_gates_on_bounds_and_flags_digests() {
        let base = report(600.0, "fnv1a64:aa", None);
        let (_, ok) = compare(&base, &report(690.0, "fnv1a64:aa", None));
        assert!(ok, "15% slower is inside the 25% bound");
        let (lines, ok) = compare(&base, &report(780.0, "fnv1a64:bb", None));
        assert!(!ok, "30% slower exceeds the bound");
        assert!(lines.iter().any(|l| l.contains("EXCEEDED")));
        assert!(lines.iter().any(|l| l.contains("FLAG (outputs differ)")));
        let mut failing = report(600.0, "fnv1a64:aa", None);
        failing.workloads[0].tally.failed = 1;
        assert!(!compare(&base, &failing).1);
    }
}
