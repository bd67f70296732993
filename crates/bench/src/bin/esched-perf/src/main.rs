//! `esched-perf` — the end-to-end benchmark of the esched workspace.
//!
//! ```text
//! esched-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|PATH] [--out PATH]
//! esched-perf compare BASE.json NEW.json
//! ```
//!
//! Without `--workload` it runs every workload in turn, in one process.
//! `--trace 0` (the default) measures the end-to-end metrics with tracing
//! off. `--trace 1`, or a path, spends half the time on the same untraced
//! loop and half replaying operations through the traced mirror, and
//! reports the per-layer metrics; the spans go to PATH or next to the
//! report as a Perfetto trace. The last line of standard output is a JSON
//! object: `correct`, `attempted`, `failed` and the metrics with units.
//! The full report (host block, digests, ledger) is written to `--out`,
//! by default under `target/esched-perf/`. Any failed check makes the
//! exit code nonzero.
//!
//! `compare` prints every metric × workload change between two reports
//! against its bound and exits nonzero when a bound is exceeded.

mod check;
mod host;
mod ledger;
mod mirror;
mod report;
mod spec;
mod stats;
mod workloads;

use esched_obs::json::Value;
use host::Host;
use ledger::Recorder;
use report::{LedgerSummary, Report, WorkloadResult};
use spec::{WorkloadSpec, END_TO_END, WORKLOADS};
use stats::{median, percentile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Traced, Workload};

const USAGE: &str = "usage: esched-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|PATH] [--out PATH]\n       esched-perf compare BASE.json NEW.json";

/// Measured seconds per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Where reports go by default.
const OUT_DIR: &str = "target/esched-perf";

/// A run's options.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    workload: Option<&'static WorkloadSpec>,
    seed: u64,
    seconds: f64,
    /// `None`: untraced; `Some(path)`: traced, spans to `path` or the
    /// default.
    trace: Option<Option<PathBuf>>,
    out: Option<PathBuf>,
}

#[derive(Debug, Clone, PartialEq)]
enum Command {
    Run(Options),
    Compare(String, String),
}

fn parse(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, base, new] => Ok(Command::Compare(base.clone(), new.clone())),
            _ => Err("compare takes two report paths".to_string()),
        };
    }
    let mut opts = Options {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                opts.workload =
                    Some(spec::workload(value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => None,
                    "1" => Some(None),
                    path => Some(Some(PathBuf::from(path))),
                };
            }
            "--out" => opts.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Command::Run(opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::Run(opts)) => run(&opts),
        Ok(Command::Compare(base, new)) => compare(&base, &new),
        Err(e) => {
            eprintln!("esched-perf: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn compare(base: &str, new: &str) -> ExitCode {
    match (Report::load(base), Report::load(new)) {
        (Ok(b), Ok(n)) => {
            let (lines, ok) = report::compare(&b, &n);
            for line in lines {
                println!("{line}");
            }
            println!("{}", if ok { "within bounds" } else { "REGRESSION" });
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("esched-perf: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(opts: &Options) -> ExitCode {
    let host = Host::detect();
    let chosen: Vec<&WorkloadSpec> = match opts.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut results = Vec::new();
    let mut spans = Vec::new();
    for (i, w) in chosen.iter().enumerate() {
        if chosen.len() > 1 {
            host::reset_peak_rss();
        }
        eprintln!(
            "esched-perf: {} (seed {}, {} s)",
            w.name, opts.seed, opts.seconds
        );
        let (result, rec) = match w.name {
            "plan-65k" => drive::<workloads::plan::Plan>(w, opts, host.workers),
            "replan-1k" => drive::<workloads::replan::Replan>(w, opts, host.workers),
            "certify-256" => drive::<workloads::certify::Certify>(w, opts, host.workers),
            "sweep-fig10" => drive::<workloads::sweep::Sweep>(w, opts, host.workers),
            other => unreachable!("workload {other} is not implemented"),
        };
        print_result(&result);
        if let Some(rec) = rec {
            spans.extend(rec.perfetto_events(i + 1, w.name));
        }
        results.push(result);
    }

    let stem = match opts.workload {
        Some(w) => format!("{}-{}", opts.seed, w.name),
        None => opts.seed.to_string(),
    };
    let traced = opts.trace.is_some();
    let report = Report {
        seed: opts.seed,
        seconds: opts.seconds,
        traced,
        host,
        workloads: results,
    };
    let default_out = || {
        let suffix = if traced { "-layers" } else { "" };
        Path::new(OUT_DIR).join(format!("{stem}{suffix}.json"))
    };
    let out = opts.out.clone().unwrap_or_else(default_out);
    let mut ok = write(&out, &report.to_json().to_string_pretty());
    if let Some(path) = &opts.trace {
        let path = path
            .clone()
            .unwrap_or_else(|| Path::new(OUT_DIR).join(format!("{stem}.trace.json")));
        ok &= write(&path, &ledger::perfetto_doc(spans).to_string());
    }

    let attempted: u64 = report.workloads.iter().map(|w| w.tally.attempted).sum();
    let failed: u64 = report.workloads.iter().map(|w| w.tally.failed).sum();
    let metrics = match report.workloads.as_slice() {
        [only] => only.metrics_json(),
        all => Value::Obj(
            all.iter()
                .flat_map(|w| match w.metrics_json() {
                    Value::Obj(pairs) => pairs
                        .into_iter()
                        .map(|(name, v)| (format!("{}.{name}", w.name), v))
                        .collect(),
                    _ => Vec::new(),
                })
                .collect(),
        ),
    };
    println!(
        "{}",
        Value::obj(vec![
            ("correct", Value::Bool(failed == 0)),
            ("attempted", Value::Num(attempted as f64)),
            ("failed", Value::Num(failed as f64)),
            ("metrics", metrics),
        ])
    );
    if ok && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Write `text` to `path`, creating its directory; report failure.
fn write(path: &Path, text: &str) -> bool {
    let result = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    match result {
        Ok(()) => {
            eprintln!("esched-perf: wrote {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("esched-perf: cannot write {}: {e}", path.display());
            false
        }
    }
}

/// Set up (several times, keeping the last inputs), measure, and in a
/// traced run replay through the mirror.
fn drive<W: Workload>(
    w: &WorkloadSpec,
    opts: &Options,
    workers: usize,
) -> (WorkloadResult, Option<Recorder>) {
    let traced = opts.trace.is_some();
    // A traced run splits its time between the untraced loop, which the
    // per-layer metrics that need no spans come from, and the replay.
    let phase = if traced {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        // Drop the previous inputs first, so that peak memory counts one
        // set of them.
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(W::setup(opts.seed, phase, workers));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    let measured = W::run(&inputs, phase);
    let mut result = WorkloadResult {
        name: w.name.to_string(),
        tally: measured.tally.clone(),
        digest: measured.digest.clone(),
        samples: measured.latencies_ms.len(),
        metrics: Vec::new(),
        ledger: None,
    };
    if !traced {
        let lat = &measured.latencies_ms;
        result.metrics = END_TO_END
            .iter()
            .map(|m| {
                let value = match m.name {
                    "latency_p50_ms" => median(lat),
                    "latency_tail_ms" => percentile(lat, W::TAIL_PERCENTILE),
                    "throughput_per_s" => measured.throughput_per_s,
                    "energy_over_ideal" => measured.energy_over_ideal,
                    "peak_rss_mb" => host::peak_rss_mb(),
                    "setup_s" => median(&setup_s),
                    other => unreachable!("no measurement for {other}"),
                };
                (m.name.to_string(), value)
            })
            .collect();
        return (result, None);
    }
    let mut rec = Recorder::default();
    let Traced { tally, untraced_ms } = W::trace(&inputs, phase, &mut rec);
    result.tally.absorb(tally);
    result.samples = rec.ops();
    result.metrics = ledger::per_layer_metrics(&rec, &measured.observed, &untraced_ms);
    let ledger = rec.ledger();
    let summary = LedgerSummary {
        ops: ledger.ops,
        residual_ns: ledger.residual_ns() as f64,
        reconciles: ledger.reconciles(),
        traced_p50_ms: median(&rec.op_walls_ms()),
        untraced_p50_ms: median(&untraced_ms),
        layers: ledger
            .rows()
            .into_iter()
            .map(|(layer, ms, share)| (layer.to_string(), ms, share))
            .collect(),
    };
    result.tally.check(summary.reconciles, || {
        "the span ledger does not reconcile".to_string()
    });
    result.ledger = Some(summary);
    (result, Some(rec))
}

fn print_result(r: &WorkloadResult) {
    println!(
        "== {}: {} ops, {} failed, {} samples, digest {}",
        r.name, r.tally.attempted, r.tally.failed, r.samples, r.digest
    );
    for failure in &r.tally.failures {
        println!("   FAILED {failure}");
    }
    for (name, value) in &r.metrics {
        println!(
            "   {name:<32} {value:>14.4} {}",
            spec::unit(name).unwrap_or("")
        );
    }
    if let Some(l) = &r.ledger {
        println!(
            "   ledger: {} ops, residual {} ns ({}), traced p50 {:.4} ms vs untraced {:.4} ms: tracing overhead {:+.2}%{}",
            l.ops,
            l.residual_ns,
            if l.reconciles { "reconciles" } else { "DOES NOT RECONCILE" },
            l.traced_p50_ms,
            l.untraced_p50_ms,
            l.overhead_pct(),
            if l.overhead_pct().abs() <= 5.0 { "" } else { " (beyond 5%)" }
        );
        for (layer, ms, share) in &l.layers {
            println!("     {layer:<12} {ms:>12.4} ms/op {:>6.1}%", share * 100.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_single_workload_invocation_and_the_trace_forms() {
        let Ok(Command::Run(o)) = parse(&args(
            "--workload replan-1k --seed 7 --seconds 10 --trace 0",
        )) else {
            panic!("single-workload invocation rejected");
        };
        assert_eq!(o.workload.map(|w| w.name), Some("replan-1k"));
        assert_eq!((o.seed, o.seconds, o.trace.clone()), (7, 10.0, None));
        let Ok(Command::Run(o)) = parse(&args("--trace 1")) else {
            panic!()
        };
        assert_eq!(o.trace, Some(None));
        let Ok(Command::Run(o)) = parse(&args("--trace spans.json")) else {
            panic!()
        };
        assert_eq!(o.trace, Some(Some(PathBuf::from("spans.json"))));
        assert_eq!(
            parse(&args("compare a.json b.json")),
            Ok(Command::Compare("a.json".into(), "b.json".into()))
        );
        for bad in [
            "--workload nope",
            "--seed",
            "--seconds 0",
            "--frobnicate 1",
            "compare a",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad} accepted");
        }
    }
}
