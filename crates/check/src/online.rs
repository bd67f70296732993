//! Online-vs-offline differential fuzzing.
//!
//! An [`OnlineScript`] is a seed [`Instance`] plus a stream of
//! [`OnlineEvent`]s. The oracle replays the stream through
//! [`OnlineEngine`] — verifying the incrementally repaired plan against
//! the validator⟺simulator battery after every event — and then demands
//! that the final online outcome is *byte-identical* to running the
//! offline pipeline from scratch on the same final task set.
//!
//! A share of scripts also carries an `E^OPT` solver ([`OnlineScript::solver`]):
//! the engine then re-certifies every repaired plan, and the final
//! outcome, whose NEC solves `E^OPT` from the DER start, must still match
//! the offline run byte for byte.
//!
//! The event generator is biased toward the replan patch's hard regions:
//! arrivals snapped exactly onto (or within the dedup tolerance of)
//! existing subinterval boundaries, arrivals beyond the current horizon,
//! completions at near-degenerate fractions of `C_i`, and window shifts
//! that land endpoints back onto the grid. Scripts are
//! JSON-round-trippable so shrunk repros commit to the corpus (under
//! `corpus/online/`, separate from the plain-instance corpus) and replay
//! in CI.

use crate::corpus::fnv1a;
use crate::gen::{gen_instance, jitter};
use crate::instance::Instance;
use crate::oracles::{panic_message, OracleClass, OracleViolation};
use esched_engine::{Engine, EngineConfig, OnlineEngine, OnlineEvent};
use esched_obs::json::{parse, type_error, FromJson, JsonError, ToJson, Value};
use esched_obs::rng::ChaCha8;
use esched_opt::{SolveOptions, SolverKind};
use esched_types::time::EPS;
use esched_types::validate::WORK_TOL;
use esched_types::Task;
use std::fs;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// A seed instance plus an event stream: one online fuzz case.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineScript {
    /// The task set the engine starts from.
    pub instance: Instance,
    /// Events applied in order.
    pub events: Vec<OnlineEvent>,
    /// The `E^OPT` solver of the engine's config, run under
    /// [`SolveOptions::fast`]; `None` runs no solver. Serialized only when
    /// set, so an entry without it replays as before.
    pub solver: Option<SolverKind>,
}

impl OnlineScript {
    /// Compact human-readable summary (`n=3 m=2 events=5`, then
    /// ` solver=pgd` when a solver is set).
    pub fn summary(&self) -> String {
        let solver = self
            .solver
            .map_or(String::new(), |k| format!(" solver={}", k.name()));
        format!(
            "n={} m={} events={}{solver}",
            self.instance.tasks.len(),
            self.instance.cores,
            self.events.len()
        )
    }

    /// The online engine this script starts from.
    fn engine(&self) -> OnlineEngine {
        let engine = OnlineEngine::new(
            self.instance.tasks.clone(),
            self.instance.cores,
            self.instance.power,
        );
        match self.solver {
            Some(kind) => engine
                .with_config(
                    // Telemetry carries wall times, which no two runs
                    // share; canonical outputs leave it out.
                    EngineConfig::new()
                        .with_solver(kind)
                        .with_solve_options(SolveOptions::fast())
                        .with_telemetry(false),
                )
                .with_recertify(true),
            None => engine,
        }
    }

    /// Parse a script from its JSON text.
    ///
    /// # Errors
    /// [`JsonError`] on malformed text, an invalid embedded instance, or
    /// an unrecognized event object.
    pub fn from_json_str(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&parse(text)?)
    }
}

fn event_to_json(event: &OnlineEvent) -> Value {
    match event {
        OnlineEvent::Arrive(t) => Value::obj(vec![
            ("kind", Value::Str("arrive".into())),
            ("release", Value::Num(t.release)),
            ("deadline", Value::Num(t.deadline)),
            ("wcec", Value::Num(t.wcec)),
        ]),
        OnlineEvent::Complete { task, actual_work } => Value::obj(vec![
            ("kind", Value::Str("complete".into())),
            ("task", Value::Num(*task as f64)),
            ("actual_work", Value::Num(*actual_work)),
        ]),
        OnlineEvent::Shift {
            task,
            release,
            deadline,
        } => Value::obj(vec![
            ("kind", Value::Str("shift".into())),
            ("task", Value::Num(*task as f64)),
            ("release", Value::Num(*release)),
            ("deadline", Value::Num(*deadline)),
        ]),
    }
}

fn num(value: &Value, key: &str) -> Result<f64, JsonError> {
    value
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| type_error(&format!("OnlineEvent: missing or non-numeric `{key}`")))
}

fn event_from_json(value: &Value) -> Result<OnlineEvent, JsonError> {
    let kind = value
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| type_error("OnlineEvent: missing `kind`"))?;
    Ok(match kind {
        "arrive" => OnlineEvent::Arrive(Task {
            release: num(value, "release")?,
            deadline: num(value, "deadline")?,
            wcec: num(value, "wcec")?,
        }),
        "complete" => OnlineEvent::Complete {
            task: num(value, "task")? as usize,
            actual_work: num(value, "actual_work")?,
        },
        "shift" => OnlineEvent::Shift {
            task: num(value, "task")? as usize,
            release: num(value, "release")?,
            deadline: num(value, "deadline")?,
        },
        other => return Err(type_error(&format!("OnlineEvent: unknown kind `{other}`"))),
    })
}

impl ToJson for OnlineScript {
    fn to_json(&self) -> Value {
        let mut obj = match self.instance.to_json() {
            Value::Obj(pairs) => pairs,
            _ => unreachable!("Instance serializes to an object"),
        };
        obj.push((
            "events".into(),
            Value::Arr(self.events.iter().map(event_to_json).collect()),
        ));
        if let Some(kind) = self.solver {
            obj.push(("solver".into(), Value::Str(kind.name().into())));
        }
        Value::Obj(obj)
    }
}

impl FromJson for OnlineScript {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let instance = Instance::from_json(value)?;
        let events = value
            .get("events")
            .and_then(Value::as_array)
            .ok_or_else(|| type_error("OnlineScript: missing `events` array"))?
            .iter()
            .map(event_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let solver = match value.get("solver") {
            None => None,
            Some(v) => Some(
                v.as_str()
                    .and_then(SolverKind::from_name)
                    .ok_or_else(|| type_error("OnlineScript: unknown `solver`"))?,
            ),
        };
        Ok(Self {
            instance,
            events,
            solver,
        })
    }
}

/// The mirror of the task set the generator maintains while drawing
/// events, so every generated event is valid against the state the engine
/// will actually be in when it arrives.
fn apply_to_mirror(mirror: &mut Vec<Task>, event: &OnlineEvent) {
    match event {
        OnlineEvent::Arrive(t) => mirror.push(*t),
        OnlineEvent::Complete { task, actual_work } => mirror[*task].wcec = *actual_work,
        OnlineEvent::Shift {
            task,
            release,
            deadline,
        } => {
            mirror[*task].release = *release;
            mirror[*task].deadline = *deadline;
        }
    }
}

fn event_grid(mirror: &[Task]) -> Vec<f64> {
    let mut grid: Vec<f64> = mirror
        .iter()
        .flat_map(|t| [t.release, t.deadline])
        .collect();
    grid.sort_by(|a, b| a.partial_cmp(b).expect("finite event times"));
    grid
}

fn valid_window(release: f64, deadline: f64) -> bool {
    deadline - release > 10.0 * EPS * (1.0 + release.abs().max(deadline.abs()))
}

fn gen_arrival(rng: &mut ChaCha8, mirror: &[Task]) -> OnlineEvent {
    let grid = event_grid(mirror);
    let start = grid.first().copied().unwrap_or(0.0);
    let horizon = grid.last().copied().unwrap_or(10.0);
    for _ in 0..32 {
        let (release, deadline) = match rng.gen_range_usize(0, 10) {
            // Boundary-snapped, exactly or within the dedup tolerance:
            // the region where the in-place patch vs. full-rebuild
            // decision lives.
            0..=4 if grid.len() >= 2 => {
                let a = rng.gen_range_usize(0, grid.len() - 1);
                let b = rng.gen_range_usize(a + 1, grid.len());
                (jitter(rng, grid[a]), jitter(rng, grid[b]))
            }
            // Beyond the current horizon: appends subintervals.
            5 => {
                let r = horizon + rng.gen_range_f64(0.1, 5.0);
                (r, r + rng.gen_range_f64(0.5, 8.0))
            }
            // Before the current horizon start, ending on it or short of
            // it: prepends subintervals.
            8 => {
                let d = if rng.gen_bool(0.5) {
                    start
                } else {
                    start - rng.gen_range_f64(0.1, 3.0)
                };
                (d - rng.gen_range_f64(0.5, 8.0), d)
            }
            // Over the whole horizon, exactly or beyond both ends: joins
            // every column at once.
            9 => {
                if rng.gen_bool(0.5) {
                    (start, horizon)
                } else {
                    (
                        start - rng.gen_range_f64(0.1, 2.0),
                        horizon + rng.gen_range_f64(0.1, 2.0),
                    )
                }
            }
            // Off-grid: forces interior splits.
            _ => {
                let r = rng.gen_range_f64(0.0, horizon.max(1.0));
                (r, r + rng.gen_range_f64(0.1, horizon.max(1.0)))
            }
        };
        if !valid_window(release, deadline) {
            continue;
        }
        let wcec = (deadline - release) * rng.gen_range_f64(0.05, 1.2);
        if let Ok(t) = Task::new(release, deadline, wcec) {
            return OnlineEvent::Arrive(t);
        }
    }
    OnlineEvent::Arrive(Task::of(horizon + 1.0, horizon + 5.0, 1.0))
}

fn gen_completion(rng: &mut ChaCha8, mirror: &[Task]) -> OnlineEvent {
    let task = rng.gen_range_usize(0, mirror.len());
    let frac = match rng.gen_range_usize(0, 6) {
        0 => 0.25,
        1 => 0.5,
        2 => 0.75,
        3 => 0.95,
        // All-but-finished: the reclaimed slack is near-degenerate.
        4 => 1.0 - 1e-9,
        _ => rng.gen_range_f64(0.05, 1.0),
    };
    OnlineEvent::Complete {
        task,
        actual_work: mirror[task].wcec * frac,
    }
}

fn gen_shift(rng: &mut ChaCha8, mirror: &[Task]) -> OnlineEvent {
    let task = rng.gen_range_usize(0, mirror.len());
    let t = mirror[task];
    let grid = event_grid(mirror);
    for _ in 0..32 {
        let (task, release, deadline) = match rng.gen_range_usize(0, 7) {
            // Snap endpoints (jittered) back onto the grid: the vacated
            // old boundary may still be referenced by another task.
            0 | 1 if grid.len() >= 2 => {
                let a = rng.gen_range_usize(0, grid.len() - 1);
                let b = rng.gen_range_usize(a + 1, grid.len());
                (task, jitter(rng, grid[a]), jitter(rng, grid[b]))
            }
            // Small slide of the whole window.
            2 => {
                let d = rng.gen_range_f64(-2.0, 2.0);
                (task, t.release + d, t.deadline + d)
            }
            // Slide the task that owns the first or last event point:
            // the horizon shrinks or grows.
            3 => {
                let owner = if rng.gen_bool(0.5) {
                    mirror.iter().position(|o| o.release == grid[0])
                } else {
                    mirror
                        .iter()
                        .position(|o| o.deadline == grid[grid.len() - 1])
                }
                .expect("some task owns each end of the grid");
                let o = mirror[owner];
                let d = rng.gen_range_f64(0.25, 3.0);
                let d = if rng.gen_bool(0.5) { d } else { -d };
                (owner, o.release + d, o.deadline + d)
            }
            // Vacate one endpoint and land the other bitwise on it.
            4 => {
                let w = (t.deadline - t.release) * rng.gen_range_f64(0.2, 1.5);
                if rng.gen_bool(0.5) {
                    (task, t.deadline, t.deadline + w)
                } else {
                    (task, t.release - w, t.release)
                }
            }
            // Jump to a window disjoint from the old one, after or
            // before it: vacates and claims columns far apart.
            5 => {
                let len = t.deadline - t.release;
                let gap = rng.gen_range_f64(0.0, 5.0);
                if rng.gen_bool(0.5) {
                    (task, t.deadline + gap, t.deadline + gap + len)
                } else {
                    (task, t.release - gap - len, t.release - gap)
                }
            }
            // Stretch or near-collapse around the release.
            _ => (
                task,
                t.release,
                t.release + (t.deadline - t.release) * rng.gen_range_f64(0.05, 2.0),
            ),
        };
        let wcec = mirror[task].wcec;
        if valid_window(release, deadline) && Task::new(release, deadline, wcec).is_ok() {
            return OnlineEvent::Shift {
                task,
                release,
                deadline,
            };
        }
    }
    OnlineEvent::Shift {
        task,
        release: t.release,
        deadline: t.deadline + 1.0,
    }
}

/// Draw one online fuzz case: an adversarial seed instance (via
/// [`gen_instance`]) plus 2–8 valid events, and last the solver: PGD on
/// a quarter of scripts, ADMM on an eighth. Drawn last, the solver leaves
/// a seed's instance and events what they are without it. Deterministic
/// given the RNG state.
pub fn gen_online(rng: &mut ChaCha8) -> OnlineScript {
    let instance = gen_instance(rng);
    let mut mirror: Vec<Task> = instance.tasks.iter().map(|(_, t)| *t).collect();
    let count = rng.gen_range_usize(2, 9);
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        let event = match rng.gen_range_usize(0, 7) {
            0..=2 => gen_arrival(rng, &mirror),
            3 | 4 => gen_completion(rng, &mirror),
            _ => gen_shift(rng, &mirror),
        };
        apply_to_mirror(&mut mirror, &event);
        events.push(event);
    }
    let solver = match rng.gen_range_usize(0, 8) {
        0 | 1 => Some(SolverKind::ProjectedGradient),
        2 => Some(SolverKind::Admm),
        _ => None,
    };
    OnlineScript {
        instance,
        events,
        solver,
    }
}

fn event_summary(event: &OnlineEvent) -> String {
    match event {
        OnlineEvent::Arrive(t) => format!("arrive [{}, {}] C={}", t.release, t.deadline, t.wcec),
        OnlineEvent::Complete { task, actual_work } => {
            format!("complete task {task} at {actual_work}")
        }
        OnlineEvent::Shift {
            task,
            release,
            deadline,
        } => format!("shift task {task} to [{release}, {deadline}]"),
    }
}

fn run_script(script: &OnlineScript) -> Vec<OracleViolation> {
    let mut out = Vec::new();
    let mut engine = script.engine();
    for (k, event) in script.events.iter().enumerate() {
        if let Err(e) = engine.apply(event) {
            out.push(OracleViolation {
                class: OracleClass::Online,
                message: format!("valid event {k} ({}) rejected: {e}", event_summary(event)),
            });
            return out;
        }
        if let Err(msg) = engine.verify_current() {
            out.push(OracleViolation {
                class: OracleClass::Online,
                message: format!(
                    "repaired plan fails the oracle after event {k} ({}): {msg}",
                    event_summary(event)
                ),
            });
        }
    }
    let offline = match Engine::with_threads(1).run(&engine.as_request()) {
        Ok(o) => o,
        Err(e) => {
            out.push(OracleViolation {
                class: OracleClass::Online,
                message: format!("offline replay of the final task set failed: {e}"),
            });
            return out;
        }
    };
    let online = engine.outcome();
    if (online.energy - offline.energy).abs() > WORK_TOL * (1.0 + offline.energy.abs()) {
        out.push(OracleViolation {
            class: OracleClass::Online,
            message: format!(
                "final energy diverged: online {} vs offline {}",
                online.energy, offline.energy
            ),
        });
    } else if online != offline || online.to_json().to_string() != offline.to_json().to_string() {
        out.push(OracleViolation {
            class: OracleClass::Online,
            message: format!(
                "online outcome is not byte-identical to offline (energy {})",
                offline.energy
            ),
        });
    }
    out
}

/// Replay `script` through the online engine and collect all violations.
/// Panics anywhere in the replay surface as [`OracleClass::Panic`].
pub fn check_online(script: &OnlineScript) -> Vec<OracleViolation> {
    match catch_unwind(AssertUnwindSafe(|| run_script(script))) {
        Ok(v) => v,
        Err(payload) => vec![OracleViolation {
            class: OracleClass::Panic,
            message: format!("online replay panicked: {}", panic_message(payload)),
        }],
    }
}

/// Would the script still be self-consistent (every explicit task
/// reference in range at the time it fires, final set non-empty)?
fn script_is_valid(script: &OnlineScript) -> bool {
    let mut count = script.instance.tasks.len();
    if count == 0 {
        return false;
    }
    for event in &script.events {
        match event {
            OnlineEvent::Arrive(_) => count += 1,
            OnlineEvent::Complete { task, .. } | OnlineEvent::Shift { task, .. } => {
                if *task >= count {
                    return false;
                }
            }
        }
    }
    true
}

/// Drop event `idx`, remapping explicit task ids in later events when the
/// dropped event is an `Arrive` (arrival ids are positional: removing one
/// shifts every later id down by one). Returns `None` when the drop would
/// leave a dangling reference.
fn drop_event(script: &OnlineScript, idx: usize) -> Option<OnlineScript> {
    let dropped_id = match script.events[idx] {
        OnlineEvent::Arrive(_) => {
            let arrivals_before = script.events[..idx]
                .iter()
                .filter(|e| matches!(e, OnlineEvent::Arrive(_)))
                .count();
            Some(script.instance.tasks.len() + arrivals_before)
        }
        _ => None,
    };
    let mut events = Vec::with_capacity(script.events.len() - 1);
    for (k, event) in script.events.iter().enumerate() {
        if k == idx {
            continue;
        }
        let mut event = event.clone();
        if let Some(dropped) = dropped_id {
            if k > idx {
                match &mut event {
                    OnlineEvent::Complete { task, .. } | OnlineEvent::Shift { task, .. } => {
                        if *task == dropped {
                            return None;
                        }
                        if *task > dropped {
                            *task -= 1;
                        }
                    }
                    OnlineEvent::Arrive(_) => {}
                }
            }
        }
        events.push(event);
    }
    let out = OnlineScript {
        instance: script.instance.clone(),
        events,
        solver: script.solver,
    };
    script_is_valid(&out).then_some(out)
}

/// Drop seed task `k`, remapping every explicit reference (`id > k`
/// shifts down; a reference to `k` itself vetoes the drop).
fn drop_seed_task(script: &OnlineScript, k: usize) -> Option<OnlineScript> {
    if script.instance.tasks.len() <= 1 {
        return None;
    }
    let mut tasks: Vec<Task> = script.instance.tasks.iter().map(|(_, t)| *t).collect();
    tasks.remove(k);
    let tasks = esched_types::TaskSet::new(tasks).ok()?;
    let mut events = Vec::with_capacity(script.events.len());
    for event in &script.events {
        let mut event = event.clone();
        match &mut event {
            OnlineEvent::Complete { task, .. } | OnlineEvent::Shift { task, .. } => {
                if *task == k {
                    return None;
                }
                if *task > k {
                    *task -= 1;
                }
            }
            OnlineEvent::Arrive(_) => {}
        }
        events.push(event);
    }
    let out = OnlineScript {
        instance: Instance::new(tasks, script.instance.cores, script.instance.power),
        events,
        solver: script.solver,
    };
    script_is_valid(&out).then_some(out)
}

/// A shrunk online repro plus the oracle-evaluation budget it consumed.
#[derive(Debug, Clone)]
pub struct ShrunkOnline {
    /// The minimized script (still failing for the target class).
    pub script: OnlineScript,
    /// Oracle evaluations spent.
    pub evals: usize,
}

/// Greedily minimize a failing script while it keeps failing for `class`:
/// truncate the event tail, then drop individual events (with task-id
/// remapping), then drop seed tasks. Each candidate costs one
/// [`check_online`] evaluation against `max_evals`.
pub fn shrink_online(script: &OnlineScript, class: OracleClass, max_evals: usize) -> ShrunkOnline {
    let mut best = script.clone();
    let mut evals = 0_usize;
    let still_fails = |s: &OnlineScript, evals: &mut usize| {
        *evals += 1;
        check_online(s).iter().any(|v| v.class == class)
    };

    // Phase 1: truncate the tail to the shortest failing prefix.
    while best.events.len() > 1 && evals < max_evals {
        let mut candidate = best.clone();
        candidate.events.pop();
        if script_is_valid(&candidate) && still_fails(&candidate, &mut evals) {
            best = candidate;
        } else {
            break;
        }
    }

    // Phases 2 and 3: single-event drops, then seed-task drops, repeated
    // until a full pass makes no progress.
    loop {
        let mut improved = false;
        let mut idx = 0;
        while idx < best.events.len() && evals < max_evals {
            if let Some(candidate) = drop_event(&best, idx) {
                if still_fails(&candidate, &mut evals) {
                    best = candidate;
                    improved = true;
                    continue; // same idx now names the next event
                }
            }
            idx += 1;
        }
        let mut k = 0;
        while k < best.instance.tasks.len() && evals < max_evals {
            if let Some(candidate) = drop_seed_task(&best, k) {
                if still_fails(&candidate, &mut evals) {
                    best = candidate;
                    improved = true;
                    continue;
                }
            }
            k += 1;
        }
        if !improved || evals >= max_evals {
            break;
        }
    }
    ShrunkOnline {
        script: best,
        evals,
    }
}

/// Serialize an online corpus entry: the script plus oracle metadata.
pub fn online_corpus_entry(script: &OnlineScript, violation: &OracleViolation) -> String {
    let mut obj = match script.to_json() {
        Value::Obj(pairs) => pairs,
        _ => unreachable!("OnlineScript serializes to an object"),
    };
    obj.insert(
        0,
        ("oracle".into(), Value::Str(violation.class.name().into())),
    );
    obj.insert(1, ("message".into(), Value::Str(violation.message.clone())));
    Value::Obj(obj).to_string_pretty()
}

/// Write a shrunk online repro into `dir` (conventionally
/// `corpus/online/`, kept separate from the plain-instance corpus),
/// content-addressed and deduped like [`crate::write_corpus`].
///
/// # Errors
/// Propagates filesystem errors from creating the directory or file.
pub fn write_online_corpus(
    dir: &Path,
    script: &OnlineScript,
    violation: &OracleViolation,
) -> io::Result<Option<PathBuf>> {
    fs::create_dir_all(dir)?;
    let hash = fnv1a(script.to_json().to_string_pretty().as_bytes());
    let path = dir.join(format!("{}-{hash:016x}.json", violation.class.name()));
    if path.exists() {
        return Ok(None);
    }
    fs::write(&path, online_corpus_entry(script, violation))?;
    Ok(Some(path))
}

/// Load every `*.json` online corpus entry under `dir`, sorted by
/// filename. A missing directory is an empty corpus.
///
/// # Errors
/// Propagates filesystem errors; malformed entries surface as
/// [`io::ErrorKind::InvalidData`] naming the offending file.
pub fn load_online_corpus_dir(dir: &Path) -> io::Result<Vec<(PathBuf, OnlineScript)>> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let text = fs::read_to_string(&path)?;
        let script = OnlineScript::from_json_str(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("online corpus entry {} is malformed: {e}", path.display()),
            )
        })?;
        out.push((path, script));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use esched_types::{PolynomialPower, TaskSet};

    fn sample_script() -> OnlineScript {
        OnlineScript {
            instance: Instance::new(
                TaskSet::from_triples(&[(0.0, 10.0, 4.0), (2.0, 8.0, 3.0)]),
                2,
                PolynomialPower::paper(3.0, 0.1),
            ),
            events: vec![
                OnlineEvent::Arrive(Task::of(1.0, 6.0, 2.0)),
                OnlineEvent::Complete {
                    task: 0,
                    actual_work: 2.5,
                },
                OnlineEvent::Shift {
                    task: 1,
                    release: 3.0,
                    deadline: 9.0,
                },
            ],
            solver: None,
        }
    }

    #[test]
    fn script_json_round_trips() {
        let script = sample_script();
        let text = script.to_json().to_string_pretty();
        let back = OnlineScript::from_json_str(&text).unwrap();
        assert_eq!(script, back);
    }

    #[test]
    fn a_solver_round_trips_and_its_absence_reads_as_none() {
        let mut script = sample_script();
        let text = script.to_json().to_string_pretty();
        assert!(!text.contains("solver"));
        assert_eq!(OnlineScript::from_json_str(&text).unwrap().solver, None);
        script.solver = Some(SolverKind::Admm);
        let text = script.to_json().to_string_pretty();
        assert_eq!(OnlineScript::from_json_str(&text).unwrap(), script);
        let bad = text.replace("\"admm\"", "\"simplex\"");
        assert!(OnlineScript::from_json_str(&bad).is_err());
    }

    #[test]
    fn sample_script_replays_clean_with_each_solver() {
        for kind in [SolverKind::ProjectedGradient, SolverKind::Admm] {
            let script = OnlineScript {
                solver: Some(kind),
                ..sample_script()
            };
            let v = check_online(&script);
            assert!(v.is_empty(), "{}: {v:?}", kind.name());
        }
    }

    #[test]
    fn generated_scripts_are_valid_and_deterministic() {
        let mut solvers = Vec::new();
        for seed in 0..50u64 {
            let a = gen_online(&mut ChaCha8::seed_from_u64(seed));
            let b = gen_online(&mut ChaCha8::seed_from_u64(seed));
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert!(script_is_valid(&a), "seed {seed} generated invalid script");
            assert!(!a.events.is_empty());
            solvers.push(a.solver);
        }
        for kind in [
            None,
            Some(SolverKind::ProjectedGradient),
            Some(SolverKind::Admm),
        ] {
            assert!(solvers.contains(&kind), "no script drew {kind:?}");
        }
    }

    #[test]
    fn sample_script_replays_clean() {
        let v = check_online(&sample_script());
        assert!(v.is_empty(), "violations: {v:?}");
    }

    #[test]
    fn drop_event_remaps_arrival_ids() {
        let mut script = sample_script();
        // Reference the arrived task (id 2 = 2 seed tasks + first arrival).
        script.events.push(OnlineEvent::Complete {
            task: 2,
            actual_work: 1.0,
        });
        // Dropping the arrival would dangle that reference.
        assert!(drop_event(&script, 0).is_none());
        // Dropping the unrelated shift keeps ids intact.
        let dropped = drop_event(&script, 2).unwrap();
        assert_eq!(dropped.events.len(), 3);
        assert!(script_is_valid(&dropped));
    }

    #[test]
    fn drop_seed_task_remaps_references() {
        let script = sample_script();
        // Seed task 0 is referenced by the Complete event: veto.
        assert!(drop_seed_task(&script, 0).is_none());
        // Seed task 1 is referenced by the Shift event: veto too.
        assert!(drop_seed_task(&script, 1).is_none());
        // Without the shift, task 1 drops and the arrival's id shifts.
        let mut no_shift = script.clone();
        no_shift.events.pop();
        let dropped = drop_seed_task(&no_shift, 1).unwrap();
        assert_eq!(dropped.instance.tasks.len(), 1);
        assert!(script_is_valid(&dropped));
    }

    #[test]
    fn online_corpus_write_then_load_round_trips_and_dedups() {
        let dir = std::env::temp_dir().join(format!(
            "esched-check-online-corpus-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = fs::remove_dir_all(&dir);
        let script = sample_script();
        let violation = OracleViolation {
            class: OracleClass::Online,
            message: "test repro".into(),
        };
        let first = write_online_corpus(&dir, &script, &violation).unwrap();
        assert!(first.is_some());
        let again = write_online_corpus(&dir, &script, &violation).unwrap();
        assert!(again.is_none(), "identical repro must dedup");
        let loaded = load_online_corpus_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].1, script);
        assert!(loaded[0]
            .0
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("online-"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oracle_is_not_vacuous() {
        // A stream whose event references a task that never existed must
        // surface as an Online violation, not silently pass.
        let mut script = sample_script();
        script.events = vec![OnlineEvent::Complete {
            task: 99,
            actual_work: 1.0,
        }];
        let v = check_online(&script);
        assert!(
            v.iter().any(|x| x.class == OracleClass::Online),
            "expected an Online violation, got {v:?}"
        );
    }

    /// The committed seed repro for `corpus/online/`: before
    /// `Timeline::rebuild_shifted` fell back to a full rebuild on
    /// approx-but-not-bitwise endpoints, shifting a deadline to within
    /// the dedup tolerance of an existing boundary (100 − 5e-6 vs 100)
    /// snapped the patched timeline to the old boundary while
    /// `Timeline::build` keeps the *first* representative of the merged
    /// pair — divergent boundaries, divergent bytes.
    pub(super) fn seed_repro() -> (OnlineScript, OracleViolation) {
        let script = OnlineScript {
            instance: Instance::new(
                TaskSet::from_triples(&[(0.0, 100.0, 40.0), (20.0, 60.0, 10.0)]),
                2,
                PolynomialPower::paper(3.0, 0.1),
            ),
            events: vec![OnlineEvent::Shift {
                task: 1,
                release: 20.0,
                deadline: 100.0 - 5e-6,
            }],
            solver: None,
        };
        let violation = OracleViolation {
            class: OracleClass::Online,
            message: "online outcome diverged from offline: rebuild_shifted snapped a \
                      within-tolerance endpoint onto the existing boundary instead of \
                      falling back to a full rebuild"
                .into(),
        };
        (script, violation)
    }

    #[test]
    fn seed_repro_replays_clean() {
        let (script, _) = seed_repro();
        let v = check_online(&script);
        assert!(v.is_empty(), "violations: {v:?}");
    }

    /// Regenerates the committed corpus entry; run explicitly with
    /// `cargo test -p esched-check --lib -- --ignored regenerate`.
    #[test]
    #[ignore = "writes the committed seed repro into corpus/online/"]
    fn regenerate_seed_corpus() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("corpus")
            .join("online");
        let (script, violation) = seed_repro();
        match write_online_corpus(&dir, &script, &violation).unwrap() {
            Some(path) => println!("wrote {}", path.display()),
            None => println!("already present (deduped)"),
        }
    }

    #[test]
    fn fuzz_smoke_runs_clean() {
        // A small in-process sweep of the online oracle; the binary's
        // `--online` mode runs the full-size version in CI.
        for i in 0..40u64 {
            let script = gen_online(&mut ChaCha8::seed_from_u64(0xB0A7 + i));
            let v = check_online(&script);
            assert!(
                v.is_empty(),
                "seed {i}: {v:?}\nscript: {}",
                script.summary()
            );
        }
    }
}
