//! Output checks that have to stay affordable at 65k tasks.

use crate::stats::Fnv1a;
use esched_engine::ScheduleOutcome;
use esched_obs::json::ToJson;
use esched_types::time::compensated_sum;
use esched_types::validate::WORK_TOL;
use esched_types::{Schedule, Segment, TaskSet, EPS};

/// Where the segment list sits in the compact JSON of an outcome whose
/// schedule is empty.
const EMPTY_SEGMENTS: &str = "\"segments\":[]";

/// Fold `outcome.to_json().to_string()` into `digest` without building
/// that document: at 65k tasks it is ~50 MB of text and several hundred
/// MB of JSON tree, which would dominate the run's peak memory. The
/// outcome is encoded with an empty schedule, and its segments are
/// encoded one at a time into the gap; a unit test pins the bytes to the
/// whole-document encoding.
pub fn digest_outcome(digest: &mut Fnv1a, outcome: &ScheduleOutcome) {
    let shell = ScheduleOutcome {
        algorithm: outcome.algorithm,
        energy: outcome.energy,
        intermediate_energy: outcome.intermediate_energy,
        schedule: Schedule::new(outcome.schedule.cores),
        nec: outcome.nec,
        opt: outcome.opt.clone(),
        opt_x: None,
        sim: outcome.sim,
        discrete: outcome.discrete.clone(),
        trace: None,
    };
    let text = shell.to_json().to_string();
    let at = text
        .find(EMPTY_SEGMENTS)
        .expect("an outcome encodes its schedule's segment list")
        + EMPTY_SEGMENTS.len()
        - 1;
    digest.write(&text.as_bytes()[..at]);
    for (i, segment) in outcome.schedule.segments().iter().enumerate() {
        if i > 0 {
            digest.write(b",");
        }
        digest.write(segment.to_json().to_string().as_bytes());
    }
    digest.write(&text.as_bytes()[at..]);
}

/// Number of violations `esched_types::validate_schedule` would report,
/// in O(S log S) for S segments.
///
/// The workspace validator filters the whole segment list once per task
/// and per core, which is O(n·S): about 80 s for one 65,536-task plan
/// (~460k segments). This applies the same five conditions, with the same
/// tolerances, the same stable sort and the same summation order, to
/// per-core and per-task buckets instead; the unit tests pin it to the
/// validator on instances where both are affordable.
pub fn violations(schedule: &Schedule, tasks: &TaskSet) -> usize {
    let n = tasks.len();
    let segs = schedule.segments();
    let mut bad = 0;
    for s in segs {
        bad += usize::from(s.core >= schedule.cores) + usize::from(s.task >= n);
    }
    if segs.iter().any(|s| s.task >= n) {
        return bad;
    }
    let adjacent_overlaps = |bucket: &mut Vec<Segment>| {
        bucket.sort_by(|a, b| {
            a.interval
                .start
                .partial_cmp(&b.interval.start)
                .expect("finite segment times")
        });
        bucket
            .windows(2)
            .filter(|w| w[0].interval.overlap_len(&w[1].interval) > EPS)
            .count()
    };
    let mut by_core: Vec<Vec<Segment>> = vec![Vec::new(); schedule.cores];
    let mut by_task: Vec<Vec<Segment>> = vec![Vec::new(); n];
    for s in segs {
        if let Some(core) = by_core.get_mut(s.core) {
            core.push(*s);
        }
        by_task[s.task].push(*s);
    }
    bad += by_core.iter_mut().map(adjacent_overlaps).sum::<usize>();
    bad += by_task.iter_mut().map(adjacent_overlaps).sum::<usize>();
    bad += segs
        .iter()
        .filter(|s| !tasks.get(s.task).window().covers(&s.interval))
        .count();
    // The buckets are sorted by now; the work sums run in insertion order,
    // as `Schedule::work_of` does, so they round identically.
    let mut delivered = vec![Vec::new(); n];
    for s in segs {
        delivered[s.task].push(s.work());
    }
    bad += tasks
        .iter()
        .filter(|(id, t)| {
            compensated_sum(delivered[*id].iter().copied()) < t.wcec * (1.0 - WORK_TOL) - WORK_TOL
        })
        .count();
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use esched_core::{der_schedule, even_schedule};
    use esched_types::{validate_schedule, PolynomialPower};
    use esched_workload::{GeneratorConfig, WorkloadGenerator, WorkloadSpec};

    fn agree(schedule: &Schedule, tasks: &TaskSet) -> usize {
        let want = validate_schedule(schedule, tasks).violations.len();
        assert_eq!(violations(schedule, tasks), want);
        want
    }

    #[test]
    fn agrees_with_the_validator_on_legal_schedules() {
        let power = PolynomialPower::paper(3.0, 0.1);
        for seed in 0..3 {
            let slotted = WorkloadSpec::large_n(1024).instantiate(seed);
            assert_eq!(
                agree(&der_schedule(&slotted, 8, &power).schedule, &slotted),
                0
            );
            let dense =
                WorkloadGenerator::new(GeneratorConfig::paper_default().with_tasks(40), seed)
                    .generate();
            assert_eq!(agree(&even_schedule(&dense, 4, &power).schedule, &dense), 0);
        }
    }

    #[test]
    fn streamed_digest_equals_the_digest_of_the_whole_document() {
        use esched_engine::{Engine, EngineConfig, ScheduleRequest};
        use esched_opt::SolverKind;
        let tasks = WorkloadSpec::large_n(256).instantiate(2);
        let power = PolynomialPower::paper(3.0, 0.2);
        for config in [
            EngineConfig::new().with_sim_verify(true),
            EngineConfig::new().with_solver(SolverKind::ProjectedGradient),
        ] {
            let request = ScheduleRequest::new(tasks.clone(), 4, power).with_config(config);
            let out = Engine::with_threads(1).run(&request).unwrap();
            let mut whole = Fnv1a::default();
            whole.write(out.to_json().to_string().as_bytes());
            let mut streamed = Fnv1a::default();
            digest_outcome(&mut streamed, &out);
            assert_eq!(streamed.hex(), whole.hex());
        }
    }

    #[test]
    fn agrees_with_the_validator_on_broken_schedules() {
        let power = PolynomialPower::paper(3.0, 0.1);
        let tasks = WorkloadSpec::large_n(256).instantiate(5);
        let legal = der_schedule(&tasks, 4, &power).schedule;
        let segs = legal.segments().to_vec();
        let rebuilt = |segs: &[Segment]| {
            let mut s = Schedule::new(legal.cores);
            for seg in segs {
                s.push(*seg);
            }
            s
        };

        // Underserved: drop a task's first segment.
        let dropped = rebuilt(&segs[1..]);
        assert!(agree(&dropped, &tasks) > 0);

        // Core and self overlap: replay a segment on another core and on
        // its own core at the same time.
        let mut doubled = segs.clone();
        let s = segs[0];
        doubled.push(Segment::new(
            s.task,
            (s.core + 1) % legal.cores,
            s.interval.start,
            s.interval.end,
            s.freq,
        ));
        doubled.push(s);
        assert!(agree(&rebuilt(&doubled), &tasks) >= 3);

        // Outside its window, on a core that does not exist.
        let t = tasks.get(s.task);
        let mut outside = segs.clone();
        outside.push(Segment::new(
            s.task,
            legal.cores,
            t.deadline,
            t.deadline + 1.0,
            1.0,
        ));
        assert!(agree(&rebuilt(&outside), &tasks) >= 2);
    }
}
