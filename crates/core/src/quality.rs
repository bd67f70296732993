//! Schedule quality analysis: a structured report of *why* a schedule
//! costs what it costs.
//!
//! Complements the boolean legality check (`esched-types::validate`) and
//! the scalar energy number with per-task and aggregate diagnostics:
//! dynamic/static energy split, window-slack usage, frequency spreads,
//! and fragmentation (segments, migrations, preemptions).

use esched_types::time::compensated_sum;
use esched_types::{PolynomialPower, Schedule, TaskId, TaskSet};
use std::fmt::Write as _;

/// Per-task diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskQuality {
    /// The task.
    pub task: TaskId,
    /// Number of execution segments.
    pub segments: usize,
    /// Total execution time.
    pub exec_time: f64,
    /// Fraction of the window actually used (`exec_time / (D−R)`).
    pub window_usage: f64,
    /// Work-weighted mean frequency.
    pub mean_freq: f64,
    /// Dynamic energy.
    pub dynamic_energy: f64,
    /// Static energy.
    pub static_energy: f64,
}

/// Whole-schedule diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleQuality {
    /// Per-task rows, by task id.
    pub tasks: Vec<TaskQuality>,
    /// Total energy (= dynamic + static).
    pub energy: f64,
    /// Total dynamic energy.
    pub dynamic_energy: f64,
    /// Total static energy.
    pub static_energy: f64,
    /// Migrations across the schedule.
    pub migrations: usize,
    /// Preemptions across the schedule.
    pub preemptions: usize,
    /// Mean core utilization over the task horizon.
    pub utilization: f64,
}

/// Analyze `schedule` for `tasks` under `power`.
pub fn analyze(schedule: &Schedule, tasks: &TaskSet, power: &PolynomialPower) -> ScheduleQuality {
    let mut rows = Vec::with_capacity(tasks.len());
    // Each task's segments in start order, as `Schedule::task_segments`
    // returns them, from one sort of the whole list.
    let by_task = schedule.segments_by_task();
    let mut runs = by_task.chunk_by(|a, b| a.task == b.task).peekable();
    for (id, t) in tasks.iter() {
        let segs = runs.next_if(|run| run[0].task == id).unwrap_or_default();
        let exec_time: f64 = compensated_sum(segs.iter().map(|s| s.duration()));
        let work: f64 = compensated_sum(segs.iter().map(|s| s.work()));
        let mean_freq = if exec_time > 0.0 {
            work / exec_time
        } else {
            0.0
        };
        let mut dynamic = 0.0;
        let mut stat = 0.0;
        for s in segs {
            let (d, st) = power.energy_breakdown(s.work(), s.freq);
            dynamic += d;
            stat += st;
        }
        rows.push(TaskQuality {
            task: id,
            segments: segs.len(),
            exec_time,
            window_usage: exec_time / t.window_len(),
            mean_freq,
            dynamic_energy: dynamic,
            static_energy: stat,
        });
    }
    let dynamic_energy: f64 = rows.iter().map(|r| r.dynamic_energy).sum();
    let static_energy: f64 = rows.iter().map(|r| r.static_energy).sum();
    ScheduleQuality {
        energy: dynamic_energy + static_energy,
        dynamic_energy,
        static_energy,
        migrations: schedule.migrations(),
        preemptions: schedule.preemptions(),
        utilization: schedule.utilization(tasks.horizon().length()),
        tasks: rows,
    }
}

impl ScheduleQuality {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:>5} {:>9} {:>8} {:>8} {:>10} {:>10}",
            "task", "segs", "exec", "usage", "freq", "E_dyn", "E_stat"
        );
        for r in &self.tasks {
            let _ = writeln!(
                out,
                "{:>5} {:>5} {:>9.3} {:>8.3} {:>8.3} {:>10.4} {:>10.4}",
                r.task,
                r.segments,
                r.exec_time,
                r.window_usage,
                r.mean_freq,
                r.dynamic_energy,
                r.static_energy
            );
        }
        let _ = writeln!(
            out,
            "total: E = {:.4} (dynamic {:.4} + static {:.4}), {} migrations, {} preemptions, utilization {:.2}",
            self.energy,
            self.dynamic_energy,
            self.static_energy,
            self.migrations,
            self.preemptions,
            self.utilization
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::der::der_schedule;

    fn vd_tasks() -> TaskSet {
        TaskSet::from_triples(&[
            (0.0, 10.0, 8.0),
            (2.0, 18.0, 14.0),
            (4.0, 16.0, 8.0),
            (6.0, 14.0, 4.0),
            (8.0, 20.0, 10.0),
            (12.0, 22.0, 6.0),
        ])
    }

    #[test]
    fn totals_agree_with_schedule_energy() {
        let ts = vd_tasks();
        for p in [PolynomialPower::cubic(), PolynomialPower::paper(3.0, 0.2)] {
            let out = der_schedule(&ts, 4, &p);
            let q = analyze(&out.schedule, &ts, &p);
            let direct = out.schedule.energy(&p);
            assert!(
                (q.energy - direct).abs() < 1e-7 * (1.0 + direct),
                "quality {} vs schedule {}",
                q.energy,
                direct
            );
            if p.p0 == 0.0 {
                assert_eq!(q.static_energy, 0.0);
            } else {
                assert!(q.static_energy > 0.0);
            }
        }
    }

    #[test]
    fn per_task_mean_frequency_matches_assignment() {
        let ts = vd_tasks();
        let p = PolynomialPower::cubic();
        let out = der_schedule(&ts, 4, &p);
        let q = analyze(&out.schedule, &ts, &p);
        for r in &q.tasks {
            assert!(
                (r.mean_freq - out.assignment.freq[r.task]).abs() < 1e-9,
                "task {}: {} vs {}",
                r.task,
                r.mean_freq,
                out.assignment.freq[r.task]
            );
            assert!(r.window_usage > 0.0 && r.window_usage <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn render_contains_every_task_and_totals() {
        let ts = vd_tasks();
        let p = PolynomialPower::paper(3.0, 0.1);
        let out = der_schedule(&ts, 4, &p);
        let text = analyze(&out.schedule, &ts, &p).render();
        for i in 0..6 {
            assert!(text.contains(&format!("\n{:>5}", i)), "missing task {i}");
        }
        assert!(text.contains("total: E ="));
        assert!(text.contains("migrations"));
    }

    #[test]
    fn static_fraction_grows_with_p0() {
        let ts = vd_tasks();
        let lo = analyze(
            &der_schedule(&ts, 4, &PolynomialPower::paper(3.0, 0.05)).schedule,
            &ts,
            &PolynomialPower::paper(3.0, 0.05),
        );
        let hi = analyze(
            &der_schedule(&ts, 4, &PolynomialPower::paper(3.0, 0.5)).schedule,
            &ts,
            &PolynomialPower::paper(3.0, 0.5),
        );
        let frac_lo = lo.static_energy / lo.energy;
        let frac_hi = hi.static_energy / hi.energy;
        assert!(frac_hi > frac_lo, "{frac_lo} vs {frac_hi}");
    }

    /// `analyze` as first written: one `task_segments` filter per task.
    /// (`randomized_types.rs` pins migrations and preemptions.)
    fn filtering_analyze(
        schedule: &Schedule,
        tasks: &TaskSet,
        power: &PolynomialPower,
    ) -> ScheduleQuality {
        let mut rows = Vec::new();
        for (id, t) in tasks.iter() {
            let segs = schedule.task_segments(id);
            let exec_time = compensated_sum(segs.iter().map(|s| s.duration()));
            let work = compensated_sum(segs.iter().map(|s| s.work()));
            let (mut dynamic, mut stat) = (0.0, 0.0);
            for s in &segs {
                let (d, st) = power.energy_breakdown(s.work(), s.freq);
                dynamic += d;
                stat += st;
            }
            rows.push(TaskQuality {
                task: id,
                segments: segs.len(),
                exec_time,
                window_usage: exec_time / t.window_len(),
                mean_freq: if exec_time > 0.0 {
                    work / exec_time
                } else {
                    0.0
                },
                dynamic_energy: dynamic,
                static_energy: stat,
            });
        }
        let dynamic_energy: f64 = rows.iter().map(|r| r.dynamic_energy).sum();
        let static_energy: f64 = rows.iter().map(|r| r.static_energy).sum();
        ScheduleQuality {
            energy: dynamic_energy + static_energy,
            dynamic_energy,
            static_energy,
            migrations: schedule.migrations(),
            preemptions: schedule.preemptions(),
            utilization: schedule.utilization(tasks.horizon().length()),
            tasks: rows,
        }
    }

    #[test]
    fn matches_a_filter_per_task_on_random_schedules() {
        use esched_obs::rng::ChaCha8;
        use esched_types::Segment;
        let mut rng = ChaCha8::seed_from_u64(0x9a11_0001);
        let p = PolynomialPower::paper(3.0, 0.1);
        for case in 0..64 {
            let ts = esched_workload::WorkloadSpec::paper()
                .with_scale(rng.gen_range_usize(2, 12))
                .instantiate(case);
            let out = der_schedule(&ts, 3, &p);
            assert_eq!(
                analyze(&out.schedule, &ts, &p),
                filtering_analyze(&out.schedule, &ts, &p)
            );
            // In random order, with starts on a coarse grid that tie, and with
            // segments of tasks the set does not have.
            let mut s = Schedule::new(3);
            for _ in 0..rng.gen_range_usize(0, 32) {
                let start = rng.gen_range_usize(0, 20) as f64;
                s.push(Segment::new(
                    rng.gen_range_usize(0, ts.len() + 2),
                    rng.gen_range_usize(0, 3),
                    start,
                    start + rng.gen_range_usize(1, 4) as f64,
                    rng.gen_range_f64(0.2, 2.0),
                ));
            }
            assert_eq!(analyze(&s, &ts, &p), filtering_analyze(&s, &ts, &p));
        }
    }
}
