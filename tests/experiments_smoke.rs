//! Smoke tests for the experiment harness: every figure/table module runs
//! end-to-end at a reduced trial count and produces sane output and
//! artifacts.

use esched_experiments::{ablate, fig10, fig11, fig6, fig7, fig8, fig9, solvers, table2, worked};
use std::fs;

fn outdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("esched-smoke-{name}"));
    fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn fig6_report_and_csv() {
    let dir = outdir("fig6");
    let report = fig6::run_and_report(2, 1, &dir);
    assert!(report.contains("Figure 6"));
    assert!(report.lines().count() >= 13); // header + 11 rows
    let csv = fs::read_to_string(dir.join("fig6.csv")).unwrap();
    assert!(csv.starts_with("p0,nec_idl"));
    assert_eq!(csv.lines().count(), 12);
}

#[test]
fn fig7_report_and_csv() {
    let dir = outdir("fig7");
    let report = fig7::run_and_report(2, 1, &dir);
    assert!(report.contains("Figure 7"));
    assert!(fs::metadata(dir.join("fig7.csv")).unwrap().len() > 0);
}

#[test]
fn fig8_report_and_csv() {
    let dir = outdir("fig8");
    let report = fig8::run_and_report(2, 1, &dir);
    assert!(report.contains("Figure 8"));
    let csv = fs::read_to_string(dir.join("fig8.csv")).unwrap();
    assert_eq!(csv.lines().count(), 7); // header + 6 core counts
}

#[test]
fn fig9_report_and_csv() {
    let dir = outdir("fig9");
    let report = fig9::run_and_report(2, 1, &dir);
    assert!(report.contains("Figure 9"));
    assert!(fs::metadata(dir.join("fig9.csv")).unwrap().len() > 0);
}

#[test]
fn fig10_report_and_csv() {
    let dir = outdir("fig10");
    let report = fig10::run_and_report(2, 1, &dir);
    assert!(report.contains("Figure 10"));
    let csv = fs::read_to_string(dir.join("fig10.csv")).unwrap();
    assert_eq!(csv.lines().count(), 9); // header + 8 task counts
}

#[test]
fn fig11_report_and_csv() {
    let dir = outdir("fig11");
    let report = fig11::run_and_report(3, 1, &dir);
    assert!(report.contains("Figure 11"));
    assert!(report.contains("P(miss)"));
    let csv = fs::read_to_string(dir.join("fig11.csv")).unwrap();
    assert_eq!(csv.lines().count(), 6); // header + 5 schedules
}

#[test]
fn table2_report_and_csv() {
    let dir = outdir("table2");
    let report = table2::run_and_report(1, 1, 5, &dir);
    assert!(report.contains("Table II"));
    let csv = fs::read_to_string(dir.join("table2.csv")).unwrap();
    assert_eq!(csv.lines().count(), 10); // header + 3x3 cells
}

#[test]
fn ablate_report_and_csv() {
    let dir = outdir("ablate");
    let report = ablate::run_and_report(2, 1, &dir);
    assert!(report.contains("Allocation rule"));
    assert!(report.contains("Online dispatch"));
    assert!(report.contains("Wake-up overhead"));
    let csv = fs::read_to_string(dir.join("ablate.csv")).unwrap();
    assert!(csv.contains("alloc_der"));
    assert!(csv.contains("wake_f2_act"));
}

#[test]
fn solvers_study_runs_on_a_small_instance() {
    // The full run_and_report sweeps n ∈ {10, 20, 40}, which is release-
    // build territory; smoke-test the machinery on one small instance.
    let runs = solvers::run(&[8], 1);
    let names: Vec<&str> = runs.iter().map(|r| r.name).collect();
    assert_eq!(names, vec!["pgd", "block_descent", "admm", "exact"]);
    for r in &runs {
        assert!(r.objective.is_finite() && r.objective > 0.0);
    }
}

#[test]
fn worked_examples_render() {
    assert!(worked::fig2_report().contains("YDS"));
    assert!(worked::example_vd_report().contains("31.83"));
    assert!(worked::corecount_report().contains("best"));
}
