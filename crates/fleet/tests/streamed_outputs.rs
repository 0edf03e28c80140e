//! The streamed sweep against the library sweep: what `fleet_sweep` writes
//! through [`run_grid_streamed`] — chunks rendered and registries folded on
//! the workers, written out in job order — must equal, byte for byte, the
//! merged trace and metrics [`run_grid_traced`] holds in memory.

use fedco_fleet::prelude::*;

fn scenario(name: &str, users: usize, slots: u64) -> ScenarioSpec {
    ScenarioSpec::preset(name)
        .expect("preset")
        .with_users(users)
        .with_slots(slots)
}

/// The first jobs are by far the longest, so with several workers the later
/// jobs finish first and wait in the reorder buffer.
fn longest_first_grid() -> ScenarioGrid {
    ScenarioGrid::from_scenarios(vec![
        scenario("dense-burst", 12, 3000),
        scenario("smoke", 3, 200),
        scenario("battery-constrained", 3, 300),
    ])
    .with_policy_specs(PolicySpec::PAPER.to_vec())
    .with_replicates(2)
}

/// The grid of `ci.sh`'s telemetry smoke (`fleet_sweep --scenario smoke:users=5:slots=400`).
fn ci_grid() -> ScenarioGrid {
    ScenarioGrid::from_scenarios(vec![scenario("smoke", 5, 400)])
        .with_policy_specs(PolicySpec::PAPER.to_vec())
        .with_base_seed(42)
        .with_replicates(2)
}

#[test]
fn streamed_bytes_equal_the_library_sweep_for_any_worker_count() {
    for grid in [longest_first_grid(), ci_grid()] {
        let (report, library) = run_grid_traced(&grid, 1);
        let trace = events_to_jsonl(&library.events);
        let metrics = library.metrics.to_jsonl();
        for workers in [1, 2, 4] {
            let mut streamed = Vec::new();
            let swept = run_grid_streamed(&grid, workers, Some(&mut streamed), true)
                .expect("a Vec never fails to write");
            assert!(streamed == trace.as_bytes(), "trace, {workers} workers");
            assert_eq!(swept.events, library.events.len() as u64);
            assert_eq!(swept.metrics.expect("asked for").to_jsonl(), metrics);
            assert_eq!(swept.report.jobs, report.jobs);
            assert_eq!(swept.report.rollups, report.rollups);
        }
    }
}

#[test]
fn each_output_alone_is_the_same_bytes() {
    let grid = longest_first_grid();
    let (_, library) = run_grid_traced(&grid, 2);

    let metrics_only = run_grid_streamed(&grid, 2, None, true).expect("no writer to fail");
    assert_eq!(metrics_only.events, library.events.len() as u64);
    assert_eq!(
        metrics_only.metrics.expect("asked for").to_jsonl(),
        library.metrics.to_jsonl()
    );

    let mut streamed = Vec::new();
    let trace_only = run_grid_streamed(&grid, 2, Some(&mut streamed), false).expect("Vec writer");
    assert!(streamed == events_to_jsonl(&library.events).as_bytes());
    assert_eq!(trace_only.metrics, None);
}

/// `ci.sh` compares the files the `fleet_sweep` binary writes against files
/// produced by the library path; this is where those come from. Does nothing
/// unless both paths are given.
#[test]
fn library_outputs_for_ci() {
    let paths = (
        std::env::var("FEDCO_LIBRARY_TRACE"),
        std::env::var("FEDCO_LIBRARY_METRICS"),
    );
    if let (Ok(trace), Ok(metrics)) = paths {
        let (_, library) = run_grid_traced(&ci_grid(), 2);
        std::fs::write(trace, events_to_jsonl(&library.events)).expect("trace file");
        std::fs::write(metrics, library.metrics.to_jsonl()).expect("metrics file");
    }
}

/// `fleet_sweep … | head -1`: the reader goes away while the sweep still has
/// a rollup table of 1 200 cells (over 64 KiB, more than a pipe holds) to
/// print. The run ends as a finished one, with its `--csv` file written.
#[test]
fn a_closed_stdout_ends_the_sweep_without_a_panic() {
    use std::io::Read;
    use std::process::{Command, Stdio};

    let seeds: Vec<String> = (1..=300).map(|seed| seed.to_string()).collect();
    let csv = std::env::temp_dir().join(format!("fleet_sweep_closed_{}.csv", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_fleet_sweep"))
        .args("--scenario smoke:users=1:slots=10 --replicates 1 --workers 2".split(' '))
        .args(["--axis", &format!("seed={}", seeds.join(","))])
        .arg("--csv")
        .arg(&csv)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fleet_sweep");
    drop(child.stdout.take());
    let mut stderr = String::new();
    let _ = child
        .stderr
        .take()
        .map(|mut e| e.read_to_string(&mut stderr));
    let status = child.wait().expect("fleet_sweep exits");
    let rows = std::fs::read_to_string(&csv).map(|text| text.lines().count());
    let _ = std::fs::remove_file(&csv);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(status.code(), Some(101), "{stderr}");
    assert!(status.success(), "{status}: {stderr}");
    assert_eq!(
        rows.ok(),
        Some(1 + 4 * 300),
        "the header and one row per job"
    );
}
