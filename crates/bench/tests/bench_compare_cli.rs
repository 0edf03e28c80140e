//! The `bench_compare` binary's exit-code contract on what it cannot gate.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Writes `contents` to a per-process scratch file and returns its path.
fn scratch_file(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "fedco-bench-compare-{name}-{}.json",
        std::process::id()
    ));
    std::fs::write(&path, contents).expect("write scratch file");
    path
}

fn bench_compare(baseline: &Path, current: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .arg("--baseline")
        .arg(baseline)
        .arg("--current")
        .arg(current)
        .args(["--threshold", "0.3"])
        .output()
        .expect("bench_compare binary runs")
}

#[test]
fn disjoint_baseline_and_current_fail_the_gate() {
    let baseline = scratch_file(
        "baseline",
        "{\"name\":\"engine/scale/20000\",\"slots_per_sec\":35617}\n",
    );
    // The same cell under a new name: nothing is compared, so nothing passes.
    let renamed = scratch_file(
        "renamed",
        "{\"name\":\"engine/scale/20k\",\"slots_per_sec\":35617}\n",
    );
    let kept = scratch_file(
        "kept",
        "{\"name\":\"engine/scale/20000\",\"slots_per_sec\":30000}\n",
    );

    let disjoint = bench_compare(&baseline, &renamed);
    let shared = bench_compare(&baseline, &kept);
    for path in [&baseline, &renamed, &kept] {
        let _ = std::fs::remove_file(path);
    }

    let stdout = String::from_utf8_lossy(&disjoint.stdout);
    assert_eq!(disjoint.status.code(), Some(1), "disjoint files: {stdout}");
    assert!(stdout.contains("note: baseline `engine/scale/20000` not in current run"));
    assert!(stdout.contains("FAIL (no common benchmark names"));
    assert!(!stdout.contains("PASS"));

    assert!(shared.status.success(), "one shared name gates: {shared:?}");
}
