//! A minimal micro-benchmark harness on `std::time::Instant`.
//!
//! The offline build cannot use Criterion, so the `benches/` targets are
//! plain `harness = false` binaries driving this module: each benchmark is
//! auto-calibrated to a target measurement time, run as several samples, and
//! reported as median / mean / min ns-per-iteration. Results are printed in
//! a stable single-line format that is easy to diff between runs.
//!
//! Run with `cargo bench --offline`. Set `FEDCO_BENCH_MS` to change the
//! per-sample time budget (milliseconds, default 100). Set
//! `FEDCO_BENCH_JSON=<path>` to additionally append one JSON line per
//! benchmark to that file (`{"name":…,"median_ns":…,"mean_ns":…,"min_ns":…,
//! "samples":…,"nproc":…,"commit":…}`), so perf trajectories can be recorded
//! across commits and diffed mechanically.

use std::io::Write;
use std::process::Command;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Number of timed samples per benchmark.
const SAMPLES: usize = 7;

/// Per-sample time budget.
fn sample_budget() -> Duration {
    let ms = std::env::var("FEDCO_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100u64);
    Duration::from_millis(ms.max(1))
}

/// Measures `f`, returning the per-iteration nanoseconds of each sample.
fn measure<F: FnMut()>(mut f: F) -> Vec<f64> {
    // Calibration: find an iteration count that fills the sample budget.
    let budget = sample_budget();
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed >= budget / 4 || iters >= 1 << 30 {
            let scale = budget.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
            iters = ((iters as f64 * scale).ceil() as u64).max(1);
            break;
        }
        iters = iters.saturating_mul(8);
    }
    (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect()
}

/// Formats nanoseconds with an adaptive unit.
fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// `"nproc":N,"commit":"…"`: the machine width and the source a recorded
/// line measured (`git` short hash, `-dirty` with uncommitted changes,
/// `unknown` outside a checkout).
fn provenance() -> &'static str {
    static STAMP: OnceLock<String> = OnceLock::new();
    STAMP.get_or_init(|| {
        let git = |args: &[&str]| {
            let out = Command::new("git").args(args).output().ok()?;
            out.status
                .success()
                .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        };
        let commit = match git(&["rev-parse", "--short", "HEAD"]) {
            Some(hash) if git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty()) => {
                format!("{hash}-dirty")
            }
            Some(hash) => hash,
            None => "unknown".to_string(),
        };
        let nproc = std::thread::available_parallelism().map_or(0, usize::from);
        format!(
            "\"nproc\":{nproc},\"commit\":\"{}\"",
            fedco_telemetry::export::json_escape(&commit)
        )
    })
}

/// One machine-readable result line for `FEDCO_BENCH_JSON`.
fn json_line(name: &str, median: f64, mean: f64, min: f64, samples: usize) -> String {
    format!(
        "{{\"name\":\"{}\",\"median_ns\":{:.1},\"mean_ns\":{:.1},\"min_ns\":{:.1},\"samples\":{},{}}}",
        fedco_telemetry::export::json_escape(name),
        median,
        mean,
        min,
        samples,
        provenance()
    )
}

/// Appends one pre-formatted JSON line to the `FEDCO_BENCH_JSON` file, if
/// configured (no-op otherwise). Benchmarks with result shapes that do not
/// fit the standard ns-per-iteration schema (e.g. the engine throughput
/// benchmark's slots-per-second lines) use this to share the same sink.
/// I/O errors are reported to stderr but never fail the benchmark run.
pub fn append_json_line(line: &str) {
    record_json(line);
}

/// Appends one result line to the `FEDCO_BENCH_JSON` file, if configured.
/// I/O errors are reported to stderr but never fail the benchmark run.
fn record_json(line: &str) {
    let Ok(path) = std::env::var("FEDCO_BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{line}"));
    if let Err(e) = result {
        eprintln!("FEDCO_BENCH_JSON: cannot write {path}: {e}");
    }
}

/// Runs one named benchmark and prints its summary line. With
/// `FEDCO_BENCH_JSON=<path>` set, also appends the result as a JSON line.
pub fn bench<F: FnMut()>(name: &str, f: F) {
    let mut samples = measure(f);
    samples.sort_by(f64::total_cmp);
    let median = samples[samples.len() / 2];
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let min = samples[0];
    println!(
        "{name:<44} median {:>12}   mean {:>12}   min {:>12}",
        fmt_ns(median),
        fmt_ns(mean),
        fmt_ns(min)
    );
    record_json(&json_line(name, median, mean, min, samples.len()));
}

/// Prints a group header, mirroring Criterion's `benchmark_group` output.
pub fn group(title: &str) {
    println!("\n== {title} ==");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes the tests that touch process-global environment variables:
    /// concurrent `set_var`/`var` from parallel test threads is a data race
    /// (undefined behavior on glibc).
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn measure_returns_positive_samples() {
        let _guard = ENV_LOCK.lock().expect("env lock");
        std::env::set_var("FEDCO_BENCH_MS", "1");
        let samples = measure(|| {
            std::hint::black_box(3u64.wrapping_mul(7));
        });
        assert_eq!(samples.len(), SAMPLES);
        assert!(samples.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn json_line_is_parseable_and_escaped() {
        let line = json_line("slot/online \"25\"", 12.34, 13.0, 11.0, 7);
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"name\":\"slot/online \\\"25\\\"\""));
        assert!(line.contains("\"median_ns\":12.3"));
        assert!(line.contains("\"samples\":7,\"nproc\":"));
        assert!(line.contains("\"commit\":\""));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn bench_appends_json_lines_when_configured() {
        let _guard = ENV_LOCK.lock().expect("env lock");
        let path = std::env::temp_dir().join(format!(
            "fedco_bench_json_test_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        std::env::set_var("FEDCO_BENCH_MS", "1");
        std::env::set_var("FEDCO_BENCH_JSON", &path);
        bench("json/emit", || {
            std::hint::black_box(3u64.wrapping_mul(7));
        });
        bench("json/emit2", || {
            std::hint::black_box(5u64.wrapping_add(9));
        });
        std::env::remove_var("FEDCO_BENCH_JSON");
        let content = std::fs::read_to_string(&path).expect("json file written");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"json/emit\""));
        assert!(lines[1].contains("\"name\":\"json/emit2\""));
        for line in lines {
            assert!(line.contains("\"median_ns\":"));
            assert!(line.contains("\"samples\":7"));
        }
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(12.34), "12.3 ns");
        assert_eq!(fmt_ns(12_340.0), "12.34 µs");
        assert_eq!(fmt_ns(12_340_000.0), "12.34 ms");
        assert_eq!(fmt_ns(2.5e9), "2.500 s");
    }
}
