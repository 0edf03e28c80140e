//! `bench_compare` — the CI perf-regression gate over `BENCH_*.json`.
//!
//! ```text
//! cargo run --release --offline -p fedco-bench --bin bench_compare -- \
//!     --baseline BENCH_engine.json --current /tmp/bench_now.json \
//!     [--threshold 0.5]
//! ```
//!
//! Parses both files with [`fedco_bench::compare`], reduces the baseline
//! trajectory to its median recorded throughput per benchmark name (robust
//! to recording sessions from machines of very different speeds) and the
//! current run to its best, normalizes by the median `current / baseline`
//! ratio (so a uniformly slower or faster machine never trips the gate)
//! and fails when any benchmark's normalized ratio falls below the
//! threshold. It also fails when the two files share no benchmark name, so
//! a renamed or deleted cell cannot disarm the gate.
//!
//! Exit codes: `0` pass, `1` regression detected or nothing to gate, `2`
//! usage or I/O error.

use std::process::ExitCode;

use fedco_bench::compare::{compare, DEFAULT_THRESHOLD};

const USAGE: &str =
    "usage: bench_compare --baseline PATH --current PATH [--threshold RATIO (default 0.5)]";

fn run() -> Result<ExitCode, String> {
    let mut baseline: Option<String> = None;
    let mut current: Option<String> = None;
    let mut threshold = DEFAULT_THRESHOLD;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--baseline" => baseline = Some(value("--baseline")?),
            "--current" => current = Some(value("--current")?),
            "--threshold" => {
                threshold = value("--threshold")?
                    .parse()
                    .map_err(|e| format!("--threshold: {e}"))?;
                if !(0.0..=1.0).contains(&threshold) {
                    return Err("--threshold must be in [0, 1]".to_string());
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    let baseline = baseline.ok_or_else(|| format!("--baseline is required\n{USAGE}"))?;
    let current = current.ok_or_else(|| format!("--current is required\n{USAGE}"))?;
    let baseline_text =
        std::fs::read_to_string(&baseline).map_err(|e| format!("cannot read {baseline}: {e}"))?;
    let current_text =
        std::fs::read_to_string(&current).map_err(|e| format!("cannot read {current}: {e}"))?;

    let report = compare(&baseline_text, &current_text, threshold);
    print!("{report}");
    if report.rows.is_empty() {
        println!("bench compare: FAIL (no common benchmark names; nothing to gate)");
        return Ok(ExitCode::from(1));
    }
    if report.passed() {
        println!("bench compare: PASS");
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "bench compare: FAIL ({} regression(s))",
            report.regressions().count()
        );
        Ok(ExitCode::from(1))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
