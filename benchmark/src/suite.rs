//! The whole benchmark in one command: every workload several times
//! untraced and once traced, each run in a child process of its own so peak
//! memory and allocator state are per run; medians, checks, and a stamped
//! result file `compare` reads.

use std::process::{Command, Stdio};

use crate::json::{parse, Value};
use crate::metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::proc::Dirs;
use crate::stats::median;
use crate::workloads::Workload;

/// The traced run may cost at most this much more wall time than the
/// untraced ones.
const MAX_TRACE_OVERHEAD_PCT: f64 = 5.0;

/// `sim.construct_s + sim.run_s` must explain at least this share of a
/// simulation workload's pass, both read in the same (traced) run: across
/// runs the box's own drift is larger than the share being checked.
const MIN_SIM_ATTRIBUTION_PCT: f64 = 95.0;

/// Untraced runs per workload; the median is reported.
const UNTRACED_RUNS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// Seed of every workload's inputs.
    pub seed: u64,
    /// Seconds each run measures.
    pub seconds: f64,
    /// Result file; default `<target>/benchmark/results.json`.
    pub out: Option<String>,
}

impl Default for SuiteArgs {
    fn default() -> Self {
        SuiteArgs {
            seed: 42,
            seconds: RUN_SECONDS as f64,
            out: None,
        }
    }
}

/// What one child run printed.
struct ChildRun {
    result: Value,
    digest: String,
}

fn run_child(workload: Workload, args: &SuiteArgs, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{}: run exited with {}",
            workload.name(),
            output.status
        ));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let result = parse(last).map_err(|e| format!("{}: result line: {e}", workload.name()))?;
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest "))
        .unwrap_or_default()
        .to_string();
    Ok(ChildRun { result, digest })
}

fn metric_value(run: &ChildRun, name: &str) -> Option<f64> {
    run.result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn count(run: &ChildRun, key: &str) -> f64 {
    run.result.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Runs the suite, prints every metric, writes the result file.
///
/// Returns whether no operation failed and every digest repeated.
///
/// # Errors
///
/// A child run that did not produce a result, or an unwritable result file.
pub fn run_suite(args: &SuiteArgs, dirs: &Dirs) -> Result<bool, String> {
    let mut all_ok = true;
    let mut workloads = Vec::new();
    let mut summary = vec![format!(
        "{:<13} {:>10} {:>10} {:>13} {:>9} {:>8}  checks",
        "workload", "wall_s", "setup_s", "peak_rss_mib", "ops", "failed"
    )];
    for workload in Workload::ALL {
        let untraced: Result<Vec<ChildRun>, String> = (0..UNTRACED_RUNS)
            .map(|_| run_child(workload, args, false))
            .collect();
        let untraced = untraced?;
        let traced = run_child(workload, args, true)?;

        let runs = |name: &str| -> Vec<f64> {
            untraced
                .iter()
                .filter_map(|r| metric_value(r, name))
                .collect()
        };
        let all: Vec<&ChildRun> = untraced.iter().chain([&traced]).collect();
        let mut digests: Vec<&str> = all.iter().map(|r| r.digest.as_str()).collect();
        digests.sort_unstable();
        digests.dedup();
        let ops: f64 = all.iter().map(|r| count(r, "attempted")).sum();
        let failed: f64 = all.iter().map(|r| count(r, "failed")).sum();
        let correct = all
            .iter()
            .all(|r| r.result.get("correct").and_then(Value::as_bool) == Some(true));

        let layer = |name: &str| metric_value(&traced, name).unwrap_or(0.0);
        let wall = median(&runs("wall_s"));
        // A failed operation or a digest that moved fails the suite. The two
        // checks on the ruler itself only warn: on a shared box they are read
        // against noise as large as their own thresholds.
        let mut checks = Vec::new();
        if failed > 0.0 || !correct {
            checks.push(format!("{failed} ops FAILED"));
        }
        if digests.len() != 1 {
            checks.push(format!("{} DIFFERENT DIGESTS", digests.len()));
        }
        all_ok &= checks.is_empty();
        let overhead = layer("trace_overhead_pct");
        if overhead > MAX_TRACE_OVERHEAD_PCT {
            checks.push(format!(
                "warn: trace overhead {overhead:.1} % > {MAX_TRACE_OVERHEAD_PCT} %"
            ));
        }
        if layer("sim.run_s") > 0.0 {
            let attributed = 100.0 * (layer("sim.construct_s") + layer("sim.run_s"))
                / layer("harness.pass_s").max(1e-12);
            if attributed < MIN_SIM_ATTRIBUTION_PCT {
                checks.push(format!(
                    "warn: construct+run explain only {attributed:.1} % of a pass"
                ));
            }
        }
        summary.push(format!(
            "{:<13} {:>10.4} {:>10.4} {:>13.2} {:>9} {:>8}  {}",
            workload.name(),
            wall,
            median(&runs("setup_s")),
            median(&runs("peak_rss_mib")),
            ops,
            failed,
            if checks.is_empty() {
                "ok".to_string()
            } else {
                checks.join("; ")
            }
        ));

        workloads.push(Value::obj([
            ("name", Value::str(workload.name())),
            ("ops", Value::Num(ops)),
            ("ops_failed", Value::Num(failed)),
            (
                "digests",
                Value::Arr(digests.iter().map(|d| Value::str(*d)).collect()),
            ),
            (
                "end_to_end",
                Value::obj(END_TO_END.iter().map(|m| {
                    let values = runs(m.name);
                    (
                        m.name,
                        Value::obj([
                            ("unit", Value::str(m.unit)),
                            ("median", Value::Num(median(&values))),
                            (
                                "values",
                                Value::Arr(values.into_iter().map(Value::Num).collect()),
                            ),
                        ]),
                    )
                })),
            ),
            (
                "per_layer",
                Value::obj(PER_LAYER.iter().map(|m| {
                    (
                        m.name,
                        Value::obj([
                            ("unit", Value::str(m.unit)),
                            ("value", Value::Num(layer(m.name))),
                        ]),
                    )
                })),
            ),
        ]));
    }

    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let results = Value::obj([
        (
            "stamp",
            Value::obj([
                ("nproc", Value::Num(nproc as f64)),
                ("commit", Value::str(env("FEDCO_BENCH_COMMIT"))),
                ("rustc", Value::str(env("FEDCO_BENCH_RUSTC"))),
                ("seed", Value::Num(args.seed as f64)),
                ("seconds", Value::Num(args.seconds)),
                ("untraced_runs", Value::Num(UNTRACED_RUNS as f64)),
                ("traced_runs", Value::Num(1.0)),
            ]),
        ),
        ("workloads", Value::Arr(workloads)),
    ]);
    let path = match &args.out {
        Some(path) => std::path::PathBuf::from(path),
        None => dirs.out_dir()?.join("results.json"),
    };
    std::fs::write(&path, results.render_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    println!(
        "\n== summary: median of {} untraced run(s) per workload, {} s each, seed {}, {} core(s) ==",
        UNTRACED_RUNS,
        args.seconds,
        args.seed,
        nproc
    );
    for line in summary {
        println!("{line}");
    }
    println!("results written to {}", path.display());
    Ok(all_ok)
}
