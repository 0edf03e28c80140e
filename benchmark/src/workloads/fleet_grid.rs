//! `fleet-grid`: the shipped `fleet_sweep` CLI on a ten-scenario grid with
//! every output switched on — process start to report, as users run it.

use std::hint::black_box;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use fedco_core::scenario::ScenarioSpec;
use fedco_core::spec::PolicySpec;
use fedco_fleet::executor::{deterministic_view, run_grid_traced};
use fedco_fleet::grid::ScenarioGrid;
use fedco_fleet::report::{rollup_table, to_csv, to_jsonl};
use fedco_sim::engine::Simulation;
use fedco_telemetry::export::events_to_jsonl;
use fedco_telemetry::profiling::Stopwatch;
use fedco_telemetry::sink::BufferSink;

use super::{seconds_per_call, Cx, PassOutcome, Size};
use crate::proc::{peak_rss_mib, Reaped};
use crate::stats::{median, Digest};

/// The policy axis, spelled out so the grid does not depend on the CLI's
/// default.
const POLICIES: &str = "immediate,sync-sgd,offline,online";

/// Worker threads of the sweep: the cores of the box it was sized on.
const WORKERS: usize = 2;

fn scenarios(size: Size) -> &'static str {
    size.pick(
        "paper-default,sparse,dense-burst,hetero-devices,lte-uplink,wifi-fleet,diurnal-day,\
         flash-crowd,battery-constrained,compressed-uplink",
        "smoke,dense-burst:slots=400",
    )
}

fn replicates(size: Size) -> usize {
    size.pick(3, 1)
}

/// What the CLI's stdout and output files said.
#[derive(Debug, Default)]
struct Report {
    jobs: Option<u64>,
    csv_rows: Option<u64>,
    jsonl_lines: Option<u64>,
    events: Option<u64>,
    metrics: Option<u64>,
}

/// The number before `unit` in a line like `wrote x.csv (120 rows)`.
fn count_before(line: &str, unit: &str) -> Option<u64> {
    let (head, _) = line.rsplit_once(unit)?;
    let digits = head
        .trim_end()
        .rsplit(|c: char| !c.is_ascii_digit())
        .next()?;
    digits.parse().ok()
}

impl Report {
    fn read_line(&mut self, line: &str) {
        if line.starts_with("fleet_sweep:") {
            self.jobs = count_before(line, " jobs (");
        } else if line.starts_with("wrote ") {
            if line.ends_with("rows)") {
                self.csv_rows = count_before(line, " rows)");
            } else if line.ends_with("lines)") {
                self.jsonl_lines = count_before(line, " lines)");
            } else if line.ends_with("events)") {
                self.events = count_before(line, " events)");
            } else if line.ends_with("metrics)") {
                self.metrics = count_before(line, " metrics)");
            }
        }
    }
}

/// Folds a CSV report into the digest without its two trailing wall-clock
/// columns, and returns its data-row count.
fn digest_csv(digest: &mut Digest, path: &Path) -> Result<u64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut rows = 0;
    for line in text.lines().skip(1) {
        let stable = line.rsplitn(3, ',').last().unwrap_or(line);
        digest.bytes(stable.as_bytes());
        rows += 1;
    }
    Ok(rows)
}

/// One pass: run the CLI, watch its memory, check what it wrote.
pub fn pass(cx: &mut Cx<'_>) -> Result<PassOutcome, String> {
    let binary = cx.dirs.binary("fleet_sweep")?;
    let out = cx.dirs.out_dir()?;
    let file = |ext: &str| out.join(format!("fleet-grid.{ext}"));
    let (csv, jsonl, metrics) = (file("csv"), file("jsonl"), file("metrics"));

    let open = cx.tracer.enter("pass");
    let spawn = cx.tracer.enter("fleet.cli.spawn_to_grid");
    let mut child = Command::new(binary)
        .args(["--workers", &WORKERS.to_string()])
        .args(["--scenario", scenarios(cx.size), "--policies", POLICIES])
        .args(["--replicates", &replicates(cx.size).to_string()])
        .args(["--seed", &cx.seed.to_string()])
        .arg("--csv")
        .arg(&csv)
        .arg("--jsonl")
        .arg(&jsonl)
        .arg("--metrics")
        .arg(&metrics)
        .args(["--trace", "/dev/null"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn fleet_sweep: {e}"))?;
    let stdout = child.stdout.take();
    let mut child = Reaped(child);
    let mut lines = BufReader::new(stdout.ok_or("fleet_sweep: no stdout pipe")?).lines();
    let mut report = Report::default();
    // The first line is printed once the grid is built and validated.
    if let Some(Ok(line)) = lines.next() {
        report.read_line(&line);
    }
    let setup_s = cx.tracer.exit(spawn);

    // VmHWM only grows, so sampling it while the child runs reads its peak
    // to within the last few milliseconds of its life.
    let run = cx.tracer.enter("fleet.cli.run_to_exit");
    let pid = child.pid();
    let done = AtomicBool::new(false);
    let child_peak_rss_mib = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let mut peak = None;
            while !done.load(Ordering::Relaxed) {
                peak = peak_rss_mib(Some(pid)).or(peak);
                std::thread::sleep(Duration::from_millis(4));
            }
            peak
        });
        for line in lines.map_while(Result::ok) {
            report.read_line(&line);
        }
        done.store(true, Ordering::Relaxed);
        watcher.join().ok().flatten()
    });
    let exited = child.wait_success();
    cx.tracer.exit(run);
    let wall_s = cx.tracer.exit(open);
    exited?;

    let verify = cx.tracer.enter("harness.verify_outputs");
    let mut digest = Digest::default();
    let csv_rows = digest_csv(&mut digest, &csv)?;
    let jsonl_lines = std::fs::read_to_string(&jsonl)
        .map_err(|e| format!("{}: {e}", jsonl.display()))?
        .lines()
        .count() as u64;
    let metrics_bytes =
        std::fs::read(&metrics).map_err(|e| format!("{}: {e}", metrics.display()))?;
    digest.bytes(&metrics_bytes);
    digest.word(report.events.unwrap_or(0));
    cx.tracer.exit(verify);

    let jobs = report.jobs.unwrap_or(0);
    let consistent = jobs > 0
        && report.csv_rows == Some(jobs)
        && report.jsonl_lines == Some(jobs)
        && csv_rows == jobs
        && jsonl_lines == jobs
        && report.events.is_some_and(|e| e > 0)
        && report.metrics.is_some_and(|m| m > 0);
    cx.samples.push("fleet.cli.spawn_to_grid_ms", setup_s * 1e3);
    Ok(PassOutcome {
        wall_s,
        setup_s,
        ops: jobs.max(1),
        ops_failed: if consistent { 0 } else { jobs.max(1) },
        digest: digest.value(),
        child_peak_rss_mib,
    })
}

fn grid(size: Size, seed: u64) -> Result<ScenarioGrid, String> {
    let scenarios: Result<Vec<ScenarioSpec>, String> = scenarios(size)
        .split(',')
        .map(|s| s.parse().map_err(|e| format!("scenario `{s}`: {e}")))
        .collect();
    let policies: Result<Vec<PolicySpec>, String> = POLICIES
        .split(',')
        .map(|p| p.parse().map_err(|e| format!("policy `{p}`: {e}")))
        .collect();
    let grid = ScenarioGrid::from_scenarios(scenarios?)
        .with_policy_specs(policies?)
        .with_base_seed(seed)
        .with_replicates(replicates(size));
    grid.validate().map_err(|e| format!("grid: {e}"))?;
    Ok(grid)
}

/// The CLI's stages, one by one in process, on the same grid: expansion, the
/// executor on two workers and on one, the three report writers, telemetry
/// export; and what a telemetry sink costs one simulation.
pub fn probes(cx: &mut Cx<'_>) -> Result<(), String> {
    let grid = grid(cx.size, cx.seed)?;
    let expand_s = seconds_per_call(cx.size.pick(20, 2), 5, || {
        black_box(grid.expand());
    });

    let open = cx.tracer.enter("fleet.executor.run");
    let (report, trace) = run_grid_traced(&grid, WORKERS);
    let run_s = cx.tracer.exit(open);
    let open = cx.tracer.enter("fleet.executor.run_1worker");
    let single = run_grid_traced(&grid, 1);
    let run_1worker_s = cx.tracer.exit(open);
    if deterministic_view(&single.0) != deterministic_view(&report)
        || single.0.rollups != report.rollups
        || single.1 != trace
    {
        return Err("executor probe: 1 and 2 workers disagree".to_string());
    }
    drop(single);

    let csv_s = seconds_per_call(5, 5, || {
        black_box(to_csv(&report));
    });
    let jsonl_s = seconds_per_call(5, 5, || {
        black_box(to_jsonl(&report));
    });
    let rollup_s = seconds_per_call(5, 5, || {
        black_box(rollup_table(&report));
    });
    let open = cx.tracer.enter("telemetry.export.jsonl");
    let exported = events_to_jsonl(&trace.events);
    let export_s = cx.tracer.exit(open);
    black_box(exported.len());
    let events = trace.events.len();
    drop((exported, trace));

    let s = &mut *cx.samples;
    s.push("fleet.grid.expand_ms", expand_s * 1e3);
    s.push("fleet.grid.jobs", grid.len() as f64);
    s.push("fleet.executor.run_s", run_s);
    s.push("fleet.executor.run_1worker_s", run_1worker_s);
    s.push(
        "fleet.executor.parallel_efficiency",
        run_1worker_s / (WORKERS as f64 * run_s).max(1e-12),
    );
    s.push("fleet.report.csv_ms", csv_s * 1e3);
    s.push("fleet.report.jsonl_ms", jsonl_s * 1e3);
    s.push("fleet.report.rollup_ms", rollup_s * 1e3);
    s.push("telemetry.events", events as f64);
    s.push("telemetry.export.jsonl_s", export_s);
    s.push(
        "telemetry.export.ns_per_event",
        export_s * 1e9 / (events as f64).max(1.0),
    );
    probe_sink_overhead(cx)
}

/// `telemetry`: one paper-default simulation with and without a buffering
/// sink attached, alternating, medians compared.
fn probe_sink_overhead(cx: &mut Cx<'_>) -> Result<(), String> {
    let scenario = format!(
        "{}:seed={}",
        cx.size.pick("paper-default", "smoke"),
        cx.seed
    );
    let spec: ScenarioSpec = scenario
        .parse()
        .map_err(|e| format!("scenario `{scenario}`: {e}"))?;
    let run = |sink: Option<std::sync::Arc<BufferSink>>| -> Result<(f64, usize), String> {
        let config = spec
            .build_with_policy(PolicySpec::Online { v: None })
            .map_err(|e| format!("scenario `{scenario}`: {e}"))?;
        let mut sim =
            Simulation::try_new(config).map_err(|e| format!("scenario `{scenario}`: {e}"))?;
        if let Some(sink) = &sink {
            sim = sim.with_telemetry(sink.clone());
        }
        let watch = Stopwatch::start();
        black_box(sim.run());
        let run_s = watch.elapsed_s();
        Ok((run_s, sink.map_or(0, |s| s.len())))
    };
    let (mut plain, mut traced, mut events) = (Vec::new(), Vec::new(), 0);
    for _ in 0..cx.size.pick(9, 2) {
        plain.push(run(None)?.0);
        let (run_s, recorded) = run(Some(BufferSink::shared()))?;
        traced.push(run_s);
        events = recorded;
    }
    let (plain, traced) = (median(&plain), median(&traced));
    cx.samples.push(
        "telemetry.sim_overhead_pct",
        100.0 * (traced - plain) / plain.max(1e-12),
    );
    cx.samples.push("telemetry.sim_events", events as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_lines_are_read_by_their_counts() {
        let mut report = Report::default();
        for line in [
            "fleet_sweep: 120 jobs (10 scenarios x 1 axis cells x 4 policies x 3 seeds), 2 worker(s)",
            "scenarios: paper-default, sparse",
            "wrote /tmp/a.csv (120 rows)",
            "wrote /tmp/a.jsonl (120 lines)",
            "wrote /dev/null (422445 events)",
            "wrote /tmp/a (2).metrics (696 metrics)",
        ] {
            report.read_line(line);
        }
        assert_eq!(report.jobs, Some(120));
        assert_eq!(report.csv_rows, Some(120));
        assert_eq!(report.jsonl_lines, Some(120));
        assert_eq!(report.events, Some(422_445));
        assert_eq!(report.metrics, Some(696));
    }

    #[test]
    fn the_probe_grid_is_the_cli_grid() {
        let grid = grid(Size::Full, 42).unwrap();
        assert_eq!(grid.len(), 10 * 4 * 3);
    }
}
