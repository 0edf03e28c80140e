//! Hand-rolled CSV and JSON-lines report writers.
//!
//! The workspace is offline and zero-dependency, so there is no serde here:
//! both formats are simple enough to emit directly. Numbers are written with
//! Rust's shortest round-trip `Display` formatting, so parsing the files
//! back recovers the exact `f64` bits and reports diff cleanly between runs.

use fedco_telemetry::export::{csv_escape, json_escape};

use crate::executor::{FleetReport, JobSummary};

/// The CSV header, one column per [`JobSummary`] field. Rows are keyed by
/// the `(scenario, policy)` label pair; `arrival_p`, `devices` and `link`
/// repeat the resolved values of the cell's configuration for convenience.
pub const CSV_HEADER: &str = "job,scenario,policy,arrival_p,devices,link,seed,\
energy_j,radio_j,updates,corun_epochs,mean_lag,max_lag,mean_queue,\
mean_virtual_queue,accuracy,wall_ms,slots_per_sec";

/// One CSV row for a job.
pub fn csv_row(job: &JobSummary) -> String {
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.3},{:.1}",
        job.id,
        csv_escape(&job.scenario),
        csv_escape(&job.policy),
        job.arrival_probability,
        csv_escape(&job.devices),
        job.link,
        job.seed,
        job.total_energy_j,
        job.radio_energy_j,
        job.total_updates,
        job.corun_epochs,
        job.mean_lag,
        job.max_lag,
        job.mean_queue,
        job.mean_virtual_queue,
        job.final_accuracy
            .map(|a| a.to_string())
            .unwrap_or_default(),
        job.wall_ms,
        job.slots_per_sec,
    )
}

/// The whole report as CSV: header plus one row per job, in grid order.
pub fn to_csv(report: &FleetReport) -> String {
    let mut out = String::with_capacity((report.jobs.len() + 1) * 96);
    out.push_str(CSV_HEADER);
    out.push('\n');
    for job in &report.jobs {
        out.push_str(&csv_row(job));
        out.push('\n');
    }
    out
}

/// One JSON object (a single line) for a job.
pub fn json_line(job: &JobSummary) -> String {
    let accuracy = match job.final_accuracy {
        Some(a) => a.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"job\":{},\"scenario\":\"{}\",\"policy\":\"{}\",\"arrival_p\":{},\
\"devices\":\"{}\",\"link\":\"{}\",\"seed\":{},\"energy_j\":{},\
\"radio_j\":{},\"updates\":{},\"corun_epochs\":{},\"mean_lag\":{},\
\"max_lag\":{},\"mean_queue\":{},\"mean_virtual_queue\":{},\
\"accuracy\":{},\"wall_ms\":{:.3},\"slots_per_sec\":{:.1}}}",
        job.id,
        json_escape(&job.scenario),
        json_escape(&job.policy),
        job.arrival_probability,
        json_escape(&job.devices),
        job.link,
        job.seed,
        job.total_energy_j,
        job.radio_energy_j,
        job.total_updates,
        job.corun_epochs,
        job.mean_lag,
        job.max_lag,
        job.mean_queue,
        job.mean_virtual_queue,
        accuracy,
        job.wall_ms,
        job.slots_per_sec,
    )
}

/// The whole report as JSON lines: one object per job, in grid order.
pub fn to_jsonl(report: &FleetReport) -> String {
    let mut out = String::with_capacity(report.jobs.len() * 192);
    for job in &report.jobs {
        out.push_str(&json_line(job));
        out.push('\n');
    }
    out
}

/// A plain-text per-cell rollup table for terminals. The scenario and
/// policy columns widen to their longest labels so parameterized specs and
/// override-laden scenarios stay aligned.
pub fn rollup_table(report: &FleetReport) -> String {
    let swidth = report
        .rollups
        .iter()
        .map(|r| r.scenario.chars().count())
        .chain(std::iter::once(10))
        .max()
        .unwrap_or(10);
    let pwidth = report
        .rollups
        .iter()
        .map(|r| r.policy.chars().count())
        .chain(std::iter::once(10))
        .max()
        .unwrap_or(10);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<swidth$} {:<pwidth$} {:>5} {:>14} {:>12} {:>10} {:>10} {:>9} {:>9} {:>11}\n",
        "scenario",
        "policy",
        "runs",
        "energy kJ/run",
        "σ kJ",
        "updates",
        "co-runs",
        "lag",
        "acc %",
        "kslots/s"
    ));
    for r in &report.rollups {
        let acc = if r.accuracy.count() > 0 {
            format!("{:.1}", r.accuracy.mean() * 100.0)
        } else {
            "n/a".to_string()
        };
        out.push_str(&format!(
            "{:<swidth$} {:<pwidth$} {:>5} {:>14.2} {:>12.2} {:>10.1} {:>10.1} {:>9.2} {:>9} {:>11.1}\n",
            r.scenario,
            r.policy,
            r.runs(),
            r.energy_j.mean() / 1e3,
            r.energy_j.std_dev() / 1e3,
            r.updates.mean(),
            r.corun_epochs.mean(),
            r.mean_lag.mean(),
            acc,
            r.slots_per_sec.mean() / 1e3,
        ));
    }
    out
}

/// One `FEDCO_BENCH_JSON`-style line per cell rollup, carrying the sweep's
/// throughput trajectory (`slots_per_sec` / `wall_ms` statistics). `prefix`
/// namespaces the `name` key (e.g. `fleet_sweep`), followed by the
/// scenario and policy labels.
pub fn bench_json_lines(report: &FleetReport, prefix: &str) -> Vec<String> {
    report
        .rollups
        .iter()
        .map(|r| {
            format!(
                "{{\"name\":\"{}/{}/{}\",\"runs\":{},\"wall_ms_mean\":{:.3},\
\"slots_per_sec_mean\":{:.1},\"slots_per_sec_min\":{:.1},\"slots_per_sec_max\":{:.1}}}",
                json_escape(prefix),
                json_escape(&r.scenario),
                json_escape(&r.policy),
                r.runs(),
                r.wall_ms.mean(),
                r.slots_per_sec.mean(),
                r.slots_per_sec.min().unwrap_or(0.0),
                r.slots_per_sec.max().unwrap_or(0.0),
            )
        })
        .collect()
}

/// Appends one line per cell rollup to the file named by the
/// `FEDCO_BENCH_JSON` environment variable, if set — the same sink the
/// `fedco-bench` micro-benchmarks write to, so sweep throughput
/// trajectories can be recorded across commits. A no-op when the variable
/// is unset or empty; I/O errors are reported to stderr but never fail the
/// sweep.
pub fn record_bench_json(report: &FleetReport, prefix: &str) {
    use std::io::Write;
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
        .and_then(|mut f| {
            for line in bench_json_lines(report, prefix) {
                writeln!(f, "{line}")?;
            }
            Ok(())
        });
    if let Err(e) = result {
        eprintln!("FEDCO_BENCH_JSON: cannot write {path}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CellRollup;
    use fedco_telemetry::profiling::Measured;

    fn sample_job() -> JobSummary {
        JobSummary {
            id: 3,
            scenario: "paper-default".to_string(),
            policy: "Online".to_string(),
            arrival_probability: 0.001,
            devices: "testbed".to_string(),
            link: "wifi",
            seed: 42,
            total_energy_j: 1234.5,
            radio_energy_j: 12.25,
            total_updates: 17,
            corun_epochs: 4,
            mean_lag: 1.5,
            max_lag: 6,
            mean_queue: 0.25,
            mean_virtual_queue: 2.5,
            final_accuracy: None,
            wall_ms: Measured(7.125),
            slots_per_sec: Measured(123456.7),
        }
    }

    fn sample_report() -> FleetReport {
        let job = sample_job();
        let mut rollup = CellRollup::new("paper-default", "Online");
        rollup.absorb(&job);
        FleetReport {
            jobs: vec![job],
            rollups: vec![rollup],
            workers: 2,
            wall_s: Measured(0.5),
        }
    }

    #[test]
    fn csv_has_header_and_one_row_per_job() {
        let csv = to_csv(&sample_report());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(
            lines[0].split(',').count(),
            lines[1].split(',').count(),
            "row column count matches header"
        );
        assert!(
            lines[1].starts_with("3,paper-default,Online,0.001,testbed,wifi,42,1234.5,12.25,17,4,")
        );
        // Missing accuracy renders as an empty cell.
        assert!(lines[1].contains(",,"));
    }

    #[test]
    fn jsonl_is_one_parseable_object_per_job() {
        let mut report = sample_report();
        report.jobs[0].final_accuracy = Some(0.625);
        let jsonl = to_jsonl(&report);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 1);
        let line = lines[0];
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"scenario\":\"paper-default\""));
        assert!(line.contains("\"policy\":\"Online\""));
        assert!(line.contains("\"energy_j\":1234.5"));
        assert!(line.contains("\"accuracy\":0.625"));
        // Balanced braces/quotes — a cheap structural sanity check.
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        assert_eq!(line.matches('"').count() % 2, 0);
    }

    #[test]
    fn jsonl_null_accuracy() {
        let jsonl = to_jsonl(&sample_report());
        assert!(jsonl.contains("\"accuracy\":null"));
    }

    #[test]
    fn float_formatting_round_trips() {
        let job = sample_job();
        let row = csv_row(&job);
        let energy_field: f64 = row
            .split(',')
            .nth(7)
            .expect("energy column")
            .parse()
            .expect("parses");
        assert_eq!(energy_field.to_bits(), job.total_energy_j.to_bits());
    }

    #[test]
    fn rollup_table_lists_policies() {
        let table = rollup_table(&sample_report());
        assert!(table.contains("scenario"));
        assert!(table.contains("paper-default"));
        assert!(table.contains("Online"));
        assert!(table.contains("energy kJ/run"));
        assert!(table.contains("n/a"));
        assert!(table.contains("kslots/s"));
    }

    #[test]
    fn timing_columns_reach_csv_and_jsonl() {
        let report = sample_report();
        let csv = to_csv(&report);
        assert!(CSV_HEADER.ends_with("wall_ms,slots_per_sec"));
        assert!(csv
            .lines()
            .nth(1)
            .expect("one row")
            .ends_with(",7.125,123456.7"));
        let jsonl = to_jsonl(&report);
        assert!(jsonl.contains("\"wall_ms\":7.125"));
        assert!(jsonl.contains("\"slots_per_sec\":123456.7"));
    }

    #[test]
    fn bench_json_lines_carry_throughput_per_policy() {
        let report = sample_report();
        let lines = bench_json_lines(&report, "fleet_sweep");
        assert_eq!(lines.len(), 1);
        let line = &lines[0];
        assert!(line.starts_with("{\"name\":\"fleet_sweep/paper-default/Online\""));
        assert!(line.contains("\"runs\":1"));
        assert!(line.contains("\"wall_ms_mean\":7.125"));
        assert!(line.contains("\"slots_per_sec_mean\":123456.7"));
        assert!(line.contains("\"slots_per_sec_min\":123456.7"));
        assert!(line.contains("\"slots_per_sec_max\":123456.7"));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        // Unset env: record_bench_json is a no-op and must not error.
        record_bench_json(&report, "fleet_sweep");
    }
}
