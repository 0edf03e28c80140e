//! The perf-regression gate: compare a fresh benchmark run against the
//! recorded `BENCH_*.json` trajectory.
//!
//! Every benchmark sink in the workspace (`cargo bench` via
//! `FEDCO_BENCH_JSON`, `fleet_sweep`'s per-cell rollup lines) appends flat
//! JSON objects carrying a `"name"` and a throughput field. This module
//! parses those lines, reduces the baseline to the **median** recorded
//! throughput per name and the current run to its **best**, then compares
//! them with **median-ratio machine normalization**: the median of the
//! per-name `current / baseline` ratios estimates how much faster or
//! slower the current machine is overall, and a benchmark only counts as
//! regressed when its own ratio falls below `threshold × median`.
//!
//! The asymmetry is deliberate. The trajectory file appends one session per
//! commit from hosts of very different speeds, so the per-name *best* would
//! cherry-pick whichever session happened to be fastest *for that name* —
//! mixing reference machines between names and skewing the normalization.
//! The per-name median is a consistent mid-trajectory reference. The
//! current side is one fresh run on one machine, where best-of-reps is the
//! standard noise reduction.

use std::collections::BTreeMap;

/// One named throughput record parsed from a `BENCH_*.json` line.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// The benchmark name (e.g. `engine/paper/Online/event`).
    pub name: String,
    /// Simulated slots — or, for a `median_ns` micro-benchmark line,
    /// iterations — per wall-clock second.
    pub slots_per_sec: f64,
}

/// Extracts the string value of `"key"` from a flat JSON object line
/// (the writers in this workspace never nest objects or escape `"` inside
/// benchmark names).
fn string_field(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":\"");
    let start = line.find(&marker)? + marker.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extracts the numeric value of `"key"` from a flat JSON object line.
fn number_field(line: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker)? + marker.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses the throughput records of a `BENCH_*.json` file.
///
/// A line contributes one record when it carries a `"name"` plus a
/// `"slots_per_sec"` (the engine/fleet micro-benchmarks), a
/// `"slots_per_sec_mean"` (the `fleet_sweep` rollup lines) or a
/// `"median_ns"` (the `micro::bench` lines, read as `1e9 / median_ns`
/// iterations per second) field. Aggregate
/// and malformed lines are skipped — the trajectory file is append-only
/// across commits and may mix schemas.
pub fn parse_bench_lines(text: &str) -> Vec<BenchRecord> {
    text.lines()
        .filter_map(|line| {
            let name = string_field(line, "name")?;
            let slots_per_sec = number_field(line, "slots_per_sec")
                .or_else(|| number_field(line, "slots_per_sec_mean"))
                .or_else(|| number_field(line, "median_ns").map(|ns| 1e9 / ns))?;
            if !slots_per_sec.is_finite() || slots_per_sec <= 0.0 {
                return None;
            }
            Some(BenchRecord {
                name,
                slots_per_sec,
            })
        })
        .collect()
}

/// Reduces records to the best (largest) recorded throughput per name —
/// the right reduction for a fresh multi-rep run on one machine.
pub fn best_by_name(records: &[BenchRecord]) -> BTreeMap<String, f64> {
    let mut best: BTreeMap<String, f64> = BTreeMap::new();
    for record in records {
        let entry = best.entry(record.name.clone()).or_insert(f64::MIN);
        *entry = entry.max(record.slots_per_sec);
    }
    best
}

/// Reduces records to the median recorded throughput per name — the right
/// reduction for a `BENCH_*.json` trajectory whose sessions come from
/// machines of very different speeds (robust to one anomalously fast or
/// slow recording host).
pub fn median_by_name(records: &[BenchRecord]) -> BTreeMap<String, f64> {
    let mut grouped: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for record in records {
        grouped
            .entry(record.name.clone())
            .or_default()
            .push(record.slots_per_sec);
    }
    grouped
        .into_iter()
        .filter_map(|(name, mut values)| Some((name, median(&mut values)?)))
        .collect()
}

/// One per-name row of a [`CompareReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    /// The benchmark name.
    pub name: String,
    /// Median recorded baseline throughput (slots/s).
    pub baseline: f64,
    /// Best current throughput (slots/s).
    pub current: f64,
    /// `current / baseline`, divided by the report's median ratio — 1.0
    /// means "moved exactly with the machine", below 1.0 means slower than
    /// the overall shift.
    pub normalized: f64,
    /// Whether `normalized < threshold`.
    pub regressed: bool,
}

/// The outcome of gating a current benchmark run against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    /// The normalized-ratio floor a benchmark must stay above.
    pub threshold: f64,
    /// Median of the raw `current / baseline` ratios (the machine-speed
    /// normalization factor). 1.0 when there are no common names.
    pub median_ratio: f64,
    /// Per-name comparison rows, in name order.
    pub rows: Vec<CompareRow>,
    /// Baseline names missing from the current run (warned, never fatal:
    /// smoke runs cover a subset of the recorded trajectory).
    pub missing: Vec<String>,
}

impl CompareReport {
    /// Whether the gate passes (no regressed row).
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|r| !r.regressed)
    }

    /// The regressed rows, if any.
    pub fn regressions(&self) -> impl Iterator<Item = &CompareRow> {
        self.rows.iter().filter(|r| r.regressed)
    }
}

impl std::fmt::Display for CompareReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "bench compare: {} benchmark(s), machine-normalization x{:.3}, threshold {:.2}",
            self.rows.len(),
            self.median_ratio,
            self.threshold
        )?;
        let width = self
            .rows
            .iter()
            .map(|r| r.name.chars().count())
            .chain(std::iter::once(9))
            .max()
            .unwrap_or(9);
        writeln!(
            f,
            "{:<width$} {:>14} {:>14} {:>11} {:>8}",
            "benchmark", "baseline/s", "current/s", "normalized", "verdict"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<width$} {:>14.0} {:>14.0} {:>11.3} {:>8}",
                row.name,
                row.baseline,
                row.current,
                row.normalized,
                if row.regressed { "REGRESS" } else { "ok" }
            )?;
        }
        for name in &self.missing {
            writeln!(f, "note: baseline `{name}` not in current run (skipped)")?;
        }
        Ok(())
    }
}

/// The default normalized-ratio floor: generous enough for a noisy 1-core
/// CI runner, tight enough to catch a benchmark that halved while its
/// siblings did not.
pub const DEFAULT_THRESHOLD: f64 = 0.5;

/// Gates `current` (a fresh `BENCH_*.json` run) against `baseline` (the
/// recorded trajectory). Both inputs are raw file contents; the baseline is
/// reduced to the median recorded throughput per name, the current run to
/// its best.
pub fn compare(baseline: &str, current: &str, threshold: f64) -> CompareReport {
    let baseline = median_by_name(&parse_bench_lines(baseline));
    let current = best_by_name(&parse_bench_lines(current));

    let mut ratios: Vec<f64> = Vec::new();
    let mut missing = Vec::new();
    for (name, &base) in &baseline {
        match current.get(name) {
            Some(&cur) => ratios.push(cur / base),
            None => missing.push(name.clone()),
        }
    }
    let median_ratio = median(&mut ratios).unwrap_or(1.0);

    let rows: Vec<CompareRow> = baseline
        .iter()
        .filter_map(|(name, &base)| {
            let cur = *current.get(name)?;
            let normalized = (cur / base) / median_ratio;
            Some(CompareRow {
                name: name.clone(),
                baseline: base,
                current: cur,
                normalized,
                regressed: normalized < threshold,
            })
        })
        .collect();

    CompareReport {
        threshold,
        median_ratio,
        rows,
        missing,
    }
}

/// Median of a slice (averaging the middle pair for even lengths); `None`
/// when empty. Sorts the slice in place.
fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        Some(values[mid])
    } else {
        Some((values[mid - 1] + values[mid]) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = concat!(
        "{\"name\":\"engine/paper/Online/dense\",\"slots_per_sec\":400000,\"wall_ms\":27.0}\n",
        "{\"name\":\"engine/paper/Online/event\",\"slots_per_sec\":450000,\"wall_ms\":24.0}\n",
        "{\"name\":\"engine/paper/aggregate\",\"users\":100,\"dense_slots_per_sec\":387109}\n",
        "{\"name\":\"engine/paper/Online/dense\",\"slots_per_sec\":1500000,\"wall_ms\":7.2}\n",
        "{\"name\":\"engine/paper/Online/event\",\"slots_per_sec\":1700000,\"wall_ms\":6.2}\n",
    );

    #[test]
    fn parser_keeps_named_throughput_lines_and_skips_the_rest() {
        let records = parse_bench_lines(BASELINE);
        // The aggregate line has no slots_per_sec field and is skipped
        // (dense_slots_per_sec deliberately does not match).
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].name, "engine/paper/Online/dense");
        assert_eq!(records[0].slots_per_sec, 400000.0);
        // fleet_sweep rollup lines use the _mean suffix.
        let fleet = parse_bench_lines(
            "{\"name\":\"fleet_sweep/smoke/Online\",\"runs\":4,\"wall_ms_mean\":3.125,\
\"slots_per_sec_mean\":76800.5,\"slots_per_sec_min\":70000.0,\"slots_per_sec_max\":80000.0}\n",
        );
        assert_eq!(fleet.len(), 1);
        assert_eq!(fleet[0].slots_per_sec, 76800.5);
        // micro::bench lines carry ns per iteration.
        let micro = parse_bench_lines(
            "{\"name\":\"lenet/forward/compact\",\"median_ns\":250000.0,\"mean_ns\":1.0,\"samples\":7}\n",
        );
        assert_eq!(micro.len(), 1);
        assert_eq!(micro[0].slots_per_sec, 4000.0);
        assert!(parse_bench_lines("not json\n{\"name\":\"x\"}\n").is_empty());
    }

    #[test]
    fn best_by_name_takes_the_standing_record() {
        let best = best_by_name(&parse_bench_lines(BASELINE));
        assert_eq!(best["engine/paper/Online/dense"], 1500000.0);
        assert_eq!(best["engine/paper/Online/event"], 1700000.0);
    }

    #[test]
    fn median_by_name_is_robust_to_one_fast_session() {
        // The two recorded sessions differ ~4x in machine speed; the median
        // (here the mean of the two values per name) is the reference the
        // gate uses, not the cherry-picked per-name best.
        let med = median_by_name(&parse_bench_lines(BASELINE));
        assert_eq!(med["engine/paper/Online/dense"], 950000.0);
        assert_eq!(med["engine/paper/Online/event"], 1075000.0);
    }

    #[test]
    fn uniformly_slower_machine_passes() {
        // A machine 10x slower than the median baseline: every ratio is
        // 0.1, so the median absorbs the difference and nothing regresses.
        let current = "{\"name\":\"engine/paper/Online/dense\",\"slots_per_sec\":95000}\n\
{\"name\":\"engine/paper/Online/event\",\"slots_per_sec\":107500}\n";
        let report = compare(BASELINE, current, DEFAULT_THRESHOLD);
        assert!(report.passed());
        assert!((report.median_ratio - 0.1).abs() < 1e-12);
        for row in &report.rows {
            assert!((row.normalized - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn disproportionate_slowdown_regresses() {
        // dense kept pace with the machine, event collapsed to a tenth of
        // the expected throughput: the gate must flag event only.
        let current = "{\"name\":\"engine/paper/Online/dense\",\"slots_per_sec\":1500000}\n\
{\"name\":\"engine/paper/Online/event\",\"slots_per_sec\":170000}\n";
        let report = compare(BASELINE, current, DEFAULT_THRESHOLD);
        assert!(!report.passed());
        let regressed: Vec<&str> = report.regressions().map(|r| r.name.as_str()).collect();
        assert_eq!(regressed, vec!["engine/paper/Online/event"]);
        let rendered = report.to_string();
        assert!(rendered.contains("REGRESS"));
        assert!(rendered.contains("engine/paper/Online/dense"));
    }

    #[test]
    fn missing_names_warn_but_do_not_fail() {
        let current = "{\"name\":\"engine/paper/Online/dense\",\"slots_per_sec\":1400000}\n";
        let report = compare(BASELINE, current, DEFAULT_THRESHOLD);
        assert!(report.passed());
        assert_eq!(report.missing, vec!["engine/paper/Online/event"]);
        assert!(report.to_string().contains("not in current run"));
        // No overlap at all: vacuously passing, normalization factor 1.
        let none = compare(BASELINE, "{\"name\":\"other\",\"slots_per_sec\":1}\n", 0.5);
        assert!(none.passed());
        assert_eq!(none.median_ratio, 1.0);
        assert!(none.rows.is_empty());
    }

    #[test]
    fn even_count_medians_average_the_middle_pair() {
        let mut vals = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut vals), Some(2.5));
        let mut odd = [3.0, 1.0, 2.0];
        assert_eq!(median(&mut odd), Some(2.0));
        assert_eq!(median(&mut []), None);
    }
}
