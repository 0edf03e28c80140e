//! `fedco-benchmark compare <a.json> <b.json>`: is result set B worse than
//! baseline A by more than a metric's bound, on any workload?

use crate::json::{parse, Value};
use crate::metrics::{Better, Bound, Gate, END_TO_END, PER_LAYER};
use crate::stats::median;

/// The outcome of one (metric, workload) comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound.
    Better,
    /// The medians differ by no more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The runs of one side spread wider than the bound and the two sides
    /// overlap, so a difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the runs `b` against the baseline runs `a`.
pub fn judge(better: Better, bound: Bound, a: &[f64], b: &[f64]) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    // Fold the direction away: from here on, larger is worse.
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let a: Vec<f64> = a.iter().map(|v| v * sign).collect();
    let b: Vec<f64> = b.iter().map(|v| v * sign).collect();
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let allowed = bound.allowed(median(&a));
    let worsening = median(&b) - median(&a);
    let noisy = (max(&a) - min(&a)).max(max(&b) - min(&b)) > allowed;
    // Noise does not hide a difference when the two sides do not overlap.
    if worsening > allowed {
        if noisy && min(&b) <= max(&a) {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if worsening < -allowed {
        if noisy && max(&b) >= min(&a) {
            Verdict::Unresolved
        } else {
            Verdict::Better
        }
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

/// One workload of a result file.
struct WorkloadResult<'a> {
    name: &'a str,
    value: &'a Value,
}

impl WorkloadResult<'_> {
    fn runs(&self, metric: &str) -> Vec<f64> {
        self.value
            .get("end_to_end")
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("values"))
            .and_then(Value::as_arr)
            .map(|values| values.iter().filter_map(Value::as_f64).collect())
            .unwrap_or_default()
    }

    fn layer(&self, metric: &str) -> Option<f64> {
        self.value
            .get("per_layer")
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
    }

    fn count(&self, key: &str) -> f64 {
        self.value.get(key).and_then(Value::as_f64).unwrap_or(0.0)
    }

    fn digests(&self) -> Vec<&str> {
        self.value
            .get("digests")
            .and_then(Value::as_arr)
            .map(|d| d.iter().filter_map(Value::as_str).collect())
            .unwrap_or_default()
    }
}

fn workloads(results: &Value) -> Vec<WorkloadResult<'_>> {
    results
        .get("workloads")
        .and_then(Value::as_arr)
        .map(|list| {
            list.iter()
                .filter_map(|value| {
                    let name = value.get("name")?.as_str()?;
                    Some(WorkloadResult { name, value })
                })
                .collect()
        })
        .unwrap_or_default()
}

fn seed(results: &Value) -> Option<f64> {
    results.get("stamp")?.get("seed")?.as_f64()
}

/// Compares two result files; returns the printed report and whether any
/// row is worse.
///
/// # Errors
///
/// A file that cannot be read or is not a result file.
pub fn compare_files(a_path: &str, b_path: &str) -> Result<(String, bool), String> {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let value = parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if workloads(&value).is_empty() {
            return Err(format!("{path}: no workloads in this file"));
        }
        Ok(value)
    };
    Ok(compare(&load(a_path)?, &load(b_path)?))
}

/// Compares result set `b` against baseline `a`.
pub fn compare(a: &Value, b: &Value) -> (String, bool) {
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    let mut out = String::new();
    let mut worse = 0usize;
    let mut row = |workload: &str, metric: &str, a: String, b: String, verdict: &str| {
        out.push_str(&format!(
            "{workload:<13} {metric:<34} {a:>14} {b:>14}  {verdict}\n"
        ));
    };
    row("workload", "metric", "A".into(), "B".into(), "verdict");
    let b_workloads = workloads(b);
    for wa in workloads(a) {
        let Some(wb) = b_workloads.iter().find(|w| w.name == wa.name) else {
            row(
                wa.name,
                "(all)",
                "present".into(),
                "missing".into(),
                "WORSE",
            );
            worse += 1;
            continue;
        };
        for metric in &END_TO_END {
            let (ra, rb) = (wa.runs(metric.name), wb.runs(metric.name));
            let verdict = judge(metric.better, metric.bound, &ra, &rb);
            worse += usize::from(verdict == Verdict::Worse);
            row(
                wa.name,
                metric.name,
                format!("{:.4} {}", median(&ra), metric.unit),
                format!("{:.4} {}", median(&rb), metric.unit),
                verdict.label(),
            );
        }
        for metric in &PER_LAYER {
            let (Some(va), Some(vb)) = (wa.layer(metric.name), wb.layer(metric.name)) else {
                continue;
            };
            if va == 0.0 && vb == 0.0 {
                continue; // not this workload's layer
            }
            let verdict = match metric.gate {
                Gate::Info => continue,
                Gate::Bounded(bound) => judge(metric.better, bound, &[va], &[vb]).label(),
                Gate::Exact if !same_seed => continue,
                Gate::Exact if va.to_bits() == vb.to_bits() => "repeats exactly",
                Gate::Exact => "DIFFERS",
            };
            worse += usize::from(verdict == Verdict::Worse.label());
            row(
                wa.name,
                metric.name,
                format!("{va:.4} {}", metric.unit),
                format!("{vb:.4} {}", metric.unit),
                verdict,
            );
        }
        let failed =
            |w: &WorkloadResult<'_>| format!("{}/{}", w.count("ops_failed"), w.count("ops"));
        let more_failed = wb.count("ops_failed") * wa.count("ops").max(1.0)
            > wa.count("ops_failed") * wb.count("ops").max(1.0);
        worse += usize::from(more_failed);
        row(
            wa.name,
            "ops_failed/ops",
            failed(&wa),
            failed(wb),
            if more_failed {
                "WORSE"
            } else {
                "no more failed"
            },
        );
        if same_seed {
            let same = wa.digests() == wb.digests() && wa.digests().len() == 1;
            row(
                wa.name,
                "digest",
                wa.digests().join("+"),
                wb.digests().join("+"),
                if same { "repeats exactly" } else { "DIFFERS" },
            );
        }
    }
    out.push_str(&format!(
        "\n{worse} row(s) worse than the bound allows{}\n",
        if same_seed {
            ""
        } else {
            " (seeds differ: exact counts and digests not compared)"
        }
    ));
    (out, worse > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEN_PCT: Bound = Bound {
        rel: 0.10,
        abs: 0.0,
    };

    #[test]
    fn lower_is_better_metrics() {
        let a = [1.00, 1.01, 0.99];
        assert_eq!(
            judge(Better::Lower, TEN_PCT, &a, &[1.05, 1.04, 1.06]),
            Verdict::Within
        );
        assert_eq!(
            judge(Better::Lower, TEN_PCT, &a, &[1.20, 1.21, 1.19]),
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Lower, TEN_PCT, &a, &[0.80, 0.81, 0.79]),
            Verdict::Better
        );
        assert_eq!(
            judge(Better::Lower, TEN_PCT, &a, &[0.97, 0.96, 0.98]),
            Verdict::Within
        );
        assert_eq!(judge(Better::Lower, TEN_PCT, &a, &[]), Verdict::Unresolved);
    }

    #[test]
    fn higher_is_better_metrics() {
        let points = Bound { rel: 0.0, abs: 0.5 };
        assert_eq!(
            judge(Better::Higher, points, &[47.4], &[47.4]),
            Verdict::Within
        );
        assert_eq!(
            judge(Better::Higher, points, &[47.4], &[47.0]),
            Verdict::Within
        );
        assert_eq!(
            judge(Better::Higher, points, &[47.4], &[46.0]),
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Higher, points, &[47.4], &[49.0]),
            Verdict::Better
        );
    }

    #[test]
    fn absolute_floor_protects_small_readings() {
        let setup = Bound {
            rel: 0.25,
            abs: 0.05,
        };
        // 0.02 s -> 0.05 s is +150 %, but 0.03 s is under the 0.05 s floor.
        assert_eq!(
            judge(
                Better::Lower,
                setup,
                &[0.02, 0.021, 0.019],
                &[0.05, 0.051, 0.049]
            ),
            Verdict::Within
        );
        assert_eq!(
            judge(
                Better::Lower,
                setup,
                &[0.02, 0.021, 0.019],
                &[0.09, 0.091, 0.089]
            ),
            Verdict::Worse
        );
        // On a large reading the share takes over.
        assert_eq!(
            judge(Better::Lower, setup, &[1.0, 1.0, 1.0], &[1.2, 1.2, 1.2]),
            Verdict::Within
        );
        assert_eq!(
            judge(Better::Lower, setup, &[1.0, 1.0, 1.0], &[1.3, 1.3, 1.3]),
            Verdict::Worse
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy = [1.0, 1.3, 0.8];
        assert_eq!(
            judge(Better::Lower, TEN_PCT, &noisy, &[1.2, 1.25, 0.9]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, TEN_PCT, &noisy, &[1.0, 1.0, 1.0]),
            Verdict::Unresolved
        );
        // …unless every run of B is on one side of every run of A.
        assert_eq!(
            judge(Better::Lower, TEN_PCT, &noisy, &[2.0, 2.1, 1.9]),
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Lower, TEN_PCT, &noisy, &[0.5, 0.6, 0.7]),
            Verdict::Better
        );
    }

    fn results(wall: [f64; 3], saving: f64, failed: f64, digest: &str) -> Value {
        let runs = |values: &[f64]| {
            Value::obj([
                ("unit", Value::str("s")),
                ("median", Value::Num(median(values))),
                (
                    "values",
                    Value::Arr(values.iter().map(|v| Value::Num(*v)).collect()),
                ),
            ])
        };
        Value::obj([
            ("stamp", Value::obj([("seed", Value::Num(42.0))])),
            (
                "workloads",
                Value::Arr(vec![Value::obj([
                    ("name", Value::str("fig5-ml")),
                    ("ops", Value::Num(8.0)),
                    ("ops_failed", Value::Num(failed)),
                    ("digests", Value::Arr(vec![Value::str(digest)])),
                    (
                        "end_to_end",
                        Value::obj([
                            ("wall_s", runs(&wall)),
                            ("setup_s", runs(&[0.08, 0.08, 0.08])),
                            ("peak_rss_mib", runs(&[18.0, 18.0, 18.0])),
                        ]),
                    ),
                    (
                        "per_layer",
                        Value::obj([
                            (
                                "energy_saving_pct",
                                Value::obj([("value", Value::Num(saving))]),
                            ),
                            (
                                "sim.engine.dense_slots",
                                Value::obj([("value", Value::Num(4710.0))]),
                            ),
                            ("sim.run_s", Value::obj([("value", Value::Num(8.0))])),
                        ]),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn identical_result_sets_have_no_worse_row() {
        let a = results([8.2, 8.3, 8.1], 47.38, 0.0, "00ff");
        let (report, worse) = compare(&a, &a);
        assert!(!worse, "{report}");
        assert!(report.contains("repeats exactly"));
        assert!(report.contains("0 row(s) worse"));
        assert!(
            !report.contains("sim.run_s"),
            "informational metrics are not compared"
        );
    }

    #[test]
    fn a_regression_a_failure_and_a_changed_digest_all_show() {
        let a = results([8.2, 8.3, 8.1], 47.38, 0.0, "00ff");
        let slow = results([10.9, 11.0, 10.8], 47.38, 0.0, "00ff");
        let (report, worse) = compare(&a, &slow);
        assert!(
            worse && report.contains("wall_s") && report.contains("WORSE"),
            "{report}"
        );

        let less_saving = results([8.2, 8.3, 8.1], 46.0, 0.0, "00ff");
        assert!(compare(&a, &less_saving).1);

        let failing = results([8.2, 8.3, 8.1], 47.38, 1.0, "00ff");
        assert!(compare(&a, &failing).1);

        // A behaviour change is visible but is not a regression by itself.
        let changed = results([8.2, 8.3, 8.1], 47.38, 0.0, "abcd");
        let (report, worse) = compare(&a, &changed);
        assert!(!worse && report.contains("DIFFERS"), "{report}");
    }
}
