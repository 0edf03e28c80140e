//! One run: one workload, one seed, passes repeated for `--seconds`, then the
//! metrics — end-to-end on an untraced run, per-layer on a traced one.

use std::collections::BTreeMap;

use fedco_telemetry::profiling::Stopwatch;

use crate::json::Value;
use crate::metrics::{per_layer, END_TO_END, PER_LAYER};
use crate::proc::{peak_rss_mib, Dirs};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::trace::{self_times, Tracer};
use crate::workloads::{Cx, PassOutcome, Samples, Size, Workload};

/// A pass that errors this many times in a row ends the run: the workload
/// cannot work here, and repeating it for the whole budget shows nothing.
const MAX_CONSECUTIVE_ERRORS: u32 = 2;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Seed of its inputs.
    pub seed: u64,
    /// How long to keep starting passes.
    pub seconds: f64,
    /// Record spans and run the layer probes.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// What a run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Passes that produced a result.
    pub passes: usize,
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed.
    pub ops_failed: u64,
    /// Whether every check held: no failed operation and one digest across
    /// all passes.
    pub correct: bool,
    /// The result digest of the first pass.
    pub digest: u64,
    /// Every end-to-end metric (untraced) or every per-layer metric
    /// (traced).
    pub readings: Vec<Reading>,
    /// Lines for people: sample counts, tails, checks.
    pub notes: Vec<String>,
}

impl RunReport {
    /// The contract's result object: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.ops as f64)),
            ("failed", Value::Num(self.ops_failed as f64)),
            (
                "metrics",
                Value::obj(self.readings.iter().map(|r| {
                    (
                        r.name,
                        Value::obj([("value", Value::Num(r.value)), ("unit", Value::str(r.unit))]),
                    )
                })),
            ),
        ])
    }
}

/// Runs the workload and computes its metrics.
///
/// # Errors
///
/// No pass produced a result, or a probe could not run.
pub fn run(args: RunArgs, dirs: &Dirs) -> Result<RunReport, String> {
    let mut tracer = Tracer::default();
    let mut samples = Samples::default();
    let mut outcomes: Vec<(bool, PassOutcome)> = Vec::new();
    let (mut errors, mut consecutive_errors) = (0u64, 0u32);
    let mut last_error = String::new();
    let min_passes = if args.trace { 2 } else { 1 };
    let watch = Stopwatch::start();
    let mut index = 0u32;
    loop {
        // On a traced run every other pass keeps its spans, so the run
        // itself shows what recording them costs.
        let recording = args.trace && index % 2 == 0;
        tracer.begin_pass(index, recording);
        let mut cx = Cx {
            tracer: &mut tracer,
            samples: &mut samples,
            seed: args.seed,
            size: args.size,
            dirs,
        };
        match args.workload.pass(&mut cx) {
            Ok(outcome) => {
                consecutive_errors = 0;
                outcomes.push((recording, outcome));
            }
            Err(e) => {
                eprintln!("{}: pass {index} failed: {e}", args.workload.name());
                errors += 1;
                consecutive_errors += 1;
                last_error = e;
            }
        }
        index += 1;
        if consecutive_errors >= MAX_CONSECUTIVE_ERRORS
            || (index >= min_passes && watch.elapsed_s() >= args.seconds)
        {
            break;
        }
    }
    if outcomes.is_empty() {
        return Err(format!("no pass produced a result: {last_error}"));
    }
    // Read before the probes run: they are not part of the workload.
    let own_peak_rss_mib = peak_rss_mib(None);

    if args.trace {
        tracer.begin_pass(index, true);
        let mut cx = Cx {
            tracer: &mut tracer,
            samples: &mut samples,
            seed: args.seed,
            size: args.size,
            dirs,
        };
        args.workload.probes(&mut cx)?;
        let path = dirs
            .out_dir()?
            .join(format!("trace-{}.jsonl", args.workload.name()));
        std::fs::write(&path, tracer.to_jsonl(args.workload.name()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    let walls = |traced: Option<bool>| -> Vec<f64> {
        outcomes
            .iter()
            .filter(|(recording, _)| traced.map_or(true, |t| t == *recording))
            .map(|(_, o)| o.wall_s)
            .collect()
    };
    let setups: Vec<f64> = outcomes.iter().map(|(_, o)| o.setup_s).collect();
    let ops: u64 = outcomes.iter().map(|(_, o)| o.ops).sum::<u64>() + errors;
    let ops_failed: u64 = outcomes.iter().map(|(_, o)| o.ops_failed).sum::<u64>() + errors;
    let digest = outcomes[0].1.digest;
    let one_digest = outcomes.iter().all(|(_, o)| o.digest == digest);
    let mut notes = vec![format!(
        "{} passes in {:.2} s, seed {}, digest {digest:016x}{}",
        outcomes.len(),
        watch.elapsed_s(),
        args.seed,
        if one_digest {
            ""
        } else {
            " — DIGESTS DIFFER between passes"
        }
    )];

    if let Some(stray) = samples.names().find(|name| per_layer(name).is_none()) {
        return Err(format!("`{stray}` is sampled but is not a declared metric"));
    }
    let list = |values: &[f64]| -> String {
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        shown.join(" ")
    };
    notes.push(format!("wall_s per pass: {}", list(&walls(None))));
    notes.push(format!("setup_s per pass: {}", list(&setups)));
    let readings = if args.trace {
        let derived =
            derive_layer_metrics(&tracer, &samples, &walls(Some(true)), &walls(Some(false)));
        if let Some(p) = highest_supported_percentile(samples.all("cycle_p50_ms").len()) {
            notes.push(format!(
                "cycle latency: {} samples, highest percentile with 10 beyond it: p{p} = {:.4} ms",
                samples.all("cycle_p50_ms").len(),
                percentile(samples.all("cycle_p50_ms"), p)
            ));
        }
        PER_LAYER
            .iter()
            .map(|m| Reading {
                name: m.name,
                unit: m.unit,
                value: derived
                    .get(m.name)
                    .copied()
                    .or_else(|| samples.median(m.name))
                    .unwrap_or(0.0),
            })
            .collect()
    } else {
        let child_peak = outcomes
            .iter()
            .filter_map(|(_, o)| o.child_peak_rss_mib)
            .fold(None, |best: Option<f64>, v| {
                Some(best.map_or(v, |b| b.max(v)))
            });
        let all_walls = walls(None);
        let value_of = |name: &str| match name {
            "wall_s" => median(&all_walls),
            "setup_s" => median(&setups),
            _ => child_peak.or(own_peak_rss_mib).unwrap_or(0.0),
        };
        END_TO_END
            .iter()
            .map(|m| Reading {
                name: m.name,
                unit: m.unit,
                value: value_of(m.name),
            })
            .collect()
    };

    Ok(RunReport {
        passes: outcomes.len(),
        ops,
        ops_failed,
        correct: ops_failed == 0 && one_digest,
        digest,
        readings,
        notes,
    })
}

/// The per-layer metrics that are computed from spans or from other samples
/// rather than sampled directly.
fn derive_layer_metrics(
    tracer: &Tracer,
    samples: &Samples,
    traced_walls: &[f64],
    untraced_walls: &[f64],
) -> BTreeMap<&'static str, f64> {
    let mut derived = BTreeMap::new();
    // Traced and untraced passes alternate, so each traced pass is compared
    // with the untraced one right after it: the box's slow drift, which is
    // larger than any tracing cost, hits both of a pair alike.
    let overheads: Vec<f64> = traced_walls
        .iter()
        .zip(untraced_walls)
        .map(|(traced, untraced)| 100.0 * (traced - untraced) / untraced.max(1e-12))
        .collect();
    if !overheads.is_empty() {
        derived.insert("trace_overhead_pct", median(&overheads));
    }
    // The share of a pass no child span covers: harness bookkeeping, result
    // checks, and whatever a layer does outside the calls that are wrapped.
    let spans = tracer.spans();
    let shares: Vec<f64> = spans
        .iter()
        .zip(self_times(spans))
        .filter(|(span, _)| span.name == "pass")
        .map(|(span, own)| 100.0 * own / span.duration_s().max(1e-12))
        .collect();
    if !shares.is_empty() {
        derived.insert("harness.unattributed_pct", median(&shares));
    }
    // The base of every layer share: the median pass of this very run.
    let all_walls: Vec<f64> = traced_walls.iter().chain(untraced_walls).copied().collect();
    derived.insert("harness.pass_s", median(&all_walls));
    if let (Some(construct), Some(arrivals)) = (
        samples.median("sim.construct_s"),
        samples.median("sim.arrivals.build_s"),
    ) {
        derived.insert("sim.construct.other_s", (construct - arrivals).max(0.0));
    }
    // Every cycle is a sample of `cycle_p50_ms`, so its median is the p50.
    let cycles = samples.all("cycle_p50_ms");
    if !cycles.is_empty() {
        let p50 = median(cycles);
        derived.insert("cycle_p99_ms", percentile(cycles, 99.0));
        if let Some(channel_us) = samples.median("server.channel.cycle_us") {
            derived.insert("server.tcp.overhead_us", p50 * 1e3 - channel_us);
        }
    }
    derived
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the shipped binaries the two child-process workloads spawn, the
    /// way `run.sh` does, into the directory this test binary runs from.
    fn dirs_with_shipped_binaries() -> Dirs {
        static BUILT: std::sync::OnceLock<Dirs> = std::sync::OnceLock::new();
        BUILT.get_or_init(build_shipped_binaries).clone()
    }

    fn build_shipped_binaries() -> Dirs {
        let exe = std::env::current_exe().unwrap();
        // <target>/<profile>/deps/<test binary>
        let profile_dir = exe.parent().unwrap().parent().unwrap();
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        let release = profile_dir.file_name().unwrap() == "release";
        let mut build = std::process::Command::new(env!("CARGO"));
        build
            .args(["build", "--offline", "--quiet", "--bins"])
            .args(["-p", "fedco-server", "-p", "fedco-fleet"])
            .arg("--manifest-path")
            .arg(format!("{root}/Cargo.toml"))
            .arg("--target-dir")
            .arg(profile_dir.parent().unwrap());
        if release {
            build.arg("--release");
        }
        assert!(build.status().unwrap().success(), "root binaries build");
        Dirs::at(profile_dir)
    }

    fn smoke(workload: Workload, trace: bool, dirs: &Dirs) -> RunReport {
        let args = RunArgs {
            workload,
            seed: 7,
            seconds: 0.0,
            trace,
            size: Size::Smoke,
        };
        run(args, dirs).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
    }

    #[test]
    fn every_workload_runs_clean_at_smoke_size() {
        let dirs = dirs_with_shipped_binaries();
        let mut produced = std::collections::BTreeSet::new();
        for workload in Workload::ALL {
            let untraced = smoke(workload, false, &dirs);
            assert_eq!(untraced.ops_failed, 0, "{}", workload.name());
            assert!(untraced.correct && untraced.ops >= 1, "{}", workload.name());
            assert_eq!(untraced.readings.len(), END_TO_END.len());
            for reading in &untraced.readings {
                assert!(
                    reading.value.is_finite() && reading.value > 0.0,
                    "{} {} = {}",
                    workload.name(),
                    reading.name,
                    reading.value
                );
            }

            let traced = smoke(workload, true, &dirs);
            assert_eq!(traced.ops_failed, 0, "{}", workload.name());
            assert!(traced.correct && traced.passes >= 2, "{}", workload.name());
            assert_eq!(traced.readings.len(), PER_LAYER.len());
            assert_eq!(
                traced.digest,
                untraced.digest,
                "{}: one seed, one digest",
                workload.name()
            );
            for reading in &traced.readings {
                assert!(reading.value.is_finite(), "{}", reading.name);
                if reading.value != 0.0 {
                    produced.insert(reading.name);
                }
            }
            let trace_file = dirs
                .out_dir()
                .unwrap()
                .join(format!("trace-{}.jsonl", workload.name()));
            let trace = std::fs::read_to_string(trace_file).unwrap();
            assert!(trace.lines().count() >= 2, "{}", workload.name());
            assert!(trace.lines().all(|l| crate::json::parse(l).is_ok()));
        }
        // Counters that may honestly read 0 at smoke size.
        let may_be_zero = [
            "trace_overhead_pct",
            "telemetry.sim_overhead_pct",
            "fl.fig5.convergence_speedup",
            "sim.construct.other_s",
            "server.tcp.overhead_us",
            "server.churn.joins_rejected",
            "server.churn.pushes_refused",
            "server.churn.sessions_expired",
            "best_accuracy_pct",
            "energy_saving_pct",
        ];
        for metric in &PER_LAYER {
            assert!(
                produced.contains(metric.name) || may_be_zero.contains(&metric.name),
                "no workload produces {}",
                metric.name
            );
        }
    }

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let report = RunReport {
            passes: 3,
            ops: 12,
            ops_failed: 1,
            correct: false,
            digest: 5,
            readings: vec![Reading {
                name: "wall_s",
                unit: "s",
                value: 1.25,
            }],
            notes: Vec::new(),
        };
        assert_eq!(
            report.to_json().render(),
            r#"{"correct":false,"attempted":12,"failed":1,"metrics":{"wall_s":{"value":1.25,"unit":"s"}}}"#
        );
    }
}
