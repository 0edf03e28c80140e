//! The seven workloads. Each is a *pass* — one repetition of the workload
//! from the start of set-up to the result in hand, with a span around every
//! call into a layer — plus, on traced runs, fixed-input *probes* of the
//! layer functions a pass cannot wrap in situ.

pub mod fig5;
pub mod fleet_grid;
pub mod sim;
pub mod srv_churn;
pub mod srv_model;

use std::collections::BTreeMap;

use fedco_telemetry::profiling::Stopwatch;

use crate::metrics::WORKLOADS;
use crate::proc::Dirs;
use crate::stats::median;
use crate::trace::Tracer;

/// How large the inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark records.
    Full,
    /// Tiny inputs for the harness's own tests: same code paths, no meaning
    /// as a measurement.
    Smoke,
}

impl Size {
    /// `full` at full size, `smoke` in tests.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// Samples of per-layer metrics, by metric name, collected across passes
/// and probes.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Adds one sample of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Every sample of `name`.
    pub fn all(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of the samples of `name`, if there are any.
    pub fn median(&self, name: &str) -> Option<f64> {
        let all = self.all(name);
        (!all.is_empty()).then(|| median(all))
    }

    /// The names that have samples.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }
}

/// What a pass or a probe works with.
#[derive(Debug)]
pub struct Cx<'a> {
    /// Span recorder and clock.
    pub tracer: &'a mut Tracer,
    /// Per-layer samples.
    pub samples: &'a mut Samples,
    /// The workload seed: the only source of variation in the inputs.
    pub seed: u64,
    /// Input size.
    pub size: Size,
    /// Where the shipped binaries and the output directory are.
    pub dirs: &'a Dirs,
}

/// What one pass reports.
#[derive(Debug, Clone, PartialEq)]
pub struct PassOutcome {
    /// Start of set-up to result in hand, seconds.
    pub wall_s: f64,
    /// The set-up part of `wall_s`, seconds.
    pub setup_s: f64,
    /// Operations attempted (a simulation run, a request cycle, a driver
    /// run, a fleet job).
    pub ops: u64,
    /// Operations that failed a check.
    pub ops_failed: u64,
    /// FNV-1a digest of the result; equal across passes of one seed for the
    /// deterministic workloads.
    pub digest: u64,
    /// Peak RSS of the child process that did the work, when one did.
    pub child_peak_rss_mib: Option<f64>,
}

/// The workloads, in run order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `city-online`.
    CityOnline,
    /// `wide-sync`.
    WideSync,
    /// `offline-plan`.
    OfflinePlan,
    /// `fig5-ml`.
    Fig5Ml,
    /// `srv-model`.
    SrvModel,
    /// `srv-churn`.
    SrvChurn,
    /// `fleet-grid`.
    FleetGrid,
}

impl Workload {
    /// Every workload, in the order of [`WORKLOADS`].
    pub const ALL: [Workload; 7] = [
        Workload::CityOnline,
        Workload::WideSync,
        Workload::OfflinePlan,
        Workload::Fig5Ml,
        Workload::SrvModel,
        Workload::SrvChurn,
        Workload::FleetGrid,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].name
    }

    /// Looks a workload up by its `--workload` name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the run is confined to one CPU. `srv-model` is a ping-pong
    /// between a client thread and a server thread that never run at the
    /// same time; left to the scheduler they land on two CPUs, every hand-over
    /// wakes an idle (in a VM: halted) CPU, and the wall time follows the
    /// host's wake-up latency — measured here at 0.7 to 1.1 s for the same
    /// work within minutes. On one CPU a hand-over is a context switch and the
    /// same runs read 0.71 to 0.75 s.
    pub fn single_cpu(self) -> bool {
        self == Workload::SrvModel
    }

    /// Runs one pass.
    ///
    /// # Errors
    ///
    /// The pass could not produce a result at all (a spec did not parse, a
    /// child did not start); the caller counts it as failed.
    pub fn pass(self, cx: &mut Cx<'_>) -> Result<PassOutcome, String> {
        match self {
            Workload::CityOnline | Workload::WideSync | Workload::OfflinePlan => {
                sim::pass(self, cx)
            }
            Workload::Fig5Ml => fig5::pass(cx),
            Workload::SrvModel => srv_model::pass(cx),
            Workload::SrvChurn => srv_churn::pass(cx),
            Workload::FleetGrid => fleet_grid::pass(cx),
        }
    }

    /// Runs the fixed-input probes of the layers this workload exercises
    /// (traced runs only).
    ///
    /// # Errors
    ///
    /// A probe could not run.
    pub fn probes(self, cx: &mut Cx<'_>) -> Result<(), String> {
        match self {
            Workload::CityOnline | Workload::WideSync | Workload::OfflinePlan => {
                sim::probes(self, cx)
            }
            Workload::Fig5Ml => fig5::probes(cx),
            Workload::SrvModel => srv_model::probes(cx),
            Workload::SrvChurn => srv_churn::probes(cx),
            Workload::FleetGrid => fleet_grid::probes(cx),
        }
    }
}

/// Median seconds per call of `f`: `samples` timed batches of `iters` calls.
/// Batches are sized by the caller so one lasts milliseconds, not
/// microseconds, and the stopwatch's own cost vanishes.
pub fn seconds_per_call(iters: u32, samples: u32, mut f: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let watch = Stopwatch::start();
            for _ in 0..iters.max(1) {
                f();
            }
            watch.elapsed_s() / f64::from(iters.max(1))
        })
        .collect();
    median(&per_call)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_metrics_table() {
        for (workload, info) in Workload::ALL.into_iter().zip(WORKLOADS) {
            assert_eq!(workload.name(), info.name);
            assert_eq!(Workload::by_name(info.name), Some(workload));
        }
        assert_eq!(Workload::by_name("city-sharded"), None);
    }

    #[test]
    fn samples_report_medians_per_name() {
        let mut samples = Samples::default();
        assert_eq!(samples.median("sim.run_s"), None);
        for v in [3.0, 1.0, 2.0] {
            samples.push("sim.run_s", v);
        }
        assert_eq!(samples.median("sim.run_s"), Some(2.0));
        assert_eq!(samples.names().collect::<Vec<_>>(), vec!["sim.run_s"]);
    }

    #[test]
    fn seconds_per_call_grows_with_the_work() {
        let spin = |n: u64| {
            move || {
                let mut acc = 0u64;
                for i in 0..n {
                    acc = acc.wrapping_add(std::hint::black_box(i));
                }
                std::hint::black_box(acc);
            }
        };
        let small = seconds_per_call(20, 5, spin(1_000));
        let large = seconds_per_call(20, 5, spin(100_000));
        assert!(large > small * 5.0, "{small} vs {large}");
    }
}
