//! The benchmark's vocabulary: every workload and every metric by name, with
//! unit, direction and bound. `BENCHMARK.json` at the repo root is rendered
//! from these tables (`fedco-benchmark manifest`; a test keeps them equal).

use crate::json::Value;
use Better::{Higher, Lower};

/// How long one run measures, in seconds (`run_seconds` of the contract).
pub const RUN_SECONDS: u64 = 10;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller readings are better.
    Lower,
    /// Larger readings are better.
    Higher,
}

impl Better {
    /// The contract's spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// By how much a metric may worsen before it counts as a regression: the
/// larger of a share of the baseline median and an absolute floor (in the
/// metric's unit), so readings near zero are not gated on noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Share of the baseline median.
    pub rel: f64,
    /// Absolute floor, in the metric's unit.
    pub abs: f64,
}

impl Bound {
    /// The allowed worsening against a baseline median.
    pub fn allowed(self, baseline: f64) -> f64 {
        (self.rel * baseline.abs()).max(self.abs)
    }
}

/// One seeded set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadInfo {
    /// The `--workload` name.
    pub name: &'static str,
    /// Why it exists, in one line.
    pub why: &'static str,
}

/// The seven workloads, in run order.
pub const WORKLOADS: [WorkloadInfo; 7] = [
    WorkloadInfo {
        name: "city-online",
        why: "city-scale:users=7500, online policy, summary mode: the per-user slot loop (arrivals, Eq. 21 decide, power accrual) does almost all the work, construction almost none",
    },
    WorkloadInfo {
        name: "wide-sync",
        why: "mega:users=25000, sync-sgd: the same sim layer used the other way; arrival-schedule construction is a third of the wait and span fast-forward the rest, so the slot loop should not move it",
    },
    WorkloadInfo {
        name: "offline-plan",
        why: "city-scale:users=2500, offline policy: the only run of fedco-core's windowed knapsack planner, whose item build is quadratic in users; the policy never fast-forwards, so nearly every slot is dense",
    },
    WorkloadInfo {
        name: "fig5-ml",
        why: "paper-default:ml=full with traces, four policies back to back: real LeNet training makes neural forward/backward, parameter gather/scatter and fl aggregation the hot path (the paper's Fig. 5)",
    },
    WorkloadInfo {
        name: "srv-model",
        why: "fedco-serve over TCP loopback, one closed-loop client pulling and pushing a 62006-float model: the data plane, where codec copies, download cloning under the mutex and TCP dominate",
    },
    WorkloadInfo {
        name: "srv-churn",
        why: "in-process server soak at 7500 devices: the same server layer used differently, hundreds of thousands of 8-float frames, refusals, expiry sweeps, so a data-plane win that taxes sessions shows",
    },
    WorkloadInfo {
        name: "fleet-grid",
        why: "fleet_sweep CLI on 10 scenarios x 4 policies x 3 seeds with csv/jsonl/metrics/trace outputs: process start to report; executor, world models, event driver and telemetry export do the work",
    },
];

/// An end-to-end metric: what someone running the system waits for or pays.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Allowed worsening.
    pub bound: Bound,
}

/// The end-to-end metrics every workload reports on an untraced run.
///
/// The bounds are as wide as the box the benchmark was sized on demands: on
/// its two shared cores, medians of back-to-back 10-second runs of the same
/// code and seed differ by up to 15 % (`city-online` 0.64 to 0.75 s,
/// `fleet-grid` 0.49 to 0.68 s), and across seeds `fig5-ml` trains 6.5 to
/// 7.8 s worth of epochs. A bound below that would call noise a regression.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound {
            rel: 0.25,
            abs: 0.0,
        },
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound {
            rel: 0.25,
            abs: 0.05,
        },
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: Bound {
            rel: 0.15,
            abs: 2.0,
        },
    },
];

/// How `compare` treats a per-layer metric between two result sets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Informational: printed, never compared.
    Info,
    /// A simulated count or quantity that must repeat exactly for one seed.
    Exact,
    /// A result metric with a bound of its own.
    Bounded(Bound),
}

/// A metric of one layer, reported on a traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name; the part before the first `.` is the layer (crate).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// How `compare` treats it.
    pub gate: Gate,
}

const fn info(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        gate: Gate::Info,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        gate: Gate::Exact,
    }
}

const fn bounded(
    name: &'static str,
    unit: &'static str,
    better: Better,
    rel: f64,
    abs: f64,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        gate: Gate::Bounded(Bound { rel, abs }),
    }
}

/// Every per-layer metric. A workload reports 0 for the layers it does not
/// exercise; README.md says which end-to-end metric each should move.
pub const PER_LAYER: [PerLayer; 73] = [
    // Result metrics of single workloads. They cannot be end-to-end metrics
    // of the contract (those are reported by every workload), so they are
    // carried here and gated by `compare` with bounds of their own.
    bounded("cycle_p50_ms", "ms", Lower, 0.10, 0.0),
    bounded("cycle_p99_ms", "ms", Lower, 0.15, 0.0),
    bounded("energy_saving_pct", "%", Higher, 0.0, 0.5),
    bounded("best_accuracy_pct", "%", Higher, 0.0, 5.0),
    info("trace_overhead_pct", "%", Lower),
    info("harness.unattributed_pct", "%", Lower),
    info("harness.pass_s", "s", Lower),
    // rng
    info("rng.draws_per_s", "1/s", Higher),
    // world
    info("world.arrival.sample_s", "s", Lower),
    exact("world.arrival.events", "count", Lower),
    // sim
    info("sim.arrivals.build_s", "s", Lower),
    info("sim.construct_s", "s", Lower),
    info("sim.construct.other_s", "s", Lower),
    info("sim.run_s", "s", Lower),
    exact("sim.engine.dense_slots", "count", Lower),
    exact("sim.engine.fast_forwarded_slots", "count", Higher),
    exact("sim.engine.spans", "count", Lower),
    info("sim.engine.ns_per_dense_user_slot", "ns", Lower),
    exact("sim.result.updates", "count", Higher),
    // core
    info("core.scenario.parse_build_us", "us", Lower),
    info("core.online.decide_ns", "ns", Lower),
    info("core.online.end_of_slot_ns", "ns", Lower),
    info("core.offline.build_items_ms", "ms", Lower),
    info("core.offline.solve_ms", "ms", Lower),
    info("core.offline.schedule_window_ms", "ms", Lower),
    exact("core.offline.items", "count", Lower),
    // device
    info("device.profiler.record_ns", "ns", Lower),
    info("device.profiler.record_span_ns", "ns", Lower),
    // neural
    info("neural.train_batch_us", "us", Lower),
    info("neural.forward_us", "us", Lower),
    info("neural.params_gather_us", "us", Lower),
    info("neural.params_scatter_us", "us", Lower),
    exact("neural.param_count", "count", Lower),
    // fl
    info("fl.client.local_epoch_ms", "ms", Lower),
    info("fl.client.receive_model_us", "us", Lower),
    info("fl.server.apply_async_us", "us", Lower),
    info("fl.server.sync_round_us", "us", Lower),
    info("fl.server.download_us", "us", Lower),
    exact("fl.fig5.local_epochs", "count", Higher),
    exact("fl.fig5.convergence_speedup", "ratio", Higher),
    // server, data plane
    info("server.codec.encode_push_us", "us", Lower),
    info("server.codec.decode_push_us", "us", Lower),
    info("server.codec.encode_model_us", "us", Lower),
    info("server.codec.decode_model_us", "us", Lower),
    exact("server.codec.push_frame_bytes", "bytes", Lower),
    info("server.core.handle_push_us", "us", Lower),
    info("server.core.handle_pull_us", "us", Lower),
    info("server.channel.cycle_us", "us", Lower),
    info("server.tcp.overhead_us", "us", Lower),
    info("server.tcp.cycle_2conn_us", "us", Lower),
    // server, session and control plane
    info("server.codec.small_frame_ns", "ns", Lower),
    info("server.session.join_leave_ns", "ns", Lower),
    info("server.core.tick_us", "us", Lower),
    exact("server.churn.joins_attempted", "count", Higher),
    exact("server.churn.joins_rejected", "count", Lower),
    exact("server.churn.pushes_sent", "count", Higher),
    exact("server.churn.pushes_refused", "count", Lower),
    exact("server.churn.sessions_expired", "count", Lower),
    exact("server.churn.useful_push_ratio", "ratio", Higher),
    // fleet
    info("fleet.grid.expand_ms", "ms", Lower),
    exact("fleet.grid.jobs", "count", Higher),
    info("fleet.executor.run_s", "s", Lower),
    info("fleet.executor.run_1worker_s", "s", Lower),
    info("fleet.executor.parallel_efficiency", "ratio", Higher),
    info("fleet.report.csv_ms", "ms", Lower),
    info("fleet.report.jsonl_ms", "ms", Lower),
    info("fleet.report.rollup_ms", "ms", Lower),
    info("fleet.cli.spawn_to_grid_ms", "ms", Lower),
    // telemetry
    exact("telemetry.events", "count", Lower),
    info("telemetry.export.jsonl_s", "s", Lower),
    info("telemetry.export.ns_per_event", "ns", Lower),
    info("telemetry.sim_overhead_pct", "%", Lower),
    info("telemetry.sim_events", "count", Lower),
];

/// The per-layer metric called `name`.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`: exactly the keys of the contract.
pub fn manifest() -> Value {
    let metric = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Value::str(name)),
            ("unit", Value::str(unit)),
            ("better", Value::str(better.label())),
        ]
    };
    Value::obj([
        (
            "command",
            Value::Arr(vec![Value::str("bash"), Value::str("benchmark/run.sh")]),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut pairs = metric(m.name, m.unit, m.better);
                        pairs.push(("bound", Value::Num(m.bound.rel)));
                        Value::obj(pairs)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| Value::obj(metric(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name));
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound.rel > 0.0 && m.bound.rel <= 0.25, "{}", m.name);
            assert!(names.insert(m.name));
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound.rel).fold(0.0, f64::max);
        assert_eq!(setup.bound.rel, widest, "setup_s carries the largest bound");
        assert!(manifest().render_pretty().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_is_rendered_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            on_disk,
            manifest().render_pretty(),
            "regenerate with `fedco-benchmark manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn bound_takes_the_larger_of_share_and_floor() {
        let b = Bound {
            rel: 0.10,
            abs: 0.05,
        };
        assert_eq!(b.allowed(0.2), 0.05, "floor wins near zero");
        assert_eq!(b.allowed(2.0), 0.2, "share wins on large readings");
    }
}
