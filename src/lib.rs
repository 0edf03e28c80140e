//! # fedco
//!
//! `fedco` is a Rust reproduction of *"Energy Minimization for Federated
//! Asynchronous Learning on Battery-Powered Mobile Devices via Application
//! Co-running"* (Wang, Hu and Wu, ICDCS 2022).
//!
//! The paper schedules federated training jobs on mobile devices so that they
//! *co-run* with foreground applications on the big.LITTLE CPU, saving
//! 30–50 % of energy per epoch, and manages the resulting gradient staleness
//! with an offline knapsack scheduler and an online Lyapunov controller.
//!
//! This facade crate re-exports the five underlying crates:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`neural`] | LeNet-5 training over one flat parameter buffer: tensors, its five layers, softmax cross-entropy, SGD with momentum, synthetic CIFAR-like data |
//! | [`device`] | device/app power calibration (Table II/III), battery capacities, FPS, power model, energy profiler |
//! | [`fl`] | parameter server, async/sync aggregation, lag and gradient-gap staleness metrics |
//! | [`core`] | the paper's schedulers: offline knapsack DP and online drift-plus-penalty |
//! | [`sim`] | the slotted simulator reproducing the paper's 3-hour, 25-user evaluation |
//! | [`fleet`] | fleet-scale scenario-sweep runtime: grids, a thread-pool executor, streaming statistics, CSV/JSONL reports |
//! | [`telemetry`] | deterministic tracing/metrics/profiling on the simulation-slot clock, plus the `fedco-trace` CLI |
//! | [`world`] | environment dynamics: arrival processes (diurnal/MMPP/flash-crowd), battery lifecycles, device churn, compressed uplinks |
//!
//! ## Quickstart
//!
//! ```no_run
//! use fedco::prelude::*;
//!
//! // Run the paper's main setting with the online controller.
//! let result = run_simulation(SimConfig::small(PolicySpec::Online { v: None }));
//! println!("total energy: {:.1} kJ", result.total_energy_kj());
//! ```
//!
//! The runnable examples in `examples/` and the benchmark binaries in
//! `crates/bench` regenerate every table and figure of the paper's
//! evaluation; see `EXPERIMENTS.md` for the index.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use fedco_core as core;
pub use fedco_device as device;
pub use fedco_fl as fl;
pub use fedco_fleet as fleet;
pub use fedco_neural as neural;
pub use fedco_rng as rng;
pub use fedco_server as server;
pub use fedco_sim as sim;
pub use fedco_telemetry as telemetry;
pub use fedco_world as world;

/// One-stop imports for applications built on `fedco`.
pub mod prelude {
    pub use fedco_core::prelude::*;
    pub use fedco_device::prelude::*;
    pub use fedco_fl::{
        AsyncUpdateRule, ClientConfig, FlClient, GradientGap, Lag, LocalUpdate, ModelSnapshot,
        ModelVersion, MomentumTracker, ParameterServer, TransportModel, WeightPredictor,
    };
    pub use fedco_fleet::prelude::{
        deterministic_view, resolve_workers, rollup_table, run_grid, run_grid_traced, to_csv,
        to_jsonl, CellRollup, FieldAxis, FleetJob, FleetReport, GridError, JobCoord, JobSummary,
        LinkKind, ScenarioGrid, Streaming, SweepTrace,
    };
    pub use fedco_neural::{
        Dataset, LeNetConfig, ParamVector, Sequential, Sgd, SgdConfig, SoftmaxCrossEntropy,
        SyntheticCifarConfig, Tensor,
    };
    pub use fedco_sim::prelude::*;
    pub use fedco_telemetry::prelude::{
        diff, events_to_jsonl, parse_events_jsonl, summarize as summarize_trace, BufferSink,
        Channel, Event, EventKind, Measured, MetricKey, MetricValue, MetricsRegistry, Stopwatch,
    };
    pub use fedco_world::prelude::{
        ArrivalModel, ArrivalSpec, BatterySpec, ChurnSpec, CompressionSpec, WorldConfig,
        CHECK_EVERY_SLOTS,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_main_types() {
        use crate::prelude::*;
        let cfg = SimConfig::default();
        assert_eq!(cfg.num_users, 25);
        let profile = DeviceKind::Pixel2.profile();
        assert!(profile.training_power_w > 0.0);
        let sched = OnlineScheduler::new(SchedulerConfig::default());
        assert_eq!(sched.queue_backlog(), 0.0);
    }
}
