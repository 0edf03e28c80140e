//! # fedco-fleet
//!
//! Fleet-scale scenario-sweep runtime for the `fedco` reproduction of
//! *"Energy Minimization for Federated Asynchronous Learning on
//! Battery-Powered Mobile Devices via Application Co-running"* (ICDCS 2022).
//!
//! The single-run engine in `fedco-sim` answers "what does policy P cost
//! under configuration C?". This crate answers the production question:
//! "what do *all* policies cost across the whole space of workloads,
//! device fleets, transport links and seeds — using every core?". It has
//! four parts:
//!
//! * [`grid`] — [`ScenarioGrid`] crosses declarative
//!   [`ScenarioSpec`]s with any number
//!   of open [`FieldAxis`] dimensions (every scenario field is sweepable),
//!   a [`PolicySpec`] dimension and replicate seeds, each job seeded by
//!   SplitMix64 of its grid coordinates;
//! * [`executor`] — a std-only thread pool (one worker per core by
//!   default, claiming jobs in grid order through an atomic cursor) running
//!   jobs in summary-only mode, drained by the caller in job order while the
//!   workers keep going;
//! * [`stats`] — streaming count/mean/M2/min/max accumulators and
//!   per-`(scenario, policy)` rollups, so sweeps never materialize traces;
//! * [`report`] — hand-rolled CSV and JSON-lines writers (the workspace is
//!   offline: no serde), every row keyed by `(scenario label,
//!   policy label)`.
//!
//! Results are **bit-identical for any worker count**: job seeds depend only
//! on grid coordinates, and rollups fold finished jobs in grid order.
//!
//! Sweeps are observable: a traced job's `fedco-telemetry` event stream is
//! wrapped in `job-start`/`job-end` lifecycle markers and handed over in job
//! order ([`executor::run_grid_with`]), so everything derived from it
//! inherits the same any-worker-count determinism contract.
//! [`executor::run_grid_traced`] concatenates the streams into one
//! [`executor::SweepTrace`] (events + derived metrics);
//! [`executor::run_grid_streamed`] renders and folds each job on its worker
//! and writes the same bytes out as the sweep runs, holding only the jobs in
//! flight.
//! Wall-clock timings (`wall_ms`, `slots_per_sec`, `wall_s`) are
//! [`fedco_telemetry::profiling::Measured`] profiling values:
//! they never participate in equality, so report comparisons are the
//! determinism contract by construction.
//!
//! ```no_run
//! use fedco_fleet::prelude::*;
//!
//! let grid = ScenarioGrid::preset("smoke")
//!     .with_axis("arrival_p", &["0.0002", "0.005"])
//!     .with_axis("link", &["ideal", "lte"])
//!     .with_replicates(4);
//! let report = run_grid(&grid, 0); // 0 = one worker per core
//! print!("{}", rollup_table(&report));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod executor;
pub mod grid;
pub mod report;
pub mod stats;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::executor::{
        deterministic_view, resolve_workers, run_grid, run_grid_streamed, run_grid_traced,
        run_grid_with, FleetReport, JobSummary, StreamedSweep, SweepTrace,
    };
    pub use crate::grid::{FieldAxis, FleetJob, GridError, JobCoord, ScenarioGrid};
    pub use crate::report::{rollup_table, to_csv, to_jsonl};
    pub use crate::stats::{CellRollup, Streaming};
    pub use fedco_core::config::SchedulerConfig;
    pub use fedco_core::experiment::{ConfigError, DeviceAssignment, LinkKind, MlMode, SimConfig};
    pub use fedco_core::scenario::{parse_scenario_file, ParseScenarioError, ScenarioSpec};
    pub use fedco_core::spec::{PolicyFactory, PolicySpec};
    pub use fedco_telemetry::event::{Channel, Event, EventKind};
    pub use fedco_telemetry::export::events_to_jsonl;
    pub use fedco_telemetry::metrics::{MetricKey, MetricValue, MetricsRegistry};
    pub use fedco_telemetry::profiling::{Measured, Stopwatch};
}

pub use prelude::*;
