//! # fedco-sim
//!
//! Discrete-event simulator for the `fedco` reproduction of *"Energy
//! Minimization for Federated Asynchronous Learning on Battery-Powered
//! Mobile Devices via Application Co-running"* (ICDCS 2022).
//!
//! The simulator replays the paper's 3-hour, 25-user testbed experiment in
//! slotted time: foreground applications arrive as a Bernoulli process, the
//! chosen scheduling policy (immediate, Sync-SGD, offline knapsack or the
//! online Lyapunov controller) decides when each device trains, the device
//! power models of Table II account the energy, and (optionally) real LeNet
//! training on a synthetic CIFAR-like dataset produces genuine accuracy
//! curves.
//!
//! ```no_run
//! use fedco_sim::prelude::*;
//!
//! let result = run_simulation(SimConfig::small(PolicySpec::Online { v: None }));
//! println!("{}", summarize(&result));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrivals;
pub mod clock;
pub mod engine;
mod index;
mod phases;
pub mod report;
#[cfg(test)]
mod scan;
pub mod trace;
pub mod user;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::arrivals::ArrivalSchedule;
    pub use crate::clock::SimClock;
    pub use crate::engine::{run_simulation, run_simulation_traced, EngineStats, Simulation};
    pub use crate::report::{render_breakdown, render_series, render_table, summarize};
    pub use crate::trace::{SimResult, TracePoint, UpdateEvent, UserGapPoint};
    pub use crate::user::{TrainingPhase, UserArena};
    pub use fedco_core::config::SchedulerConfig;
    pub use fedco_core::experiment::{
        ConfigError, DeviceAssignment, EmptyDeviceList, LinkKind, MlConfig, MlMode, SimConfig,
    };
    pub use fedco_core::scenario::{parse_scenario_file, ScenarioSpec};
    pub use fedco_core::spec::{PolicyFactory, PolicySpec};
}

pub use prelude::*;
