//! # fedco-core
//!
//! The core contribution of the `fedco` reproduction of *"Energy Minimization
//! for Federated Asynchronous Learning on Battery-Powered Mobile Devices via
//! Application Co-running"* (ICDCS 2022): energy-aware scheduling of
//! federated training on mobile devices.
//!
//! Two schedulers are provided, mirroring Sections IV and V of the paper:
//!
//! * [`offline::OfflineScheduler`] — assumes all application arrivals in a
//!   look-ahead window are known, bounds each user's lag with Lemma 1 and
//!   solves the resulting Knapsack Problem with dynamic programming
//!   (Algorithm 1) to pick which users should co-run training with their
//!   foreground application under the staleness budget `L_b`.
//! * [`online::OnlineScheduler`] — a Lyapunov drift-plus-penalty controller
//!   (Algorithm 2) that holds the task-queue and virtual-queue backlogs
//!   `Q(t)` and `H(t)` itself, only observes them, and achieves the
//!   `[O(1/V), O(V)]` energy–staleness trade-off of Theorem 1.
//!
//! Each scheduler is one type. The engine runs every policy through the
//! [`policy::SchedulingPolicy`] trait: `OnlineScheduler` implements it
//! itself, [`policy::OfflinePolicy`] executes the knapsack plans the engine
//! installs, and the baselines the paper compares against (immediate
//! scheduling and Sync-SGD) sit beside it in [`policy`]. A
//! [`spec::PolicySpec`] builds any of them from the run's
//! [`config::SchedulerConfig`].
//!
//! ```
//! use fedco_core::prelude::*;
//! use fedco_device::prelude::*;
//! use fedco_fl::staleness::GradientGap;
//!
//! let scheduler = OnlineScheduler::new(SchedulerConfig::default());
//! let profile = DeviceKind::Pixel2.profile();
//! let input = OnlineDecisionInput::from_profile(
//!     &profile,
//!     AppStatus::App(AppKind::Map),
//!     GradientGap(1.0),
//!     GradientGap(0.2),
//! );
//! // With empty queues the controller waits for a better opportunity.
//! assert_eq!(scheduler.decide(&input), SlotDecision::Idle);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod experiment;
pub mod offline;
pub mod online;
pub mod policy;
#[cfg(test)]
mod queues;
pub mod scenario;
pub mod spec;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::config::{SchedulerConfig, SchedulerConfigError};
    pub use crate::experiment::{
        ConfigError, DeviceAssignment, EmptyDeviceList, LinkKind, MlConfig, MlMode, SimConfig,
    };
    pub use crate::offline::{
        greedy_solution, lag_bound, KnapsackItem, OfflineScheduler, OfflineSolution, OfflineUser,
    };
    pub use crate::online::{
        DecisionObjectives, OnlineDecisionInput, OnlineScheduler, SlotOutcome,
    };
    pub use crate::policy::{
        ImmediatePolicy, OfflinePolicy, SchedulingPolicy, SyncSgdPolicy, UserSlotContext,
    };
    pub use crate::scenario::{parse_scenario_file, ParseScenarioError, ScenarioSpec};
    pub use crate::spec::{ParsePolicyError, PolicyFactory, PolicySpec, PolicySpecError};
}

pub use prelude::*;
