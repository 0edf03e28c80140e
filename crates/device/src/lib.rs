//! # fedco-device
//!
//! Mobile-device substrate for the `fedco` reproduction of *"Energy
//! Minimization for Federated Asynchronous Learning on Battery-Powered
//! Mobile Devices via Application Co-running"* (ICDCS 2022).
//!
//! The paper's schedulers consume a small set of device-level quantities:
//! the average power of training alone (`P_b`), of each foreground
//! application (`P_a`), of co-running both (`P_a'`), of idling (`P_d`), and
//! the training duration per local epoch. Those constants were measured on a
//! four-device testbed (Nexus 6/6P, HiKey 970, Pixel 2) with Trepn /
//! Snapdragon Profiler / Monsoon hardware; this crate re-encodes the
//! published Table II/III calibration and adds the surrounding device
//! models the simulation and the figure binaries read: a four-state power
//! model (Eq. 10), a foreground FPS model (Fig. 2), battery capacities, and
//! an energy profiler that integrates power over simulated schedules bit for
//! bit.
//!
//! ```
//! use fedco_device::prelude::*;
//!
//! let profile = DeviceKind::Pixel2.profile();
//! let model = PowerModel::new(profile);
//! let saving = ScheduleComparison::compute(&model, AppKind::Map).saving_fraction();
//! assert!(saving > 0.25); // Table II reports 30 % for Pixel2 + Map
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod apps;
pub mod battery;
pub mod choices;
pub mod energy;
pub mod fps;
pub mod power;
pub mod profiler;
pub mod profiles;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::apps::{AppKind, AppMeasurement};
    pub use crate::energy::{Joules, Seconds, Watts};
    pub use crate::fps::{FpsModel, FpsSample};
    pub use crate::power::{AppStatus, PowerModel, PowerState, SlotDecision};
    pub use crate::profiler::{EnergyComponent, EnergyProfiler, ScheduleComparison};
    pub use crate::profiles::{DeviceKind, DeviceProfile};
}

pub use prelude::*;
