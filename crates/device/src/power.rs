//! The four-state power model of Eq. (10).
//!
//! Per time slot, a device is in one of four power states determined by the
//! scheduling decision `α(t) ∈ {schedule, idle}` and the application status
//! `s(t) ∈ {app, no app}`:
//!
//! | decision  | app status | power          |
//! |-----------|-----------|-----------------|
//! | schedule  | app       | `P_a'` (co-run) |
//! | schedule  | no app    | `P_b` (train)   |
//! | idle      | app       | `P_a` (app)     |
//! | idle      | no app    | `P_d` (idle)    |
//!
//! The measurements in Table II satisfy `P_a' > P_a > P_b > P_d` on average.

use std::sync::Arc;

use crate::apps::AppKind;
use crate::energy::{Joules, Seconds, Watts};
use crate::profiles::DeviceProfile;

/// The scheduling decision of the controller for one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotDecision {
    /// Run (or keep running) the background training task this slot.
    Schedule,
    /// Keep the training task deferred this slot.
    Idle,
}

/// The foreground-application status of a device in one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppStatus {
    /// A foreground application is running.
    App(AppKind),
    /// No foreground application is running.
    NoApp,
}

impl AppStatus {
    /// Whether an application is present.
    pub fn is_app(self) -> bool {
        matches!(self, AppStatus::App(_))
    }

    /// The application, if any.
    pub fn app(self) -> Option<AppKind> {
        match self {
            AppStatus::App(a) => Some(a),
            AppStatus::NoApp => None,
        }
    }
}

/// The power state a device ends up in for a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerState {
    /// Training co-running with an application (`P_a'`).
    CoRunning(AppKind),
    /// Training alone in the background (`P_b`).
    TrainingOnly,
    /// Application alone (`P_a`).
    AppOnly(AppKind),
    /// Idle (`P_d`).
    Idle,
}

/// The power model of one device: maps power states to average power draw and
/// slot energy.
///
/// The profile is held behind an [`Arc`] so that large fleets of identical
/// devices share one `DeviceProfile` allocation instead of one copy per user.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    profile: Arc<DeviceProfile>,
}

impl PowerModel {
    /// Creates a power model from a device profile.
    pub fn new(profile: DeviceProfile) -> Self {
        PowerModel {
            profile: Arc::new(profile),
        }
    }

    /// Creates a power model that shares an existing profile allocation.
    pub fn shared(profile: Arc<DeviceProfile>) -> Self {
        PowerModel { profile }
    }

    /// The underlying device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Average power drawn in a given power state (Eq. 10).
    pub fn power(&self, state: PowerState) -> Watts {
        match state {
            PowerState::CoRunning(app) => self.profile.corun_power(app),
            PowerState::TrainingOnly => self.profile.training_power(),
            PowerState::AppOnly(app) => self.profile.app_power(app),
            PowerState::Idle => self.profile.idle_power(),
        }
    }

    /// Energy consumed over a slot of length `slot` in a given state,
    /// `P_i(t) · t_d`.
    pub fn slot_energy(&self, state: PowerState, slot: Seconds) -> Joules {
        self.power(state) * slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::DeviceKind;

    fn pixel2() -> PowerModel {
        PowerModel::new(DeviceKind::Pixel2.profile())
    }

    #[test]
    fn app_status_helpers() {
        assert!(AppStatus::App(AppKind::Map).is_app());
        assert!(!AppStatus::NoApp.is_app());
        assert_eq!(AppStatus::App(AppKind::Map).app(), Some(AppKind::Map));
        assert_eq!(AppStatus::NoApp.app(), None);
    }

    #[test]
    fn power_values_come_from_table_ii() {
        let pm = pixel2();
        assert_eq!(pm.power(PowerState::TrainingOnly).value(), 1.35);
        assert_eq!(pm.power(PowerState::Idle).value(), 0.689);
        assert_eq!(pm.power(PowerState::AppOnly(AppKind::Tiktok)).value(), 2.37);
        assert_eq!(
            pm.power(PowerState::CoRunning(AppKind::Tiktok)).value(),
            2.52
        );
    }

    #[test]
    fn slot_energy_is_power_times_time() {
        let pm = pixel2();
        let e = pm.slot_energy(PowerState::TrainingOnly, Seconds(10.0));
        assert!((e.value() - 13.5).abs() < 1e-9);
    }
}
