//! Per-user device state, stored as a struct-of-arrays arena.
//!
//! Every simulated user owns one device. The training lifecycle follows the
//! paper's system model (Section III-B): the device downloads the global
//! model and becomes *waiting*; the scheduler decides each slot whether to
//! start training (possibly co-running with a foreground application); once
//! training finishes the local update is uploaded and the device immediately
//! becomes available for the next epoch. Foreground applications arrive
//! independently of the training lifecycle and run for their Table-II
//! duration.
//!
//! The state lives in [`UserArena`]: the fields the engine touches every
//! slot (phase, app timer, gap, …) are contiguous per-field arrays so a
//! million-user sweep streams through cache lines instead of hopping across
//! fat per-user structs, while rarely-read counters sit in a boxed
//! [`UserSideTable`]. Device calibration is deduplicated: one
//! [`DeviceProfile`] allocation per distinct [`DeviceKind`], shared through
//! [`Arc`], instead of one copy per user.

use std::sync::Arc;

use fedco_device::apps::AppKind;
use fedco_device::power::{AppStatus, PowerState};
use fedco_device::profiles::{DeviceKind, DeviceProfile};
use fedco_fl::model_state::ModelVersion;
use fedco_fl::staleness::GradientGap;

/// The training phase of a user.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrainingPhase {
    /// The device holds a fresh model snapshot and waits for the scheduler.
    Waiting,
    /// Training is running; `remaining_slots` slots are left; `corunning`
    /// records whether it was started together with an application.
    Training {
        /// Slots left until the local epoch completes.
        remaining_slots: u64,
        /// Whether the epoch was started as a co-run.
        corunning: bool,
    },
    /// The user finished all work for this round and waits for the barrier
    /// (only used by the Sync-SGD baseline).
    RoundBarrier,
    /// The device is dark: its battery drained to the death threshold or
    /// the world churn model took it offline. Offline devices run no
    /// applications, accrue no energy, see no scheduling decisions and hold
    /// no model snapshot; the engine's world check brings them back through
    /// a fresh download once the world model says so.
    Offline,
}

/// Rarely-touched per-user counters, boxed out of the hot arrays.
#[derive(Debug, Clone, Default)]
pub struct UserSideTable {
    /// The device model assigned to each user.
    pub device: Vec<DeviceKind>,
    /// Number of local epochs each user has completed.
    pub epochs_completed: Vec<u64>,
    /// Number of slots each user spent waiting (lifetime total).
    pub waiting_slots: Vec<u64>,
    /// Number of epochs each user started as co-runs.
    pub corun_epochs: Vec<u64>,
}

/// Struct-of-arrays store for the whole fleet's per-user state.
///
/// Index `i` across every array is user `i`; all arrays have the same
/// length. The per-user state machine is exposed as index-taking methods
/// that mirror the old fat-struct API (`tick(i)`, `start_training(i, …)`,
/// …) and behave bit-identically to it.
#[derive(Debug, Clone)]
pub struct UserArena {
    /// Per-idle-slot gradient-gap increment `ε` (Eq. 12), clamped to `≥ 0`
    /// once at construction exactly like `GapAccumulator::new`.
    epsilon: f64,
    /// One shared profile per *distinct* device kind, in first-seen order.
    profiles: Vec<Arc<DeviceProfile>>,
    /// Index of each user's profile in [`profiles`](Self::profiles).
    profile_ix: Vec<u32>,
    /// Current training phase.
    pub phase: Vec<TrainingPhase>,
    /// Remaining slots of the currently running foreground application.
    pub app_remaining_slots: Vec<u64>,
    /// Which application is currently in the foreground.
    pub current_app: Vec<Option<AppKind>>,
    /// Version of the global model each user last downloaded.
    pub base_version: Vec<ModelVersion>,
    /// Accumulated gradient gap `g_i(t)` (Eq. 12). Always advanced by
    /// repeated `+ ε` additions, never an `n × ε` multiply, so bulk
    /// fast-forwards reproduce the dense per-slot loop bit-for-bit.
    pub gap: Vec<f64>,
    /// Slots spent waiting since the user last became ready (its current
    /// contribution to the task-queue backlog; reset when training starts).
    pub current_wait_slots: Vec<u64>,
    /// The application status each user was last handed to the policy under
    /// (`None` until the first decision after becoming ready). The event
    /// engine may only fast-forward past a waiting user while this matches
    /// the current status: an app expiry or arrival — or a fresh requeue —
    /// invalidates the last decision and forces a dense slot.
    pub last_decision_app: Vec<Option<AppStatus>>,
    /// Cold per-user counters.
    pub cold: Box<UserSideTable>,
}

impl UserArena {
    /// Builds an arena of `num_users` users, all waiting with empty gap
    /// accumulators; `device_of(i)` assigns user `i` its device kind.
    pub fn build(
        num_users: usize,
        epsilon: f64,
        mut device_of: impl FnMut(usize) -> DeviceKind,
    ) -> Self {
        let mut profiles: Vec<Arc<DeviceProfile>> = Vec::new();
        let mut kinds: Vec<DeviceKind> = Vec::new();
        let mut profile_ix = Vec::with_capacity(num_users);
        let mut device = Vec::with_capacity(num_users);
        for i in 0..num_users {
            let kind = device_of(i);
            let ix = match kinds.iter().position(|k| *k == kind) {
                Some(ix) => ix,
                None => {
                    kinds.push(kind);
                    profiles.push(Arc::new(kind.profile()));
                    profiles.len() - 1
                }
            };
            profile_ix.push(ix as u32);
            device.push(kind);
        }
        UserArena {
            epsilon: epsilon.max(0.0),
            profiles,
            profile_ix,
            phase: vec![TrainingPhase::Waiting; num_users],
            app_remaining_slots: vec![0; num_users],
            current_app: vec![None; num_users],
            base_version: vec![ModelVersion::INITIAL; num_users],
            gap: vec![0.0; num_users],
            current_wait_slots: vec![0; num_users],
            last_decision_app: vec![None; num_users],
            cold: Box::new(UserSideTable {
                device,
                epochs_completed: vec![0; num_users],
                waiting_slots: vec![0; num_users],
                corun_epochs: vec![0; num_users],
            }),
        }
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.phase.len()
    }

    /// Whether the arena holds no users.
    pub fn is_empty(&self) -> bool {
        self.phase.is_empty()
    }

    /// The idle gap increment `ε` (already clamped to `≥ 0`).
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of distinct shared device profiles in the arena.
    pub fn distinct_profiles(&self) -> usize {
        self.profiles.len()
    }

    /// The device kind of user `i`.
    pub fn device(&self, i: usize) -> DeviceKind {
        self.cold.device[i]
    }

    /// The (shared) calibration profile of user `i`.
    pub fn profile(&self, i: usize) -> &DeviceProfile {
        &self.profiles[self.profile_ix[i] as usize]
    }

    /// A clone of the shared profile handle of user `i`.
    pub fn shared_profile(&self, i: usize) -> Arc<DeviceProfile> {
        Arc::clone(&self.profiles[self.profile_ix[i] as usize])
    }

    /// Whether a foreground application is currently running for user `i`.
    pub fn app_running(&self, i: usize) -> bool {
        self.app_remaining_slots[i] > 0 && self.current_app[i].is_some()
    }

    /// The current application status of user `i` for the power model.
    pub fn app_status(&self, i: usize) -> AppStatus {
        match (self.app_running(i), self.current_app[i]) {
            (true, Some(app)) => AppStatus::App(app),
            _ => AppStatus::NoApp,
        }
    }

    /// Whether user `i` is waiting for a scheduling decision.
    pub fn is_waiting(&self, i: usize) -> bool {
        matches!(self.phase[i], TrainingPhase::Waiting)
    }

    /// Whether training is currently running for user `i`.
    pub fn is_training(&self, i: usize) -> bool {
        matches!(self.phase[i], TrainingPhase::Training { .. })
    }

    /// The Eq.-10 power state of user `i` for the current slot.
    pub fn power_state(&self, i: usize) -> PowerState {
        match (self.is_training(i), self.app_status(i)) {
            (true, AppStatus::App(a)) => PowerState::CoRunning(a),
            (true, AppStatus::NoApp) => PowerState::TrainingOnly,
            (false, AppStatus::App(a)) => PowerState::AppOnly(a),
            (false, AppStatus::NoApp) => PowerState::Idle,
        }
    }

    /// Starts a foreground application for user `i` for the given number of
    /// slots. Arrivals while another app is running replace it (the user
    /// switched apps).
    pub fn start_app(&mut self, i: usize, app: AppKind, duration_slots: u64) {
        self.current_app[i] = Some(app);
        self.app_remaining_slots[i] = duration_slots.max(1);
    }

    /// Starts training for user `i` for the given number of slots;
    /// `corunning` records whether an app is in the foreground at start.
    pub fn start_training(&mut self, i: usize, duration_slots: u64, corunning: bool) {
        self.phase[i] = TrainingPhase::Training {
            remaining_slots: duration_slots.max(1),
            corunning,
        };
        self.current_wait_slots[i] = 0;
        if corunning {
            self.cold.corun_epochs[i] += 1;
        }
    }

    /// Advances app and training timers of user `i` by one slot. Returns
    /// `true` when a training epoch completed during this slot.
    pub fn tick(&mut self, i: usize) -> bool {
        if self.app_remaining_slots[i] > 0 {
            self.app_remaining_slots[i] -= 1;
            if self.app_remaining_slots[i] == 0 {
                self.current_app[i] = None;
            }
        }
        match &mut self.phase[i] {
            TrainingPhase::Training {
                remaining_slots, ..
            } => {
                *remaining_slots -= 1;
                if *remaining_slots == 0 {
                    self.cold.epochs_completed[i] += 1;
                    true
                } else {
                    false
                }
            }
            TrainingPhase::Waiting => {
                self.cold.waiting_slots[i] += 1;
                self.current_wait_slots[i] += 1;
                false
            }
            TrainingPhase::RoundBarrier | TrainingPhase::Offline => false,
        }
    }

    /// Puts user `i` back into the waiting state (after its upload was
    /// applied and it re-downloaded the global model).
    pub fn become_waiting(&mut self, i: usize, new_base: ModelVersion) {
        self.phase[i] = TrainingPhase::Waiting;
        self.base_version[i] = new_base;
        self.gap[i] = 0.0;
        self.current_wait_slots[i] = 0;
        self.last_decision_app[i] = None;
    }

    /// Parks user `i` at the synchronous round barrier.
    pub fn enter_barrier(&mut self, i: usize) {
        self.phase[i] = TrainingPhase::RoundBarrier;
    }

    /// The accumulated gradient gap of user `i`.
    pub fn gap_value(&self, i: usize) -> GradientGap {
        GradientGap(self.gap[i])
    }

    /// Applies one idle slot to user `i`'s gap: `g(t) = g(t−1) + ε`.
    pub fn gap_idle_slot(&mut self, i: usize) {
        self.gap[i] += self.epsilon;
    }

    /// Applies `slots` consecutive idle slots to user `i`'s gap,
    /// bit-identically to calling [`gap_idle_slot`](Self::gap_idle_slot)
    /// that many times — by construction: repeated addition, never a
    /// `slots × ε` multiply, which would round differently.
    pub fn gap_idle_slots(&mut self, i: usize, slots: u64) {
        for _ in 0..slots {
            self.gap[i] += self.epsilon;
        }
    }

    /// Applies a scheduling decision to user `i`'s gap: it becomes the
    /// momentum-predicted value for the lag expected over training.
    pub fn gap_schedule(&mut self, i: usize, predicted: GradientGap) {
        self.gap[i] = predicted.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena() -> UserArena {
        UserArena::build(1, 0.1, |_| DeviceKind::Pixel2)
    }

    #[test]
    fn new_user_waits_with_no_app() {
        let u = arena();
        assert!(u.is_waiting(0));
        assert!(!u.is_training(0));
        assert!(!u.app_running(0));
        assert_eq!(u.app_status(0), AppStatus::NoApp);
        assert_eq!(u.power_state(0), PowerState::Idle);
        assert_eq!(u.cold.epochs_completed[0], 0);
    }

    #[test]
    fn app_lifecycle() {
        let mut u = arena();
        u.start_app(0, AppKind::Tiktok, 3);
        assert!(u.app_running(0));
        assert_eq!(u.app_status(0), AppStatus::App(AppKind::Tiktok));
        assert_eq!(u.power_state(0), PowerState::AppOnly(AppKind::Tiktok));
        u.tick(0);
        u.tick(0);
        assert!(u.app_running(0));
        u.tick(0);
        assert!(!u.app_running(0));
        assert_eq!(u.current_app[0], None);
    }

    #[test]
    fn training_lifecycle_and_power_states() {
        let mut u = arena();
        u.start_app(0, AppKind::Map, 10);
        u.start_training(0, 2, true);
        assert!(u.is_training(0));
        assert_eq!(u.power_state(0), PowerState::CoRunning(AppKind::Map));
        assert_eq!(u.cold.corun_epochs[0], 1);
        assert!(!u.tick(0));
        assert!(u.tick(0), "second slot completes the epoch");
        assert_eq!(u.cold.epochs_completed[0], 1);
        // Still in Training phase bookkeeping until the engine re-queues it.
        u.become_waiting(0, ModelVersion(4));
        assert!(u.is_waiting(0));
        assert_eq!(u.base_version[0], ModelVersion(4));
    }

    #[test]
    fn training_without_app_is_background_state() {
        let mut u = arena();
        u.start_training(0, 5, false);
        assert_eq!(u.power_state(0), PowerState::TrainingOnly);
        assert_eq!(u.cold.corun_epochs[0], 0);
    }

    #[test]
    fn waiting_slots_are_counted() {
        let mut u = arena();
        u.tick(0);
        u.tick(0);
        assert_eq!(u.cold.waiting_slots[0], 2);
        u.start_training(0, 1, false);
        u.tick(0);
        assert_eq!(u.cold.waiting_slots[0], 2);
    }

    #[test]
    fn barrier_state_is_inert() {
        let mut u = arena();
        u.enter_barrier(0);
        assert!(!u.is_waiting(0));
        assert!(!u.is_training(0));
        assert!(!u.tick(0));
        assert_eq!(u.power_state(0), PowerState::Idle);
    }

    #[test]
    fn offline_state_is_inert() {
        let mut u = arena();
        u.phase[0] = TrainingPhase::Offline;
        assert!(!u.is_waiting(0));
        assert!(!u.is_training(0));
        assert!(!u.tick(0));
        assert_eq!(u.cold.waiting_slots[0], 0);
        // A rejoin restores the ordinary waiting state.
        u.become_waiting(0, ModelVersion(2));
        assert!(u.is_waiting(0));
    }

    #[test]
    fn app_switch_replaces_current_app() {
        let mut u = arena();
        u.start_app(0, AppKind::Map, 100);
        u.start_app(0, AppKind::Zoom, 50);
        assert_eq!(u.app_status(0), AppStatus::App(AppKind::Zoom));
        assert_eq!(u.app_remaining_slots[0], 50);
    }

    #[test]
    fn zero_durations_are_clamped_to_one_slot() {
        let mut u = arena();
        u.start_app(0, AppKind::News, 0);
        assert!(u.app_running(0));
        u.start_training(0, 0, false);
        assert!(u.tick(0));
    }

    #[test]
    fn profiles_are_deduplicated_per_device_kind() {
        let kinds = [
            DeviceKind::Pixel2,
            DeviceKind::Nexus6,
            DeviceKind::Pixel2,
            DeviceKind::Nexus6,
            DeviceKind::Pixel2,
        ];
        let u = UserArena::build(kinds.len(), 0.1, |i| kinds[i]);
        assert_eq!(u.distinct_profiles(), 2);
        assert!(Arc::ptr_eq(&u.shared_profile(0), &u.shared_profile(2)));
        assert!(Arc::ptr_eq(&u.shared_profile(1), &u.shared_profile(3)));
        assert!(!Arc::ptr_eq(&u.shared_profile(0), &u.shared_profile(1)));
        assert_eq!(u.profile(0).kind, DeviceKind::Pixel2);
        assert_eq!(u.profile(1).kind, DeviceKind::Nexus6);
    }

    #[test]
    fn gap_bulk_update_matches_repeated_additions() {
        let mut a = arena();
        let mut b = arena();
        for _ in 0..1000 {
            a.gap_idle_slot(0);
        }
        b.gap_idle_slots(0, 1000);
        assert_eq!(a.gap[0].to_bits(), b.gap[0].to_bits());
        // A negative epsilon clamps to zero exactly like GapAccumulator.
        let mut c = UserArena::build(1, -0.5, |_| DeviceKind::Pixel2);
        c.gap_idle_slots(0, 10);
        assert_eq!(c.gap[0], 0.0);
        assert_eq!(c.epsilon(), 0.0);
    }
}
