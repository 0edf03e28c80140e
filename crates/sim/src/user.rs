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
//!
//! Timers are absolute deadlines (the slot an application leaves the
//! foreground, the slot an epoch is complete), so nothing about a user
//! changes between its events: the slot loop finds the users due in a slot
//! by popping a calendar (the test-only reference scans for them). The
//! arena also keeps the census of the fleet —
//! training, offline and waiting counts plus the ascending set of waiting
//! users — current at every phase transition, which is why the phase lane
//! is private and only changes through the transition methods.
//!
//! # Sleeping users
//!
//! A waiting user its policy cannot schedule before some later slot
//! ([`SchedulingPolicy::next_decision_slot`]) is *asleep* until then: the
//! indexed slot loop does not decide it, and the idle slots it waits through
//! — one `+ ε` gap step and one waited slot each — are owed instead of
//! applied. So is a user its *class* — its device profile and app status —
//! was decided idle for ([`SchedulingPolicy::class_decision`]): it sleeps
//! with no wake slot, in its class's set, until the engine wakes it (its
//! class decided otherwise, its app status changed, or a slot decided user
//! by user). Three invariants keep that out of the results:
//!
//! * an asleep user is waiting, and owes exactly the slots from the one it
//!   fell asleep at up to the slot boundary being read;
//! * nothing reads its gap or wait count while it owes any: the engine
//!   settles at its wake and before every read of the gap lane — the Eq. 16
//!   fold, a trace sample, the user-gap series — and settling lands `n` owed
//!   steps as one [`repeated_add`], the bits of `n` single `+ ε` additions,
//!   and adds `n` to the wait count;
//! * an asleep user leaves the waiting phase only by going dark or entering
//!   it afresh, which wakes it and drops what it owed: both overwrite the
//!   gap and the wait count.
//!
//! [`SchedulingPolicy::next_decision_slot`]: fedco_core::policy::SchedulingPolicy::next_decision_slot
//! [`SchedulingPolicy::class_decision`]: fedco_core::policy::SchedulingPolicy::class_decision

use std::sync::Arc;

use fedco_device::apps::AppKind;
use fedco_device::energy::repeated_add;
use fedco_device::power::{AppStatus, PowerState};
use fedco_device::profiles::{DeviceKind, DeviceProfile};
use fedco_fl::model_state::ModelVersion;
use fedco_fl::staleness::GradientGap;

use crate::index::UserSet;

/// App statuses a device can be in: no app, or one of [`AppKind::ALL`].
const STATUSES: usize = 1 + AppKind::ALL.len();

/// The training phase of a user.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrainingPhase {
    /// The device holds a fresh model snapshot and waits for the scheduler.
    Waiting,
    /// Training is running and completes in the tick of slot `until - 1`;
    /// `corunning` records whether it was started together with an
    /// application.
    Training {
        /// The first slot at which the local epoch is complete.
        until: u64,
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
    /// Per-idle-slot gradient-gap increment `ε` (Eq. 12): finite and `≥ 0`,
    /// as `SchedulerConfig::validate` holds it.
    epsilon: f64,
    /// One shared profile per *distinct* device kind, in first-seen order.
    profiles: Vec<Arc<DeviceProfile>>,
    /// Index of each user's profile in [`profiles`](Self::profiles).
    profile_ix: Vec<u32>,
    /// Current training phase. Private: [`set_phase`](Self::set_phase) keeps
    /// the census below in step with it.
    phase: Vec<TrainingPhase>,
    /// Number of users in [`TrainingPhase::Training`].
    training: u64,
    /// Number of users in [`TrainingPhase::Offline`].
    offline: usize,
    /// The users in [`TrainingPhase::Waiting`], ascending.
    waiting: UserSet,
    /// The waiting users that are asleep (see the module docs), ascending.
    asleep: UserSet,
    /// Per asleep user, the first slot whose idle step it still owes.
    idle_from: Vec<u64>,
    /// Per asleep user, the slot it wakes at.
    wake_at: Vec<u64>,
    /// Per decision class (see [`class`](Self::class)), the asleep users that
    /// class's decision left idle; empty until the first of them sleeps.
    class_asleep: Vec<UserSet>,
    /// Number of users in `class_asleep`.
    class_sleepers: usize,
    /// The first slot at which the current foreground application is no
    /// longer running (it expires in the tick of slot `app_until - 1`).
    /// Meaningful only while [`current_app`](Self::current_app) is set.
    pub app_until: Vec<u64>,
    /// Which application is currently in the foreground.
    pub current_app: Vec<Option<AppKind>>,
    /// Version of the global model each user last downloaded.
    pub base_version: Vec<ModelVersion>,
    /// Accumulated gradient gap `g_i(t)` (Eq. 12), advanced by one `+ ε`
    /// addition per idle slot. Private: [`set_gap`](Self::set_gap) drops
    /// the held sum below with every write.
    gap: Vec<f64>,
    /// `Σ_i g_i`, folded in index order, while no gap has changed since.
    gap_sum: Option<f64>,
    /// Slots spent waiting since the user last became ready (its current
    /// contribution to the task-queue backlog; reset when training starts).
    pub current_wait_slots: Vec<u64>,
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
            epsilon,
            profiles,
            profile_ix,
            phase: vec![TrainingPhase::Waiting; num_users],
            training: 0,
            offline: 0,
            waiting: UserSet::full(num_users),
            asleep: UserSet::empty(num_users),
            idle_from: vec![0; num_users],
            wake_at: vec![0; num_users],
            class_asleep: Vec::new(),
            class_sleepers: 0,
            app_until: vec![0; num_users],
            current_app: vec![None; num_users],
            base_version: vec![ModelVersion::INITIAL; num_users],
            gap: vec![0.0; num_users],
            gap_sum: None,
            current_wait_slots: vec![0; num_users],
            cold: Box::new(UserSideTable {
                device,
                epochs_completed: vec![0; num_users],
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

    /// The idle gap increment `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
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

    /// The training phase of user `i`.
    pub fn phase(&self, i: usize) -> TrainingPhase {
        self.phase[i]
    }

    /// Moves user `i` to `next`, keeping the census current.
    fn set_phase(&mut self, i: usize, next: TrainingPhase) {
        match self.phase[i] {
            // Leaving the waiting phase, or entering it afresh, wakes the
            // user (see the module docs).
            TrainingPhase::Waiting => {
                self.waiting.remove(i);
                self.asleep.remove(i);
                self.leave_class(i);
            }
            TrainingPhase::Training { .. } => self.training -= 1,
            TrainingPhase::Offline => self.offline -= 1,
            TrainingPhase::RoundBarrier => {}
        }
        match next {
            TrainingPhase::Waiting => self.waiting.insert(i),
            TrainingPhase::Training { .. } => self.training += 1,
            TrainingPhase::Offline => self.offline += 1,
            TrainingPhase::RoundBarrier => {}
        }
        self.phase[i] = next;
    }

    /// Number of users currently training.
    pub fn training_count(&self) -> u64 {
        self.training
    }

    /// Number of users currently waiting for a scheduling decision.
    pub fn waiting_count(&self) -> usize {
        self.waiting.len()
    }

    /// Number of users that are not offline.
    pub fn online_count(&self) -> usize {
        self.len() - self.offline
    }

    /// The waiting users in ascending order — the order they are decided
    /// in.
    pub fn waiting(&self) -> impl Iterator<Item = usize> + '_ {
        self.waiting.iter()
    }

    /// Number of 64-user blocks of the waiting set.
    pub fn waiting_blocks(&self) -> usize {
        self.waiting.blocks()
    }

    /// The waiting users among `64·b .. 64·(b + 1)`, ascending, as they
    /// stood when the block was read. Walking block after block is
    /// [`waiting`](Self::waiting) for loops that change the arena as they
    /// go: a user may leave the set once visited (none may join).
    pub fn waiting_block(&self, b: usize) -> impl Iterator<Item = usize> {
        self.waiting.block(b)
    }

    /// Number of waiting users that are awake: those a slot decides.
    pub(crate) fn awake_count(&self) -> usize {
        self.waiting.len() - self.asleep.len()
    }

    /// The awake waiting users among `64·b .. 64·(b + 1)`, ascending, as
    /// they stood when the block was read (see
    /// [`waiting_block`](Self::waiting_block)).
    pub(crate) fn awake_block(&self, b: usize) -> impl Iterator<Item = usize> {
        self.waiting.block_without(b, &self.asleep)
    }

    /// The decision class of user `i`: its device profile and app status,
    /// as [`class_of`](Self::class_of) reads them back.
    pub(crate) fn class(&self, i: usize) -> usize {
        let status = self.current_app[i].map_or(0, |app| 1 + app.index());
        self.profile_ix[i] as usize * STATUSES + status
    }

    /// Number of decision classes.
    pub(crate) fn classes(&self) -> usize {
        self.profiles.len() * STATUSES
    }

    /// The device profile and app status of class `c`.
    pub(crate) fn class_of(&self, c: usize) -> (&DeviceProfile, AppStatus) {
        let status = match c % STATUSES {
            0 => AppStatus::NoApp,
            app => AppStatus::App(AppKind::ALL[app - 1]),
        };
        (&self.profiles[c / STATUSES], status)
    }

    /// Number of users asleep in class `c`.
    pub(crate) fn class_sleeping(&self, c: usize) -> usize {
        self.class_asleep.get(c).map_or(0, UserSet::len)
    }

    /// The users asleep in class `c` among `64·b .. 64·(b + 1)`, as they
    /// stood when the block was read.
    pub(crate) fn class_block(&self, c: usize, b: usize) -> impl Iterator<Item = usize> {
        self.class_asleep[c].block(b)
    }

    /// Whether user `i` is asleep in its class.
    pub(crate) fn in_class_sleep(&self, i: usize) -> bool {
        self.class_sleepers > 0 && self.class_asleep[self.class(i)].contains(i)
    }

    /// Number of users asleep in a class.
    pub(crate) fn class_sleepers(&self) -> usize {
        self.class_sleepers
    }

    /// Number of asleep users, in a class or not.
    pub(crate) fn asleep_count(&self) -> usize {
        self.asleep.len()
    }

    /// The asleep users among `64·b .. 64·(b + 1)`, as they stood when the
    /// block was read.
    pub(crate) fn asleep_block(&self, b: usize) -> impl Iterator<Item = usize> {
        self.asleep.block(b)
    }

    /// Whether a foreground application is currently running for user `i`.
    pub fn app_running(&self, i: usize) -> bool {
        self.current_app[i].is_some()
    }

    /// The current application status of user `i` for the power model.
    pub fn app_status(&self, i: usize) -> AppStatus {
        match self.current_app[i] {
            Some(app) => AppStatus::App(app),
            None => AppStatus::NoApp,
        }
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

    /// Puts `app` in user `i`'s foreground from slot `now` for the given
    /// number of slots, and returns the slot it leaves again. The caller
    /// decides whether an arrival is accepted at all (see the
    /// [`arrivals`](crate::arrivals) module); calling this while an
    /// application runs replaces it.
    pub fn start_app(&mut self, i: usize, app: AppKind, now: u64, duration_slots: u64) -> u64 {
        self.current_app[i] = Some(app);
        self.app_until[i] = now + duration_slots.max(1);
        self.app_until[i]
    }

    /// Takes user `i`'s application out of the foreground.
    pub fn end_app(&mut self, i: usize) {
        self.current_app[i] = None;
    }

    /// Starts training for user `i` at slot `now` for the given number of
    /// slots, and returns the slot at which the epoch is complete;
    /// `corunning` records whether an app is in the foreground at start.
    pub fn start_training(
        &mut self,
        i: usize,
        now: u64,
        duration_slots: u64,
        corunning: bool,
    ) -> u64 {
        let until = now + duration_slots.max(1);
        self.set_phase(i, TrainingPhase::Training { until, corunning });
        self.current_wait_slots[i] = 0;
        if corunning {
            self.cold.corun_epochs[i] += 1;
        }
        until
    }

    /// Whether user `i`'s application leaves the foreground in the tick of
    /// slot `until - 1`.
    pub fn app_expires_at(&self, i: usize, until: u64) -> bool {
        self.current_app[i].is_some() && self.app_until[i] == until
    }

    /// If user `i`'s epoch completes in the tick of slot `until - 1`, its
    /// co-running flag.
    pub fn epoch_done_at(&self, i: usize, until: u64) -> Option<bool> {
        match self.phase[i] {
            TrainingPhase::Training {
                until: u,
                corunning,
            } if u == until => Some(corunning),
            _ => None,
        }
    }

    /// Counts a completed epoch of user `i`.
    pub fn count_epoch(&mut self, i: usize) {
        self.cold.epochs_completed[i] += 1;
    }

    /// Puts user `i` back into the waiting state (after its upload was
    /// applied and it re-downloaded the global model).
    pub fn become_waiting(&mut self, i: usize, new_base: ModelVersion) {
        self.set_phase(i, TrainingPhase::Waiting);
        self.base_version[i] = new_base;
        self.set_gap(i, 0.0);
        self.current_wait_slots[i] = 0;
    }

    /// Parks user `i` at the synchronous round barrier.
    pub fn enter_barrier(&mut self, i: usize) {
        self.set_phase(i, TrainingPhase::RoundBarrier);
    }

    /// Takes user `i` dark: a running epoch is aborted, the foreground
    /// application dropped, and gap and wait bookkeeping cleared.
    pub fn go_offline(&mut self, i: usize) {
        self.set_phase(i, TrainingPhase::Offline);
        self.current_app[i] = None;
        self.set_gap(i, 0.0);
        self.current_wait_slots[i] = 0;
    }

    /// The accumulated gradient gap of user `i`.
    pub fn gap_value(&self, i: usize) -> GradientGap {
        GradientGap(self.gap[i])
    }

    /// Applies one slot in which the policy left waiting user `i` idle: the
    /// gap grows, `g(t) = g(t−1) + ε`, and the slot counts as waited.
    pub fn idle_slot(&mut self, i: usize) {
        self.set_gap(i, self.gap[i] + self.epsilon);
        self.current_wait_slots[i] += 1;
    }

    /// Applies a scheduling decision to user `i`'s gap: it becomes the
    /// momentum-predicted value for the lag expected over training.
    pub fn gap_schedule(&mut self, i: usize, predicted: GradientGap) {
        self.set_gap(i, predicted.0);
    }

    fn set_gap(&mut self, i: usize, gap: f64) {
        self.gap[i] = gap;
        self.gap_sum = None;
    }

    /// Every user's accumulated gap, by user id.
    pub fn gaps(&self) -> &[f64] {
        &self.gap
    }

    /// `Σ_i g_i(t)`, the sum that feeds Eq. 16, folded afresh in index
    /// order.
    pub fn fold_gaps(&self) -> f64 {
        // fedco-audit: allow(float-reduction): fixed-order reduction over the gap lane — deterministic by construction
        self.gap.iter().sum()
    }

    /// [`fold_gaps`](Self::fold_gaps), folded again only after a gap
    /// changed: a slot in which nobody waits, uploads or goes dark costs no
    /// pass over the fleet.
    pub fn gap_sum(&mut self) -> f64 {
        let sum = match self.gap_sum {
            Some(sum) => sum,
            None => self.fold_gaps(),
        };
        debug_assert_eq!(sum.to_bits(), self.fold_gaps().to_bits(), "stale sum");
        self.gap_sum = Some(sum);
        sum
    }

    /// Puts waiting user `i` to sleep until slot `wake`, owing its idle
    /// slots from slot `from` on. A user already asleep keeps owing from
    /// where it did and only moves its wake.
    pub(crate) fn sleep(&mut self, i: usize, from: u64, wake: u64) {
        if !self.asleep.contains(i) {
            self.asleep.insert(i);
            self.idle_from[i] = from;
        }
        self.wake_at[i] = wake;
    }

    /// Puts awake waiting user `i` to sleep in its class, owing its idle
    /// slots from slot `from` on, until it is woken.
    pub(crate) fn sleep_in_class(&mut self, i: usize, from: u64) {
        if self.class_asleep.is_empty() {
            self.class_asleep = vec![UserSet::empty(self.len()); self.classes()];
        }
        let c = self.class(i);
        self.class_asleep[c].insert(i);
        self.class_sleepers += 1;
        self.sleep(i, from, u64::MAX);
    }

    /// Takes user `i` out of its class's sleepers, if it is one.
    fn leave_class(&mut self, i: usize) {
        if self.in_class_sleep(i) {
            let c = self.class(i);
            self.class_asleep[c].remove(i);
            self.class_sleepers -= 1;
        }
    }

    /// Whether user `i` is asleep until exactly `slot` (a wake filed for it
    /// is live).
    pub(crate) fn wakes_at(&self, i: usize, slot: u64) -> bool {
        self.asleep.contains(i) && self.wake_at[i] == slot
    }

    /// Wakes user `i` at `slot`, with the idle slots it owes before it
    /// applied (a no-op for an awake user).
    pub(crate) fn wake(&mut self, i: usize, slot: u64) {
        if self.asleep.contains(i) {
            self.settle_idle(i, slot);
            self.asleep.remove(i);
            self.leave_class(i);
        }
    }

    /// Wakes every asleep user at `slot`; returns how many there were.
    pub(crate) fn wake_all(&mut self, slot: u64) -> usize {
        let woken = self.settle_all_idle(slot);
        if woken > 0 {
            self.asleep.clear();
        }
        if self.class_sleepers > 0 {
            self.class_asleep.iter_mut().for_each(UserSet::clear);
            self.class_sleepers = 0;
        }
        woken
    }

    /// Applies the idle slots every asleep user owes before slot `to`, and
    /// returns how many users are asleep (they stay so).
    pub(crate) fn settle_all_idle(&mut self, to: u64) -> usize {
        if self.asleep.len() > 0 {
            for b in 0..self.asleep.blocks() {
                for i in self.asleep.block(b) {
                    self.settle_idle(i, to);
                }
            }
        }
        self.asleep.len()
    }

    /// Applies the idle slots asleep user `i` owes before slot `to`: its
    /// gap steps as one `repeated_add`, the bits of as many single `+ ε`
    /// additions, and as many waited slots.
    fn settle_idle(&mut self, i: usize, to: u64) {
        let owed = to - self.idle_from[i];
        if owed > 0 {
            self.set_gap(i, repeated_add(self.gap[i], self.epsilon, owed));
            self.current_wait_slots[i] += owed;
            self.idle_from[i] = to;
        }
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
        assert_eq!(u.start_app(0, AppKind::Tiktok, 10, 3), 13);
        assert!(u.app_running(0));
        assert_eq!(u.app_status(0), AppStatus::App(AppKind::Tiktok));
        assert_eq!(u.power_state(0), PowerState::AppOnly(AppKind::Tiktok));
        u.tick(0, 10);
        u.tick(0, 11);
        assert!(u.app_running(0));
        assert!(u.app_expires_at(0, 13) && !u.app_expires_at(0, 12));
        u.tick(0, 12);
        assert!(!u.app_running(0));
        assert_eq!(u.current_app[0], None);
        assert!(!u.app_expires_at(0, 13), "an ended app has no deadline");
    }

    #[test]
    fn training_lifecycle_and_power_states() {
        let mut u = arena();
        u.start_app(0, AppKind::Map, 0, 10);
        assert_eq!(u.start_training(0, 0, 2, true), 2);
        assert!(u.is_training(0));
        assert_eq!(u.power_state(0), PowerState::CoRunning(AppKind::Map));
        assert_eq!(u.cold.corun_epochs[0], 1);
        assert_eq!(u.tick(0, 0), None);
        assert_eq!(u.epoch_done_at(0, 2), Some(true));
        assert_eq!(u.tick(0, 1), Some(true), "second slot completes the epoch");
        assert_eq!(u.cold.epochs_completed[0], 1);
        // Still in Training phase bookkeeping until the engine re-queues it.
        u.become_waiting(0, ModelVersion(4));
        assert!(u.is_waiting(0));
        assert_eq!(u.base_version[0], ModelVersion(4));
        assert_eq!(u.epoch_done_at(0, 2), None);
    }

    #[test]
    fn training_without_app_is_background_state() {
        let mut u = arena();
        u.start_training(0, 0, 5, false);
        assert_eq!(u.power_state(0), PowerState::TrainingOnly);
        assert_eq!(u.cold.corun_epochs[0], 0);
    }

    #[test]
    fn waiting_slots_are_counted() {
        let mut u = arena();
        u.idle_slot(0);
        u.idle_slot(0);
        assert_eq!(u.current_wait_slots[0], 2);
        u.start_training(0, 2, 1, false);
        assert_eq!(u.current_wait_slots[0], 0);
    }

    #[test]
    fn held_gap_sum_follows_every_gap_write() {
        let mut u = UserArena::build(3, 0.25, |_| DeviceKind::Pixel2);
        assert_eq!(u.gap_sum(), 0.0);
        u.idle_slot(0);
        u.idle_slot(2);
        assert_eq!(u.gap_sum(), 0.5);
        u.gap_schedule(1, GradientGap(2.0));
        assert_eq!(u.gap_sum(), 2.5);
        u.become_waiting(1, ModelVersion(1));
        u.go_offline(2);
        assert_eq!(u.gap_sum(), 0.25);
        assert_eq!(u.gap_sum().to_bits(), u.fold_gaps().to_bits());
    }

    #[test]
    fn barrier_state_is_inert() {
        let mut u = arena();
        u.enter_barrier(0);
        assert!(!u.is_waiting(0));
        assert!(!u.is_training(0));
        assert_eq!(u.tick(0, 0), None);
        assert_eq!(u.power_state(0), PowerState::Idle);
    }

    #[test]
    fn offline_state_is_inert() {
        let mut u = arena();
        u.start_app(0, AppKind::Map, 0, 5);
        u.start_training(0, 0, 1, true);
        u.go_offline(0);
        assert_eq!(u.phase(0), TrainingPhase::Offline);
        assert!(!u.is_waiting(0));
        assert!(!u.is_training(0));
        assert!(!u.app_running(0));
        assert_eq!(u.tick(0, 0), None, "the aborted epoch never completes");
        assert_eq!(u.cold.epochs_completed[0], 0);
        // A rejoin restores the ordinary waiting state.
        u.become_waiting(0, ModelVersion(2));
        assert!(u.is_waiting(0));
    }

    #[test]
    fn census_follows_every_transition() {
        let mut u = UserArena::build(130, 0.1, |_| DeviceKind::Pixel2);
        assert_eq!(
            (u.waiting_count(), u.training_count(), u.online_count()),
            (130, 0, 130)
        );
        assert_eq!(u.waiting().next(), Some(0));
        u.start_training(0, 0, 5, false);
        u.start_training(64, 0, 5, false);
        u.go_offline(65);
        u.go_offline(64); // mid-epoch
        assert_eq!(
            (u.waiting_count(), u.training_count(), u.online_count()),
            (127, 1, 128)
        );
        assert_eq!(u.waiting_block(1).next(), Some(66));
        assert!(u.waiting().eq((1..130).filter(|i| ![64, 65].contains(i))));
        u.enter_barrier(0);
        assert_eq!(u.training_count(), 0);
        u.become_waiting(0, ModelVersion(1));
        u.become_waiting(65, ModelVersion(1));
        assert_eq!((u.waiting_count(), u.online_count()), (129, 129));
        assert_eq!(u.waiting_block(1).next(), Some(65));
        // Block-by-block iteration is ascending and tolerates the visited
        // user leaving the set.
        let mut seen = Vec::new();
        for b in 0..u.waiting_blocks() {
            for i in u.waiting_block(b) {
                u.start_training(i, 0, 1, false);
                seen.push(i);
            }
        }
        assert!(seen.iter().copied().eq((0..130).filter(|&i| i != 64)));
        assert_eq!((u.waiting_count(), u.training_count()), (0, 129));
        assert_eq!(u.waiting().next(), None);
    }

    #[test]
    fn app_switch_replaces_current_app() {
        let mut u = arena();
        u.start_app(0, AppKind::Map, 0, 100);
        u.start_app(0, AppKind::Zoom, 3, 50);
        assert_eq!(u.app_status(0), AppStatus::App(AppKind::Zoom));
        assert_eq!(u.app_until[0], 53);
    }

    #[test]
    fn zero_durations_are_clamped_to_one_slot() {
        let mut u = arena();
        u.start_app(0, AppKind::News, 0, 0);
        assert!(u.app_running(0));
        u.start_training(0, 0, 0, false);
        assert_eq!(u.tick(0, 0), Some(false));
        assert!(!u.app_running(0));
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
        assert_eq!(u.profiles.len(), 2);
        assert!(Arc::ptr_eq(&u.shared_profile(0), &u.shared_profile(2)));
        assert!(Arc::ptr_eq(&u.shared_profile(1), &u.shared_profile(3)));
        assert!(!Arc::ptr_eq(&u.shared_profile(0), &u.shared_profile(1)));
        assert_eq!(u.profile(0).kind, DeviceKind::Pixel2);
        assert_eq!(u.profile(1).kind, DeviceKind::Nexus6);
    }

    #[test]
    fn a_sleeper_owes_exactly_the_idle_slots_it_slept_through() {
        // User 0 idles slot by slot; user 1 sleeps through the same slots
        // and settles on the same bits and wait count.
        let mut u = UserArena::build(2, 0.1, |_| DeviceKind::Pixel2);
        let same = |u: &UserArena| {
            u.gap_value(0).0.to_bits() == u.gap_value(1).0.to_bits()
                && u.current_wait_slots[0] == u.current_wait_slots[1]
        };
        u.sleep(1, 0, 40);
        assert_eq!(u.awake_count(), 1);
        assert!(u.awake_block(0).eq([0]));
        for _ in 0..37 {
            u.idle_slot(0);
        }
        assert_eq!(u.settle_all_idle(37), 1);
        assert!(same(&u) && u.current_wait_slots[1] == 37);
        // Asked again, it moves its wake and keeps owing from slot 37.
        u.sleep(1, 37, 50);
        assert!(u.wakes_at(1, 50) && !u.wakes_at(1, 40));
        for _ in 37..45 {
            u.idle_slot(0);
        }
        u.wake(1, 45);
        assert!(same(&u) && u.awake_count() == 2 && !u.wakes_at(1, 50));
        assert_eq!(u.gap_sum().to_bits(), u.fold_gaps().to_bits());
        // Going dark drops the debt, and a rejoin comes back awake.
        u.sleep(1, 45, 60);
        u.go_offline(1);
        assert_eq!(u.gap_value(1), GradientGap(0.0));
        assert!(!u.wakes_at(1, 60));
        u.become_waiting(1, ModelVersion(1));
        assert_eq!(u.awake_count(), 2);
        assert_eq!(u.wake_all(60), 0);
    }

    #[test]
    fn class_sleepers_are_kept_per_class_and_leave_on_every_wake() {
        let kinds = [DeviceKind::Pixel2, DeviceKind::Nexus6, DeviceKind::Pixel2];
        let mut u = UserArena::build(3, 0.1, |i| kinds[i]);
        assert_eq!(u.classes(), 2 * STATUSES);
        u.start_app(2, AppKind::Map, 0, 10);
        let (c0, c1, c2) = (u.class(0), u.class(1), u.class(2));
        assert!(c0 != c1 && c0 != c2 && c1 != c2);
        assert_eq!(u.class_of(c0).1, AppStatus::NoApp);
        assert_eq!(u.class_of(c1).0.kind, DeviceKind::Nexus6);
        assert_eq!(u.class_of(c2).1, AppStatus::App(AppKind::Map));
        for i in 0..3 {
            u.sleep_in_class(i, 5);
        }
        assert_eq!(
            (u.class_sleepers(), u.asleep_count(), u.awake_count()),
            (3, 3, 0)
        );
        assert!(u.class_block(c2, 0).eq([2]) && u.in_class_sleep(2));
        // A wake settles slots 5 to 7 and takes it out of its class.
        u.wake(2, 8);
        assert_eq!(u.current_wait_slots[2], 3);
        assert_eq!((u.class_sleeping(c2), u.class_sleepers()), (0, 2));
        u.go_offline(1);
        assert!(!u.in_class_sleep(1) && u.class_sleepers() == 1);
        assert_eq!(u.wake_all(9), 1);
        assert_eq!((u.class_sleepers(), u.class_sleeping(c0)), (0, 0));
        assert_eq!(u.current_wait_slots[0], 4);
    }
}
