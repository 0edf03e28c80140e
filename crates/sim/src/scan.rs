//! The plain-scan reference of the slot loop.
//!
//! `run_dense` runs the one slot loop of [`Simulation::run`] with every
//! per-user phase a plain walk over the arena: while `indexed` is off, the
//! `#[cfg(test)]` hook that opens each phase in `phases.rs` and `engine.rs`
//! hands the slot to its walk here. Power is recorded eagerly, slot by slot;
//! every waiting user is decided on its own in every slot, so nobody sleeps
//! and nothing is decided by class; the queue dynamics run in every slot,
//! quiescent policy or not. None of it ships: it is what the
//! [`equivalence`] suite holds `run` to, bit for bit and event for event.
//!
//! Two walks stay in shipped code, because debug builds check the slot loop
//! against them in every run: the census (`phase_census_scan`, behind the
//! `census drifted` assertion) and the gap fold
//! ([`UserArena::fold_gaps`], behind the `stale sum` assertion and read by
//! every trace point).

#![cfg(test)]

use fedco_fl::staleness::GradientGap;

use crate::engine::{DecisionTally, Simulation};
use crate::trace::SimResult;
use crate::user::{TrainingPhase, UserArena};

pub(crate) mod equivalence;

impl Simulation {
    /// Runs the simulation with every per-user phase a plain scan of the
    /// fleet: the reference [`Simulation::run`] is held to. Results and
    /// telemetry are bit-identical between the two, and a finished
    /// simulation runs no further under either.
    pub(crate) fn run_dense(&mut self) -> SimResult {
        self.indexed = false;
        self.run()
    }

    /// Slot phase 1: application arrivals, every user asked for its own —
    /// a stateless search of the slot's row.
    pub(crate) fn phase_arrivals_scan(&mut self, slot: u64) {
        self.stats.user_visits += self.users.len() as u64;
        for i in 0..self.users.len() {
            if let Some(arrival) = self.arrivals.first_arrival_in_window(i, slot, 1) {
                self.accept_arrival(i, arrival.app, slot);
            }
        }
    }

    /// Slot phase 2 census: the shipped walk over the fleet, paying a visit
    /// per user.
    pub(crate) fn phase_census_walk(&mut self) -> (u64, usize) {
        self.stats.user_visits += self.users.len() as u64;
        self.phase_census_scan()
    }

    /// Slot phase 2: every waiting user decided on its own, ascending, found
    /// by a scan of the fleet. Never by class.
    pub(crate) fn decide_waiting_scan(
        &mut self,
        slot: u64,
        predicted: GradientGap,
        overhead: f64,
        tally: &mut DecisionTally,
    ) -> bool {
        self.stats.user_visits += self.users.len() as u64;
        for i in 0..self.users.len() {
            if self.users.is_waiting(i) {
                self.decide_user(i, slot, predicted, overhead, None, tally);
            }
        }
        false
    }

    /// Number of users that are not offline, counted.
    pub(crate) fn online_users_scan(&self) -> usize {
        (0..self.users.len())
            .filter(|&i| !self.is_offline(i))
            .count()
    }

    /// Slot phase 3: one slot of power recorded for every online user.
    /// Offline devices accrue nothing — dead phones draw no simulated power.
    pub(crate) fn phase_power_scan(&mut self) {
        self.stats.user_visits += self.users.len() as u64;
        let slot_len = self.slot_len();
        for i in 0..self.users.len() {
            if !self.is_offline(i) {
                self.profilers[i].record(self.users.power_state(i), slot_len);
            }
        }
    }

    /// Slot phase 4: every user's timers checked against the end of `slot`.
    pub(crate) fn phase_tick_scan(&mut self, slot: u64) {
        self.stats.user_visits += self.users.len() as u64;
        for i in 0..self.users.len() {
            if let Some(corunning) = self.users.tick(i, slot) {
                self.completed.push((i, corunning));
            }
        }
    }
}

impl UserArena {
    /// Whether user `i` is waiting for a scheduling decision.
    pub(crate) fn is_waiting(&self, i: usize) -> bool {
        matches!(self.phase(i), TrainingPhase::Waiting)
    }

    /// The end-of-slot timer check of user `i` for slot `slot`, as the
    /// scan runs it for every user: the application expires and the epoch
    /// completes when their deadline is `slot + 1`. Returns the co-running
    /// flag of an epoch that completed during this slot.
    pub(crate) fn tick(&mut self, i: usize, slot: u64) -> Option<bool> {
        if self.app_expires_at(i, slot + 1) {
            self.end_app(i);
        }
        let done = self.epoch_done_at(i, slot + 1);
        if done.is_some() {
            self.count_epoch(i);
        }
        done
    }
}
