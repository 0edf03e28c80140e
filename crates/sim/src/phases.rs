//! The per-user phases of a slot — application arrivals, the phase census,
//! power accounting, timer expiry — driven from the event indices, touching
//! only the users to whom something happens:
//!
//! * arrivals come from the slot's row of the schedule's slot-major order
//!   ([`ArrivalSchedule::at_slot`](crate::arrivals::ArrivalSchedule::at_slot));
//! * expiring applications, completing epochs and waking sleepers come from
//!   the slot's bucket of the [`Calendar`](crate::index::Calendar), live
//!   entries only, ascending by user — the order a scan of the fleet reports
//!   completions in;
//! * the census is read off the counts the arena keeps at every phase
//!   transition;
//! * power is kept per user as *state `power_state[i]` since slot
//!   `power_since[i]`*, and a profiler is written only when that state
//!   changes or something else is charged to the user.
//!
//! Each phase has a reference: a plain walk over every user of the arena,
//! recording power eagerly slot by slot. The references are test code of
//! this crate (the `scan` module, behind `#[cfg(test)]`), where the
//! equivalence suite holds the slot loop to their bits; the census walk
//! ships, because debug builds check the maintained counts against it.
//!
//! # Why the indexed loop is bit-identical
//!
//! Every floating-point accumulator of a run belongs to exactly one user
//! (its profiler, its gap) except the policy's queues, which the engine
//! feeds from fixed-order folds it still computes over the whole fleet. So
//! the only thing that could move a bit is the sequence of operations *one*
//! user's accumulators see, and the indexed loop keeps that sequence:
//!
//! * A user's open power span is closed when the user's power state
//!   differs at the next slot that accrues (`settle_power`, comparing
//!   against the state that was accruing, so an application that expires
//!   and is re-opened in the same kind merges), before any extra energy
//!   lands (`flush_pending`), at trace and telemetry samples, at world
//!   checks that read battery drain, and at the end of the run. A closed
//!   span lands as `slots` additions of one slot's energy to each
//!   accumulator (`record_span`), made in closed form by
//!   [`repeated_add`](fedco_device::energy::repeated_add) — the bits of the
//!   scan's per-slot `record`s, in the same order, at the cost of the
//!   binades the accumulator crosses rather than of the span's length.
//! * Gaps grow by one `+ ε` addition per idle slot in the scan. In the
//!   indexed loop an asleep user owes its idle slots and lands them as one
//!   [`repeated_add`](fedco_device::energy::repeated_add) — the bits of the
//!   single additions — at its wake and before the gap lane is read; the
//!   [`user`](crate::user) module states the invariants.

use fedco_device::apps::AppKind;
use fedco_device::energy::{Joules, Seconds};

use crate::engine::Simulation;
use crate::index::Deadline;
use crate::user::TrainingPhase;

/// `power_since` of a user that accrues nothing (an offline device, and
/// every user of the reference scans, which record eagerly): no boundary
/// lies past it, so flushing sees an empty span.
pub(crate) const NOT_ACCRUING: u64 = u64::MAX;

impl Simulation {
    /// Duration of one slot.
    pub(crate) fn slot_len(&self) -> Seconds {
        Seconds(self.config.scheduler.slot_seconds)
    }

    pub(crate) fn is_offline(&self, i: usize) -> bool {
        matches!(self.users.phase(i), TrainingPhase::Offline)
    }

    /// The one arrival rule (see the [`arrivals`](crate::arrivals) module):
    /// `app` opens on user `i` at `slot` unless an application is already in
    /// the foreground or the device is offline.
    pub(crate) fn accept_arrival(&mut self, i: usize, app: AppKind, slot: u64) {
        if self.users.app_running(i) || self.is_offline(i) {
            return;
        }
        // Its class changes: a class sleeper wakes in the old one.
        if self.users.in_class_sleep(i) {
            self.wake(i, slot);
        }
        let duration = self.users.profile(i).corun_time(app).value();
        let until = self
            .users
            .start_app(i, app, slot, self.clock.slots_for(duration));
        self.file_deadline(i, until, Deadline::AppExpiry);
    }

    /// Files the deadline user `i` just acquired in the calendar, and marks
    /// the user for the next power settlement.
    pub(crate) fn file_deadline(&mut self, i: usize, until: u64, what: Deadline) {
        #[cfg(test)]
        if !self.indexed {
            return;
        }
        self.calendar.push(until, i, what);
        self.dirty.push(i as u32);
    }

    /// The energy one decision costs user `i` (Table III), given the
    /// policy's overhead fraction.
    pub(crate) fn decision_overhead(&self, i: usize, overhead_fraction: f64) -> Joules {
        let profile = self.users.profile(i);
        let extra = (profile.decision_power_w - profile.idle_power_w).max(0.0) * overhead_fraction;
        Joules(extra * self.slot_len().value())
    }

    /// The census as a walk over the fleet: `(training_now, waiting_now)`.
    /// Debug builds hold the maintained counts to it in every slot.
    pub(crate) fn phase_census_scan(&self) -> (u64, usize) {
        let (mut training, mut waiting) = (0u64, 0usize);
        for i in 0..self.users.len() {
            match self.users.phase(i) {
                TrainingPhase::Training { .. } => training += 1,
                TrainingPhase::Waiting => waiting += 1,
                TrainingPhase::RoundBarrier | TrainingPhase::Offline => {}
            }
        }
        (training, waiting)
    }

    // ----------------------------------------------------------------
    // The phases as the slot loop calls them. In test builds each opens
    // with a hook that hands the slot to its reference scan (`scan`
    // module) while the test-only `run_dense` drives the loop.
    // ----------------------------------------------------------------

    /// Slot phase 1: application arrivals of `slot`, the slot the schedule
    /// holds from now on.
    pub(crate) fn phase_arrivals(&mut self, slot: u64) {
        self.arrivals.hold(slot, slot + 1);
        #[cfg(test)]
        if !self.indexed {
            return self.phase_arrivals_scan(slot);
        }
        let row = self.arrivals.at_slot(slot);
        self.stats.user_visits += row.len() as u64;
        for at in row {
            let (i, app) = self.arrivals.at(at);
            self.accept_arrival(i, app, slot);
        }
    }

    /// Slot phase 2 census: `(training_now, waiting_now)` of the fleet, as
    /// the arena counts them.
    pub(crate) fn phase_census(&mut self) -> (u64, usize) {
        #[cfg(test)]
        if !self.indexed {
            return self.phase_census_walk();
        }
        let counted = (self.users.training_count(), self.users.waiting_count());
        debug_assert_eq!(counted, self.phase_census_scan(), "census drifted");
        counted
    }

    /// Number of users that are not offline (the participants of a
    /// synchronous round).
    pub(crate) fn online_users(&self) -> usize {
        #[cfg(test)]
        if !self.indexed {
            return self.online_users_scan();
        }
        self.users.online_count()
    }

    /// Slot phase 3: power accounting of `slot`.
    pub(crate) fn phase_power(&mut self, slot: u64) {
        #[cfg(test)]
        if !self.indexed {
            return self.phase_power_scan();
        }
        self.settle_power(slot);
        self.accrued_to = slot + 1;
    }

    /// Slot phase 4: applications that leave and epochs that complete at the
    /// end of `slot`. Completed users land in `self.completed`, ascending,
    /// with their co-running flag.
    pub(crate) fn phase_tick(&mut self, slot: u64) {
        #[cfg(test)]
        if !self.indexed {
            return self.phase_tick_scan(slot);
        }
        self.fire_deadlines(slot + 1);
    }

    // ----------------------------------------------------------------
    // Indexed machinery.
    // ----------------------------------------------------------------

    /// Brings the power accounting of every user whose phase or application
    /// changed since the last accrual up to `boundary`: a user now in a
    /// different power state has its open span closed there and accrues in
    /// the new state from `boundary` on.
    fn settle_power(&mut self, boundary: u64) {
        self.accrued_to = boundary;
        let mut dirty = std::mem::take(&mut self.dirty);
        self.stats.user_visits += dirty.len() as u64;
        for i in dirty.drain(..).map(|i| i as usize) {
            // A device that went dark closed its own span on the way out.
            if self.is_offline(i) {
                continue;
            }
            let state = self.users.power_state(i);
            if state != self.power_state[i] || self.power_since[i] == NOT_ACCRUING {
                self.flush_to(i, boundary);
                self.power_state[i] = state;
                self.power_since[i] = boundary;
            }
        }
        self.dirty = dirty;
    }

    /// Records user `i`'s open power span up to slot boundary `to` into its
    /// profiler. A no-op when the span is empty or the user accrues nothing.
    ///
    /// A class sleeper's span opened when it fell asleep, and it owes every
    /// slot of it a decision's overhead where the slot loop charges one: the
    /// scan charges it in the slot's decisions, after the slots before
    /// accrued and before the slot's own energy. So its span lands as
    /// charge-then-slot turns: every slot before `to` has accrued, hence
    /// been decided, and a charge owed for slot `to` or later lands with
    /// that slot's energy.
    fn flush_to(&mut self, i: usize, to: u64) {
        let slots = to.saturating_sub(self.power_since[i]);
        if slots > 0 {
            let owes = self.owed_overhead > 0.0 && self.users.in_class_sleep(i);
            let overhead = owes.then(|| self.decision_overhead(i, self.owed_overhead));
            let (state, slot_len) = (self.power_state[i], self.slot_len());
            self.profilers[i].record_decided_span(state, slot_len, slots, overhead);
            self.power_since[i] = to;
        }
    }

    /// Lands user `i`'s open power span in its profiler (a no-op for a user
    /// that accrues nothing).
    ///
    /// Flushing *before* any other energy lands in the profiler keeps each
    /// user's accumulation stream in exactly the scan's order, so deferral
    /// never changes the floating-point result.
    pub(crate) fn flush_pending(&mut self, i: usize) {
        self.flush_to(i, self.accrued_to);
    }

    /// Flushes every user's open span (before trace snapshots and at the
    /// end of a run).
    pub(crate) fn flush_all_pending(&mut self) {
        #[cfg(test)]
        if !self.indexed {
            return;
        }
        self.stats.user_visits += self.users.len() as u64;
        for i in 0..self.users.len() {
            self.flush_pending(i);
        }
    }

    /// User `i` stops accruing power (its device went dark).
    pub(crate) fn stop_accruing(&mut self, i: usize) {
        self.flush_pending(i);
        self.power_since[i] = NOT_ACCRUING;
    }

    /// Marks user `i` for the next [`settle_power`](Self::settle_power).
    pub(crate) fn mark_dirty(&mut self, i: usize) {
        #[cfg(test)]
        if !self.indexed {
            return;
        }
        self.dirty.push(i as u32);
    }

    /// Fires the live calendar entries of `until`: applications whose last
    /// slot was `until - 1` leave the foreground, epochs complete into
    /// `self.completed` (ascending by user), and sleepers due at `until`
    /// wake with the idle slots they owe before it applied.
    fn fire_deadlines(&mut self, until: u64) {
        let users = &self.users;
        let due = self.calendar.take_due(until, |d| match d.what {
            Deadline::AppExpiry => users.app_expires_at(d.user as usize, until),
            Deadline::EpochDone => users.epoch_done_at(d.user as usize, until).is_some(),
            Deadline::Wake => users.wakes_at(d.user as usize, until),
        });
        self.stats.user_visits += due.len() as u64;
        for d in due {
            let i = d.user as usize;
            match d.what {
                Deadline::AppExpiry => {
                    if self.users.in_class_sleep(i) {
                        self.wake(i, until);
                    }
                    self.users.end_app(i);
                }
                Deadline::EpochDone => {
                    if let Some(corunning) = self.users.epoch_done_at(i, until) {
                        self.users.count_epoch(i);
                        self.completed.push((i, corunning));
                    }
                }
                // Its power state is what it was: nothing to settle.
                Deadline::Wake => {
                    self.users.wake(i, until);
                    continue;
                }
            }
            self.dirty.push(d.user);
        }
    }
}
