//! The per-user slot phases of the engine, as plain loops over the arena.
//!
//! These are the embarrassingly per-user parts of a slot — application
//! arrivals, the phase census, power accounting, timer ticks, and the bulk
//! span application — each touching only user `i`'s lanes of the
//! struct-of-arrays state ([`UserArena`](crate::user::UserArena)), its
//! energy profiler, its pending power span and its arrival cursor.
//! Everything that touches shared state (policy decisions, the parameter
//! server, queue dynamics, telemetry, every cross-user floating-point
//! reduction) lives in [`engine`](crate::engine), in ascending user order.

use fedco_device::energy::{Joules, Seconds};
use fedco_device::power::PowerState;
use fedco_device::profiler::{EnergyComponent, EnergyProfiler};

use crate::engine::Simulation;
use crate::user::TrainingPhase;

/// Flushes one user's pending power span (`state` for `*slots` slots) into
/// its profiler. A no-op when nothing is pending.
fn flush(profiler: &mut EnergyProfiler, state: PowerState, slots: &mut u64, slot_len: Seconds) {
    if *slots > 0 {
        profiler.record_span_lean(state, slot_len, *slots);
        *slots = 0;
    }
}

/// Appends `slots` slots of `state` to one user's pending span, flushing
/// first if the state changed.
fn pend(
    profiler: &mut EnergyProfiler,
    pending_state: &mut PowerState,
    pending_slots: &mut u64,
    state: PowerState,
    slots: u64,
    slot_len: Seconds,
) {
    if *pending_slots > 0 && *pending_state == state {
        *pending_slots += slots;
    } else {
        flush(profiler, *pending_state, pending_slots, slot_len);
        *pending_state = state;
        *pending_slots = slots;
    }
}

// The phase loops bind the lanes they stream to local slices first: through
// `&mut self` every store would force the `Vec` headers (and `event_mode`,
// the slot length) to be reloaded on the next iteration.
impl Simulation {
    /// Duration of one slot.
    pub(crate) fn slot_len(&self) -> Seconds {
        Seconds(self.config.slot_seconds)
    }

    /// Flushes user `i`'s pending power span into its profiler. A no-op in
    /// dense mode (nothing ever pends) and whenever nothing is pending.
    ///
    /// Flushing *before* any other energy lands in the profiler keeps each
    /// user's accumulation stream in exactly the dense order, so deferral
    /// never changes the floating-point result.
    pub(crate) fn flush_pending(&mut self, i: usize) {
        let slot_len = self.slot_len();
        flush(
            &mut self.profilers[i],
            self.pending_state[i],
            &mut self.pending_slots[i],
            slot_len,
        );
    }

    /// Flushes every user's pending span (before trace snapshots and at the
    /// end of a run).
    pub(crate) fn flush_all_pending(&mut self) {
        for i in 0..self.users.len() {
            self.flush_pending(i);
        }
    }

    /// Slot phase 1: application arrivals (ignored while another app runs,
    /// and while the device is offline — a dark phone launches nothing).
    /// The per-user cursor makes arrivals O(1) amortized instead of a rescan
    /// of the user's whole arrival vector every slot.
    pub(crate) fn phase_arrivals(&mut self, slot: u64) {
        let (arrivals, clock) = (&self.arrivals, &self.clock);
        let users = &mut self.users;
        for (i, cursor) in self.arrival_cursors.iter_mut().enumerate() {
            if users.app_running(i) || matches!(users.phase[i], TrainingPhase::Offline) {
                continue;
            }
            let arrival = cursor
                .next_at_or_after(arrivals, i, slot)
                .filter(|a| a.slot == slot);
            if let Some(arrival) = arrival {
                let duration = users.profile(i).corun_time(arrival.app).value();
                users.start_app(i, arrival.app, clock.slots_for(duration));
            }
        }
    }

    /// Slot phase 2 census: `(training_now, waiting_now)` of the fleet.
    pub(crate) fn phase_census(&self) -> (u64, usize) {
        let (mut training, mut waiting) = (0u64, 0usize);
        for phase in self.users.phase.iter() {
            match phase {
                TrainingPhase::Training { .. } => training += 1,
                TrainingPhase::Waiting => waiting += 1,
                TrainingPhase::RoundBarrier | TrainingPhase::Offline => {}
            }
        }
        (training, waiting)
    }

    /// Slot phase 3: per-user power accounting (deferred pending spans in
    /// event mode, eager recording in dense mode). Offline devices accrue
    /// nothing — dead phones draw no simulated power — identically in both
    /// modes.
    pub(crate) fn phase_power(&mut self) {
        let (slot_len, event_mode) = (self.slot_len(), self.event_mode);
        let users = &self.users;
        let profilers = &mut self.profilers[..];
        let pending_state = &mut self.pending_state[..];
        let pending_slots = &mut self.pending_slots[..];
        for i in 0..users.len() {
            if matches!(users.phase[i], TrainingPhase::Offline) {
                continue;
            }
            let state = users.power_state(i);
            if event_mode {
                pend(
                    &mut profilers[i],
                    &mut pending_state[i],
                    &mut pending_slots[i],
                    state,
                    1,
                    slot_len,
                );
            } else {
                profilers[i].record(state, slot_len);
            }
        }
    }

    /// Slot phase 4: advance app and training timers; returns the users
    /// (ascending) whose epoch completed this slot, with their co-running
    /// flag.
    pub(crate) fn phase_tick(&mut self) -> Vec<(usize, bool)> {
        let users = &mut self.users;
        let mut completed = Vec::new();
        for i in 0..users.len() {
            let corunning = matches!(
                users.phase[i],
                TrainingPhase::Training {
                    corunning: true,
                    ..
                }
            );
            if users.tick(i) {
                completed.push((i, corunning));
            }
        }
        completed
    }

    /// The per-user body of a bulk span application: power accounting
    /// segment by segment (with in-span app starts/expiries for non-waiting
    /// users), per-slot decision-overhead replay for waiting users when the
    /// policy charges it, and timer/counter bookkeeping — exactly `n` dense
    /// ticks' worth, by repeated addition.
    pub(crate) fn span_users(
        &mut self,
        cur: u64,
        n: u64,
        replay_overhead: bool,
        overhead_fraction: f64,
    ) {
        let end = cur + n;
        let slot_len = self.slot_len();
        let (arrivals, clock) = (&self.arrivals, &self.clock);
        let users = &mut self.users;
        let cursors = &mut self.arrival_cursors[..];
        let profilers = &mut self.profilers[..];
        let pending_state = &mut self.pending_state[..];
        let pending_slots = &mut self.pending_slots[..];
        for i in 0..users.len() {
            if matches!(users.phase[i], TrainingPhase::Offline) {
                // Offline devices are inert for the whole span: no power,
                // no timers, no gap — exactly what `n` dense slots do. The
                // world check that could bring them back bounds the span.
                continue;
            }
            let (profiler, p_state, p_slots) = (
                &mut profilers[i],
                &mut pending_state[i],
                &mut pending_slots[i],
            );
            if matches!(users.phase[i], TrainingPhase::Waiting) && replay_overhead {
                // The dense loop charges this user's decision overhead
                // every slot (flush, extra, then the slot's power), so the
                // span must interleave the same per-user profiler stream —
                // never batch the extras as one `n ×` multiply. The app
                // status is frozen in-span (certified by `skip_horizon`),
                // so the power state and overhead are constant.
                let profile = users.profile(i);
                let extra =
                    (profile.decision_power_w - profile.idle_power_w).max(0.0) * overhead_fraction;
                let state = users.power_state(i);
                for _ in 0..n {
                    flush(profiler, *p_state, p_slots, slot_len);
                    profiler.record_extra(EnergyComponent::Idle, Joules(extra * slot_len.value()));
                    pend(profiler, p_state, p_slots, state, 1, slot_len);
                }
                if users.app_remaining_slots[i] > 0 {
                    // `n` never exceeds the app's remaining slots (the
                    // expiry bounds the horizon), so this is the plain
                    // timer decrement the segmented loop below would do.
                    users.app_remaining_slots[i] -= n;
                    if users.app_remaining_slots[i] == 0 {
                        users.current_app[i] = None;
                    }
                }
                users.cold.waiting_slots[i] += n;
                users.current_wait_slots[i] += n;
                users.gap_idle_slots(i, n);
                continue;
            }
            // Power accounting, segment by segment, into the pending span
            // (so a long uniform stretch across many spans and event slots
            // flushes as one batched accrual). Waiting users never
            // transition inside a span (their arrivals and expiries end
            // it), so their single segment falls out of the same loop.
            let mut t = cur;
            while t < end {
                if users.app_running(i) {
                    let seg = (end - t).min(users.app_remaining_slots[i]);
                    pend(
                        profiler,
                        p_state,
                        p_slots,
                        users.power_state(i),
                        seg,
                        slot_len,
                    );
                    users.app_remaining_slots[i] -= seg;
                    if users.app_remaining_slots[i] == 0 {
                        users.current_app[i] = None;
                    }
                    t += seg;
                } else {
                    match cursors[i].next_at_or_after(arrivals, i, t) {
                        Some(a) if a.slot < end => {
                            if a.slot > t {
                                let state = users.power_state(i);
                                pend(profiler, p_state, p_slots, state, a.slot - t, slot_len);
                                t = a.slot;
                            }
                            let duration = users.profile(i).corun_time(a.app).value();
                            users.start_app(i, a.app, clock.slots_for(duration));
                        }
                        _ => {
                            let state = users.power_state(i);
                            pend(profiler, p_state, p_slots, state, end - t, slot_len);
                            t = end;
                        }
                    }
                }
            }
            // Timers and counters, exactly as `n` dense ticks would.
            match &mut users.phase[i] {
                TrainingPhase::Training {
                    remaining_slots, ..
                } => {
                    debug_assert!(*remaining_slots > n, "completion inside a span");
                    *remaining_slots -= n;
                }
                TrainingPhase::Waiting => {
                    users.cold.waiting_slots[i] += n;
                    users.current_wait_slots[i] += n;
                    users.gap_idle_slots(i, n);
                }
                TrainingPhase::RoundBarrier | TrainingPhase::Offline => {}
            }
        }
    }
}
