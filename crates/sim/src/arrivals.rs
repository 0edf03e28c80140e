//! The application-arrival schedule of a run.
//!
//! The paper models application usage as a Bernoulli arrival per slot with
//! probability `p` (0.001 in the main evaluation, i.e. one app per ~1000 s
//! per user), with the application chosen uniformly from the eight
//! representative ones of Table II. Arrivals are pre-generated for the whole
//! horizon so that the offline scheduler can be given oracle access to them.
//!
//! An [`ArrivalSchedule`] is one store in two orders
//! ([`FleetArrivals`]): user-major, as the world's model samples it and as
//! the offline planner looks ahead per user, and its slot-major transpose,
//! which the slot loop reads a row of per slot instead of asking every user
//! whether it has an arrival. A user's arrivals are a pure function of
//! `(seed, user)`, so [`ArrivalSchedule::from_model`] cuts a fleet big
//! enough to be worth it into contiguous runs of users, samples the runs on
//! as many threads as the machine has CPUs and appends them in user order;
//! the schedule is the same bytes for any cut, one run included.
//!
//! **Which arrivals count** is decided where a slot's row is consumed, and
//! it is the one rule of the whole engine: an arrival is *ignored* — not
//! queued, not swapped in — while the user's previous application is still
//! in the foreground, and while the device is offline (a dark phone launches
//! nothing). The schedule therefore lists every generated arrival, exactly
//! once, and the engine drops the ones that find the device busy.

use std::ops::Range;
use std::panic::resume_unwind;
use std::thread::{available_parallelism, scope};

use fedco_core::experiment::SimConfig;
use fedco_device::apps::AppKind;
use fedco_world::arrival::{ArrivalEvent, ArrivalModel, FleetArrivals};

// Users and slots are the `u32` keys of the store.
const _: () = assert!(SimConfig::MAX_SLOTS <= u32::MAX as u64);
const _: () = assert!(SimConfig::MAX_USERS <= u32::MAX as usize);

/// The fewest per-slot draws worth a run of their own: some 10 ms of
/// sampling, against which starting a thread is under 1 %. A fleet is cut
/// into no more runs than it has this many draws, so the small jobs of a
/// sweep — whose workers already fill the machine — start no thread.
const DRAWS_PER_RUN: u64 = 8 << 20;

/// The pre-generated arrival schedule of every user over the full horizon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalSchedule {
    /// A row of `(slot, app)` per user.
    by_user: FleetArrivals,
    /// The same arrivals, a row of `(user, app)` per slot.
    by_slot: FleetArrivals,
}

impl ArrivalSchedule {
    /// Generates the schedule from a world arrival model, on every CPU when
    /// the fleet is big enough: one run of users per CPU, but never more than
    /// one per `DRAWS_PER_RUN` draws.
    ///
    /// `probability` is the base per-slot rate the model shapes (constant
    /// for Bernoulli, a curve for diurnal/MMPP/flash-crowd). Arrivals that
    /// would overlap a previous one of the same user are still recorded (the
    /// engine ignores them — see the module docs). For
    /// [`ArrivalSpec::Bernoulli`](fedco_world::arrival::ArrivalSpec) the
    /// result is **bit-identical** to the engine's historical generator,
    /// which `reference_bits::bernoulli_model_matches_historical_generator`
    /// pins.
    pub fn from_model(
        model: &dyn ArrivalModel,
        num_users: usize,
        total_slots: u64,
        probability: f64,
        seed: u64,
    ) -> Self {
        let cpus = available_parallelism().map_or(1, |n| n.get());
        let draws = (num_users as u64).saturating_mul(total_slots);
        let runs = cpus.min((draws / DRAWS_PER_RUN) as usize);
        Self::from_model_cut(model, num_users, total_slots, probability, seed, runs)
    }

    /// [`from_model`](Self::from_model) with the fleet cut into `runs`
    /// contiguous runs of users (one if zero), each sampled on a thread of
    /// its own but the first, which the caller samples. The tests that hold
    /// the schedule to be the same for any cut come in here.
    pub(crate) fn from_model_cut(
        model: &dyn ArrivalModel,
        num_users: usize,
        total_slots: u64,
        probability: f64,
        seed: u64,
        runs: usize,
    ) -> Self {
        // Runs start at even users, so only the fleet's last user can be
        // left without a partner in the sampler's two-stream loop.
        let per_run = num_users.div_ceil(runs.max(1)).next_multiple_of(2);
        let sample = |run: usize| {
            let users = (run * per_run).min(num_users)..((run + 1) * per_run).min(num_users);
            model.sample_fleet(seed, users, total_slots, probability)
        };
        let by_user = FleetArrivals::concat(scope(|threads| {
            let spawned: Vec<_> = (1..runs)
                .map(|run| threads.spawn(move || sample(run)))
                .collect();
            // A sampler's panic is the caller's, payload and all.
            let joined = spawned
                .into_iter()
                .map(|run| run.join().unwrap_or_else(|panic| resume_unwind(panic)));
            std::iter::once(sample(0)).chain(joined).collect::<Vec<_>>()
        }));
        ArrivalSchedule {
            by_slot: by_user.transposed(),
            by_user,
        }
    }

    /// All arrivals of one user, in slot order (none for a user out of
    /// range).
    pub fn of_user(&self, user: usize) -> impl Iterator<Item = ArrivalEvent> + '_ {
        self.by_user.events(user)
    }

    /// The positions of the arrivals of `slot`, ascending by user (none past
    /// the horizon); resolve each with [`at`](Self::at).
    pub fn at_slot(&self, slot: u64) -> Range<usize> {
        self.by_slot.row(slot as usize)
    }

    /// The `(user, application)` of the arrival at position `at` of the
    /// slot-major order.
    pub fn at(&self, at: usize) -> (usize, AppKind) {
        self.by_slot.get(at)
    }

    /// The first arrival of `user` in the half-open slot window
    /// `[from, from + window)`, if any — what the offline scheduler
    /// inspects: a binary search of the user's row.
    pub fn first_arrival_in_window(
        &self,
        user: usize,
        from: u64,
        window: u64,
    ) -> Option<ArrivalEvent> {
        let before = |&slot: &u32| u64::from(slot) < from;
        let next = self.by_user.keys(user).partition_point(before);
        self.of_user(user)
            .nth(next)
            .filter(|a| a.slot < from.saturating_add(window))
    }

    /// Total number of arrivals across all users.
    pub fn total_arrivals(&self) -> usize {
        self.by_user.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedco_world::arrival::{ArrivalSpec, Bernoulli};

    fn bernoulli(num_users: usize, total_slots: u64, p: f64, seed: u64) -> ArrivalSchedule {
        ArrivalSchedule::from_model(&Bernoulli, num_users, total_slots, p, seed)
    }

    #[test]
    fn arrival_rate_is_close_to_probability() {
        let sched = bernoulli(20, 10_000, 0.01, 7);
        let total = sched.total_arrivals() as f64;
        let expected = 20.0 * 10_000.0 * 0.01;
        assert!(
            (total - expected).abs() / expected < 0.15,
            "total {total}, expected {expected}"
        );
    }

    #[test]
    fn zero_probability_means_no_arrivals() {
        let sched = bernoulli(5, 1000, 0.0, 1);
        assert_eq!(sched.total_arrivals(), 0);
        assert!(sched.at_slot(10).is_empty());
        assert!(sched.first_arrival_in_window(0, 0, 1000).is_none());
    }

    #[test]
    fn schedule_is_deterministic_per_seed_and_differs_across_users() {
        let a = bernoulli(3, 5000, 0.01, 9);
        let b = bernoulli(3, 5000, 0.01, 9);
        assert_eq!(a, b);
        let c = bernoulli(3, 5000, 0.01, 10);
        assert_ne!(a, c);
        // Different users see different arrival patterns.
        assert!(a.of_user(0).ne(a.of_user(1)));
    }

    #[test]
    fn window_lookup_is_the_first_arrival_of_a_linear_scan() {
        for spec in ArrivalSpec::ALL {
            let sched = ArrivalSchedule::from_model(spec.model().as_ref(), 3, 4_000, 0.01, 3);
            for user in 0..3 {
                let all: Vec<ArrivalEvent> = sched.of_user(user).collect();
                assert!(
                    all.len() >= 3,
                    "{spec:?}: need a few arrivals for this test"
                );
                for from in (0..4_100).step_by(7).chain(all.iter().map(|a| a.slot)) {
                    for window in [0, 1, 2, 50, 4_000, u64::MAX] {
                        let scanned = all
                            .iter()
                            .find(|a| a.slot >= from && a.slot - from < window)
                            .copied();
                        assert_eq!(
                            sched.first_arrival_in_window(user, from, window),
                            scanned,
                            "{spec:?} user {user} from {from} window {window}"
                        );
                    }
                }
            }
            // An out-of-range user is empty, as is a slot past the horizon.
            assert_eq!(sched.of_user(99).count(), 0);
            assert!(sched.first_arrival_in_window(99, 0, u64::MAX).is_none());
            assert!(sched.at_slot(4_000).is_empty() && sched.at_slot(u64::MAX).is_empty());
        }
    }

    #[test]
    fn shaped_models_produce_sorted_per_user_streams() {
        for spec in ArrivalSpec::ALL {
            let sched = ArrivalSchedule::from_model(spec.model().as_ref(), 8, 10_800, 0.01, 7);
            for user in 0..8 {
                let slots: Vec<u64> = sched.of_user(user).map(|a| a.slot).collect();
                assert!(
                    slots.windows(2).all(|w| w[0] < w[1]),
                    "{spec:?} user {user} not strictly sorted"
                );
            }
            let again = ArrivalSchedule::from_model(spec.model().as_ref(), 8, 10_800, 0.01, 7);
            assert_eq!(sched, again, "{spec:?} not deterministic");
        }
    }

    #[test]
    fn an_out_of_range_rate_is_the_models_to_clamp() {
        let sched = bernoulli(1, 100, 5.0, 1);
        assert_eq!(sched.of_user(0).count(), 100);
    }
}

/// The schedule against what it replaced: per-user lists filled by a float
/// draw per slot, and a slot index copied out of them.
#[cfg(test)]
mod reference_bits {
    use super::*;
    use fedco_rng::Rng;
    use fedco_world::arrival::{user_rng, ArrivalSpec, Bernoulli};

    /// The engine's historical Bernoulli generator.
    fn generate(
        num_users: usize,
        total_slots: u64,
        probability: f64,
        seed: u64,
    ) -> Vec<Vec<ArrivalEvent>> {
        let probability = probability.clamp(0.0, 1.0);
        (0..num_users)
            .map(|user| {
                let mut rng = user_rng(seed, user);
                let mut events = Vec::new();
                for slot in 0..total_slots {
                    if rng.gen::<f64>() < probability {
                        let app = AppKind::ALL[rng.gen_range(0..AppKind::ALL.len())];
                        events.push(ArrivalEvent { slot, app });
                    }
                }
                events
            })
            .collect()
    }

    /// The old slot index: every arrival of the per-user lists bucketed by
    /// slot with a counting sort — `(offsets, users, apps)`.
    fn index(per_user: &[Vec<ArrivalEvent>], slots: usize) -> (Vec<usize>, Vec<u32>, Vec<AppKind>) {
        let mut offsets = vec![0usize; slots + 1];
        for a in per_user.iter().flatten() {
            offsets[a.slot as usize + 1] += 1;
        }
        for s in 0..slots {
            offsets[s + 1] += offsets[s];
        }
        let mut users = vec![0u32; offsets[slots]];
        let mut apps = vec![AppKind::ALL[0]; offsets[slots]];
        let mut fill = offsets.clone();
        for (user, arrivals) in per_user.iter().enumerate() {
            for a in arrivals {
                let at = &mut fill[a.slot as usize];
                users[*at] = user as u32;
                apps[*at] = a.app;
                *at += 1;
            }
        }
        (offsets, users, apps)
    }

    fn assert_schedule_is(sched: &ArrivalSchedule, per_user: &[Vec<ArrivalEvent>], slots: u64) {
        assert_eq!(sched.of_user(per_user.len()).count(), 0);
        assert_eq!(
            sched.total_arrivals(),
            per_user.iter().map(Vec::len).sum::<usize>()
        );
        for (user, arrivals) in per_user.iter().enumerate() {
            assert!(
                sched.of_user(user).eq(arrivals.iter().copied()),
                "user {user}"
            );
        }
        let (offsets, users, apps) = index(per_user, slots as usize);
        for slot in 0..slots {
            let row = sched.at_slot(slot);
            assert_eq!(row, offsets[slot as usize]..offsets[slot as usize + 1]);
            for at in row {
                assert_eq!(sched.at(at), (users[at] as usize, apps[at]), "slot {slot}");
            }
        }
    }

    #[test]
    fn bernoulli_model_matches_historical_generator() {
        // The world crate's Bernoulli model must replay the engine's
        // historical arrival stream bit-for-bit: this is the contract that
        // keeps `paper-default` runs byte-identical under `fedco-world`.
        for (users, slots, p, seed) in [
            (25, 10_800, 0.001, 42),
            (6, 1200, 0.005, 42),
            (3, 5000, 0.25, 9),
            (2, 300, 0.0, 1),
            (2, 300, 1.0, 1),
        ] {
            let legacy = generate(users, slots, p, seed);
            let world = ArrivalSchedule::from_model(&Bernoulli, users, slots, p, seed);
            assert_schedule_is(&world, &legacy, slots);
            let via_spec = ArrivalSchedule::from_model(
                ArrivalSpec::Bernoulli.model().as_ref(),
                users,
                slots,
                p,
                seed,
            );
            assert_eq!(world, via_spec);
        }
    }

    #[test]
    fn both_orders_are_the_per_user_lists_and_the_index_over_them() {
        for spec in ArrivalSpec::ALL {
            let (users, slots) = (70, 2_000);
            let model = spec.model();
            let per_user: Vec<Vec<ArrivalEvent>> = (0..users)
                .map(|user| model.sample_user(5, user, slots, 0.02))
                .collect();
            let sched = ArrivalSchedule::from_model(model.as_ref(), users, slots, 0.02, 5);
            assert!(sched.total_arrivals() > 0, "{spec:?}");
            assert_schedule_is(&sched, &per_user, slots);
        }
    }
}

/// The schedule is the same bytes however the fleet is cut into runs.
#[cfg(test)]
mod cut_invariance {
    use super::*;
    use fedco_world::arrival::ArrivalSpec;

    fn cut(spec: ArrivalSpec, users: usize, runs: usize) -> ArrivalSchedule {
        ArrivalSchedule::from_model_cut(spec.model().as_ref(), users, 1_500, 0.01, 42, runs)
    }

    #[test]
    fn any_run_count_builds_the_single_run_schedule() {
        for spec in ArrivalSpec::ALL {
            // 23 users: runs of 12 + 11, 8 + 8 + 7, 4 × 5 + 3 + two empty.
            let single = cut(spec, 23, 1);
            assert!(single.total_arrivals() > 0);
            for runs in [0, 2, 3, 7] {
                assert_eq!(cut(spec, 23, runs), single, "{spec:?} in {runs} runs");
            }
        }
    }

    #[test]
    fn more_runs_than_users_and_a_fleet_of_one_or_none() {
        for spec in ArrivalSpec::ALL {
            for users in [0, 1, 2, 5] {
                let single = cut(spec, users, 1);
                for runs in [2, 7, 40] {
                    assert_eq!(cut(spec, users, runs), single, "{spec:?} {users} users");
                }
            }
        }
    }

    #[test]
    fn the_shipped_entry_is_the_single_run_schedule() {
        // Whatever this machine's CPU count makes of it.
        let model = ArrivalSpec::Bernoulli.model();
        let shipped = ArrivalSchedule::from_model(model.as_ref(), 23, 1_500, 0.01, 42);
        assert_eq!(shipped, cut(ArrivalSpec::Bernoulli, 23, 1));
    }

    /// Samples like Bernoulli, except that a run holding user 9 panics.
    struct Exploding;

    impl ArrivalModel for Exploding {
        fn sample_fleet(
            &self,
            seed: u64,
            users: Range<usize>,
            total_slots: u64,
            base_p: f64,
        ) -> FleetArrivals {
            assert!(!users.contains(&9), "user 9 cannot be sampled");
            fedco_world::arrival::Bernoulli.sample_fleet(seed, users, total_slots, base_p)
        }
    }

    #[test]
    #[should_panic(expected = "user 9 cannot be sampled")]
    fn a_panic_inside_a_spawned_run_is_raised_on_the_caller() {
        // Runs of 4: user 9 is in the third, on a thread of its own.
        let _ = ArrivalSchedule::from_model_cut(&Exploding, 12, 200, 0.01, 1, 3);
    }

    #[test]
    #[should_panic(expected = "user 9 cannot be sampled")]
    fn a_panic_inside_the_callers_run_waits_for_the_others() {
        let _ = ArrivalSchedule::from_model_cut(&Exploding, 24, 200, 0.01, 1, 2);
    }
}
