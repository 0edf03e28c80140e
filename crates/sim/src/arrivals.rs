//! The application-arrival process.
//!
//! The paper models application usage as a Bernoulli arrival per slot with
//! probability `p` (0.001 in the main evaluation, i.e. one app per ~1000 s
//! per user), with the application chosen uniformly from the eight
//! representative ones of Table II. Arrivals are pre-generated for the whole
//! horizon so that the offline scheduler can be given oracle access to them.

use fedco_device::apps::AppKind;
use fedco_world::arrival::{ArrivalEvent, ArrivalModel};

/// The pre-generated arrival schedule of every user over the full horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalSchedule {
    per_user: Vec<Vec<ArrivalEvent>>,
    probability: f64,
}

impl ArrivalSchedule {
    /// Generates the schedule from a world arrival model.
    ///
    /// `probability` is the base per-slot rate the model shapes (constant
    /// for Bernoulli, a curve for diurnal/MMPP/flash-crowd). Arrivals that
    /// would overlap a previous one of the same user are still recorded (the
    /// engine ignores them — see [`ArrivalIndex`]). For
    /// [`ArrivalSpec::Bernoulli`](fedco_world::arrival::ArrivalSpec) the
    /// result is **bit-identical** to the engine's historical generator,
    /// which the `bernoulli_model_matches_historical_generator` test pins.
    pub fn from_model(
        model: &dyn ArrivalModel,
        num_users: usize,
        total_slots: u64,
        probability: f64,
        seed: u64,
    ) -> Self {
        let probability = probability.clamp(0.0, 1.0);
        let per_user = (0..num_users)
            .map(|user| model.sample_user(seed, user, total_slots, probability))
            .collect();
        ArrivalSchedule {
            per_user,
            probability,
        }
    }

    /// The configured arrival probability.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// Number of users covered by the schedule.
    pub fn num_users(&self) -> usize {
        self.per_user.len()
    }

    /// All arrivals of one user.
    pub fn arrivals_for(&self, user: usize) -> &[ArrivalEvent] {
        self.per_user.get(user).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The first arrival of `user` at or after `slot`, by binary search
    /// (per-user arrival lists are generated in increasing slot order).
    pub fn first_at_or_after(&self, user: usize, slot: u64) -> Option<ArrivalEvent> {
        let arrivals = self.arrivals_for(user);
        let idx = arrivals.partition_point(|a| a.slot < slot);
        arrivals.get(idx).copied()
    }

    /// The arrival of `user` at exactly `slot`, if any.
    ///
    /// O(log arrivals) per call; the slot loop reads an [`ArrivalIndex`]
    /// bucket instead, and its scan reference (`run_dense`) an
    /// [`ArrivalCursor`].
    pub fn arrival_at(&self, user: usize, slot: u64) -> Option<ArrivalEvent> {
        self.first_at_or_after(user, slot)
            .filter(|a| a.slot == slot)
    }

    /// The first arrival of `user` in the half-open slot window
    /// `[from, from + window)`, if any — what the offline scheduler inspects.
    pub fn first_arrival_in_window(
        &self,
        user: usize,
        from: u64,
        window: u64,
    ) -> Option<ArrivalEvent> {
        self.first_at_or_after(user, from)
            .filter(|a| a.slot < from.saturating_add(window))
    }

    /// Total number of arrivals across all users.
    pub fn total_arrivals(&self) -> usize {
        self.per_user.iter().map(Vec::len).sum()
    }
}

/// The arrivals of an [`ArrivalSchedule`] bucketed by slot: a compressed
/// sparse row index over the per-user lists (which stay, because the offline
/// planner looks ahead per user). The event-indexed slot loop reads one
/// bucket per slot instead of asking every user whether it has an arrival.
///
/// **Which arrivals count** is decided where a bucket is consumed, and it
/// is the one rule of the whole engine: an arrival is *ignored* — not
/// queued, not swapped in — while the user's previous application is still
/// in the foreground, and while the device is offline (a dark phone
/// launches nothing). The index therefore lists every generated arrival,
/// exactly once, and the engine drops the ones that find the device busy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalIndex {
    /// `offsets[s]..offsets[s + 1]` is the bucket of slot `s`.
    offsets: Vec<usize>,
    /// Arrival users, bucket by bucket, ascending within a bucket.
    users: Vec<u32>,
    /// The application of each arrival, parallel to `users`.
    apps: Vec<AppKind>,
}

impl ArrivalIndex {
    /// Buckets every arrival of `schedule` before `total_slots` by slot — a
    /// counting sort, so each bucket lists its users in ascending order.
    pub fn build(schedule: &ArrivalSchedule, total_slots: u64) -> Self {
        let slots = total_slots as usize;
        let in_horizon = |a: &&ArrivalEvent| a.slot < total_slots;
        let mut offsets = vec![0usize; slots + 1];
        for user in 0..schedule.num_users() {
            for a in schedule.arrivals_for(user).iter().filter(in_horizon) {
                offsets[a.slot as usize + 1] += 1;
            }
        }
        for s in 0..slots {
            offsets[s + 1] += offsets[s];
        }
        let total = offsets[slots];
        let mut users = vec![0u32; total];
        let mut apps = vec![AppKind::ALL[0]; total];
        let mut fill = offsets.clone();
        for user in 0..schedule.num_users() {
            for a in schedule.arrivals_for(user).iter().filter(in_horizon) {
                let at = &mut fill[a.slot as usize];
                users[*at] = user as u32;
                apps[*at] = a.app;
                *at += 1;
            }
        }
        ArrivalIndex {
            offsets,
            users,
            apps,
        }
    }

    /// Number of indexed arrivals.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether no arrival is indexed.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// The positions of the arrivals of `slot` (empty past the horizon);
    /// resolve each with [`get`](Self::get).
    pub fn bucket(&self, slot: u64) -> std::ops::Range<usize> {
        match self.offsets.get(slot as usize..slot as usize + 2) {
            Some(&[from, to]) => from..to,
            _ => 0..0,
        }
    }

    /// The `(user, application)` of the arrival at position `at`.
    pub fn get(&self, at: usize) -> (usize, AppKind) {
        (self.users[at] as usize, self.apps[at])
    }
}

/// A monotone per-user position into an [`ArrivalSchedule`].
///
/// The cursor of the scan reference `run_dense` only — the slot loop proper
/// reads an [`ArrivalIndex`] bucket per slot. A cursor remembers where the
/// previous query ended, so a forward sweep over the horizon touches each
/// arrival once — amortized O(1) per query. Queries must be non-decreasing
/// in `slot`; the cursor never rewinds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArrivalCursor {
    index: usize,
}

impl ArrivalCursor {
    /// A cursor parked before the first arrival.
    pub fn new() -> Self {
        ArrivalCursor::default()
    }

    /// The first arrival of `user` at or after `slot`, advancing the cursor
    /// past earlier arrivals. Arrivals skipped over (e.g. those that fell
    /// while an application was already running) are never revisited.
    pub fn next_at_or_after(
        &mut self,
        schedule: &ArrivalSchedule,
        user: usize,
        slot: u64,
    ) -> Option<ArrivalEvent> {
        let arrivals = schedule.arrivals_for(user);
        while let Some(a) = arrivals.get(self.index) {
            if a.slot >= slot {
                return Some(*a);
            }
            self.index += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedco_rng::Rng;
    use fedco_world::arrival::{user_rng, ArrivalSpec, Bernoulli};

    /// The engine's historical Bernoulli generator, kept as the oracle of
    /// `bernoulli_model_matches_historical_generator`.
    fn generate(
        num_users: usize,
        total_slots: u64,
        probability: f64,
        seed: u64,
    ) -> ArrivalSchedule {
        let probability = probability.clamp(0.0, 1.0);
        let per_user = (0..num_users)
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
            .collect();
        ArrivalSchedule {
            per_user,
            probability,
        }
    }

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
        assert_eq!(sched.num_users(), 20);
        assert_eq!(sched.probability(), 0.01);
    }

    #[test]
    fn zero_probability_means_no_arrivals() {
        let sched = bernoulli(5, 1000, 0.0, 1);
        assert_eq!(sched.total_arrivals(), 0);
        assert!(sched.arrival_at(0, 10).is_none());
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
        assert_ne!(a.arrivals_for(0), a.arrivals_for(1));
    }

    #[test]
    fn window_lookup_finds_first_arrival() {
        let sched = bernoulli(2, 20_000, 0.005, 3);
        let all = sched.arrivals_for(0);
        assert!(!all.is_empty());
        let first = all[0];
        assert_eq!(sched.arrival_at(0, first.slot), Some(first));
        assert_eq!(
            sched.first_arrival_in_window(0, 0, first.slot + 1),
            Some(first)
        );
        assert_eq!(sched.first_arrival_in_window(0, first.slot + 1, 0), None);
        // Out-of-range user is empty.
        assert!(sched.arrivals_for(99).is_empty());
    }

    #[test]
    fn cursor_matches_exhaustive_scan() {
        let sched = bernoulli(3, 20_000, 0.004, 11);
        for user in 0..3 {
            let mut cursor = ArrivalCursor::new();
            for slot in 0..20_000 {
                let via_cursor = cursor
                    .next_at_or_after(&sched, user, slot)
                    .filter(|a| a.slot == slot);
                assert_eq!(
                    via_cursor,
                    sched.arrival_at(user, slot),
                    "user {user} slot {slot}"
                );
            }
            assert_eq!(cursor.next_at_or_after(&sched, user, 20_000), None);
        }
    }

    #[test]
    fn cursor_skips_over_unqueried_spans() {
        let sched = bernoulli(1, 50_000, 0.002, 5);
        let all = sched.arrivals_for(0);
        assert!(all.len() >= 3, "need a few arrivals for this test");
        let mut cursor = ArrivalCursor::new();
        // Jump straight past the first two arrivals: the cursor lands on the
        // third without revisiting the skipped ones.
        let target = all[2];
        assert_eq!(
            cursor.next_at_or_after(&sched, 0, all[1].slot + 1),
            Some(target)
        );
        // A later query never rewinds.
        assert_eq!(
            cursor.next_at_or_after(&sched, 0, target.slot),
            Some(target)
        );
        // Out-of-range users are empty.
        assert_eq!(ArrivalCursor::new().next_at_or_after(&sched, 9, 0), None);
    }

    #[test]
    fn index_lists_every_arrival_once_in_slot_then_user_order() {
        for spec in ArrivalSpec::ALL {
            let (users, slots) = (70, 2_000);
            let sched = ArrivalSchedule::from_model(spec.model().as_ref(), users, slots, 0.02, 5);
            let index = ArrivalIndex::build(&sched, slots);
            assert_eq!(index.len(), sched.total_arrivals(), "{spec:?}");
            assert!(!index.is_empty());
            // Walking the buckets in slot order yields (slot, user) strictly
            // ascending, and exactly the per-user lists when regrouped.
            let mut regrouped: Vec<Vec<ArrivalEvent>> = vec![Vec::new(); users];
            let mut last = None;
            for slot in 0..slots {
                for at in index.bucket(slot) {
                    let (user, app) = index.get(at);
                    assert!(last < Some((slot, user)), "{spec:?}: order broke");
                    last = Some((slot, user));
                    regrouped[user].push(ArrivalEvent { slot, app });
                }
            }
            for (user, arrivals) in regrouped.iter().enumerate() {
                assert_eq!(arrivals, sched.arrivals_for(user), "{spec:?} user {user}");
            }
            assert!(index.bucket(slots).is_empty() && index.bucket(slots + 9).is_empty());
        }
        // Arrivals at or past the indexed horizon are left out; no arrivals
        // at all is an empty index.
        let sched = bernoulli(3, 400, 0.05, 2);
        let cut = ArrivalIndex::build(&sched, 100);
        let kept: usize = (0..3)
            .map(|u| {
                sched
                    .arrivals_for(u)
                    .iter()
                    .filter(|a| a.slot < 100)
                    .count()
            })
            .sum();
        assert_eq!(cut.len(), kept);
        assert!(ArrivalIndex::build(&bernoulli(3, 400, 0.0, 2), 400).is_empty());
    }

    #[test]
    fn first_at_or_after_is_binary_search_over_sorted_arrivals() {
        let sched = bernoulli(2, 30_000, 0.003, 9);
        let all = sched.arrivals_for(1);
        assert!(!all.is_empty());
        assert_eq!(sched.first_at_or_after(1, 0), Some(all[0]));
        assert_eq!(sched.first_at_or_after(1, all[0].slot), Some(all[0]));
        assert_eq!(
            sched.first_at_or_after(1, all[0].slot + 1).as_ref(),
            all.get(1)
        );
        assert_eq!(sched.first_at_or_after(1, 30_000), None);
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
            assert_eq!(legacy, world, "users={users} slots={slots} p={p}");
            let via_spec = ArrivalSchedule::from_model(
                ArrivalSpec::Bernoulli.model().as_ref(),
                users,
                slots,
                p,
                seed,
            );
            assert_eq!(legacy, via_spec);
        }
    }

    #[test]
    fn shaped_models_produce_sorted_per_user_streams() {
        for spec in ArrivalSpec::ALL {
            let sched = ArrivalSchedule::from_model(spec.model().as_ref(), 8, 10_800, 0.01, 7);
            for user in 0..8 {
                let arrivals = sched.arrivals_for(user);
                assert!(
                    arrivals.windows(2).all(|w| w[0].slot < w[1].slot),
                    "{spec:?} user {user} not strictly sorted"
                );
            }
            let again = ArrivalSchedule::from_model(spec.model().as_ref(), 8, 10_800, 0.01, 7);
            assert_eq!(sched, again, "{spec:?} not deterministic");
        }
    }

    #[test]
    fn probability_is_clamped() {
        let sched = bernoulli(1, 100, 5.0, 1);
        assert_eq!(sched.probability(), 1.0);
        assert_eq!(sched.arrivals_for(0).len(), 100);
    }
}
