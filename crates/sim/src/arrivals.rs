//! The application-arrival schedule of a run.
//!
//! The paper models application usage as a Bernoulli arrival per slot with
//! probability `p` (0.001 in the main evaluation, i.e. one app per ~1000 s
//! per user), with the application chosen uniformly from the eight
//! representative ones of Table II. The slot loop reads one slot's arrivals
//! at a time, and the offline scheduler is given oracle access to those of
//! its look-ahead window — so that window is all a run holds.
//!
//! An [`ArrivalSchedule`] is a queue of chunks, each the arrivals of a span
//! of slots in one slot-major store ([`FleetArrivals`]), of which the slot
//! loop reads a row per slot instead of asking every user whether it has an
//! arrival, and the offline planner the rows of its window once per plan.
//! The engine advances the window once per slot, pulling the chunks that
//! reach it and dropping those it has passed.
//!
//! A user's arrivals are a pure function of `(seed, user)`, so a fleet big
//! enough to be worth it is cut into contiguous runs of users, one per CPU,
//! each advanced a chunk at a time on a thread of its own
//! (`fedco-arrivals-{run}`), which transposes the chunk its model samples
//! user-major and hands it into a bounded channel beside the slot loop; the
//! loop lays the runs' chunks side by side. A smaller fleet is sampled whole
//! on the caller. The schedule is the same bytes for any cut and any chunk
//! length.
//!
//! **Which arrivals count** is decided where a slot's row is consumed, and
//! it is the one rule of the whole engine: an arrival is *ignored* — not
//! queued, not swapped in — while the user's previous application is still
//! in the foreground, and while the device is offline (a dark phone launches
//! nothing). The schedule therefore lists every generated arrival, exactly
//! once, and the engine drops the ones that find the device busy.

use std::fmt;
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::mpsc::{sync_channel, Receiver};
use std::thread::{available_parallelism, Builder, JoinHandle};

use fedco_core::experiment::SimConfig;
use fedco_device::apps::AppKind;
use fedco_world::arrival::{ArrivalEvent, ArrivalModel, ArrivalSampler, FleetArrivals};

// Users and slots are the `u32` keys of the store.
const _: () = assert!(SimConfig::MAX_SLOTS <= u32::MAX as u64);
const _: () = assert!(SimConfig::MAX_USERS <= u32::MAX as usize);

/// The fewest per-slot draws worth a run of their own: some 10 ms of
/// sampling, against which starting a thread is under 1 %. A fleet is cut
/// into no more runs than it has this many draws, so the small jobs of a
/// sweep — whose workers already fill the machine — start no thread. A run
/// hands its chunks over this many draws at a time.
const DRAWS_PER_RUN: u64 = 8 << 20;

/// The fewest slots in a chunk. A chunk costs every user of a run a stream
/// restart, an offset and a visit when the chunk is transposed — some ten
/// draws' worth — so a wide fleet, whose `DRAWS_PER_RUN` would be few slots
/// a user, gets longer chunks.
const MIN_CHUNK_SLOTS: u64 = 512;

/// The fewest chunks a horizon is cut into: the slot loop waits for every
/// run's first chunk before slot 0, so that wait is at most this share of
/// the sampling the rest overlaps.
const MIN_CHUNKS: u64 = 8;

/// Chunks a run may have sampled ahead of the slot loop.
const CHUNKS_AHEAD: usize = 2;

/// The arrivals of the slots `slots`, a row of `(user, app)` per slot.
#[derive(Debug)]
struct Chunk {
    slots: Range<u64>,
    /// The position of its first arrival in the slot-major order.
    first: usize,
    by_slot: FleetArrivals,
}

/// Where a run's chunks come from.
enum Run {
    /// Sampled by the consumer as it pulls: a fleet sampled whole on the
    /// caller, or a run whose thread the system refused.
    Local(Box<dyn ArrivalSampler>),
    /// Sampled ahead on a thread of its own (taken to raise its panic).
    Spawned(Receiver<FleetArrivals>, Option<JoinHandle<()>>),
}

impl fmt::Debug for Run {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Run::Local(_) => "Local",
            Run::Spawned(..) => "Spawned",
        })
    }
}

/// The arrivals of a run's users, held a window of chunks at a time.
#[derive(Debug)]
pub struct ArrivalSchedule {
    /// The held chunks, oldest first.
    chunks: Vec<Chunk>,
    /// The runs of users, in user order.
    runs: Vec<Run>,
    users: usize,
    chunk_slots: u64,
    /// The first slot not pulled yet, and the position of its first arrival.
    next: (u64, usize),
    total_slots: u64,
}

impl ArrivalSchedule {
    /// The schedule of a run, nothing held yet: on every CPU when the fleet
    /// is big enough — one run of users per CPU, but never more than one per
    /// `DRAWS_PER_RUN` draws, each a thread that hands over `DRAWS_PER_RUN`
    /// draws a chunk, or less to cut the horizon into `MIN_CHUNKS` — and
    /// otherwise sampled whole here, on the caller.
    ///
    /// `p` is the base per-slot rate the model shapes (constant for
    /// Bernoulli, a curve for diurnal/MMPP/flash-crowd). Arrivals that would
    /// overlap a previous one of the same user are still recorded (the
    /// engine ignores them — see the module docs). For
    /// [`ArrivalSpec::Bernoulli`](fedco_world::arrival::ArrivalSpec) the
    /// result is **bit-identical** to the engine's historical generator,
    /// which `reference_bits::bernoulli_model_matches_historical_generator`
    /// pins.
    pub(crate) fn start(
        model: &dyn ArrivalModel,
        users: usize,
        slots: u64,
        p: f64,
        seed: u64,
    ) -> Self {
        let cpus = available_parallelism().map_or(1, |n| n.get());
        let runs = cpus.min(((users as u64).saturating_mul(slots) / DRAWS_PER_RUN) as usize);
        let chunk = match runs {
            0 => slots,
            runs => (DRAWS_PER_RUN / per_run(users, runs) as u64)
                .max(MIN_CHUNK_SLOTS)
                .min(slots.div_ceil(MIN_CHUNKS)),
        };
        let mut schedule = Self::cut(model, users, slots, p, seed, runs, chunk);
        if runs == 0 {
            schedule.hold(0, slots);
        }
        schedule
    }

    /// The whole schedule at once: the feed a run reads, drained into one
    /// held store.
    pub fn from_model(
        model: &dyn ArrivalModel,
        num_users: usize,
        total_slots: u64,
        probability: f64,
        seed: u64,
    ) -> Self {
        let mut schedule = Self::start(model, num_users, total_slots, probability, seed);
        schedule.hold(0, total_slots);
        schedule
    }

    /// The schedule with the fleet cut into `runs` contiguous runs of users,
    /// each sampled `chunk_slots` at a time on a thread of its own — or, if
    /// `runs` is zero, one run the consumer samples as it pulls. Nothing is
    /// held yet. The tests that hold the schedule to be the same for any cut
    /// and chunk length come in here.
    pub(crate) fn cut(
        model: &dyn ArrivalModel,
        num_users: usize,
        total_slots: u64,
        probability: f64,
        seed: u64,
        runs: usize,
        chunk_slots: u64,
    ) -> Self {
        let (per_run, chunk_slots) = (per_run(num_users, runs), chunk_slots.max(1));
        let sampler = |run: usize| {
            let users = (run * per_run).min(num_users)..((run + 1) * per_run).min(num_users);
            model.sampler(seed, users, total_slots, probability)
        };
        let spawn = |run: usize| {
            let (send, chunks) = sync_channel(CHUNKS_AHEAD);
            let mut ahead = sampler(run);
            let sample = move || {
                // Until the horizon, or until the consumer hangs up.
                let ends =
                    (1..=total_slots.div_ceil(chunk_slots)).map(|c| c.saturating_mul(chunk_slots));
                let _ = ends
                    .map(|end| send.send(ahead.sample_to(end).transposed()))
                    .find(Result::is_err);
            };
            match Builder::new()
                .name(format!("fedco-arrivals-{run}"))
                .spawn(sample)
            {
                Ok(thread) => Run::Spawned(chunks, Some(thread)),
                Err(_) => Run::Local(sampler(run)),
            }
        };
        let runs = match runs {
            0 => vec![Run::Local(sampler(0))],
            runs => (0..num_users.div_ceil(per_run).clamp(1, runs))
                .map(spawn)
                .collect(),
        };
        ArrivalSchedule {
            chunks: Vec::new(),
            runs,
            users: num_users,
            chunk_slots,
            next: (0, 0),
            total_slots,
        }
    }

    /// Holds the arrivals of the slots `[from, to)`, pulling the chunks that
    /// reach them, and drops the chunks that end by `from`: the slot loop
    /// holds its slot, the offline planner its look-ahead window.
    pub(crate) fn hold(&mut self, from: u64, to: u64) {
        while self.next.0 < to.min(self.total_slots) {
            self.pull();
        }
        if self.chunks.first().is_some_and(|c| c.slots.end <= from) {
            let passed = self.chunks.iter().take_while(|c| c.slots.end <= from);
            self.chunks.drain(..passed.count());
        }
    }

    /// Pulls the next chunk from every run and lays them side by side.
    fn pull(&mut self) {
        let (start, first) = self.next;
        let end = start.saturating_add(self.chunk_slots).min(self.total_slots);
        let parts: Vec<_> = (self.runs.iter_mut())
            .map(|run| match run {
                Run::Local(sampler) => sampler.sample_to(end).transposed(),
                Run::Spawned(chunks, thread) => chunks.recv().unwrap_or_else(|_| {
                    // A sampler stops short of the horizon only by
                    // panicking: its panic is the consumer's, payload and all.
                    match thread.take().map(JoinHandle::join) {
                        Some(Err(panic)) => resume_unwind(panic),
                        _ => unreachable!("an arrival sampler hung up before the horizon"),
                    }
                }),
            })
            .collect();
        let by_slot = FleetArrivals::beside(parts);
        self.next = (end, first + by_slot.total());
        let slots = start..end;
        self.chunks.push(Chunk {
            slots,
            first,
            by_slot,
        });
    }

    /// The held chunk of `slot`: the front one, which the slot loop reads,
    /// or one the planner's window reaches. Chunks are `chunk_slots` long.
    fn chunk(&self, slot: u64) -> Option<&Chunk> {
        let front = self.chunks.first()?;
        let k = match slot.checked_sub(front.slots.end) {
            None => 0,
            Some(past) => 1 + past / self.chunk_slots,
        };
        self.chunks
            .get(k as usize)
            .filter(|c| c.slots.contains(&slot))
    }

    /// The positions of the arrivals of `slot`, ascending by user (none
    /// unless held); resolve each with [`at`](Self::at).
    pub fn at_slot(&self, slot: u64) -> Range<usize> {
        self.chunk(slot).map_or(0..0, |c| {
            let row = c.by_slot.row((slot - c.slots.start) as usize);
            c.first + row.start..c.first + row.end
        })
    }

    /// The `(user, application)` of the held arrival at position `at` of
    /// the slot-major order.
    pub fn at(&self, at: usize) -> (usize, AppKind) {
        let ends_by = |c: &Chunk| c.first + c.by_slot.total() <= at;
        let k = match self.chunks.first() {
            Some(front) if !ends_by(front) => 0,
            _ => self.chunks.partition_point(ends_by),
        };
        let c = &self.chunks[k];
        c.by_slot.get(at - c.first)
    }

    /// The first held arrival of every user in the half-open slot window
    /// `[from, from + window)`, indexed by user — what the offline scheduler
    /// inspects: one pass over the window's rows.
    pub fn first_arrivals_in_window(&self, from: u64, window: u64) -> Vec<Option<ArrivalEvent>> {
        let mut first = vec![None; self.users];
        for slot in from..from.saturating_add(window).min(self.next.0) {
            for at in self.at_slot(slot) {
                let (user, app) = self.at(at);
                first[user].get_or_insert(ArrivalEvent { slot, app });
            }
        }
        first
    }

    /// Number of held arrivals across all users.
    pub fn total_arrivals(&self) -> usize {
        self.chunks.iter().map(|c| c.by_slot.total()).sum()
    }
}

/// Users per run when `num_users` are cut into `runs` (one if zero). Runs
/// start at even users, so only the fleet's last user can be left without a
/// partner in the sampler's two-stream loop.
fn per_run(num_users: usize, runs: usize) -> usize {
    num_users.div_ceil(runs.max(1)).next_multiple_of(2).max(2)
}

impl Drop for ArrivalSchedule {
    /// Hangs up on each run, then waits for its thread: a sampler notices
    /// at its next chunk, so a schedule dropped early never waits for the
    /// horizon, and no sampler outlives it.
    fn drop(&mut self) {
        for run in self.runs.drain(..) {
            if let Run::Spawned(chunks, Some(thread)) = run {
                drop(chunks);
                // A sampler's panic in a chunk nobody pulled has nobody to
                // reach; its message was printed where it happened.
                let _ = thread.join();
            }
        }
    }
}

/// Both orders of what `schedule` holds of `users` users over `slots`
/// slots (and one past each), for comparing schedules built apart.
#[cfg(test)]
type Orders = (Vec<Vec<ArrivalEvent>>, Vec<Vec<(usize, AppKind)>>);

#[cfg(test)]
impl ArrivalSchedule {
    /// The first held arrival of `user` in the half-open slot window
    /// `[from, from + window)`, if any: a search of each slot's row. What
    /// the reference scan of the arrival phase asks for every user.
    pub(crate) fn first_arrival_in_window(
        &self,
        user: usize,
        from: u64,
        window: u64,
    ) -> Option<ArrivalEvent> {
        let to = from.saturating_add(window).min(self.next.0);
        (from..to).find_map(|slot| {
            let c = self.chunk(slot)?;
            let row = c.by_slot.row((slot - c.slots.start) as usize);
            let (_, app) = row.map(|at| c.by_slot.get(at)).find(|&(u, _)| u == user)?;
            Some(ArrivalEvent { slot, app })
        })
    }

    /// The held arrivals of one user, in slot order (none for a user out of
    /// range).
    pub(crate) fn of_user(&self, user: usize) -> impl Iterator<Item = ArrivalEvent> + '_ {
        let mut from = 0;
        std::iter::from_fn(move || {
            let arrival = self.first_arrival_in_window(user, from, u64::MAX)?;
            from = arrival.slot + 1;
            Some(arrival)
        })
    }
}

#[cfg(test)]
fn orders(schedule: &ArrivalSchedule, users: usize, slots: u64) -> Orders {
    let by_user = (0..=users).map(|user| schedule.of_user(user).collect());
    let row = |slot| schedule.at_slot(slot).map(|at| schedule.at(at)).collect();
    (by_user.collect(), (0..=slots).map(row).collect())
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
        assert_eq!(orders(&a, 3, 5000), orders(&b, 3, 5000));
        let c = bernoulli(3, 5000, 0.01, 10);
        assert_ne!(orders(&a, 3, 5000), orders(&c, 3, 5000));
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
            let (a, b) = (orders(&sched, 8, 10_800), orders(&again, 8, 10_800));
            assert_eq!(a, b, "{spec:?} not deterministic");
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
            assert_eq!(
                orders(&world, users, slots),
                orders(&via_spec, users, slots)
            );
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

/// The schedule is the same bytes however the fleet is cut into runs and
/// the horizon into chunks, read whole or through the window the engine
/// advances.
#[cfg(test)]
mod cut_invariance {
    use super::*;
    use fedco_world::arrival::{ArrivalSpec, Bernoulli};
    use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
    use std::sync::Arc;

    const SLOTS: u64 = 1_500;

    fn cut(model: &dyn ArrivalModel, users: usize, runs: usize, chunk: u64) -> ArrivalSchedule {
        ArrivalSchedule::cut(model, users, SLOTS, 0.01, 42, runs, chunk)
    }

    /// The eager single-run schedule: one chunk, sampled on the caller.
    fn eager(model: &dyn ArrivalModel, users: usize) -> ArrivalSchedule {
        let mut whole = cut(model, users, 0, SLOTS);
        whole.hold(0, SLOTS);
        whole
    }

    /// Every slot's row, read as the slot loop reads it: holding one slot
    /// at a time, so the chunks it has passed are dropped.
    fn streamed_rows(schedule: &mut ArrivalSchedule) -> Vec<Vec<(usize, AppKind)>> {
        (0..=SLOTS)
            .map(|slot| {
                schedule.hold(slot, slot + 1);
                let row = schedule.at_slot(slot).map(|at| schedule.at(at)).collect();
                assert!(schedule.chunks.len() <= 1, "a passed chunk is still held");
                row
            })
            .collect()
    }

    #[test]
    fn any_run_count_and_chunk_length_reads_the_eager_schedule() {
        for spec in ArrivalSpec::ALL {
            let model = spec.model();
            // 23 users: runs of 12 + 11, 8 + 8 + 7, 4 × 5 + 3.
            let single = orders(&eager(model.as_ref(), 23), 23, SLOTS);
            assert!(single.1.iter().any(|row| !row.is_empty()), "{spec:?}");
            for runs in [0, 1, 2, 3, 7] {
                for chunk in [1, 7, 512, SLOTS, 4 * SLOTS] {
                    let mut whole = cut(model.as_ref(), 23, runs, chunk);
                    whole.hold(0, SLOTS);
                    let why = format!("{spec:?} in {runs} runs of {chunk}-slot chunks");
                    assert_eq!(orders(&whole, 23, SLOTS), single, "{why}");
                    let mut streamed = cut(model.as_ref(), 23, runs, chunk);
                    assert_eq!(streamed_rows(&mut streamed), single.1, "{why}");
                }
            }
        }
    }

    #[test]
    fn look_ahead_windows_that_straddle_chunk_edges_find_the_eager_arrival() {
        for spec in ArrivalSpec::ALL {
            let model = spec.model();
            let single = eager(model.as_ref(), 9);
            for (runs, chunk) in [(0, 7), (1, 1), (2, 7), (3, 512), (7, 64)] {
                let mut streamed = cut(model.as_ref(), 9, runs, chunk);
                for from in (0..SLOTS + 3).step_by(5) {
                    // The planner's hold: its window from its slot on.
                    streamed.hold(from, from + 600);
                    for window in [1, 6, 7, 8, 64, 513, 600] {
                        let eager = |user| single.first_arrival_in_window(user, from, window);
                        for user in 0..10 {
                            assert_eq!(
                                streamed.first_arrival_in_window(user, from, window),
                                eager(user),
                                "{spec:?} {runs} runs of {chunk}: user {user} [{from}, +{window})"
                            );
                        }
                        // The planner's one pass over the same window.
                        let first = streamed.first_arrivals_in_window(from, window);
                        assert!(first.into_iter().eq((0..9).map(eager)), "{spec:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn more_runs_than_users_and_a_fleet_of_one_or_none() {
        for spec in ArrivalSpec::ALL {
            let model = spec.model();
            for users in [0, 1, 2, 5] {
                let single = orders(&eager(model.as_ref(), users), users, SLOTS);
                for runs in [2, 7, 40] {
                    let mut whole = cut(model.as_ref(), users, runs, 100);
                    whole.hold(0, SLOTS);
                    let orders = orders(&whole, users, SLOTS);
                    assert_eq!(orders, single, "{spec:?} {users} users");
                }
            }
        }
    }

    #[test]
    fn the_shipped_entries_are_the_eager_schedule() {
        // Whatever this machine's CPU count makes of them.
        let single = orders(&eager(&Bernoulli, 23), 23, SLOTS);
        let shipped = ArrivalSchedule::from_model(&Bernoulli, 23, SLOTS, 0.01, 42);
        assert_eq!(orders(&shipped, 23, SLOTS), single);
        let mut started = ArrivalSchedule::start(&Bernoulli, 23, SLOTS, 0.01, 42);
        assert_eq!(streamed_rows(&mut started), single.1);
    }

    #[test]
    fn a_run_is_the_same_through_any_feed() {
        use crate::engine::Simulation;
        use fedco_core::scenario::ScenarioSpec;
        use fedco_core::spec::PolicySpec;
        use fedco_telemetry::sink::BufferSink;
        // Offline's 500-slot look-ahead reaches across chunks; churn takes
        // devices dark mid-horizon, so some arrivals find them offline.
        let spec: ScenarioSpec = "paper-default:users=9:slots=2000:arrival_p=0.01:churn=heavy"
            .parse()
            .expect("parses");
        for policy in PolicySpec::PAPER {
            let config = spec.build_with_policy(policy.clone()).expect("builds");
            let run = |feed: Option<(usize, u64)>, indexed: bool| {
                let sink = BufferSink::shared();
                let sim = Simulation::try_new(config.clone()).expect("valid");
                let mut sim = sim.with_telemetry(sink.clone());
                if let Some((runs, chunk)) = feed {
                    let c = &config;
                    let model = c.world.arrival.model();
                    sim.arrivals = ArrivalSchedule::cut(
                        model.as_ref(),
                        c.num_users,
                        c.total_slots,
                        c.arrival_probability,
                        c.seed,
                        runs,
                        chunk,
                    );
                }
                let result = if indexed { sim.run() } else { sim.run_dense() };
                (result, sink.drain())
            };
            let eager = run(None, true);
            assert!(eager.0.total_updates > 0, "{policy}");
            for (runs, chunk) in [(0, 64), (1, 1), (2, 64), (3, 7), (7, 512)] {
                for indexed in [true, false] {
                    assert!(
                        run(Some((runs, chunk)), indexed) == eager,
                        "{policy} on {runs} runs of {chunk}-slot chunks, indexed {indexed}"
                    );
                }
            }
        }
    }

    /// Samples like Bernoulli, counting its live samplers and the chunks
    /// they sampled; a sampler holding user 9 panics with `Boom` at the
    /// first chunk that ends past slot 600.
    #[derive(Default)]
    struct Counting {
        live: Arc<AtomicUsize>,
        chunks: Arc<AtomicUsize>,
    }

    #[derive(Debug, PartialEq)]
    struct Boom(usize);

    struct Sampler {
        inner: Box<dyn ArrivalSampler>,
        explodes: bool,
        live: Arc<AtomicUsize>,
        chunks: Arc<AtomicUsize>,
    }

    impl ArrivalModel for Counting {
        fn sampler(
            &self,
            seed: u64,
            users: Range<usize>,
            total_slots: u64,
            base_p: f64,
        ) -> Box<dyn ArrivalSampler> {
            self.live.fetch_add(1, SeqCst);
            Box::new(Sampler {
                explodes: users.contains(&9),
                inner: Bernoulli.sampler(seed, users, total_slots, base_p),
                live: self.live.clone(),
                chunks: self.chunks.clone(),
            })
        }
    }

    impl ArrivalSampler for Sampler {
        fn sample_to(&mut self, end: u64) -> FleetArrivals {
            if self.explodes && end > 600 {
                panic_any(Boom(9));
            }
            self.chunks.fetch_add(1, SeqCst);
            self.inner.sample_to(end)
        }
    }

    impl Drop for Sampler {
        fn drop(&mut self) {
            self.live.fetch_sub(1, SeqCst);
        }
    }

    #[test]
    fn a_sampler_that_panics_in_a_later_chunk_panics_the_consumer_with_its_payload() {
        for runs in [0, 1, 3] {
            let model = Counting::default();
            // Runs of 4 (of 12 if none): user 9 is in the last.
            let mut schedule = cut(&model, 12, runs, 100);
            schedule.hold(0, 600);
            assert!(schedule.total_arrivals() > 0);
            let panic = catch_unwind(AssertUnwindSafe(|| schedule.hold(0, SLOTS)))
                .expect_err("the sampler's panic reaches the consumer");
            assert_eq!(panic.downcast_ref::<Boom>(), Some(&Boom(9)), "{runs} runs");
            drop(schedule);
            assert_eq!(model.live.load(SeqCst), 0, "{runs} runs");
        }
    }

    #[test]
    fn a_schedule_dropped_early_stops_its_samplers_without_sampling_the_horizon() {
        // 7 runs of 64-slot chunks over the longest horizon a run may have.
        let slots = SimConfig::MAX_SLOTS;
        for pulled in [0, 1, 5] {
            let model = Counting::default();
            let mut schedule = ArrivalSchedule::cut(&model, 14, slots, 0.01, 42, 7, 64);
            schedule.hold(0, pulled * 64);
            assert_eq!(model.live.load(SeqCst), 7);
            drop(schedule);
            assert_eq!(
                model.live.load(SeqCst),
                0,
                "a sampler outlived its schedule"
            );
            // What was pulled, what the channels hold and the chunk each
            // run was sampling when it noticed the hang-up.
            let sampled = model.chunks.load(SeqCst) as u64;
            assert!(
                sampled <= 7 * (pulled + CHUNKS_AHEAD as u64 + 1),
                "{sampled}"
            );
        }
    }
}
