//! Application-arrival processes.
//!
//! The paper models app usage as an i.i.d. Bernoulli arrival per slot
//! (probability 0.001 in the main evaluation). Real fleets are burstier:
//! usage follows the day, flash events synchronise users, and activity
//! alternates between calm and busy regimes. Each model hands out an
//! [`ArrivalSampler`] per run of users, which advances the run's streams a
//! chunk of slots at a time, so a consumer holds only the window of
//! arrivals it reads — the offline scheduler's oracle is its look-ahead
//! window, not the horizon. A user's arrivals are a pure function of
//! `(seed, user)`, so schedules are byte-identical across runs, drivers,
//! worker counts, however a fleet is cut into runs and however a horizon is
//! cut into chunks.
//!
//! # The draw
//!
//! Every model consumes the same per-user seeded stream ([`user_rng`]): one
//! draw per slot plus one app pick per arrival (the MMPP adds one regime draw
//! per slot), in exactly the order the engine's historical generator did, so
//! the default world reproduces pre-world schedules bit for bit. At the
//! paper's rate nearly every (user, slot) pair is a non-event, so the draw is
//! what sampling costs. A uniform `f64` is `u = x · 2⁻⁵³` for the 53-bit
//! integer `x = next_u64() >> 11`, and `u < r` holds exactly when
//! `x < ceil(r · 2⁵³)`: a rate becomes an integer `threshold` once, and the
//! one loop (`scan`) compares raw generator words against it — no float per
//! slot — advancing two users' independent streams per iteration so that one
//! generator's latency chain hides behind the other's. `scan` is compiled
//! once per model; a sampler is called through `dyn` once per chunk.
//!
//! # The store
//!
//! A chunk is a [`FleetArrivals`]: one compressed-sparse-row store in flat
//! lanes, user-major as sampled; [`FleetArrivals::transposed`] is the same
//! arrivals slot-major, the order a slot loop reads, and
//! [`FleetArrivals::beside`] lays the slot-major chunks of several runs of
//! users side by side.

use std::ops::Range;

use fedco_device::apps::AppKind;
use fedco_rng::rngs::SmallRng;
use fedco_rng::{Rng, RngCore, SeedableRng};

/// One application arrival for one user.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalEvent {
    /// The slot in which the application is opened.
    pub slot: u64,
    /// Which application it is.
    pub app: AppKind,
}

/// Every arrival of a fleet in one compressed-sparse-row store of flat
/// lanes: a row per user listing `(slot, app)` as sampled, or — after
/// [`transposed`](Self::transposed) — a row per slot listing `(user, app)`.
/// Keys ascend within a row and are `u32` (with the application, 5 bytes an
/// arrival), which is why neither a fleet nor a horizon may exceed 2³².
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetArrivals {
    /// `offsets[r]..offsets[r + 1]` are the positions of row `r`.
    offsets: Vec<usize>,
    /// The other coordinate of each arrival, row by row.
    keys: Vec<u32>,
    /// The application of each arrival, parallel to `keys`.
    apps: Vec<AppKind>,
    /// How many keys there are to have: the row count of the transpose.
    width: usize,
}

impl FleetArrivals {
    /// A store of no rows yet (`rows` to come) whose keys are below `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` keys do not fit `u32`.
    fn with_width(width: u64, rows: usize) -> Self {
        assert!(width <= 1 << 32, "{width} arrival keys do not fit u32");
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        FleetArrivals {
            offsets,
            keys: Vec::new(),
            apps: Vec::new(),
            width: width as usize,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of arrivals.
    pub fn total(&self) -> usize {
        self.keys.len()
    }

    /// The positions of the arrivals of row `r` (none past the last row);
    /// resolve each with [`get`](Self::get).
    pub fn row(&self, r: usize) -> Range<usize> {
        match self.offsets.get(r..) {
            Some(&[from, to, ..]) => from..to,
            _ => 0..0,
        }
    }

    /// The `(key, application)` of the arrival at position `at`.
    pub fn get(&self, at: usize) -> (usize, AppKind) {
        (self.keys[at] as usize, self.apps[at])
    }

    /// Row `r` of the user-major order as events.
    pub fn events(&self, r: usize) -> impl Iterator<Item = ArrivalEvent> + '_ {
        let event = |(slot, app)| ArrivalEvent {
            slot: slot as u64,
            app,
        };
        self.row(r).map(move |at| event(self.get(at)))
    }

    /// The same arrivals keyed the other way round — slot-major from
    /// user-major, and back: a counting sort, so keys still ascend within a
    /// row, and transposing twice is the identity.
    pub fn transposed(&self) -> FleetArrivals {
        let mut offsets = vec![0usize; self.width + 1];
        for &key in &self.keys {
            offsets[key as usize + 1] += 1;
        }
        for r in 0..self.width {
            offsets[r + 1] += offsets[r];
        }
        let mut fill = offsets.clone();
        let mut keys = vec![0u32; self.total()];
        let mut apps = self.apps.clone();
        for r in 0..self.rows() {
            for at in self.row(r) {
                let to = &mut fill[self.keys[at] as usize];
                keys[*to] = r as u32;
                apps[*to] = self.apps[at];
                *to += 1;
            }
        }
        FleetArrivals {
            offsets,
            keys,
            apps,
            width: self.rows(),
        }
    }

    /// The slot-major stores of consecutive runs of one fleet's users, side
    /// by side: row `r` is row `r` of every part in order, each part's keys
    /// shifted past the users of the parts before it — one part is itself.
    /// The parts share a row count.
    pub fn beside(mut parts: Vec<FleetArrivals>) -> FleetArrivals {
        if parts.len() == 1 {
            return parts.swap_remove(0);
        }
        let rows = parts.first().map_or(0, Self::rows);
        let users = parts.iter().map(|part| part.width as u64).sum();
        let mut all = FleetArrivals::with_width(users, rows);
        let total = parts.iter().map(Self::total).sum();
        all.keys.reserve_exact(total);
        all.apps.reserve_exact(total);
        for r in 0..rows {
            let mut shift = 0;
            for part in &parts {
                debug_assert_eq!(part.rows(), rows, "parts of different lengths");
                let row = part.row(r);
                all.keys
                    .extend(part.keys[row.clone()].iter().map(|user| user + shift));
                all.apps.extend_from_slice(&part.apps[row]);
                shift += part.width as u32;
            }
            all.offsets.push(all.keys.len());
        }
        all
    }
}

/// The per-user arrival stream: the exact seeding formula the engine has
/// always used, exposed so every model (and the engine's own generator)
/// shares one definition.
pub fn user_rng(seed: u64, user: usize) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ (0xA441 + user as u64).wrapping_mul(0x9E3779B97F4A7C15))
}

/// A run of users' arrival streams, advanced a chunk of slots at a time:
/// the resumable form of [`ArrivalModel::sample_fleet`]. It owns everything
/// it reads, so it can be moved to the thread that drives it.
pub trait ArrivalSampler: Send {
    /// The arrivals of the run's users from where the last call stopped
    /// (slot 0 at first) to `end` (at most the horizon), a row per user
    /// keyed by slot from that start, in increasing slot order. A user's
    /// arrivals are the same however the horizon is cut into calls.
    ///
    /// # Panics
    ///
    /// Panics if the chunk's slots do not fit the store's `u32` keys.
    fn sample_to(&mut self, end: u64) -> FleetArrivals;
}

/// A seeded application-arrival process: hands out the sampler of a run of
/// users over a horizon. `base_p` is the scenario's `arrival_p` field —
/// every model treats it as its baseline per-slot rate, so sweeping
/// `arrival_p` scales any process.
///
/// # Purity
///
/// A user's arrivals must depend on `(seed, user, total_slots, base_p)`
/// alone — never on which other users a sampler holds, on how its horizon
/// is cut into chunks, nor on the thread that drives it. The engine relies
/// on this: it cuts a large fleet into contiguous runs, advances each a
/// chunk at a time on a thread of its own, and the schedule must be the
/// same bytes for any cut.
pub trait ArrivalModel {
    /// The sampler of the users `users` (row 0 is `users.start`) over
    /// `[0, total_slots)`.
    fn sampler(
        &self,
        seed: u64,
        users: Range<usize>,
        total_slots: u64,
        base_p: f64,
    ) -> Box<dyn ArrivalSampler>;

    /// The arrivals of the users `users` over `[0, total_slots)` in one
    /// store: their sampler drained to the horizon.
    ///
    /// # Panics
    ///
    /// Panics if `total_slots` slots do not fit the store's `u32` keys.
    fn sample_fleet(
        &self,
        seed: u64,
        users: Range<usize>,
        total_slots: u64,
        base_p: f64,
    ) -> FleetArrivals {
        self.sampler(seed, users, total_slots, base_p)
            .sample_to(total_slots)
    }

    /// The arrivals of `user` over `[0, total_slots)`: its row of any fleet
    /// that contains it.
    fn sample_user(
        &self,
        seed: u64,
        user: usize,
        total_slots: u64,
        base_p: f64,
    ) -> Vec<ArrivalEvent> {
        let row = self.sample_fleet(seed, user..user + 1, total_slots, base_p);
        row.events(0).collect()
    }
}

/// What a [`threshold`] is compared against: the 53 bits `gen::<f64>()`
/// keeps of a generator word.
const DRAW_SHIFT: u32 = 11;

/// `rng.gen::<f64>() < rate` as a compare of integers: the draw is
/// `x · 2⁻⁵³` for `x = next_u64() >> DRAW_SHIFT`, scaling either side by a
/// power of two is exact, and an integer is below a real exactly when it is
/// below its ceiling — so the draw fires when `x < threshold(rate)`. The
/// cast saturates: a NaN or negative rate never fires and a rate above 1
/// always does, which is what the float compare did.
fn threshold(rate: f64) -> u64 {
    (rate * (1u64 << 53) as f64).ceil() as u64
}

/// One user's stream inside the sampling loop: its generator and the regime
/// its process is in.
#[derive(Clone)]
struct Stream {
    rng: SmallRng,
    in_burst: bool,
}

/// The one sampling loop: two users' streams advanced side by side (the
/// second stands still unless `paired`) from `slot` to the first slot in
/// which either fires — returned with who fired — or to `end`. The streams
/// are independent, so one generator's serial dependency chain overlaps the
/// other's.
///
/// Out of line and by value so that the loop holds no call and no pointer:
/// both generators then stay in registers — inlined next to the `push` of an
/// arrival, they spill, and two streams read slower than one.
#[inline(never)]
fn scan(
    [mut a, mut b]: [Stream; 2],
    paired: bool,
    mut slot: u64,
    end: u64,
    threshold: &impl Fn(u64, bool) -> u64,
    regime: &impl Fn(&mut SmallRng, bool) -> bool,
) -> ([Stream; 2], u64, [bool; 2]) {
    while slot < end {
        let fired = [
            a.rng.next_u64() >> DRAW_SHIFT < threshold(slot, a.in_burst),
            paired && b.rng.next_u64() >> DRAW_SHIFT < threshold(slot, b.in_burst),
        ];
        if fired[0] | fired[1] {
            return ([a, b], slot, fired);
        }
        a.in_burst = regime(&mut a.rng, a.in_burst);
        if paired {
            b.in_burst = regime(&mut b.rng, b.in_burst);
        }
        slot += 1;
    }
    ([a, b], slot, [false; 2])
}

/// The one sampler: its users two at a time (an odd last one alone), each
/// pair's streams where the last chunk left them. Either stream of a pair
/// is consumed exactly as the historical one-user generator consumed it:
/// per slot one draw against `threshold(slot, in_burst)`, one app pick if
/// it fires, then the process's `regime` step.
struct Curve<T, R> {
    pairs: Vec<[Stream; 2]>,
    users: usize,
    /// The first slot not sampled yet.
    slot: u64,
    total_slots: u64,
    threshold: T,
    regime: R,
}

fn curve<T, R>(
    seed: u64,
    users: Range<usize>,
    total_slots: u64,
    threshold: T,
    regime: R,
) -> Box<dyn ArrivalSampler>
where
    T: Fn(u64, bool) -> u64 + Send + 'static,
    R: Fn(&mut SmallRng, bool) -> bool + Send + 'static,
{
    let stream = |user| Stream {
        rng: user_rng(seed, user),
        in_burst: false,
    };
    Box::new(Curve {
        pairs: (users.clone().step_by(2))
            .map(|user| [stream(user), stream(user + 1)])
            .collect(),
        users: users.len(),
        slot: 0,
        total_slots,
        threshold,
        regime,
    })
}

impl<T, R> ArrivalSampler for Curve<T, R>
where
    T: Fn(u64, bool) -> u64 + Send,
    R: Fn(&mut SmallRng, bool) -> bool + Send,
{
    fn sample_to(&mut self, end: u64) -> FleetArrivals {
        let (start, end) = (self.slot, end.clamp(self.slot, self.total_slots));
        let mut chunk = FleetArrivals::with_width(end - start, self.users);
        let mut rows = [(Vec::new(), Vec::new()), (Vec::new(), Vec::new())];
        for (p, pair) in self.pairs.iter_mut().enumerate() {
            let paired = 2 * p + 1 < self.users;
            let (mut lanes, mut slot) = (pair.clone(), start);
            loop {
                let fired;
                (lanes, slot, fired) =
                    scan(lanes, paired, slot, end, &self.threshold, &self.regime);
                if slot == end {
                    break;
                }
                for ((stream, row), fired) in lanes.iter_mut().zip(&mut rows).zip(fired) {
                    if fired {
                        row.0.push((slot - start) as u32);
                        row.1
                            .push(AppKind::ALL[stream.rng.gen_range(0..AppKind::ALL.len())]);
                    }
                    // (An unpaired second stream steps too: nobody reads it.)
                    stream.in_burst = (self.regime)(&mut stream.rng, stream.in_burst);
                }
                slot += 1;
            }
            *pair = lanes;
            for (keys, apps) in &mut rows[..1 + usize::from(paired)] {
                chunk.keys.append(keys);
                chunk.apps.append(apps);
                chunk.offsets.push(chunk.keys.len());
            }
        }
        self.slot = end;
        chunk
    }
}

/// The paper's process: i.i.d. Bernoulli(`base_p`) per slot. Bit-identical
/// to the engine's historical arrival generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Bernoulli;

impl ArrivalModel for Bernoulli {
    fn sampler(
        &self,
        seed: u64,
        users: Range<usize>,
        total_slots: u64,
        base_p: f64,
    ) -> Box<dyn ArrivalSampler> {
        let fires = threshold(base_p.clamp(0.0, 1.0));
        curve(seed, users, total_slots, move |_, _| fires, |_, calm| calm)
    }
}

/// A slot-of-day rate curve: the per-slot rate follows a raised cosine with
/// mean `base_p` over one period, peaking mid-period ("evening") and
/// bottoming out at the period boundary ("night").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Diurnal {
    /// Length of one simulated day, in slots.
    pub period_slots: u64,
    /// Peak-to-mean modulation depth in `[0, 1]`: the rate swings between
    /// `base_p * (1 - depth)` and `base_p * (1 + depth)`.
    pub depth: f64,
}

impl Diurnal {
    /// The preset curve used by the `diurnal-day` scenario: the paper's
    /// 3-hour horizon is one full day, with a 90 % swing.
    pub fn day() -> Self {
        Diurnal {
            period_slots: 10_800,
            depth: 0.9,
        }
    }
}

impl ArrivalModel for Diurnal {
    fn sampler(
        &self,
        seed: u64,
        users: Range<usize>,
        total_slots: u64,
        base_p: f64,
    ) -> Box<dyn ArrivalSampler> {
        let period = self.period_slots.max(1);
        let depth = self.depth.clamp(0.0, 1.0);
        let base = base_p.clamp(0.0, 1.0);
        let fires = move |slot: u64| {
            let phase = (slot % period) as f64 / period as f64;
            threshold(base * (1.0 - depth * (std::f64::consts::TAU * phase).cos()))
        };
        // The curve is every user's: a table of one period.
        let table: Vec<u64> = (0..period.min(total_slots)).map(fires).collect();
        let period = table.len() as u64;
        let fires =
            move |slot, _| table[(if slot < period { slot } else { slot % period }) as usize];
        curve(seed, users, total_slots, fires, |_, calm| calm)
    }
}

/// A 2-state Markov-modulated Bernoulli process: activity alternates between
/// a calm regime at `base_p` and a burst regime at `burst_multiplier *
/// base_p`, with geometric sojourn times. Each user carries an independent
/// regime chain, so bursts are per-user, not fleet-synchronised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mmpp {
    /// Rate multiplier of the burst regime.
    pub burst_multiplier: f64,
    /// Per-slot probability of switching calm → burst.
    pub enter_burst_p: f64,
    /// Per-slot probability of switching burst → calm.
    pub exit_burst_p: f64,
}

impl Mmpp {
    /// The preset chain used by the `mmpp` scenario value: bursts 8× the
    /// calm rate, entered rarely and lasting ~30 slots.
    pub fn bursty() -> Self {
        Mmpp {
            burst_multiplier: 8.0,
            enter_burst_p: 0.004,
            exit_burst_p: 0.03,
        }
    }
}

impl ArrivalModel for Mmpp {
    fn sampler(
        &self,
        seed: u64,
        users: Range<usize>,
        total_slots: u64,
        base_p: f64,
    ) -> Box<dyn ArrivalSampler> {
        let base = base_p.clamp(0.0, 1.0);
        let calm = threshold(base);
        let burst = threshold((base * self.burst_multiplier).clamp(0.0, 1.0));
        let (enter, exit) = (threshold(self.enter_burst_p), threshold(self.exit_burst_p));
        let fires = move |_, in_burst| if in_burst { burst } else { calm };
        // One regime draw per slot keeps the chain independent of how many
        // arrivals fired.
        let regime = move |rng: &mut SmallRng, in_burst: bool| {
            let flip = rng.next_u64() >> DRAW_SHIFT;
            if in_burst {
                flip >= exit
            } else {
                flip < enter
            }
        };
        curve(seed, users, total_slots, fires, regime)
    }
}

/// A fleet-synchronised flash crowd: every user's rate jumps to
/// `multiplier * base_p` inside one shared mid-horizon window (a viral
/// event, a scheduled broadcast) and is `base_p` elsewhere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// Window start as a fraction of the horizon.
    pub start_frac: f64,
    /// Window width as a fraction of the horizon.
    pub width_frac: f64,
    /// Rate multiplier inside the window.
    pub multiplier: f64,
}

impl FlashCrowd {
    /// The preset spike used by the `flash-crowd` scenario: 25× the base
    /// rate over the 5 % of the horizon starting at its midpoint.
    pub fn spike() -> Self {
        FlashCrowd {
            start_frac: 0.5,
            width_frac: 0.05,
            multiplier: 25.0,
        }
    }
}

impl ArrivalModel for FlashCrowd {
    fn sampler(
        &self,
        seed: u64,
        users: Range<usize>,
        total_slots: u64,
        base_p: f64,
    ) -> Box<dyn ArrivalSampler> {
        let base = base_p.clamp(0.0, 1.0);
        let start = (total_slots as f64 * self.start_frac.clamp(0.0, 1.0)) as u64;
        let end = start.saturating_add((total_slots as f64 * self.width_frac.max(0.0)) as u64);
        let spiked = threshold((base * self.multiplier).clamp(0.0, 1.0));
        let base = threshold(base);
        let fires = move |slot, _| [base, spiked][usize::from((start..end).contains(&slot))];
        curve(seed, users, total_slots, fires, |_, calm| calm)
    }
}

fedco_device::choices! {
    /// The declarative arrival-process choice of a scenario (`arrival=`
    /// field). Each value names one preset-parameterised model; the
    /// scenario's `arrival_p` field stays the baseline rate of all of them.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum ArrivalSpec: "arrival model" {
        /// `bernoulli` — the paper's process (the default).
        #[default]
        Bernoulli = "bernoulli",
        /// `diurnal` — [`Diurnal::day`].
        Diurnal = "diurnal",
        /// `mmpp` — [`Mmpp::bursty`].
        Mmpp = "mmpp",
        /// `flash-crowd` (or `flash`) — [`FlashCrowd::spike`].
        FlashCrowd = "flash-crowd" | "flash",
    }
}

impl ArrivalSpec {
    /// The preset-parameterised model behind the spec value.
    pub fn model(&self) -> Box<dyn ArrivalModel> {
        match self {
            ArrivalSpec::Bernoulli => Box::new(Bernoulli),
            ArrivalSpec::Diurnal => Box::new(Diurnal::day()),
            ArrivalSpec::Mmpp => Box::new(Mmpp::bursty()),
            ArrivalSpec::FlashCrowd => Box::new(FlashCrowd::spike()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(events: &[Vec<ArrivalEvent>]) -> usize {
        events.iter().map(Vec::len).sum()
    }

    fn sample_fleet(
        spec: ArrivalSpec,
        users: usize,
        slots: u64,
        p: f64,
        seed: u64,
    ) -> Vec<Vec<ArrivalEvent>> {
        let model = spec.model();
        (0..users)
            .map(|u| model.sample_user(seed, u, slots, p))
            .collect()
    }

    #[test]
    fn every_model_is_deterministic_and_sorted() {
        for spec in ArrivalSpec::ALL {
            let a = sample_fleet(spec, 5, 4000, 0.01, 9);
            let b = sample_fleet(spec, 5, 4000, 0.01, 9);
            assert_eq!(a, b, "{spec:?}");
            let c = sample_fleet(spec, 5, 4000, 0.01, 10);
            assert_ne!(a, c, "{spec:?} ignores the seed");
            for user in &a {
                assert!(
                    user.windows(2).all(|w| w[0].slot < w[1].slot),
                    "{spec:?} arrivals out of order"
                );
            }
        }
    }

    #[test]
    fn mean_rates_track_base_p() {
        // Diurnal and flash-crowd redistribute mass over the horizon;
        // their totals stay within a factor of the Bernoulli baseline.
        let users = 20;
        let slots = 10_800;
        let p = 0.005;
        let bernoulli = total(&sample_fleet(ArrivalSpec::Bernoulli, users, slots, p, 7)) as f64;
        for spec in [
            ArrivalSpec::Diurnal,
            ArrivalSpec::Mmpp,
            ArrivalSpec::FlashCrowd,
        ] {
            let t = total(&sample_fleet(spec, users, slots, p, 7)) as f64;
            assert!(
                t > bernoulli * 0.5 && t < bernoulli * 4.0,
                "{spec:?}: {t} vs bernoulli {bernoulli}"
            );
        }
    }

    #[test]
    fn flash_crowd_concentrates_mass_in_its_window() {
        let slots = 10_000u64;
        let fleet = sample_fleet(ArrivalSpec::FlashCrowd, 10, slots, 0.002, 3);
        let window = 5000..5500u64;
        let inside: usize = fleet
            .iter()
            .flatten()
            .filter(|a| window.contains(&a.slot))
            .count();
        let outside = total(&fleet) - inside;
        // 5 % of the horizon at 25× the rate carries more arrivals than the
        // whole remaining 95 %.
        assert!(inside > outside, "inside {inside} outside {outside}");
    }

    #[test]
    fn diurnal_peaks_mid_period() {
        let fleet = sample_fleet(ArrivalSpec::Diurnal, 20, 10_800, 0.01, 11);
        let peak: usize = fleet
            .iter()
            .flatten()
            .filter(|a| (4000..7000).contains(&a.slot))
            .count();
        let trough: usize = fleet
            .iter()
            .flatten()
            .filter(|a| a.slot < 1500 || a.slot >= 9300)
            .count();
        assert!(peak > trough * 2, "peak {peak} trough {trough}");
    }

    #[test]
    fn mmpp_is_burstier_than_bernoulli() {
        // Dispersion test: the variance/mean ratio of per-window counts is
        // ~1 for Bernoulli and greater for the modulated process.
        fn dispersion(fleet: &[Vec<ArrivalEvent>], slots: u64) -> f64 {
            let window = 100u64;
            let mut counts = Vec::new();
            for user in fleet {
                let mut per = vec![0f64; (slots / window) as usize];
                for a in user {
                    let w = (a.slot / window) as usize;
                    if w < per.len() {
                        per[w] += 1.0;
                    }
                }
                counts.extend(per);
            }
            let n = counts.len() as f64;
            let mean = counts.iter().copied().fold(0.0, |a, b| a + b) / n;
            let var = counts
                .iter()
                .map(|c| (c - mean) * (c - mean))
                .fold(0.0, |a, b| a + b)
                / n;
            var / mean.max(1e-12)
        }
        let slots = 20_000;
        let calm = dispersion(
            &sample_fleet(ArrivalSpec::Bernoulli, 10, slots, 0.01, 5),
            slots,
        );
        let bursty = dispersion(&sample_fleet(ArrivalSpec::Mmpp, 10, slots, 0.01, 5), slots);
        assert!(bursty > calm * 1.5, "mmpp {bursty} vs bernoulli {calm}");
    }

    #[test]
    fn labels_round_trip_and_reject_unknowns() {
        for spec in ArrivalSpec::ALL {
            assert_eq!(spec.label().parse(), Ok(spec));
        }
        assert_eq!(" MMPP ".parse(), Ok(ArrivalSpec::Mmpp));
        assert_eq!("flash".parse(), Ok(ArrivalSpec::FlashCrowd));
        let err = "poisson".parse::<ArrivalSpec>().unwrap_err().to_string();
        assert!(err.contains("poisson"), "{err}");
        assert!(err.contains("bernoulli"), "{err}");
        assert_eq!(ArrivalSpec::default(), ArrivalSpec::Bernoulli);
    }

    #[test]
    fn out_of_range_rates_are_clamped() {
        let fleet = sample_fleet(ArrivalSpec::Bernoulli, 1, 50, 7.0, 1);
        assert_eq!(fleet[0].len(), 50);
        let none = sample_fleet(ArrivalSpec::FlashCrowd, 1, 50, 0.0, 1);
        assert_eq!(total(&none), 0);
    }
}

/// The sampler and the store against what they replaced: the per-user,
/// float-compare-per-slot loops this module used to be, kept here as the
/// oracle.
#[cfg(test)]
mod reference_bits {
    use super::*;

    /// The old shared loop: one `f64` draw per slot against a clamped rate.
    fn sample_rate_curve(
        seed: u64,
        user: usize,
        total_slots: u64,
        mut rate_at: impl FnMut(u64) -> f64,
    ) -> Vec<ArrivalEvent> {
        let mut rng = user_rng(seed, user);
        let mut events = Vec::new();
        for slot in 0..total_slots {
            if rng.gen::<f64>() < rate_at(slot).clamp(0.0, 1.0) {
                let app = AppKind::ALL[rng.gen_range(0..AppKind::ALL.len())];
                events.push(ArrivalEvent { slot, app });
            }
        }
        events
    }

    /// The old `sample_user` bodies of the four models.
    fn reference_user(
        model: Model,
        seed: u64,
        user: usize,
        total_slots: u64,
        base_p: f64,
    ) -> Vec<ArrivalEvent> {
        let base = base_p.clamp(0.0, 1.0);
        match model {
            Model::Bernoulli => sample_rate_curve(seed, user, total_slots, |_| base),
            Model::Diurnal(d) => {
                let period = d.period_slots.max(1) as f64;
                let depth = d.depth.clamp(0.0, 1.0);
                sample_rate_curve(seed, user, total_slots, |slot| {
                    let phase = (slot % d.period_slots.max(1)) as f64 / period;
                    base * (1.0 - depth * (std::f64::consts::TAU * phase).cos())
                })
            }
            Model::Mmpp(m) => {
                let burst = (base * m.burst_multiplier).clamp(0.0, 1.0);
                let mut rng = user_rng(seed, user);
                let mut events = Vec::new();
                let mut in_burst = false;
                for slot in 0..total_slots {
                    let rate = if in_burst { burst } else { base };
                    if rng.gen::<f64>() < rate {
                        let app = AppKind::ALL[rng.gen_range(0..AppKind::ALL.len())];
                        events.push(ArrivalEvent { slot, app });
                    }
                    let flip = rng.gen::<f64>();
                    if in_burst {
                        if flip < m.exit_burst_p {
                            in_burst = false;
                        }
                    } else if flip < m.enter_burst_p {
                        in_burst = true;
                    }
                }
                events
            }
            Model::FlashCrowd(f) => {
                let start = (total_slots as f64 * f.start_frac.clamp(0.0, 1.0)) as u64;
                let end = start.saturating_add((total_slots as f64 * f.width_frac.max(0.0)) as u64);
                let spiked = (base * f.multiplier).clamp(0.0, 1.0);
                sample_rate_curve(seed, user, total_slots, |slot| {
                    if (start..end).contains(&slot) {
                        spiked
                    } else {
                        base
                    }
                })
            }
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Model {
        Bernoulli,
        Diurnal(Diurnal),
        Mmpp(Mmpp),
        FlashCrowd(FlashCrowd),
    }

    impl Model {
        /// The four presets behind [`ArrivalSpec`], then shapes they leave
        /// out: a diurnal period shorter than the horizon (the table wraps)
        /// and of zero slots, a chain whose probabilities are out of range.
        fn all() -> Vec<Model> {
            let diurnal = |period_slots| {
                Model::Diurnal(Diurnal {
                    period_slots,
                    depth: 0.9,
                })
            };
            vec![
                Model::Bernoulli,
                Model::Diurnal(Diurnal::day()),
                Model::Mmpp(Mmpp::bursty()),
                Model::FlashCrowd(FlashCrowd::spike()),
                diurnal(97),
                diurnal(0),
                Model::Mmpp(Mmpp {
                    burst_multiplier: 40.0,
                    enter_burst_p: 1.5,
                    exit_burst_p: f64::NAN,
                }),
            ]
        }

        fn model(&self) -> Box<dyn ArrivalModel> {
            match *self {
                Model::Bernoulli => Box::new(Bernoulli),
                Model::Diurnal(d) => Box::new(d),
                Model::Mmpp(m) => Box::new(m),
                Model::FlashCrowd(f) => Box::new(f),
            }
        }
    }

    const SEEDS: [u64; 3] = [0, 7, 42];
    const SLOTS: u64 = 300;

    fn rates() -> [f64; 9] {
        let ulp = 1.0 / (1u64 << 53) as f64;
        [0.0, 1e-300, ulp, 0.001, 0.5, 1.0, 7.0, -1.0, f64::NAN]
    }

    fn row_events(fleet: &FleetArrivals, r: usize) -> Vec<ArrivalEvent> {
        fleet.events(r).collect()
    }

    #[test]
    fn presets_are_the_specs_models() {
        // `Model::all` starts with what `ArrivalSpec::model` hands out.
        for (spec, model) in ArrivalSpec::ALL.into_iter().zip(Model::all()) {
            let (by_spec, by_model) = (spec.model(), model.model());
            let sample = |m: &dyn ArrivalModel| m.sample_fleet(5, 0..4, 2_000, 0.01);
            assert_eq!(sample(by_spec.as_ref()), sample(by_model.as_ref()));
        }
    }

    #[test]
    fn fleet_sampler_matches_the_float_loops_event_for_event() {
        for model in Model::all() {
            let sampler = model.model();
            for seed in SEEDS {
                for p in rates() {
                    // Odd sizes leave an unpaired last user; a fleet from an
                    // odd user pairs (1, 2), (3, 4), … instead.
                    for users in [0..0, 0..1, 0..2, 0..3, 0..64, 0..65, 7..12] {
                        let fleet = sampler.sample_fleet(seed, users.clone(), SLOTS, p);
                        assert_eq!(fleet.rows(), users.len());
                        let mut total = 0;
                        for (r, user) in users.enumerate() {
                            let expected = reference_user(model, seed, user, SLOTS, p);
                            total += expected.len();
                            assert_eq!(
                                row_events(&fleet, r),
                                expected,
                                "{model:?} seed {seed} p {p} user {user}"
                            );
                        }
                        assert_eq!(fleet.total(), total);
                    }
                }
            }
        }
    }

    #[test]
    fn sample_user_is_its_row_of_the_fleet() {
        for model in Model::all() {
            let sampler = model.model();
            let fleet = sampler.sample_fleet(42, 0..9, 4_000, 0.01);
            for user in 0..9 {
                let alone = sampler.sample_user(42, user, 4_000, 0.01);
                assert!(!alone.is_empty(), "{model:?} user {user}");
                assert_eq!(alone, row_events(&fleet, user), "{model:?} user {user}");
                assert_eq!(alone, reference_user(model, 42, user, 4_000, 0.01));
            }
        }
    }

    #[test]
    fn threshold_is_the_float_compare_on_either_side_of_the_rate() {
        let draws = 1u64 << 53;
        for rate in rates()
            .into_iter()
            .chain([0.25, 1.0 - 1e-16, 1e300, f64::INFINITY])
        {
            let fires_below = threshold(rate);
            let around = fires_below.saturating_sub(2)..=fires_below.saturating_add(2);
            for x in around.chain([0, 1, draws - 1]).filter(|&x| x < draws) {
                // `x` is what `next_u64() >> 11` yields; this is `gen::<f64>()`.
                let u = x as f64 * (1.0 / draws as f64);
                assert_eq!(x < fires_below, u < rate, "rate {rate} draw {x}");
                assert_eq!(u < rate, u < rate.clamp(0.0, 1.0), "rate {rate} draw {x}");
            }
        }
        assert_eq!(threshold(f64::NAN), 0);
        assert_eq!(threshold(-1.0), 0);
        assert_eq!(threshold(1.0), draws);
    }

    #[test]
    fn transpose_lists_every_arrival_once_in_slot_then_user_order() {
        for spec in ArrivalSpec::ALL {
            let (users, slots) = (70, 2_000);
            let by_user = spec.model().sample_fleet(5, 0..users, slots, 0.02);
            let by_slot = by_user.transposed();
            assert_eq!(by_slot.rows(), slots as usize);
            assert_eq!(by_slot.total(), by_user.total());
            // Walking the slot rows yields (slot, user) strictly ascending,
            // and exactly the user rows when regrouped.
            let mut regrouped = vec![Vec::new(); users];
            let mut last = None;
            for slot in 0..by_slot.rows() {
                for (user, app) in by_slot.row(slot).map(|at| by_slot.get(at)) {
                    assert!(last < Some((slot, user)), "{spec:?}: order broke");
                    last = Some((slot, user));
                    regrouped[user].push(ArrivalEvent {
                        slot: slot as u64,
                        app,
                    });
                }
            }
            for (user, arrivals) in regrouped.iter().enumerate() {
                assert_eq!(
                    arrivals,
                    &row_events(&by_user, user),
                    "{spec:?} user {user}"
                );
            }
            assert_eq!(by_slot.transposed(), by_user, "{spec:?}: not an involution");
            assert!(by_slot.row(slots as usize).is_empty());
            assert!(by_user.row(users + 9).is_empty());
        }
        let none = Bernoulli.sample_fleet(2, 0..3, 400, 0.0);
        assert_eq!((none.total(), none.transposed().total()), (0, 0));
        assert_eq!(none.transposed().transposed(), none);
        let nobody = Bernoulli.sample_fleet(2, 0..0, 400, 0.5);
        assert_eq!(nobody.transposed().rows(), 400);
        assert_eq!(nobody.transposed().transposed(), nobody);
    }

    /// The user-major rows of `chunks` (keys from each chunk's start) laid
    /// end to end, as events.
    fn joined(chunks: &[(u64, FleetArrivals)], users: usize) -> Vec<Vec<ArrivalEvent>> {
        (0..users)
            .map(|user| {
                let rows = chunks.iter().map(|(start, chunk)| {
                    chunk.events(user).map(move |a| ArrivalEvent {
                        slot: start + a.slot,
                        app: a.app,
                    })
                });
                rows.flatten().collect()
            })
            .collect()
    }

    #[test]
    fn a_horizon_sampled_in_chunks_is_the_horizon_sampled_at_once() {
        for model in Model::all() {
            let model = model.model();
            let whole = model.sample_fleet(7, 0..11, 3_000, 0.01);
            let whole: Vec<_> = (0..11).map(|user| row_events(&whole, user)).collect();
            for ends in [
                vec![3_000],
                vec![1, 2, 9, 1_500, 2_999, 3_000],
                vec![512, 5_000],
            ] {
                let mut sampler = model.sampler(7, 0..11, 3_000, 0.01);
                let mut start = 0;
                let chunks: Vec<_> = (ends.iter())
                    .map(|&end| {
                        let chunk = (start, sampler.sample_to(end));
                        start = end.min(3_000);
                        chunk
                    })
                    .collect();
                assert_eq!(joined(&chunks, 11), whole, "chunk ends {ends:?}");
                // Past the horizon there is nothing left, in no slot.
                assert_eq!(sampler.sample_to(u64::MAX).rows(), 11);
                assert_eq!(sampler.sample_to(u64::MAX).total(), 0);
            }
        }
    }

    #[test]
    fn runs_transposed_apart_and_laid_side_by_side_are_the_fleet_transposed() {
        for spec in ArrivalSpec::ALL {
            let model = spec.model();
            let whole = model.sample_fleet(7, 0..11, 3_000, 0.01).transposed();
            for cuts in [vec![0, 11], vec![0, 4, 11], vec![0, 1, 1, 6, 11]] {
                let runs: Vec<_> = (cuts.windows(2))
                    .map(|w| model.sample_fleet(7, w[0]..w[1], 3_000, 0.01).transposed())
                    .collect();
                assert_eq!(FleetArrivals::beside(runs), whole, "{spec:?} {cuts:?}");
            }
        }
        assert_eq!(FleetArrivals::beside(Vec::new()).rows(), 0);
    }

    /// ROADMAP item 6's horizon-prefix relation, at the arrival layer: a
    /// user's draws do not depend on the horizon, so the first `T` slots of a
    /// `2T` horizon are the `T` horizon — except under a flash crowd, whose
    /// window is a fraction of the horizon.
    #[test]
    fn a_horizon_is_the_prefix_of_a_longer_one_except_for_the_flash_crowd() {
        let (users, short) = (9, 2_000);
        for model in Model::all() {
            let sample = |slots| model.model().sample_fleet(11, 0..users, slots, 0.01);
            let (whole, half) = (sample(2 * short), sample(short));
            let prefix = (0..users).all(|user| {
                let head = whole.events(user).take_while(|a| a.slot < short);
                head.eq(half.events(user))
            });
            assert_eq!(
                prefix,
                !matches!(model, Model::FlashCrowd(_)),
                "{model:?}: horizon prefix"
            );
        }
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn a_horizon_past_the_key_lane_is_refused() {
        let _ = Bernoulli.sample_fleet(1, 0..0, (1 << 32) + 1, 0.0);
    }
}
