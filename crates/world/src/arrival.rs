//! Application-arrival processes.
//!
//! The paper models app usage as an i.i.d. Bernoulli arrival per slot
//! (probability 0.001 in the main evaluation). Real fleets are burstier:
//! usage follows the day, flash events synchronise users, and activity
//! alternates between calm and busy regimes. Each model here pre-generates a
//! per-user arrival list for the whole horizon — the same oracle interface
//! the offline scheduler already relies on — as a pure function of
//! `(seed, user)`, so schedules are byte-identical across runs, drivers
//! and worker counts.
//!
//! All models draw from the same per-user seeded stream
//! ([`user_rng`]), one `f64` per slot plus one app pick per arrival (the
//! MMPP adds one regime draw per slot). [`Bernoulli`] consumes that stream
//! in exactly the order the engine's historical generator did, so the
//! default world reproduces pre-world schedules bit for bit.

use fedco_device::apps::AppKind;
use fedco_rng::rngs::SmallRng;
use fedco_rng::{Rng, SeedableRng};

/// One application arrival for one user.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalEvent {
    /// The slot in which the application is opened.
    pub slot: u64,
    /// Which application it is.
    pub app: AppKind,
}

/// The per-user arrival stream: the exact seeding formula the engine has
/// always used, exposed so every model (and the engine's own generator)
/// shares one definition.
pub fn user_rng(seed: u64, user: usize) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ (0xA441 + user as u64).wrapping_mul(0x9E3779B97F4A7C15))
}

/// A seeded application-arrival process: generates one user's arrivals over
/// the whole horizon. `base_p` is the scenario's `arrival_p` field — every
/// model treats it as its baseline per-slot rate, so sweeping `arrival_p`
/// scales any process.
pub trait ArrivalModel {
    /// The arrivals of `user` over `[0, total_slots)`, in increasing slot
    /// order. Must be a pure function of the arguments.
    fn sample_user(
        &self,
        seed: u64,
        user: usize,
        total_slots: u64,
        base_p: f64,
    ) -> Vec<ArrivalEvent>;
}

/// Shared per-slot sampling loop: one uniform draw per slot against a
/// slot-dependent rate, one app pick per arrival — the exact stream shape of
/// the historical generator, so any rate curve that is constant at `base_p`
/// is bit-identical to it.
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

/// The paper's process: i.i.d. Bernoulli(`base_p`) per slot. Bit-identical
/// to the engine's historical arrival generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Bernoulli;

impl ArrivalModel for Bernoulli {
    fn sample_user(
        &self,
        seed: u64,
        user: usize,
        total_slots: u64,
        base_p: f64,
    ) -> Vec<ArrivalEvent> {
        let p = base_p.clamp(0.0, 1.0);
        sample_rate_curve(seed, user, total_slots, |_| p)
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
    fn sample_user(
        &self,
        seed: u64,
        user: usize,
        total_slots: u64,
        base_p: f64,
    ) -> Vec<ArrivalEvent> {
        let period = self.period_slots.max(1) as f64;
        let depth = self.depth.clamp(0.0, 1.0);
        let base = base_p.clamp(0.0, 1.0);
        sample_rate_curve(seed, user, total_slots, |slot| {
            let phase = (slot % self.period_slots.max(1)) as f64 / period;
            base * (1.0 - depth * (std::f64::consts::TAU * phase).cos())
        })
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
    fn sample_user(
        &self,
        seed: u64,
        user: usize,
        total_slots: u64,
        base_p: f64,
    ) -> Vec<ArrivalEvent> {
        let base = base_p.clamp(0.0, 1.0);
        let burst = (base * self.burst_multiplier).clamp(0.0, 1.0);
        let mut rng = user_rng(seed, user);
        let mut events = Vec::new();
        let mut in_burst = false;
        for slot in 0..total_slots {
            let rate = if in_burst { burst } else { base };
            if rng.gen::<f64>() < rate {
                let app = AppKind::ALL[rng.gen_range(0..AppKind::ALL.len())];
                events.push(ArrivalEvent { slot, app });
            }
            // One regime draw per slot keeps the chain independent of how
            // many arrivals fired.
            let flip = rng.gen::<f64>();
            if in_burst {
                if flip < self.exit_burst_p {
                    in_burst = false;
                }
            } else if flip < self.enter_burst_p {
                in_burst = true;
            }
        }
        events
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
    fn sample_user(
        &self,
        seed: u64,
        user: usize,
        total_slots: u64,
        base_p: f64,
    ) -> Vec<ArrivalEvent> {
        let base = base_p.clamp(0.0, 1.0);
        let start = (total_slots as f64 * self.start_frac.clamp(0.0, 1.0)) as u64;
        let end = start.saturating_add((total_slots as f64 * self.width_frac.max(0.0)) as u64);
        let spiked = (base * self.multiplier).clamp(0.0, 1.0);
        sample_rate_curve(seed, user, total_slots, |slot| {
            if (start..end).contains(&slot) {
                spiked
            } else {
                base
            }
        })
    }
}

/// The declarative arrival-process choice of a scenario (`arrival=` field).
/// Each value names one preset-parameterised model; the scenario's
/// `arrival_p` field stays the baseline rate of all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArrivalSpec {
    /// `bernoulli` — the paper's process (the default).
    #[default]
    Bernoulli,
    /// `diurnal` — [`Diurnal::day`].
    Diurnal,
    /// `mmpp` — [`Mmpp::bursty`].
    Mmpp,
    /// `flash-crowd` — [`FlashCrowd::spike`].
    FlashCrowd,
}

impl ArrivalSpec {
    /// Every spec value, in label order.
    pub const ALL: [ArrivalSpec; 4] = [
        ArrivalSpec::Bernoulli,
        ArrivalSpec::Diurnal,
        ArrivalSpec::Mmpp,
        ArrivalSpec::FlashCrowd,
    ];

    /// The canonical scenario-field value.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalSpec::Bernoulli => "bernoulli",
            ArrivalSpec::Diurnal => "diurnal",
            ArrivalSpec::Mmpp => "mmpp",
            ArrivalSpec::FlashCrowd => "flash-crowd",
        }
    }

    /// Parses a scenario-field value; the error lists the valid tokens.
    pub fn parse(value: &str) -> Result<ArrivalSpec, String> {
        match value.trim().to_ascii_lowercase().as_str() {
            "bernoulli" => Ok(ArrivalSpec::Bernoulli),
            "diurnal" => Ok(ArrivalSpec::Diurnal),
            "mmpp" => Ok(ArrivalSpec::Mmpp),
            "flash-crowd" | "flash" => Ok(ArrivalSpec::FlashCrowd),
            other => Err(format!(
                "unknown arrival model `{other}` (expected bernoulli, diurnal, mmpp or flash-crowd)"
            )),
        }
    }

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
            assert_eq!(ArrivalSpec::parse(spec.label()), Ok(spec));
        }
        assert_eq!(ArrivalSpec::parse(" MMPP "), Ok(ArrivalSpec::Mmpp));
        assert_eq!(ArrivalSpec::parse("flash"), Ok(ArrivalSpec::FlashCrowd));
        let err = ArrivalSpec::parse("poisson").unwrap_err();
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
