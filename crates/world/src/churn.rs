//! Device churn: seeded mid-horizon dropout/rejoin intervals.
//!
//! Real fleets lose devices mid-round — users close the app, walk out of
//! coverage, or toggle airplane mode — and get them back later. The churn
//! model precomputes, per user, a sorted list of half-open `[start, end)`
//! offline intervals as a pure function of `(spec, seed, user, horizon)`.
//! Both the simulation engine and the `fedco-drive` server fleet driver
//! consult the same intervals, so sim-side lag dynamics and server-side
//! session churn counters describe the same world.

use fedco_rng::rngs::{SmallRng, SplitMix64};
use fedco_rng::{Rng, SeedableRng};

/// Domain-separation salt mixed into every churn stream so churn draws never
/// collide with arrival or server-session streams derived from the same
/// master seed.
const CHURN_SALT: u64 = 0xC4B2_0E11;

fedco_device::choices! {
    /// The declarative churn choice of a scenario (`churn=` field).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum ChurnSpec: "churn model" {
        /// `off` — nobody leaves, the paper's setting (the default).
        #[default]
        Off = "off",
        /// `light` — roughly a third of users take one mid-horizon outage.
        Light = "light",
        /// `heavy` — most users take one or two outages; long stretches of the
        /// fleet are partially dark.
        Heavy = "heavy",
    }
}

impl ChurnSpec {
    /// `(outage attempts, per-attempt probability)` for this spec.
    fn intensity(&self) -> (u32, f64) {
        match self {
            ChurnSpec::Off => (0, 0.0),
            ChurnSpec::Light => (1, 0.35),
            ChurnSpec::Heavy => (2, 0.8),
        }
    }

    /// The sorted, disjoint half-open `[start, end)` offline intervals (in
    /// slots) of `user` over a run of `total_slots`, derived from the run's
    /// master `seed`. A pure function: every caller with the same arguments
    /// sees the same intervals, whatever thread or process it runs on.
    pub fn intervals_for(&self, seed: u64, user: usize, total_slots: u64) -> Vec<(u64, u64)> {
        let (attempts, p) = self.intensity();
        if attempts == 0 || total_slots == 0 {
            return Vec::new();
        }
        let mut mix = SplitMix64::seed_from_u64(seed);
        mix.absorb(CHURN_SALT);
        let mut rng = SmallRng::seed_from_u64(mix.absorb(user as u64));
        let horizon = total_slots as f64;
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        for _ in 0..attempts {
            if !rng.gen_bool(p) {
                continue;
            }
            // Outages start mid-horizon and last 10-25% of the run: long
            // enough that the engine's minute-cadence world check and the
            // server driver's coarser ticks both observe them.
            let start_frac = 0.2 + 0.6 * rng.gen::<f64>();
            let dur_frac = 0.1 + 0.15 * rng.gen::<f64>();
            let start = (start_frac * horizon) as u64;
            let end = (((start_frac + dur_frac) * horizon) as u64).min(total_slots);
            if end > start {
                intervals.push((start, end));
            }
        }
        // Merge overlaps so callers can treat intervals as disjoint. The
        // sort key is a plain integer pair — deterministic.
        intervals.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
        for (start, end) in intervals {
            match merged.last_mut() {
                Some(last) if start <= last.1 => last.1 = last.1.max(end),
                _ => merged.push((start, end)),
            }
        }
        merged
    }

    /// Whether `user` is churned out (offline) at `slot`, given the
    /// intervals returned by [`intervals_for`](ChurnSpec::intervals_for).
    pub fn is_offline(intervals: &[(u64, u64)], slot: u64) -> bool {
        intervals
            .iter()
            .any(|&(start, end)| (start..end).contains(&slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_and_reject_unknowns() {
        for spec in ChurnSpec::ALL {
            assert_eq!(spec.label().parse(), Ok(spec));
        }
        assert_eq!(" HEAVY ".parse(), Ok(ChurnSpec::Heavy));
        let err = "tidal".parse::<ChurnSpec>().unwrap_err().to_string();
        assert!(err.contains("tidal"), "{err}");
        assert_eq!(ChurnSpec::default(), ChurnSpec::Off);
    }

    #[test]
    fn off_yields_no_intervals() {
        assert!(ChurnSpec::Off.intervals_for(42, 0, 10_800).is_empty());
        assert!(ChurnSpec::Heavy.intervals_for(42, 0, 0).is_empty());
    }

    #[test]
    fn intervals_are_deterministic_sorted_and_disjoint() {
        for user in 0..32 {
            let a = ChurnSpec::Heavy.intervals_for(42, user, 10_800);
            let b = ChurnSpec::Heavy.intervals_for(42, user, 10_800);
            assert_eq!(a, b, "user {user}");
            for w in a.windows(2) {
                assert!(w[0].1 < w[1].0, "user {user}: {a:?}");
            }
            for &(start, end) in &a {
                assert!(start < end && end <= 10_800, "user {user}: {a:?}");
                // Mid-horizon: outages never start at slot 0.
                assert!(start >= 2160, "user {user}: {a:?}");
            }
        }
    }

    #[test]
    fn heavy_churns_more_users_than_light() {
        let hit = |spec: ChurnSpec| {
            (0..200)
                .filter(|&u| !spec.intervals_for(7, u, 10_800).is_empty())
                .count()
        };
        let light = hit(ChurnSpec::Light);
        let heavy = hit(ChurnSpec::Heavy);
        assert!(light > 30 && light < 120, "light {light}");
        assert!(heavy > 150, "heavy {heavy}");
        assert!(heavy > light);
    }

    #[test]
    fn outages_span_the_world_check_cadence() {
        // Every generated outage must be at least one check period long, or
        // the engine could never observe it.
        for user in 0..64 {
            for &(start, end) in &ChurnSpec::Heavy.intervals_for(11, user, 10_800) {
                assert!(end - start >= crate::CHECK_EVERY_SLOTS, "{start}..{end}");
            }
        }
    }

    #[test]
    fn is_offline_matches_intervals() {
        let intervals = vec![(100, 200), (500, 600)];
        assert!(!ChurnSpec::is_offline(&intervals, 99));
        assert!(ChurnSpec::is_offline(&intervals, 100));
        assert!(ChurnSpec::is_offline(&intervals, 199));
        assert!(!ChurnSpec::is_offline(&intervals, 200));
        assert!(ChurnSpec::is_offline(&intervals, 550));
        assert!(!ChurnSpec::is_offline(&intervals, 10_000));
    }

    #[test]
    fn different_seeds_and_users_decorrelate() {
        let a = ChurnSpec::Heavy.intervals_for(1, 0, 10_800);
        let b = ChurnSpec::Heavy.intervals_for(2, 0, 10_800);
        let c = ChurnSpec::Heavy.intervals_for(1, 1, 10_800);
        assert!(a != b || a != c, "streams should differ: {a:?}");
    }
}
