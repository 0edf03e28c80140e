//! Environment dynamics for the simulator: **the world the devices live in**.
//!
//! The paper's evaluation fixes a single Bernoulli application-arrival
//! process, immortal devices and uncompressed model uploads. This crate owns
//! everything that varies *underneath* the scheduler in a real deployment:
//!
//! * [`arrival`] — the [`ArrivalModel`](arrival::ArrivalModel) trait, whose
//!   resumable [`ArrivalSampler`](arrival::ArrivalSampler)s advance a run of
//!   users a chunk of slots at a time, with seeded
//!   [`Bernoulli`](arrival::Bernoulli) (the paper's process,
//!   bit-identical to the engine's historical generator),
//!   [`Diurnal`](arrival::Diurnal) (slot-of-day rate curve),
//!   [`Mmpp`](arrival::Mmpp) (2-state Markov-modulated burst process) and
//!   [`FlashCrowd`](arrival::FlashCrowd) implementations;
//! * [`battery`] — per-user battery lifecycles
//!   ([`BatterySpec`]): capacity, depletion from the
//!   engine's `EnergyProfiler` accrual and a deterministic charging
//!   schedule — devices die when drained and rejoin when recharged;
//! * [`churn`] — seeded mid-horizon dropout/rejoin intervals
//!   ([`ChurnSpec`]), shared by the simulation engine and
//!   the `fedco-drive` server fleet driver;
//! * [`compress`] — the uplink-compression policy hook
//!   ([`CompressionSpec`]): a compression ratio
//!   trades `Radio` upload energy against update quality.
//!
//! Every model here is a pure function of `(spec, seed, user, slot)`:
//! no entropy, no wall clock, no unordered iteration. The engine consults
//! the world at fixed **check slots** (every
//! [`CHECK_EVERY_SLOTS`] slots), in ascending user order, so battery and
//! churn transitions are byte-identical between the engine's indexed slot
//! loop and its plain-scan reference.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod arrival;
pub mod battery;
pub mod churn;
pub mod compress;

use arrival::ArrivalSpec;
use battery::BatterySpec;
use churn::ChurnSpec;
use compress::CompressionSpec;

/// Cadence (in slots) of the engine's world check: battery accounting and
/// churn transitions happen at slots that are multiples of this. A check
/// walks the whole fleet, so one a simulated minute keeps the slot loop
/// cheap while bounding how stale a battery reading can get.
pub const CHECK_EVERY_SLOTS: u64 = 60;

/// The full environment-dynamics configuration of one run. The default is
/// the paper's world — Bernoulli arrivals, no batteries, no churn, no
/// compression — under which the engine is bit-identical to its historical
/// behaviour.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorldConfig {
    /// The application-arrival process.
    pub arrival: ArrivalSpec,
    /// The battery/charging lifecycle model.
    pub battery: BatterySpec,
    /// The mid-horizon dropout/rejoin model.
    pub churn: ChurnSpec,
    /// The uplink-compression policy.
    pub compression: CompressionSpec,
}

impl WorldConfig {
    /// Whether this is the paper's default world (everything off, Bernoulli
    /// arrivals).
    pub fn is_paper_default(&self) -> bool {
        self == &WorldConfig::default()
    }

    /// Whether the engine must execute world check slots densely: true when
    /// battery or churn lifecycles are active.
    pub fn needs_check_slots(&self) -> bool {
        self.battery != BatterySpec::Off || self.churn != ChurnSpec::Off
    }
}

/// The world's prelude: every spec type plus the model trait.
pub mod prelude {
    pub use crate::arrival::{
        ArrivalEvent, ArrivalModel, ArrivalSampler, ArrivalSpec, Bernoulli, Diurnal, FlashCrowd,
        FleetArrivals, Mmpp,
    };
    pub use crate::battery::{BatteryParams, BatterySpec};
    pub use crate::churn::ChurnSpec;
    pub use crate::compress::CompressionSpec;
    pub use crate::{WorldConfig, CHECK_EVERY_SLOTS};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_world_is_the_paper_world() {
        let w = WorldConfig::default();
        assert!(w.is_paper_default());
        assert!(!w.needs_check_slots());
        assert_eq!(w.arrival, ArrivalSpec::Bernoulli);
        assert_eq!(w.battery, BatterySpec::Off);
        assert_eq!(w.churn, ChurnSpec::Off);
        assert_eq!(w.compression, CompressionSpec::Off);
    }

    #[test]
    fn lifecycles_require_check_slots() {
        let battery = WorldConfig {
            battery: BatterySpec::Constrained,
            ..WorldConfig::default()
        };
        assert!(battery.needs_check_slots());
        assert!(!battery.is_paper_default());
        let churn = WorldConfig {
            churn: ChurnSpec::Heavy,
            ..WorldConfig::default()
        };
        assert!(churn.needs_check_slots());
        // Compression alone needs no check cadence: it acts when an epoch
        // completes.
        let compress = WorldConfig {
            compression: CompressionSpec::Ratio(0.5),
            ..WorldConfig::default()
        };
        assert!(!compress.needs_check_slots());
        assert!(!compress.is_paper_default());
    }
}
