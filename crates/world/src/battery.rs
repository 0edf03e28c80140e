//! Battery/charging lifecycles.
//!
//! The paper motivates energy minimisation with battery lifetime but keeps
//! devices immortal. Under a battery lifecycle, every joule the engine's
//! `EnergyProfiler` accrues drains the user's battery; a drained device goes
//! dark (it stops training, running apps and consuming energy) until its
//! deterministic charging schedule brings the state of charge back over the
//! rejoin threshold. A spec fixes the capacity (the device's nominal
//! [`capacity`](fedco_device::battery::capacity), scaled) and the charging
//! schedule; the charge itself is the engine's one per-user battery state.
//! The engine evaluates the lifecycle at world check slots
//! (see [`CHECK_EVERY_SLOTS`](crate::CHECK_EVERY_SLOTS)), reading per-user
//! profiler totals in ascending user order — no cross-user float
//! reductions, so results are byte-identical between the engine's indexed
//! slot loop and its plain-scan reference.

use fedco_device::battery;
use fedco_device::profiles::DeviceKind;

fedco_device::choices! {
    /// The declarative battery-lifecycle choice of a scenario (`battery=`
    /// field).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum BatterySpec: "battery model" {
        /// `off` — immortal devices, the paper's setting (the default).
        #[default]
        Off = "off",
        /// `standard` — full phone batteries on a relaxed overnight-style
        /// charging schedule; depletion is rare but possible under heavy load.
        Standard = "standard",
        /// `constrained` — small worn batteries, partial initial charge and a
        /// tight charging window: devices routinely die and rejoin within the
        /// paper's 3-hour horizon.
        Constrained = "constrained",
    }
}

/// The numeric parameters behind a non-`Off` [`BatterySpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryParams {
    /// Fraction of the device's nominal capacity that is usable.
    pub capacity_scale: f64,
    /// Initial state of charge in `[0, 1]`.
    pub initial_soc: f64,
    /// Charging power while plugged in, in watts.
    pub charge_rate_w: f64,
    /// A device dies when its state of charge falls to or below this while
    /// unplugged.
    pub die_soc: f64,
    /// A dead device rejoins once charging lifts its state of charge above
    /// this.
    pub rejoin_soc: f64,
    /// Period of the cyclic charging schedule, in slots.
    pub charge_period_slots: u64,
    /// Leading portion of each period the user spends plugged in, in slots.
    pub charge_window_slots: u64,
}

impl BatterySpec {
    /// The parameters of the lifecycle, or `None` when batteries are off.
    pub fn params(&self) -> Option<BatteryParams> {
        match self {
            BatterySpec::Off => None,
            BatterySpec::Standard => Some(BatteryParams {
                capacity_scale: 1.0,
                initial_soc: 1.0,
                charge_rate_w: 10.0,
                die_soc: 0.05,
                rejoin_soc: 0.25,
                charge_period_slots: 3600,
                charge_window_slots: 1200,
            }),
            BatterySpec::Constrained => Some(BatteryParams {
                capacity_scale: 0.05,
                initial_soc: 0.5,
                charge_rate_w: 4.0,
                die_soc: 0.05,
                rejoin_soc: 0.3,
                charge_period_slots: 1800,
                charge_window_slots: 300,
            }),
        }
    }

    /// The usable capacity (in joules) of `user`'s battery under this spec.
    /// `None` when batteries are off.
    pub fn capacity_j(&self, device: DeviceKind) -> Option<f64> {
        let params = self.params()?;
        Some(battery::capacity(device).value() * params.capacity_scale)
    }
}

impl BatteryParams {
    /// Whether `user` is plugged in during `slot`. Users charge during the
    /// leading window of each period, phase-shifted per user so the fleet
    /// never charges (or dies) in lock-step.
    pub fn is_charging(&self, user: usize, slot: u64) -> bool {
        let period = self.charge_period_slots.max(1);
        let offset = (user as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % period;
        (slot.wrapping_add(offset)) % period < self.charge_window_slots.min(period)
    }

    /// Energy added by the charger over `elapsed_slots` slots of
    /// `slot_seconds` each, assuming the plug state held at the end of the
    /// window (the engine's check-slot quantisation).
    pub fn charge_added_j(&self, elapsed_slots: u64, slot_seconds: f64) -> f64 {
        self.charge_rate_w * slot_seconds * elapsed_slots as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_and_reject_unknowns() {
        for spec in BatterySpec::ALL {
            assert_eq!(spec.label().parse(), Ok(spec));
        }
        assert_eq!(" Standard ".parse(), Ok(BatterySpec::Standard));
        let err = "nuclear".parse::<BatterySpec>().unwrap_err().to_string();
        assert!(err.contains("nuclear"), "{err}");
        assert_eq!(BatterySpec::default(), BatterySpec::Off);
    }

    #[test]
    fn off_has_no_params_or_capacity() {
        assert_eq!(BatterySpec::Off.params(), None);
        assert_eq!(BatterySpec::Off.capacity_j(DeviceKind::Pixel2), None);
    }

    #[test]
    fn constrained_batteries_are_much_smaller() {
        let full = BatterySpec::Standard
            .capacity_j(DeviceKind::Pixel2)
            .expect("params");
        let small = BatterySpec::Constrained
            .capacity_j(DeviceKind::Pixel2)
            .expect("params");
        assert!(small < full / 10.0, "small {small} full {full}");
        // A constrained Pixel 2 holds ~1.9 kJ: at the testbed's ~1.5 W it
        // dies within the horizon, which is the point of the preset.
        assert!(small > 500.0 && small < 5000.0, "{small}");
    }

    #[test]
    fn charging_schedule_is_cyclic_and_user_shifted() {
        let p = BatterySpec::Constrained.params().expect("params");
        for user in 0..8 {
            let on: Vec<u64> = (0..p.charge_period_slots)
                .filter(|&s| p.is_charging(user, s))
                .collect();
            assert_eq!(on.len() as u64, p.charge_window_slots, "user {user}");
            // The schedule repeats each period.
            for &s in on.iter().take(3) {
                assert!(p.is_charging(user, s + p.charge_period_slots));
            }
        }
        // Different users charge at different times.
        let a: Vec<bool> = (0..1800).map(|s| p.is_charging(0, s)).collect();
        let b: Vec<bool> = (0..1800).map(|s| p.is_charging(1, s)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn charge_energy_scales_with_window() {
        let p = BatterySpec::Standard.params().expect("params");
        assert_eq!(p.charge_added_j(60, 1.0), 600.0);
        assert_eq!(p.charge_added_j(0, 1.0), 0.0);
    }
}
