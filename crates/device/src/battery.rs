//! Battery state-of-charge accounting.
//!
//! The paper motivates energy minimisation with battery lifetime: intense
//! neural computation drains the battery and frequent charge/discharge cycles
//! age it. This model tracks one device's state of charge; the per-user
//! battery lifecycles of `fedco-world` are built on it.

use crate::energy::Joules;
use crate::profiles::DeviceKind;

/// A device battery with a fixed capacity and a current charge level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    capacity: Joules,
    charge: Joules,
    charging: bool,
    /// Charging power in watts when plugged in.
    charge_rate_w: f64,
    /// Cumulative energy drawn from the battery (for wear accounting).
    total_discharged: Joules,
}

impl Battery {
    /// Creates a full battery with the given capacity.
    pub fn new(capacity: Joules) -> Self {
        Battery {
            capacity,
            charge: capacity,
            charging: false,
            charge_rate_w: 10.0,
            total_discharged: Joules::ZERO,
        }
    }

    /// Typical battery capacity of a testbed device.
    ///
    /// Capacities (mAh at 3.85 V nominal): Nexus 6 ≈ 3220, Nexus 6P ≈ 3450,
    /// Pixel 2 ≈ 2700. The HiKey 970 board is mains-powered; it is modelled
    /// as a very large "battery" so it never gates scheduling.
    pub fn for_device(kind: DeviceKind) -> Self {
        let mah = match kind {
            DeviceKind::Nexus6 => 3220.0,
            DeviceKind::Nexus6P => 3450.0,
            DeviceKind::Pixel2 => 2700.0,
            DeviceKind::Hikey970 => 1.0e6,
        };
        // E [J] = mAh * 3.6 * V_nominal
        Battery::new(Joules(mah * 3.6 * 3.85))
    }

    /// Battery capacity.
    pub fn capacity(&self) -> Joules {
        self.capacity
    }

    /// Remaining charge.
    pub fn charge(&self) -> Joules {
        self.charge
    }

    /// State of charge in `[0, 1]`.
    pub fn state_of_charge(&self) -> f64 {
        if self.capacity.value() <= 0.0 {
            return 0.0;
        }
        (self.charge.value() / self.capacity.value()).clamp(0.0, 1.0)
    }

    /// Whether the device is plugged in.
    pub fn is_charging(&self) -> bool {
        self.charging
    }

    /// Plug or unplug the charger.
    pub fn set_charging(&mut self, charging: bool) {
        self.charging = charging;
    }

    /// Total energy drawn from the battery over its lifetime (a proxy for
    /// wear; more discharge means earlier battery disposal).
    pub fn total_discharged(&self) -> Joules {
        self.total_discharged
    }

    /// Draws energy from the battery (or from the charger when plugged in),
    /// returning `false` when the battery was already empty and the draw was
    /// only partially satisfied.
    pub fn drain(&mut self, energy: Joules) -> bool {
        let energy = energy.max_zero();
        if self.charging {
            // Charger covers the draw; battery untouched.
            return true;
        }
        self.total_discharged += energy;
        if self.charge.value() >= energy.value() {
            self.charge = self.charge - energy;
            true
        } else {
            self.charge = Joules::ZERO;
            false
        }
    }

    /// Advances charging for `seconds` when plugged in.
    pub fn tick_charge(&mut self, seconds: f64) {
        if self.charging {
            let added = Joules(self.charge_rate_w * seconds.max(0.0));
            self.charge = Joules((self.charge + added).value().min(self.capacity.value()));
        }
    }

    /// Whether the state of charge is at or above a threshold in `[0, 1]`.
    pub fn above(&self, threshold: f64) -> bool {
        self.state_of_charge() >= threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_battery_is_full() {
        let b = Battery::new(Joules(100.0));
        assert_eq!(b.state_of_charge(), 1.0);
        assert_eq!(b.charge(), Joules(100.0));
        assert_eq!(b.capacity(), Joules(100.0));
        assert!(!b.is_charging());
    }

    #[test]
    fn drain_reduces_charge_and_tracks_wear() {
        let mut b = Battery::new(Joules(100.0));
        assert!(b.drain(Joules(30.0)));
        assert_eq!(b.charge(), Joules(70.0));
        assert_eq!(b.total_discharged(), Joules(30.0));
        assert!((b.state_of_charge() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn drain_below_zero_clamps_and_reports() {
        let mut b = Battery::new(Joules(10.0));
        assert!(!b.drain(Joules(25.0)));
        assert_eq!(b.charge(), Joules::ZERO);
        assert_eq!(b.state_of_charge(), 0.0);
    }

    #[test]
    fn charging_covers_draw_and_refills() {
        let mut b = Battery::new(Joules(100.0));
        b.drain(Joules(50.0));
        b.set_charging(true);
        assert!(b.is_charging());
        assert!(b.drain(Joules(40.0)));
        assert_eq!(b.charge(), Joules(50.0));
        b.tick_charge(3.0);
        assert_eq!(b.charge(), Joules(80.0));
        b.tick_charge(100.0);
        assert_eq!(b.charge(), Joules(100.0));
    }

    #[test]
    fn negative_drain_is_ignored() {
        let mut b = Battery::new(Joules(100.0));
        assert!(b.drain(Joules(-5.0)));
        assert_eq!(b.charge(), Joules(100.0));
    }

    #[test]
    fn device_capacities_are_ordered_sensibly() {
        let n6 = Battery::for_device(DeviceKind::Nexus6);
        let p2 = Battery::for_device(DeviceKind::Pixel2);
        let hk = Battery::for_device(DeviceKind::Hikey970);
        assert!(n6.capacity().value() > p2.capacity().value());
        assert!(hk.capacity().value() > n6.capacity().value() * 100.0);
        assert!(p2.above(0.99));
    }

    #[test]
    fn threshold_check() {
        let mut b = Battery::new(Joules(100.0));
        b.drain(Joules(80.0));
        assert!(b.above(0.2));
        assert!(!b.above(0.5));
    }
}
