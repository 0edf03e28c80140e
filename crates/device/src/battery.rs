//! Battery capacities of the testbed devices.
//!
//! The paper motivates energy minimisation with battery lifetime: intense
//! neural computation drains the battery and frequent charge/discharge cycles
//! age it. The per-user battery lifecycles of `fedco-world` start from the
//! capacity given here.

use crate::energy::Joules;
use crate::profiles::DeviceKind;

/// Typical battery capacity of a testbed device.
///
/// Capacities (mAh at 3.85 V nominal): Nexus 6 ≈ 3220, Nexus 6P ≈ 3450,
/// Pixel 2 ≈ 2700. The HiKey 970 board is mains-powered; it is modelled
/// as a very large "battery" so it never gates scheduling.
pub fn capacity(kind: DeviceKind) -> Joules {
    let mah = match kind {
        DeviceKind::Nexus6 => 3220.0,
        DeviceKind::Nexus6P => 3450.0,
        DeviceKind::Pixel2 => 2700.0,
        DeviceKind::Hikey970 => 1.0e6,
    };
    // E [J] = mAh * 3.6 * V_nominal
    Joules(mah * 3.6 * 3.85)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_capacities_are_ordered_sensibly() {
        let n6 = capacity(DeviceKind::Nexus6);
        let p2 = capacity(DeviceKind::Pixel2);
        let hk = capacity(DeviceKind::Hikey970);
        assert!(n6.value() > p2.value());
        assert!(hk.value() > n6.value() * 100.0);
        assert_eq!(p2, Joules(2700.0 * 3.6 * 3.85));
    }
}
