//! The slotted simulation clock.

/// A discrete, slotted clock. The paper's evaluation uses 1-second slots over
/// a 3-hour horizon (10 800 slots).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimClock {
    slot: u64,
    slot_seconds: f64,
    total_slots: u64,
}

impl SimClock {
    /// Creates a clock with the given slot length and horizon. The slot
    /// length is taken as given: [`SimConfig::validate`] rejects anything
    /// shorter than [`SimConfig::MIN_SLOT_SECONDS`], so the engine's clock
    /// and its energy accounting always run on the same slot length.
    ///
    /// [`SimConfig::validate`]: fedco_core::experiment::SimConfig::validate
    /// [`SimConfig::MIN_SLOT_SECONDS`]: fedco_core::experiment::SimConfig::MIN_SLOT_SECONDS
    pub fn new(slot_seconds: f64, total_slots: u64) -> Self {
        SimClock {
            slot: 0,
            slot_seconds,
            total_slots,
        }
    }

    /// A clock matching the paper's setting: 1-second slots, 3 hours.
    pub fn paper_default() -> Self {
        SimClock::new(1.0, 3 * 3600)
    }

    /// The current slot index.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// The current simulated time in seconds.
    pub fn now_s(&self) -> f64 {
        self.slot as f64 * self.slot_seconds
    }

    /// The slot length in seconds.
    pub fn slot_seconds(&self) -> f64 {
        self.slot_seconds
    }

    /// The total number of slots in the horizon.
    pub fn total_slots(&self) -> u64 {
        self.total_slots
    }

    /// Whether the horizon has been reached.
    pub fn finished(&self) -> bool {
        self.slot >= self.total_slots
    }

    /// Advances to the next slot.
    pub fn tick(&mut self) {
        self.slot += 1;
    }

    /// Converts a duration in seconds into a (rounded-up) number of slots,
    /// at least one.
    pub fn slots_for(&self, seconds: f64) -> u64 {
        ((seconds / self.slot_seconds).ceil() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_three_hours_of_one_second_slots() {
        let c = SimClock::paper_default();
        assert_eq!(c.total_slots(), 10_800);
        assert_eq!(c.slot_seconds(), 1.0);
    }

    #[test]
    fn ticking_advances_time() {
        let mut c = SimClock::new(2.0, 5);
        assert_eq!(c.now_s(), 0.0);
        assert!(!c.finished());
        for _ in 0..5 {
            c.tick();
        }
        assert_eq!(c.slot(), 5);
        assert_eq!(c.now_s(), 10.0);
        assert!(c.finished());
    }

    #[test]
    fn slots_for_rounds_up() {
        let c = SimClock::new(1.0, 100);
        assert_eq!(c.slots_for(223.0), 223);
        assert_eq!(c.slots_for(0.5), 1);
        assert_eq!(c.slots_for(0.0), 1);
        let c2 = SimClock::new(10.0, 100);
        assert_eq!(c2.slots_for(25.0), 3);
    }
}
