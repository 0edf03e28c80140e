//! A coin-flip scheduler built in test code: each waiting user is scheduled
//! with probability one half, from a fixed-seed stream. It keeps every hook
//! of [`SchedulingPolicy`] at its default, so it is decided every slot and
//! certifies nothing, and what it decides depends on the order in which the
//! engine asks.
//!
//! It names only the member crates that both the root package and
//! `fedco-sim` depend on, so `tests/metamorphic.rs` and the equivalence
//! suite of `fedco-sim` (through `#[path]`) include this one file.

use fedco_core::config::SchedulerConfig;
use fedco_core::online::SlotOutcome;
use fedco_core::policy::{SchedulingPolicy, UserSlotContext};
use fedco_core::spec::{PolicyFactory, PolicySpec};
use fedco_device::power::SlotDecision;
use fedco_rng::rngs::SmallRng;
use fedco_rng::{Rng, SeedableRng};

#[derive(Debug)]
struct CoinFlip(SmallRng);

impl SchedulingPolicy for CoinFlip {
    fn decide(&mut self, _ctx: &UserSlotContext) -> SlotDecision {
        if self.0.gen::<f64>() < 0.5 {
            SlotDecision::Schedule
        } else {
            SlotDecision::Idle
        }
    }

    fn end_of_slot(&mut self, _outcome: &SlotOutcome) {}
}

#[derive(Debug)]
struct CoinFlipFactory;

impl PolicyFactory for CoinFlipFactory {
    fn label(&self) -> String {
        "CoinFlip(p=0.5)".to_string()
    }

    fn build(&self, _scheduler: &SchedulerConfig) -> Box<dyn SchedulingPolicy> {
        Box::new(CoinFlip(SmallRng::seed_from_u64(0xC01F)))
    }
}

/// The coin-flip scheduler as a spec.
pub fn coin_flip() -> PolicySpec {
    PolicySpec::custom(CoinFlipFactory)
}
