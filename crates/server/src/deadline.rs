//! Wall-clock deadlines — the **one** module in this crate where wall time
//! is allowed.
//!
//! Everything deterministic in `fedco-server` runs on the logical tick
//! clock, and fedco-audit's wall-clock rule keeps it that way. Real network
//! I/O, however, needs real deadlines: a TCP accept loop must stop polling
//! eventually, a driver must give up connecting to a server that never came
//! up. Those waits live here — explicitly annotated for the audit, mirroring
//! `fedco-telemetry`'s `profiling.rs` precedent — and their readings never
//! feed anything a determinism comparison looks at: a deadline decides only
//! *whether to keep waiting*, never what a result contains.

// fedco-audit: allow(wall-clock): the single annotated network-deadline module; readings gate waits, never results
use std::time::{Duration, Instant};

/// A fixed wall-clock budget for a network wait.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: Instant, // fedco-audit: allow(wall-clock): deadline module
    budget: Duration,
}

impl Deadline {
    /// Starts a deadline of `budget` from now.
    pub fn starting_now(budget: Duration) -> Self {
        Deadline {
            start: Instant::now(), // fedco-audit: allow(wall-clock): deadline module
            budget,
        }
    }

    /// Whether the budget is spent.
    pub fn expired(&self) -> bool {
        self.start.elapsed() >= self.budget
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.budget.saturating_sub(self.start.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_deadline_has_budget_and_eventually_expires() {
        let d = Deadline::starting_now(Duration::from_secs(60));
        assert!(!d.expired());
        assert!(d.remaining() > Duration::from_secs(50));
        let z = Deadline::starting_now(Duration::ZERO);
        assert!(z.expired());
        assert_eq!(z.remaining(), Duration::ZERO);
    }
}
