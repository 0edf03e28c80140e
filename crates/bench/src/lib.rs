//! # fedco-bench
//!
//! Benchmark harness of the `fedco` reproduction: one binary per table and
//! figure of the paper's evaluation (see `EXPERIMENTS.md` at the workspace
//! root for the index) plus [`micro`] std-`Instant` micro-benchmarks of the
//! scheduler and the neural substrate.
//!
//! Shared helpers used by the figure binaries live here, along with
//! [`compare`], the perf-regression gate the CI script runs over the
//! recorded `BENCH_*.json` throughput trajectories (see the
//! `bench_compare` binary).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod compare;
pub mod micro;

use fedco_sim::prelude::*;

/// Scale factor applied to the paper's 3-hour horizon so the figure binaries
/// finish in seconds on a laptop. Set the environment variable
/// `FEDCO_FULL_SCALE=1` to run the full 10 800-slot horizon instead.
pub fn horizon_slots() -> u64 {
    if std::env::var("FEDCO_FULL_SCALE")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        10_800
    } else {
        3_600
    }
}

/// The paper's evaluation configuration for a policy, scaled by
/// [`horizon_slots`].
pub fn paper_config(policy: PolicySpec) -> SimConfig {
    SimConfig {
        total_slots: horizon_slots(),
        ..SimConfig::paper_default(policy)
    }
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_uses_scaled_horizon() {
        let c = paper_config(PolicySpec::Online { v: None });
        assert_eq!(c.total_slots, horizon_slots());
        assert_eq!(c.num_users, 25);
        assert!(c.is_valid());
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.31), "31%");
        assert_eq!(pct(-0.39), "-39%");
    }
}
