//! Configuration of the energy-aware schedulers.

/// Parameters shared by the offline and online schedulers.
///
/// The defaults follow the paper's evaluation settings (Section VII-B):
/// 1-second slots, `L_b = 1000`, `V = 4000`, a 500-second look-ahead window
/// for the offline knapsack, and a small per-slot idle gap increment `ε`.
///
/// `v` and `staleness_bound` hold for 25 devices, the paper's testbed. The
/// queues of Eq. (15)/(16) add up jobs and gaps over the whole fleet while
/// the Eq. (22) threshold `V·t_d·ΔP` is per device, so the simulation engine
/// hands its controllers `V·N/25` and `L_b·N/25` for a fleet of `N`
/// (exactly these values at `N = 25`); unscaled, a fleet of thousands keeps
/// `Q(t)` above every threshold and the staleness budget out of reach. An
/// explicit `Online(V=…)` policy sets the controller's `V` as given.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Lyapunov control knob `V` trading energy against staleness.
    pub v: f64,
    /// Long-term staleness (gradient-gap) bound `L_b` of Eq. (6)/(14).
    pub staleness_bound: f64,
    /// Per-idle-slot gradient-gap increment `ε` of Eq. (12).
    pub epsilon: f64,
    /// Slot length `t_d` in seconds: the run's one slot length. The
    /// simulation clock, the energy profilers, the look-ahead window in slots
    /// and the `V·P·t_d` terms of Eq. (21)/(22) all read it.
    pub slot_seconds: f64,
    /// Look-ahead window (seconds) between offline knapsack invocations.
    pub lookahead_window_s: f64,
    /// Learning rate `η` used in the weight predictor (Eq. 4).
    pub learning_rate: f32,
    /// Momentum coefficient `β` used in the weight predictor (Eq. 4).
    pub momentum_beta: f32,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            v: 4000.0,
            staleness_bound: 1000.0,
            epsilon: 0.05,
            slot_seconds: 1.0,
            lookahead_window_s: 500.0,
            learning_rate: 0.05,
            momentum_beta: 0.9,
        }
    }
}

impl SchedulerConfig {
    /// Returns a copy with a different `V`.
    #[must_use]
    pub fn with_v(mut self, v: f64) -> Self {
        self.v = v.max(0.0);
        self
    }

    /// The look-ahead window expressed in slots (at least 1): the offline
    /// policy's replanning cadence and the window the engine plans over.
    pub fn window_slots(&self) -> u64 {
        ((self.lookahead_window_s / self.slot_seconds).ceil() as u64).max(1)
    }

    /// Validates the configuration, naming the offending field and its value
    /// on failure.
    pub fn validate(&self) -> Result<(), SchedulerConfigError> {
        const NON_NEGATIVE: &str = "must be a finite non-negative number";
        const POSITIVE: &str = "must be a finite positive number";
        let reject = |field, value, requirement| {
            Err(SchedulerConfigError {
                field,
                value,
                requirement,
            })
        };
        if self.v < 0.0 || !self.v.is_finite() {
            return reject("v", self.v, NON_NEGATIVE);
        }
        if self.staleness_bound < 0.0 || !self.staleness_bound.is_finite() {
            return reject("staleness_bound", self.staleness_bound, NON_NEGATIVE);
        }
        if self.epsilon < 0.0 || !self.epsilon.is_finite() {
            return reject("epsilon", self.epsilon, NON_NEGATIVE);
        }
        if self.slot_seconds <= 0.0 || !self.slot_seconds.is_finite() {
            return reject("slot_seconds", self.slot_seconds, POSITIVE);
        }
        if self.lookahead_window_s <= 0.0 || !self.lookahead_window_s.is_finite() {
            return reject("lookahead_window_s", self.lookahead_window_s, POSITIVE);
        }
        if self.learning_rate <= 0.0 || !self.learning_rate.is_finite() {
            let value = f32_as_written(self.learning_rate);
            return reject("learning_rate", value, POSITIVE);
        }
        if !(0.0..1.0).contains(&self.momentum_beta) {
            let value = f32_as_written(self.momentum_beta);
            return reject("momentum_beta", value, "must lie in [0, 1)");
        }
        Ok(())
    }
}

/// Widens an `f32` through its shortest decimal representation, so error
/// messages report the value as the user wrote it (`1.2`, not the raw
/// widening `1.2000000476837158`).
fn f32_as_written(v: f32) -> f64 {
    v.to_string().parse().unwrap_or(v as f64)
}

/// Error naming the out-of-range field of a [`SchedulerConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfigError {
    /// Name of the offending field.
    pub field: &'static str,
    /// The rejected value.
    pub value: f64,
    /// Human-readable statement of the allowed range.
    pub requirement: &'static str,
}

impl std::fmt::Display for SchedulerConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scheduler config field `{}` {} (got {})",
            self.field, self.requirement, self.value
        )
    }
}

impl std::error::Error for SchedulerConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = SchedulerConfig::default();
        assert_eq!(c.v, 4000.0);
        assert_eq!(c.staleness_bound, 1000.0);
        assert_eq!(c.slot_seconds, 1.0);
        assert_eq!(c.lookahead_window_s, 500.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_clamp_negative_values() {
        let c = SchedulerConfig::default().with_v(-1.0);
        assert_eq!(c.v, 0.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_detected() {
        let c = SchedulerConfig {
            slot_seconds: 0.0,
            ..SchedulerConfig::default()
        };
        assert!(c.validate().is_err());
        let c2 = SchedulerConfig {
            momentum_beta: 1.5,
            ..SchedulerConfig::default()
        };
        assert!(c2.validate().is_err());
    }

    #[test]
    fn validate_names_the_offending_field() {
        let c = SchedulerConfig {
            slot_seconds: -2.0,
            ..SchedulerConfig::default()
        };
        let err = c.validate().unwrap_err();
        assert_eq!(err.field, "slot_seconds");
        assert_eq!(err.value, -2.0);
        assert!(err.to_string().contains("slot_seconds"));
        assert!(err.to_string().contains("-2"));

        let c2 = SchedulerConfig {
            momentum_beta: 1.5,
            ..SchedulerConfig::default()
        };
        assert_eq!(c2.validate().unwrap_err().field, "momentum_beta");
        // f32 fields are reported as written, without widening noise.
        let c2b = SchedulerConfig {
            momentum_beta: 1.2,
            ..SchedulerConfig::default()
        };
        let err = c2b.validate().unwrap_err();
        assert_eq!(err.value, 1.2);
        assert!(err.to_string().ends_with("(got 1.2)"), "{err}");
        let c3 = SchedulerConfig {
            v: f64::NAN,
            ..SchedulerConfig::default()
        };
        assert_eq!(c3.validate().unwrap_err().field, "v");
        // Infinity is rejected like NaN: the engine's slot arithmetic
        // (timestamps, window lengths) needs finite inputs.
        let c4 = SchedulerConfig {
            lookahead_window_s: f64::INFINITY,
            ..SchedulerConfig::default()
        };
        assert_eq!(c4.validate().unwrap_err().field, "lookahead_window_s");
        let c5 = SchedulerConfig {
            slot_seconds: f64::INFINITY,
            ..SchedulerConfig::default()
        };
        assert_eq!(c5.validate().unwrap_err().field, "slot_seconds");
        assert!(SchedulerConfig::default().validate().is_ok());
    }
}
