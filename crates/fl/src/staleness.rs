//! Staleness metrics: lag (Definition 1) and gradient gap (Definition 2),
//! with the linear weight prediction of Eq. (3)–(4).

use fedco_neural::model::ParamVector;
use fedco_neural::tensor::TensorError;

use crate::model_state::ModelVersion;

/// The lag `l_τ` of Definition 1: the number of updates other users applied
/// to the global model between the moment a device downloaded the model and
/// the moment it pushes its own update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lag(pub u64);

impl Lag {
    /// Lag zero (what Sync-SGD guarantees).
    pub const ZERO: Lag = Lag(0);

    /// Computes the lag from the version a device downloaded and the current
    /// global version at upload time.
    pub fn between(downloaded: ModelVersion, current: ModelVersion) -> Lag {
        Lag(current.updates_since(downloaded))
    }

    /// The numeric value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Lag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lag={}", self.0)
    }
}

/// The gradient gap `g(t, t+τ) = ‖θ_{t+τ} − θ_t‖₂` of Definition 2.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct GradientGap(pub f64);

impl GradientGap {
    /// A zero gap.
    pub const ZERO: GradientGap = GradientGap(0.0);

    /// The numeric value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Adds two gaps (used when summing over devices, Eq. 6 / Eq. 14).
    pub fn plus(self, other: GradientGap) -> GradientGap {
        GradientGap(self.0 + other.0)
    }

    /// Measures the gap *exactly* from two parameter snapshots.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the vectors differ in
    /// length.
    pub fn measured(theta_t: &ParamVector, theta_t_tau: &ParamVector) -> Result<Self, TensorError> {
        Ok(GradientGap(theta_t.distance_l2(theta_t_tau)? as f64))
    }
}

impl std::fmt::Display for GradientGap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gap={:.4}", self.0)
    }
}

/// The linear weight predictor of Eq. (3)–(4).
///
/// Given the learning rate `η`, momentum coefficient `β`, the current
/// momentum vector norm `‖v_t‖` and an (estimated) lag `l_τ`, the predicted
/// future drift of the global parameters is
/// `g(t, t+τ) = ‖η (1 − β^{l_τ})/(1 − β) v_t‖₂`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightPredictor {
    /// Learning rate `η`.
    pub learning_rate: f32,
    /// Momentum coefficient `β`.
    pub beta: f32,
}

impl WeightPredictor {
    /// Creates a predictor; `beta` is clamped into `[0, 0.999]`.
    pub fn new(learning_rate: f32, beta: f32) -> Self {
        WeightPredictor {
            learning_rate,
            beta: beta.clamp(0.0, 0.999),
        }
    }

    /// The geometric amplification factor `(1 − β^{l})/(1 − β)`.
    ///
    /// For `β → 0` this is 1 for any positive lag (only the next update
    /// matters); for `β` close to 1 it approaches `l` (each of the `l`
    /// missed updates contributes).
    pub fn amplification(&self, lag: Lag) -> f64 {
        if lag.value() == 0 {
            return 0.0;
        }
        let beta = self.beta as f64;
        if beta <= f64::EPSILON {
            return 1.0;
        }
        (1.0 - beta.powi(lag.value().min(i32::MAX as u64) as i32)) / (1.0 - beta)
    }

    /// Predicts the gradient gap from the momentum-vector norm (Eq. 4).
    pub fn predict_gap(&self, lag: Lag, velocity_norm: f32) -> GradientGap {
        GradientGap(self.learning_rate as f64 * self.amplification(lag) * velocity_norm as f64)
    }
}

impl Default for WeightPredictor {
    fn default() -> Self {
        WeightPredictor::new(0.01, 0.9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_between_versions() {
        assert_eq!(Lag::between(ModelVersion(3), ModelVersion(7)), Lag(4));
        assert_eq!(Lag::between(ModelVersion(7), ModelVersion(3)), Lag::ZERO);
        assert_eq!(Lag(5).value(), 5);
        assert_eq!(format!("{}", Lag(2)), "lag=2");
    }

    #[test]
    fn zero_lag_predicts_zero_gap() {
        let p = WeightPredictor::new(0.01, 0.9);
        assert_eq!(p.predict_gap(Lag::ZERO, 100.0), GradientGap::ZERO);
        assert_eq!(p.amplification(Lag::ZERO), 0.0);
    }

    #[test]
    fn amplification_limits() {
        let p = WeightPredictor::new(0.01, 0.9);
        // (1 - 0.9^1)/(1-0.9) = 1   (tolerances account for f32 beta storage)
        assert!((p.amplification(Lag(1)) - 1.0).abs() < 1e-6);
        // (1 - 0.9^2)/0.1 = 1.9
        assert!((p.amplification(Lag(2)) - 1.9).abs() < 1e-5);
        // As lag -> inf, amplification -> 1/(1-beta) = 10.
        assert!((p.amplification(Lag(1000)) - 10.0).abs() < 1e-4);
        // beta = 0 gives amplification 1 for any positive lag.
        let p0 = WeightPredictor::new(0.01, 0.0);
        assert!((p0.amplification(Lag(5)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gap_grows_with_lag_and_velocity() {
        let p = WeightPredictor::new(0.1, 0.9);
        let g1 = p.predict_gap(Lag(1), 2.0);
        let g5 = p.predict_gap(Lag(5), 2.0);
        assert!(g5.value() > g1.value());
        let g1_big_v = p.predict_gap(Lag(1), 4.0);
        assert!((g1_big_v.value() - 2.0 * g1.value()).abs() < 1e-9);
    }

    #[test]
    fn measured_gap_is_symmetric_norm_difference() {
        let a = ParamVector::new(vec![0.0, 3.0]);
        let b = ParamVector::new(vec![4.0, 0.0]);
        let g = GradientGap::measured(&a, &b).unwrap();
        assert!((g.value() - 5.0).abs() < 1e-6);
        assert_eq!(
            GradientGap::measured(&a, &b).unwrap(),
            GradientGap::measured(&b, &a).unwrap()
        );
        assert!(GradientGap::measured(&a, &ParamVector::zeros(3)).is_err());
        assert_eq!(GradientGap(1.5).plus(GradientGap(2.5)).value(), 4.0);
        assert_eq!(format!("{}", GradientGap(1.0)), "gap=1.0000");
    }
}
