//! Aggregation rules for asynchronous updates.

#[cfg(test)]
use fedco_neural::{model::ParamVector, tensor::TensorError};

use crate::staleness::Lag;

/// How the parameter server merges an asynchronously arriving local model
/// into the global model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AsyncUpdateRule {
    /// Replace the global copy with the uploaded model — exactly what the
    /// paper's implementation does ("The server replaces the current copy of
    /// the global model upon receiving it", Section VI).
    #[default]
    Replace,
    /// Mix the uploaded model into the global one with a staleness-dependent
    /// weight `α / (1 + lag)` (the regularised rule of asynchronous federated
    /// optimisation, used here for ablations).
    StalenessWeighted {
        /// Base mixing coefficient `α ∈ (0, 1]`.
        alpha: f32,
    },
}

impl AsyncUpdateRule {
    /// The weight `w` an upload arriving with `lag` gets: the merged value of
    /// a global `g` and an uploaded `l` is `g·(1−w) + w·l`. `None` is
    /// [`AsyncUpdateRule::Replace`], whose merged value is the upload itself,
    /// bit for bit — which no weight expresses (`∞·0` is not `0`).
    pub fn upload_weight(&self, lag: Lag) -> Option<f32> {
        match *self {
            AsyncUpdateRule::Replace => None,
            AsyncUpdateRule::StalenessWeighted { alpha } => {
                Some(alpha.clamp(0.0, 1.0) / (1.0 + lag.value() as f32))
            }
        }
    }
}

/// The clone-based merge [`AsyncUpdateRule::upload_weight`] and the fused
/// server apply replaced, kept as the oracle the `reference_bits` suite holds
/// them to.
#[cfg(test)]
impl AsyncUpdateRule {
    pub(crate) fn merge(
        &self,
        global: &ParamVector,
        local: &ParamVector,
        lag: Lag,
    ) -> Result<ParamVector, TensorError> {
        use crate::momentum::cloning::scale;
        if global.len() != local.len() {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![global.len()],
                rhs: vec![local.len()],
                op: "async_merge",
            });
        }
        match *self {
            AsyncUpdateRule::Replace => Ok(local.clone()),
            AsyncUpdateRule::StalenessWeighted { alpha } => {
                let alpha = alpha.clamp(0.0, 1.0);
                let weight = alpha / (1.0 + lag.value() as f32);
                let mut out = scale(global, 1.0 - weight);
                out.add_scaled(local, weight)?;
                Ok(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replace_returns_local() {
        let g = ParamVector::new(vec![1.0, 1.0]);
        let l = ParamVector::new(vec![5.0, -5.0]);
        let merged = AsyncUpdateRule::Replace.merge(&g, &l, Lag(3)).unwrap();
        assert_eq!(merged, l);
    }

    #[test]
    fn staleness_weighted_interpolates() {
        let g = ParamVector::new(vec![0.0]);
        let l = ParamVector::new(vec![10.0]);
        let rule = AsyncUpdateRule::StalenessWeighted { alpha: 1.0 };
        // lag 0 -> weight 1.0 -> local
        assert_eq!(rule.merge(&g, &l, Lag(0)).unwrap().values(), &[10.0]);
        // lag 1 -> weight 0.5
        assert_eq!(rule.merge(&g, &l, Lag(1)).unwrap().values(), &[5.0]);
        // lag 9 -> weight 0.1
        let merged = rule.merge(&g, &l, Lag(9)).unwrap();
        assert!((merged.values()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn higher_lag_moves_less() {
        let g = ParamVector::new(vec![0.0, 0.0]);
        let l = ParamVector::new(vec![1.0, 1.0]);
        let rule = AsyncUpdateRule::StalenessWeighted { alpha: 0.5 };
        let fresh = rule.merge(&g, &l, Lag(0)).unwrap();
        let stale = rule.merge(&g, &l, Lag(10)).unwrap();
        assert!(fresh.norm_l2() > stale.norm_l2());
    }

    #[test]
    fn upload_weight_decays_with_lag_and_clamps_alpha() {
        assert_eq!(AsyncUpdateRule::Replace.upload_weight(Lag(7)), None);
        let rule = AsyncUpdateRule::StalenessWeighted { alpha: 3.0 };
        assert_eq!(rule.upload_weight(Lag(0)), Some(1.0));
        assert_eq!(rule.upload_weight(Lag(3)), Some(0.25));
    }

    #[test]
    fn mismatched_lengths_error() {
        let g = ParamVector::zeros(2);
        let l = ParamVector::zeros(3);
        assert!(AsyncUpdateRule::default().merge(&g, &l, Lag(0)).is_err());
    }
}
