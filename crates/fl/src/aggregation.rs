//! Aggregation rules for asynchronous updates.

#[cfg(test)]
use fedco_neural::{model::ParamVector, tensor::TensorError};

/// How the parameter server merges an asynchronously arriving local model
/// into the global model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AsyncUpdateRule {
    /// Replace the global copy with the uploaded model — exactly what the
    /// paper's implementation does ("The server replaces the current copy of
    /// the global model upon receiving it", Section VI).
    #[default]
    Replace,
}

/// The clone-based merge the fused server apply replaced, kept as the oracle
/// the `reference_bits` suite holds it to.
#[cfg(test)]
impl AsyncUpdateRule {
    pub(crate) fn merge(
        &self,
        global: &ParamVector,
        local: &ParamVector,
    ) -> Result<ParamVector, TensorError> {
        if global.len() != local.len() {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![global.len()],
                rhs: vec![local.len()],
                op: "async_merge",
            });
        }
        match *self {
            AsyncUpdateRule::Replace => Ok(local.clone()),
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
        let merged = AsyncUpdateRule::Replace.merge(&g, &l).unwrap();
        assert_eq!(merged, l);
    }

    #[test]
    fn mismatched_lengths_error() {
        let g = ParamVector::zeros(2);
        let l = ParamVector::zeros(3);
        assert!(AsyncUpdateRule::default().merge(&g, &l).is_err());
    }
}
