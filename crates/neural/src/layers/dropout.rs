//! Inverted-dropout regularisation layer.

use fedco_rng::rngs::SmallRng;
use fedco_rng::{Rng, SeedableRng};

use crate::layer::Layer;
use crate::tensor::{Tensor, TensorError};

/// Inverted dropout: during training each element is zeroed with probability
/// `p` and the survivors are scaled by `1 / (1 - p)`; at evaluation time the
/// layer is the identity.
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    rng: SmallRng,
    cached_mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` (clamped to
    /// `[0, 0.95]`) and a deterministic seed.
    pub fn new(p: f32, seed: u64) -> Self {
        Dropout {
            p: p.clamp(0.0, 0.95),
            rng: SmallRng::seed_from_u64(seed),
            cached_mask: None,
        }
    }

    /// The drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn name(&self) -> &'static str {
        "dropout"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, TensorError> {
        if !train || self.p == 0.0 {
            self.cached_mask = train.then(|| Tensor::ones(input.shape()));
            return Ok(input.clone());
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mut mask = Tensor::zeros(input.shape());
        for m in mask.data_mut() {
            if self.rng.gen::<f32>() < keep {
                *m = scale;
            }
        }
        let out = input.mul(&mask);
        self.cached_mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, TensorError> {
        let mask = self
            .cached_mask
            .as_ref()
            .ok_or(TensorError::ShapeMismatch {
                lhs: vec![],
                rhs: vec![],
                op: "dropout_backward_without_forward",
            })?;
        grad_output.mul(mask)
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_with_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        Vec::new()
    }

    fn zero_grads(&mut self) {}

    fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>, TensorError> {
        Ok(input_shape.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut l = Dropout::new(0.5, 1);
        let x = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let y = l.forward(&x, false).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn training_zeroes_roughly_p_fraction() {
        let mut l = Dropout::new(0.5, 42);
        let x = Tensor::ones(&[10_000]);
        let y = l.forward(&x, true).unwrap();
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f32 / 10_000.0;
        assert!((frac - 0.5).abs() < 0.05, "zero fraction {frac}");
        // Survivors are scaled so the expectation is preserved.
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn backward_applies_the_same_mask() {
        let mut l = Dropout::new(0.5, 7);
        let x = Tensor::ones(&[100]);
        let y = l.forward(&x, true).unwrap();
        let g = Tensor::ones(&[100]);
        let gx = l.backward(&g).unwrap();
        for (a, b) in y.data().iter().zip(gx.data()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn zero_probability_never_drops() {
        let mut l = Dropout::new(0.0, 9);
        let x = Tensor::ones(&[100]);
        let y = l.forward(&x, true).unwrap();
        assert_eq!(y.data(), x.data());
        assert_eq!(l.probability(), 0.0);
    }

    #[test]
    fn probability_is_clamped() {
        let l = Dropout::new(1.5, 3);
        assert!(l.probability() <= 0.95);
    }
}
