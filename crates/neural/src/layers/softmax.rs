//! Row-wise softmax layer.

use crate::layer::{cache_for_backward, Layer};
use crate::tensor::{Tensor, TensorError};

/// Row-wise softmax over the last dimension of a `[batch, classes]` tensor.
///
/// Training code normally uses the fused
/// [`SoftmaxCrossEntropy`](crate::loss::SoftmaxCrossEntropy) loss instead;
/// this layer is provided for inference-time probability outputs and for
/// models that need explicit probabilities mid-network.
#[derive(Debug, Default)]
pub struct Softmax {
    cached_output: Option<Tensor>,
}

impl Softmax {
    /// Creates a softmax layer.
    pub fn new() -> Self {
        Softmax {
            cached_output: None,
        }
    }

    /// Applies a numerically-stable softmax to each row of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-rank-2 inputs.
    pub fn apply(input: &Tensor) -> Result<Tensor, TensorError> {
        if input.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: input.rank(),
                op: "softmax",
            });
        }
        let (batch, classes) = (input.shape()[0], input.shape()[1]);
        let mut out = input.clone();
        for b in 0..batch {
            let row = &mut out.data_mut()[b * classes..(b + 1) * classes];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
        Ok(out)
    }
}

impl Layer for Softmax {
    fn name(&self) -> &'static str {
        "softmax"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, TensorError> {
        let out = Self::apply(input)?;
        cache_for_backward(&mut self.cached_output, &out, train);
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, TensorError> {
        let y = self
            .cached_output
            .as_ref()
            .ok_or(TensorError::ShapeMismatch {
                lhs: vec![],
                rhs: vec![],
                op: "softmax_backward_without_forward",
            })?;
        if grad_output.shape() != y.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: grad_output.shape().to_vec(),
                rhs: y.shape().to_vec(),
                op: "softmax_backward",
            });
        }
        // dL/dx_i = y_i * (g_i - sum_j g_j y_j), per row.
        let (batch, classes) = (y.shape()[0], y.shape()[1]);
        let mut grad = Tensor::zeros(y.shape());
        for b in 0..batch {
            let yrow = &y.data()[b * classes..(b + 1) * classes];
            let grow = &grad_output.data()[b * classes..(b + 1) * classes];
            let dot: f32 = yrow.iter().zip(grow).map(|(a, b)| a * b).sum();
            let out = &mut grad.data_mut()[b * classes..(b + 1) * classes];
            for i in 0..classes {
                out[i] = yrow[i] * (grow[i] - dot);
            }
        }
        Ok(grad)
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
        if input_shape.len() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: input_shape.len(),
                op: "softmax_output_shape",
            });
        }
        Ok(input_shape.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let y = Softmax::apply(&x).unwrap();
        for b in 0..2 {
            let s: f32 = y.data()[b * 3..(b + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert!(y.data().iter().all(|&v| v > 0.0 && v < 1.0));
    }

    #[test]
    fn stable_with_large_logits() {
        let x = Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]).unwrap();
        let y = Softmax::apply(&x).unwrap();
        assert!(y.is_finite());
        assert!(y.data()[1] > y.data()[0]);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut l = Softmax::new();
        let x = Tensor::from_vec(vec![0.2, -0.4, 0.7], &[1, 3]).unwrap();
        l.forward(&x, true).unwrap();
        // Loss: weighted sum of outputs with fixed weights.
        let w = [0.3f32, -1.0, 0.5];
        let g = Tensor::from_vec(w.to_vec(), &[1, 3]).unwrap();
        let gx = l.backward(&g).unwrap();
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp: f32 = Softmax::apply(&xp)
                .unwrap()
                .data()
                .iter()
                .zip(&w)
                .map(|(a, b)| a * b)
                .sum();
            let fm: f32 = Softmax::apply(&xm)
                .unwrap()
                .data()
                .iter()
                .zip(&w)
                .map(|(a, b)| a * b)
                .sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((numeric - gx.data()[i]).abs() < 1e-3, "idx {i}");
        }
    }

    #[test]
    fn rejects_rank_one() {
        assert!(Softmax::apply(&Tensor::ones(&[3])).is_err());
    }
}
