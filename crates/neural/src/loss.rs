//! The training loss: softmax cross-entropy.

use crate::tensor::{Tensor, TensorError};

/// Result of evaluating the loss: the scalar loss value averaged over the
/// batch and the gradient with respect to the network output (logits).
#[derive(Debug, Clone)]
pub struct LossOutput {
    /// Mean loss over the batch.
    pub loss: f32,
    /// Gradient of the mean loss with respect to the logits.
    pub grad: Tensor,
}

/// Softmax followed by cross-entropy, fused for numerical stability.
///
/// The gradient with respect to the logits is `(softmax(z) - onehot(y)) / batch`.
#[derive(Debug, Default, Clone, Copy)]
pub struct SoftmaxCrossEntropy;

impl SoftmaxCrossEntropy {
    /// Creates the loss.
    pub fn new() -> Self {
        SoftmaxCrossEntropy
    }

    /// Computes the loss and its gradient: `logits` has shape
    /// `[batch, classes]`, `targets` holds one class index per batch element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] when shapes are inconsistent with the targets.
    pub fn forward(&self, logits: &Tensor, targets: &[usize]) -> Result<LossOutput, TensorError> {
        if logits.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: logits.rank(),
                op: "softmax_cross_entropy",
            });
        }
        let (batch, classes) = (logits.shape()[0], logits.shape()[1]);
        if targets.len() != batch {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![targets.len()],
                rhs: vec![batch],
                op: "softmax_cross_entropy_targets",
            });
        }
        for &t in targets {
            if t >= classes {
                return Err(TensorError::IndexOutOfBounds {
                    index: vec![t],
                    shape: vec![classes],
                });
            }
        }
        let probs = softmax(logits, classes);
        let mut loss = 0.0f32;
        let mut grad = probs.clone();
        for (b, &t) in targets.iter().enumerate() {
            let p = probs.data()[b * classes + t].max(1e-12);
            loss -= p.ln();
            grad.data_mut()[b * classes + t] -= 1.0;
        }
        let scale = 1.0 / batch as f32;
        grad.scale_in_place(scale);
        Ok(LossOutput {
            loss: loss * scale,
            grad,
        })
    }
}

/// A numerically stable softmax of each `classes`-long row.
fn softmax(logits: &Tensor, classes: usize) -> Tensor {
    let mut out = logits.clone();
    for row in out.data_mut().chunks_mut(classes.max(1)) {
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![10.0, -10.0, -10.0], &[1, 3]).unwrap();
        let out = loss.forward(&logits, &[0]).unwrap();
        assert!(out.loss < 1e-3, "loss {}", out.loss);
    }

    #[test]
    fn cross_entropy_of_uniform_prediction_is_log_classes() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::zeros(&[2, 10]);
        let out = loss.forward(&logits, &[3, 7]).unwrap();
        assert!((out.loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero_per_row() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![0.5, -0.2, 1.0, 2.0, 0.0, -1.0], &[2, 3]).unwrap();
        let out = loss.forward(&logits, &[2, 0]).unwrap();
        for b in 0..2 {
            let s: f32 = out.grad.data()[b * 3..(b + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![0.3, -0.8, 0.1, 0.9], &[1, 4]).unwrap();
        let targets = [2usize];
        let out = loss.forward(&logits, &targets).unwrap();
        let eps = 1e-3f32;
        for i in 0..4 {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let fp = loss.forward(&lp, &targets).unwrap().loss;
            let fm = loss.forward(&lm, &targets).unwrap().loss;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((numeric - out.grad.data()[i]).abs() < 1e-3, "idx {i}");
        }
    }

    #[test]
    fn cross_entropy_validates_inputs() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::zeros(&[2, 3]);
        assert!(loss.forward(&logits, &[0]).is_err());
        assert!(loss.forward(&logits, &[0, 5]).is_err());
        assert!(loss.forward(&Tensor::zeros(&[3]), &[0]).is_err());
    }

    #[test]
    fn softmax_rows_sum_to_one_and_survive_large_logits() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let y = softmax(&x, 3);
        for row in y.data().chunks(3) {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
        assert!(y.data().iter().all(|&v| v > 0.0 && v < 1.0));
        let big = softmax(&Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]).unwrap(), 2);
        assert!(big.is_finite());
        assert!(big.data()[1] > big.data()[0]);
    }
}
