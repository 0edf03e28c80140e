//! The [`Layer`] trait implemented by every network building block.

use std::fmt::Debug;

use crate::tensor::{Tensor, TensorError};

/// A differentiable network layer.
///
/// Layers operate on batched tensors whose first dimension is the batch
/// size. `forward` caches whatever it needs for the subsequent `backward`
/// call; a `backward` without a preceding `forward` returns an error-free
/// zero gradient for stateless layers and is documented per implementation
/// otherwise.
pub trait Layer: Debug + Send {
    /// A short, human-readable layer name (e.g. `"dense"`, `"conv2d"`).
    fn name(&self) -> &'static str;

    /// Runs the forward pass.
    ///
    /// `train` selects training-time behaviour (e.g. dropout masking) and
    /// whether the pass is remembered: only a `train` forward caches what
    /// `backward` needs. An evaluation forward (`train == false`) caches
    /// nothing and drops any earlier cache, so a `backward` that follows it
    /// fails with the layer's `*_backward_without_forward` error instead of
    /// differentiating a stale batch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] if the input shape is incompatible with the
    /// layer configuration.
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, TensorError>;

    /// Runs the backward pass, accumulating parameter gradients and
    /// returning the gradient with respect to the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] if `grad_output` does not match the shape
    /// produced by the last `forward` call.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, TensorError>;

    /// [`Layer::backward`] for a caller that will not read the input
    /// gradient — the first layer of a network. Layers whose input gradient
    /// is expensive override this to skip it.
    ///
    /// # Errors
    ///
    /// As [`Layer::backward`].
    fn accumulate_grads(&mut self, grad_output: &Tensor) -> Result<(), TensorError> {
        self.backward(grad_output).map(drop)
    }

    /// Immutable views of the trainable parameters (possibly empty).
    fn params(&self) -> Vec<&Tensor>;

    /// Mutable views of the trainable parameters (possibly empty).
    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let pairs = self.params_with_grads();
        pairs.into_iter().map(|(param, _)| param).collect()
    }

    /// Immutable views of the accumulated parameter gradients, in the same
    /// order as [`Layer::params`].
    fn grads(&self) -> Vec<&Tensor>;

    /// Each trainable parameter with its accumulated gradient, in the order
    /// of [`Layer::params`] (empty for a layer without parameters): what an
    /// optimiser step needs from one borrow.
    fn params_with_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)>;

    /// Resets the accumulated parameter gradients to zero.
    fn zero_grads(&mut self);

    /// Number of scalar trainable parameters.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Computes the output shape for a given input shape (excluding the
    /// batch dimension handling: both shapes include the batch dimension).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] if the input shape is incompatible.
    fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>, TensorError>;
}

/// Helper for layers that carry a weight/bias pair and their gradients.
#[derive(Debug, Clone)]
pub(crate) struct ParamPair {
    pub weight: Tensor,
    pub bias: Tensor,
    pub grad_weight: Tensor,
    pub grad_bias: Tensor,
}

impl ParamPair {
    pub fn new(weight: Tensor, bias: Tensor) -> Self {
        let grad_weight = Tensor::zeros(weight.shape());
        let grad_bias = Tensor::zeros(bias.shape());
        ParamPair {
            weight,
            bias,
            grad_weight,
            grad_bias,
        }
    }

    pub fn zero_grads(&mut self) {
        self.grad_weight.data_mut().fill(0.0);
        self.grad_bias.data_mut().fill(0.0);
    }

    pub fn with_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        vec![
            (&mut self.weight, &self.grad_weight),
            (&mut self.bias, &self.grad_bias),
        ]
    }
}

/// Remembers `value` in `slot` for the coming `backward` when `train`,
/// reusing the slot's buffer between equally shaped batches; forgets it
/// otherwise.
pub(crate) fn cache_for_backward(slot: &mut Option<Tensor>, value: &Tensor, train: bool) {
    match slot {
        _ if !train => *slot = None,
        Some(cached) if cached.shape() == value.shape() => {
            cached.data_mut().copy_from_slice(value.data());
        }
        _ => *slot = Some(value.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn param_pair_grads_start_zeroed() {
        let pair = ParamPair::new(Tensor::ones(&[2, 2]), Tensor::ones(&[2]));
        assert!(pair.grad_weight.data().iter().all(|&v| v == 0.0));
        assert!(pair.grad_bias.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn param_pair_zero_grads_resets() {
        let mut pair = ParamPair::new(Tensor::ones(&[2, 2]), Tensor::ones(&[2]));
        pair.grad_weight = Tensor::ones(&[2, 2]);
        pair.zero_grads();
        assert!(pair.grad_weight.data().iter().all(|&v| v == 0.0));
    }
}
