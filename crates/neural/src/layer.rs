//! The [`Layer`] trait implemented by every network building block.

use std::fmt::Debug;

use fedco_rng::RngCore;

use crate::tensor::{Tensor, TensorError};

/// A differentiable network layer.
///
/// A layer owns no trainable parameters: the network keeps them, and their
/// gradients, in two flat buffers and hands each layer its
/// [`Layer::param_len`]-long slice of both (a layer may panic on slices of
/// another length). Layers operate on batched tensors whose first dimension
/// is the batch size. `forward` caches whatever it needs for the subsequent
/// `backward` call.
pub trait Layer: Debug + Send {
    /// Number of scalar trainable parameters: the length of the `params` and
    /// `grads` slices the other methods take (zero by default).
    fn param_len(&self) -> usize {
        0
    }

    /// Draws the layer's initial parameters into `params`.
    fn init(&self, _rng: &mut dyn RngCore, _params: &mut [f32]) {}

    /// Runs the forward pass with the parameters `params`.
    ///
    /// Only a `train` forward caches what `backward` needs. An evaluation
    /// forward (`train == false`) caches nothing and drops any earlier
    /// cache, so a `backward` that follows it fails with the layer's
    /// `*_backward_without_forward` error instead of differentiating a stale
    /// batch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] if the input shape is incompatible with the
    /// layer configuration.
    fn forward(
        &mut self,
        params: &[f32],
        input: &Tensor,
        train: bool,
    ) -> Result<Tensor, TensorError>;

    /// Runs the backward pass, accumulating parameter gradients into `grads`
    /// and returning the gradient with respect to the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] if `grad_output` does not match the shape
    /// produced by the last training `forward` call, or if there was none.
    fn backward(
        &mut self,
        params: &[f32],
        grads: &mut [f32],
        grad_output: &Tensor,
    ) -> Result<Tensor, TensorError>;

    /// [`Layer::backward`] for a caller that will not read the input
    /// gradient — the first layer of a network. Layers whose input gradient
    /// is expensive override this to skip it.
    ///
    /// # Errors
    ///
    /// As [`Layer::backward`].
    fn accumulate_grads(
        &mut self,
        params: &[f32],
        grads: &mut [f32],
        grad_output: &Tensor,
    ) -> Result<(), TensorError> {
        self.backward(params, grads, grad_output).map(drop)
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

/// The error of a `backward` with no training forward to differentiate.
pub(crate) fn without_forward(op: &'static str) -> TensorError {
    TensorError::ShapeMismatch {
        lhs: vec![],
        rhs: vec![],
        op,
    }
}
