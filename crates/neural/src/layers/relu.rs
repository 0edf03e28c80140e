//! The rectified linear unit, LeNet's elementwise activation.

use crate::layer::{cache_for_backward, without_forward, Layer};
use crate::tensor::{Tensor, TensorError};

/// `max(0, x)` elementwise; it has no parameters.
///
/// # Examples
///
/// ```
/// use fedco_neural::layers::Relu;
/// use fedco_neural::layer::Layer;
/// use fedco_neural::tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = Tensor::from_vec(vec![-1.0, 2.0], &[2])?;
/// let y = Relu::default().forward(&[], &x, true)?;
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Relu {
    cached_output: Option<Tensor>,
}

impl Layer for Relu {
    fn forward(&mut self, _: &[f32], input: &Tensor, train: bool) -> Result<Tensor, TensorError> {
        let out = input.map(|x| x.max(0.0));
        cache_for_backward(&mut self.cached_output, &out, train);
        Ok(out)
    }

    /// The derivative is read off the output: `y > 0` exactly when `x > 0`.
    fn backward(
        &mut self,
        _: &[f32],
        _: &mut [f32],
        grad_output: &Tensor,
    ) -> Result<Tensor, TensorError> {
        let output = self
            .cached_output
            .as_ref()
            .ok_or_else(|| without_forward("relu_backward_without_forward"))?;
        if grad_output.shape() != output.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: grad_output.shape().to_vec(),
                rhs: output.shape().to_vec(),
                op: "relu_backward",
            });
        }
        let mut grad = grad_output.clone();
        for (g, &y) in grad.data_mut().iter_mut().zip(output.data()) {
            *g *= if y > 0.0 { 1.0 } else { 0.0 };
        }
        Ok(grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut l = Relu::default();
        let x = Tensor::from_slice(&[-2.0, -0.5, 0.0, 0.5, 2.0]);
        let y = l.forward(&[], &x, true).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 0.0, 0.5, 2.0]);
        let gx = l
            .backward(&[], &mut [], &Tensor::from_slice(&[1.0; 5]))
            .unwrap();
        assert_eq!(gx.data(), &[0.0, 0.0, 0.0, 1.0, 1.0]);
        assert_eq!(l.param_len(), 0);
    }

    #[test]
    fn backward_rejects_mismatched_grad() {
        let mut l = Relu::default();
        l.forward(&[], &Tensor::zeros(&[2, 2]), true).unwrap();
        assert!(l.backward(&[], &mut [], &Tensor::zeros(&[3])).is_err());
    }
}
