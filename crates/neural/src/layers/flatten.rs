//! Flattening layer collapsing all non-batch dimensions.

use crate::layer::Layer;
use crate::tensor::{Tensor, TensorError};

/// Flattens `[batch, d1, d2, ...]` into `[batch, d1*d2*...]`.
#[derive(Debug, Default)]
pub struct Flatten {
    cached_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { cached_shape: None }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, TensorError> {
        if input.rank() < 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: input.rank(),
                op: "flatten_forward",
            });
        }
        let batch = input.shape()[0];
        let rest: usize = input.shape()[1..].iter().product();
        self.cached_shape = train.then(|| input.shape().to_vec());
        input.reshape(&[batch, rest])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, TensorError> {
        let shape = self
            .cached_shape
            .as_ref()
            .ok_or(TensorError::ShapeMismatch {
                lhs: vec![],
                rhs: vec![],
                op: "flatten_backward_without_forward",
            })?;
        grad_output.reshape(shape)
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
        if input_shape.len() < 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: input_shape.len(),
                op: "flatten_output_shape",
            });
        }
        Ok(vec![input_shape[0], input_shape[1..].iter().product()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattens_and_restores() {
        let mut l = Flatten::new();
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]).unwrap();
        let y = l.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[2, 12]);
        let gx = l.backward(&y).unwrap();
        assert_eq!(gx.shape(), &[2, 3, 2, 2]);
        assert_eq!(gx.data(), x.data());
    }

    #[test]
    fn rejects_rank_one() {
        let mut l = Flatten::new();
        assert!(l.forward(&Tensor::ones(&[3]), true).is_err());
        assert!(l.output_shape(&[3]).is_err());
        assert_eq!(l.output_shape(&[4, 2, 5]).unwrap(), vec![4, 10]);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut l = Flatten::new();
        assert!(l.backward(&Tensor::ones(&[1, 1])).is_err());
    }
}
