//! Flattening layer collapsing all non-batch dimensions.

use crate::layer::{without_forward, Layer};
use crate::tensor::{Tensor, TensorError};

/// Flattens `[batch, d1, d2, ...]` into `[batch, d1*d2*...]`.
#[derive(Debug, Default)]
pub struct Flatten {
    cached_shape: Option<Vec<usize>>,
}

impl Layer for Flatten {
    fn forward(&mut self, _: &[f32], input: &Tensor, train: bool) -> Result<Tensor, TensorError> {
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

    fn backward(
        &mut self,
        _: &[f32],
        _: &mut [f32],
        grad_output: &Tensor,
    ) -> Result<Tensor, TensorError> {
        let shape = self
            .cached_shape
            .as_ref()
            .ok_or_else(|| without_forward("flatten_backward_without_forward"))?;
        grad_output.reshape(shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattens_and_restores() {
        let mut l = Flatten::default();
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]).unwrap();
        let y = l.forward(&[], &x, true).unwrap();
        assert_eq!(y.shape(), &[2, 12]);
        let gx = l.backward(&[], &mut [], &y).unwrap();
        assert_eq!(gx.shape(), &[2, 3, 2, 2]);
        assert_eq!(gx.data(), x.data());
    }

    #[test]
    fn rejects_rank_one_and_backward_before_forward() {
        let mut l = Flatten::default();
        assert!(l.forward(&[], &Tensor::zeros(&[3]), true).is_err());
        assert!(l.backward(&[], &mut [], &Tensor::zeros(&[1, 1])).is_err());
    }
}
