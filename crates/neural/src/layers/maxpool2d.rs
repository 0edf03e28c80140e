//! 2-D max-pooling layer.

use crate::layer::{without_forward, Layer};
use crate::tensor::{Tensor, TensorError};

/// Max pooling over non-overlapping (or strided) square windows of a
/// `[batch, channels, height, width]` tensor.
#[derive(Debug)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    /// The input shape and, per output element, the flat input index of its
    /// maximum, as left by the last training forward.
    cached: Option<(Vec<usize>, Vec<usize>)>,
}

impl MaxPool2d {
    /// Creates a max-pooling layer with a square window and the given stride.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        assert!(stride > 0, "stride must be positive");
        MaxPool2d {
            kernel,
            stride,
            cached: None,
        }
    }

    fn out_spatial(&self, dim: usize) -> Option<usize> {
        if dim < self.kernel {
            return None;
        }
        Some((dim - self.kernel) / self.stride + 1)
    }

    fn check(&self, shape: &[usize]) -> Result<(usize, usize, usize, usize), TensorError> {
        if shape.len() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: shape.len(),
                op: "maxpool2d",
            });
        }
        let oh = self
            .out_spatial(shape[2])
            .ok_or(TensorError::ShapeMismatch {
                lhs: shape.to_vec(),
                rhs: vec![self.kernel],
                op: "maxpool2d_window_too_large",
            })?;
        let ow = self
            .out_spatial(shape[3])
            .ok_or(TensorError::ShapeMismatch {
                lhs: shape.to_vec(),
                rhs: vec![self.kernel],
                op: "maxpool2d_window_too_large",
            })?;
        Ok((shape[0], shape[1], oh, ow))
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, _: &[f32], input: &Tensor, train: bool) -> Result<Tensor, TensorError> {
        let (batch, channels, oh, ow) = self.check(input.shape())?;
        let (h, w) = (input.shape()[2], input.shape()[3]);
        let (k, s) = (self.kernel, self.stride);
        let mut out = Tensor::zeros(&[batch, channels, oh, ow]);
        // A training pass reuses the last one's buffers; evaluation keeps none.
        let mut cached = train.then(|| self.cached.take().unwrap_or_default());
        if let Some((shape, argmax)) = cached.as_mut() {
            shape.clear();
            shape.extend_from_slice(input.shape());
            argmax.resize(out.len(), 0);
        }
        let (data, out_data) = (input.data(), out.data_mut());
        let mut o = 0;
        for plane in 0..batch * channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    // A window with no value above -inf (all NaN, say) keeps
                    // its own first element as the argmax, not element 0 of
                    // the tensor, which is another example's.
                    let first = (plane * h + oy * s) * w + ox * s;
                    let (mut best, mut best_idx) = (f32::NEG_INFINITY, first);
                    for at in (first..).step_by(w).take(k) {
                        for (i, &v) in data[at..at + k].iter().enumerate() {
                            if v > best {
                                (best, best_idx) = (v, at + i);
                            }
                        }
                    }
                    out_data[o] = best;
                    if let Some((_, argmax)) = cached.as_mut() {
                        argmax[o] = best_idx;
                    }
                    o += 1;
                }
            }
        }
        self.cached = cached;
        Ok(out)
    }

    fn backward(
        &mut self,
        _: &[f32],
        _: &mut [f32],
        grad_output: &Tensor,
    ) -> Result<Tensor, TensorError> {
        let (shape, argmax) = self
            .cached
            .as_ref()
            .ok_or_else(|| without_forward("maxpool2d_backward_without_forward"))?;
        if grad_output.len() != argmax.len() {
            return Err(TensorError::ShapeMismatch {
                lhs: grad_output.shape().to_vec(),
                rhs: shape.clone(),
                op: "maxpool2d_backward",
            });
        }
        let mut grad_input = Tensor::zeros(shape);
        let gi = grad_input.data_mut();
        for (&src, &g) in argmax.iter().zip(grad_output.data()) {
            gi[src] += g;
        }
        Ok(grad_input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_maximum_of_each_window() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, 3.0, 4.0, 7.0, 8.0, 9.0, 10.0, 13.0, 14.0, 11.0, 12.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&[], &x, true).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        pool.forward(&[], &x, true).unwrap();
        let g = Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]).unwrap();
        let gx = pool.backward(&[], &mut [], &g).unwrap();
        assert_eq!(gx.data(), &[0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn all_nan_window_keeps_its_gradient_in_its_own_example() {
        let mut pool = MaxPool2d::new(2, 2);
        let nan = f32::NAN;
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, nan, nan, nan, nan], &[2, 1, 2, 2]);
        pool.forward(&[], &x.unwrap(), true).unwrap();
        let gx = pool
            .backward(&[], &mut [], &Tensor::ones(&[2, 1, 1, 1]))
            .unwrap();
        // Example 0 sees only its own window's gradient; the NaN window's
        // goes to that window's first element, not to element 0.
        assert_eq!(gx.data(), &[0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn output_shape_matches_lenet_stages() {
        let pool = MaxPool2d::new(2, 2);
        assert_eq!(pool.check(&[1, 6, 28, 28]).unwrap(), (1, 6, 14, 14));
        assert_eq!(pool.check(&[1, 16, 10, 10]).unwrap(), (1, 16, 5, 5));
    }

    #[test]
    fn rejects_small_inputs_and_wrong_rank() {
        let mut pool = MaxPool2d::new(3, 3);
        assert!(pool
            .forward(&[], &Tensor::ones(&[1, 1, 2, 2]), true)
            .is_err());
        assert!(pool.forward(&[], &Tensor::ones(&[1, 2, 2]), true).is_err());
        assert!(pool
            .backward(&[], &mut [], &Tensor::ones(&[1, 1, 1, 1]))
            .is_err());
    }

    #[test]
    fn overlapping_stride_accumulates_gradients() {
        let mut pool = MaxPool2d::new(2, 1);
        // Max element (4.0) is in every window.
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 9.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            &[1, 1, 3, 3],
        )
        .unwrap();
        let y = pool.forward(&[], &x, true).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        let g = Tensor::ones(&[1, 1, 2, 2]);
        let gx = pool.backward(&[], &mut [], &g).unwrap();
        // 9.0 at flat index 3 is the max of the two top windows.
        assert_eq!(gx.data()[3], 2.0);
        assert_eq!(gx.sum(), 4.0);
    }
}
