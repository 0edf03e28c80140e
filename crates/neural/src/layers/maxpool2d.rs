//! 2-D max-pooling layer.

use crate::layer::{without_forward, Layer};
use crate::tensor::{Tensor, TensorError};

/// Max pooling over the 2×2 windows, stride 2, of a `[batch, channels,
/// height, width]` tensor, as LeNet-5 uses it; an odd last row or column is
/// left out. It has no parameters: build it with `MaxPool2d::default()`.
#[derive(Debug, Default)]
pub struct MaxPool2d {
    /// The input shape and, per output element, the flat input index of its
    /// maximum, as left by the last training forward.
    cached: Option<(Vec<usize>, Vec<usize>)>,
}

impl MaxPool2d {
    fn check(shape: &[usize]) -> Result<(usize, usize, usize, usize), TensorError> {
        match *shape {
            [batch, channels, h, w] if h >= 2 && w >= 2 => Ok((batch, channels, h / 2, w / 2)),
            [_, _, _, _] => Err(TensorError::ShapeMismatch {
                lhs: shape.to_vec(),
                rhs: vec![2],
                op: "maxpool2d_window_too_large",
            }),
            _ => Err(TensorError::RankMismatch {
                expected: 4,
                actual: shape.len(),
                op: "maxpool2d",
            }),
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, _: &[f32], input: &Tensor, train: bool) -> Result<Tensor, TensorError> {
        let (batch, channels, oh, ow) = Self::check(input.shape())?;
        let (h, w) = (input.shape()[2], input.shape()[3]);
        let mut out = Tensor::zeros(&[batch, channels, oh, ow]);
        // A training pass reuses the last one's buffers; evaluation keeps none.
        let mut cached = train.then(|| self.cached.take().unwrap_or_default());
        if let Some((shape, argmax)) = cached.as_mut() {
            shape.clear();
            shape.extend_from_slice(input.shape());
            argmax.resize(out.len(), 0);
        }
        for (r, out_row) in out.data_mut().chunks_mut(ow).enumerate() {
            let top = (r / oh * h + r % oh * 2) * w;
            let (upper, lower) = input.data()[top..][..2 * w].split_at(w);
            let windows = upper.chunks_exact(2).zip(lower.chunks_exact(2));
            for (ox, (out_v, (a, b))) in out_row.iter_mut().zip(windows).enumerate() {
                // The four candidates in the window's row-major order, taken
                // by select, not branch: `v > best` keeps the first maximum,
                // and a window with nothing above -inf (all NaN, say) keeps
                // its own first element as the argmax.
                let at = top + 2 * ox;
                let mut best = (f32::NEG_INFINITY, at);
                for (v, i) in [
                    (a[0], at),
                    (a[1], at + 1),
                    (b[0], at + w),
                    (b[1], at + w + 1),
                ] {
                    best = if v > best.0 { (v, i) } else { best };
                }
                *out_v = best.0;
                if let Some((_, argmax)) = cached.as_mut() {
                    argmax[r * ow + ox] = best.1;
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
    use fedco_rng::rngs::SmallRng;
    use fedco_rng::{Rng, SeedableRng};

    /// The pooling LeNet builds: 2×2 windows with stride 2.
    fn lenet_pool() -> MaxPool2d {
        MaxPool2d::default()
    }

    /// The generic window loop (`k`×`k` windows, stride `s`) this layer
    /// used to run: the oracle for every output bit and argmax index.
    fn reference_forward(input: &Tensor, k: usize, s: usize) -> (Vec<f32>, Vec<usize>) {
        let &[batch, channels, h, w] = input.shape() else {
            panic!("rank 4 input expected");
        };
        let (oh, ow) = ((h - k) / s + 1, (w - k) / s + 1);
        let (mut out, mut argmax) = (Vec::new(), Vec::new());
        for plane in 0..batch * channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let first = (plane * h + oy * s) * w + ox * s;
                    let (mut best, mut best_idx) = (f32::NEG_INFINITY, first);
                    for at in (first..).step_by(w).take(k) {
                        for (i, &v) in input.data()[at..at + k].iter().enumerate() {
                            if v > best {
                                (best, best_idx) = (v, at + i);
                            }
                        }
                    }
                    out.push(best);
                    argmax.push(best_idx);
                }
            }
        }
        (out, argmax)
    }

    #[test]
    fn forward_matches_reference_bits() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let specials = [0.0, -0.0, f32::NEG_INFINITY, f32::NAN, 1.0];
        let mut inputs = Vec::new();
        // Every window of four specials: ties, ±0, −∞ and NaN in each order.
        let every = (0..specials.len().pow(4)).flat_map(|t| {
            (0..4).map(move |i| specials[t / specials.len().pow(i) % specials.len()])
        });
        inputs.push(Tensor::from_vec(
            every.collect(),
            &[1, specials.len().pow(4), 2, 2],
        ));
        // Random planes, odd sides included, with a growing share of specials.
        let mut rng = SmallRng::seed_from_u64(26);
        for (i, shape) in [
            [1, 1, 2, 2],
            [2, 3, 7, 7],
            [3, 4, 14, 14],
            [20, 8, 5, 5],
            [1, 2, 6, 9],
        ]
        .iter()
        .enumerate()
        {
            let data = (0..shape.iter().product())
                .map(|_| {
                    if rng.gen_range(0..4) < i {
                        specials[rng.gen_range(0..specials.len())]
                    } else {
                        rng.gen::<f32>() - 0.5
                    }
                })
                .collect();
            inputs.push(Tensor::from_vec(data, shape));
        }
        for x in inputs {
            let x = x.unwrap();
            let (want, want_argmax) = reference_forward(&x, 2, 2);
            let mut pool = lenet_pool();
            let y = pool.forward(&[], &x, true).unwrap();
            assert_eq!(bits(y.data()), bits(&want), "output {:?}", x.shape());
            let (shape, argmax) = pool.cached.as_ref().unwrap();
            assert_eq!((shape.as_slice(), argmax), (x.shape(), &want_argmax));
            let y = lenet_pool().forward(&[], &x, false).unwrap();
            assert_eq!(bits(y.data()), bits(&want), "eval {:?}", x.shape());
        }
    }

    #[test]
    fn pools_maximum_of_each_window() {
        let mut pool = MaxPool2d::default();
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
        let mut pool = MaxPool2d::default();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        pool.forward(&[], &x, true).unwrap();
        let g = Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]).unwrap();
        let gx = pool.backward(&[], &mut [], &g).unwrap();
        assert_eq!(gx.data(), &[0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn all_nan_window_keeps_its_gradient_in_its_own_example() {
        let mut pool = MaxPool2d::default();
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
        let check = |shape: &[usize]| MaxPool2d::check(shape).unwrap();
        assert_eq!(check(&[1, 6, 28, 28]), (1, 6, 14, 14));
        assert_eq!(check(&[1, 16, 10, 10]), (1, 16, 5, 5));
        assert_eq!(check(&[1, 8, 5, 5]), (1, 8, 2, 2));
    }

    #[test]
    fn rejects_small_inputs_and_wrong_rank() {
        let mut pool = MaxPool2d::default();
        assert!(pool
            .forward(&[], &Tensor::ones(&[1, 1, 1, 2]), true)
            .is_err());
        assert!(pool.forward(&[], &Tensor::ones(&[1, 2, 2]), true).is_err());
        assert!(pool
            .backward(&[], &mut [], &Tensor::ones(&[1, 1, 1, 1]))
            .is_err());
    }
}
