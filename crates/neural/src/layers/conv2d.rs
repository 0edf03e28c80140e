//! 2-D convolution layer.
//!
//! # Order-preservation contract
//!
//! Every result is bit-for-bit that of the textbook nested loops (kept as
//! the `#[cfg(test)]` reference below): an output element is
//! `acc = bias; acc += x·w` over the taps `(ic, ky, kx)` in ascending order,
//! and a gradient element receives its `g·x` / `g·w` terms in ascending
//! `(b, oc, oy, ox)` then `(ic, ky, kx)` order. The kernels may therefore be
//! vectorised **across output positions** — `forward` applies one tap to a
//! whole run of outputs at a time — but never across a reduction: no
//! element's own sum is split, reassociated or fused into a multiply-add.
//! A tap that falls into the zero padding is **skipped**, not added as
//! `0·w`: adding `±0` would turn a `-0.0` accumulator into `+0.0` and
//! `0·inf` into NaN.

use fedco_rng::RngCore;

use crate::init::he_normal;
use crate::layer::{cache_for_backward, without_forward, Layer};
use crate::tensor::{Tensor, TensorError};

/// 2-D convolution over `[batch, in_channels, height, width]` inputs.
///
/// The parameters are the weights, `[out_channels, in_channels, kernel,
/// kernel]` row-major, then the `out_channels` biases. Square kernels,
/// symmetric zero padding and a single stride value cover the LeNet-5
/// configuration used by the paper.
#[derive(Debug)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    cached_input: Option<Tensor>,
    /// `forward`'s accumulator for one output plane, kept between calls.
    rows: Vec<f32>,
}

/// One kernel tap's share of `forward`: `runs` runs of `len` accumulators
/// from `rows_at` (one `pitch` apart), fed from `input_at` within the
/// example's planes (one strided input row apart).
struct Tap {
    weight_at: usize,
    input_at: usize,
    rows_at: usize,
    runs: usize,
    len: usize,
}

/// `dst[i] += src[i * step] * weight`. Elements are independent, so the
/// compiler is free to vectorise; each one still sees a single multiply
/// followed by a single add.
fn axpy(dst: &mut [f32], src: &[f32], step: usize, weight: f32) {
    let src = &src[..(dst.len() - 1) * step + 1];
    if step == 1 {
        for (d, &x) in dst.iter_mut().zip(src) {
            *d += x * weight;
        }
    } else {
        for (d, &x) in dst.iter_mut().zip(src.iter().step_by(step)) {
            *d += x * weight;
        }
    }
}

impl Conv2d {
    /// Creates a convolution layer; [`Layer::init`] draws He-initialised
    /// weights and zero biases.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(kernel > 0, "kernel size must be positive");
        assert!(stride > 0, "stride must be positive");
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            cached_input: None,
            rows: Vec::new(),
        }
    }

    /// Number of weights; the biases follow them.
    fn weight_len(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel * self.kernel
    }

    /// The backward pass; the input gradient is left empty unless wanted.
    fn backprop(
        &self,
        params: &[f32],
        grads: &mut [f32],
        grad_output: &Tensor,
        input_grad: bool,
    ) -> Result<Tensor, TensorError> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| without_forward("conv2d_backward_without_forward"))?;
        let (batch, in_channels, oh, ow) = self.check_input(input.shape())?;
        if grad_output.shape() != [batch, self.out_channels, oh, ow] {
            return Err(TensorError::ShapeMismatch {
                lhs: grad_output.shape().to_vec(),
                rhs: vec![batch, self.out_channels, oh, ow],
                op: "conv2d_backward",
            });
        }
        let (h, w) = (input.shape()[2], input.shape()[3]);
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        // The taps of output position `o` that read real input rather than
        // padding: `p <= o * s + tap < len + p`.
        let taps_inside = |o: usize, len: usize| {
            let hi = (len + p).saturating_sub(o * s).min(k);
            p.saturating_sub(o * s).min(hi)..hi
        };
        // Every tap in weight order: its input offset from an output
        // position's (padded) top-left corner, and its kernel row and column.
        let taps: Vec<(usize, usize, usize)> = (0..in_channels * k * k)
            .map(|t| (t / (k * k), t / k % k, t % k))
            .map(|(ic, ky, kx)| ((ic * h + ky) * w + kx, ky, kx))
            .collect();
        let corner_to_origin = p * w + p;
        let mut grad_input = Tensor::zeros(if input_grad { input.shape() } else { &[0] });
        let gi = grad_input.data_mut();
        let x = input.data();
        let weight = &params[..self.weight_len()];
        let (grad_weight, gb) = grads.split_at_mut(weight.len());
        // Pooling and ReLU leave most of `grad_output` exactly zero, so this
        // is a scalar walk over the non-zero positions. The terms of one
        // position go to distinct gradient elements, so only the order of
        // the positions is significant.
        for (plane, go) in grad_output.data().chunks(oh * ow).enumerate() {
            let (b, oc) = (plane / self.out_channels, plane % self.out_channels);
            let w_oc = &weight[oc * taps.len()..][..taps.len()];
            let gw_oc = &mut grad_weight[oc * taps.len()..][..taps.len()];
            for (oy, go_row) in go.chunks(ow).enumerate() {
                let kys = taps_inside(oy, h);
                for (ox, &g) in go_row.iter().enumerate() {
                    if g == 0.0 {
                        continue;
                    }
                    gb[oc] += g;
                    let kxs = taps_inside(ox, w);
                    let clipped = kys.len() < k || kxs.len() < k;
                    let corner = (b * in_channels * h + oy * s) * w + ox * s;
                    for ((gw, &wv), &(offset, ky, kx)) in gw_oc.iter_mut().zip(w_oc).zip(&taps) {
                        if clipped && !(kys.contains(&ky) && kxs.contains(&kx)) {
                            continue;
                        }
                        let at = corner + offset - corner_to_origin;
                        *gw += g * x[at];
                        if input_grad {
                            gi[at] += g * wv;
                        }
                    }
                }
            }
        }
        Ok(grad_input)
    }

    /// Output spatial size for an input spatial size.
    fn out_dim(&self, input: usize) -> Option<usize> {
        let padded = input + 2 * self.padding;
        if padded < self.kernel {
            return None;
        }
        Some((padded - self.kernel) / self.stride + 1)
    }

    fn check_input(&self, shape: &[usize]) -> Result<(usize, usize, usize, usize), TensorError> {
        if shape.len() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: shape.len(),
                op: "conv2d",
            });
        }
        if shape[1] != self.in_channels {
            return Err(TensorError::ShapeMismatch {
                lhs: shape.to_vec(),
                rhs: vec![0, self.in_channels, 0, 0],
                op: "conv2d_channels",
            });
        }
        let (h, w) = (shape[2], shape[3]);
        let oh = self.out_dim(h).ok_or(TensorError::ShapeMismatch {
            lhs: shape.to_vec(),
            rhs: vec![self.kernel],
            op: "conv2d_kernel_larger_than_input",
        })?;
        let ow = self.out_dim(w).ok_or(TensorError::ShapeMismatch {
            lhs: shape.to_vec(),
            rhs: vec![self.kernel],
            op: "conv2d_kernel_larger_than_input",
        })?;
        Ok((shape[0], shape[1], oh, ow))
    }
}

impl Layer for Conv2d {
    fn param_len(&self) -> usize {
        self.weight_len() + self.out_channels
    }

    fn init(&self, rng: &mut dyn RngCore, params: &mut [f32]) {
        let (weight, bias) = params.split_at_mut(self.weight_len());
        he_normal(rng, weight, self.in_channels * self.kernel * self.kernel);
        bias.fill(0.0);
    }

    fn forward(
        &mut self,
        params: &[f32],
        input: &Tensor,
        train: bool,
    ) -> Result<Tensor, TensorError> {
        let (batch, in_channels, oh, ow) = self.check_input(input.shape())?;
        let (h, w) = (input.shape()[2], input.shape()[3]);
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        // The output positions along an axis whose tap `tap` reads real input
        // rather than padding: `p <= o * s + tap < len + p`.
        let outputs_inside = |tap: usize, len: usize, out_len: usize| {
            let hi = (len + p).saturating_sub(tap).div_ceil(s).min(out_len);
            p.saturating_sub(tap).div_ceil(s).min(hi)..hi
        };
        // One output plane is accumulated in rows `pitch` apart. With
        // `pitch == w` the input element under a tap sits at a fixed offset
        // plus `s` times the accumulator index, across row ends too.
        let pitch = w.max(ow);
        self.rows.resize((oh - 1) * pitch + ow, 0.0);
        // Where each tap that reads any input lands, in weight order.
        let mut taps = Vec::with_capacity(in_channels * k * k);
        for (t, (ic, ky, kx)) in (0..in_channels * k * k)
            .map(|t| (t / (k * k), t / k % k, t % k))
            .enumerate()
        {
            let (oys, oxs) = (outputs_inside(ky, h, oh), outputs_inside(kx, w, ow));
            if oys.is_empty() || oxs.is_empty() {
                continue;
            }
            // A tap inside the input at every column covers its rows in one
            // run, computing the never-copied-out columns `ow..w` on the way
            // (such a tap implies `(ow - 1) * s < w`, so `pitch == w`); a
            // clipped tap goes row by row.
            let (runs, len) = if oxs.len() == ow {
                (1, (oys.len() - 1) * pitch + ow)
            } else {
                (oys.len(), oxs.len())
            };
            taps.push(Tap {
                weight_at: t,
                input_at: (ic * h + oys.start * s + ky - p) * w + (oxs.start * s + kx - p),
                rows_at: oys.start * pitch + oxs.start,
                runs,
                len,
            });
        }
        let mut out = Tensor::zeros(&[batch, self.out_channels, oh, ow]);
        let (weight, bias) = params.split_at(self.weight_len());
        for (plane, out_plane) in out.data_mut().chunks_mut(oh * ow).enumerate() {
            let (b, oc) = (plane / self.out_channels, plane % self.out_channels);
            let x_b = &input.data()[b * in_channels * h * w..][..in_channels * h * w];
            let w_oc = &weight[oc * in_channels * k * k..][..in_channels * k * k];
            self.rows.fill(bias[oc]);
            for tap in &taps {
                for run in 0..tap.runs {
                    let dst = &mut self.rows[tap.rows_at + run * pitch..][..tap.len];
                    let src = &x_b[tap.input_at + run * s * w..];
                    axpy(dst, src, s, w_oc[tap.weight_at]);
                }
            }
            for (out_row, row) in out_plane.chunks_mut(ow).zip(self.rows.chunks(pitch)) {
                out_row.copy_from_slice(&row[..ow]);
            }
        }
        cache_for_backward(&mut self.cached_input, input, train);
        Ok(out)
    }

    fn backward(
        &mut self,
        params: &[f32],
        grads: &mut [f32],
        grad_output: &Tensor,
    ) -> Result<Tensor, TensorError> {
        self.backprop(params, grads, grad_output, true)
    }

    fn accumulate_grads(
        &mut self,
        params: &[f32],
        grads: &mut [f32],
        grad_output: &Tensor,
    ) -> Result<(), TensorError> {
        self.backprop(params, grads, grad_output, false).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedco_rng::rngs::SmallRng;
    use fedco_rng::{Rng, SeedableRng};

    /// The textbook seven-deep loop this layer used to run: the oracle that
    /// fixes every output element's summation order.
    fn reference_forward(conv: &Conv2d, params: &[f32], input: &Tensor) -> Tensor {
        let (batch, _c, oh, ow) = conv.check_input(input.shape()).unwrap();
        let (h, w) = (input.shape()[2], input.shape()[3]);
        let k = conv.kernel;
        let mut out = Tensor::zeros(&[batch, conv.out_channels, oh, ow]);
        let in_data = input.data();
        let (w_data, b_data) = params.split_at(conv.weight_len());
        let out_data = out.data_mut();
        for b in 0..batch {
            for oc in 0..conv.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = b_data[oc];
                        let iy0 = oy * conv.stride;
                        let ix0 = ox * conv.stride;
                        for ic in 0..conv.in_channels {
                            for ky in 0..k {
                                let iy = iy0 + ky;
                                if iy < conv.padding || iy >= h + conv.padding {
                                    continue;
                                }
                                let iy = iy - conv.padding;
                                for kx in 0..k {
                                    let ix = ix0 + kx;
                                    if ix < conv.padding || ix >= w + conv.padding {
                                        continue;
                                    }
                                    let ix = ix - conv.padding;
                                    let xin =
                                        in_data[((b * conv.in_channels + ic) * h + iy) * w + ix];
                                    let wv =
                                        w_data[((oc * conv.in_channels + ic) * k + ky) * k + kx];
                                    acc += xin * wv;
                                }
                            }
                        }
                        out_data[((b * conv.out_channels + oc) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        out
    }

    /// The matching backward oracle: accumulates into `gw` / `gb` and
    /// returns the input gradient.
    fn reference_backward(
        conv: &Conv2d,
        params: &[f32],
        input: &Tensor,
        grad_output: &Tensor,
        gw: &mut [f32],
        gb: &mut [f32],
    ) -> Tensor {
        let (batch, _c, oh, ow) = conv.check_input(input.shape()).unwrap();
        let (h, w) = (input.shape()[2], input.shape()[3]);
        let k = conv.kernel;
        let mut grad_input = Tensor::zeros(input.shape());
        let in_data = input.data();
        let w_data = &params[..conv.weight_len()];
        let go = grad_output.data();
        let gi = grad_input.data_mut();
        for b in 0..batch {
            for oc in 0..conv.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = go[((b * conv.out_channels + oc) * oh + oy) * ow + ox];
                        if g == 0.0 {
                            continue;
                        }
                        gb[oc] += g;
                        let iy0 = oy * conv.stride;
                        let ix0 = ox * conv.stride;
                        for ic in 0..conv.in_channels {
                            for ky in 0..k {
                                let iy = iy0 + ky;
                                if iy < conv.padding || iy >= h + conv.padding {
                                    continue;
                                }
                                let iy = iy - conv.padding;
                                for kx in 0..k {
                                    let ix = ix0 + kx;
                                    if ix < conv.padding || ix >= w + conv.padding {
                                        continue;
                                    }
                                    let ix = ix - conv.padding;
                                    let in_idx = ((b * conv.in_channels + ic) * h + iy) * w + ix;
                                    let w_idx = ((oc * conv.in_channels + ic) * k + ky) * k + kx;
                                    gw[w_idx] += g * in_data[in_idx];
                                    gi[in_idx] += g * w_data[w_idx];
                                }
                            }
                        }
                    }
                }
            }
        }
        grad_input
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A layer with its parameters drawn from `seed`.
    fn conv_with_params(
        shape: (usize, usize, usize, usize, usize),
        seed: u64,
    ) -> (Conv2d, Vec<f32>) {
        let (ic, oc, k, s, p) = shape;
        let conv = Conv2d::new(ic, oc, k, s, p);
        let mut params = vec![0.0; conv.param_len()];
        conv.init(&mut SmallRng::seed_from_u64(seed), &mut params);
        (conv, params)
    }

    #[test]
    fn kernels_match_reference_bits() {
        let mut rng = SmallRng::seed_from_u64(2022);
        let mut uniform = |shape: &[usize], zero_share: f32| {
            let len = shape.iter().product();
            let data = (0..len)
                .map(|_| {
                    let v = rng.gen::<f32>() - 0.5;
                    if rng.gen::<f32>() < zero_share {
                        0.0
                    } else {
                        v
                    }
                })
                .collect();
            Tensor::from_vec(data, shape).unwrap()
        };
        let mut cases = 0;
        for kernel in [1usize, 2, 3, 5] {
            for stride in [1usize, 2] {
                for padding in [0usize, 1, 2] {
                    for batch in [1usize, 3] {
                        let (ic, oc) = (1 + cases % 4, 1 + (cases / 4 + kernel) % 4);
                        let (h, w) = (6 + cases % 3, 10 - cases % 2);
                        cases += 1;
                        let label =
                            format!("k{kernel} s{stride} p{padding} b{batch} {ic}->{oc} {h}x{w}");
                        let shape = (ic, oc, kernel, stride, padding);
                        let (mut conv, mut params) = conv_with_params(shape, cases as u64);
                        let at = params.len() - oc;
                        params[at..].copy_from_slice(uniform(&[oc], 0.0).data());
                        let new = || Conv2d::new(ic, oc, kernel, stride, padding);
                        let (mut eval, mut params_only) = (new(), new());
                        let x = uniform(&[batch, ic, h, w], 0.1);
                        let y = conv.forward(&params, &x, true).unwrap();
                        let want = reference_forward(&conv, &params, &x);
                        assert_eq!(bits(y.data()), bits(want.data()), "forward {label}");
                        let y_eval = eval.forward(&params, &x, false).unwrap();
                        assert_eq!(bits(y_eval.data()), bits(want.data()), "eval {label}");

                        // Two backward passes without zeroing in between: the
                        // second accumulates into non-zero gradients. Skipping
                        // the input gradient changes no parameter gradient.
                        let (mut grads, mut grads_only) = (vec![0.0; at + oc], vec![0.0; at + oc]);
                        let mut gw = vec![0.0; at];
                        let mut gb = vec![0.0; oc];
                        params_only.forward(&params, &x, true).unwrap();
                        for zero_share in [0.75, 0.4] {
                            let g = uniform(y.shape(), zero_share);
                            let gi = conv.backward(&params, &mut grads, &g).unwrap();
                            params_only
                                .accumulate_grads(&params, &mut grads_only, &g)
                                .unwrap();
                            let want = reference_backward(&conv, &params, &x, &g, &mut gw, &mut gb);
                            assert_eq!(bits(gi.data()), bits(want.data()), "grad_input {label}");
                            for got in [&grads, &grads_only] {
                                assert_eq!(bits(&got[..at]), bits(&gw), "grad_weight {label}");
                                assert_eq!(bits(&got[at..]), bits(&gb), "grad_bias {label}");
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 48);
    }

    #[test]
    fn identity_kernel_passes_input_through() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0);
        let x = Tensor::from_vec((0..9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let y = conv.forward(&[1.0, 0.0], &x, true).unwrap();
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        let mut conv = Conv2d::new(1, 1, 2, 1, 0);
        // Kernel [[1, 0], [0, 1]] sums the main diagonal of each 2x2 patch.
        let params = [1.0, 0.0, 0.0, 1.0, 0.0];
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            &[1, 1, 3, 3],
        )
        .unwrap();
        let y = conv.forward(&params, &x, true).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[1.0 + 5.0, 2.0 + 6.0, 4.0 + 8.0, 5.0 + 9.0]);
    }

    #[test]
    fn padding_and_stride_set_the_output_size() {
        let out = |conv: Conv2d, shape: &[usize]| conv.check_input(shape).unwrap();
        assert_eq!(out(Conv2d::new(1, 2, 3, 1, 1), &[4, 1, 8, 8]), (4, 1, 8, 8));
        assert_eq!(
            out(Conv2d::new(1, 2, 5, 1, 0), &[1, 1, 32, 32]),
            (1, 1, 28, 28)
        );
        assert_eq!(out(Conv2d::new(3, 4, 3, 2, 0), &[2, 3, 9, 9]), (2, 3, 4, 4));
    }

    #[test]
    fn rejects_bad_shapes() {
        let (mut conv, params) = conv_with_params((3, 4, 3, 1, 0), 0);
        let mut forward = |shape: &[usize]| conv.forward(&params, &Tensor::zeros(shape), true);
        assert!(forward(&[1, 2, 8, 8]).is_err());
        assert!(forward(&[1, 3, 2, 2]).is_err());
        assert!(forward(&[3, 8, 8]).is_err());
    }

    #[test]
    fn gradient_check_weights_and_input() {
        let (mut conv, mut params) = conv_with_params((2, 2, 2, 1, 1), 11);
        let mut rng = SmallRng::seed_from_u64(12);
        let x = (0..18).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
        let x = Tensor::from_vec(x, &[1, 2, 3, 3]).unwrap();
        let y = conv.forward(&params, &x, true).unwrap();
        let g = Tensor::from_vec(vec![1.0; y.len()], y.shape()).unwrap();
        let mut gw = vec![0.0; params.len()];
        let gx = conv.backward(&params, &mut gw, &g).unwrap();
        let eps = 1e-2f32;
        // Check a sample of weight gradients.
        for idx in [0usize, 3, 7, 12, 15] {
            let orig = params[idx];
            params[idx] = orig + eps;
            let fp = conv.forward(&params, &x, true).unwrap().sum();
            params[idx] = orig - eps;
            let fm = conv.forward(&params, &x, true).unwrap().sum();
            params[idx] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - gw[idx]).abs() < 2e-2,
                "weight {idx}: numeric {numeric} vs {}",
                gw[idx]
            );
        }
        // Check a sample of input gradients.
        for idx in [0usize, 5, 9, 17] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fp = conv.forward(&params, &xp, true).unwrap().sum();
            let fm = conv.forward(&params, &xm, true).unwrap().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - gx.data()[idx]).abs() < 2e-2,
                "input {idx}: numeric {numeric} vs {}",
                gx.data()[idx]
            );
        }
    }

    #[test]
    fn bias_gradient_counts_output_elements() {
        let (mut conv, params) = conv_with_params((1, 1, 2, 1, 0), 1);
        let x = Tensor::from_vec(vec![1.0; 9], &[1, 1, 3, 3]).unwrap();
        let y = conv.forward(&params, &x, true).unwrap();
        let mut grads = vec![0.0; params.len()];
        let g = Tensor::from_vec(vec![1.0; y.len()], y.shape()).unwrap();
        conv.backward(&params, &mut grads, &g).unwrap();
        // 2x2 output positions each contribute 1.
        assert_eq!(grads[4], 4.0);
    }

    #[test]
    fn param_len_is_correct() {
        assert_eq!(Conv2d::new(3, 6, 5, 1, 0).param_len(), 6 * 3 * 5 * 5 + 6);
    }
}
