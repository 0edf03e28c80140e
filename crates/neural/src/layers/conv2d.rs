//! 2-D convolution layer.
//!
//! # Order-preservation contract
//!
//! Every result is bit-for-bit that of the textbook nested loops (kept as
//! the `#[cfg(test)]` reference below): an output element is
//! `acc = bias; acc += x·w` over the taps `(ic, ky, kx)` in ascending order,
//! and a gradient element receives its `g·x` / `g·w` terms in ascending
//! `(b, oc, oy, ox)` order, over the positions whose `g` is not zero. Each
//! term is one multiply and one add: no element's own sum is split,
//! reassociated or fused into a multiply-add. The kernels reorder only work
//! that lands in different elements:
//!
//! - `forward` sweeps a whole output plane once per input channel: that
//!   channel's `K`×`K` weights sit in a local array, and each element is
//!   loaded, given the channel's taps in ascending `(ky, kx)` and stored.
//! - The backward pass first collects a `(b, oc)` plane's non-zero
//!   `grad_output` positions, its hit list (pooling and ReLU leave most of
//!   the plane zero), and the bias sums over it. Then, per input channel,
//!   the `K` rows of that channel's weight gradient stay in `K` local
//!   `[f32; PW]` accumulators for the whole list (`PW` is `K` rounded up to
//!   4): each hit adds `g` times a `PW`-wide read of an input row to each
//!   row, and only the `K` real lanes are stored back. A hit whose last
//!   `PW`-wide read would pass the end of the input reads its rows `K`
//!   wide. The input gradient walks the same list, one `K`-wide kernel row
//!   at a time beside the weight rows.

use fedco_rng::RngCore;

use crate::init::he_normal;
use crate::layer::{cache_for_backward, without_forward, Layer};
use crate::tensor::{Tensor, TensorError};

/// 2-D convolution with stride 1 and no padding over `[batch, in_channels,
/// height, width]` inputs, as LeNet-5 uses it.
///
/// The parameters are the weights, `[out_channels, in_channels, kernel,
/// kernel]` row-major, then the `out_channels` biases.
#[derive(Debug)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    cached_input: Option<Tensor>,
    /// `forward`'s accumulator for one output plane, swept once per input
    /// channel and kept between calls.
    rows: Vec<f32>,
    /// The backward pass's hit list for one plane, kept between calls: the
    /// input offset of each non-zero `grad_output` position, and its value.
    hits: Vec<(usize, f32)>,
}

/// The input gradient of one channel and that channel's weights.
type InputGrad<'a> = Option<(&'a mut [f32], &'a [f32])>;

/// One input channel's share of an output plane in `forward`.
type PlaneSweep = fn(&mut [f32], &[f32], &[f32], usize);

/// One input channel's share of a plane's backward pass.
type ChannelWalk = fn(&mut [f32], &[f32], InputGrad, usize, &[(usize, f32)]);

/// [`plane`] and [`channel_walk`] for each kernel size a `Conv2d` takes, 1
/// to 5.
const KERNELS: [(PlaneSweep, ChannelWalk); 5] = [
    (plane::<1, 1>, channel_walk::<1, 4>),
    (plane::<2, 4>, channel_walk::<2, 4>),
    (plane::<3, 9>, channel_walk::<3, 4>),
    (plane::<4, 16>, channel_walk::<4, 4>),
    (plane::<5, 25>, channel_walk::<5, 8>),
];

/// One input channel's share of an output plane for a `K`×`K` kernel of
/// `T` taps: `rows[i] += x[i + ky·w + kx] · w_c[ky·K + kx]` in ascending
/// `(ky, kx)`, each element loaded and stored once. Elements are
/// independent, so the compiler is free to vectorise across them; each tap
/// is still a single multiply followed by a single add.
fn plane<const K: usize, const T: usize>(rows: &mut [f32], x: &[f32], w_c: &[f32], w: usize) {
    let n = rows.len();
    let taps: [f32; T] = std::array::from_fn(|t| w_c[t]);
    let src: [&[f32]; T] = std::array::from_fn(|t| &x[t / K * w + t % K..][..n]);
    for (i, r) in rows.iter_mut().enumerate() {
        let mut acc = *r;
        for (s, &wv) in src.iter().zip(&taps) {
            acc += s[i] * wv;
        }
        *r = acc;
    }
}

/// One input channel's share of a plane's backward pass, for a `K`×`K`
/// kernel read `PW` lanes wide (see the module doc): `gw[ky·K + kx] += g ·
/// x[at + ky·w + kx]` for every hit `(at, g)` in order, and, given the
/// channel's input gradient and weights, `gi[at + ky·w + kx] += g ·
/// w_c[ky·K + kx]`.
fn channel_walk<const K: usize, const PW: usize>(
    gw: &mut [f32],
    x: &[f32],
    mut input_grad: InputGrad,
    w: usize,
    hits: &[(usize, f32)],
) {
    let mut acc = [[0.0f32; PW]; K];
    for (lanes, row) in acc.iter_mut().zip(gw.chunks_exact(K)) {
        lanes[..K].copy_from_slice(row);
    }
    // Hits ascend in input offset, so those whose last row cannot be read
    // `PW` wide are a tail.
    let wide = hits.partition_point(|&(at, _)| at + (K - 1) * w + PW <= x.len());
    add_rows::<K, PW, PW>(&mut acc, x, &mut input_grad, w, &hits[..wide]);
    add_rows::<K, PW, K>(&mut acc, x, &mut input_grad, w, &hits[wide..]);
    for (lanes, row) in acc.iter().zip(gw.chunks_exact_mut(K)) {
        row.copy_from_slice(&lanes[..K]);
    }
}

/// [`channel_walk`]'s loop over `hits`, reading the input rows `W` wide.
fn add_rows<const K: usize, const PW: usize, const W: usize>(
    acc: &mut [[f32; PW]; K],
    x: &[f32],
    input_grad: &mut InputGrad,
    w: usize,
    hits: &[(usize, f32)],
) {
    for &(at, g) in hits {
        for (ky, lanes) in acc.iter_mut().enumerate() {
            let row = at + ky * w;
            for (a, &v) in lanes.iter_mut().zip(&x[row..][..W]) {
                *a += g * v;
            }
            if let Some((gi, w_c)) = input_grad {
                for (d, &wv) in gi[row..][..K].iter_mut().zip(&w_c[ky * K..][..K]) {
                    *d += g * wv;
                }
            }
        }
    }
}

impl Conv2d {
    /// Creates a convolution layer with a `kernel`×`kernel` window;
    /// [`Layer::init`] draws He-initialised weights and zero biases.
    ///
    /// # Panics
    ///
    /// Panics unless `kernel` is 1 to 5.
    pub fn new(in_channels: usize, out_channels: usize, kernel: usize) -> Self {
        assert!(
            (1..=KERNELS.len()).contains(&kernel),
            "kernel size must be 1 to 5"
        );
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            cached_input: None,
            rows: Vec::new(),
            hits: Vec::new(),
        }
    }

    /// Number of weights; the biases follow them.
    fn weight_len(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel * self.kernel
    }

    /// The backward pass; the input gradient is left empty unless wanted.
    fn backprop(
        &mut self,
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
        let (k, w, walk) = (self.kernel, input.shape()[3], KERNELS[self.kernel - 1].1);
        let (plane_len, taps) = (input.shape()[2] * w, in_channels * k * k);
        let mut grad_input = input_grad.then(|| Tensor::zeros(input.shape()));
        let (x, weight) = (input.data(), &params[..self.weight_len()]);
        let (grad_weight, gb) = grads.split_at_mut(weight.len());
        let hits = &mut self.hits;
        hits.resize(oh * ow, (0, 0.0));
        for (plane, go) in grad_output.data().chunks(oh * ow).enumerate() {
            let (b, oc) = (plane / self.out_channels, plane % self.out_channels);
            // Every position is written and only a hit is kept, so the list
            // takes no branch per position.
            let mut n = 0;
            for (oy, go_row) in go.chunks(ow).enumerate() {
                for (ox, &g) in go_row.iter().enumerate() {
                    hits[n] = (oy * w + ox, g);
                    n += usize::from(g != 0.0);
                }
            }
            for &(_, g) in &hits[..n] {
                gb[oc] += g;
            }
            let at = b * in_channels * plane_len;
            let mut gi_b = grad_input.as_mut().map(|gi| &mut gi.data_mut()[at..]);
            let gw_oc = grad_weight[oc * taps..][..taps].chunks_exact_mut(k * k);
            let w_oc = weight[oc * taps..][..taps].chunks_exact(k * k);
            for (ic, (gw, w_c)) in gw_oc.zip(w_oc).enumerate() {
                let gi = gi_b
                    .as_deref_mut()
                    .map(|gi| (&mut gi[ic * plane_len..], w_c));
                // The input on from the channel's plane: a wide read past its
                // last row lands in lanes that are never stored.
                walk(gw, &x[at + ic * plane_len..], gi, w, &hits[..n]);
            }
        }
        Ok(grad_input.unwrap_or_else(|| Tensor::zeros(&[0])))
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
        let out_dim = |len: usize| len.checked_sub(self.kernel).map(|d| d + 1);
        let (Some(oh), Some(ow)) = (out_dim(shape[2]), out_dim(shape[3])) else {
            return Err(TensorError::ShapeMismatch {
                lhs: shape.to_vec(),
                rhs: vec![self.kernel],
                op: "conv2d_kernel_larger_than_input",
            });
        };
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
        let (h, w, k) = (input.shape()[2], input.shape()[3], self.kernel);
        // One output plane is accumulated in rows `w` apart, so the input
        // element under a tap sits at a fixed offset plus the accumulator
        // index, across row ends too (computing the never-copied-out columns
        // `ow..w` on the way); the last element's last tap reads the input
        // plane's last element.
        self.rows.resize((oh - 1) * w + ow, 0.0);
        let (sweep, taps) = (KERNELS[k - 1].0, in_channels * k * k);
        let mut out = Tensor::zeros(&[batch, self.out_channels, oh, ow]);
        let (weight, bias) = params.split_at(self.weight_len());
        for (plane, out_plane) in out.data_mut().chunks_mut(oh * ow).enumerate() {
            let (b, oc) = (plane / self.out_channels, plane % self.out_channels);
            let x_b = input.data()[b * in_channels * h * w..].chunks_exact(h * w);
            self.rows.fill(bias[oc]);
            for (x_c, w_c) in x_b.zip(weight[oc * taps..][..taps].chunks_exact(k * k)) {
                sweep(&mut self.rows, x_c, w_c, w);
            }
            for (out_row, row) in out_plane.chunks_mut(ow).zip(self.rows.chunks(w)) {
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
                        for ic in 0..conv.in_channels {
                            for ky in 0..k {
                                let iy = oy + ky;
                                for kx in 0..k {
                                    let ix = ox + kx;
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
                        for ic in 0..conv.in_channels {
                            for ky in 0..k {
                                let iy = oy + ky;
                                for kx in 0..k {
                                    let ix = ox + kx;
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
            for _ in 0..6 {
                for batch in [1usize, 3] {
                    let (ic, oc) = (1 + cases % 4, 1 + (cases / 4 + kernel) % 4);
                    let (h, w) = (6 + cases % 3, 10 - cases % 2);
                    cases += 1;
                    let label = format!("k{kernel} b{batch} {ic}->{oc} {h}x{w}");
                    let (mut conv, mut params) = lenet_conv(ic, oc, kernel, cases as u64);
                    let at = params.len() - oc;
                    params[at..].copy_from_slice(uniform(&[oc], 0.0).data());
                    let new = || Conv2d::new(ic, oc, kernel);
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
        assert_eq!(cases, 48);
    }

    /// A layer with its parameters drawn from `seed`.
    fn lenet_conv(ic: usize, oc: usize, k: usize, seed: u64) -> (Conv2d, Vec<f32>) {
        let conv = Conv2d::new(ic, oc, k);
        let mut params = vec![0.0; conv.param_len()];
        conv.init(&mut SmallRng::seed_from_u64(seed), &mut params);
        (conv, params)
    }

    #[test]
    fn pool_shaped_gradients_match_reference_bits() {
        // What max-pooling and ReLU hand a convolution: at most one non-zero
        // per 2×2 window, some of them `-0.0`. The last example also has hits
        // all along its last output row and column, where a read wider than
        // the kernel would pass the end of the input.
        let mut rng = SmallRng::seed_from_u64(27);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (ic, oc, k, batch, h, w) in [
            (3, 4, 3, 2, 16, 16),
            (4, 8, 3, 3, 7, 7),
            (1, 2, 3, 2, 12, 12),
            (2, 4, 3, 2, 5, 5),
            (3, 6, 5, 1, 32, 32),
            (6, 16, 5, 2, 14, 14),
            (2, 3, 1, 2, 5, 6),
            (1, 2, 2, 3, 6, 5),
            (2, 2, 4, 1, 9, 7),
        ] {
            let label = format!("k{k} b{batch} {ic}->{oc} {h}x{w}");
            let (mut conv, params) = lenet_conv(ic, oc, k, (h * w) as u64);
            let x = (0..batch * ic * h * w)
                .map(|_| rng.gen::<f32>() - 0.5)
                .collect();
            let x = Tensor::from_vec(x, &[batch, ic, h, w]).unwrap();
            let y = conv.forward(&params, &x, true).unwrap();
            assert_eq!(
                bits(y.data()),
                bits(reference_forward(&conv, &params, &x).data())
            );
            let (oh, ow) = (y.shape()[2], y.shape()[3]);
            let mut g = Tensor::zeros(y.shape());
            for (plane, go) in g.data_mut().chunks_mut(oh * ow).enumerate() {
                for (wy, wx) in (0..oh / 2).flat_map(|wy| (0..ow / 2).map(move |wx| (wy, wx))) {
                    let at = (2 * wy + rng.gen_range(0..2)) * ow + 2 * wx + rng.gen_range(0..2);
                    go[at] = match rng.gen_range(0..10) {
                        0..=3 => 0.0,
                        4 => -0.0,
                        _ => rng.gen::<f32>() - 0.5,
                    };
                }
                if plane / oc == batch - 1 {
                    for at in (0..ow)
                        .map(|ox| (oh - 1) * ow + ox)
                        .chain((0..oh).map(|oy| oy * ow + ow - 1))
                    {
                        go[at] = rng.gen::<f32>() - 0.5;
                    }
                }
            }
            let mut grads = vec![0.0; params.len()];
            let at = params.len() - oc;
            let (mut gw, mut gb) = (vec![0.0; at], vec![0.0; oc]);
            let gi = conv.backward(&params, &mut grads, &g).unwrap();
            let want = reference_backward(&conv, &params, &x, &g, &mut gw, &mut gb);
            assert_eq!(bits(gi.data()), bits(want.data()), "grad_input {label}");
            assert_eq!(bits(&grads[..at]), bits(&gw), "grad_weight {label}");
            assert_eq!(bits(&grads[at..]), bits(&gb), "grad_bias {label}");
            conv.accumulate_grads(&params, &mut grads, &g).unwrap();
            reference_backward(&conv, &params, &x, &g, &mut gw, &mut gb);
            assert_eq!(
                bits(&grads[..at]),
                bits(&gw),
                "accumulated grad_weight {label}"
            );
            assert_eq!(
                bits(&grads[at..]),
                bits(&gb),
                "accumulated grad_bias {label}"
            );
        }
    }

    #[test]
    fn forward_matches_reference_bits_for_every_kernel_size() {
        // Every kernel size, trained and evaluated, with a tenth of the
        // inputs and weights `0.0` and a tenth `-0.0`. Each layer sees planes
        // whose output is one row or one column, where the sweep's last read
        // is the input plane's last element, in growing and shrinking order.
        let mut rng = SmallRng::seed_from_u64(54);
        let mut values = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| match rng.gen_range(0..10) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen::<f32>() - 0.5,
                })
                .collect()
        };
        let mut cases = 0;
        for k in 1..=5 {
            for (ic, oc) in [(1, 2), (3, 4)] {
                let (mut train, mut eval) = (Conv2d::new(ic, oc, k), Conv2d::new(ic, oc, k));
                let params = values(train.param_len());
                for (batch, h, w) in [(2, k, k + 6), (1, k + 5, k + 3), (3, k + 4, k), (2, k, k)] {
                    let label = format!("k{k} b{batch} {ic}->{oc} {h}x{w}");
                    let x = Tensor::from_vec(values(batch * ic * h * w), &[batch, ic, h, w]);
                    let x = x.unwrap();
                    let want = bits(reference_forward(&train, &params, &x).data());
                    let y = train.forward(&params, &x, true).unwrap();
                    assert_eq!(bits(y.data()), want, "forward {label}");
                    let y = eval.forward(&params, &x, false).unwrap();
                    assert_eq!(bits(y.data()), want, "eval {label}");
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 40);
    }

    #[test]
    fn identity_kernel_passes_input_through() {
        let mut conv = Conv2d::new(1, 1, 1);
        let x = Tensor::from_vec((0..9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let y = conv.forward(&[1.0, 0.0], &x, true).unwrap();
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        let mut conv = Conv2d::new(1, 1, 2);
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
    fn kernel_sets_the_output_size() {
        let out = |conv: Conv2d, shape: &[usize]| conv.check_input(shape).unwrap();
        assert_eq!(out(Conv2d::new(1, 2, 3), &[4, 1, 8, 8]), (4, 1, 6, 6));
        assert_eq!(out(Conv2d::new(1, 2, 5), &[1, 1, 32, 32]), (1, 1, 28, 28));
        assert_eq!(out(Conv2d::new(3, 4, 3), &[2, 3, 9, 7]), (2, 3, 7, 5));
    }

    #[test]
    fn rejects_bad_shapes() {
        let (mut conv, params) = lenet_conv(3, 4, 3, 0);
        let mut forward = |shape: &[usize]| conv.forward(&params, &Tensor::zeros(shape), true);
        assert!(forward(&[1, 2, 8, 8]).is_err());
        assert!(forward(&[1, 3, 2, 2]).is_err());
        assert!(forward(&[3, 8, 8]).is_err());
    }

    #[test]
    fn gradient_check_weights_and_input() {
        let (mut conv, mut params) = lenet_conv(2, 2, 2, 11);
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
        let (mut conv, params) = lenet_conv(1, 1, 2, 1);
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
        assert_eq!(Conv2d::new(3, 6, 5).param_len(), 6 * 3 * 5 * 5 + 6);
    }
}
