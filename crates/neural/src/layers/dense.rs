//! Fully-connected (dense) layer.

use fedco_rng::RngCore;

use crate::init::xavier_uniform;
use crate::layer::{cache_for_backward, without_forward, Layer};
use crate::tensor::{Tensor, TensorError};

/// A fully-connected layer computing `y = x W + b`.
///
/// Input shape: `[batch, in_features]`. Output shape: `[batch, out_features]`.
/// The parameters are `W`, `[in_features, out_features]` row-major, then the
/// `out_features` biases.
///
/// # Examples
///
/// ```
/// use fedco_neural::layers::Dense;
/// use fedco_neural::layer::Layer;
/// use fedco_neural::tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut layer = Dense::new(4, 2);
/// let params = vec![0.5; layer.param_len()];
/// let y = layer.forward(&params, &Tensor::zeros(&[3, 4]), true)?;
/// assert_eq!(y.data(), &[0.5; 6]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
    /// `backward`'s accumulator for one row of `xᵀ g`.
    row: Vec<f32>,
    /// `backward`'s copy of `Wᵀ`, `[out_features, in_features]` row-major.
    weight_t: Vec<f32>,
}

impl Dense {
    /// Creates a dense layer; [`Layer::init`] draws Xavier-initialised
    /// weights and zero biases.
    pub fn new(in_features: usize, out_features: usize) -> Self {
        Dense {
            in_features,
            out_features,
            cached_input: None,
            row: vec![0.0; out_features],
            weight_t: vec![0.0; in_features * out_features],
        }
    }
}

impl Layer for Dense {
    fn param_len(&self) -> usize {
        (self.in_features + 1) * self.out_features
    }

    fn init(&self, rng: &mut dyn RngCore, params: &mut [f32]) {
        let (weight, bias) = params.split_at_mut(self.in_features * self.out_features);
        xavier_uniform(rng, weight, self.in_features, self.out_features);
        bias.fill(0.0);
    }

    fn forward(
        &mut self,
        params: &[f32],
        input: &Tensor,
        train: bool,
    ) -> Result<Tensor, TensorError> {
        let (n_in, n_out) = (self.in_features, self.out_features);
        if input.rank() != 2 || input.shape()[1] != n_in {
            return Err(TensorError::ShapeMismatch {
                lhs: input.shape().to_vec(),
                rhs: vec![0, n_in],
                op: "dense_forward",
            });
        }
        let (weight, bias) = params.split_at(n_in * n_out);
        let batch = input.shape()[0];
        let mut out = Tensor::zeros(&[batch, n_out]);
        // Each row of `x W` is summed from zero over the non-zero inputs, and
        // only then is the bias added.
        for (b, out_row) in out.data_mut().chunks_mut(n_out.max(1)).enumerate() {
            for (i, &xv) in input.data()[b * n_in..(b + 1) * n_in].iter().enumerate() {
                if xv != 0.0 {
                    let w_row = &weight[i * n_out..(i + 1) * n_out];
                    for (acc, &wv) in out_row.iter_mut().zip(w_row) {
                        *acc += xv * wv;
                    }
                }
            }
            for (acc, &bv) in out_row.iter_mut().zip(bias) {
                *acc += bv;
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
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| without_forward("dense_backward_without_forward"))?;
        let (batch, n_in, n_out) = (input.shape()[0], self.in_features, self.out_features);
        if grad_output.shape() != [batch, n_out] {
            return Err(TensorError::ShapeMismatch {
                lhs: grad_output.shape().to_vec(),
                rhs: vec![batch, n_out],
                op: "dense_backward",
            });
        }
        let (x, g) = (input.data(), grad_output.data());
        let weight = &params[..n_in * n_out];
        let (grad_weight, grad_bias) = grads.split_at_mut(weight.len());
        // grad_weight += xᵀ g. Each row of the product is summed over the
        // batch from zero and only then added, and zero inputs are skipped.
        for i in 0..n_in {
            self.row.fill(0.0);
            for b in 0..batch {
                let xv = x[b * n_in + i];
                if xv != 0.0 {
                    let g_row = &g[b * n_out..(b + 1) * n_out];
                    for (acc, &gv) in self.row.iter_mut().zip(g_row) {
                        *acc += xv * gv;
                    }
                }
            }
            let gw_row = &mut grad_weight[i * n_out..(i + 1) * n_out];
            for (gw, &acc) in gw_row.iter_mut().zip(&self.row) {
                *gw += acc;
            }
        }
        // grad_bias += column sums of g; grad_input = g Wᵀ, reading a row of
        // Wᵀ (a column of W) per gradient and skipping zero gradients.
        for i in 0..n_in {
            for j in 0..n_out {
                self.weight_t[j * n_in + i] = weight[i * n_out + j];
            }
        }
        let mut grad_input = Tensor::zeros(&[batch, n_in]);
        for b in 0..batch {
            let gi_row = &mut grad_input.data_mut()[b * n_in..(b + 1) * n_in];
            for (j, &gv) in g[b * n_out..(b + 1) * n_out].iter().enumerate() {
                grad_bias[j] += gv;
                if gv != 0.0 {
                    let wt_row = &self.weight_t[j * n_in..(j + 1) * n_in];
                    for (gi, &wv) in gi_row.iter_mut().zip(wt_row) {
                        *gi += gv * wv;
                    }
                }
            }
        }
        Ok(grad_input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedco_rng::rngs::SmallRng;
    use fedco_rng::{Rng, SeedableRng};

    /// W = [[1, 2], [3, 4]], b = [0.5, -0.5].
    const KNOWN: [f32; 6] = [1.0, 2.0, 3.0, 4.0, 0.5, -0.5];

    fn row(values: &[f32]) -> Tensor {
        Tensor::from_vec(values.to_vec(), &[1, values.len()]).unwrap()
    }

    #[test]
    fn forward_matches_hand_computation() {
        let mut d = Dense::new(2, 2);
        let y = d.forward(&KNOWN, &row(&[1.0, 1.0]), true).unwrap();
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn backward_produces_correct_gradients() {
        let mut d = Dense::new(2, 2);
        d.forward(&KNOWN, &row(&[1.0, 2.0]), true).unwrap();
        let mut grads = [0.0; 6];
        let gx = d.backward(&KNOWN, &mut grads, &row(&[1.0, 1.0])).unwrap();
        // grad_input = g W^T = [1*1+1*2, 1*3+1*4] = [3, 7]
        assert_eq!(gx.data(), &[3.0, 7.0]);
        // grad_weight = x^T g = [[1,1],[2,2]], grad_bias = g
        assert_eq!(grads, [1.0, 1.0, 2.0, 2.0, 1.0, 1.0]);
        // A second pass accumulates.
        d.backward(&KNOWN, &mut grads, &row(&[1.0, 1.0])).unwrap();
        assert_eq!(grads[0], 2.0);
    }

    #[test]
    fn numeric_gradient_check() {
        // Finite-difference check of dL/dW for L = sum(forward(x)).
        let mut d = Dense::new(3, 2);
        let mut params = vec![0.0; d.param_len()];
        d.init(&mut SmallRng::seed_from_u64(7), &mut params);
        let x = Tensor::from_vec(vec![0.3, -0.2, 0.9, 0.1, 0.5, -0.7], &[2, 3]).unwrap();
        let y = d.forward(&params, &x, true).unwrap();
        let g = Tensor::from_vec(vec![1.0; y.len()], y.shape()).unwrap();
        let mut analytic = vec![0.0; params.len()];
        d.backward(&params, &mut analytic, &g).unwrap();
        let eps = 1e-3f32;
        for idx in 0..6 {
            let orig = params[idx];
            params[idx] = orig + eps;
            let plus = d.forward(&params, &x, true).unwrap().sum();
            params[idx] = orig - eps;
            let minus = d.forward(&params, &x, true).unwrap().sum();
            params[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (numeric - analytic[idx]).abs() < 1e-2,
                "param {idx}: numeric {numeric} vs analytic {}",
                analytic[idx]
            );
        }
    }

    /// `Tensor::matmul` as `forward` and `backward` used to call it.
    fn matmul(a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                for (d, &bv) in out[i * n..(i + 1) * n].iter_mut().zip(&b[p * n..]) {
                    *d += av * bv;
                }
            }
        }
        out
    }

    fn transpose(a: &[f32], (m, n): (usize, usize)) -> Vec<f32> {
        (0..n * m).map(|t| a[t % m * n + t / m]).collect()
    }

    #[test]
    fn kernels_match_reference_bits() {
        // The formulas `forward` and `backward` used to spell with tensor
        // ops: a product then the bias; two transposes, a temporary
        // product, `add_scaled(.., 1.0)`.
        let mut rng = SmallRng::seed_from_u64(5);
        let mut relu_like = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| (rng.gen::<f32>() - 0.4).max(0.0))
                .collect()
        };
        let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (batch, n_in, n_out) in [(1, 1, 1), (3, 5, 7), (20, 32, 48), (4, 9, 2)] {
            let mut d = Dense::new(n_in, n_out);
            let mut params = vec![0.0; d.param_len()];
            d.init(&mut SmallRng::seed_from_u64(n_in as u64), &mut params);
            params[n_in * n_out..].copy_from_slice(&relu_like(n_out));
            let (weight, bias) = params.split_at(n_in * n_out);
            let x = relu_like(batch * n_in);
            let y = d
                .forward(
                    &params,
                    &Tensor::from_vec(x.clone(), &[batch, n_in]).unwrap(),
                    true,
                )
                .unwrap();
            let mut want = matmul(&x, weight, (batch, n_in, n_out));
            for (acc, &bv) in want.iter_mut().zip(bias.iter().cycle()) {
                *acc += bv;
            }
            assert_eq!(
                bits(y.data()),
                bits(&want),
                "forward {batch}x{n_in}x{n_out}"
            );
            let mut grads = vec![0.0; params.len()];
            let mut gw = vec![0.0f32; n_in * n_out];
            let mut gb = vec![0.0f32; n_out];
            // The second pass accumulates into non-zero gradients.
            for _ in 0..2 {
                let g: Vec<f32> = relu_like(batch * n_out).iter().map(|v| v * -1.5).collect();
                let gt = Tensor::from_vec(g.clone(), &[batch, n_out]).unwrap();
                let gx = d.backward(&params, &mut grads, &gt).unwrap();
                let product = matmul(&transpose(&x, (batch, n_in)), &g, (n_in, batch, n_out));
                for (acc, &v) in gw.iter_mut().zip(&product) {
                    *acc += 1.0 * v;
                }
                for row in g.chunks(n_out) {
                    for (acc, &v) in gb.iter_mut().zip(row) {
                        *acc += v;
                    }
                }
                let want = matmul(&g, &transpose(weight, (n_in, n_out)), (batch, n_out, n_in));
                assert_eq!(
                    bits(gx.data()),
                    bits(&want),
                    "grad_input {batch}x{n_in}x{n_out}"
                );
                assert_eq!(bits(&grads[..n_in * n_out]), bits(&gw), "grad_weight");
                assert_eq!(bits(&grads[n_in * n_out..]), bits(&gb), "grad_bias");
            }
        }
    }

    #[test]
    fn signed_zero_gradients_match_reference_bits() {
        // Inputs, weights and `g` hold exact `0.0` and `-0.0` entries, and the
        // gradients start from a mix of both zeros, so a zero term that is
        // skipped where it was added (or the reverse) shows in a sign bit.
        let mut rng = SmallRng::seed_from_u64(28);
        let mut draw = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| match rng.gen_range(0..6) {
                    0 | 1 => 0.0,
                    2 => -0.0,
                    _ => rng.gen::<f32>() - 0.5,
                })
                .collect()
        };
        let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (batch, n_in, n_out) in [(1, 1, 1), (3, 5, 7), (20, 32, 48), (20, 48, 24), (4, 9, 2)] {
            let mut d = Dense::new(n_in, n_out);
            let params = draw(d.param_len());
            let weight = &params[..n_in * n_out];
            let x = draw(batch * n_in);
            let x_tensor = Tensor::from_vec(x.clone(), &[batch, n_in]).unwrap();
            d.forward(&params, &x_tensor, true).unwrap();
            let mut grads: Vec<f32> = (draw(params.len()).iter())
                .map(|v| if v.is_sign_negative() { -0.0 } else { 0.0 })
                .collect();
            let (mut gw, mut gb) = (
                grads[..weight.len()].to_vec(),
                grads[weight.len()..].to_vec(),
            );
            for _ in 0..2 {
                let g = draw(batch * n_out);
                let gt = Tensor::from_vec(g.clone(), &[batch, n_out]).unwrap();
                let gx = d.backward(&params, &mut grads, &gt).unwrap();
                let product = matmul(&transpose(&x, (batch, n_in)), &g, (n_in, batch, n_out));
                for (acc, &v) in gw.iter_mut().zip(&product) {
                    *acc += 1.0 * v;
                }
                for row in g.chunks(n_out) {
                    for (acc, &v) in gb.iter_mut().zip(row) {
                        *acc += v;
                    }
                }
                let want = matmul(&g, &transpose(weight, (n_in, n_out)), (batch, n_out, n_in));
                let label = format!("{batch}x{n_in}x{n_out}");
                assert_eq!(bits(gx.data()), bits(&want), "grad_input {label}");
                assert_eq!(
                    bits(&grads[..weight.len()]),
                    bits(&gw),
                    "grad_weight {label}"
                );
                assert_eq!(bits(&grads[weight.len()..]), bits(&gb), "grad_bias {label}");
            }
        }
    }

    #[test]
    fn rejects_wrong_input_width() {
        let mut d = Dense::new(4, 2);
        let params = vec![0.0; d.param_len()];
        assert!(d.forward(&params, &Tensor::zeros(&[1, 3]), true).is_err());
        assert_eq!(d.param_len(), 4 * 2 + 2);
    }
}
