//! Fully-connected (dense) layer.

use fedco_rng::Rng;

use crate::init::Initializer;
use crate::layer::{cache_for_backward, Layer, ParamPair};
use crate::tensor::{Tensor, TensorError};

/// A fully-connected layer computing `y = x W + b`.
///
/// Input shape: `[batch, in_features]`. Output shape: `[batch, out_features]`.
///
/// # Examples
///
/// ```
/// use fedco_neural::layers::Dense;
/// use fedco_neural::layer::Layer;
/// use fedco_neural::tensor::Tensor;
/// use fedco_rng::rngs::SmallRng;
/// use fedco_rng::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = SmallRng::seed_from_u64(0);
/// let mut layer = Dense::new(4, 2, &mut rng);
/// let x = Tensor::ones(&[3, 4]);
/// let y = layer.forward(&x, true)?;
/// assert_eq!(y.shape(), &[3, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    params: ParamPair,
    cached_input: Option<Tensor>,
    /// `backward`'s accumulator for one row of `xᵀ g`.
    row: Vec<f32>,
}

impl Dense {
    /// Creates a dense layer with Xavier-initialised weights and zero biases.
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        Self::with_initializer(in_features, out_features, Initializer::XavierUniform, rng)
    }

    /// Creates a dense layer with a specific weight initialiser.
    pub fn with_initializer<R: Rng + ?Sized>(
        in_features: usize,
        out_features: usize,
        init: Initializer,
        rng: &mut R,
    ) -> Self {
        let weight = init.init(rng, &[in_features, out_features], in_features, out_features);
        let bias = Tensor::zeros(&[out_features]);
        Dense {
            in_features,
            out_features,
            params: ParamPair::new(weight, bias),
            cached_input: None,
            row: vec![0.0; out_features],
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, TensorError> {
        if input.rank() != 2 || input.shape()[1] != self.in_features {
            return Err(TensorError::ShapeMismatch {
                lhs: input.shape().to_vec(),
                rhs: vec![0, self.in_features],
                op: "dense_forward",
            });
        }
        let mut out = input.matmul(&self.params.weight)?;
        let batch = input.shape()[0];
        for b in 0..batch {
            for j in 0..self.out_features {
                let idx = b * self.out_features + j;
                out.data_mut()[idx] += self.params.bias.data()[j];
            }
        }
        cache_for_backward(&mut self.cached_input, input, train);
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, TensorError> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(TensorError::ShapeMismatch {
                lhs: vec![],
                rhs: vec![],
                op: "dense_backward_without_forward",
            })?;
        let (batch, n_in, n_out) = (input.shape()[0], self.in_features, self.out_features);
        if grad_output.shape() != [batch, n_out] {
            return Err(TensorError::ShapeMismatch {
                lhs: grad_output.shape().to_vec(),
                rhs: vec![batch, n_out],
                op: "dense_backward",
            });
        }
        let (x, g) = (input.data(), grad_output.data());
        // grad_weight += xᵀ g. Each row of the product is summed over the
        // batch from zero and only then added, and zero inputs are skipped:
        // the order (and so the bits) of `xᵀ.matmul(g)` followed by `+=`.
        let grad_weight = self.params.grad_weight.data_mut();
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
        // grad_bias += column sums of g; grad_input = g Wᵀ, reading W down
        // its columns instead of transposing it and skipping zero gradients
        // as `matmul` skips them.
        let weight = self.params.weight.data();
        let grad_bias = self.params.grad_bias.data_mut();
        let mut grad_input = Tensor::zeros(&[batch, n_in]);
        for b in 0..batch {
            let gi_row = &mut grad_input.data_mut()[b * n_in..(b + 1) * n_in];
            for (j, &gv) in g[b * n_out..(b + 1) * n_out].iter().enumerate() {
                grad_bias[j] += gv;
                if gv != 0.0 {
                    for (i, gi) in gi_row.iter_mut().enumerate() {
                        *gi += gv * weight[i * n_out + j];
                    }
                }
            }
        }
        Ok(grad_input)
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.params.weight, &self.params.bias]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.params.grad_weight, &self.params.grad_bias]
    }

    fn params_with_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        self.params.with_grads()
    }

    fn zero_grads(&mut self) {
        self.params.zero_grads();
    }

    fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>, TensorError> {
        if input_shape.len() != 2 || input_shape[1] != self.in_features {
            return Err(TensorError::ShapeMismatch {
                lhs: input_shape.to_vec(),
                rhs: vec![0, self.in_features],
                op: "dense_output_shape",
            });
        }
        Ok(vec![input_shape[0], self.out_features])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedco_rng::rngs::SmallRng;
    use fedco_rng::SeedableRng;

    fn layer_with_known_weights() -> Dense {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut d = Dense::new(2, 2, &mut rng);
        // W = [[1, 2], [3, 4]], b = [0.5, -0.5]
        *d.params_mut()[0] = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        *d.params_mut()[1] = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        d
    }

    #[test]
    fn forward_matches_hand_computation() {
        let mut d = layer_with_known_weights();
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = d.forward(&x, true).unwrap();
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn backward_produces_correct_gradients() {
        let mut d = layer_with_known_weights();
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        d.forward(&x, true).unwrap();
        let g = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let gx = d.backward(&g).unwrap();
        // grad_input = g W^T = [1*1+1*2, 1*3+1*4] = [3, 7]
        assert_eq!(gx.data(), &[3.0, 7.0]);
        // grad_weight = x^T g = [[1,1],[2,2]]
        assert_eq!(d.grads()[0].data(), &[1.0, 1.0, 2.0, 2.0]);
        assert_eq!(d.grads()[1].data(), &[1.0, 1.0]);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut d = layer_with_known_weights();
        let x = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]).unwrap();
        let g = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]).unwrap();
        d.forward(&x, true).unwrap();
        d.backward(&g).unwrap();
        d.forward(&x, true).unwrap();
        d.backward(&g).unwrap();
        assert_eq!(d.grads()[0].data()[0], 2.0);
        d.zero_grads();
        assert!(d.grads()[0].data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn numeric_gradient_check() {
        // Finite-difference check of dL/dW for L = sum(forward(x)).
        let mut rng = SmallRng::seed_from_u64(7);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Tensor::from_vec(vec![0.3, -0.2, 0.9, 0.1, 0.5, -0.7], &[2, 3]).unwrap();
        let y = d.forward(&x, true).unwrap();
        let g = Tensor::ones(y.shape());
        d.backward(&g).unwrap();
        let analytic = d.grads()[0].clone();
        let eps = 1e-3f32;
        for idx in 0..analytic.len() {
            let orig = d.params()[0].data()[idx];
            d.params_mut()[0].data_mut()[idx] = orig + eps;
            let plus = d.forward(&x, true).unwrap().sum();
            d.params_mut()[0].data_mut()[idx] = orig - eps;
            let minus = d.forward(&x, true).unwrap().sum();
            d.params_mut()[0].data_mut()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (numeric - analytic.data()[idx]).abs() < 1e-2,
                "param {idx}: numeric {numeric} vs analytic {}",
                analytic.data()[idx]
            );
        }
    }

    #[test]
    fn backward_matches_reference_bits() {
        // The formulas `backward` used to spell with tensor ops: two
        // transposes, a temporary product, `add_scaled(.., 1.0)`.
        let mut rng = SmallRng::seed_from_u64(5);
        let mut relu_like = |shape: &[usize]| {
            let len = shape.iter().product();
            let data = (0..len)
                .map(|_| (rng.gen::<f32>() - 0.4).max(0.0))
                .collect();
            Tensor::from_vec(data, shape).unwrap()
        };
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (batch, n_in, n_out) in [(1, 1, 1), (3, 5, 7), (20, 32, 48), (4, 9, 2)] {
            let mut d = Dense::new(n_in, n_out, &mut SmallRng::seed_from_u64(n_in as u64));
            let x = relu_like(&[batch, n_in]);
            d.forward(&x, true).unwrap();
            let mut gw = Tensor::zeros(&[n_in, n_out]);
            let mut gb = vec![0.0f32; n_out];
            // The second pass accumulates into non-zero gradients.
            for _ in 0..2 {
                let g = relu_like(&[batch, n_out]).scale(-1.5);
                let gx = d.backward(&g).unwrap();
                let product = x.transpose().unwrap().matmul(&g).unwrap();
                gw.add_scaled(&product, 1.0).unwrap();
                for row in g.data().chunks(n_out) {
                    for (acc, &v) in gb.iter_mut().zip(row) {
                        *acc += v;
                    }
                }
                let want = g.matmul(&d.params()[0].transpose().unwrap()).unwrap();
                assert_eq!(bits(&gx), bits(&want), "grad_input {batch}x{n_in}x{n_out}");
                assert_eq!(bits(d.grads()[0]), bits(&gw), "grad_weight");
                assert_eq!(
                    bits(d.grads()[1]),
                    bits(&Tensor::from_slice(&gb)),
                    "grad_bias"
                );
            }
        }
    }

    #[test]
    fn rejects_wrong_input_width() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut d = Dense::new(4, 2, &mut rng);
        let x = Tensor::ones(&[1, 3]);
        assert!(d.forward(&x, true).is_err());
        assert!(d.output_shape(&[1, 3]).is_err());
        assert_eq!(d.output_shape(&[5, 4]).unwrap(), vec![5, 2]);
    }

    #[test]
    fn param_count_matches() {
        let mut rng = SmallRng::seed_from_u64(2);
        let d = Dense::new(4, 3, &mut rng);
        assert_eq!(d.param_count(), 4 * 3 + 3);
        assert_eq!(d.in_features(), 4);
        assert_eq!(d.out_features(), 3);
    }
}
