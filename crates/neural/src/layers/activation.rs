//! Elementwise activation layers (ReLU, tanh, sigmoid).

use crate::layer::{cache_for_backward, Layer};
use crate::tensor::{Tensor, TensorError};

/// The kind of elementwise activation applied by an [`Activation`] layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationKind {
    /// Rectified linear unit: `max(0, x)`.
    Relu,
    /// Hyperbolic tangent (the classic LeNet-5 nonlinearity).
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl ActivationKind {
    fn apply(self, x: f32) -> f32 {
        match self {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::Tanh => x.tanh(),
            ActivationKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Derivative expressed in terms of the *output* value `y = f(x)`, the
    /// only thing the layer keeps (for ReLU, `y > 0` exactly when `x > 0`).
    fn derivative(self, y: f32) -> f32 {
        match self {
            ActivationKind::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::Tanh => 1.0 - y * y,
            ActivationKind::Sigmoid => y * (1.0 - y),
        }
    }
}

/// A stateless elementwise activation layer.
///
/// # Examples
///
/// ```
/// use fedco_neural::layers::{Activation, ActivationKind};
/// use fedco_neural::layer::Layer;
/// use fedco_neural::tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut relu = Activation::new(ActivationKind::Relu);
/// let y = relu.forward(&Tensor::from_slice(&[-1.0, 2.0]), true)?;
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Activation {
    kind: ActivationKind,
    cached_output: Option<Tensor>,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Activation {
            kind,
            cached_output: None,
        }
    }

    /// Convenience constructor for ReLU.
    pub fn relu() -> Self {
        Self::new(ActivationKind::Relu)
    }

    /// Convenience constructor for tanh.
    pub fn tanh() -> Self {
        Self::new(ActivationKind::Tanh)
    }

    /// Convenience constructor for sigmoid.
    pub fn sigmoid() -> Self {
        Self::new(ActivationKind::Sigmoid)
    }

    /// The activation kind.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }
}

impl Layer for Activation {
    fn name(&self) -> &'static str {
        match self.kind {
            ActivationKind::Relu => "relu",
            ActivationKind::Tanh => "tanh",
            ActivationKind::Sigmoid => "sigmoid",
        }
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, TensorError> {
        let out = input.map(|x| self.kind.apply(x));
        cache_for_backward(&mut self.cached_output, &out, train);
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, TensorError> {
        let output = self
            .cached_output
            .as_ref()
            .ok_or(TensorError::ShapeMismatch {
                lhs: vec![],
                rhs: vec![],
                op: "activation_backward_without_forward",
            })?;
        if grad_output.shape() != output.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: grad_output.shape().to_vec(),
                rhs: output.shape().to_vec(),
                op: "activation_backward",
            });
        }
        let mut grad = grad_output.clone();
        for (g, &y) in grad.data_mut().iter_mut().zip(output.data()) {
            *g *= self.kind.derivative(y);
        }
        Ok(grad)
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
        Ok(input_shape.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut l = Activation::relu();
        let x = Tensor::from_slice(&[-2.0, -0.5, 0.0, 0.5, 2.0]);
        let y = l.forward(&x, true).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 0.0, 0.5, 2.0]);
        let g = Tensor::ones(&[5]);
        let gx = l.backward(&g).unwrap();
        assert_eq!(gx.data(), &[0.0, 0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn tanh_matches_std() {
        let mut l = Activation::tanh();
        let x = Tensor::from_slice(&[0.3, -1.2]);
        let y = l.forward(&x, true).unwrap();
        assert!((y.data()[0] - 0.3f32.tanh()).abs() < 1e-6);
        assert!((y.data()[1] - (-1.2f32).tanh()).abs() < 1e-6);
        let g = Tensor::ones(&[2]);
        let gx = l.backward(&g).unwrap();
        assert!((gx.data()[0] - (1.0 - 0.3f32.tanh().powi(2))).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_range_and_derivative() {
        let mut l = Activation::sigmoid();
        let x = Tensor::from_slice(&[-10.0, 0.0, 10.0]);
        let y = l.forward(&x, true).unwrap();
        assert!(y.data()[0] < 0.01);
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data()[2] > 0.99);
        let g = Tensor::ones(&[3]);
        let gx = l.backward(&g).unwrap();
        assert!((gx.data()[1] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn finite_difference_check() {
        for kind in [
            ActivationKind::Relu,
            ActivationKind::Tanh,
            ActivationKind::Sigmoid,
        ] {
            let mut l = Activation::new(kind);
            let x = Tensor::from_slice(&[0.4, -0.7, 1.3]);
            l.forward(&x, true).unwrap();
            let g = Tensor::ones(&[3]);
            let gx = l.backward(&g).unwrap();
            let eps = 1e-3f32;
            for i in 0..3 {
                let mut xp = x.clone();
                xp.data_mut()[i] += eps;
                let mut xm = x.clone();
                xm.data_mut()[i] -= eps;
                let fp = l.forward(&xp, true).unwrap().sum();
                let fm = l.forward(&xm, true).unwrap().sum();
                let numeric = (fp - fm) / (2.0 * eps);
                assert!((numeric - gx.data()[i]).abs() < 1e-2, "{kind:?} idx {i}");
            }
        }
    }

    #[test]
    fn shape_is_preserved() {
        let l = Activation::relu();
        assert_eq!(l.output_shape(&[4, 3, 2]).unwrap(), vec![4, 3, 2]);
        assert_eq!(l.param_count(), 0);
    }

    #[test]
    fn backward_rejects_mismatched_grad() {
        let mut l = Activation::relu();
        l.forward(&Tensor::ones(&[2, 2]), true).unwrap();
        assert!(l.backward(&Tensor::ones(&[3])).is_err());
    }
}
