//! Concrete layer implementations.

mod activation;
mod conv2d;
mod dense;
mod dropout;
mod flatten;
mod maxpool2d;
mod softmax;

pub use activation::{Activation, ActivationKind};
pub use conv2d::Conv2d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use flatten::Flatten;
pub use maxpool2d::MaxPool2d;
pub use softmax::Softmax;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::tensor::{Tensor, TensorError};
    use fedco_rng::rngs::SmallRng;
    use fedco_rng::SeedableRng;

    #[test]
    fn evaluation_forward_leaves_no_training_cache() {
        let mut rng = SmallRng::seed_from_u64(3);
        let image = Tensor::ones(&[2, 1, 4, 4]);
        let row = Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5], &[2, 3]).unwrap();
        let cases: Vec<(Box<dyn Layer>, &Tensor)> = vec![
            (Box::new(Conv2d::new(1, 2, 3, 1, 0, &mut rng)), &image),
            (Box::new(MaxPool2d::new(2, 2)), &image),
            (Box::new(Flatten::new()), &image),
            (Box::new(Dense::new(3, 2, &mut rng)), &row),
            (Box::new(Activation::tanh()), &row),
            (Box::new(Dropout::new(0.5, 1)), &row),
            (Box::new(Softmax::new()), &row),
        ];
        for (mut layer, x) in cases {
            let name = layer.name();
            let g = Tensor::ones(layer.forward(x, true).unwrap().shape());
            assert!(
                layer.backward(&g).is_ok(),
                "{name}: backward after training forward"
            );
            // An evaluation pass must not be differentiable, nor leave the
            // earlier training batch behind to be differentiated by mistake.
            layer.forward(x, false).unwrap();
            match layer.backward(&g) {
                Err(TensorError::ShapeMismatch { op, .. }) => {
                    assert!(op.ends_with("_backward_without_forward"), "{name}: {op}");
                }
                other => panic!("{name}: backward after an evaluation forward gave {other:?}"),
            }
            layer.forward(x, true).unwrap();
            assert!(
                layer.backward(&g).is_ok(),
                "{name}: training forward re-arms backward"
            );
        }
    }
}
