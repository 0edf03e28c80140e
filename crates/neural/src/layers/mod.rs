//! The layers of LeNet-5.

mod conv2d;
mod dense;
mod flatten;
mod maxpool2d;
mod relu;

pub use conv2d::Conv2d;
pub use dense::Dense;
pub use flatten::Flatten;
pub use maxpool2d::MaxPool2d;
pub use relu::Relu;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::tensor::{Tensor, TensorError};

    #[test]
    fn evaluation_forward_leaves_no_training_cache() {
        let image = Tensor::ones(&[2, 1, 4, 4]);
        let row = Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5], &[2, 3]).unwrap();
        let cases: Vec<(&str, Box<dyn Layer>, &Tensor)> = vec![
            ("conv2d", Box::new(Conv2d::new(1, 2, 3)), &image),
            ("maxpool2d", Box::new(MaxPool2d::default()), &image),
            ("flatten", Box::new(Flatten::default()), &image),
            ("dense", Box::new(Dense::new(3, 2)), &row),
            ("relu", Box::new(Relu::default()), &row),
        ];
        for (name, mut layer, x) in cases {
            let params = vec![0.5; layer.param_len()];
            let mut grads = vec![0.0; layer.param_len()];
            let g = Tensor::ones(layer.forward(&params, x, true).unwrap().shape());
            let mut backward = |layer: &mut Box<dyn Layer>| layer.backward(&params, &mut grads, &g);
            assert!(
                backward(&mut layer).is_ok(),
                "{name}: backward after training forward"
            );
            // An evaluation pass must not be differentiable, nor leave the
            // earlier training batch behind to be differentiated by mistake.
            layer.forward(&params, x, false).unwrap();
            match backward(&mut layer) {
                Err(TensorError::ShapeMismatch { op, .. }) => {
                    assert!(op.ends_with("_backward_without_forward"), "{name}: {op}");
                }
                other => panic!("{name}: backward after an evaluation forward gave {other:?}"),
            }
            layer.forward(&params, x, true).unwrap();
            assert!(
                backward(&mut layer).is_ok(),
                "{name}: training forward re-arms backward"
            );
        }
    }
}
