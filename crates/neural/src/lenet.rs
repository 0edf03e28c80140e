//! LeNet-5 model builders — the training workload used by the paper.

use fedco_rng::RngCore;

use crate::layer::Layer;
use crate::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
use crate::model::Sequential;

/// Configuration of a LeNet-style convolutional classifier.
///
/// The full-size configuration matches the paper's workload (LeNet-5 on
/// 32×32×3 CIFAR-10 images). Down-scaled variants keep the same topology but
/// shrink the spatial resolution and channel counts so the simulator can run
/// thousands of local epochs quickly while exercising identical code paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeNetConfig {
    /// Input image side length (images are square).
    pub image_size: usize,
    /// Number of input channels (3 for CIFAR-like RGB data).
    pub channels: usize,
    /// Number of output classes.
    pub classes: usize,
    /// Channels of the first convolution (6 in LeNet-5).
    pub conv1_channels: usize,
    /// Channels of the second convolution (16 in LeNet-5).
    pub conv2_channels: usize,
    /// Width of the first dense layer (120 in LeNet-5).
    pub fc1: usize,
    /// Width of the second dense layer (84 in LeNet-5).
    pub fc2: usize,
}

impl LeNetConfig {
    /// The classic LeNet-5 configuration for 32×32×3 inputs and 10 classes.
    pub fn lenet5() -> Self {
        LeNetConfig {
            image_size: 32,
            channels: 3,
            classes: 10,
            conv1_channels: 6,
            conv2_channels: 16,
            fc1: 120,
            fc2: 84,
        }
    }

    /// A down-scaled variant (16×16 inputs, fewer filters) for fast
    /// simulation-driven convergence experiments.
    pub fn compact() -> Self {
        LeNetConfig {
            image_size: 16,
            channels: 3,
            classes: 10,
            conv1_channels: 4,
            conv2_channels: 8,
            fc1: 48,
            fc2: 24,
        }
    }

    /// A tiny variant (12×12 grayscale) for unit tests.
    pub fn tiny() -> Self {
        LeNetConfig {
            image_size: 12,
            channels: 1,
            classes: 4,
            conv1_channels: 2,
            conv2_channels: 4,
            fc1: 16,
            fc2: 8,
        }
    }

    /// Spatial size after the two conv+pool stages (5 for the 32×32 LeNet-5).
    ///
    /// Both convolutions use 5×5 kernels without padding followed by 2×2 max
    /// pooling; the down-scaled variants use 3×3 kernels when the input is
    /// small so the feature map never collapses below 1×1.
    pub fn conv_kernel(&self) -> usize {
        if self.image_size >= 28 {
            5
        } else {
            3
        }
    }

    /// Spatial side length of the feature map entering the dense layers.
    pub fn feature_map_side(&self) -> usize {
        let k = self.conv_kernel();
        let after_conv1 = self.image_size - k + 1;
        let after_pool1 = after_conv1 / 2;
        let after_conv2 = after_pool1 - k + 1;
        after_conv2 / 2
    }

    /// Number of inputs to the first dense layer.
    pub fn flattened_features(&self) -> usize {
        let side = self.feature_map_side();
        self.conv2_channels * side * side
    }

    /// Builds the network with ReLU activations, drawing the weights of
    /// the two convolutions and then of the three dense layers from `rng`.
    pub fn build<R: RngCore>(&self, rng: &mut R) -> Sequential {
        let k = self.conv_kernel();
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(self.channels, self.conv1_channels, k)),
            Box::new(Relu::default()),
            Box::new(MaxPool2d::default()),
            Box::new(Conv2d::new(self.conv1_channels, self.conv2_channels, k)),
            Box::new(Relu::default()),
            Box::new(MaxPool2d::default()),
            Box::new(Flatten::default()),
            Box::new(Dense::new(self.flattened_features(), self.fc1)),
            Box::new(Relu::default()),
            Box::new(Dense::new(self.fc1, self.fc2)),
            Box::new(Relu::default()),
            Box::new(Dense::new(self.fc2, self.classes)),
        ];
        Sequential::new(layers, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use fedco_rng::rngs::SmallRng;
    use fedco_rng::SeedableRng;

    #[test]
    fn lenet5_feature_geometry_matches_paper_model() {
        let cfg = LeNetConfig::lenet5();
        // 32 -> conv5 -> 28 -> pool -> 14 -> conv5 -> 10 -> pool -> 5
        assert_eq!(cfg.conv_kernel(), 5);
        assert_eq!(cfg.feature_map_side(), 5);
        assert_eq!(cfg.flattened_features(), 16 * 5 * 5);
    }

    #[test]
    fn lenet5_forward_pass_shape() {
        let mut rng = SmallRng::seed_from_u64(0);
        let cfg = LeNetConfig::lenet5();
        let mut net = cfg.build(&mut rng);
        let x = Tensor::zeros(&[2, 3, 32, 32]);
        let y = net.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &[2, 10]);
        // Classic LeNet-5 on 3-channel input: ~62k params plus the RGB conv1.
        assert!(
            net.param_count() > 50_000,
            "param count {}",
            net.param_count()
        );
    }

    #[test]
    fn compact_and_tiny_variants_are_consistent() {
        let mut rng = SmallRng::seed_from_u64(0);
        for cfg in [LeNetConfig::compact(), LeNetConfig::tiny()] {
            let mut net = cfg.build(&mut rng);
            let x = Tensor::zeros(&[1, cfg.channels, cfg.image_size, cfg.image_size]);
            let y = net.forward(&x, false).unwrap();
            assert_eq!(y.shape(), &[1, cfg.classes]);
            assert!(cfg.feature_map_side() >= 1);
        }
    }

    #[test]
    fn parameter_roundtrip_preserves_output() {
        let mut rng = SmallRng::seed_from_u64(3);
        let cfg = LeNetConfig::tiny();
        let mut a = cfg.build(&mut rng);
        let mut b = cfg.build(&mut rng);
        let x = Tensor::ones(&[1, 1, 12, 12]);
        b.set_parameters(&a.parameters()).unwrap();
        assert_eq!(a.forward(&x, false).unwrap(), b.forward(&x, false).unwrap());
    }
}
