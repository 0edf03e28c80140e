//! # fedco-neural
//!
//! Minimal, dependency-light neural-network training substrate used as the
//! on-device workload in the `fedco` reproduction of *"Energy Minimization
//! for Federated Asynchronous Learning on Battery-Powered Mobile Devices via
//! Application Co-running"* (ICDCS 2022).
//!
//! The paper runs LeNet-5 on CIFAR-10 with DL4J/OpenBLAS on Android; this
//! crate is what that training needs and nothing else, in pure Rust: dense
//! tensors, the five LeNet-5 layers (convolution, max-pooling, ReLU, flatten,
//! dense), a [`Sequential`] network that owns every parameter and gradient in
//! one flat buffer each (each layer reads its slice), softmax cross-entropy,
//! Eq. (1) SGD with momentum in one fused loop over those buffers (its
//! velocity feeds the paper's gradient-gap estimator), flat parameter vectors
//! for the model exchange and a synthetic CIFAR-like dataset.
//!
//! ## Quick example
//!
//! ```
//! use fedco_neural::lenet::LeNetConfig;
//! use fedco_neural::data::SyntheticCifarConfig;
//! use fedco_neural::loss::SoftmaxCrossEntropy;
//! use fedco_neural::optimizer::Sgd;
//! use fedco_rng::rngs::SmallRng;
//! use fedco_rng::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = SmallRng::seed_from_u64(0);
//! let cfg = LeNetConfig::tiny();
//! let mut net = cfg.build(&mut rng);
//! let data = SyntheticCifarConfig {
//!     image_size: cfg.image_size,
//!     channels: cfg.channels,
//!     classes: cfg.classes,
//!     examples: 32,
//!     ..Default::default()
//! }
//! .generate();
//! let (x, y) = data.batch(0, 8)?;
//! let mut opt = Sgd::with_learning_rate(0.05);
//! let step = net.train_batch(&x, &y, &SoftmaxCrossEntropy::new(), &mut opt)?;
//! assert!(step.loss.is_finite());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod data;
pub mod init;
pub mod layer;
pub mod layers;
pub mod lenet;
pub mod loss;
pub mod model;
pub mod optimizer;
pub mod tensor;

pub use data::{Dataset, Example, SyntheticCifarConfig};
pub use layer::Layer;
pub use lenet::LeNetConfig;
pub use loss::SoftmaxCrossEntropy;
pub use model::{ParamVector, Sequential, TrainStep};
pub use optimizer::{Sgd, SgdConfig};
pub use tensor::{Tensor, TensorError};
