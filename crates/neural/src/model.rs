//! The [`Sequential`] network container and flat parameter vectors.

use fedco_rng::RngCore;

use crate::layer::Layer;
use crate::loss::{LossOutput, SoftmaxCrossEntropy};
use crate::optimizer::Sgd;
use crate::tensor::{Tensor, TensorError};

/// A flat, serialisable snapshot of all trainable parameters of a network.
///
/// This is the "model" that federated clients upload to / download from the
/// parameter server (2.5 MB for LeNet-5 in the paper). Norm arithmetic on
/// these vectors backs the gradient-gap staleness metric.
#[derive(Debug, PartialEq)]
pub struct ParamVector {
    values: Vec<f32>,
}

/// `clone_from` copies into the existing buffer (the derived one drops it
/// and allocates a new one).
impl Clone for ParamVector {
    fn clone(&self) -> Self {
        ParamVector::new(self.values.clone())
    }

    fn clone_from(&mut self, source: &Self) {
        self.values.clone_from(&source.values);
    }
}

impl ParamVector {
    /// Wraps a raw flat parameter buffer.
    pub fn new(values: Vec<f32>) -> Self {
        ParamVector { values }
    }

    /// Creates a zero vector of the given length.
    pub fn zeros(len: usize) -> Self {
        ParamVector {
            values: vec![0.0; len],
        }
    }

    /// The underlying values.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Mutable access to the underlying values.
    pub fn values_mut(&mut self) -> &mut [f32] {
        &mut self.values
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Euclidean norm.
    pub fn norm_l2(&self) -> f32 {
        self.values.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Euclidean distance to another vector of identical length.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the lengths differ.
    pub fn distance_l2(&self, other: &ParamVector) -> Result<f32, TensorError> {
        if self.len() != other.len() {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![self.len()],
                rhs: vec![other.len()],
                op: "param_vector_distance",
            });
        }
        Ok(self
            .values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum::<f32>()
            .sqrt())
    }

    /// In-place axpy: `self += other * scale`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the lengths differ.
    pub fn add_scaled(&mut self, other: &ParamVector, scale: f32) -> Result<(), TensorError> {
        if self.len() != other.len() {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![self.len()],
                rhs: vec![other.len()],
                op: "param_vector_add_scaled",
            });
        }
        for (a, b) in self.values.iter_mut().zip(&other.values) {
            *a += scale * b;
        }
        Ok(())
    }

    /// Averages a non-empty set of vectors with the given non-negative
    /// weights (FedAvg-style aggregation). The vectors are read where they
    /// are — a slice of vectors, or references picked out of a round's
    /// updates — and the only allocation is the result.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the inputs are empty,
    /// lengths differ, or the weights do not match the number of vectors.
    pub fn weighted_average<'a, I>(vectors: I, weights: &[f32]) -> Result<ParamVector, TensorError>
    where
        I: IntoIterator<Item = &'a ParamVector>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut vectors = vectors.into_iter().peekable();
        let count = vectors.len();
        let len = match vectors.peek() {
            Some(first) if count == weights.len() => first.len(),
            _ => {
                return Err(TensorError::ShapeMismatch {
                    lhs: vec![count],
                    rhs: vec![weights.len()],
                    op: "weighted_average",
                })
            }
        };
        let total: f32 = weights.iter().sum();
        let mut out = ParamVector::zeros(len);
        for (v, &w) in vectors.zip(weights) {
            out.add_scaled(
                v,
                if total > 0.0 {
                    w / total
                } else {
                    1.0 / count as f32
                },
            )?;
        }
        Ok(out)
    }

    /// Consumes the vector and returns the raw values.
    pub fn into_values(self) -> Vec<f32> {
        self.values
    }

    /// Approximate serialised size in bytes (4 bytes per `f32`), used by the
    /// transport model.
    pub fn size_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f32>()
    }
}

/// Outcome of training on one mini-batch.
#[derive(Debug, Clone, Copy)]
pub struct TrainStep {
    /// Mean loss over the batch.
    pub loss: f32,
    /// Fraction of correctly classified examples in the batch.
    pub accuracy: f32,
}

/// A feed-forward network: an ordered stack of [`Layer`]s over one flat
/// parameter buffer and one flat gradient buffer, of which each layer reads
/// its own [`Layer::param_len`]-long slice, in layer order.
#[derive(Debug)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    params: Vec<f32>,
    grads: Vec<f32>,
}

impl Sequential {
    /// A network of `layers`, each drawing its initial parameters from `rng`
    /// in turn.
    pub fn new<R: RngCore>(layers: Vec<Box<dyn Layer>>, rng: &mut R) -> Self {
        let len = layers.iter().map(|l| l.param_len()).sum();
        let mut params = vec![0.0; len];
        let mut rest = &mut params[..];
        for layer in &layers {
            let (own, tail) = rest.split_at_mut(layer.param_len());
            layer.init(rng, own);
            rest = tail;
        }
        Sequential {
            layers,
            params,
            grads: vec![0.0; len],
        }
    }

    /// Total number of scalar trainable parameters.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Runs the forward pass through every layer.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from any layer.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, TensorError> {
        let mut x: Option<Tensor> = None;
        let mut rest = &self.params[..];
        for layer in &mut self.layers {
            let (own, tail) = rest.split_at(layer.param_len());
            rest = tail;
            x = Some(layer.forward(own, x.as_ref().unwrap_or(input), train)?);
        }
        Ok(x.unwrap_or_else(|| input.clone()))
    }

    /// Trains on one mini-batch: forward, loss, backward, optimiser step.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers, the loss, or the optimiser.
    pub fn train_batch(
        &mut self,
        input: &Tensor,
        targets: &[usize],
        loss: &SoftmaxCrossEntropy,
        optimizer: &mut Sgd,
    ) -> Result<TrainStep, TensorError> {
        self.grads.fill(0.0);
        let logits = self.forward(input, true)?;
        let LossOutput {
            loss: loss_value,
            grad,
        } = loss.forward(&logits, targets)?;
        // Last layer to first. Nobody reads the gradient with respect to the
        // images, so the first layer is only asked for its parameter
        // gradients.
        let (mut g, mut end) = (grad, self.params.len());
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let own = end - layer.param_len()..end;
            end = own.start;
            let (params, grads) = (&self.params[own.clone()], &mut self.grads[own]);
            if i == 0 {
                layer.accumulate_grads(params, grads, &g)?;
            } else {
                g = layer.backward(params, grads, &g)?;
            }
        }
        optimizer.step(&mut self.params, &self.grads)?;
        Ok(TrainStep {
            loss: loss_value,
            accuracy: batch_accuracy(&logits, targets),
        })
    }

    /// Evaluates classification accuracy on a batch.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    pub fn evaluate(&mut self, input: &Tensor, targets: &[usize]) -> Result<f32, TensorError> {
        let logits = self.forward(input, false)?;
        if logits.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: logits.rank(),
                op: "evaluate",
            });
        }
        Ok(batch_accuracy(&logits, targets))
    }

    /// Copies all parameters out as one flat vector.
    pub fn parameters(&self) -> ParamVector {
        ParamVector::new(self.params.clone())
    }

    /// Loads all parameters from a flat vector produced by
    /// [`Sequential::parameters`] on a network with identical architecture.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the vector length differs
    /// from the network's parameter count.
    pub fn set_parameters(&mut self, params: &ParamVector) -> Result<(), TensorError> {
        if params.len() != self.params.len() {
            return Err(TensorError::LengthMismatch {
                expected: self.params.len(),
                actual: params.len(),
            });
        }
        self.params.copy_from_slice(params.values());
        Ok(())
    }
}

/// Fraction of rows of `logits` whose argmax (first index on ties) equals
/// the target label; zero unless `logits` is rank 2 with a row per target.
fn batch_accuracy(logits: &Tensor, targets: &[usize]) -> f32 {
    if logits.rank() != 2 || targets.is_empty() || logits.shape()[0] != targets.len() {
        return 0.0;
    }
    let rows = logits.data().chunks(logits.shape()[1].max(1));
    let argmax = |row: &[f32]| {
        let mut best = 0usize;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        best
    };
    let correct = rows
        .zip(targets)
        .filter(|(row, &t)| argmax(row) == t)
        .count();
    correct as f32 / targets.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::optimizer::SgdConfig;
    use fedco_rng::rngs::SmallRng;
    use fedco_rng::SeedableRng;

    fn small_mlp(seed: u64) -> Sequential {
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Dense::new(4, 16)),
            Box::new(Relu::default()),
            Box::new(Dense::new(16, 3)),
        ];
        Sequential::new(layers, &mut SmallRng::seed_from_u64(seed))
    }

    #[test]
    fn forward_shapes_flow_through() {
        let mut net = small_mlp(0);
        let y = net.forward(&Tensor::ones(&[5, 4]), false).unwrap();
        assert_eq!(y.shape(), &[5, 3]);
        assert_eq!(net.param_count(), 4 * 16 + 16 + 16 * 3 + 3);
    }

    #[test]
    fn clone_from_reuses_the_buffer() {
        let source = ParamVector::new(vec![1.5, -0.0, f32::MIN_POSITIVE]);
        let mut into = ParamVector::zeros(3);
        let buffer = into.values().as_ptr();
        into.clone_from(&source);
        assert_eq!(into.values().as_ptr(), buffer);
        let bits = |p: &ParamVector| p.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&into), bits(&source));
    }

    #[test]
    fn parameter_roundtrip() {
        let net = small_mlp(1);
        let params = net.parameters();
        assert_eq!(params.len(), net.param_count());
        let mut net2 = small_mlp(2);
        assert_ne!(net2.parameters(), params);
        net2.set_parameters(&params).unwrap();
        assert_eq!(net2.parameters(), params);
        // Wrong length is rejected.
        assert!(net2.set_parameters(&ParamVector::zeros(3)).is_err());
    }

    #[test]
    fn identical_params_give_identical_outputs() {
        let mut a = small_mlp(3);
        let mut b = small_mlp(4);
        b.set_parameters(&a.parameters()).unwrap();
        let x = Tensor::from_vec(vec![0.1, -0.4, 0.9, 0.2], &[1, 4]).unwrap();
        assert_eq!(a.forward(&x, false).unwrap(), b.forward(&x, false).unwrap());
    }

    #[test]
    fn training_reduces_loss_on_toy_problem() {
        // Learn to map 3 distinct one-hot-ish inputs to 3 classes.
        let mut net = small_mlp(5);
        let x = Tensor::from_vec(
            vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
            &[3, 4],
        )
        .unwrap();
        let y = [0usize, 1, 2];
        let loss = SoftmaxCrossEntropy::new();
        let mut opt = Sgd::new(SgdConfig {
            learning_rate: 0.5,
            momentum: 0.9,
        });
        let first = net.train_batch(&x, &y, &loss, &mut opt).unwrap();
        let mut last = first;
        for _ in 0..100 {
            last = net.train_batch(&x, &y, &loss, &mut opt).unwrap();
        }
        assert!(
            last.loss < first.loss,
            "loss did not decrease: {} -> {}",
            first.loss,
            last.loss
        );
        assert!(last.accuracy > 0.99, "accuracy {}", last.accuracy);
        assert_eq!(net.evaluate(&x, &y).unwrap(), 1.0);
        assert_eq!(opt.velocity().len(), net.param_count());
    }

    #[test]
    fn batch_accuracy_helper() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 0.0, 5.0, 1.0, 0.0], &[2, 3]).unwrap();
        assert_eq!(batch_accuracy(&logits, &[1, 0]), 1.0);
        assert_eq!(batch_accuracy(&logits, &[0, 0]), 0.5);
        assert_eq!(batch_accuracy(&logits, &[0]), 0.0);
    }

    #[test]
    fn param_vector_arithmetic() {
        let a = ParamVector::new(vec![1.0, 2.0, 3.0]);
        let b = ParamVector::new(vec![0.0, 2.0, 5.0]);
        assert!((a.distance_l2(&b).unwrap() - (1.0f32 + 4.0).sqrt()).abs() < 1e-6);
        assert!((a.norm_l2() - 14.0f32.sqrt()).abs() < 1e-6);
        let avg = ParamVector::weighted_average(&[a.clone(), b.clone()], &[1.0, 1.0]).unwrap();
        assert_eq!(avg.values(), &[0.5, 2.0, 4.0]);
        assert_eq!(a.size_bytes(), 12);
        let mut c = ParamVector::zeros(3);
        c.add_scaled(&a, 2.0).unwrap();
        assert_eq!(c.values(), &[2.0, 4.0, 6.0]);
        assert!(c.add_scaled(&ParamVector::zeros(2), 1.0).is_err());
        assert!(ParamVector::weighted_average(&[], &[]).is_err());
    }

    #[test]
    fn weighted_average_respects_weights() {
        let a = ParamVector::new(vec![0.0]);
        let b = ParamVector::new(vec![10.0]);
        let avg = ParamVector::weighted_average(&[a, b], &[3.0, 1.0]).unwrap();
        assert!((avg.values()[0] - 2.5).abs() < 1e-6);
    }
}
