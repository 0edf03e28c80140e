//! The on-device federated-learning client.
//!
//! A client holds a local replica of the model parameters, the mini-batches
//! of its data shard and the state of an SGD-with-momentum optimiser. A
//! *local epoch* (the unit of work scheduled by the paper's controller) is one
//! pass over the shard in mini-batches; it produces a [`LocalUpdate`] that is
//! uploaded to the parameter server when the epoch finishes.
//!
//! # The purity contract
//!
//! A device trains on its own between download and upload, so an epoch is a
//! pure function, [`EpochTask::run`], of what [`FlClient::epoch_task`]
//! captures: the replica's parameters, the shard's batches (built once,
//! shared read-only) and a copy of the optimiser state. It draws no random
//! number, shuffles nothing and reads nothing else — not the client, not the
//! server, not a clock — and it runs on a scratch network that belongs to
//! the executing thread, every parameter of which it overwrites first. Any
//! thread may therefore run it at any time after the task is taken, and
//! running it, or dropping its result, changes nothing anywhere.
//! [`FlClient::commit`] is the only mutation: it installs the trained replica
//! and the optimiser state the epoch ended with, and counts the epoch.
//! [`FlClient::local_epoch`] is the two in a row on the calling thread.

use std::cell::RefCell;
use std::sync::Arc;

use fedco_rng::rngs::SmallRng;
use fedco_rng::SeedableRng;

use fedco_neural::data::{Batch, Dataset};
use fedco_neural::lenet::LeNetConfig;
use fedco_neural::loss::SoftmaxCrossEntropy;
use fedco_neural::model::{ParamVector, Sequential};
use fedco_neural::optimizer::{Sgd, SgdConfig};
use fedco_neural::tensor::TensorError;

use crate::model_state::{LocalUpdate, ModelSnapshot, ModelVersion};
use crate::pool::Job;

/// Configuration of a federated client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientConfig {
    /// Mini-batch size (the paper retrieves CIFAR-10 in batches of 20).
    pub batch_size: usize,
    /// Learning rate `η`.
    pub learning_rate: f32,
    /// Momentum coefficient `β`.
    pub momentum: f32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            batch_size: 20,
            learning_rate: 0.05,
            momentum: 0.9,
        }
    }
}

thread_local! {
    /// The executing thread's scratch network and the architecture it was
    /// built for. Nothing survives in it from one use to the next: every
    /// parameter is overwritten before a pass, gradients are zeroed by each
    /// training step and the activation caches by each forward pass.
    static SCRATCH: RefCell<Option<(LeNetConfig, Sequential)>> = const { RefCell::new(None) };
}

/// Runs `f` on this thread's scratch network of the given architecture,
/// building it on first use (and again when the architecture changes).
fn with_scratch<R>(architecture: LeNetConfig, f: impl FnOnce(&mut Sequential) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut slot = cell.borrow_mut();
        if slot
            .as_ref()
            .is_some_and(|(built, _)| *built != architecture)
        {
            *slot = None;
        }
        let (_, network) = slot.get_or_insert_with(|| {
            let mut rng = SmallRng::seed_from_u64(0);
            (architecture, architecture.build(&mut rng))
        });
        f(network)
    })
}

/// What never changes about a client — who it is, how it trains and on what —
/// shared read-only between the client and the epochs it hands out.
#[derive(Debug)]
struct Shard {
    client_id: usize,
    config: ClientConfig,
    architecture: LeNetConfig,
    /// The mini-batches of one pass, or why the shard has none.
    batches: Result<Vec<Batch>, TensorError>,
    len: usize,
}

/// Everything one local epoch reads, captured by [`FlClient::epoch_task`].
#[derive(Debug, Clone)]
pub struct EpochTask {
    shard: Arc<Shard>,
    /// The parameters training starts from.
    params: ParamVector,
    base_version: ModelVersion,
    /// The optimiser state training starts from.
    optimizer: Sgd,
}

/// What one local epoch produces, installed by [`FlClient::commit`].
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    update: LocalUpdate,
    /// The optimiser state the epoch ended with.
    optimizer: Sgd,
}

impl Job for EpochTask {
    type Output = Result<EpochOutcome, TensorError>;

    /// Trains the epoch on the executing thread's scratch network: the pure
    /// function of the module docs. Fails with the shape error of the
    /// training loop (dataset geometry against architecture) or of cutting
    /// the shard into batches (images that disagree in shape).
    fn run(self) -> Self::Output {
        let EpochTask {
            shard,
            params,
            base_version,
            mut optimizer,
        } = self;
        let batches = shard.batches.as_ref().map_err(Clone::clone)?;
        with_scratch(shard.architecture, |network| {
            network.set_parameters(&params)?;
            let loss = SoftmaxCrossEntropy::new();
            let mut total_loss = 0.0f32;
            let mut total_acc = 0.0f32;
            for (images, labels) in batches {
                let step = network.train_batch(images, labels, &loss, &mut optimizer)?;
                total_loss += step.loss;
                total_acc += step.accuracy;
            }
            let denom = batches.len().max(1) as f32;
            Ok(EpochOutcome {
                update: LocalUpdate {
                    client_id: shard.client_id,
                    params: network.parameters(),
                    base_version,
                    num_samples: shard.len,
                    train_loss: total_loss / denom,
                    train_accuracy: total_acc / denom,
                },
                optimizer,
            })
        })
    }
}

/// A federated client: its model replica, its data shard and its optimiser
/// state.
#[derive(Debug)]
pub struct FlClient {
    shard: Arc<Shard>,
    params: ParamVector,
    optimizer: Sgd,
    base_version: ModelVersion,
    epochs_completed: usize,
}

impl FlClient {
    /// Creates a client with freshly initialised parameters of the given
    /// architecture, which the first [`FlClient::receive_model`] call
    /// overwrites in normal operation. The shard is cut into its mini-batches
    /// here, once; a shard whose images disagree in shape is reported by the
    /// first epoch.
    pub fn new(id: usize, architecture: LeNetConfig, shard: Dataset, config: ClientConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(0xF3DC0 ^ id as u64);
        FlClient {
            params: architecture.build(&mut rng).parameters(),
            optimizer: Sgd::new(SgdConfig {
                learning_rate: config.learning_rate,
                momentum: config.momentum,
            }),
            shard: Arc::new(Shard {
                client_id: id,
                config,
                architecture,
                batches: shard.epoch_batches(config.batch_size),
                len: shard.len(),
            }),
            base_version: ModelVersion::INITIAL,
            epochs_completed: 0,
        }
    }

    /// The client identifier.
    pub fn id(&self) -> usize {
        self.shard.client_id
    }

    /// The client configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.shard.config
    }

    /// Number of local epochs completed so far.
    pub fn epochs_completed(&self) -> usize {
        self.epochs_completed
    }

    /// The global version the client last downloaded.
    pub fn base_version(&self) -> ModelVersion {
        self.base_version
    }

    /// Installs a downloaded global-model snapshot as the starting point of
    /// the next local epoch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the snapshot does not
    /// match the client's architecture.
    pub fn receive_model(&mut self, snapshot: &ModelSnapshot) -> Result<(), TensorError> {
        if snapshot.params.len() != self.params.len() {
            return Err(TensorError::LengthMismatch {
                expected: self.params.len(),
                actual: snapshot.params.len(),
            });
        }
        self.params
            .values_mut()
            .copy_from_slice(snapshot.params.values());
        self.base_version = snapshot.version;
        Ok(())
    }

    /// Captures the next local epoch: everything it reads, copied or shared
    /// read-only, so the client is free to change (or not) while it trains.
    pub fn epoch_task(&self) -> EpochTask {
        EpochTask {
            shard: self.shard.clone(),
            params: self.params.clone(),
            base_version: self.base_version,
            optimizer: self.optimizer.clone(),
        }
    }

    /// Makes a trained epoch the client's own — the trained parameters become
    /// the replica, the optimiser continues from where the epoch left it, the
    /// epoch is counted — and returns its update, ready to be uploaded. An
    /// outcome that is dropped instead leaves the client exactly as it was.
    pub fn commit(&mut self, outcome: EpochOutcome) -> LocalUpdate {
        self.params.clone_from(&outcome.update.params);
        self.optimizer = outcome.optimizer;
        self.epochs_completed += 1;
        outcome.update
    }

    /// Runs one scheduled local epoch over the local shard on the calling
    /// thread and returns the resulting update, ready to be uploaded.
    ///
    /// # Errors
    ///
    /// As [`EpochTask::run`]; a failed epoch commits nothing.
    pub fn local_epoch(&mut self) -> Result<LocalUpdate, TensorError> {
        let outcome = self.epoch_task().run()?;
        Ok(self.commit(outcome))
    }

    /// Evaluates the *current local replica* on an external test set,
    /// returning classification accuracy.
    ///
    /// # Errors
    ///
    /// Propagates shape errors when the test set geometry mismatches.
    pub fn evaluate(&self, test_set: &Dataset, max_examples: usize) -> Result<f32, TensorError> {
        with_scratch(self.shard.architecture, |network| {
            network.set_parameters(&self.params)?;
            evaluate_network(network, test_set, max_examples)
        })
    }
}

/// Evaluates a network on up to `max_examples` examples of a dataset.
///
/// # Errors
///
/// Propagates shape errors from the forward pass.
pub fn evaluate_network(
    network: &mut Sequential,
    test_set: &Dataset,
    max_examples: usize,
) -> Result<f32, TensorError> {
    if test_set.is_empty() || max_examples == 0 {
        return Ok(0.0);
    }
    let n = max_examples.min(test_set.len());
    let (images, labels) = test_set.batch(0, n)?;
    network.evaluate(&images, &labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedco_neural::data::{Example, SyntheticCifarConfig};
    use fedco_neural::tensor::Tensor;

    const TINY: ClientConfig = ClientConfig {
        batch_size: 8,
        learning_rate: 0.05,
        momentum: 0.9,
    };

    fn tiny_split() -> (Dataset, Dataset) {
        let arch = LeNetConfig::tiny();
        SyntheticCifarConfig {
            image_size: arch.image_size,
            channels: arch.channels,
            classes: arch.classes,
            examples: 48,
            noise_std: 0.3,
            seed: 5,
        }
        .generate()
        .train_test_split(0.25)
    }

    fn tiny_setup() -> (FlClient, Dataset) {
        let (train, test) = tiny_split();
        (FlClient::new(3, LeNetConfig::tiny(), train, TINY), test)
    }

    /// The client as it was before an epoch became a task and a commit: it
    /// owned a network and trained it in place, cutting its shard into fresh
    /// batches every epoch.
    struct ReferenceClient {
        network: Sequential,
        optimizer: Sgd,
        shard: Dataset,
    }

    impl ReferenceClient {
        fn twin_of(client: &FlClient, shard: Dataset) -> Self {
            let mut rng = SmallRng::seed_from_u64(0xF3DC0 ^ client.id() as u64);
            ReferenceClient {
                network: client.shard.architecture.build(&mut rng),
                optimizer: client.optimizer.clone(),
                shard,
            }
        }

        fn local_epoch(&mut self, config: &ClientConfig) -> (ParamVector, f32, f32) {
            let loss = SoftmaxCrossEntropy::new();
            let (mut total_loss, mut total_acc, mut batches) = (0.0f32, 0.0f32, 0usize);
            let mut offset = 0;
            while offset < self.shard.len() {
                let size = config.batch_size.min(self.shard.len() - offset);
                let (images, labels) = self.shard.batch(offset, size).unwrap();
                let step = self
                    .network
                    .train_batch(&images, &labels, &loss, &mut self.optimizer)
                    .unwrap();
                total_loss += step.loss;
                total_acc += step.accuracy;
                batches += 1;
                offset += size;
            }
            let denom = batches.max(1) as f32;
            (
                self.network.parameters(),
                total_loss / denom,
                total_acc / denom,
            )
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn committed_epochs_match_the_in_place_reference_bits() {
        let (train, _) = tiny_split();
        let mut client = FlClient::new(3, LeNetConfig::tiny(), train.clone(), TINY);
        let mut reference = ReferenceClient::twin_of(&client, train);
        for epoch in 0..6 {
            // Continue from the local replica twice, then from a download,
            // and so on.
            if epoch % 3 == 2 {
                let params = ParamVector::new(
                    (0..client.params.len())
                        .map(|i| ((epoch * 31 + i) as f32 * 0.37).sin() * 0.1)
                        .collect(),
                );
                let snapshot = ModelSnapshot::new(params, ModelVersion(epoch as u64));
                client.receive_model(&snapshot).unwrap();
                reference.network.set_parameters(&snapshot.params).unwrap();
            }
            let update = client.local_epoch().unwrap();
            let (params, loss, accuracy) = reference.local_epoch(&TINY);
            assert_eq!(bits(update.params.values()), bits(params.values()));
            assert_eq!(update.train_loss.to_bits(), loss.to_bits());
            assert_eq!(update.train_accuracy.to_bits(), accuracy.to_bits());
            assert_eq!(update.num_samples, 36);
            assert_eq!(
                bits(client.optimizer.velocity()),
                bits(reference.optimizer.velocity())
            );
            assert_eq!(client.epochs_completed(), epoch + 1);
        }
    }

    #[test]
    fn a_discarded_epoch_leaves_the_client_untouched() {
        let (mut client, _) = tiny_setup();
        let (mut twin, _) = tiny_setup();
        client.local_epoch().unwrap();
        twin.local_epoch().unwrap();
        let velocity = client.optimizer.velocity().to_vec();
        // An epoch the world aborts: trained, perhaps, but never committed.
        let outcome = client.epoch_task().run().unwrap();
        assert_ne!(
            bits(outcome.optimizer.velocity()),
            bits(&velocity),
            "the epoch did train"
        );
        drop(outcome);
        assert_eq!(bits(client.optimizer.velocity()), bits(&velocity));
        assert_eq!(client.epochs_completed(), 1);
        // What it trains next is what a client that never started the
        // aborted epoch trains.
        let (next, want) = (client.local_epoch().unwrap(), twin.local_epoch().unwrap());
        assert_eq!(bits(next.params.values()), bits(want.params.values()));
        assert_eq!(next.train_loss.to_bits(), want.train_loss.to_bits());
    }

    #[test]
    fn a_malformed_shard_is_an_error_not_a_shorter_epoch() {
        let (train, _) = tiny_split();
        let mut examples: Vec<Example> = train.examples()[..32].to_vec();
        examples[19].image = Tensor::zeros(&[1, 6, 6]);
        let shard = Dataset::new(examples, train.classes());
        let mut client = FlClient::new(0, LeNetConfig::tiny(), shard, TINY);
        assert_eq!(client.shard.len, 32);
        assert!(matches!(
            client.local_epoch(),
            Err(TensorError::ShapeMismatch {
                op: "dataset_batch",
                ..
            })
        ));
        assert_eq!(client.epochs_completed(), 0);
    }

    #[test]
    fn client_reports_identity_and_shard() {
        let (client, _) = tiny_setup();
        assert_eq!(client.id(), 3);
        assert_eq!(client.shard.len, 36);
        assert_eq!(client.epochs_completed(), 0);
        assert_eq!(client.base_version(), ModelVersion::INITIAL);
        assert_eq!(client.config().batch_size, 8);
    }

    #[test]
    fn receive_model_sets_base_version() {
        let (mut client, _) = tiny_setup();
        let params = client.local_epoch().unwrap().params;
        let snap = ModelSnapshot::new(params, ModelVersion(7));
        client.receive_model(&snap).unwrap();
        assert_eq!(client.base_version(), ModelVersion(7));
        // Wrong-size snapshot is rejected.
        let bad = ModelSnapshot::new(ParamVector::zeros(10), ModelVersion(8));
        assert!(client.receive_model(&bad).is_err());
        assert_eq!(client.base_version(), ModelVersion(7));
    }

    #[test]
    fn local_epoch_produces_update_and_counts() {
        let (mut client, _) = tiny_setup();
        let update = client.local_epoch().unwrap();
        assert_eq!(update.client_id, 3);
        assert_eq!(update.num_samples, 36);
        assert!(update.train_loss.is_finite());
        assert!(update.train_accuracy >= 0.0 && update.train_accuracy <= 1.0);
        assert_eq!(client.epochs_completed(), 1);
        assert_eq!(
            update.params.len(),
            client.local_epoch().unwrap().params.len()
        );
    }

    #[test]
    fn training_several_epochs_improves_loss() {
        let (mut client, test) = tiny_setup();
        let first = client.local_epoch().unwrap();
        let mut last = first.clone();
        for _ in 0..8 {
            last = client.local_epoch().unwrap();
        }
        assert!(
            last.train_loss < first.train_loss,
            "loss did not improve: {} -> {}",
            first.train_loss,
            last.train_loss
        );
        let acc = client.evaluate(&test, 12).unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn evaluate_on_empty_test_set_is_zero() {
        let (client, _) = tiny_setup();
        assert_eq!(client.evaluate(&Dataset::default(), 10).unwrap(), 0.0);
        let (_, test) = tiny_setup();
        assert_eq!(client.evaluate(&test, 0).unwrap(), 0.0);
    }
}
