//! Datasets: a synthetic CIFAR-10-like image set and batching utilities.
//!
//! The paper trains LeNet-5 on CIFAR-10 pre-loaded onto each phone's flash
//! storage. That dataset is not available offline, so this module generates a
//! *procedural, class-separable* substitute with the same tensor geometry
//! (`channels × size × size` images, 10 classes). Each class is defined by a
//! smooth spatial prototype; samples are prototypes plus pixel noise, so a
//! small CNN can genuinely learn the task and accuracy curves respond to
//! fresh vs. stale updates exactly as a real vision task would.

use fedco_rng::rngs::SmallRng;
use fedco_rng::seq::SliceRandom;
use fedco_rng::{Rng, SeedableRng};

use crate::init::sample_gaussian;
use crate::tensor::{Tensor, TensorError};

/// A single labelled example.
#[derive(Debug, Clone)]
pub struct Example {
    /// Image tensor of shape `[channels, size, size]`.
    pub image: Tensor,
    /// Class label in `0..classes`.
    pub label: usize,
}

/// A mini-batch: the stacked image tensor `[b, c, h, w]` and its labels.
pub type Batch = (Tensor, Vec<usize>);

/// An in-memory labelled dataset.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    examples: Vec<Example>,
    classes: usize,
}

impl Dataset {
    /// Creates a dataset from examples.
    pub fn new(examples: Vec<Example>, classes: usize) -> Self {
        Dataset { examples, classes }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The examples.
    pub fn examples(&self) -> &[Example] {
        &self.examples
    }

    /// Shuffles the examples in place.
    pub fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.examples.shuffle(rng);
    }

    /// Splits the dataset into `parts` near-equal shards (the paper's "equal
    /// partition of the CIFAR10 dataset" across 25 users). Examples are dealt
    /// round-robin in their (shuffled) order, and moved, not copied: the
    /// shards are the dataset. A small shard need not see every class.
    pub fn partition(self, parts: usize) -> Vec<Dataset> {
        let parts = parts.max(1);
        let mut shards: Vec<Vec<Example>> = vec![Vec::new(); parts];
        for (i, ex) in self.examples.into_iter().enumerate() {
            shards[i % parts].push(ex);
        }
        shards
            .into_iter()
            .map(|examples| Dataset::new(examples, self.classes))
            .collect()
    }

    /// Splits off the last `fraction` of examples as a held-out test set,
    /// moving every example into one half or the other.
    pub fn train_test_split(mut self, test_fraction: f32) -> (Dataset, Dataset) {
        let test_fraction = test_fraction.clamp(0.0, 1.0);
        let test_len = ((self.len() as f32) * test_fraction).round() as usize;
        let split = self.len().saturating_sub(test_len);
        let test = Dataset::new(self.examples.split_off(split), self.classes);
        (self, test)
    }

    /// Assembles a mini-batch starting at `offset` with up to `batch_size`
    /// examples, returning the stacked image tensor `[b, c, h, w]` and the
    /// label vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] if the dataset is empty or images disagree in
    /// shape.
    pub fn batch(&self, offset: usize, batch_size: usize) -> Result<Batch, TensorError> {
        if self.examples.is_empty() {
            return Err(TensorError::LengthMismatch {
                expected: 1,
                actual: 0,
            });
        }
        let start = offset % self.examples.len();
        let shape = self.examples[0].image.shape().to_vec();
        let mut images = Vec::with_capacity(batch_size * self.examples[0].image.len());
        let mut labels = Vec::with_capacity(batch_size);
        let mut count = 0usize;
        while count < batch_size {
            let ex = &self.examples[(start + count) % self.examples.len()];
            if ex.image.shape() != shape.as_slice() {
                return Err(TensorError::ShapeMismatch {
                    lhs: ex.image.shape().to_vec(),
                    rhs: shape,
                    op: "dataset_batch",
                });
            }
            images.extend_from_slice(ex.image.data());
            labels.push(ex.label);
            count += 1;
        }
        let mut batch_shape = vec![count];
        batch_shape.extend_from_slice(&shape);
        Ok((Tensor::from_vec(images, &batch_shape)?, labels))
    }

    /// The dataset as the consecutive mini-batches of one epoch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] if images disagree in shape: an epoch is
    /// every example or none.
    pub fn epoch_batches(&self, batch_size: usize) -> Result<Vec<Batch>, TensorError> {
        if self.is_empty() || batch_size == 0 {
            return Ok(Vec::new());
        }
        (0..self.len())
            .step_by(batch_size)
            .map(|offset| self.batch(offset, batch_size.min(self.len() - offset)))
            .collect()
    }

    /// Class histogram (counts per label), for this crate's tests.
    #[cfg(test)]
    pub(crate) fn class_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.classes.max(1)];
        for ex in &self.examples {
            if ex.label < hist.len() {
                hist[ex.label] += 1;
            }
        }
        hist
    }
}

/// Configuration of the synthetic CIFAR-like generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticCifarConfig {
    /// Image side length.
    pub image_size: usize,
    /// Number of channels.
    pub channels: usize,
    /// Number of classes.
    pub classes: usize,
    /// Number of examples to generate.
    pub examples: usize,
    /// Standard deviation of the pixel noise added to each class prototype.
    pub noise_std: f32,
    /// RNG seed (the generator is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for SyntheticCifarConfig {
    fn default() -> Self {
        SyntheticCifarConfig {
            image_size: 32,
            channels: 3,
            classes: 10,
            examples: 1000,
            noise_std: 0.35,
            seed: 42,
        }
    }
}

impl SyntheticCifarConfig {
    /// Generates the dataset.
    pub fn generate(&self) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let dims = self.channels * self.image_size * self.image_size;
        // Smooth spatial prototypes: per class, a random low-frequency
        // pattern built from a handful of 2-D cosine components.
        let mut prototypes: Vec<Vec<f32>> = Vec::with_capacity(self.classes);
        for _class in 0..self.classes {
            let mut proto = vec![0.0f32; dims];
            let components = 3;
            for _ in 0..components {
                let fx = rng.gen_range(1..=3) as f32;
                let fy = rng.gen_range(1..=3) as f32;
                let phase_x: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
                let phase_y: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
                let amp: f32 = rng.gen_range(0.4..1.0);
                let channel_weights: Vec<f32> = (0..self.channels)
                    .map(|_| rng.gen_range(0.2..1.0))
                    .collect();
                for c in 0..self.channels {
                    for y in 0..self.image_size {
                        for x in 0..self.image_size {
                            let v = amp
                                * channel_weights[c]
                                * ((fx * x as f32 / self.image_size as f32
                                    * std::f32::consts::TAU
                                    + phase_x)
                                    .cos()
                                    * (fy * y as f32 / self.image_size as f32
                                        * std::f32::consts::TAU
                                        + phase_y)
                                        .cos());
                            proto[(c * self.image_size + y) * self.image_size + x] += v;
                        }
                    }
                }
            }
            prototypes.push(proto);
        }
        let shape = [self.channels, self.image_size, self.image_size];
        let mut examples = Vec::with_capacity(self.examples);
        for i in 0..self.examples {
            let label = i % self.classes.max(1);
            let proto = &prototypes[label];
            let data: Vec<f32> = proto
                .iter()
                .map(|&p| p + sample_gaussian(&mut rng) * self.noise_std)
                .collect();
            // fedco-audit: allow(panic-surface): data length is prototype length, generated from the same shape
            let image = Tensor::from_vec(data, &shape).expect("shape matches dims");
            examples.push(Example { image, label });
        }
        let mut ds = Dataset::new(examples, self.classes);
        ds.shuffle(&mut rng);
        ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SyntheticCifarConfig {
        SyntheticCifarConfig {
            image_size: 8,
            channels: 2,
            classes: 4,
            examples: 40,
            noise_std: 0.2,
            seed: 7,
        }
    }

    #[test]
    fn generator_produces_requested_shape_and_count() {
        let ds = small_config().generate();
        assert_eq!(ds.len(), 40);
        assert_eq!(ds.classes(), 4);
        for ex in ds.examples() {
            assert_eq!(ex.image.shape(), &[2, 8, 8]);
            assert!(ex.label < 4);
            assert!(ex.image.is_finite());
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let a = small_config().generate();
        let b = small_config().generate();
        assert_eq!(a.examples()[0].image, b.examples()[0].image);
        assert_eq!(a.examples()[5].label, b.examples()[5].label);
    }

    #[test]
    fn classes_are_balanced() {
        let ds = small_config().generate();
        let hist = ds.class_histogram();
        assert_eq!(hist.iter().sum::<usize>(), 40);
        for &count in &hist {
            assert_eq!(count, 10);
        }
    }

    #[test]
    fn partition_is_near_equal_and_covers_all() {
        let shards = small_config().generate().partition(7);
        assert_eq!(shards.len(), 7);
        let total: usize = shards.iter().map(|s| s.len()).sum();
        assert_eq!(total, 40);
        let max = shards.iter().map(|s| s.len()).max().unwrap();
        let min = shards.iter().map(|s| s.len()).min().unwrap();
        assert!(max - min <= 1);
    }

    fn ten_class_config() -> SyntheticCifarConfig {
        SyntheticCifarConfig {
            channels: 1,
            classes: 10,
            examples: 200,
            seed: 1,
            ..small_config()
        }
    }

    #[test]
    fn partition_is_equal_and_complete() {
        let shards = ten_class_config().generate().partition(25);
        assert_eq!(shards.len(), 25);
        assert_eq!(shards.iter().map(Dataset::len).sum::<usize>(), 200);
        assert!(shards.iter().all(|s| s.len() == 8));
    }

    #[test]
    fn partition_shards_cover_many_classes() {
        // A shuffled set dealt in turn: every shard sees many classes.
        for shard in ten_class_config().generate().partition(10) {
            let covered = shard.class_histogram().iter().filter(|&&c| c > 0).count();
            assert!(covered >= 5, "shard covers only {covered} classes");
        }
    }

    #[test]
    fn partition_into_zero_parts_is_one_part() {
        let whole = ten_class_config().generate().partition(0);
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0].len(), 200);
    }

    #[test]
    fn train_test_split_fractions() {
        let ds = small_config().generate();
        let last = ds.examples()[39].image.clone();
        let (train, test) = ds.train_test_split(0.25);
        assert_eq!((train.len(), test.len()), (30, 10));
        assert_eq!(test.examples()[9].image, last, "the tail is held out");
        let (all, none) = small_config().generate().train_test_split(0.0);
        assert_eq!(all.len(), 40);
        assert!(none.is_empty());
    }

    #[test]
    fn batch_wraps_around() {
        let ds = small_config().generate();
        let (images, labels) = ds.batch(38, 4).unwrap();
        assert_eq!(images.shape(), &[4, 2, 8, 8]);
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn epoch_batches_cover_dataset() {
        let ds = small_config().generate();
        let batches = ds.epoch_batches(16).unwrap();
        let total: usize = batches.iter().map(|(_, l)| l.len()).sum();
        assert_eq!(total, ds.len());
        assert_eq!(batches.len(), 3);
        assert!(ds.epoch_batches(0).unwrap().is_empty());
    }

    #[test]
    fn epoch_batches_refuse_a_malformed_example() {
        let mut examples = small_config().generate().examples().to_vec();
        examples[17].image = Tensor::zeros(&[2, 4, 4]);
        let ds = Dataset::new(examples, 4);
        assert!(matches!(
            ds.epoch_batches(16),
            Err(TensorError::ShapeMismatch {
                op: "dataset_batch",
                ..
            })
        ));
    }

    #[test]
    fn empty_dataset_batch_errors() {
        let ds = Dataset::default();
        assert!(ds.batch(0, 1).is_err());
        assert!(ds.is_empty());
    }

    #[test]
    fn prototypes_are_distinguishable() {
        // Mean distance between images of different classes should exceed the
        // mean distance within a class; otherwise the task is unlearnable.
        let ds = SyntheticCifarConfig {
            image_size: 8,
            channels: 1,
            classes: 3,
            examples: 60,
            noise_std: 0.2,
            seed: 3,
        }
        .generate();
        let mut within = Vec::new();
        let mut between = Vec::new();
        let ex = ds.examples();
        for i in 0..ex.len() {
            for j in (i + 1)..ex.len() {
                let pairs = ex[i].image.data().iter().zip(ex[j].image.data());
                let d = pairs.map(|(a, b)| (a - b) * (a - b)).sum::<f32>().sqrt();
                if ex[i].label == ex[j].label {
                    within.push(d);
                } else {
                    between.push(d);
                }
            }
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        assert!(
            mean(&between) > mean(&within),
            "between {} within {}",
            mean(&between),
            mean(&within)
        );
    }
}
