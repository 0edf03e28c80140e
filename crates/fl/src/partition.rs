//! Data partitioning across federated participants.
//!
//! The paper uses an equal partition of CIFAR-10 across 25 users. This module
//! provides that IID split plus a label-skewed (non-IID) split for the
//! statistical-heterogeneity ablations.

use fedco_rng::rngs::SmallRng;
use fedco_rng::seq::SliceRandom;
use fedco_rng::SeedableRng;

use fedco_neural::data::{Dataset, Example};

/// How the global dataset is divided among the participants.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PartitionStrategy {
    /// Equal, class-balanced shards (the paper's setting).
    #[default]
    Iid,
    /// Label-skewed shards: each user predominantly holds `labels_per_user`
    /// classes, producing statistical heterogeneity.
    LabelSkew {
        /// Number of dominant classes per user.
        labels_per_user: usize,
    },
}

/// Partitions `dataset` into `num_users` shards with the given strategy.
///
/// The split is deterministic given `seed`. Every example is assigned to
/// exactly one shard.
pub fn partition_dataset(
    dataset: Dataset,
    num_users: usize,
    strategy: PartitionStrategy,
    seed: u64,
) -> Vec<Dataset> {
    let num_users = num_users.max(1);
    match strategy {
        PartitionStrategy::Iid => dataset.partition(num_users),
        PartitionStrategy::LabelSkew { labels_per_user } => {
            label_skew_partition(&dataset, num_users, labels_per_user.max(1), seed)
        }
    }
}

fn label_skew_partition(
    dataset: &Dataset,
    num_users: usize,
    labels_per_user: usize,
    seed: u64,
) -> Vec<Dataset> {
    let classes = dataset.classes().max(1);
    let mut rng = SmallRng::seed_from_u64(seed);
    // Assign each user a preferred set of classes (round-robin over a random
    // class permutation so coverage is even).
    let mut class_order: Vec<usize> = (0..classes).collect();
    class_order.shuffle(&mut rng);
    let preferred: Vec<Vec<usize>> = (0..num_users)
        .map(|u| {
            (0..labels_per_user)
                .map(|k| class_order[(u * labels_per_user + k) % classes])
                .collect()
        })
        .collect();
    // Group examples by class.
    let mut by_class: Vec<Vec<Example>> = vec![Vec::new(); classes];
    for ex in dataset.examples() {
        by_class[ex.label.min(classes - 1)].push(ex.clone());
    }
    // Deal each class's examples to users that prefer it (or everyone when no
    // user prefers it).
    let mut shards: Vec<Vec<Example>> = vec![Vec::new(); num_users];
    for (class, examples) in by_class.into_iter().enumerate() {
        let takers: Vec<usize> = (0..num_users)
            .filter(|&u| preferred[u].contains(&class))
            .collect();
        let takers = if takers.is_empty() {
            (0..num_users).collect()
        } else {
            takers
        };
        for (i, ex) in examples.into_iter().enumerate() {
            shards[takers[i % takers.len()]].push(ex);
        }
    }
    shards
        .into_iter()
        .map(|examples| Dataset::new(examples, classes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedco_neural::data::SyntheticCifarConfig;

    fn dataset() -> Dataset {
        SyntheticCifarConfig {
            image_size: 8,
            channels: 1,
            classes: 10,
            examples: 200,
            noise_std: 0.2,
            seed: 1,
        }
        .generate()
    }

    #[test]
    fn iid_partition_is_equal_and_complete() {
        let ds = dataset();
        let shards = partition_dataset(ds, 25, PartitionStrategy::Iid, 0);
        assert_eq!(shards.len(), 25);
        assert_eq!(shards.iter().map(Dataset::len).sum::<usize>(), 200);
        assert!(shards.iter().all(|s| s.len() == 8));
    }

    #[test]
    fn iid_shards_cover_many_classes() {
        let ds = dataset();
        let shards = partition_dataset(ds, 10, PartitionStrategy::Iid, 0);
        for s in &shards {
            let covered = s.class_histogram().iter().filter(|&&c| c > 0).count();
            assert!(covered >= 5, "shard covers only {covered} classes");
        }
    }

    #[test]
    fn label_skew_concentrates_classes() {
        let ds = dataset();
        let shards = partition_dataset(
            ds,
            5,
            PartitionStrategy::LabelSkew { labels_per_user: 2 },
            7,
        );
        assert_eq!(shards.iter().map(Dataset::len).sum::<usize>(), 200);
        // Each user's shard should be dominated by at most ~2 classes.
        for s in &shards {
            let hist = s.class_histogram();
            let nonzero = hist.iter().filter(|&&c| c > 0).count();
            assert!(nonzero <= 4, "shard spreads over {nonzero} classes");
        }
    }

    #[test]
    fn label_skew_is_deterministic_per_seed() {
        let a = partition_dataset(
            dataset(),
            5,
            PartitionStrategy::LabelSkew { labels_per_user: 2 },
            9,
        );
        let b = partition_dataset(
            dataset(),
            5,
            PartitionStrategy::LabelSkew { labels_per_user: 2 },
            9,
        );
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.len(), y.len());
            assert_eq!(x.class_histogram(), y.class_histogram());
        }
    }

    #[test]
    fn zero_users_clamps_to_one() {
        let shards = partition_dataset(dataset(), 0, PartitionStrategy::Iid, 0);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].len(), 200);
        assert_eq!(PartitionStrategy::default(), PartitionStrategy::Iid);
    }
}
