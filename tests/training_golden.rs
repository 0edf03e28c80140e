//! LeNet training pinned to the bit, through the public training surface
//! only: `LeNetConfig::build`, `Sequential::train_batch` with
//! `Sgd::with_learning_rate` and `FlClient::local_epoch`. Unlike the
//! simulation goldens, this trains every architecture — `lenet5`'s 5×5
//! kernels included — and the momentum-free branch of Eq. (1).
//!
//! The FNV-1a hashes below were captured before the network's parameters
//! became one flat buffer; `ci.sh` also runs this in `--release`, where the
//! vectorised kernels are compiled.

use fedco::prelude::*;
use fedco::rng::rngs::SmallRng;
use fedco::rng::SeedableRng;

fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in words.into_iter().flat_map(u32::to_le_bytes) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn bits(values: &[f32]) -> impl Iterator<Item = u32> + '_ {
    values.iter().map(|v| v.to_bits())
}

fn dataset(arch: LeNetConfig, examples: usize) -> Dataset {
    SyntheticCifarConfig {
        image_size: arch.image_size,
        channels: arch.channels,
        classes: arch.classes,
        examples,
        noise_std: 0.35,
        seed: 11,
    }
    .generate()
}

/// Six mini-batches of eight: the hash of the parameters they leave, and of
/// every step's loss and accuracy.
fn six_steps(arch: LeNetConfig) -> (u64, u64) {
    let mut net = arch.build(&mut SmallRng::seed_from_u64(2022));
    let data = dataset(arch, 48);
    let loss = SoftmaxCrossEntropy::new();
    let mut opt = Sgd::with_learning_rate(0.05);
    let mut steps = Vec::new();
    for i in 0..6 {
        let (x, y) = data.batch(i * 8, 8).expect("batch");
        let step = net.train_batch(&x, &y, &loss, &mut opt).expect("step");
        steps.extend([step.loss.to_bits(), step.accuracy.to_bits()]);
    }
    (fnv1a(bits(net.parameters().values())), fnv1a(steps))
}

/// Two local epochs of a client over a 24-example shard: the hash of the
/// second update's parameters, and of both epochs' loss and accuracy.
fn two_epochs(arch: LeNetConfig, momentum: f32) -> (u64, u64) {
    let config = ClientConfig {
        batch_size: 8,
        learning_rate: 0.05,
        momentum,
    };
    let mut client = FlClient::new(7, arch, dataset(arch, 24), config);
    let (mut params, mut stats) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        let update = client.local_epoch().expect("epoch");
        stats.extend([update.train_loss.to_bits(), update.train_accuracy.to_bits()]);
        params = update.params.into_values();
    }
    (fnv1a(bits(&params)), fnv1a(stats))
}

#[test]
fn lenet_training_reproduces_the_per_tensor_bits() {
    // (architecture, six steps, two epochs at momentum 0, two at 0.9), each
    // a (parameters, loss and accuracy) hash pair.
    type Pins = [(u64, u64); 3];
    let goldens: [(&str, LeNetConfig, Pins); 3] = [
        (
            "tiny",
            LeNetConfig::tiny(),
            [
                (0xa72b_0055_f644_8798, 0x97e0_eefa_bd74_8791),
                (0x0c1b_a194_2af5_0016, 0xbf9a_1438_10e0_d2b7),
                (0x66fb_7a54_ab5b_347d, 0x2b23_2913_3b90_cccb),
            ],
        ),
        (
            "compact",
            LeNetConfig::compact(),
            [
                (0x9609_b01c_b60f_800b, 0x14e0_455f_c95c_02a0),
                (0xb5e9_ff02_323a_24a0, 0x07f3_ab5b_f608_e5fa),
                (0xa88c_89cc_684a_2e34, 0x8a71_660f_321e_f5e4),
            ],
        ),
        (
            "lenet5",
            LeNetConfig::lenet5(),
            [
                (0xa1f4_39ba_0b3d_a50c, 0x7864_869a_d038_970e),
                (0x37fa_0611_2c66_ef3e, 0x2c22_721b_b6d6_3a51),
                (0x535e_d738_7366_130f, 0xe14f_56fb_dab9_a5a2),
            ],
        ),
    ];
    let mut drifted = Vec::new();
    for (name, arch, pins) in goldens {
        let got = [
            six_steps(arch),
            two_epochs(arch, 0.0),
            two_epochs(arch, 0.9),
        ];
        if got != pins {
            drifted.push(format!("{name}: {got:#018x?}"));
        }
    }
    assert!(drifted.is_empty(), "drifted:\n{}", drifted.join("\n"));
}
