//! Micro-benchmarks of the on-device training substrate: LeNet forward /
//! forward+backward throughput, the two convolutions, the first max-pool and
//! the first dense layer of the compact LeNet that Fig. 5 trains (the hot
//! kernels), a hundred-example evaluation, and
//! the parameter arithmetic used for the 2.5 MB model exchange and the
//! gradient-gap metric. `BENCH_neural.json` records one session per commit.

use std::hint::black_box;

use fedco_bench::micro;
use fedco_neural::data::SyntheticCifarConfig;
use fedco_neural::layer::Layer;
use fedco_neural::layers::{Conv2d, Dense, MaxPool2d};
use fedco_neural::lenet::LeNetConfig;
use fedco_neural::loss::SoftmaxCrossEntropy;
use fedco_neural::optimizer::Sgd;
use fedco_neural::tensor::Tensor;
use fedco_rng::rngs::SmallRng;
use fedco_rng::{Rng, SeedableRng};

fn bench_lenet() {
    micro::group("lenet");
    for (name, cfg) in [
        ("tiny", LeNetConfig::tiny()),
        ("compact", LeNetConfig::compact()),
    ] {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut net = cfg.build(&mut rng);
        let data = SyntheticCifarConfig {
            image_size: cfg.image_size,
            channels: cfg.channels,
            classes: cfg.classes,
            examples: 64,
            noise_std: 0.3,
            seed: 1,
        }
        .generate();
        let (x, y) = data.batch(0, 20).unwrap();
        micro::bench(&format!("lenet/forward/{name}"), || {
            black_box(net.forward(black_box(&x), false).unwrap());
        });
        let loss = SoftmaxCrossEntropy::new();
        let mut opt = Sgd::with_learning_rate(0.05);
        micro::bench(&format!("lenet/train_batch/{name}"), || {
            black_box(net.train_batch(&x, &y, &loss, &mut opt).unwrap());
        });
        if name == "compact" {
            // One accuracy sample of a Fig. 5 run: 100 held-out examples.
            let (x, y) = data.batch(0, 100).unwrap();
            micro::bench("lenet/eval100/compact", || {
                black_box(net.evaluate(black_box(&x), &y).unwrap());
            });
        }
    }
}

/// `shape` filled with uniform draws from `[-0.5, 0.5)`.
fn uniform(rng: &mut SmallRng, shape: &[usize]) -> Tensor {
    let data = (0..shape.iter().product())
        .map(|_| rng.gen::<f32>() - 0.5)
        .collect();
    Tensor::from_vec(data, shape).unwrap()
}

/// The two convolutions of the compact LeNet on a batch of 20. The backward
/// cells see a `grad_output` that is three-quarters exact zeros, which is
/// what max-pooling followed by ReLU hands a convolution.
/// `accumulate_grads/compact-c1` is what a training step runs on conv1: the
/// parameter gradients only, at ≈ 15 % pool-shaped density.
fn bench_conv2d() {
    micro::group("conv2d");
    for (name, in_channels, out_channels, side) in
        [("compact-c1", 3, 4, 16), ("compact-c2", 4, 8, 7)]
    {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut conv = Conv2d::new(in_channels, out_channels, 3);
        let mut params = vec![0.0; conv.param_len()];
        conv.init(&mut rng, &mut params);
        let mut grads = vec![0.0; params.len()];
        let x = uniform(&mut rng, &[20, in_channels, side, side]);
        micro::bench(&format!("conv2d/forward/{name}"), || {
            black_box(conv.forward(&params, black_box(&x), true).unwrap());
        });
        let mut grad = uniform(&mut rng, &[20, out_channels, side - 2, side - 2]);
        for (i, g) in grad.data_mut().iter_mut().enumerate() {
            if i % 4 != 0 {
                *g = 0.0;
            }
        }
        micro::bench(&format!("conv2d/backward/{name}"), || {
            black_box(
                conv.backward(&params, &mut grads, black_box(&grad))
                    .unwrap(),
            );
        });
        if name == "compact-c1" {
            // What training hands conv1: a real pool backward's gradient, at
            // most one non-zero per 2×2 window, in 60 % of them.
            let mut pool = MaxPool2d::default();
            pool.forward(&[], &uniform(&mut rng, grad.shape()), true)
                .unwrap();
            let upstream = uniform(&mut rng, &[20, out_channels, 7, 7]);
            let upstream = upstream.map(|g| if g < 0.1 { g } else { 0.0 });
            let grad = pool.backward(&[], &mut [], &upstream).unwrap();
            micro::bench("conv2d/accumulate_grads/compact-c1", || {
                conv.accumulate_grads(&params, &mut grads, black_box(&grad))
                    .unwrap();
            });
        }
    }
}

/// The first max-pool and the first dense layer of the compact LeNet on a
/// batch of 20: the pool's training forward (the one that records the
/// argmax) on conv1's output, and fc1's backward with half of
/// `grad_output` exact zeros, as ReLU leaves it.
fn bench_pool_and_dense() {
    micro::group("maxpool2d + dense");
    let mut rng = SmallRng::seed_from_u64(3);
    let mut pool = MaxPool2d::default();
    let x = uniform(&mut rng, &[20, 4, 14, 14]);
    micro::bench("maxpool2d/forward/compact-p1", || {
        black_box(pool.forward(&[], black_box(&x), true).unwrap());
    });
    let mut dense = Dense::new(32, 48);
    let mut params = vec![0.0; dense.param_len()];
    dense.init(&mut rng, &mut params);
    let mut grads = vec![0.0; params.len()];
    dense
        .forward(&params, &uniform(&mut rng, &[20, 32]), true)
        .unwrap();
    let grad = uniform(&mut rng, &[20, 48]).map(|g| g.max(0.0));
    micro::bench("dense/backward/compact-fc1", || {
        black_box(
            dense
                .backward(&params, &mut grads, black_box(&grad))
                .unwrap(),
        );
    });
}

fn bench_param_vector() {
    let mut rng = SmallRng::seed_from_u64(0);
    let cfg = LeNetConfig::lenet5();
    let net = cfg.build(&mut rng);
    let params = net.parameters();
    let other = fedco_neural::ParamVector::new(params.values().iter().map(|v| v * 0.99).collect());
    micro::group("param_vector");
    micro::bench("param_vector_distance_lenet5", || {
        black_box(params.distance_l2(black_box(&other)).unwrap());
    });
    micro::bench("param_vector_average_lenet5", || {
        black_box(
            fedco_neural::ParamVector::weighted_average(
                &[params.clone(), other.clone()],
                &[1.0, 1.0],
            )
            .unwrap(),
        );
    });
}

fn main() {
    bench_lenet();
    bench_conv2d();
    bench_pool_and_dense();
    bench_param_vector();
}
