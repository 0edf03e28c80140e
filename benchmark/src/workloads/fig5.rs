//! `fig5-ml`: the paper's Fig. 5 — real LeNet training under the online
//! controller and the three baselines, back to back. The two simulated
//! quality results of the paper (energy saved against Immediate, accuracy
//! reached) are measured here.

use std::hint::black_box;

use fedco_fl::aggregation::AsyncUpdateRule;
use fedco_fl::client::{ClientConfig, FlClient};
use fedco_fl::model_state::LocalUpdate;
use fedco_fl::server::ParameterServer;
use fedco_neural::data::SyntheticCifarConfig;
use fedco_neural::lenet::LeNetConfig;
use fedco_neural::loss::SoftmaxCrossEntropy;
use fedco_neural::optimizer::Sgd;
use fedco_rng::rngs::SmallRng;
use fedco_rng::SeedableRng;

use super::sim::{push_layer_samples, run_case, Case};
use super::{seconds_per_call, Cx, PassOutcome};
use crate::stats::Digest;

/// Online first: the quality metrics are its own.
const POLICIES: [&str; 4] = ["online", "immediate", "sync-sgd", "offline"];

/// Accuracy the convergence speed-up is read at (Fig. 5c).
const TARGET_ACCURACY: f32 = 0.25;

/// One pass: the four policies on one seeded scenario.
pub fn pass(cx: &mut Cx<'_>) -> Result<PassOutcome, String> {
    let scenario = format!(
        "{}:seed={}",
        cx.size.pick("paper-default:ml=full", "ml-smoke"),
        cx.seed
    );
    let open = cx.tracer.enter("pass");
    let cases: Result<Vec<Case>, String> = POLICIES
        .iter()
        .map(|policy| run_case(cx, &scenario, policy))
        .collect();
    let wall_s = cx.tracer.exit(open);
    let cases = cases?;

    let mut digest = Digest::default();
    for case in &cases {
        case.digest_into(&mut digest);
        digest.float(f64::from(case.result.best_accuracy().unwrap_or(-1.0)));
    }
    let trained = cases
        .iter()
        .filter(|c| c.ok() && c.result.best_accuracy().is_some())
        .count();
    let (online, immediate, sync) = (&cases[0].result, &cases[1].result, &cases[2].result);
    let saving_pct =
        100.0 * (immediate.total_energy_j - online.total_energy_j) / immediate.total_energy_j;
    let speedup = match (
        sync.time_to_accuracy(TARGET_ACCURACY),
        online.time_to_accuracy(TARGET_ACCURACY),
    ) {
        (Some(sync_s), Some(online_s)) if online_s > 0.0 => sync_s / online_s,
        _ => 0.0,
    };
    let local_epochs: usize = cases.iter().map(|c| c.result.updates.len()).sum();

    let s = &mut *cx.samples;
    s.push("energy_saving_pct", saving_pct);
    s.push(
        "best_accuracy_pct",
        100.0 * f64::from(online.best_accuracy().unwrap_or(0.0)),
    );
    s.push("fl.fig5.local_epochs", local_epochs as f64);
    s.push("fl.fig5.convergence_speedup", speedup);
    let outcome = PassOutcome {
        wall_s,
        setup_s: cases.iter().map(|c| c.parse_build_s + c.construct_s).sum(),
        ops: cases.len() as u64,
        ops_failed: (cases.len() - trained) as u64 + u64::from(!saving_pct.is_finite()),
        digest: digest.value(),
        child_peak_rss_mib: None,
    };
    push_layer_samples(cx, &cases);
    Ok(outcome)
}

/// Fixed-input probes of `neural` and `fl` at the architecture `ml=full`
/// trains.
pub fn probes(cx: &mut Cx<'_>) -> Result<(), String> {
    let arch = cx.size.pick(LeNetConfig::compact(), LeNetConfig::tiny());
    let batch_size = 20;
    let err = |e: fedco_neural::tensor::TensorError| format!("neural probe: {e}");

    // neural: one mini-batch forward / forward+backward+step, and the
    // gather/scatter between the layers and a flat parameter vector.
    let mut rng = SmallRng::seed_from_u64(cx.seed);
    let mut net = arch.build(&mut rng);
    let dataset = |examples: usize| {
        SyntheticCifarConfig {
            image_size: arch.image_size,
            channels: arch.channels,
            classes: arch.classes,
            examples,
            noise_std: 0.35,
            seed: cx.seed,
        }
        .generate()
    };
    let data = dataset(64);
    let (x, y) = data.batch(0, batch_size).map_err(err)?;
    let iters = cx.size.pick(40u32, 4);
    let mut failed = 0u32;
    let forward_s = seconds_per_call(iters, 5, || {
        failed += u32::from(black_box(net.forward(black_box(&x), false)).is_err());
    });
    let loss = SoftmaxCrossEntropy::new();
    let mut opt = Sgd::with_learning_rate(0.05);
    let train_s = seconds_per_call(iters, 5, || {
        failed += u32::from(black_box(net.train_batch(&x, &y, &loss, &mut opt)).is_err());
    });
    let mut params = net.parameters();
    let gather_s = seconds_per_call(iters * 10, 5, || params = black_box(net.parameters()));
    let scatter_s = seconds_per_call(iters * 10, 5, || {
        failed += u32::from(net.set_parameters(black_box(&params)).is_err());
    });

    // fl: a client's model install and local epoch on a paper-sized shard
    // (1000 examples, 20 % held out, 25 users), and the server's two
    // aggregation rules on the resulting update.
    let shard = dataset(32);
    let mut client = FlClient::new(0, arch, shard, ClientConfig::default());
    let server = ParameterServer::new(params.clone(), AsyncUpdateRule::Replace, 0.05, 0.9);
    let snapshot = server.download();
    let receive_s = seconds_per_call(iters * 10, 5, || {
        failed += u32::from(client.receive_model(black_box(&snapshot)).is_err());
    });
    let mut update: Option<LocalUpdate> = None;
    let epoch_s = seconds_per_call(cx.size.pick(8, 1), 5, || match client.local_epoch() {
        Ok(u) => update = Some(u),
        Err(_) => failed += 1,
    });
    let update = update.ok_or("fl probe: local_epoch produced no update")?;
    let apply_s = seconds_per_call(iters * 10, 5, || {
        failed += u32::from(server.apply_async(black_box(&update)).is_err());
    });
    let round: Vec<LocalUpdate> = (0..25)
        .map(|client_id| LocalUpdate {
            client_id,
            ..update.clone()
        })
        .collect();
    let round_s = seconds_per_call(iters, 5, || {
        failed += u32::from(server.apply_sync_round(black_box(&round)).is_err());
    });
    if failed > 0 {
        return Err(format!("neural/fl probe: {failed} calls failed"));
    }

    let s = &mut *cx.samples;
    s.push("neural.forward_us", forward_s * 1e6);
    s.push("neural.train_batch_us", train_s * 1e6);
    s.push("neural.params_gather_us", gather_s * 1e6);
    s.push("neural.params_scatter_us", scatter_s * 1e6);
    s.push("neural.param_count", net.param_count() as f64);
    s.push("fl.client.receive_model_us", receive_s * 1e6);
    s.push("fl.client.local_epoch_ms", epoch_s * 1e3);
    s.push("fl.server.apply_async_us", apply_s * 1e6);
    s.push("fl.server.sync_round_us", round_s * 1e6);
    Ok(())
}
