//! Served-vs-batch equivalence: running the simulation engine against a
//! `fedco-server` core over the channel transport must reproduce the batch
//! run **bit for bit** — same final model bits, same model version (the
//! round count), same result scalars, same JSONL trace (the engine records
//! every merge and round, whichever service applied it).
//!
//! This is the contract that makes the service a drop-in aggregation
//! backend: every `apply_async`/`apply_sync_round`/`download` call crosses
//! the full wire format (encode → frame → decode on both directions), so
//! any quantization, reordering, or float-munging bug in the protocol shows
//! up here as a bit diff.

use std::sync::{Arc, Mutex};

use fedco::prelude::*;
use fedco::server::remote::RemoteModelService;
use fedco::server::service::{ServerCore, ServerCoreConfig};
use fedco::server::transport::ChannelTransport;
use fedco_fl::service::ModelService;

/// Runs a config against an inline-ingress served core; returns the result,
/// the final served model snapshot and the JSONL trace.
fn run_served(config: SimConfig) -> (SimResult, ModelSnapshot, String) {
    let sink = BufferSink::shared();
    let mut sim = Simulation::try_new(config)
        .expect("valid config")
        .with_telemetry(sink.clone())
        .with_model_service(|init| {
            let core = Arc::new(Mutex::new(ServerCore::new(ServerCoreConfig {
                initial: init.initial,
                learning_rate: init.learning_rate,
                momentum_beta: init.momentum_beta,
                ..ServerCoreConfig::inline_with_model(ParamVector::zeros(0))
            })));
            let service = RemoteModelService::connect(Box::new(ChannelTransport::new(core)), 0)
                .expect("the fresh core admits the engine's session");
            Box::new(service)
        });
    let result = sim.run();
    let snapshot = sim.model_snapshot();
    (result, snapshot, events_to_jsonl(&sink.drain()))
}

fn run_batch(config: SimConfig) -> (SimResult, ModelSnapshot, String) {
    let sink = BufferSink::shared();
    let mut sim = Simulation::try_new(config)
        .expect("valid config")
        .with_telemetry(sink.clone());
    let result = sim.run();
    let snapshot = sim.model_snapshot();
    (result, snapshot, events_to_jsonl(&sink.drain()))
}

fn assert_bit_identical(label: &str, config: SimConfig) {
    let (batch_result, batch_model, batch_trace) = run_batch(config.clone());
    let (served_result, served_model, served_trace) = run_served(config);
    assert_eq!(
        batch_model.version, served_model.version,
        "{label}: round count (model version) diverged"
    );
    assert_eq!(
        batch_model.params.len(),
        served_model.params.len(),
        "{label}: model length diverged"
    );
    for (i, (b, s)) in batch_model
        .params
        .values()
        .iter()
        .zip(served_model.params.values())
        .enumerate()
    {
        assert_eq!(
            b.to_bits(),
            s.to_bits(),
            "{label}: model parameter {i} diverged ({b} vs {s})"
        );
    }
    assert_eq!(
        batch_result.total_energy_j.to_bits(),
        served_result.total_energy_j.to_bits(),
        "{label}: total energy diverged"
    );
    assert_eq!(
        batch_result.total_updates, served_result.total_updates,
        "{label}: update count diverged"
    );
    assert_eq!(
        batch_result.mean_lag.to_bits(),
        served_result.mean_lag.to_bits(),
        "{label}: mean lag diverged"
    );
    assert_eq!(
        batch_result.max_lag, served_result.max_lag,
        "{label}: max lag diverged"
    );
    assert_eq!(
        batch_result.final_accuracy, served_result.final_accuracy,
        "{label}: accuracy diverged"
    );
    assert!(
        batch_trace.contains(r#""event":"merge""#) || batch_trace.contains(r#""event":"round""#),
        "{label}: the batch trace records no merge or round"
    );
    assert!(batch_trace == served_trace, "{label}: trace diverged");
}

#[test]
fn paper_default_served_run_matches_batch_bit_for_bit() {
    let config = ScenarioSpec::preset("paper-default")
        .expect("registry preset")
        .build_with_policy(PolicySpec::Online { v: None })
        .expect("builds");
    assert_bit_identical("paper-default/online", config);
}

#[test]
fn every_registry_policy_matches_on_a_scaled_paper_default() {
    let spec = ScenarioSpec::preset("paper-default")
        .expect("registry preset")
        .with_users(5)
        .with_slots(700);
    for policy in PolicySpec::PAPER {
        let config = spec
            .build_with_policy(policy.clone())
            .unwrap_or_else(|e| panic!("{policy}: {e}"));
        assert_bit_identical(&format!("scaled/{policy}"), config);
    }
}

#[test]
fn served_stats_match_the_local_server_during_a_run() {
    // Beyond the final model: mid-run observability (stats, momentum norm)
    // must read back identically through the wire.
    let core = Arc::new(Mutex::new(ServerCore::new(
        ServerCoreConfig::inline_with_model(ParamVector::zeros(4)),
    )));
    let remote = RemoteModelService::connect(Box::new(ChannelTransport::new(core.clone())), 7)
        .expect("join");
    let local = ParameterServer::new(ParamVector::zeros(4), AsyncUpdateRule::Replace, 0.01, 0.9);
    for step in 0..4u64 {
        let update = LocalUpdate {
            client_id: 7,
            params: ParamVector::new(vec![step as f32, 1.0, -1.0, 0.5]),
            base_version: ModelVersion(step),
            num_samples: 8,
            train_loss: 1.0 / (step + 1) as f32,
            train_accuracy: 0.5,
        };
        remote.apply_async(&update).expect("remote apply");
        local.apply_async(&update).expect("local apply");
        assert_eq!(
            remote.stats().expect("stats reply"),
            local.stats(),
            "step {step}"
        );
        assert_eq!(
            remote.momentum_norm().to_bits(),
            local.momentum_norm().to_bits(),
            "step {step}"
        );
    }
}
