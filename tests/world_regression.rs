//! World-off regression gate.
//!
//! With `fedco-world` wired through the engine, the paper-default
//! configuration — `arrival=bernoulli`, battery, churn and compression all
//! off — must reproduce the pre-world engine **bit for bit**: result
//! scalars, the serialized telemetry stream, and the ML-mode model bits.
//! The golden constants below were captured on the commit immediately
//! before the world subsystem landed; if any of these assertions fires, the
//! paper-default world is no longer the identity.

use fedco::prelude::*;
use fedco::sim::engine::{run_simulation, run_simulation_traced};
use fedco_telemetry::export::events_to_jsonl;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn paper_default_world_reproduces_pre_world_goldens() {
    // (policy, energy bits, updates, mean-queue bits, max lag) captured
    // pre-world on the event-driven driver.
    let goldens = [
        (
            PolicyKind::Online,
            0x411b_05b1_4395_809e_u64,
            821_u64,
            0x40b7_1e79_3882_7716_u64,
            434_u64,
        ),
        (PolicyKind::Immediate, 0x4129_ad54_23d7_0893, 1189, 0, 108),
        (PolicyKind::SyncSgd, 0x411e_824a_4083_1293, 18, 0, 0),
    ];
    for (kind, energy_bits, updates, queue_bits, max_lag) in goldens {
        let config = SimConfig::paper_default(kind);
        assert!(
            config.world.is_paper_default(),
            "paper_default must carry the paper-default world"
        );
        let result = run_simulation(config);
        assert_eq!(
            result.total_energy_j.to_bits(),
            energy_bits,
            "energy bits drifted for {kind:?}"
        );
        assert_eq!(
            result.total_updates, updates,
            "updates drifted for {kind:?}"
        );
        assert_eq!(
            result.mean_queue.to_bits(),
            queue_bits,
            "mean-queue bits drifted for {kind:?}"
        );
        assert_eq!(result.max_lag, max_lag, "max lag drifted for {kind:?}");
    }
}

#[test]
fn paper_default_world_reproduces_the_pre_world_telemetry_stream() {
    let (result, events) = run_simulation_traced(SimConfig::paper_default(PolicyKind::Online));
    assert_eq!(result.total_energy_j.to_bits(), 0x411b_05b1_4395_809e);
    assert_eq!(events.len(), 3917, "event count drifted");
    assert_eq!(
        fnv1a(events_to_jsonl(&events).as_bytes()),
        0x2d30_d395_d4dd_ec78,
        "serialized telemetry drifted"
    );
}

#[test]
fn paper_default_world_reproduces_pre_world_model_bits() {
    // An ML-mode run covers the model/accuracy bits too.
    let spec = ScenarioSpec::preset("ml-smoke").expect("preset");
    let config = spec.build_with_policy(PolicyKind::Online).expect("builds");
    assert!(config.world.is_paper_default());
    let result = run_simulation(config);
    assert_eq!(result.total_energy_j.to_bits(), 0x40cd_63e8_1062_4db4);
    assert_eq!(result.final_accuracy.map(f32::to_bits), Some(0x3daa_aaab));
    assert_eq!(result.total_updates, 9);
}

#[test]
fn compact_lenet_run_reproduces_the_pre_fast_kernel_bits() {
    // `ml-smoke` trains the tiny 12×12×1 net; this is the compact LeNet
    // (16×16×3) that Fig. 5 actually trains. Captured on the commit before
    // the contiguous conv kernels landed: a kernel that reorders one
    // reduction changes every constant below.
    let spec: ScenarioSpec = "paper-default:ml=full:slots=1200".parse().expect("parses");
    let config = spec.build_with_policy(PolicyKind::Online).expect("builds");
    let mut sim = Simulation::new(config);
    let result = sim.run();
    let params = sim.model_snapshot().params;
    let bytes: Vec<u8> = params
        .values()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    assert_eq!(result.total_energy_j.to_bits(), 0x40e4_e2ef_ffff_ffde);
    assert_eq!(result.final_accuracy.map(f32::to_bits), Some(0x3e23_d70a));
    assert_eq!(result.total_updates, 60);
    assert_eq!(fnv1a(&bytes), 0x0d0e_16fc_a533_a46a, "global model drifted");
}
