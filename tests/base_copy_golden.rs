//! Golden bits of the outputs that read a device's base copy of the global
//! model: the Definition-2 gradient gap of every traced update (the distance
//! between the model a device started from and the model it uploads into)
//! and the compressed uplink, which pulls each upload back toward that base.
//!
//! The constants were captured before the engine stopped keeping a base copy
//! per device in runs that read none, and are never edited: a run that reads
//! the wrong model version for a device's base changes one of them.

use fedco::prelude::*;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The little-endian bytes of a run's series, field by field.
fn series_bytes(result: &SimResult) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut push = |word: u64| bytes.extend_from_slice(&word.to_le_bytes());
    for u in &result.updates {
        push(u.t_s.to_bits());
        push(u.user_id as u64);
        push(u.lag);
        push(u.gap.to_bits());
        push(u64::from(u.corun));
    }
    for p in &result.trace {
        push(p.t_s.to_bits());
        push(p.total_energy_j.to_bits());
        push(p.queue.to_bits());
        push(p.virtual_queue.to_bits());
        push(p.mean_gap.to_bits());
        push(p.max_gap.to_bits());
        push(p.updates);
        push(p.accuracy.map_or(u64::MAX, |a| u64::from(a.to_bits())));
    }
    bytes
}

/// The little-endian bytes of a run's scalars.
fn scalar_bytes(result: &SimResult) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut push = |word: u64| bytes.extend_from_slice(&word.to_le_bytes());
    push(result.total_energy_j.to_bits());
    for &(component, joules) in &result.energy_by_component {
        push(component as u64);
        push(joules.to_bits());
    }
    push(result.total_updates);
    push(result.corun_epochs);
    push(result.mean_lag.to_bits());
    push(result.max_lag);
    push(result.final_queue.to_bits());
    push(result.final_virtual_queue.to_bits());
    push(result.mean_queue.to_bits());
    push(result.mean_virtual_queue.to_bits());
    bytes
}

fn config(scenario: &str, policy: PolicySpec) -> SimConfig {
    let spec: ScenarioSpec = scenario.parse().expect("parses");
    spec.build_with_policy(policy).expect("builds")
}

#[test]
fn traced_gaps_and_trace_of_paper_default_reproduce_their_golden_bits() {
    // (updates recorded, FNV-1a of the update and trace series), in
    // `PolicySpec::PAPER` order.
    let goldens = [
        (1189, 0x5368_5310_5c1c_85d8),
        (18, 0xe5c2_fbb8_fa98_0d01),
        (167, 0xe57d_1aea_f306_2036),
        (821, 0xa4e1_880d_6c1f_111b),
    ];
    let got = PolicySpec::PAPER.map(|policy| {
        let result = run_simulation(config("paper-default", policy.clone()));
        assert!(result.updates.iter().any(|u| u.gap > 0.0), "{policy:?}");
        (result.updates.len(), fnv1a(&series_bytes(&result)))
    });
    assert_eq!(got, goldens, "{got:#x?}");
}

#[test]
fn compressed_uplink_scalars_and_model_reproduce_their_golden_bits() {
    // (total updates, FNV-1a of the summary scalars, FNV-1a of the final
    // global model) of the summary-only run, in `PolicySpec::PAPER` order.
    // An energy-only run's scalars never read the model; the model is where
    // each dampened upload lands.
    let goldens = [
        (1189, 0xc169_9a12_50e9_54ab, 0x9c31_12e5_008f_0bec),
        (18, 0x0071_3190_a3dd_e70c, 0x4f48_2462_f7a9_8592),
        (167, 0x8a82_97e6_cf6c_189a, 0xfd44_58fc_121e_1766),
        (821, 0x8740_e621_4049_83e0, 0xb337_a762_7ebb_4e04),
    ];
    let got = PolicySpec::PAPER.map(|policy| {
        let mut sim = Simulation::new(config("compressed-uplink", policy).summary_only());
        let result = sim.run();
        let model: Vec<u8> = (sim.model_snapshot().params.values().iter())
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        let scalars = fnv1a(&scalar_bytes(&result));
        (result.total_updates, scalars, fnv1a(&model))
    });
    assert_eq!(got, goldens, "{got:#x?}");
}
