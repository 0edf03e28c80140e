//! Behavioral acceptance for the `fedco-world` subsystem: the dynamics
//! must actually move the simulation, not merely parse. Battery lifecycles
//! kill and revive devices, churn takes users offline and brings them back,
//! and uplink compression trades radio energy against update quality —
//! all deterministically.

use fedco::device::profiler::EnergyComponent;
use fedco::prelude::*;

fn traced_run(config: SimConfig) -> (SimResult, Vec<Event>) {
    let sink = BufferSink::shared();
    let result = Simulation::try_new(config)
        .expect("valid config")
        .with_telemetry(sink.clone())
        .run();
    (result, sink.drain())
}

fn count_kind(events: &[Event], kind: &str) -> usize {
    events.iter().filter(|e| e.kind.name() == kind).count()
}

#[test]
fn constrained_batteries_deplete_and_recharge() {
    // Small half-charged batteries under the busy paper arrival rate: some
    // devices must die within the horizon, and the tight charging window
    // must revive at least one of them.
    let spec: ScenarioSpec = "battery-constrained:users=10:slots=4000:arrival_p=0.05"
        .parse()
        .expect("spec parses");
    let config = spec
        .build_with_policy(PolicySpec::Immediate)
        .expect("builds");
    let (result, events) = traced_run(config);
    let deaths = count_kind(&events, "battery-depleted");
    let revivals = count_kind(&events, "recharged");
    assert!(deaths > 0, "no device ever depleted its battery");
    assert!(revivals > 0, "no depleted device ever recharged");
    assert!(result.total_updates > 0, "the fleet still trains");

    // Dead time costs throughput: the same shape with immortal batteries
    // produces strictly more updates.
    let immortal: ScenarioSpec =
        "battery-constrained:users=10:slots=4000:arrival_p=0.05:battery=off:churn=off"
            .parse()
            .expect("spec parses");
    let plain = run_simulation(
        immortal
            .build_with_policy(PolicySpec::Immediate)
            .expect("builds"),
    );
    assert!(
        result.total_updates < plain.total_updates,
        "battery deaths must cost updates ({} vs {})",
        result.total_updates,
        plain.total_updates
    );
}

#[test]
fn churn_takes_users_offline_and_brings_them_back() {
    let spec: ScenarioSpec = "smoke:users=12:slots=1500:churn=heavy"
        .parse()
        .expect("spec parses");
    let config = spec
        .build_with_policy(PolicySpec::Online { v: None })
        .expect("builds");
    let (_, events) = traced_run(config.clone());
    let offline = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::UserChurned { offline, .. } => Some(offline),
            _ => None,
        })
        .collect::<Vec<_>>();
    assert!(
        offline.iter().any(|&o| o),
        "heavy churn never took a user offline"
    );
    assert!(
        offline.iter().any(|&o| !o),
        "no churned user ever came back online"
    );
    // And twice over: the churn lane is deterministic.
    let (_, events_b) = traced_run(config);
    assert_eq!(events_to_jsonl(&events), events_to_jsonl(&events_b));
}

#[test]
fn compression_cuts_radio_energy_and_dampens_updates() {
    let radio_energy = |result: &SimResult| {
        result
            .energy_by_component
            .iter()
            .find(|(c, _)| *c == EnergyComponent::Radio)
            .map_or(0.0, |&(_, j)| j)
    };
    let compressed_spec: ScenarioSpec = "compressed-uplink:users=8:slots=1500"
        .parse()
        .expect("spec parses");
    let compressed_config = compressed_spec
        .build_with_policy(PolicySpec::Immediate)
        .expect("builds");
    let (compressed, events) = traced_run(compressed_config);
    let plain_spec: ScenarioSpec = "compressed-uplink:users=8:slots=1500:compress=off"
        .parse()
        .expect("spec parses");
    let plain = run_simulation(
        plain_spec
            .build_with_policy(PolicySpec::Immediate)
            .expect("builds"),
    );

    // Every completed upload is announced with its compressed byte count.
    let uploads = count_kind(&events, "compressed-upload");
    assert_eq!(
        uploads as u64, compressed.total_updates,
        "one compressed-upload event per update"
    );

    // A 0.25 ratio shrinks the upload leg, so radio energy strictly drops
    // while the exchange count stays comparable.
    assert!(
        radio_energy(&compressed) < radio_energy(&plain),
        "compression must cut radio energy ({} vs {})",
        radio_energy(&compressed),
        radio_energy(&plain)
    );
    assert!(radio_energy(&compressed) > 0.0, "radio is still metered");
}
