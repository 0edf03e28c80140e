//! Metamorphic relations: two runs that must agree, asserted where no oracle
//! says what either run should be.
//!
//! **Horizon prefix.** Nothing a run does before slot `T` may depend on how
//! long the run goes on after it, so the semantic events a `slots=T` run
//! stamps before slot `T` are, event for event, those a `slots=2T` run
//! stamps there. Left out are `RunStart`, which records the horizon, and
//! what is stamped at `T` itself (the final samples and `RunEnd`). The
//! exceptions are the three models that are functions of the horizon by
//! design, and only those: Offline's planning window, cut at the horizon;
//! churn, whose intervals are drawn over the horizon; and the flash-crowd
//! arrival curve, whose burst sits at a fraction of it.
//!
//! **Fleet prefix.** A user's arrivals are a function of the seed and its
//! id, and devices are dealt round-robin, so under Immediate user `i`'s
//! semantic events on a `users=N` run are, event for event, its events on a
//! `users=2N` run, for every `i < N`. Users meet only in the global model's
//! version, so the lag and version of a merge are left out.

mod coin_flip;

use fedco::prelude::*;

/// The semantic events `scenario:slots={slots}` stamps under `policy` before
/// slot `before`, its `RunStart` left out.
fn semantic_prefix(scenario: &str, slots: u64, policy: &PolicySpec, before: u64) -> Vec<Event> {
    let spec: ScenarioSpec = format!("{scenario}:slots={slots}")
        .parse()
        .unwrap_or_else(|e| panic!("{scenario}: {e}"));
    let config = spec
        .build_with_policy(policy.clone())
        .unwrap_or_else(|e| panic!("{scenario} x {policy:?}: {e}"));
    let (_, events) = run_simulation_traced(config);
    events
        .into_iter()
        .filter(|e| e.channel() == Channel::Semantic && e.slot < before)
        .filter(|e| !matches!(e.kind, EventKind::RunStart { .. }))
        .collect()
}

/// The first event at which the two prefixes part, or `None`.
fn first_difference(short: &[Event], long: &[Event]) -> Option<String> {
    let at = short.iter().zip(long).position(|(a, b)| a != b);
    match at {
        Some(i) => Some(format!("event {i}: {:?} != {:?}", short[i], long[i])),
        None if short.len() != long.len() => {
            Some(format!("{} events != {}", short.len(), long.len()))
        }
        None => None,
    }
}

/// Whether `scenario` at `slots` and at twice that agree before `slots`;
/// the prefix must hold schedules, so the relation is never vacuous.
fn prefix_holds(scenario: &str, slots: u64, policy: &PolicySpec) -> Result<(), String> {
    let short = semantic_prefix(scenario, slots, policy, slots);
    let long = semantic_prefix(scenario, 2 * slots, policy, slots);
    assert!(
        short.iter().any(|e| e.kind.name() == "schedule"),
        "{scenario} x {policy:?}: nothing scheduled before slot {slots}"
    );
    match first_difference(&short, &long) {
        Some(diff) => Err(format!("{scenario} at slots={slots} x {policy:?}: {diff}")),
        None => Ok(()),
    }
}

/// The paper's policies that are not functions of the horizon, and one
/// whose decisions draw randomness.
fn policies() -> [PolicySpec; 4] {
    [
        PolicySpec::Immediate,
        PolicySpec::SyncSgd,
        PolicySpec::Online { v: None },
        coin_flip::coin_flip(),
    ]
}

#[test]
fn a_horizon_is_the_prefix_of_a_longer_one() {
    // The paper's setting, the fast one and the busy one, then every world
    // model that is not a function of the horizon: batteries, the diurnal
    // and MMPP arrival curves, uplink compression.
    for scenario in [
        "paper-default",
        "smoke",
        "dense-burst",
        "battery-constrained:churn=off",
        "diurnal-day",
        "paper-default:arrival=mmpp",
        "compressed-uplink",
    ] {
        let slots = scenario.parse::<ScenarioSpec>().expect("parses").slots();
        for policy in policies() {
            prefix_holds(scenario, slots, &policy).unwrap_or_else(|diff| panic!("{diff}"));
        }
    }
}

#[test]
fn the_exceptions_are_functions_of_the_horizon() {
    // Each named exception does break the relation. Offline's window from
    // slot 3500 ends at the horizon, 3600, in one run and at 4000 in the
    // other, so the two plan it differently.
    for (scenario, policy) in [
        ("dense-burst", PolicySpec::Offline),
        ("paper-default:churn=heavy", PolicySpec::Immediate),
        ("flash-crowd", PolicySpec::Immediate),
    ] {
        assert!(prefix_holds(scenario, 3600, &policy).is_err(), "{scenario}");
    }
}

/// The user an event is about and the event with the fields that couple
/// users (a merge's lag and version) zeroed; `None` for fleet-wide events.
fn own_part(kind: &EventKind) -> Option<(u64, EventKind)> {
    match *kind {
        EventKind::Merge { user, .. } => Some((
            user,
            EventKind::Merge {
                user,
                lag: 0,
                version: 0,
            },
        )),
        EventKind::Schedule { user, .. }
        | EventKind::BatteryDepleted { user, .. }
        | EventKind::Recharged { user, .. }
        | EventKind::UserChurned { user, .. }
        | EventKind::CompressedUpload { user, .. } => Some((user, kind.clone())),
        _ => None,
    }
}

/// Each of the first `of` users' own semantic events on
/// `scenario:users={users}` under Immediate, in stream order.
fn per_user_events(scenario: &str, users: usize, of: usize) -> Vec<Vec<Event>> {
    let config = format!("{scenario}:users={users}")
        .parse::<ScenarioSpec>()
        .unwrap_or_else(|e| panic!("{scenario}: {e}"))
        .build_with_policy(PolicySpec::Immediate)
        .unwrap_or_else(|e| panic!("{scenario}: {e}"));
    let (_, events) = run_simulation_traced(config);
    let mut per_user = vec![Vec::new(); of];
    for event in &events {
        if let Some((user, kind)) = own_part(&event.kind) {
            if let Some(own) = per_user.get_mut(user as usize) {
                own.push(Event::new(event.slot, kind));
            }
        }
    }
    per_user
}

#[test]
fn a_fleet_is_the_prefix_of_a_larger_one() {
    for scenario in ["paper-default", "smoke"] {
        let n = scenario.parse::<ScenarioSpec>().expect("parses").users();
        let small = per_user_events(scenario, n, n);
        let large = per_user_events(scenario, 2 * n, n);
        for (user, (a, b)) in small.iter().zip(&large).enumerate() {
            assert!(
                a.iter().any(|e| e.kind.name() == "merge"),
                "{scenario}: user {user} uploads nothing"
            );
            if let Some(diff) = first_difference(a, b) {
                panic!("{scenario}: user {user} at users={n} and {}: {diff}", 2 * n);
            }
        }
    }
}
