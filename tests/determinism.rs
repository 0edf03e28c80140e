//! Determinism regression tests: the whole stack must be a pure function of
//! `SimConfig` (including its seed). Guards the std-only PRNG in `fedco-rng`
//! against accidentally introduced global state (thread-local generators,
//! time-based seeding, HashMap iteration order, ...).

use fedco::prelude::*;

fn config(policy: PolicySpec) -> SimConfig {
    SimConfig {
        num_users: 6,
        total_slots: 600,
        arrival_probability: 0.01,
        policy,
        record_every_slots: 25,
        record_user_gaps: true,
        ..SimConfig::default()
    }
}

/// Two runs with the same config and seed must agree bit-for-bit: same total
/// energy, same staleness traces, same per-update lags and gaps.
#[test]
fn same_seed_is_bit_identical_for_every_policy() {
    for policy in PolicySpec::PAPER {
        let a = run_simulation(config(policy.clone()).with_seed(7));
        let b = run_simulation(config(policy.clone()).with_seed(7));
        assert_eq!(
            a.total_energy_j.to_bits(),
            b.total_energy_j.to_bits(),
            "total energy diverged for {policy:?}"
        );
        assert_eq!(a.trace, b.trace, "trace diverged for {policy:?}");
        assert_eq!(
            a.updates, b.updates,
            "update events diverged for {policy:?}"
        );
        assert_eq!(
            a.user_gaps, b.user_gaps,
            "user gap series diverged for {policy:?}"
        );
        assert_eq!(a.total_updates, b.total_updates);
        assert_eq!(a.max_lag, b.max_lag);
        assert_eq!(a.mean_lag.to_bits(), b.mean_lag.to_bits());
        assert_eq!(a.final_queue.to_bits(), b.final_queue.to_bits());
        assert_eq!(
            a.final_virtual_queue.to_bits(),
            b.final_virtual_queue.to_bits()
        );
    }
}

/// The real-training path (LeNet on synthetic CIFAR) must be deterministic
/// too: weight init, shard partitioning, dropout and evaluation all draw from
/// seeded streams.
#[test]
fn ml_mode_is_bit_identical_given_seed() {
    let make = || {
        let mut c = config(PolicySpec::Immediate).with_seed(11);
        c.num_users = 3;
        c.total_slots = 400;
        c.ml = MlMode::Tiny;
        run_simulation(c)
    };
    let a = make();
    let b = make();
    assert_eq!(a.total_energy_j.to_bits(), b.total_energy_j.to_bits());
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.updates, b.updates);
    match (a.final_accuracy, b.final_accuracy) {
        (Some(x), Some(y)) => assert_eq!(x.to_bits(), y.to_bits(), "accuracy diverged"),
        other => panic!("expected accuracy from both runs, got {other:?}"),
    }
}

/// Different seeds must actually change the realisation — otherwise the
/// "determinism" above would be vacuous.
#[test]
fn different_seeds_differ() {
    let a = run_simulation(config(PolicySpec::Online { v: None }).with_seed(1));
    let b = run_simulation(config(PolicySpec::Online { v: None }).with_seed(2));
    assert!(
        a.total_energy_j != b.total_energy_j || a.updates != b.updates,
        "seeds 1 and 2 produced identical runs"
    );
}
