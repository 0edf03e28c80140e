//! Cross-crate integration tests: the qualitative claims of the paper's
//! evaluation should hold end to end on small simulations.

use fedco::prelude::*;

fn small(policy: PolicySpec) -> SimConfig {
    SimConfig {
        num_users: 8,
        total_slots: 1500,
        arrival_probability: 0.004,
        policy,
        record_every_slots: 50,
        ..SimConfig::default()
    }
}

#[test]
fn online_saves_energy_over_immediate_and_sync() {
    // The headline claim: the online controller consumes substantially less
    // energy than immediate scheduling and Sync-SGD.
    let immediate = run_simulation(small(PolicySpec::Immediate));
    let sync = run_simulation(small(PolicySpec::SyncSgd));
    let online = run_simulation(small(PolicySpec::Online { v: None }));
    assert!(online.total_energy_j < immediate.total_energy_j);
    assert!(online.total_energy_j < sync.total_energy_j);
    // And it still makes training progress.
    assert!(online.total_updates > 0);
}

#[test]
fn offline_is_the_energy_lower_envelope_under_relaxed_budget() {
    // Fig. 4a: with L_b = 1000 the offline knapsack acts like a greedy
    // co-running waiter and sits below the online controller in energy.
    let offline = run_simulation(small(PolicySpec::Offline));
    let online = run_simulation(small(PolicySpec::Online { v: None }));
    let immediate = run_simulation(small(PolicySpec::Immediate));
    assert!(offline.total_energy_j <= online.total_energy_j * 1.10);
    assert!(offline.total_energy_j < immediate.total_energy_j);
    // But the offline scheme makes far fewer updates (slow convergence).
    assert!(offline.total_updates <= immediate.total_updates);
}

#[test]
fn immediate_makes_the_most_updates() {
    let immediate = run_simulation(small(PolicySpec::Immediate));
    let online = run_simulation(small(PolicySpec::Online { v: None }));
    let offline = run_simulation(small(PolicySpec::Offline));
    assert!(immediate.total_updates >= online.total_updates);
    assert!(immediate.total_updates >= offline.total_updates);
}

#[test]
fn sync_sgd_has_zero_lag_and_async_does_not() {
    let sync = run_simulation(small(PolicySpec::SyncSgd));
    assert_eq!(sync.max_lag, 0);
    let immediate = run_simulation(small(PolicySpec::Immediate));
    // Asynchronous immediate scheduling with several users produces lag.
    assert!(
        immediate.max_lag > 0,
        "expected nonzero lag, got {}",
        immediate.max_lag
    );
    assert!(immediate.mean_lag > 0.0);
}

#[test]
fn larger_v_trades_staleness_for_energy() {
    // Theorem 1: energy decreases (towards the optimum) while queues grow as
    // V increases.
    let low_v = run_simulation(small(PolicySpec::Online { v: None }).with_v(100.0));
    let high_v = run_simulation(small(PolicySpec::Online { v: None }).with_v(50_000.0));
    assert!(high_v.total_energy_j <= low_v.total_energy_j);
    assert!(high_v.mean_queue >= low_v.mean_queue);
}

#[test]
fn lag_and_gradient_gap_are_positively_correlated() {
    // Fig. 5a (lower subplot): the simple count of updates (lag) correlates
    // with the norm-based gradient gap.
    let mut config = small(PolicySpec::Immediate);
    config.num_users = 6;
    config.ml = Some(MlConfig::tiny());
    let result = run_simulation(config);
    assert!(result.updates.len() > 5);
    assert!(
        result.lag_gap_correlation() > 0.0,
        "correlation {} should be positive",
        result.lag_gap_correlation()
    );
}

#[test]
fn federated_training_improves_accuracy_over_time() {
    // Fig. 5b: test accuracy rises as updates accumulate.
    let mut config = small(PolicySpec::Immediate);
    config.num_users = 4;
    config.total_slots = 2500;
    config.ml = Some(MlConfig::tiny());
    let result = run_simulation(config);
    let first = result
        .trace
        .iter()
        .find_map(|p| p.accuracy)
        .expect("at least one accuracy evaluation");
    let best = result.best_accuracy().unwrap();
    assert!(
        best >= first,
        "accuracy never improved: first {first}, best {best}"
    );
    assert!(
        best > 0.2,
        "model should beat chance on 4 classes, got {best}"
    );
}

#[test]
fn online_controller_respects_the_staleness_budget_on_average() {
    // Eq. (14): the time-averaged sum of gradient gaps stays near or below
    // L_b, which manifests as a virtual queue that does not blow up linearly.
    let result = run_simulation(small(PolicySpec::Online { v: None }));
    let horizon = 1500.0;
    assert!(
        result.final_virtual_queue < horizon,
        "virtual queue {} grew unboundedly",
        result.final_virtual_queue
    );
}

#[test]
fn energy_accounting_is_consistent_with_components() {
    let result = run_simulation(small(PolicySpec::Online { v: None }));
    let sum: f64 = result.energy_by_component.iter().map(|(_, e)| *e).sum();
    let relative = (sum - result.total_energy_j).abs() / result.total_energy_j;
    assert!(
        relative < 1e-9,
        "component sum {} != total {}",
        sum,
        result.total_energy_j
    );
}

#[test]
fn knapsack_scheduler_integrates_with_device_profiles() {
    // Build an offline window by hand from real profiles and check that the
    // scheduler prefers the opportunities with the largest savings.
    let predictor = WeightPredictor::new(0.05, 0.9);
    let scheduler = OfflineScheduler::new(3.0, predictor);
    let pixel = DeviceKind::Pixel2.profile();
    let hikey = DeviceKind::Hikey970.profile();
    let saving = |p: &DeviceProfile, app: AppKind| {
        let t_train = p.training_time().value();
        let t_app = p.corun_time(app).value();
        p.training_power().value() * t_train + p.app_power(app).value() * t_app
            - p.corun_power(app).value() * t_app
    };
    let users = vec![
        OfflineUser {
            id: 0,
            ready_time_s: 0.0,
            app_arrival_s: Some(100.0),
            duration_s: pixel.training_time().value(),
            energy_saving_j: saving(&pixel, AppKind::Map),
        },
        OfflineUser {
            id: 1,
            ready_time_s: 0.0,
            app_arrival_s: Some(2000.0),
            duration_s: hikey.training_time().value(),
            energy_saving_j: saving(&hikey, AppKind::Zoom),
        },
    ];
    let items = scheduler.build_items(&users, 1.0);
    assert_eq!(items.len(), 2);
    // The HiKey saving (~1500 J) dwarfs the Pixel2 saving (~180 J); under a
    // budget that only fits one, the knapsack keeps the HiKey co-run.
    let solution = scheduler.solve(&items);
    assert!(solution.is_selected(1));
}

#[test]
fn different_seeds_change_the_arrival_realisation_not_the_trends() {
    let a = run_simulation(small(PolicySpec::Online { v: None }).with_seed(1));
    let b = run_simulation(small(PolicySpec::Online { v: None }).with_seed(2));
    let imm_a = run_simulation(small(PolicySpec::Immediate).with_seed(1));
    let imm_b = run_simulation(small(PolicySpec::Immediate).with_seed(2));
    // Realisations differ...
    assert!(a.total_energy_j != b.total_energy_j || a.total_updates != b.total_updates);
    // ...but the ordering (online below immediate) holds for both seeds.
    assert!(a.total_energy_j < imm_a.total_energy_j);
    assert!(b.total_energy_j < imm_b.total_energy_j);
}
