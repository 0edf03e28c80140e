//! The paper's claims as assertions. First the figures and tables, each on
//! the value its `fedco-bench` function returns — the value its binary
//! prints: Observation 1 on Table II, Fig. 2, Fig. 4 with Theorem 1, Fig. 5
//! and Fig. 6. Then what those figures rest on but do not assert (the
//! co-running mechanism, update counts, lag, the gap correlation, the
//! staleness budget, energy accounting, the knapsack), on scenario strings
//! and 8-user toy runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fedco::prelude::*;
use fedco_bench::figures::{self, FIG4_V};

/// Fig. 4 and Theorem 1 on [`figures::fig4`]: `paper-default` over a
/// 3 600-slot horizon, the online controller along the `V` ladder at three
/// staleness budgets, and the three baselines. Seconds optimised, minutes
/// not, hence release only like Fig. 5 (`ci.sh` runs it).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes without optimisation; ci.sh runs it in --release"
)]
fn fig4_energy_falls_and_backlog_grows_with_v_between_offline_and_sync() {
    let fig = figures::fig4().expect("fig4's scenarios build");
    let [immediate, sync, offline] = &fig.baselines;
    let [immediate, sync, offline] = [immediate, sync, offline].map(|r| r.total_energy_j);
    // What `fig4_tradeoff` prints, in kJ:
    //   Offline 108.1 <= every Online point with V >= 1e3 (112.0 .. 174.0)
    //   < Sync-SGD 177.3 < Immediate 280.9
    //   L_b = 100: 280.1 174.0 166.2 162.4 159.0 156.4 | 158.2 at V = 1e5
    //   L_b = 1000: 280.1 165.4 156.7 144.7 126.0 115.8 | 112.0 at V = 1e5
    //   mean Q(t) at L_b = 100: 0.1 .. 1729.6, at L_b = 1000: 0.1 .. 16298.2
    assert!(
        offline < sync && sync < immediate,
        "{offline} {sync} {immediate}"
    );
    for rung in fig.ladder.chunks(FIG4_V.len()) {
        let points: Vec<(f64, f64)> = rung
            .iter()
            .map(|(_, _, r)| (r.total_energy_j, r.mean_queue))
            .collect();
        let at = |i: usize| format!("L_b = {}, V = {}: {:?}", rung[i].0, rung[i].1, points[i]);
        for i in 1..rung.len() {
            // Theorem 1: the backlog bound is O(V) ...
            assert!(points[i].1 >= points[i - 1].1, "Q(t) fell at {}", at(i));
            // ... and the energy gap O(1/V).
            if rung[i].1 <= 4e4 {
                assert!(points[i].0 <= points[i - 1].0, "energy rose at {}", at(i));
            }
            // Fig. 4(a): Online between the offline envelope and Sync-SGD.
            assert!(
                offline <= points[i].0 && points[i].0 < sync,
                "{} outside [{offline}, {sync})",
                at(i)
            );
        }
        // By V = 4e4 the O(1/V) gap is spent: the last rung may rise, by at
        // most 2 % (L_b = 100 reads +1.2 %; L_b = 1000 still falls 3.3 %).
        assert!(
            points[6].0 <= 1.02 * points[5].0,
            "{} rose over 2 % above {:?}",
            at(6),
            points[5]
        );
    }
}

/// Fig. 5 on [`figures::fig5`]: `paper-default:ml=full:seed=42` — the
/// benchmark's `fig5-ml` run, which takes seconds optimised and minutes
/// not, hence release only (`ci.sh` runs it).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes without optimisation; ci.sh runs it in --release"
)]
fn fig5_online_converges_sooner_than_sync_and_cheaper_than_immediate() {
    let figures::Fig5([online, offline, immediate, sync]) =
        figures::fig5().expect("fig5's scenario builds");
    // What `fig5_convergence` prints, with the margin each threshold leaves:
    //   time to 25 % accuracy  online 3600 s, Sync-SGD 10200 s  -> 2.83x (>= 2; paper ~3)
    //   energy                 online 442.7 kJ, Immediate 841.4 kJ -> 47.38 % saved (>= 40)
    //                          Offline 321.2 kJ (the envelope: 121.5 kJ below online)
    //   best accuracy          online 64.0 % (>= 50)
    // Accuracy is sampled every 200 slots, so the times are multiples of 200 s.
    let t25 = |r: &SimResult| r.time_to_accuracy(0.25).expect("reaches 25 % accuracy");
    let speedup = t25(&sync) / t25(&online);
    assert!(
        speedup >= 2.0,
        "online reaches 25 % only {speedup:.2}x sooner"
    );
    let saving = 1.0 - online.total_energy_j / immediate.total_energy_j;
    assert!(saving >= 0.40, "online saves only {:.1} %", 100.0 * saving);
    assert!(
        online.total_energy_j >= offline.total_energy_j,
        "online ({} J) undercuts the offline envelope ({} J)",
        online.total_energy_j,
        offline.total_energy_j
    );
    let best = online.best_accuracy().expect("accuracy is evaluated");
    assert!(best >= 0.50, "online peaks at {:.1} %", 100.0 * best);
}

/// Fig. 6 on [`figures::fig6`]. (a) Energy rises with the arrival rate for
/// Online, Immediate and Offline, and Online degrades into Immediate: its
/// energy as a share of Immediate's rises with the rate. (b) With scarce
/// arrivals Offline's accuracy suffers from too few updates: below Online's
/// at every rate. The paper's other half of (b), that Online shows "no
/// noticeable degradation", the data does not have (EXPERIMENTS.md, "Fig. 6
/// as the data has it"). Release only: (b) trains the LeNet.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes without optimisation; ci.sh runs it in --release"
)]
fn fig6_energy_rises_with_the_arrival_rate_and_offline_trails_online_when_scarce() {
    let fig = figures::fig6().expect("fig6's scenarios build");
    // What `fig6_arrival` prints at p = 1e-4 .. 0.2, in kJ:
    //   Online     118.4 144.7 266.2 324.0 335.1 339.6
    //   Immediate  266.7 280.9 332.0 356.7 363.8 364.4
    //   Offline     65.0 108.1 266.9 326.6 338.1 342.7
    //   Online / Immediate 0.44 0.52 0.80 0.91 0.92 0.93
    let series = |of: fn(&[SimResult; 3]) -> f64| -> Vec<f64> {
        fig.energy.iter().map(|(_, runs)| of(runs)).collect()
    };
    let rising = |name: &str, values: &[f64]| {
        for pair in values.windows(2) {
            assert!(pair[0] < pair[1], "{name} fell along the rates: {values:?}");
        }
    };
    rising("Online", &series(|[online, ..]| online.total_energy_j));
    rising(
        "Immediate",
        &series(|[_, immediate, _]| immediate.total_energy_j),
    );
    rising("Offline", &series(|[.., offline]| offline.total_energy_j));
    rising(
        "Online / Immediate",
        &series(|[online, immediate, _]| online.total_energy_j / immediate.total_energy_j),
    );
    // Best accuracy at p = 1e-4, 5e-4, 1e-3 on 10 devices:
    //   Online 33 30 40 %, Immediate 39 39 39 %, Offline 15 16 16 %.
    let best = |r: &SimResult| r.best_accuracy().expect("accuracy is evaluated");
    for (p, [online, _, offline]) in &fig.accuracy {
        assert!(
            best(offline) < best(online),
            "p = {p}: Offline {} >= Online {}",
            best(offline),
            best(online)
        );
    }
}

/// Fig. 2 / Observation 3 on [`figures::fig2`]: co-running with training
/// leaves the foreground app's mean frame rate where it was. `fig2_fps`
/// prints a slowdown of the mean of -0.6 % for Angry Birds and 0.2 % for
/// TikTok; the bound is 1 %.
#[test]
fn fig2_corunning_leaves_the_mean_fps_within_one_percent() {
    let figures::Fig2(runs) = figures::fig2();
    assert_eq!(runs.len(), 2);
    for run in &runs {
        let slowdown = run.slowdown();
        assert!(
            slowdown.abs() < 0.01,
            "{}: mean FPS {:.2} % slower co-running",
            run.app.name(),
            100.0 * slowdown
        );
    }
}

/// Observation 1 — co-running an application with training costs less than
/// running the two back to back — on [`figures::table2`], asserted as the
/// data has it rather than as the abstract rounds it.
#[test]
fn observation_1_corunning_is_cheaper_wherever_table_2_says_so() {
    // The paper's own Table II has three pairs on which co-running costs
    // *more* (its negative "saving" cells), all on the two older phones.
    let surges = [
        (DeviceKind::Nexus6, AppKind::Youtube),
        (DeviceKind::Nexus6, AppKind::CandyCrush),
        (DeviceKind::Nexus6P, AppKind::News),
    ];
    let mut savings = Vec::new();
    for (device, apps) in figures::table2().0 {
        for (app, pair) in apps {
            if surges.contains(&(device, app)) {
                assert!(pair.corun > pair.separate_total(), "{device:?} {app:?}");
            } else {
                assert!(pair.corun < pair.separate_total(), "{device:?} {app:?}");
            }
            savings.push((device, pair.saving_fraction()));
        }
    }
    // 29 of the 4 x 8 pairs save energy.
    assert_eq!(savings.len(), 32);
    assert_eq!(savings.iter().filter(|(_, s)| *s > 0.0).count(), 29);

    // What `table2_energy` prints, to the bit of the profiles.
    let min = savings
        .iter()
        .map(|&(_, s)| s)
        .fold(f64::INFINITY, f64::min);
    let max = savings
        .iter()
        .map(|&(_, s)| s)
        .fold(-f64::INFINITY, f64::max);
    let mut mean = 0.0;
    for &(_, s) in &savings {
        mean += s / savings.len() as f64;
    }
    let pinned = |got: f64, want: f64| (got - want).abs() < 1e-12;
    assert!(pinned(min, -0.378_644_862_622_497_2), "min {min:?}"); // Nexus 6, CandyCrush
    assert!(pinned(mean, 0.224_260_337_911_142_86), "mean {mean:?}");
    assert!(pinned(max, 0.471_748_627_454_527_4), "max {max:?}"); // HiKey 970, Map

    // The discount proper sits on the two newer devices, every application:
    // HiKey 970 33-47 %, Pixel 2 23-34 % — the abstract's "35-50 %" is the
    // HiKey's range rounded up (EXPERIMENTS.md records the difference).
    for (device, percent) in [
        (DeviceKind::Hikey970, 33.0..=47.0),
        (DeviceKind::Pixel2, 23.0..=34.0),
    ] {
        for &(_, s) in savings.iter().filter(|(d, _)| *d == device) {
            let printed = (100.0 * s).round();
            assert!(percent.contains(&printed), "{device:?}: {printed} %");
        }
    }
}

/// Eq. 21/22 weigh power by the slot length `t_d`, which is the run's
/// `slot_seconds`. At 2-second slots, `V = 4000` puts the same `V·P·t_d` on
/// every decision as `V = 8000` at `t_d = 1` (doubling is exact), so the
/// built-in Online must make the bits of that controller.
#[test]
fn online_weighs_power_by_the_runs_slot_length() {
    #[derive(Debug)]
    struct DoubledV;
    impl PolicyFactory for DoubledV {
        fn label(&self) -> String {
            "Online(V=8000, t_d=1)".to_string()
        }
        fn build(&self, scheduler: &SchedulerConfig) -> Box<dyn SchedulingPolicy> {
            Box::new(OnlineScheduler::new(SchedulerConfig {
                v: 8000.0,
                slot_seconds: 1.0,
                ..*scheduler
            }))
        }
    }
    let spec: ScenarioSpec = "paper-default:slot_seconds=2:slots=5400"
        .parse()
        .expect("parses");
    let config = spec.build().expect("builds");
    assert_eq!(config.scheduler.v, 4000.0);
    assert_eq!(config.scheduler.slot_seconds, 2.0);
    let run = |policy| run_simulation(config.clone().with_policy(policy));
    let builtin = run(PolicySpec::Online { v: None });
    let doubled = run(PolicySpec::custom(DoubledV));
    assert_eq!(
        builtin.total_energy_j.to_bits(),
        doubled.total_energy_j.to_bits()
    );
    assert_eq!(builtin.total_updates, doubled.total_updates);
    assert_eq!(builtin.corun_epochs, doubled.corun_epochs);
    for (a, b) in [
        (builtin.mean_queue, doubled.mean_queue),
        (builtin.mean_virtual_queue, doubled.mean_virtual_queue),
        (builtin.final_queue, doubled.final_queue),
        (builtin.final_virtual_queue, doubled.final_virtual_queue),
    ] {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// The paper's mechanism: Online waits for a foreground app and trains
/// beside it, so a larger share of its updates are co-run epochs than under
/// Immediate, which ignores apps. `sparse` is not asserted: there the two
/// shares tie at one seed (EXPERIMENTS.md, "One slot length").
#[test]
fn online_co_runs_a_larger_share_of_its_updates_than_immediate() {
    for scenario in ["paper-default", "dense-burst"] {
        for seed in 1..=5 {
            let spec: ScenarioSpec = format!("{scenario}:seed={seed}").parse().expect("parses");
            let share = |policy| {
                let config = spec.build_with_policy(policy).expect("builds");
                let result = run_simulation(config.summary_only());
                result.corun_epochs as f64 / result.total_updates as f64
            };
            let online = share(PolicySpec::Online { v: None });
            let immediate = share(PolicySpec::Immediate);
            assert!(
                online > immediate,
                "{scenario} seed {seed}: Online co-runs {online:.3} of its updates, \
Immediate {immediate:.3}"
            );
        }
    }
}

/// A policy that never schedules, so every user waits and is decided in
/// every slot of the run: it counts the user-slots and those that find a
/// foreground app running. Arrivals do not depend on the policy in a run
/// without churn or batteries, so the census holds for every policy.
#[derive(Debug, Default)]
struct AppCensus(Arc<[AtomicU64; 2]>);

impl PolicyFactory for AppCensus {
    fn label(&self) -> String {
        "app-census".to_string()
    }
    fn build(&self, _: &SchedulerConfig) -> Box<dyn SchedulingPolicy> {
        Box::new(AppCensus(Arc::clone(&self.0)))
    }
}

impl SchedulingPolicy for AppCensus {
    fn decide(&mut self, ctx: &UserSlotContext) -> SlotDecision {
        self.0[0].fetch_add(1, Ordering::Relaxed);
        if matches!(ctx.input.app_status, AppStatus::App(_)) {
            self.0[1].fetch_add(1, Ordering::Relaxed);
        }
        SlotDecision::Idle
    }
    fn end_of_slot(&mut self, _: &SlotOutcome) {}
}

/// The mechanism against chance (ROADMAP 5(c)): a policy that started
/// epochs at random instants would co-run about the share of user-slots
/// that have an app running. Online waits for an app, so its co-run share
/// of updates must exceed that share. It does at every seed, by 0.4 to 6.2
/// points (EXPERIMENTS.md, "Online exploits co-running, barely"):
///   paper-default  apps in 20.9–25.1 % of user-slots, Online co-runs 24.0–28.7 %
///                  (narrowest: seed 4, 25.9 % against 25.1 %)
///   dense-burst    apps in 71.0–74.9 % of user-slots, Online co-runs 75.3–79.3 %
///                  (narrowest: seed 3, 75.3 % against 74.9 %)
#[test]
fn online_co_runs_more_of_its_updates_than_the_share_of_slots_with_an_app() {
    for scenario in ["paper-default", "dense-burst"] {
        for seed in 1..=5 {
            let spec: ScenarioSpec = format!("{scenario}:seed={seed}").parse().expect("parses");
            let census = AppCensus::default();
            let counts = Arc::clone(&census.0);
            let config = spec.build_with_policy(PolicySpec::custom(census));
            run_simulation(config.expect("builds").summary_only());
            let [user_slots, app_slots] =
                [&counts[0], &counts[1]].map(|c| c.load(Ordering::Relaxed));
            assert_eq!(
                user_slots,
                spec.users() as u64 * spec.slots(),
                "every user-slot decided"
            );
            let app_share = app_slots as f64 / user_slots as f64;
            let config = spec.build_with_policy(PolicySpec::Online { v: None });
            let online = run_simulation(config.expect("builds").summary_only());
            let corun_share = online.corun_epochs as f64 / online.total_updates as f64;
            assert!(
                corun_share > app_share,
                "{scenario} seed {seed}: Online co-runs {corun_share:.3} of its updates, \
apps run in {app_share:.3} of the user-slots"
            );
        }
    }
}

/// Online's summary run of a scenario string.
fn online_run(scenario: &str) -> SimResult {
    let spec: ScenarioSpec = scenario.parse().expect("parses");
    let config = spec
        .build_with_policy(PolicySpec::Online { v: None })
        .expect("builds");
    run_simulation(config.summary_only())
}

/// Theorem 1 assumes the virtual queue is mean-rate stable,
/// `lim H(T)/T = 0`; over a finite horizon that reads as `H(T)/T` below a
/// hundredth of the scenario's `L_b` (the budget per 25 devices). An
/// infeasible controller grows `H` linearly instead: with `V` and `L_b`
/// unscaled, `server-soak` ended at `H(T)/T` = 143, `city-scale` at 5 885
/// and `mega` at 22 612; every preset reads 0 with them scaled. Every
/// registry preset, with `city-scale` and `mega` cut to the `city-online`
/// and `wide-sync` fleets (7 500 and 25 000 users). Release only: `mega`
/// takes minutes without optimisation.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes without optimisation; ci.sh runs it in --release"
)]
fn online_is_mean_rate_stable_on_every_registry_preset() {
    for preset in ScenarioSpec::default_registry() {
        let scenario = match preset.name() {
            "city-scale" => "city-scale:users=7500".to_string(),
            "mega" => "mega:users=25000".to_string(),
            name => name.to_string(),
        };
        let result = online_run(&scenario);
        let rate = result.final_virtual_queue / preset.slots() as f64;
        let bound = preset.scheduler().staleness_bound / 100.0;
        assert!(rate <= bound, "{scenario}: H(T)/T = {rate} > {bound}");
    }
}

/// The saving per device does not collapse with the fleet: Online against
/// Immediate on `mega` at N = 25, 2 500 and 25 000 stays within 5 points of
/// the 25-device saving (47.4 %, 47.7 % and 47.7 % at seed 42). With `V`
/// and `L_b` unscaled it read 47.4 %, 5.3 % and 5.1 %. Release only, like
/// the test above.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes without optimisation; ci.sh runs it in --release"
)]
fn online_saves_as_much_per_device_at_every_fleet_size() {
    let saving = |users: usize| {
        let spec: ScenarioSpec = format!("mega:users={users}:seed=42")
            .parse()
            .expect("parses");
        let energy = |policy| {
            let config = spec.build_with_policy(policy).expect("builds");
            run_simulation(config.summary_only()).total_energy_j
        };
        1.0 - energy(PolicySpec::Online { v: None }) / energy(PolicySpec::Immediate)
    };
    let base = saving(25);
    for users in [2_500, 25_000] {
        let at = saving(users);
        assert!(
            (at - base).abs() <= 0.05,
            "{users} devices save {:.1} %, 25 save {:.1} %",
            100.0 * at,
            100.0 * base
        );
    }
}

/// The toy configuration of the tests below: 8 users over 1 500 slots, fast
/// enough for the debug suite.
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
fn lag_and_gradient_gap_are_positively_correlated() {
    // Fig. 5a (lower subplot): the simple count of updates (lag) correlates
    // with the norm-based gradient gap.
    let mut config = small(PolicySpec::Immediate);
    config.num_users = 6;
    config.ml = MlMode::Tiny;
    let result = run_simulation(config);
    assert!(result.updates.len() > 5);
    assert!(
        result.lag_gap_correlation() > 0.0,
        "correlation {} should be positive",
        result.lag_gap_correlation()
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
