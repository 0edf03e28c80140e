//! Micro-benchmarks of the paper's schedulers: the per-slot online decision
//! rule (Table III argues it is lightweight), the offline knapsack DP, whose
//! cost scales as O(n · L_b) (Algorithm 1), the offline planner's two
//! halves — Lemma-1 item build, knapsack — on one look-ahead window, the
//! arrival sampler that hands the planner its oracle, and the span accrual
//! every user's power lands through.

use std::hint::black_box;

use fedco_bench::micro;
use fedco_core::prelude::*;
use fedco_device::prelude::*;
use fedco_fl::staleness::{GradientGap, WeightPredictor};
use fedco_world::arrival::ArrivalSpec;

fn bench_online_decision() {
    let scheduler = OnlineScheduler::new(SchedulerConfig::default());
    let profile = DeviceKind::Pixel2.profile();
    let input = OnlineDecisionInput::from_profile(
        &profile,
        AppStatus::App(AppKind::Map),
        GradientGap(1.2),
        GradientGap(0.4),
    );
    micro::bench("online_decision_eq21", || {
        black_box(scheduler.decide(black_box(&input)));
    });

    micro::group("online_full_slot");
    for users in [25usize, 100, 400] {
        let mut sched = OnlineScheduler::new(SchedulerConfig::default());
        micro::bench(&format!("online_full_slot/{users}"), || {
            let mut scheduled = 0usize;
            for _ in 0..users {
                if sched.decide(&input) == SlotDecision::Schedule {
                    scheduled += 1;
                }
            }
            sched.end_of_slot(&SlotOutcome {
                arrivals: users,
                scheduled,
                gap_sum: 50.0,
            });
            black_box(sched.queue_backlog());
        });
    }
}

fn bench_offline_knapsack() {
    let predictor = WeightPredictor::new(0.05, 0.9);
    micro::group("offline_knapsack");
    for &(users, budget) in &[
        (25usize, 1000.0f64),
        (100, 1000.0),
        (25, 10_000.0),
        (200, 5000.0),
    ] {
        let items: Vec<KnapsackItem> = (0..users)
            .map(|i| KnapsackItem {
                user_id: i,
                value: 100.0 + (i as f64 * 37.0) % 400.0,
                weight: 1.0 + (i as f64 * 13.0) % 50.0,
            })
            .collect();
        let scheduler = OfflineScheduler::new(budget, predictor);
        micro::bench(&format!("offline_knapsack/n{users}_Lb{budget}"), || {
            black_box(scheduler.solve(black_box(&items)));
        });
    }
}

/// The planner on the synthetic window `benchmark/`'s `probe_offline_planner`
/// times (every second user has an arrival): the Lemma-1 bound of all of 100
/// users by the per-user scan, next to the item build — the same bounds in
/// one batch — across window sizes (its growth rate is the recorded number),
/// and the knapsack at 2 500 users under the default budget (1 000 units
/// against 1 250 one-unit candidates: the two-row + take-bit DP) and ten
/// times it (every candidate fits: no rows).
fn bench_offline_window() {
    let config = SchedulerConfig::default();
    let window = |users: usize| -> Vec<OfflineUser> {
        (0..users)
            .map(|i| OfflineUser {
                id: i,
                ready_time_s: 0.0,
                app_arrival_s: (i % 2 == 0).then(|| (i as f64 * 37.0) % config.lookahead_window_s),
                duration_s: 200.0 + (i as f64 * 3.0) % 100.0,
                energy_saving_j: 100.0 + (i as f64 * 37.0) % 400.0,
            })
            .collect()
    };
    let users = window(100);
    micro::bench("lemma1_lag_bound_100_users", || {
        let mut total = 0u64;
        for i in 0..users.len() {
            total += lag_bound(black_box(&users), i).value();
        }
        black_box(total);
    });

    let predictor = WeightPredictor::new(config.learning_rate, config.momentum_beta);
    let planner = OfflineScheduler::new(config.staleness_bound, predictor);
    micro::group("offline_window");
    for users in [100usize, 2_500, 20_000] {
        let window = window(users);
        micro::bench(&format!("offline_window/build_items/{users}"), || {
            black_box(planner.build_items(black_box(&window), 2.0));
        });
    }
    let items = planner.build_items(&window(2_500), 2.0);
    for (regime, scale) in [("relaxed", 10.0), ("tight", 1.0)] {
        let planner = OfflineScheduler::new(config.staleness_bound * scale, predictor);
        micro::bench(&format!("offline_window/solve/2500-{regime}"), || {
            black_box(planner.solve(black_box(&items)));
        });
    }
}

/// The fleet sampler over 2 000 users × the paper's 10 800 slots at its
/// rate of 0.001, as one run on this thread: it times the two-stream loop
/// (a constant threshold, a per-period table, a regime chain with a second
/// draw per slot), not the CPU count of the box.
fn bench_arrival_sampling() {
    micro::group("arrivals");
    for spec in &ArrivalSpec::ALL[..3] {
        let model = spec.model();
        micro::bench(
            &format!("arrivals/fleet/{}/2000x10800", spec.label()),
            || {
                black_box(model.sample_fleet(black_box(42), 0..2_000, 10_800, 0.001));
            },
        );
    }
}

/// One closed power span into a lean profiler, as the slot loop lands it: a
/// 100-slot span (`benchmark/`'s `record_span` probe) and a device parked
/// for the paper's whole 10 800-slot horizon. The profiler keeps growing, as
/// a user's does over a run.
fn bench_profiler_span() {
    micro::group("profiler");
    for slots in [100u64, 10_800] {
        let mut profiler = EnergyProfiler::lean(PowerModel::new(DeviceKind::Pixel2.profile()));
        micro::bench(&format!("profiler/record_span/{slots}"), || {
            black_box(profiler.record_span(PowerState::Idle, Seconds(1.0), black_box(slots)));
        });
    }
}

fn main() {
    bench_online_decision();
    bench_offline_knapsack();
    bench_offline_window();
    bench_arrival_sampling();
    bench_profiler_span();
}
