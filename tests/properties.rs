//! Property-based tests of the core invariants, spanning crates.
//!
//! The offline build cannot use `proptest`, so each property is exercised by
//! a hand-rolled loop over 64 seeded random cases: same spirit (random
//! inputs, invariant assertions), fully deterministic across runs.

use fedco_rng::rngs::SmallRng;
use fedco_rng::{Rng, SeedableRng};

use fedco::prelude::*;

/// Number of random cases per property, matching the old
/// `ProptestConfig::with_cases(64)`.
const CASES: u64 = 64;

/// Runs `body` for `CASES` independently seeded generators so a failure
/// message pinpoints the offending case seed.
fn for_each_case(property_seed: u64, mut body: impl FnMut(&mut SmallRng)) {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(property_seed ^ (case.wrapping_mul(0x9E37_79B9)));
        body(&mut rng);
    }
}

fn vec_f64(rng: &mut SmallRng, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

fn vec_f32(rng: &mut SmallRng, len: usize, lo: f32, hi: f32) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

/// The knapsack DP never exceeds the staleness budget and never does
/// worse than the greedy value-density heuristic.
#[test]
fn knapsack_respects_budget_and_dominates_greedy() {
    for_each_case(0xA1, |rng| {
        let n = rng.gen_range(1..20usize);
        let values = vec_f64(rng, n, 0.1, 500.0);
        let weights = vec_f64(rng, n, 0.5, 50.0);
        let budget = rng.gen_range(1.0..200.0);
        let items: Vec<KnapsackItem> = (0..n)
            .map(|i| KnapsackItem {
                user_id: i,
                value: values[i],
                weight: weights[i],
            })
            .collect();
        let scheduler = OfflineScheduler::new(budget, WeightPredictor::new(0.05, 0.9));
        let dp = scheduler.solve(&items);
        let greedy = greedy_solution(&items, budget);
        // Budget respected (up to the discretisation resolution of 1 unit per item).
        assert!(dp.total_gap <= budget + 1e-9);
        // DP at least as good as greedy minus discretisation slack: the DP
        // rounds weights up to integer units, so allow the greedy to win by
        // at most the value lost to rounding (bounded by the largest item value).
        let slack = values.iter().cloned().fold(0.0, f64::max);
        assert!(dp.total_saving_j + slack >= greedy.total_saving_j);
        // Selected users are unique.
        let mut sorted = dp.selected.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), dp.selected.len());
    });
}

/// The knapsack DP is optimal, checked the way Pilla's minimal-energy FL
/// schedulers are (PAPERS.md): on small instances with integer-unit weights
/// an independent `2ⁿ` enumeration finds no better value, and the budget
/// holds. Values are multiples of ¼ so every sum is exact and ties are
/// common.
#[test]
fn knapsack_matches_exhaustive_enumeration() {
    for_each_case(0xA2, |rng| {
        let n = rng.gen_range(0..=12usize);
        let items: Vec<KnapsackItem> = (0..n)
            .map(|user_id| KnapsackItem {
                user_id,
                value: f64::from(rng.gen_range(-4..40i32)) * 0.25,
                weight: f64::from(rng.gen_range(0..9u32)),
            })
            .collect();
        let total: f64 = items.iter().map(|item| item.weight).sum();
        let budget = f64::from(rng.gen_range(0..=total as u32 + 2));
        let best = (0..1u32 << n)
            .filter_map(|subset| {
                let chosen = || {
                    items
                        .iter()
                        .enumerate()
                        .filter(move |(i, _)| subset >> i & 1 == 1)
                };
                let weight: f64 = chosen().map(|(_, item)| item.weight).sum();
                (weight <= budget).then(|| chosen().map(|(_, item)| item.value).sum::<f64>())
            })
            .fold(0.0, f64::max);
        let dp = OfflineScheduler::new(budget, WeightPredictor::new(0.05, 0.9)).solve(&items);
        assert_eq!(dp.total_saving_j, best, "budget {budget}: {items:?}");
        assert!(dp.total_gap <= budget, "budget {budget}: {items:?}");
    });
}

/// Task-queue and virtual-queue backlogs never go negative and follow
/// the max(·, 0) dynamics exactly.
#[test]
fn queue_dynamics_are_nonnegative() {
    for_each_case(0xB2, |rng| {
        let steps = rng.gen_range(1..200usize);
        let bound = rng.gen_range(0.0..100.0f64);
        let mut queues = OnlineScheduler::new(SchedulerConfig {
            staleness_bound: bound,
            ..SchedulerConfig::default()
        });
        let mut expected_q = 0.0f64;
        let mut expected_h = 0.0f64;
        for _ in 0..steps {
            let arrivals = rng.gen_range(0..10usize);
            let services = rng.gen_range(0..10usize);
            let gap = rng.gen_range(0.0..200.0f64);
            queues.end_of_slot(&SlotOutcome {
                arrivals,
                scheduled: services,
                gap_sum: gap,
            });
            expected_q = (expected_q - services as f64).max(0.0) + arrivals as f64;
            expected_h = (expected_h + gap - bound).max(0.0);
            assert!(queues.queue_backlog() >= 0.0);
            assert!(queues.virtual_backlog() >= 0.0);
            assert!((queues.queue_backlog() - expected_q).abs() < 1e-9);
            assert!((queues.virtual_backlog() - expected_h).abs() < 1e-9);
        }
    });
}

/// The Eq.-4 gradient-gap prediction is zero for zero lag, monotone in
/// the lag and linear in the momentum norm.
#[test]
fn gap_prediction_monotonicity() {
    for_each_case(0xC3, |rng| {
        let eta = rng.gen_range(0.001..0.5f32);
        let beta = rng.gen_range(0.0..0.99f32);
        let norm = rng.gen_range(0.0..100.0f32);
        let lag = rng.gen_range(1..200u64);
        let p = WeightPredictor::new(eta, beta);
        assert_eq!(p.predict_gap(Lag(0), norm), GradientGap(0.0));
        let g1 = p.predict_gap(Lag(lag), norm);
        let g2 = p.predict_gap(Lag(lag + 1), norm);
        assert!(g2.value() >= g1.value() - 1e-9);
        let doubled = p.predict_gap(Lag(lag), norm * 2.0);
        assert!((doubled.value() - 2.0 * g1.value()).abs() < 1e-3 * (1.0 + g1.value()));
    });
}

/// The per-slot energy saving s_i = P_b + P_a − P_a' and the Table-II
/// saving percentage always agree in sign direction for equal durations.
#[test]
fn power_model_energy_is_consistent() {
    // Exhaustive over the testbed cross-product, random in the slot length.
    let mut rng = SmallRng::seed_from_u64(0xD4);
    for &device in DeviceKind::ALL.iter() {
        for &app in AppKind::ALL.iter() {
            for _ in 0..8 {
                let model = PowerModel::new(device.profile());
                let slot = Seconds(rng.gen_range(0.1..10.0f64));
                let corun = model.slot_energy(PowerState::CoRunning(app), slot);
                let separate = model.slot_energy(PowerState::TrainingOnly, slot)
                    + model.slot_energy(PowerState::AppOnly(app), slot);
                let saving_power = model.profile().corun_saving_power(app).value();
                // s_i > 0 iff separate per-slot energy exceeds co-running energy.
                assert_eq!(saving_power > 0.0, separate.value() > corun.value());
                // Idle is always the cheapest state.
                let idle = model.slot_energy(PowerState::Idle, slot);
                assert!(idle.value() <= corun.value());
                assert!(idle.value() <= separate.value());
            }
        }
    }
}

/// Momentum tracking (Eq. 1) keeps the velocity norm bounded by the
/// largest observed step norm.
#[test]
fn momentum_norm_is_bounded_by_max_step() {
    for_each_case(0xE5, |rng| {
        let beta = rng.gen_range(0.0..0.99f32);
        let steps = rng.gen_range(1..50usize);
        let mut tracker = MomentumTracker::new(beta, 0.1);
        let mut max_norm = 0.0f32;
        for _ in 0..steps {
            let v = ParamVector::new(vec_f32(rng, 4, -5.0, 5.0));
            max_norm = max_norm.max(v.norm_l2());
            tracker.observe_step(&v).unwrap();
        }
        assert!(tracker.velocity_norm() <= max_norm + 1e-4);
    });
}

/// FedAvg aggregation stays inside the convex hull of the inputs
/// coordinate-wise.
#[test]
fn weighted_average_is_in_convex_hull() {
    for_each_case(0xF6, |rng| {
        let n = rng.gen_range(1..16usize);
        let a = vec_f32(rng, n, -10.0, 10.0);
        let deltas = vec_f32(rng, n, 0.0, 5.0);
        let w1 = rng.gen_range(0.1..10.0f32);
        let w2 = rng.gen_range(0.1..10.0f32);
        let va = ParamVector::new(a.clone());
        let vb = ParamVector::new((0..n).map(|i| a[i] + deltas[i]).collect());
        let avg = ParamVector::weighted_average(&[va.clone(), vb.clone()], &[w1, w2]).unwrap();
        for i in 0..n {
            let lo = va.values()[i].min(vb.values()[i]) - 1e-4;
            let hi = va.values()[i].max(vb.values()[i]) + 1e-4;
            assert!(avg.values()[i] >= lo && avg.values()[i] <= hi);
        }
    });
}

/// The online decision rule is monotone in the queue backlog: if the
/// controller schedules at some backlog, it also schedules at any larger
/// backlog (all else equal).
#[test]
fn online_decision_is_monotone_in_queue() {
    for_each_case(0x17, |rng| {
        let v = rng.gen_range(1.0..10_000.0f64);
        let arrivals = rng.gen_range(1..200usize);
        let profile = DeviceKind::Pixel2.profile();
        let input = OnlineDecisionInput::from_profile(
            &profile,
            AppStatus::App(AppKind::Map),
            GradientGap(0.5),
            GradientGap(0.5),
        );
        let config = SchedulerConfig::default().with_v(v);
        let mut low = OnlineScheduler::new(config);
        let mut high = OnlineScheduler::new(config);
        low.end_of_slot(&SlotOutcome {
            arrivals,
            scheduled: 0,
            gap_sum: 0.0,
        });
        high.end_of_slot(&SlotOutcome {
            arrivals: arrivals * 2,
            scheduled: 0,
            gap_sum: 0.0,
        });
        if low.decide(&input) == SlotDecision::Schedule {
            assert_eq!(high.decide(&input), SlotDecision::Schedule);
        }
    });
}
