//! The three energy-only simulation workloads (`city-online`, `wide-sync`,
//! `offline-plan`) and the simulation case `fig5-ml` shares with them.
//!
//! Only durable surface is used: scenario and policy *strings*,
//! `build_with_policy`, `SimConfig::summary_only`, `Simulation::try_new` /
//! `run` / `engine_stats`.

use std::hint::black_box;

use fedco_core::config::SchedulerConfig;
use fedco_core::offline::{OfflineScheduler, OfflineUser};
use fedco_core::online::{OnlineDecisionInput, OnlineScheduler, SlotOutcome};
use fedco_core::scenario::ScenarioSpec;
use fedco_core::spec::PolicySpec;
use fedco_device::apps::AppKind;
use fedco_device::energy::Seconds;
use fedco_device::power::{AppStatus, PowerModel, PowerState, SlotDecision};
use fedco_device::profiler::EnergyProfiler;
use fedco_device::profiles::DeviceKind;
use fedco_fl::staleness::{GradientGap, WeightPredictor};
use fedco_rng::rngs::SmallRng;
use fedco_rng::{Rng, SeedableRng};
use fedco_sim::arrivals::ArrivalSchedule;
use fedco_sim::engine::{EngineStats, Simulation};
use fedco_sim::trace::SimResult;
use fedco_telemetry::profiling::Stopwatch;

use super::{seconds_per_call, Cx, PassOutcome, Size, Workload};
use crate::stats::Digest;

/// The scenario string and policy of an energy-only workload.
fn inputs(workload: Workload, size: Size, seed: u64) -> (String, &'static str) {
    let (scenario, policy) = match workload {
        Workload::WideSync => (
            size.pick("mega:users=25000", "mega:users=60:slots=1200"),
            "sync-sgd",
        ),
        Workload::OfflinePlan => (
            size.pick("city-scale:users=2500", "city-scale:users=40:slots=1200"),
            "offline",
        ),
        _ => (
            size.pick("city-scale:users=7500", "city-scale:users=40:slots=600"),
            "online",
        ),
    };
    (format!("{scenario}:seed={seed}"), policy)
}

/// One simulation run, timed layer call by layer call.
#[derive(Debug)]
pub struct Case {
    /// Seconds in `ScenarioSpec`/`PolicySpec` parsing and `build_with_policy`.
    pub parse_build_s: f64,
    /// Seconds in `Simulation::try_new`.
    pub construct_s: f64,
    /// Seconds in `Simulation::run`.
    pub run_s: f64,
    /// Users simulated.
    pub users: usize,
    /// Horizon in slots.
    pub slots: u64,
    /// Dense / fast-forwarded slot counts of the run.
    pub stats: EngineStats,
    /// The run's result.
    pub result: SimResult,
}

impl Case {
    /// Whether the run passes the checks every simulation must: finite,
    /// positive energy and a driver that accounted for every slot.
    pub fn ok(&self) -> bool {
        self.result.total_energy_j.is_finite()
            && self.result.total_energy_j > 0.0
            && self.stats.dense_slots + self.stats.fast_forwarded_slots == self.slots
    }

    /// Folds the result's scalars into a digest.
    pub fn digest_into(&self, digest: &mut Digest) {
        let r = &self.result;
        digest.float(r.total_energy_j);
        digest.word(r.total_updates);
        digest.word(r.corun_epochs);
        digest.float(r.mean_lag);
        digest.word(r.max_lag);
        digest.float(r.mean_queue);
        digest.float(r.mean_virtual_queue);
        digest.float(f64::from(r.final_accuracy.unwrap_or(-1.0)));
        digest.word(self.stats.dense_slots);
        digest.word(self.stats.spans);
    }
}

/// Parses, builds, constructs and runs one scenario under one policy.
///
/// # Errors
///
/// A spec that does not parse or a configuration the engine rejects.
pub fn run_case(cx: &mut Cx<'_>, scenario: &str, policy: &str) -> Result<Case, String> {
    let open = cx.tracer.enter("core.scenario.parse_build");
    let spec: ScenarioSpec = scenario
        .parse()
        .map_err(|e| format!("scenario `{scenario}`: {e}"))?;
    let policy_spec: PolicySpec = policy
        .parse()
        .map_err(|e| format!("policy `{policy}`: {e}"))?;
    let mut config = spec
        .build_with_policy(policy_spec)
        .map_err(|e| format!("scenario `{scenario}`: {e}"))?;
    if !spec.traces() {
        config = config.summary_only();
    }
    let parse_build_s = cx.tracer.exit(open);
    let (users, slots) = (config.num_users, config.total_slots);

    let open = cx.tracer.enter("sim.construct");
    let sim = Simulation::try_new(config);
    let construct_s = cx.tracer.exit(open);
    let mut sim = sim.map_err(|e| format!("scenario `{scenario}`: {e}"))?;

    let open = cx.tracer.enter("sim.run");
    let result = sim.run();
    let run_s = cx.tracer.exit(open);
    Ok(Case {
        parse_build_s,
        construct_s,
        run_s,
        users,
        slots,
        stats: sim.engine_stats(),
        result,
    })
}

/// Records the in-situ `core` and `sim` layer samples of one pass made of
/// `cases` (sums over the cases, so a four-run pass reads as one).
pub fn push_layer_samples(cx: &mut Cx<'_>, cases: &[Case]) {
    let total = |f: &dyn Fn(&Case) -> f64| cases.iter().map(f).sum::<f64>();
    let run_s = total(&|c| c.run_s);
    let dense_user_slots = total(&|c| c.stats.dense_slots as f64 * c.users as f64);
    let s = &mut *cx.samples;
    s.push(
        "core.scenario.parse_build_us",
        total(&|c| c.parse_build_s) * 1e6,
    );
    s.push("sim.construct_s", total(&|c| c.construct_s));
    s.push("sim.run_s", run_s);
    s.push(
        "sim.engine.dense_slots",
        total(&|c| c.stats.dense_slots as f64),
    );
    s.push(
        "sim.engine.fast_forwarded_slots",
        total(&|c| c.stats.fast_forwarded_slots as f64),
    );
    s.push("sim.engine.spans", total(&|c| c.stats.spans as f64));
    s.push(
        "sim.engine.ns_per_dense_user_slot",
        run_s * 1e9 / dense_user_slots.max(1.0),
    );
    s.push(
        "sim.result.updates",
        total(&|c| c.result.total_updates as f64),
    );
}

/// One pass of an energy-only workload: one simulation run.
pub fn pass(workload: Workload, cx: &mut Cx<'_>) -> Result<PassOutcome, String> {
    let (scenario, policy) = inputs(workload, cx.size, cx.seed);
    let open = cx.tracer.enter("pass");
    let case = run_case(cx, &scenario, policy);
    let wall_s = cx.tracer.exit(open);
    let case = case?;
    let mut digest = Digest::default();
    case.digest_into(&mut digest);
    let outcome = PassOutcome {
        wall_s,
        setup_s: case.parse_build_s + case.construct_s,
        ops: 1,
        ops_failed: u64::from(!case.ok()),
        digest: digest.value(),
        child_peak_rss_mib: None,
    };
    push_layer_samples(cx, &[case]);
    Ok(outcome)
}

/// Fixed-input probes of the layers under the energy-only workloads.
pub fn probes(workload: Workload, cx: &mut Cx<'_>) -> Result<(), String> {
    let (scenario, _) = inputs(workload, cx.size, cx.seed);
    let spec: ScenarioSpec = scenario
        .parse()
        .map_err(|e| format!("scenario `{scenario}`: {e}"))?;
    probe_rng(cx);
    probe_arrivals(cx, &spec);
    match workload {
        Workload::WideSync => probe_profiler_span(cx),
        Workload::OfflinePlan => probe_offline_planner(cx, spec.users()),
        _ => {
            probe_online_controller(cx);
            probe_profiler_record(cx);
        }
    }
    Ok(())
}

/// `rng`: uniform `f64` draws per second — what arrival sampling is made of.
fn probe_rng(cx: &mut Cx<'_>) {
    let draws = cx.size.pick(4_000_000u32, 40_000);
    let mut rng = SmallRng::seed_from_u64(cx.seed);
    let mut acc = 0.0f64;
    let per_draw = seconds_per_call(draws, 5, || acc += rng.gen::<f64>());
    black_box(acc);
    cx.samples
        .push("rng.draws_per_s", 1.0 / per_draw.max(1e-12));
}

/// `world` and `sim`: sampling the workload's own arrival process, and
/// building the engine's schedule from it (what `try_new` does first).
fn probe_arrivals(cx: &mut Cx<'_>, spec: &ScenarioSpec) {
    let model = spec.arrival().model();
    let (users, slots, p, seed) = (spec.users(), spec.slots(), spec.arrival_p(), spec.seed());

    // Three rounds, medians reported: the first touches fresh memory.
    for _ in 0..3 {
        let open = cx.tracer.enter("world.arrival.sample");
        let mut events = 0usize;
        for user in 0..users {
            events += black_box(model.sample_user(seed, user, slots, p)).len();
        }
        let sample_s = cx.tracer.exit(open);
        cx.samples.push("world.arrival.sample_s", sample_s);
        cx.samples.push("world.arrival.events", events as f64);

        let open = cx.tracer.enter("sim.arrivals.build");
        let schedule = ArrivalSchedule::from_model(model.as_ref(), users, slots, p, seed);
        let build_s = cx.tracer.exit(open);
        black_box(schedule.total_arrivals());
        cx.samples.push("sim.arrivals.build_s", build_s);
    }
}

/// `core`: the Eq. 21 decision and the Eq. 15/16 queue update.
fn probe_online_controller(cx: &mut Cx<'_>) {
    let iters = cx.size.pick(400_000u32, 4_000);
    let mut scheduler = OnlineScheduler::new(SchedulerConfig::default());
    let profile = DeviceKind::Pixel2.profile();
    let input = OnlineDecisionInput::from_profile(
        &profile,
        AppStatus::App(AppKind::Map),
        GradientGap(1.2),
        GradientGap(0.4),
    );
    let mut scheduled = 0u64;
    let decide_s = seconds_per_call(iters, 7, || {
        if scheduler.decide(black_box(&input)) == SlotDecision::Schedule {
            scheduled += 1;
        }
    });
    black_box(scheduled);
    let outcome = SlotOutcome {
        arrivals: 3,
        scheduled: 2,
        gap_sum: 50.0,
    };
    let end_s = seconds_per_call(iters, 7, || scheduler.end_of_slot(black_box(&outcome)));
    black_box(scheduler.queue_backlog());
    cx.samples.push("core.online.decide_ns", decide_s * 1e9);
    cx.samples.push("core.online.end_of_slot_ns", end_s * 1e9);
}

fn lean_profiler() -> EnergyProfiler {
    EnergyProfiler::lean(PowerModel::new(DeviceKind::Pixel2.profile()))
}

/// `device`: one slot of power accrual, as the dense loop does per user.
fn probe_profiler_record(cx: &mut Cx<'_>) {
    let iters = cx.size.pick(400_000u32, 4_000);
    let mut profiler = lean_profiler();
    let record_s = seconds_per_call(iters, 7, || {
        black_box(profiler.record(PowerState::Idle, Seconds(1.0)));
    });
    black_box(profiler.total_energy());
    cx.samples.push("device.profiler.record_ns", record_s * 1e9);
}

/// `device`: a 100-slot span of power accrual, as a fast-forward does.
fn probe_profiler_span(cx: &mut Cx<'_>) {
    let iters = cx.size.pick(40_000u32, 400);
    let mut profiler = lean_profiler();
    let span_s = seconds_per_call(iters, 7, || {
        black_box(profiler.record_span(PowerState::Idle, Seconds(1.0), 100));
    });
    black_box(profiler.total_energy());
    cx.samples
        .push("device.profiler.record_span_ns", span_s * 1e9);
}

/// `core`: the offline planner on one synthetic look-ahead window of as
/// many users as the workload has, half of them with an app arrival.
fn probe_offline_planner(cx: &mut Cx<'_>, users: usize) {
    let config = SchedulerConfig::default();
    let window: Vec<OfflineUser> = (0..users)
        .map(|i| OfflineUser {
            id: i,
            ready_time_s: 0.0,
            app_arrival_s: (i % 2 == 0).then(|| (i as f64 * 37.0) % config.lookahead_window_s),
            duration_s: 200.0 + (i as f64 * 3.0) % 100.0,
            energy_saving_j: 100.0 + (i as f64 * 37.0) % 400.0,
        })
        .collect();
    let planner = OfflineScheduler::new(
        config.staleness_bound,
        WeightPredictor::new(config.learning_rate, config.momentum_beta),
    );
    let velocity_norm = 2.0;

    let watch = Stopwatch::start();
    let items = planner.build_items(&window, velocity_norm);
    let build_ms = watch.elapsed_ms();
    let solve_s = seconds_per_call(1, 5, || {
        black_box(planner.solve(black_box(&items)));
    });
    let watch = Stopwatch::start();
    black_box(planner.schedule_window(&window, velocity_norm));
    let window_ms = watch.elapsed_ms();

    cx.samples.push("core.offline.build_items_ms", build_ms);
    cx.samples.push("core.offline.solve_ms", solve_s * 1e3);
    cx.samples
        .push("core.offline.schedule_window_ms", window_ms);
    cx.samples.push("core.offline.items", items.len() as f64);
}
