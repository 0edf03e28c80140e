//! Scan-vs-indexed equivalence suite for the simulation engine.
//!
//! There is one slot loop and it steps every slot. `Simulation::run_dense`
//! runs each per-user phase as a plain scan of the fleet; `Simulation::run`
//! runs the same phases from event indices (arrival buckets, a deadline
//! calendar, a waiting set, maintained counts). The two must be
//! **bit-identical** — same energy bits, same queues, same traces, the same
//! telemetry stream on every channel — for every policy in the default
//! registry, across seeds, arrival probabilities (including the p = 0 and
//! p = 1 extremes), trace collection modes, world dynamics, ML mode, and
//! custom policies.
//!
//! The second half of the suite aims at what an index can get wrong and a
//! scan cannot — stale deadlines, slot-boundary meetings, hand-out order,
//! the round census, bitset word edges — and at `EngineStats::user_visits`.
//! The last cases hold sleeping users to the scan: a waiting user its policy
//! cannot schedule before a later slot is not decided until then, and owes
//! its idle slots.

use fedco::prelude::*;

fn base_config(policy: PolicySpec) -> SimConfig {
    SimConfig {
        num_users: 5,
        total_slots: 700,
        arrival_probability: 0.01,
        record_every_slots: 60,
        ..SimConfig::default()
    }
    .with_policy(policy)
}

/// Asserts two results are bit-identical in every scalar and series.
fn assert_identical(label: &str, dense: &SimResult, event: &SimResult) {
    assert_eq!(
        dense.total_energy_j.to_bits(),
        event.total_energy_j.to_bits(),
        "{label}: total energy diverged ({} vs {})",
        dense.total_energy_j,
        event.total_energy_j
    );
    assert_eq!(dense.total_updates, event.total_updates, "{label}: updates");
    assert_eq!(dense.corun_epochs, event.corun_epochs, "{label}: co-runs");
    assert_eq!(
        dense.mean_lag.to_bits(),
        event.mean_lag.to_bits(),
        "{label}: mean lag"
    );
    assert_eq!(dense.max_lag, event.max_lag, "{label}: max lag");
    assert_eq!(
        dense.mean_queue.to_bits(),
        event.mean_queue.to_bits(),
        "{label}: mean queue"
    );
    assert_eq!(
        dense.mean_virtual_queue.to_bits(),
        event.mean_virtual_queue.to_bits(),
        "{label}: mean virtual queue"
    );
    assert_eq!(
        dense.final_queue.to_bits(),
        event.final_queue.to_bits(),
        "{label}: final queue"
    );
    assert_eq!(
        dense.final_virtual_queue.to_bits(),
        event.final_virtual_queue.to_bits(),
        "{label}: final virtual queue"
    );
    assert_eq!(
        dense.final_accuracy, event.final_accuracy,
        "{label}: accuracy"
    );
    assert_eq!(
        dense.energy_by_component, event.energy_by_component,
        "{label}: per-component energy"
    );
    assert_eq!(dense.trace, event.trace, "{label}: trace series");
    assert_eq!(dense.user_gaps, event.user_gaps, "{label}: user gaps");
    assert_eq!(dense.updates, event.updates, "{label}: update events");
}

fn run_both(config: SimConfig) -> (SimResult, SimResult) {
    let dense = Simulation::try_new(config.clone())
        .expect("valid config")
        .run_dense();
    let event = Simulation::try_new(config).expect("valid config").run();
    (dense, event)
}

#[test]
fn registry_is_bit_identical_across_seeds_and_arrival_rates() {
    for spec in PolicySpec::default_registry() {
        for seed in [7u64, 42] {
            for p in [0.0, 0.001, 0.05, 1.0] {
                let config = base_config(spec.clone())
                    .with_seed(seed)
                    .with_arrival_probability(p);
                let (dense, event) = run_both(config);
                assert_identical(&format!("{spec} seed={seed} p={p}"), &dense, &event);
            }
        }
    }
}

#[test]
fn summary_mode_is_bit_identical_too() {
    // The base config at the arrival extremes, then the five presets the
    // engine's throughput cells once timed both loops on (`sparse` pushed to
    // p = 0.0001), at their 100 users over 2 000 slots.
    let presets = [
        "paper-default",
        "sparse:arrival_p=0.0001",
        "dense-burst",
        "lte-uplink",
        "battery-constrained",
    ];
    for spec in PolicySpec::default_registry() {
        let mut configs: Vec<(String, SimConfig)> = [0.0, 0.002, 1.0]
            .iter()
            .map(|p| {
                let config = base_config(spec.clone()).with_arrival_probability(*p);
                (format!("p={p}"), config)
            })
            .collect();
        for preset in presets {
            let scenario: ScenarioSpec = format!("{preset}:users=100:slots=2000")
                .parse()
                .expect("preset spec parses");
            let config = scenario.build_with_policy(spec.clone()).expect("builds");
            configs.push((preset.to_string(), config));
        }
        for (label, config) in configs {
            let (dense, event) = run_both(config.summary_only());
            assert_identical(&format!("{spec} summary {label}"), &dense, &event);
            assert!(event.trace.is_empty() && event.updates.is_empty());
        }
    }
}

#[test]
fn user_gap_recording_and_transport_are_preserved() {
    use fedco::fl::transport::TransportModel;
    let mut config =
        base_config(PolicySpec::Online { v: None }).with_transport(TransportModel::lte());
    config.record_user_gaps = true;
    let (dense, event) = run_both(config);
    assert_identical("online+gaps+lte", &dense, &event);
    assert!(!event.user_gaps.is_empty());
}

#[test]
fn world_dynamics_are_bit_identical_between_drivers() {
    // Battery + churn + MMPP in one scenario: both loops run the world
    // check at the same slots and must agree bit for bit — for every
    // registry policy, traced and summary-only.
    let spec: ScenarioSpec = "battery-constrained:arrival=mmpp:users=5:slots=700"
        .parse()
        .expect("world spec parses");
    for policy in PolicySpec::default_registry() {
        let config = spec.build_with_policy(policy.clone()).expect("builds");
        assert!(!config.world.is_paper_default());
        let (dense, event) = run_both(config.clone());
        assert_identical(&format!("world {policy}"), &dense, &event);
        let (dense, event) = run_both(config.summary_only());
        assert_identical(&format!("world {policy} summary"), &dense, &event);
    }
}

#[test]
fn compressed_uplink_is_bit_identical_between_drivers() {
    // Uplink compression changes radio energy and update quality at
    // requeue time — on the driving thread, so the drivers still agree.
    let spec: ScenarioSpec = "compressed-uplink:users=5:slots=700"
        .parse()
        .expect("compressed spec parses");
    let config = spec
        .build_with_policy(PolicySpec::Online { v: None })
        .expect("builds");
    let (dense, event) = run_both(config.clone());
    assert_identical("compressed-uplink", &dense, &event);
    assert!(event.total_updates > 0, "compressed runs still train");

    // And compression genuinely moves the numbers: the same shape with the
    // paper world produces different energy bits.
    let plain_spec: ScenarioSpec = "compressed-uplink:users=5:slots=700:compress=off"
        .parse()
        .expect("plain spec parses");
    let plain = run_simulation(
        plain_spec
            .build_with_policy(PolicySpec::Online { v: None })
            .expect("builds"),
    );
    assert_ne!(
        plain.total_energy_j.to_bits(),
        event.total_energy_j.to_bits(),
        "compression had no effect on radio energy"
    );
}

#[test]
fn ml_mode_is_bit_identical() {
    let mut config = base_config(PolicySpec::Immediate);
    config.num_users = 3;
    config.total_slots = 600;
    config.ml = Some(MlConfig::tiny());
    config.record_every_slots = 50;
    let (dense, event) = run_both(config);
    assert_identical("immediate+ml", &dense, &event);
    assert!(event.final_accuracy.is_some());
}

/// A custom policy that forwards to the online controller through the
/// mandatory methods and the queue read-outs only, leaving every other hook
/// at its default — exactly what a policy written against the PR-3 trait
/// looks like. It must stay bit-identical to the built-in.
#[derive(Debug)]
struct LegacyOnline(Box<dyn SchedulingPolicy>);

impl SchedulingPolicy for LegacyOnline {
    fn decide(&mut self, ctx: &UserSlotContext) -> fedco::device::power::SlotDecision {
        self.0.decide(ctx)
    }
    fn end_of_slot(&mut self, outcome: &SlotOutcome) {
        self.0.end_of_slot(outcome)
    }
    fn queue_backlog(&self) -> f64 {
        self.0.queue_backlog()
    }
    fn virtual_backlog(&self) -> f64 {
        self.0.virtual_backlog()
    }
    fn decision_energy_overhead(&self) -> f64 {
        self.0.decision_energy_overhead()
    }
}

#[derive(Debug)]
struct LegacyOnlineFactory;

impl PolicyFactory for LegacyOnlineFactory {
    fn label(&self) -> String {
        "LegacyOnline".to_string()
    }
    fn build(&self, ctx: &PolicyBuildContext) -> Box<dyn SchedulingPolicy> {
        Box::new(LegacyOnline(PolicySpec::Online { v: None }.build(ctx)))
    }
}

#[test]
fn custom_policy_with_default_hooks_stays_dense_and_correct() {
    let (dense, event) = run_both(base_config(PolicySpec::custom(LegacyOnlineFactory)));
    assert_identical("legacy custom online", &dense, &event);

    // The numbers match the genuine built-in online controller.
    let builtin = run_simulation(base_config(PolicySpec::Online { v: None }));
    assert_eq!(
        event.total_energy_j.to_bits(),
        builtin.total_energy_j.to_bits()
    );
    assert_eq!(event.total_updates, builtin.total_updates);
}

#[test]
fn every_slot_is_stepped_and_both_loops_emit_the_same_stream() {
    // Paper-like sparsity, where most slots are empty: they are stepped all
    // the same, and with nothing skipped the driver channel has nothing to
    // differ in — the full telemetry stream is byte-equal, not just the
    // semantic channel.
    for spec in PolicySpec::default_registry() {
        let config = SimConfig {
            num_users: 8,
            total_slots: 3000,
            arrival_probability: 0.001,
            ..SimConfig::default()
        }
        .with_policy(spec.clone())
        .summary_only();
        let traced = |indexed: bool| {
            let sink = BufferSink::shared();
            let mut sim = Simulation::try_new(config.clone())
                .expect("valid config")
                .with_telemetry(sink.clone());
            let _ = if indexed { sim.run() } else { sim.run_dense() };
            (sim.engine_stats(), events_to_jsonl(&sink.drain()))
        };
        let (stats, stream) = traced(true);
        let (scan_stats, scan_stream) = traced(false);
        for stats in [stats, scan_stats] {
            assert_eq!(stats.dense_slots, config.total_slots, "{spec}");
            assert_eq!((stats.fast_forwarded_slots, stats.spans), (0, 0), "{spec}");
        }
        assert!(
            stream == scan_stream,
            "{spec}: full-channel telemetry differs between run and run_dense"
        );
        assert_eq!(
            stream.matches("\"event\":\"dense-span\"").count(),
            1,
            "{spec}"
        );
    }
}

// ---------------------------------------------------------------------
// What an event index can get wrong and a scan of the fleet cannot.
// ---------------------------------------------------------------------

/// Runs `config` under both loops with telemetry attached and returns
/// `(dense result, event result, event trace)` after checking the results
/// and the telemetry streams agree.
fn run_both_traced(label: &str, config: SimConfig) -> (SimResult, SimResult, Vec<Event>) {
    let traced = |dense: bool| {
        let sink = BufferSink::shared();
        let mut sim = Simulation::try_new(config.clone())
            .expect("valid config")
            .with_telemetry(sink.clone());
        let result = if dense { sim.run_dense() } else { sim.run() };
        (result, sink.drain())
    };
    let (dense, dense_trace) = traced(true);
    let (event, event_trace) = traced(false);
    assert_identical(label, &dense, &event);
    let report = diff(&dense_trace, &event_trace, true);
    assert!(report.identical(), "{label}: trace diverged: {report}");
    (dense, event, event_trace)
}

#[test]
fn devices_going_dark_mid_epoch_leave_only_stale_deadlines() {
    // Heavy churn plus small batteries under Immediate-style scheduling:
    // devices are nearly always mid-epoch, and at this arrival rate mostly
    // mid-application, when the world takes them offline. Their filed
    // completion and expiry deadlines must never fire, and the rejoined
    // device must file fresh ones.
    let spec: ScenarioSpec = "battery-constrained:churn=heavy:users=24:slots=3000:arrival_p=0.05"
        .parse()
        .expect("spec parses");
    for policy in PolicySpec::PAPER {
        let config = spec.build_with_policy(policy.clone()).expect("builds");
        let label = format!("dark mid-epoch {policy}");
        let (_, event, trace) = run_both_traced(&label, config.clone());
        let (dense, summary) = run_both(config.summary_only());
        assert_identical(&format!("{label} summary"), &dense, &summary);
        assert_eq!(
            event.total_energy_j.to_bits(),
            summary.total_energy_j.to_bits()
        );
        if policy != PolicySpec::Immediate {
            continue;
        }
        // The scenario really exercises the case: some user was taken dark
        // during a co-running epoch (scheduled with an application in the
        // foreground, which runs exactly as long as the epoch; not merged
        // since), never merged that epoch, rejoined and trained again.
        let mut in_corun_epoch = [false; 24];
        let mut went_dark_mid_corun = [false; 24];
        let mut offline = [false; 24];
        let mut retrained_after_dark = 0;
        for e in &trace {
            match e.kind {
                EventKind::Schedule { user, corun } => {
                    let u = user as usize;
                    assert!(!offline[u], "{label}: offline user {u} was scheduled");
                    in_corun_epoch[u] = corun;
                    if std::mem::take(&mut went_dark_mid_corun[u]) {
                        retrained_after_dark += 1;
                    }
                }
                EventKind::Merge { user, .. } => {
                    let u = user as usize;
                    assert!(!offline[u], "{label}: a stale completion of user {u} fired");
                    in_corun_epoch[u] = false;
                }
                EventKind::UserChurned {
                    user,
                    offline: dark,
                } => {
                    let u = user as usize;
                    offline[u] = dark;
                    if dark && std::mem::take(&mut in_corun_epoch[u]) {
                        went_dark_mid_corun[u] = true;
                    }
                }
                _ => {}
            }
        }
        assert!(
            retrained_after_dark > 0,
            "{label}: no user went dark mid-co-run and came back"
        );
    }
}

#[test]
fn an_expiry_and_an_arrival_meet_on_a_slot_boundary() {
    // With an arrival in every slot, each application that leaves is
    // replaced at the very slot boundary it leaves at, so every user has an
    // application in the foreground from slot 0 to the horizon: one slot
    // without one — an expiry applied a slot late, an arrival refused
    // because the old application still counted as running — would show up
    // as background-training or idle energy. Under Immediate scheduling
    // epochs and applications end together; under Sync-SGD users parked at
    // the barrier swap applications while nothing else happens to them.
    use fedco::device::profiler::EnergyComponent;
    for (policy, fleets, expected) in [
        (
            PolicySpec::Immediate,
            &[1, 5, 70][..],
            &[EnergyComponent::CoRunning][..],
        ),
        (
            PolicySpec::SyncSgd,
            &[5, 70][..],
            &[EnergyComponent::CoRunning, EnergyComponent::AppOnly][..],
        ),
    ] {
        for &users in fleets {
            let config = SimConfig {
                num_users: users,
                total_slots: 1500,
                arrival_probability: 1.0,
                ..SimConfig::default()
            }
            .with_policy(policy.clone());
            for config in [config.clone(), config.summary_only()] {
                let (dense, event) = run_both(config);
                assert_identical(&format!("{policy} p=1 users={users}"), &dense, &event);
                let components: Vec<EnergyComponent> =
                    event.energy_by_component.iter().map(|(c, _)| *c).collect();
                assert_eq!(components, expected, "{policy} users={users}");
                assert!(event.total_updates > 0 && event.corun_epochs >= event.total_updates);
            }
        }
    }
}

#[test]
fn same_slot_completions_reach_the_server_in_ascending_user_order() {
    // Mixed devices and co-run durations: epochs started in different slots
    // routinely complete together, and the calendar — filled in scheduling
    // order — must hand them to the server in ascending user id, the order
    // the scan finds them in (it decides lags and model versions).
    let spec: ScenarioSpec = "hetero-devices:users=60:slots=2500:arrival_p=0.01"
        .parse()
        .expect("spec parses");
    let config = spec
        .build_with_policy(PolicySpec::Immediate)
        .expect("builds");
    let (_, event, trace) = run_both_traced("same-slot completions", config);

    // From the trace: each merge's slot and the slot its epoch started in.
    let mut started_at = [0u64; 60];
    let mut merges: Vec<(u64, u64, u64)> = Vec::new(); // (merge slot, user, start slot)
    for e in &trace {
        match e.kind {
            EventKind::Schedule { user, .. } => started_at[user as usize] = e.slot,
            EventKind::Merge { user, .. } => merges.push((e.slot, user, started_at[user as usize])),
            _ => {}
        }
    }
    assert_eq!(merges.len() as u64, event.total_updates);
    let mut descending_schedule_order = 0;
    for pair in merges.windows(2) {
        let ((slot_a, user_a, start_a), (slot_b, user_b, start_b)) = (pair[0], pair[1]);
        if slot_a == slot_b {
            assert!(
                user_a < user_b,
                "slot {slot_a}: {user_a} merged before {user_b}"
            );
            // The interesting pairs: the higher id was filed first.
            descending_schedule_order += u64::from(start_b < start_a);
        }
    }
    assert!(
        descending_schedule_order > 0,
        "no same-slot completions filed out of user order — the test lost its subject"
    );
}

#[test]
fn a_sync_round_closes_over_the_online_users_only() {
    // Sync-SGD under heavy churn: a round must close as soon as every user
    // the world left standing has uploaded — counted from the maintained
    // census in the indexed loop, by a scan in the reference.
    let spec: ScenarioSpec = "smoke:churn=heavy:users=12:slots=3000"
        .parse()
        .expect("spec parses");
    let config = spec.build_with_policy(PolicySpec::SyncSgd).expect("builds");
    let (_, event, trace) = run_both_traced("sync round under churn", config.clone());
    let (dense, summary) = run_both(config.summary_only());
    assert_identical("sync round under churn (summary)", &dense, &summary);
    let rounds: Vec<u64> = trace
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Round { participants, .. } => Some(participants),
            _ => None,
        })
        .collect();
    assert_eq!(rounds.len() as u64, event.total_updates);
    assert!(rounds.len() >= 3, "too few rounds: {rounds:?}");
    assert!(
        rounds.iter().any(|&p| p < 12),
        "every round had the full fleet — churn never thinned one: {rounds:?}"
    );
    assert!(rounds.iter().all(|&p| (1..=12).contains(&p)));
}

#[test]
fn fleet_sizes_at_the_waiting_set_word_edges_are_bit_identical() {
    // The waiting set is a bitset of 64-user words: one user, one short of
    // a word, exactly a word, one over, and several words with a ragged
    // tail.
    for users in [1, 63, 64, 65, 300] {
        for policy in PolicySpec::PAPER {
            let config = SimConfig {
                num_users: users,
                total_slots: 600,
                arrival_probability: 0.01,
                record_every_slots: 60,
                ..SimConfig::default()
            }
            .with_policy(policy.clone());
            let (dense, event) = run_both(config.clone());
            assert_identical(&format!("{policy} users={users}"), &dense, &event);
            let (dense, event) = run_both(config.summary_only());
            assert_identical(&format!("{policy} users={users} summary"), &dense, &event);
            // (A lone user never builds enough queue pressure for the
            // online controller inside this horizon.)
            assert!(
                event.total_updates > 0 || users == 1,
                "{policy} users={users} never trained"
            );
        }
    }
}

#[test]
fn long_power_spans_at_unrepresentable_slot_energies_are_bit_identical() {
    // Rare arrivals leave devices parked at the Sync-SGD barrier, or idle
    // between epochs, for thousands of slots: the indexed loop lands each of
    // those spans in one `record_span`, in closed form, where the scan adds
    // slot by slot (summary mode: no trace sample cuts a span short). Slot
    // lengths of 0.1 s and 1/3 s make every per-slot energy unrepresentable,
    // and the fleet's accumulators run past 1e5 J.
    for policy in [PolicySpec::SyncSgd, PolicySpec::Immediate] {
        for slot_seconds in [1.0, 0.1, 1.0 / 3.0] {
            let config = SimConfig {
                num_users: 300,
                total_slots: 20_000,
                arrival_probability: 0.0005,
                scheduler: SchedulerConfig {
                    slot_seconds,
                    ..SchedulerConfig::default()
                },
                ..SimConfig::default()
            }
            .with_policy(policy.clone())
            .summary_only();
            let (dense, event) = run_both(config);
            assert_identical(&format!("{policy} slot={slot_seconds}"), &dense, &event);
            assert!(event.total_energy_j > 1e5, "{}", event.total_energy_j);
        }
    }
}

#[test]
fn user_visits_track_events_not_fleet_size() {
    // An all-training fleet with no arrivals: between the slot everyone is
    // scheduled in and the slot the first epoch completes in, nothing
    // happens to anyone — so stepping those slots must touch no user at
    // all.
    let stats_of = |config: SimConfig, dense: bool| {
        let mut sim = Simulation::try_new(config).expect("valid config");
        let result = if dense { sim.run_dense() } else { sim.run() };
        (sim.engine_stats(), result)
    };
    let quiet = |total_slots| {
        SimConfig {
            num_users: 40,
            total_slots,
            arrival_probability: 0.0,
            ..SimConfig::default()
        }
        .with_policy(PolicySpec::custom(PlainImmediateFactory))
        .summary_only()
    };
    // One slot: everyone is decided, scheduled and starts accruing.
    let (first_slot, _) = stats_of(quiet(1), false);
    assert_eq!(first_slot.dense_slots, 1);
    assert!(first_slot.user_visits >= 40);
    // Fifty slots, none of them completing anything: only the end-of-run
    // flush is added.
    let (fifty, result) = stats_of(quiet(50), false);
    assert_eq!((fifty.dense_slots, fifty.fast_forwarded_slots), (50, 0));
    assert_eq!(
        result.total_updates, 0,
        "an epoch completed inside the window"
    );
    assert_eq!(fifty.user_visits, first_slot.user_visits);
    // The reference scans pay the fleet for every phase of every slot.
    let (scanned, _) = stats_of(quiet(50), true);
    assert!(scanned.user_visits >= 50 * 40 * 4, "{scanned:?}");

    // The `city-online` shape of the benchmark at 300 users: a tenth of the
    // fleet is waiting at any time.
    let spec: ScenarioSpec = "city-scale:users=300".parse().expect("spec parses");
    let config = spec
        .build_with_policy(PolicySpec::Online { v: None })
        .expect("builds")
        .summary_only();
    let (stats, _) = stats_of(config.clone(), false);
    assert_eq!(stats.dense_slots, config.total_slots);
    assert!(
        stats.user_visits < 300 * stats.dense_slots / 4,
        "visits {} vs users x dense slots {}",
        stats.user_visits,
        300 * stats.dense_slots
    );
    // Deterministic, and independent of trace collection only through the
    // flushes that recording adds.
    assert_eq!(stats_of(config, false).0, stats);
}

/// Immediate scheduling as a custom policy with every hook at its default
/// (so the per-slot gap fold stays on; it is not a user visit).
#[derive(Debug)]
struct PlainImmediate;

impl SchedulingPolicy for PlainImmediate {
    fn decide(&mut self, _ctx: &UserSlotContext) -> fedco::device::power::SlotDecision {
        fedco::device::power::SlotDecision::Schedule
    }
    fn end_of_slot(&mut self, _outcome: &SlotOutcome) {}
}

#[derive(Debug)]
struct PlainImmediateFactory;

impl PolicyFactory for PlainImmediateFactory {
    fn label(&self) -> String {
        "PlainImmediate".to_string()
    }
    fn build(&self, _ctx: &PolicyBuildContext) -> Box<dyn SchedulingPolicy> {
        Box::new(PlainImmediate)
    }
}

// ---------------------------------------------------------------------
// Sleeping users: a waiting user its policy cannot schedule before a later
// slot is not decided until then, and owes its idle slots meanwhile.
// ---------------------------------------------------------------------

#[test]
fn offline_sleepers_owe_their_idle_slots_through_samples_churn_and_replans() {
    // Small batteries and heavy churn take sleeping users dark and bring
    // them back; a trace sample every 7 slots and the per-user gap series
    // read the gap lane in the middle of their sleep; 2 000 slots are four
    // 500-slot planning windows.
    let spec: ScenarioSpec =
        "battery-constrained:churn=heavy:users=24:slots=2000:arrival_p=0.01:record_every=7"
            .parse()
            .expect("spec parses");
    let mut config = spec.build_with_policy(PolicySpec::Offline).expect("builds");
    config.record_user_gaps = true;
    let (_, event, trace) = run_both_traced("offline sleepers", config.clone());
    let (dense, summary) = run_both(config.summary_only());
    assert_identical("offline sleepers (summary)", &dense, &summary);
    // The subject is there: users trained, went dark and came back.
    assert!(event.total_updates > 0);
    let churned = |dark: bool| {
        trace
            .iter()
            .any(|e| matches!(e.kind, EventKind::UserChurned { offline, .. } if offline == dark))
    };
    assert!(churned(true) && churned(false));
    assert!(!event.user_gaps.is_empty());
}

/// Schedules a waiting user only in slots that are multiples of `k` and says
/// so through `next_decision_slot`, so its users sleep in between. It reports
/// the gap sum it is handed as its backlog, so the Eq. 16 fold — fed the
/// sleepers' owed steps — reaches the results, and every fifth slot charges
/// decision overhead, which wakes every sleeper.
#[derive(Debug)]
struct EveryKth {
    k: u64,
    slot: u64,
    gap_sum: f64,
}

impl SchedulingPolicy for EveryKth {
    fn decide(&mut self, ctx: &UserSlotContext) -> fedco::device::power::SlotDecision {
        use fedco::device::power::SlotDecision;
        if ctx.slot % self.k == 0 {
            SlotDecision::Schedule
        } else {
            SlotDecision::Idle
        }
    }
    fn end_of_slot(&mut self, outcome: &SlotOutcome) {
        self.slot += 1;
        self.gap_sum = outcome.gap_sum;
    }
    fn queue_backlog(&self) -> f64 {
        self.gap_sum
    }
    fn decision_energy_overhead(&self) -> f64 {
        if self.slot % 5 == 0 {
            0.5
        } else {
            0.0
        }
    }
    fn next_decision_slot(&self, _user_id: usize, slot: u64) -> Option<u64> {
        Some(slot.next_multiple_of(self.k))
    }
}

#[derive(Debug)]
struct EveryKthFactory(u64);

impl PolicyFactory for EveryKthFactory {
    fn label(&self) -> String {
        format!("EveryKth({})", self.0)
    }
    fn build(&self, _ctx: &PolicyBuildContext) -> Box<dyn SchedulingPolicy> {
        Box::new(EveryKth {
            k: self.0,
            slot: 0,
            gap_sum: 0.0,
        })
    }
}

#[test]
fn a_custom_policy_that_names_its_next_slot_is_bit_identical() {
    for k in [7, 50] {
        let mut config = SimConfig {
            num_users: 70,
            total_slots: 1500,
            arrival_probability: 0.01,
            record_every_slots: 13,
            ..SimConfig::default()
        }
        .with_policy(PolicySpec::custom(EveryKthFactory(k)));
        config.record_user_gaps = true;
        let label = format!("every {k}th slot");
        let (_, event, trace) = run_both_traced(&label, config.clone());
        let (dense, summary) = run_both(config.summary_only());
        assert_identical(&format!("{label} (summary)"), &dense, &summary);
        assert!(event.total_updates > 0, "{label}");
        assert!(
            trace
                .iter()
                .all(|e| !matches!(e.kind, EventKind::Schedule { .. }) || e.slot % k == 0),
            "{label}: a schedule off a multiple of k"
        );
    }
}

#[test]
fn offline_decisions_do_not_scale_with_waiting_user_slots() {
    // Offline holds every user it did not select: the scan decides each of
    // them in every slot, the indexed loop only at its planned start.
    let spec: ScenarioSpec = "city-scale:users=300".parse().expect("spec parses");
    let config = spec.build_with_policy(PolicySpec::Offline).expect("builds");
    let traced = || {
        let sink = BufferSink::shared();
        let mut sim = Simulation::try_new(config.clone())
            .expect("valid config")
            .with_telemetry(sink.clone());
        let _ = sim.run();
        (sim.engine_stats(), sink.drain())
    };
    let (stats, trace) = traced();
    let idle = trace
        .iter()
        .find_map(|e| match e.kind {
            EventKind::DenseSpan { idle_decisions, .. } => Some(idle_decisions),
            _ => None,
        })
        .expect("one dense-span event");
    let schedules = trace
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Schedule { .. }))
        .count() as u64;
    let waiting_user_slots = idle + schedules;
    assert!(
        waiting_user_slots > 300 * config.total_slots / 4,
        "{waiting_user_slots}"
    );
    assert!(
        stats.user_visits * 10 < waiting_user_slots,
        "visits {} vs waiting user-slots {waiting_user_slots}",
        stats.user_visits
    );
    assert_eq!(traced().0, stats, "user_visits repeat exactly");
}
