//! Regression tests for the open policy API:
//!
//! * each of the paper's four specs runs bit-identically given the same config, and summary-only mode
//!   matches full mode on all scalar summaries;
//! * a policy registered only through `PolicySpec::Custom` gets the full
//!   engine semantics (barrier, replanning, decision overhead) — proven by
//!   custom mirrors of the built-ins being bit-identical to them;
//! * one `ScenarioGrid` sweep compares parameterized online variants
//!   against the four built-ins with per-spec rollups.

use fedco::prelude::*;

fn small(policy: PolicySpec) -> SimConfig {
    SimConfig {
        num_users: 4,
        total_slots: 500,
        arrival_probability: 0.01,
        record_every_slots: 50,
        ..SimConfig::default()
    }
    .with_policy(policy)
}

#[test]
fn every_registry_spec_is_deterministic_and_summary_faithful() {
    for spec in PolicySpec::PAPER {
        let a = run_simulation(small(spec.clone()));
        let b = run_simulation(small(spec.clone()));
        assert_eq!(
            a.total_energy_j.to_bits(),
            b.total_energy_j.to_bits(),
            "energy diverged between identical runs of {spec}"
        );
        assert_eq!(a.total_updates, b.total_updates, "{spec}");
        assert_eq!(a.corun_epochs, b.corun_epochs, "{spec}");
        assert_eq!(a.mean_lag.to_bits(), b.mean_lag.to_bits(), "{spec}");
        assert_eq!(a.max_lag, b.max_lag, "{spec}");
        assert_eq!(a.trace, b.trace, "{spec}");
        assert_eq!(a.updates, b.updates, "{spec}");

        // Summary-only mode changes what is stored, never what happens.
        let lean = run_simulation(small(spec.clone()).summary_only());
        assert_eq!(
            a.total_energy_j.to_bits(),
            lean.total_energy_j.to_bits(),
            "summary mode diverged for {spec}"
        );
        assert_eq!(a.total_updates, lean.total_updates, "{spec}");
        assert_eq!(a.corun_epochs, lean.corun_epochs, "{spec}");
        assert_eq!(a.mean_lag.to_bits(), lean.mean_lag.to_bits(), "{spec}");
        assert_eq!(a.max_lag, lean.max_lag, "{spec}");
        assert_eq!(a.mean_queue.to_bits(), lean.mean_queue.to_bits(), "{spec}");
        assert_eq!(
            a.mean_virtual_queue.to_bits(),
            lean.mean_virtual_queue.to_bits(),
            "{spec}"
        );
        assert_eq!(
            a.final_queue.to_bits(),
            lean.final_queue.to_bits(),
            "{spec}"
        );
        assert_eq!(a.energy_by_component, lean.energy_by_component, "{spec}");
        assert_eq!(a.final_accuracy, lean.final_accuracy, "{spec}");
        assert!(lean.trace.is_empty() && lean.updates.is_empty(), "{spec}");
        assert_eq!(a.policy.label(), lean.policy.label(), "{spec}");
    }
}

/// A custom factory that mirrors one of the paper's specs purely through
/// the public capability hooks. If the engine treated built-ins specially in
/// any way, the mirror would diverge from the genuine article.
#[derive(Debug)]
struct MirrorFactory {
    spec: PolicySpec,
}

impl PolicyFactory for MirrorFactory {
    fn label(&self) -> String {
        format!("Mirror({})", self.spec)
    }

    fn build(&self, scheduler: &SchedulerConfig) -> Box<dyn SchedulingPolicy> {
        // Build the same concrete policies a spec would, but registered
        // exclusively through PolicySpec::Custom.
        self.spec.build(scheduler)
    }
}

#[test]
fn custom_policies_get_full_engine_semantics() {
    for kind in PolicySpec::PAPER {
        let custom = PolicySpec::custom(MirrorFactory { spec: kind.clone() });
        let mirrored = run_simulation(small(custom));
        let builtin = run_simulation(small(kind.clone()));
        assert_eq!(
            mirrored.total_energy_j.to_bits(),
            builtin.total_energy_j.to_bits(),
            "custom mirror of {kind} diverged from the built-in"
        );
        assert_eq!(mirrored.total_updates, builtin.total_updates, "{kind}");
        assert_eq!(mirrored.corun_epochs, builtin.corun_epochs, "{kind}");
        assert_eq!(mirrored.max_lag, builtin.max_lag, "{kind}");
        assert_eq!(
            mirrored.mean_queue.to_bits(),
            builtin.mean_queue.to_bits(),
            "{kind}"
        );
        assert_eq!(
            mirrored.energy_by_component, builtin.energy_by_component,
            "decision-overhead accounting diverged for {kind}"
        );
        assert_eq!(mirrored.policy.label(), format!("Mirror({kind})"));
    }
}

#[test]
fn sync_semantics_come_from_the_barrier_capability() {
    // A custom barrier policy (not the built-in SyncSgd) must get round
    // semantics: zero lag on every update.
    #[derive(Debug)]
    struct EagerBarrier;
    impl SchedulingPolicy for EagerBarrier {
        fn decide(&mut self, _ctx: &UserSlotContext) -> fedco::device::power::SlotDecision {
            fedco::device::power::SlotDecision::Schedule
        }
        fn end_of_slot(&mut self, _outcome: &SlotOutcome) {}
        fn round_barrier(&self) -> bool {
            true
        }
    }
    #[derive(Debug)]
    struct EagerBarrierFactory;
    impl PolicyFactory for EagerBarrierFactory {
        fn label(&self) -> String {
            "EagerBarrier".to_string()
        }
        fn build(&self, _scheduler: &SchedulerConfig) -> Box<dyn SchedulingPolicy> {
            Box::new(EagerBarrier)
        }
    }

    let result = run_simulation(small(PolicySpec::custom(EagerBarrierFactory)));
    assert!(result.total_updates >= 1);
    assert_eq!(result.max_lag, 0, "barrier rounds never observe lag");
    assert_eq!(result.mean_lag, 0.0);
}

#[test]
fn one_grid_sweep_compares_online_variants_against_all_baselines() {
    let mut specs = PolicySpec::PAPER.to_vec();
    specs.extend([1000.0, 4000.0, 16000.0].map(PolicySpec::online_with_v));
    let scenario = ScenarioSpec::preset("smoke")
        .expect("preset")
        .with_users(3)
        .with_slots(300);
    let grid = ScenarioGrid::new(scenario.clone())
        .with_policy_specs(specs.clone())
        .with_replicates(2);
    assert_eq!(grid.len(), 14);

    let report = run_grid(&grid, 0);
    assert_eq!(report.rollups.len(), 7, "one rollup per spec label");
    for spec in &specs {
        let rollup = report
            .rollup(&scenario.label(), &spec.label())
            .unwrap_or_else(|| panic!("missing rollup for {spec}"));
        assert_eq!(rollup.runs(), 2, "{spec}");
        assert!(rollup.energy_j.mean() > 0.0, "{spec}");
    }
    // The reports carry the parameterized labels end to end.
    let csv = to_csv(&report);
    let jsonl = to_jsonl(&report);
    let table = rollup_table(&report);
    for label in ["Online(V=1000)", "Online(V=4000)", "Online(V=16000)"] {
        assert!(csv.contains(label), "CSV missing {label}");
        assert!(jsonl.contains(label), "JSONL missing {label}");
        assert!(table.contains(label), "table missing {label}");
    }
    // Sweeping is still worker-count invariant with parameterized specs.
    let seq = run_grid(&grid, 1);
    assert_eq!(deterministic_view(&seq), deterministic_view(&report));
    assert_eq!(seq.rollups, report.rollups);
}
