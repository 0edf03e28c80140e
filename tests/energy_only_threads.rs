//! An energy-only run leaves no thread behind: the training pool starts with
//! the first simulation that trains a real model, not before, and the threads
//! that sample a wide fleet's arrivals beside its slot loop are joined when the
//! simulation is dropped — before its run, during it or after it (that this
//! takes a chunk, not the rest of the horizon, is `fedco-sim`'s
//! `cut_invariance::a_schedule_dropped_early_stops_its_samplers_without_sampling_the_horizon`).
//! Alone in its test binary, so nothing else here can have started a thread.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fedco::device::power::SlotDecision;
use fedco::prelude::*;

/// The `Threads:` line of `/proc/self/status`, where there is one.
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The names of this process's threads, as the system keeps them (cut to
/// 15 bytes).
fn thread_names() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").into_iter().flatten();
    let comm = |task: std::fs::DirEntry| std::fs::read_to_string(task.path().join("comm"));
    let names = tasks.flatten().filter_map(|task| comm(task).ok());
    names.map(|name| name.trim_end().to_string()).collect()
}

/// Schedules nobody, and panics at the end of its 200th slot, counting the
/// arrival samplers that run beside the slot loop.
#[derive(Debug, Default)]
struct Doomed {
    slots: u64,
}

impl SchedulingPolicy for Doomed {
    fn decide(&mut self, _ctx: &UserSlotContext) -> SlotDecision {
        SlotDecision::Idle
    }
    fn end_of_slot(&mut self, _outcome: &SlotOutcome) {
        self.slots += 1;
        if self.slots == 200 {
            // `fedco-arrivals-{run}`, of which the system keeps 15 bytes.
            let names = thread_names();
            let samplers = names.iter().filter(|n| *n == "fedco-arrivals-").count();
            panic!("doomed at slot 200 beside {samplers} samplers");
        }
    }
}

#[derive(Debug)]
struct DoomedFactory;

impl PolicyFactory for DoomedFactory {
    fn label(&self) -> String {
        "Doomed".to_string()
    }
    fn build(&self, _scheduler: &SchedulerConfig) -> Box<dyn SchedulingPolicy> {
        Box::<Doomed>::default()
    }
}

#[test]
fn an_energy_only_run_spawns_no_thread() {
    let Some(before) = threads() else {
        return;
    };
    for policy in PolicySpec::PAPER {
        let result = run_simulation(SimConfig::small(policy));
        assert!(result.total_energy_j > 0.0);
    }
    assert_eq!(
        threads(),
        Some(before),
        "an energy-only run started a thread"
    );
    // A fleet wide enough for its arrival sampling to be cut into runs (43 M
    // draws) samples them beside its slot loop, and has joined them all once
    // the simulation is dropped.
    let wide: ScenarioSpec = "mega:users=4000".parse().expect("parses");
    let config = wide.build_with_policy(PolicySpec::SyncSgd).expect("builds");
    let mut sim = Simulation::try_new(config.summary_only()).expect("valid");
    assert!(sim.run().total_energy_j > 0.0);
    drop(sim);
    assert_eq!(
        threads(),
        Some(before),
        "a wide energy-only run left a thread"
    );
    // Dropped before its run, or by a panic during it, a simulation over 8 G
    // draws hangs up on its samplers and joins them.
    let long: ScenarioSpec = "mega:users=4000:slots=2000000".parse().expect("parses");
    for policy in [PolicySpec::SyncSgd, PolicySpec::custom(DoomedFactory)] {
        let config = long.build_with_policy(policy.clone()).expect("builds");
        let mut sim = Simulation::try_new(config.summary_only()).expect("valid");
        if policy.label() == "Doomed" {
            let run = catch_unwind(AssertUnwindSafe(move || sim.run()));
            let panic = run.expect_err("the doomed policy panics");
            // A sampler thread per CPU ran beside the loop's first 200 slots.
            let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
            let doomed = format!("doomed at slot 200 beside {cpus} samplers");
            assert_eq!(panic.downcast_ref::<String>(), Some(&doomed));
        } else {
            drop(sim);
        }
        assert_eq!(
            threads(),
            Some(before),
            "{policy}: a sampling thread outlived its simulation"
        );
    }
    // The same process does start helpers once a model is trained, if the
    // machine has a CPU to spare for one.
    let spec = ScenarioSpec::preset("ml-smoke").expect("preset");
    run_simulation(
        spec.build_with_policy(PolicySpec::Immediate)
            .expect("builds"),
    );
    let spare = std::thread::available_parallelism().map_or(0, |n| n.get() - 1);
    assert_eq!(threads(), Some(before + spare));
}
