//! An energy-only run leaves no thread behind: the training pool starts with
//! the first simulation that trains a real model, not before, and the threads
//! that sample a wide fleet's arrivals are joined inside `try_new`. Alone in
//! its test binary, so nothing else here can have started a thread.

use fedco::prelude::*;

/// The `Threads:` line of `/proc/self/status`, where there is one.
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
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
    // draws) does start threads, and has joined them all by the time the
    // constructor returns.
    let wide: ScenarioSpec = "mega:users=4000".parse().expect("parses");
    let config = wide.build_with_policy(PolicySpec::SyncSgd).expect("builds");
    let mut sim = Simulation::try_new(config.summary_only()).expect("valid");
    assert_eq!(
        threads(),
        Some(before),
        "a sampling thread outlived try_new"
    );
    assert!(sim.run().total_energy_j > 0.0);
    assert_eq!(
        threads(),
        Some(before),
        "a wide energy-only run left a thread"
    );
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
