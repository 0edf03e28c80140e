//! The process-wide training pool, through the public API alone: what
//! `fleet_sweep --workers 2` does on a grid of ML scenarios.

use fedco::prelude::*;

fn run(scenario: &str, policy: PolicySpec) -> (SimResult, Vec<u32>) {
    let spec: ScenarioSpec = scenario.parse().expect("parses");
    let config = spec.build_with_policy(policy).expect("builds");
    let mut sim = Simulation::new(config);
    let result = sim.run();
    let model = sim.model_snapshot().params;
    (result, model.values().iter().map(|v| v.to_bits()).collect())
}

#[test]
fn simulations_sharing_the_pool_from_two_threads_equal_their_solo_runs() {
    let jobs = [
        ("ml-smoke:seed=1", PolicySpec::Immediate),
        (
            "ml-smoke:churn=heavy:battery=constrained:slots=6000:users=10",
            PolicySpec::Online { v: None },
        ),
        ("ml-smoke:seed=2", PolicySpec::SyncSgd),
        ("paper-default:ml=full:slots=600", PolicySpec::Immediate),
    ];
    let solo: Vec<_> = jobs.iter().map(|(s, p)| run(s, p.clone())).collect();
    // Two workers, interleaved jobs, every epoch through the same queue and
    // the same helpers — and each worker running the other's epochs whenever
    // its own is in a helper's hands.
    let (evens, odds) = std::thread::scope(|scope| {
        let worker = |start: usize| {
            let jobs = &jobs;
            scope.spawn(move || {
                (start..jobs.len())
                    .step_by(2)
                    .map(|i| run(jobs[i].0, jobs[i].1.clone()))
                    .collect::<Vec<_>>()
            })
        };
        let (evens, odds) = (worker(0), worker(1));
        (
            evens.join().expect("worker finished"),
            odds.join().expect("worker finished"),
        )
    });
    for (i, shared) in evens.into_iter().enumerate() {
        assert!(shared == solo[2 * i], "{} drifted", jobs[2 * i].0);
    }
    for (i, shared) in odds.into_iter().enumerate() {
        assert!(shared == solo[2 * i + 1], "{} drifted", jobs[2 * i + 1].0);
    }
}
