//! Determinism at scale: a parallel fleet run must be bit-identical to the
//! same grid run on one worker — same energy totals, same update counts,
//! same final accuracies — over a mixed-axis grid (scenarios × open field
//! axes × policies × seeds), any worker count, and repeated executions.

use fedco_fleet::prelude::*;

/// Two scenarios × a device-mix axis × a link axis × 4 policies × 2 seeds.
fn grid() -> ScenarioGrid {
    let scenarios = vec![
        ScenarioSpec::preset("smoke")
            .expect("preset")
            .with_users(4)
            .with_slots(400),
        ScenarioSpec::preset("sparse")
            .expect("preset")
            .with_users(4)
            .with_slots(400)
            .with_arrival_p(0.005),
    ];
    ScenarioGrid::from_scenarios(scenarios)
        .with_policy_specs(PolicySpec::PAPER.to_vec())
        .with_axis("devices", &["testbed", "hikey970"])
        .with_axis("link", &["ideal", "wifi"])
        .with_replicates(2)
}

#[test]
fn parallel_shards_match_single_worker_bit_for_bit() {
    let grid = grid();
    assert_eq!(grid.len(), 64, "2 scenarios x 2 x 2 axes x 4 policies x 2");
    let baseline = run_grid(&grid, 1);
    for workers in [2, 3, 8] {
        let parallel = run_grid(&grid, workers);
        assert_eq!(parallel.jobs.len(), baseline.jobs.len());
        for (seq, par) in baseline.jobs.iter().zip(&parallel.jobs) {
            assert_eq!(seq.id, par.id);
            assert_eq!(seq.scenario, par.scenario);
            assert_eq!(seq.policy, par.policy);
            assert_eq!(
                seq.total_energy_j.to_bits(),
                par.total_energy_j.to_bits(),
                "energy diverged for job {} on {} workers",
                seq.id,
                workers
            );
            assert_eq!(seq.radio_energy_j.to_bits(), par.radio_energy_j.to_bits());
            assert_eq!(seq.total_updates, par.total_updates);
            assert_eq!(seq.corun_epochs, par.corun_epochs);
            assert_eq!(seq.mean_lag.to_bits(), par.mean_lag.to_bits());
            assert_eq!(seq.max_lag, par.max_lag);
            assert_eq!(seq.mean_queue.to_bits(), par.mean_queue.to_bits());
            assert_eq!(seq.final_accuracy, par.final_accuracy);
        }
        // The merged per-cell statistics fold to the same bits too.
        assert_eq!(baseline.rollups, parallel.rollups);
    }
}

#[test]
fn every_cell_contributes_to_the_rollups() {
    let report = run_grid(&grid(), 0);
    // 2 scenarios × 4 axis cells × 4 policies = 32 rollups of 2 seeds each.
    assert_eq!(report.rollups.len(), 32);
    for rollup in &report.rollups {
        assert_eq!(rollup.runs(), 2, "{} / {}", rollup.scenario, rollup.policy);
        assert!(rollup.energy_j.mean() > 0.0);
    }
    for policy in PolicySpec::PAPER {
        assert_eq!(report.rollups_for_policy(&policy.label()).count(), 8);
    }
    // Grid-wide invariant from the paper: Immediate is the energy upper
    // bound, so its mean energy dominates the online controller's in every
    // scenario cell.
    for immediate in report.rollups_for_policy(&PolicySpec::Immediate.label()) {
        let online = report
            .rollup(&immediate.scenario, &PolicySpec::Online { v: None }.label())
            .expect("online cell");
        assert!(
            immediate.energy_j.mean() > online.energy_j.mean(),
            "{}",
            immediate.scenario
        );
    }
}

#[test]
fn reports_serialize_identically_across_worker_counts() {
    let grid = grid();
    let a = run_grid(&grid, 1);
    let b = run_grid(&grid, 5);
    // CSV and JSONL embed every deterministic field; strip the two trailing
    // timing columns (`wall_ms,slots_per_sec` — the only non-deterministic
    // ones) before comparing.
    let strip = |s: &str| -> String {
        s.lines()
            .map(|line| {
                let mut cut = line;
                for _ in 0..2 {
                    cut = cut.rfind(',').map(|i| &cut[..i]).unwrap_or(cut);
                }
                format!("{cut}\n")
            })
            .collect()
    };
    assert_eq!(strip(&to_csv(&a)), strip(&to_csv(&b)));
    let strip_json = |s: &str| -> String {
        s.lines()
            .map(|line| {
                let cut = line
                    .rfind(",\"wall_ms\":")
                    .map(|i| &line[..i])
                    .unwrap_or(line);
                format!("{cut}\n")
            })
            .collect()
    };
    assert_eq!(strip_json(&to_jsonl(&a)), strip_json(&to_jsonl(&b)));
}

/// The ML workload (real LeNet training) must also shard deterministically:
/// final accuracy is part of the bit-identical contract.
#[test]
fn ml_cells_are_deterministic_across_workers() {
    let grid = ScenarioGrid::new(
        ScenarioSpec::preset("ml-smoke")
            .expect("preset")
            .with_users(3)
            .with_slots(300),
    )
    .with_policy_specs(vec![PolicySpec::Immediate, PolicySpec::Online { v: None }])
    .with_replicates(2);
    let seq = run_grid(&grid, 1);
    let par = run_grid(&grid, 4);
    for (a, b) in seq.jobs.iter().zip(&par.jobs) {
        let acc_a = a.final_accuracy.expect("ml cells evaluate");
        let acc_b = b.final_accuracy.expect("ml cells evaluate");
        assert_eq!(acc_a.to_bits(), acc_b.to_bits(), "job {}", a.id);
        assert_eq!(a.total_energy_j.to_bits(), b.total_energy_j.to_bits());
    }
}
