//! Facade-level determinism regression for the fleet runtime: sweeping a
//! mixed-axis grid (scenario × open field axis × policy × seed) through
//! `fedco::prelude` must give bit-identical merged statistics on 1 and N
//! workers. The heavier per-policy matrix lives in
//! `crates/fleet/tests/determinism.rs`; this guards the re-exported API.

use fedco::prelude::*;

fn grid() -> ScenarioGrid {
    let scenarios = vec![
        ScenarioSpec::preset("smoke")
            .expect("preset")
            .with_users(4)
            .with_slots(300),
        ScenarioSpec::preset("lte-uplink")
            .expect("preset")
            .with_users(4)
            .with_slots(300)
            .with_arrival_p(0.005),
    ];
    ScenarioGrid::from_scenarios(scenarios)
        .with_axis("link", &["ideal", "wifi"])
        .with_replicates(2)
}

#[test]
fn facade_sweep_is_worker_count_invariant() {
    let grid = grid();
    assert_eq!(grid.len(), 32, "2 scenarios x 2 links x 4 policies x 2");
    let seq = run_grid(&grid, 1);
    let par = run_grid(&grid, 4);
    assert_eq!(deterministic_view(&seq), deterministic_view(&par));
    assert_eq!(seq.rollups, par.rollups);
    for policy in PolicySpec::PAPER {
        let label = policy.label();
        let rollups: Vec<&CellRollup> = par.rollups_for_policy(&label).collect();
        assert_eq!(rollups.len(), 4, "{policy:?} appears in every cell");
        for r in rollups {
            assert_eq!(r.runs(), 2, "{policy:?} in {}", r.scenario);
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn mixed_axis_outputs_reproduce_their_golden_bytes() {
    // FNV-1a of `to_csv` and `to_jsonl` of the untraced report (its
    // wall-clock columns zeroed), then of the traced sweep's JSONL and its
    // metrics JSONL. Captured before the executor's job queue became an
    // atomic cursor; re-pinned once when `V` and `L_b` became per 25
    // devices (the grid's fleets have 4: Online and Offline moved), from
    // 0x7b51_349d_72fc_191c, 0x1ebd_96d1_f339_648c, 0xbb10_bb46_3465_7d1f
    // and 0x74d7_583e_2764_71bd.
    const GOLDEN: [u64; 4] = [
        0xef0c_b516_d829_cf7b,
        0x8dc8_d40a_e643_6177,
        0x7e32_a837_3351_a693,
        0x4cb6_36d5_af27_3558,
    ];
    let grid = grid();
    for workers in [1, 3] {
        let mut report = run_grid(&grid, workers);
        for job in &mut report.jobs {
            job.wall_ms = Measured(0.0);
            job.slots_per_sec = Measured(0.0);
        }
        let (_, trace) = run_grid_traced(&grid, workers);
        let actual = [
            to_csv(&report),
            to_jsonl(&report),
            events_to_jsonl(&trace.events),
            trace.metrics.to_jsonl(),
        ]
        .map(|bytes| fnv1a(bytes.as_bytes()));
        assert_eq!(actual, GOLDEN, "{workers} worker(s): {actual:#x?}");
    }
}

#[test]
fn fleet_jobs_agree_with_direct_engine_runs() {
    // A fleet job is nothing more than `run_simulation` of its resolved
    // config: spot-check the first and last cells against direct runs.
    let grid = grid();
    let report = run_grid(&grid, 2);
    for id in [0, grid.len() - 1] {
        let job = grid.job(id);
        let direct = run_simulation(job.config.clone());
        let swept = &report.jobs[id];
        assert_eq!(
            direct.total_energy_j.to_bits(),
            swept.total_energy_j.to_bits()
        );
        assert_eq!(direct.total_updates, swept.total_updates);
        assert_eq!(direct.mean_lag.to_bits(), swept.mean_lag.to_bits());
    }
}

#[test]
fn mixed_axis_report_round_trips_through_csv_and_jsonl() {
    // Acceptance: a mixed-axis sweep keyed by (scenario_label, policy_label)
    // round-trips through both report formats.
    let report = run_grid(&grid(), 0);
    let csv = to_csv(&report);
    let jsonl = to_jsonl(&report);
    for job in &report.jobs {
        let row = csv
            .lines()
            .nth(job.id + 1)
            .unwrap_or_else(|| panic!("row for job {}", job.id));
        assert!(
            row.starts_with(&format!("{},{},{},", job.id, job.scenario, job.policy)),
            "{row}"
        );
        let line = jsonl
            .lines()
            .nth(job.id)
            .unwrap_or_else(|| panic!("line for job {}", job.id));
        assert!(line.contains(&format!("\"scenario\":\"{}\"", job.scenario)));
        assert!(line.contains(&format!("\"policy\":\"{}\"", job.policy)));
    }
    // The axis override is visible in the keys themselves.
    assert!(csv.contains("smoke:users=4:slots=300:link=wifi"));
    assert!(jsonl.contains("lte-uplink:users=4:slots=300:arrival_p=0.005:link=ideal"));
}
