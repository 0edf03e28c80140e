//! Sweep all four policies across two declarative scenarios and two open
//! field axes (arrival rate × transport link) on every core, then print the
//! merged per-cell rollups and a CSV excerpt. A second, spec-based sweep
//! compares the online controller at three `V` values against every
//! baseline in one grid.
//!
//! ```text
//! cargo run --release --example fleet_sweep
//! ```
//!
//! The full-featured driver with scenario files, `--axis` flags and report
//! files is the `fleet_sweep` binary:
//! `cargo run --release -p fedco-fleet --bin fleet_sweep -- --help`.

use fedco::prelude::*;

fn main() {
    // Two workloads from the registry, scaled down for a quick example run,
    // crossed with open axes over the arrival rate and the transport link.
    // Any scenario field could be swept the same way ("--axis users=8,80").
    let scenarios = vec![
        ScenarioSpec::preset("smoke")
            .expect("preset")
            .with_users(8)
            .with_slots(900),
        ScenarioSpec::preset("hetero-devices")
            .expect("preset")
            .with_users(8)
            .with_slots(900),
    ];
    let grid = ScenarioGrid::from_scenarios(scenarios)
        .with_axis("arrival_p", &["0.0002", "0.005"])
        .with_axis("link", &["ideal", "lte"])
        .with_replicates(2);

    let workers = resolve_workers(0);
    println!(
        "sweeping {} jobs ({} scenarios x {} axis cells x {} policies x {} seeds) on {} worker(s)\n",
        grid.len(),
        grid.scenarios.len(),
        grid.axes.iter().map(|a| a.values.len()).product::<usize>(),
        grid.policies.len(),
        grid.seeds.len(),
        workers
    );

    let report = run_grid(&grid, 0);
    print!("{}", rollup_table(&report));
    println!(
        "\n{} jobs in {:.2} s ({:.1} jobs/s)",
        report.jobs.len(),
        report.wall_s,
        report.jobs.len() as f64 / report.wall_s.max(1e-9)
    );

    // The same report as machine-readable rows (first three of the CSV),
    // keyed by the (scenario, policy) label pair.
    let csv = to_csv(&report);
    println!("\nCSV excerpt:");
    for line in csv.lines().take(3) {
        println!("  {line}");
    }

    // Radio cost of the LTE cells, straight from the per-job rows.
    let lte_radio_kj: f64 = report
        .jobs
        .iter()
        .filter(|j| j.link == "lte")
        .map(|j| j.radio_energy_j)
        .sum::<f64>()
        / 1e3;
    println!("\ntotal radio energy of the LTE cells: {lte_radio_kj:.2} kJ");

    // Second sweep: the open policy API in action. One grid compares the
    // online controller's energy–staleness trade-off at three V values
    // against all four built-in baselines, with one rollup row per spec.
    let mut specs = PolicySpec::PAPER.to_vec();
    specs.extend([1000.0, 4000.0, 16000.0].map(PolicySpec::online_with_v));
    let v_grid = ScenarioGrid::new(
        ScenarioSpec::preset("smoke")
            .expect("preset")
            .with_slots(900),
    )
    .with_policy_specs(specs)
    .with_replicates(3);
    println!(
        "\nsweeping the V trade-off: {} jobs over {} specs",
        v_grid.len(),
        v_grid.policies.len()
    );
    let v_report = run_grid(&v_grid, 0);
    print!("{}", rollup_table(&v_report));
}
