//! Quickstart: run the paper's evaluation setting (scaled down to a few
//! minutes of simulated time) under the online Lyapunov controller and the
//! immediate-scheduling baseline, and compare their energy and staleness.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fedco::prelude::*;

fn main() {
    // The paper's 25-user testbed mix, declared as a scenario spec:
    // `paper-default` scaled to 30 simulated minutes with one app arrival
    // per ~500 s per user. The same string works on the `fleet_sweep` CLI.
    let scenario: ScenarioSpec = "paper-default:slots=1800:arrival_p=0.002"
        .parse()
        .expect("registry scenario");

    println!("fedco quickstart — online controller vs immediate scheduling");
    println!(
        "scenario: {} ({} users, horizon {} s, arrival p {})\n",
        scenario.label(),
        scenario.users(),
        scenario.slots(),
        scenario.arrival_p()
    );

    let immediate = run_simulation(
        scenario
            .build_with_policy(PolicySpec::Immediate)
            .expect("valid scenario"),
    );
    let online = run_simulation(
        scenario
            .build_with_policy(PolicySpec::Online { v: None })
            .expect("valid scenario"),
    );

    println!("{}", summarize(&immediate));
    println!("{}", summarize(&online));

    let saving = 1.0 - online.total_energy_j / immediate.total_energy_j;
    println!(
        "\nenergy saving of the online controller vs immediate: {:.1} %",
        saving * 100.0
    );
    println!(
        "updates made: immediate {} vs online {}",
        immediate.total_updates, online.total_updates
    );

    println!("\nenergy breakdown (online):");
    print!("{}", render_breakdown(&online));
}
