//! Sweep the Lyapunov control knob `V` and print the energy–staleness
//! frontier (the shape of Fig. 4 in the paper).
//!
//! ```text
//! cargo run --release --example energy_tradeoff
//! ```

use fedco::prelude::*;

fn main() {
    // The scenario is declarative; the V sweep below overrides its `v`
    // field point by point, so each point's label names its V.
    let base: ScenarioSpec = "paper-default:slots=3600:arrival_p=0.002"
        .parse()
        .expect("registry scenario");

    println!(
        "V sweep with L_b = {} ({} users, {} s horizon)\n",
        base.scheduler().staleness_bound,
        base.users(),
        base.slots()
    );
    println!(
        "{:>10}  {:>14}  {:>10}  {:>12}  {:>8}",
        "V", "energy (kJ)", "Q(t) avg", "H(t) avg", "updates"
    );

    let mut frontier = Vec::new();
    for v in [
        0.0, 500.0, 1000.0, 2000.0, 4000.0, 10_000.0, 50_000.0, 100_000.0,
    ] {
        let result = run_simulation(base.clone().with_v(v).build().expect("valid scenario"));
        println!(
            "{:>10.0}  {:>14.1}  {:>10.1}  {:>12.1}  {:>8}",
            v,
            result.total_energy_kj(),
            result.mean_queue,
            result.mean_virtual_queue,
            result.total_updates
        );
        frontier.push((result.mean_virtual_queue, result.total_energy_kj()));
    }

    println!();
    print!(
        "{}",
        render_series(
            "Energy vs staleness (Fig. 4d shape)",
            "H(t) (staleness)",
            "energy (kJ)",
            &frontier
        )
    );

    // The two baselines bracketing the online controller: same scenario,
    // different policy axis.
    let immediate = run_simulation(
        base.build_with_policy(PolicySpec::Immediate)
            .expect("valid scenario"),
    );
    let offline = run_simulation(
        base.build_with_policy(PolicySpec::Offline)
            .expect("valid scenario"),
    );
    println!("baselines:");
    println!("{}", summarize(&immediate));
    println!("{}", summarize(&offline));
}
