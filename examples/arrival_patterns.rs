//! Study how the application-arrival rate changes the value of co-running
//! (the Fig. 6 experiment), including a diurnal usage pattern — the
//! "different diurnal and nocturnal application usage patterns" the paper's
//! conclusion points to.
//!
//! ```text
//! cargo run --release --example arrival_patterns
//! ```

use fedco::prelude::*;

fn main() {
    // The base workload as a declarative scenario; each sweep point below
    // only overrides `arrival_p`, which shows up in the spec's label.
    let base: ScenarioSpec = "paper-default:users=20:slots=2400"
        .parse()
        .expect("registry scenario");

    println!("Energy vs application arrival probability (Fig. 6a shape)\n");
    println!(
        "{:>12}  {:>14}  {:>14}  {:>14}",
        "arrival p", "online (kJ)", "immediate (kJ)", "offline (kJ)"
    );
    for p in [0.0005, 0.002, 0.01, 0.05, 0.1] {
        let point = base.clone().with_arrival_p(p);
        let run = |policy: PolicySpec| {
            run_simulation(point.build_with_policy(policy).expect("valid scenario"))
        };
        println!(
            "{:>12.4}  {:>14.1}  {:>14.1}  {:>14.1}",
            p,
            run(PolicySpec::Online { v: None }).total_energy_kj(),
            run(PolicySpec::Immediate).total_energy_kj(),
            run(PolicySpec::Offline).total_energy_kj()
        );
    }

    // A simple diurnal pattern: apps are frequent in the "evening" third of
    // the horizon and scarce otherwise. We emulate it by splitting the run
    // into three phases and re-using the battery/energy accounting per phase.
    println!("\nDiurnal pattern (scarce -> busy -> scarce arrivals):");
    let phases = [("night", 0.0005), ("evening", 0.02), ("late night", 0.0005)];
    let mut total_online = 0.0;
    let mut total_immediate = 0.0;
    for (name, p) in phases {
        let phase = base.clone().with_slots(800).with_arrival_p(p);
        let online = run_simulation(phase.build().expect("valid"));
        let immediate = run_simulation(
            phase
                .build_with_policy(PolicySpec::Immediate)
                .expect("valid"),
        );
        total_online += online.total_energy_kj();
        total_immediate += immediate.total_energy_kj();
        println!(
            "  {:<11} p={:<7} online {:>8.1} kJ   immediate {:>8.1} kJ",
            name,
            p,
            online.total_energy_kj(),
            immediate.total_energy_kj()
        );
    }
    println!(
        "  total        online {:>8.1} kJ   immediate {:>8.1} kJ   saving {:.1} %",
        total_online,
        total_immediate,
        (1.0 - total_online / total_immediate) * 100.0
    );
}
