//! Micro-benchmark of full (energy-only) simulation throughput: one
//! scaled-down slot loop per policy, demonstrating that regenerating every
//! figure is cheap.

use std::hint::black_box;

use fedco_bench::micro;
use fedco_sim::prelude::*;

fn main() {
    micro::group("simulation_1800_slots_25_users");
    for policy in [
        PolicySpec::Immediate,
        PolicySpec::Online { v: None },
        PolicySpec::Offline,
        PolicySpec::SyncSgd,
    ] {
        micro::bench(
            &format!("simulation_1800_slots_25_users/{}", policy.label()),
            || {
                let cfg = SimConfig {
                    num_users: 25,
                    total_slots: 1800,
                    arrival_probability: 0.002,
                    policy: policy.clone(),
                    ..SimConfig::default()
                };
                black_box(run_simulation(cfg));
            },
        );
    }
}
