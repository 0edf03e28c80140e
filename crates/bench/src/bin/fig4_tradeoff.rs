//! Figure 4 — Energy consumption and the energy–staleness trade-off of the
//! online controller: (a) energy vs V for L_b ∈ {100, 500, 1000} against the
//! Immediate, Sync-SGD and Offline baselines; (b) task-queue backlog Q(t) vs
//! V; (c) virtual-queue backlog H(t) vs V; (d) the energy-vs-staleness
//! frontier.

use fedco_bench::paper_config;
use fedco_sim::prelude::*;

fn main() {
    let v_values = [0.0, 1000.0, 2000.0, 4000.0, 10_000.0, 40_000.0, 100_000.0];
    let lb_values = [100.0, 500.0, 1000.0];

    println!("Reproduction of Fig. 4 (energy-only simulation, 25 users).\n");

    // Baselines.
    let immediate = run_simulation(paper_config(PolicySpec::Immediate));
    let sync = run_simulation(paper_config(PolicySpec::SyncSgd));
    let offline = run_simulation(paper_config(PolicySpec::Offline));
    println!("Baselines:");
    println!("  {}", summarize(&immediate));
    println!("  {}", summarize(&sync));
    println!("  {}", summarize(&offline));
    println!();

    // Fig. 4(a)(b)(c): sweep V for each staleness bound.
    println!(
        "{:>8} {:>8} | {:>13} {:>12} {:>12} {:>9}",
        "L_b", "V", "energy (kJ)", "mean Q(t)", "mean H(t)", "updates"
    );
    let mut frontier: Vec<(f64, f64, f64)> = Vec::new();
    for &lb in &lb_values {
        for &v in &v_values {
            let cfg = paper_config(PolicySpec::Online { v: None })
                .with_v(v)
                .with_staleness_bound(lb);
            let r = run_simulation(cfg);
            println!(
                "{:>8.0} {:>8.0} | {:>13.1} {:>12.1} {:>12.1} {:>9}",
                lb,
                v,
                r.total_energy_kj(),
                r.mean_queue,
                r.mean_virtual_queue,
                r.total_updates
            );
            frontier.push((lb, r.mean_virtual_queue, r.total_energy_kj()));
        }
        println!();
    }

    // Fig. 4(d): energy vs staleness frontier.
    println!("Fig. 4(d) — energy vs staleness (virtual queue H) frontier:");
    println!("{:>8} {:>14} {:>14}", "L_b", "staleness H", "energy (kJ)");
    for (lb, h, e) in &frontier {
        println!("{:>8.0} {:>14.1} {:>14.1}", lb, h, e);
    }

    // Headline ratios reported in Section VII-B.
    let best_online = frontier
        .iter()
        .filter(|(lb, _, _)| *lb == 1000.0)
        .map(|(_, _, e)| *e)
        .fold(f64::INFINITY, f64::min);
    println!();
    println!(
        "Online (best V, L_b=1000) vs Immediate: {:.0}% energy saving (paper: ~66%)",
        (1.0 - best_online / immediate.total_energy_kj()) * 100.0
    );
    println!(
        "Online (best V, L_b=1000) vs Sync-SGD : {:.0}% energy saving (paper: ~63%)",
        (1.0 - best_online / sync.total_energy_kj()) * 100.0
    );
    println!(
        "Online / Offline approximation factor  : {:.2} (paper: ~1.14)",
        best_online / offline.total_energy_kj()
    );
}
