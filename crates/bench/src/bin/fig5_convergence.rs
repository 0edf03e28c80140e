//! Figure 5 — Convergence and gradient staleness with the real (down-scaled)
//! LeNet workload: (a) gradient-gap traces of Sync-SGD vs ASync-SGD and the
//! lag/gap correlation; (b) test-accuracy curves of Online / Offline /
//! Immediate / Sync-SGD; (c) wall-clock time to reach accuracy targets;
//! (d) per-user gradient-gap statistics.

use fedco_bench::paper_config;
use fedco_sim::prelude::*;

fn config(policy: PolicySpec) -> SimConfig {
    let mut cfg = paper_config(policy)
        .with_v(4000.0)
        .with_staleness_bound(500.0);
    cfg.ml = Some(MlConfig::default());
    cfg.record_user_gaps = true;
    cfg.record_every_slots = 120;
    cfg
}

fn main() {
    println!("Reproduction of Fig. 5 (real LeNet training on synthetic CIFAR-like data).\n");
    let policies = [
        PolicySpec::Online { v: None },
        PolicySpec::Offline,
        PolicySpec::Immediate,
        PolicySpec::SyncSgd,
    ];
    let results: Vec<SimResult> = policies
        .iter()
        .map(|p| run_simulation(config(p.clone())))
        .collect();

    for r in &results {
        println!("  {}", summarize(r));
    }
    println!();

    // Fig. 5(a): gradient-gap trace and lag-gap correlation (async vs sync).
    let online = &results[0];
    let sync = &results[3];
    println!("Fig. 5(a) — mean gradient gap over time (Online/ASync vs Sync-SGD):");
    println!("{:>8} {:>14} {:>14}", "t (s)", "async gap", "sync gap");
    for (a, s) in online.trace.iter().zip(sync.trace.iter()).step_by(5) {
        println!("{:>8.0} {:>14.3} {:>14.3}", a.t_s, a.mean_gap, s.mean_gap);
    }
    println!(
        "\nlag vs gradient-gap correlation across applied async updates: {:.2} (paper: positive)",
        results[2].lag_gap_correlation()
    );
    println!();

    // Fig. 5(b): accuracy curves.
    println!("Fig. 5(b) — test accuracy over time:");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10}",
        "t (s)", "online", "offline", "immediate", "sync"
    );
    let len = results.iter().map(|r| r.trace.len()).min().unwrap_or(0);
    for i in (0..len).step_by(5) {
        let acc = |r: &SimResult| {
            r.trace[i]
                .accuracy
                .map(|a| format!("{:.1}%", a * 100.0))
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "{:>8.0} {:>10} {:>10} {:>10} {:>10}",
            results[0].trace[i].t_s,
            acc(&results[0]),
            acc(&results[1]),
            acc(&results[2]),
            acc(&results[3])
        );
    }
    println!();

    // Fig. 5(c): wall-clock time to accuracy objectives.
    println!("Fig. 5(c) — wall-clock time (s) to reach accuracy objectives:");
    print!("{:>10}", "target");
    for p in &policies {
        print!(" {:>11}", p.label());
    }
    println!();
    // The paper's targets (40–55 %) apply to full CIFAR-10 over 3 hours; the
    // down-scaled synthetic task reaches proportionally lower accuracies at
    // the default 1/3-scale horizon, so scaled-down targets are printed too.
    for target in [0.15f32, 0.20, 0.25, 0.40, 0.45, 0.50, 0.55] {
        print!("{:>9.0}%", target * 100.0);
        for r in &results {
            let t = r
                .time_to_accuracy(target)
                .map(|t| format!("{t:.0}"))
                .unwrap_or_else(|| "never".into());
            print!(" {:>11}", t);
        }
        println!();
    }
    println!();

    // Fig. 5(d): per-user gradient-gap variance.
    println!("Fig. 5(d) — per-user gradient-gap variance (staleness dispersion):");
    for r in &results {
        println!(
            "  {:<10} variance {:>10.3}",
            r.policy.label(),
            r.user_gap_variance()
        );
    }
    println!(
        "\nPaper reference: Immediate has the smallest variance, Offline the largest,\n\
         Online evolves moderately in between; Online lags Immediate's accuracy by\n\
         ~1000 s while saving ~60% energy, and Sync-SGD/Offline converge much slower."
    );
}
