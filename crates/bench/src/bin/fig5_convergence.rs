//! Figure 5 — Convergence and gradient staleness with the real (down-scaled)
//! LeNet workload: (a) gradient-gap traces of Sync-SGD vs ASync-SGD and the
//! lag/gap correlation; (b) test-accuracy curves of Online / Offline /
//! Immediate / Sync-SGD; (c) wall-clock time to reach accuracy targets;
//! (d) per-user gradient-gap statistics ([`fedco_bench::figures::fig5`]).

fn main() -> Result<(), Box<dyn std::error::Error>> {
    print!("{}", fedco_bench::figures::fig5()?);
    Ok(())
}
