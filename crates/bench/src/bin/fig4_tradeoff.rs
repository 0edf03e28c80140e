//! Figure 4 — Energy consumption and the energy–staleness trade-off of the
//! online controller: (a) energy vs V for L_b ∈ {100, 500, 1000} against the
//! Immediate, Sync-SGD and Offline baselines; (b) task-queue backlog Q(t) vs
//! V; (c) virtual-queue backlog H(t) vs V; (d) the energy-vs-staleness
//! frontier ([`fedco_bench::figures::fig4`]).

fn main() -> Result<(), Box<dyn std::error::Error>> {
    print!("{}", fedco_bench::figures::fig4()?);
    Ok(())
}
