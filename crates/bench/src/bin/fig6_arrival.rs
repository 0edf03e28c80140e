//! Figure 6 — Impact of the application arrival rate: (a) energy consumption
//! of Online / Immediate / Offline across arrival probabilities; (b) test
//! accuracy when application arrivals are scarce
//! ([`fedco_bench::figures::fig6`]).

fn main() -> Result<(), Box<dyn std::error::Error>> {
    print!("{}", fedco_bench::figures::fig6()?);
    Ok(())
}
