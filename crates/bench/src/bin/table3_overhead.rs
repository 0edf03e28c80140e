//! Table III — Energy overhead of the online optimisation: the extra power
//! of evaluating the Eq.-21 decision rule each slot relative to idling
//! ([`fedco_bench::figures::table3`]).

fn main() {
    print!("{}", fedco_bench::figures::table3());
}
