//! Table II — Averaged energy measurements: app-only power, co-running
//! power, co-run execution time and energy-saving percentage for every
//! (device, application) pair, plus the training-only row
//! ([`fedco_bench::figures::table2`]).

fn main() {
    print!("{}", fedco_bench::figures::table2());
}
