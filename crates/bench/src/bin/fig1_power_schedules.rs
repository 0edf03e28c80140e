//! Figure 1 — Power consumption of different schedules (separate training,
//! separate application, co-running) for the eight applications on Pixel 2
//! and on the HiKey 970 board ([`fedco_bench::figures::fig1`]).

fn main() {
    print!("{}", fedco_bench::figures::fig1());
}
