//! Figure 2 — FPS of Angry Birds and TikTok when running alone versus
//! co-running with the background training task
//! ([`fedco_bench::figures::fig2`]).

fn main() {
    print!("{}", fedco_bench::figures::fig2());
}
