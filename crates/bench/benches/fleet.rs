//! Micro-benchmarks of the fleet sweep runtime: grid expansion, the
//! sequential baseline and the parallel executor over a scheduler-sweep
//! grid, plus the streaming-statistics fold. The sequential/parallel pair
//! is the speedup trajectory to watch as executor work lands (on a
//! single-core machine the two are expected to tie).

use std::hint::black_box;

use fedco_bench::micro;
use fedco_fleet::prelude::*;

fn sweep_grid() -> ScenarioGrid {
    ScenarioGrid::new(
        ScenarioSpec::preset("smoke")
            .expect("preset")
            .with_users(5)
            .with_slots(300),
    )
    .with_axis("arrival_p", &["0.001", "0.005"])
    .with_axis("link", &["ideal", "lte"])
    .with_replicates(2)
}

fn main() {
    let grid = sweep_grid();

    micro::group("fleet_grid");
    micro::bench("fleet_grid/expand_32_jobs", || {
        black_box(grid.expand());
    });

    micro::group("fleet_executor_32_jobs_5_users_300_slots");
    micro::bench("fleet_executor/sequential", || {
        black_box(run_grid(&grid, 1));
    });
    micro::bench("fleet_executor/parallel_all_cores", || {
        black_box(run_grid(&grid, 0));
    });

    micro::group("fleet_stats");
    micro::bench("fleet_stats/streaming_fold_10k", || {
        let mut s = Streaming::new();
        for i in 0..10_000u32 {
            s.push(f64::from(i) * 0.5);
        }
        black_box(s.mean());
    });
    micro::bench("fleet_stats/merge_1k_shards", || {
        let mut shard = Streaming::new();
        shard.push(1.0);
        shard.push(2.0);
        let mut total = Streaming::new();
        for _ in 0..1_000 {
            total.merge(&shard);
        }
        black_box(total.count());
    });
}
