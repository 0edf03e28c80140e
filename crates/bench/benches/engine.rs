//! `bench_engine` — slot-loop throughput at the benchmark's shapes.
//!
//! Times `Simulation::run` in summary mode and reports what the slot loop
//! does per wall-clock second:
//!
//! * `engine/scale/<users>` — the `city-scale` preset geometry, Online
//!   policy, from 20 k users up to one million, in fleet-aggregate
//!   user-slots per second;
//! * `engine/city-online/7500` — the shape of the repository benchmark's
//!   `city-online` workload (`city-scale:users=7500`, Online, the preset's
//!   full hour), with its nanoseconds per user-slot and per-user visit
//!   count.
//!
//! Each cell is timed `FEDCO_BENCH_REPS` times (default 3) and the best wall
//! time is kept, on a fresh `Simulation` each time. With
//! `FEDCO_BENCH_JSON=<path>` set, one JSON line per cell is appended for
//! mechanical diffing across commits — this is what `BENCH_engine.json` at
//! the workspace root records.
//!
//! Knobs: `FEDCO_BENCH_REPS` (default 3), `FEDCO_BENCH_SCALE_USERS`
//! (default `20000,100000,1000000`), `FEDCO_BENCH_SCALE_SLOTS` (default
//! 200).

use std::hint::black_box;
use std::time::Instant;

use fedco_bench::micro;
use fedco_sim::prelude::*;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// A comma-separated list of positive integers from the environment, or the
/// default when unset/unparseable.
fn env_list(name: &str, default: &[u64]) -> Vec<u64> {
    std::env::var(name)
        .ok()
        .and_then(|v| {
            v.split(',')
                .map(|t| t.trim().parse::<u64>().ok().filter(|&n| n > 0))
                .collect::<Option<Vec<u64>>>()
        })
        .filter(|list| !list.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

/// The `city-scale` preset at `users` × `slots`, Online policy, summary mode.
fn city_scale(users: u64, slots: u64) -> SimConfig {
    ScenarioSpec::preset("city-scale")
        .expect("`city-scale` is a registry scenario")
        .with_users(users as usize)
        .with_slots(slots)
        .build()
        .expect("valid benchmark scenario")
        .summary_only()
        .with_policy(PolicySpec::Online { v: None })
}

/// Best-of-`reps` wall seconds for one `run`, plus the kept run's engine
/// stats.
fn time_run(config: &SimConfig, reps: u64) -> (f64, EngineStats) {
    let mut best = f64::INFINITY;
    let mut kept: Option<EngineStats> = None;
    for _ in 0..reps.max(1) {
        let mut sim = Simulation::try_new(config.clone()).expect("valid benchmark config");
        let start = Instant::now();
        let result = sim.run();
        let wall = start.elapsed().as_secs_f64();
        black_box(&result);
        if wall < best {
            best = wall;
            kept = Some(sim.engine_stats());
        }
    }
    (best, kept.expect("at least one repetition"))
}

fn main() {
    let reps = env_u64("FEDCO_BENCH_REPS", 3);

    // Scale sweep: the struct-of-arrays arena and the indexed phases at
    // city scale and beyond, reported as fleet-aggregate **user-slots per
    // second**.
    let scale_users = env_list("FEDCO_BENCH_SCALE_USERS", &[20_000, 100_000, 1_000_000]);
    let scale_slots = env_u64("FEDCO_BENCH_SCALE_SLOTS", 200);
    micro::group(&format!(
        "engine scale — city-scale preset, Online, {scale_slots} slots, best of {reps}"
    ));
    println!("{:<42} {:>18} {:>12}", "users", "user-slots/s", "wall ms");
    for &scale in &scale_users {
        let (wall, _) = time_run(&city_scale(scale, scale_slots), reps);
        let slot_rate = scale_slots as f64 / wall;
        let user_slot_rate = (scale * scale_slots) as f64 / wall;
        println!(
            "{:<42} {user_slot_rate:>18.0} {:>12.1}",
            format!("scale/{scale}"),
            wall * 1e3
        );
        micro::append_json_line(&format!(
            "{{\"name\":\"engine/scale/{scale}\",\"slots_per_sec\":{slot_rate:.0},\
\"user_slots_per_sec\":{user_slot_rate:.0},\"wall_ms\":{:.3}}}",
            wall * 1e3
        ));
    }

    // The `city-online` workload of `benchmark/`: fixed shape, so the
    // recorded trajectory and the CI gate see the same cell the end-to-end
    // benchmark times.
    let (city_users, city_slots) = (7_500u64, 3_600u64);
    let (wall, stats) = time_run(&city_scale(city_users, city_slots), reps);
    let user_slots = (city_slots * city_users) as f64;
    let ns_per_user_slot = wall * 1e9 / user_slots;
    micro::group(&format!(
        "engine city-online — city-scale preset, {city_users} users x {city_slots} slots, \
Online, best of {reps}"
    ));
    println!(
        "{:<42} {:>12.1} ms {:>8.2} ns/user-slot {:>10} visits ({:.1}% of users x slots)",
        format!("city-online/{city_users}"),
        wall * 1e3,
        ns_per_user_slot,
        stats.user_visits,
        stats.user_visits as f64 * 100.0 / user_slots
    );
    // (`ns_per_dense_user_slot` keeps the key of the recorded trajectory;
    // every slot is stepped, so it is nanoseconds per user-slot.)
    micro::append_json_line(&format!(
        "{{\"name\":\"engine/city-online/{city_users}\",\"slots_per_sec\":{:.0},\
\"wall_ms\":{:.3},\"ns_per_dense_user_slot\":{ns_per_user_slot:.2},\"user_visits\":{}}}",
        city_slots as f64 / wall,
        wall * 1e3,
        stats.user_visits
    ));
}
