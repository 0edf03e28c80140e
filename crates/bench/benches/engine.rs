//! `bench_engine` — slot-loop throughput, scan reference vs indexed phases.
//!
//! Runs every policy of the default registry through `Simulation::run_dense`
//! (every per-user phase a scan of the fleet) and `Simulation::run` (the
//! same phases from event indices) on summary-mode cells of the scenario
//! registry and reports simulated **slots per second**. Both step every
//! slot; the cell names keep the `dense` / `event` suffixes the recorded
//! trajectory uses:
//!
//! * `paper`  — the `paper-default` preset at fleet scale (100 users,
//!   3-hour horizon, Bernoulli arrivals at p = 0.001);
//! * `sparse` — the `sparse` preset pushed to its extreme
//!   (p = 0.0001), where almost nothing happens in a slot;
//! * `burst`  — the `dense-burst` preset (p = 0.01), the busy end;
//! * `lte`    — the `lte-uplink` preset, exercising the transport-charged
//!   radio path;
//! * `world`  — the `battery-constrained` preset (battery lifecycles plus
//!   light churn), exercising the periodic fleet-wide world check.
//!
//! Each (scenario, policy, loop) cell is timed `FEDCO_BENCH_REPS` times
//! (default 3) and the best wall time is kept. Results are verified
//! bit-identical between the two before any number is reported. With
//! `FEDCO_BENCH_JSON=<path>` set, one JSON line per cell (plus a per-
//! scenario aggregate) is appended for mechanical diffing across commits —
//! this is what `BENCH_engine.json` at the workspace root records.
//!
//! A final `engine/scale/<users>` sweep times `run` on the `city-scale`
//! preset geometry from 20 k users up to one million, in fleet-aggregate
//! user-slots per second, and an `engine/city-online/7500` cell times the
//! shape of the repository benchmark's `city-online` workload
//! (`city-scale:users=7500`, Online, the preset's full hour) with its
//! nanoseconds per user-slot and per-user visit count.
//!
//! Scale knobs for smoke runs: `FEDCO_BENCH_USERS` (default 100),
//! `FEDCO_BENCH_SLOTS` (default 10 800), `FEDCO_BENCH_REPS` (default 3),
//! `FEDCO_BENCH_SCALE_USERS` (default `20000,100000,1000000`),
//! `FEDCO_BENCH_SCALE_SLOTS` (default 200).

use std::hint::black_box;
use std::time::Instant;

use fedco_bench::micro;
use fedco_sim::prelude::*;
use fedco_telemetry::export::json_escape;

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

/// A registry preset scaled to the benchmark's user/slot knobs, with the
/// optional arrival override the sparse extreme uses.
fn scenario(preset: &str, arrival_probability: Option<f64>, users: u64, slots: u64) -> SimConfig {
    let mut spec = ScenarioSpec::preset(preset)
        .unwrap_or_else(|| panic!("`{preset}` is not a registry scenario"))
        .with_users(users as usize)
        .with_slots(slots);
    if let Some(p) = arrival_probability {
        spec = spec.with_arrival_p(p);
    }
    spec.build()
        .expect("valid benchmark scenario")
        .summary_only()
}

/// Best-of-`reps` wall seconds for one run, plus the result and engine stats.
fn time_run(config: &SimConfig, dense: bool, reps: u64) -> (f64, SimResult, EngineStats) {
    let mut best = f64::INFINITY;
    let mut kept: Option<(SimResult, EngineStats)> = None;
    for _ in 0..reps.max(1) {
        let mut sim = Simulation::try_new(config.clone()).expect("valid benchmark config");
        let start = Instant::now();
        let result = if dense { sim.run_dense() } else { sim.run() };
        let wall = start.elapsed().as_secs_f64();
        black_box(&result);
        if wall < best {
            best = wall;
            kept = Some((result, sim.engine_stats()));
        }
    }
    let (result, stats) = kept.expect("at least one repetition");
    (best, result, stats)
}

fn main() {
    let users = env_u64("FEDCO_BENCH_USERS", 100);
    let slots = env_u64("FEDCO_BENCH_SLOTS", 10_800);
    let reps = env_u64("FEDCO_BENCH_REPS", 3);
    micro::group(&format!(
        "engine throughput — {users} users x {slots} slots, summary mode, best of {reps}"
    ));
    println!(
        "{:<42} {:>14} {:>16} {:>9}",
        "scenario/policy", "scan slots/s", "indexed slots/s", "speedup"
    );

    let cells = [
        ("paper", "paper-default", None),
        ("sparse", "sparse", Some(0.0001)),
        ("burst", "dense-burst", None),
        ("lte", "lte-uplink", None),
        ("world", "battery-constrained", None),
    ];
    for (name, preset, p) in cells {
        let mut dense_total_s = 0.0;
        let mut event_total_s = 0.0;
        for spec in PolicySpec::default_registry() {
            let config = scenario(preset, p, users, slots).with_policy(spec.clone());
            let (dense_s, dense_result, _) = time_run(&config, true, reps);
            let (event_s, event_result, _) = time_run(&config, false, reps);
            assert_eq!(
                dense_result.total_energy_j.to_bits(),
                event_result.total_energy_j.to_bits(),
                "{name}/{spec}: scan and indexed phases diverged"
            );
            assert_eq!(dense_result.total_updates, event_result.total_updates);
            dense_total_s += dense_s;
            event_total_s += event_s;
            let dense_rate = slots as f64 / dense_s;
            let event_rate = slots as f64 / event_s;
            let label = format!("{name}/{}", spec.label());
            println!(
                "{label:<42} {dense_rate:>14.0} {event_rate:>16.0} {:>8.1}x",
                event_rate / dense_rate
            );
            micro::append_json_line(&format!(
                "{{\"name\":\"engine/{}/dense\",\"slots_per_sec\":{:.0},\"wall_ms\":{:.3}}}",
                json_escape(&label),
                dense_rate,
                dense_s * 1e3
            ));
            micro::append_json_line(&format!(
                "{{\"name\":\"engine/{}/event\",\"slots_per_sec\":{:.0},\"wall_ms\":{:.3},\
\"speedup\":{:.2}}}",
                json_escape(&label),
                event_rate,
                event_s * 1e3,
                event_rate / dense_rate
            ));
        }
        let registry = PolicySpec::default_registry().len() as f64;
        let aggregate = dense_total_s / event_total_s;
        println!(
            "{:<42} {:>14.0} {:>16.0} {aggregate:>8.1}x",
            format!("{name}/AGGREGATE"),
            registry * slots as f64 / dense_total_s,
            registry * slots as f64 / event_total_s,
        );
        micro::append_json_line(&format!(
            "{{\"name\":\"engine/{name}/aggregate\",\"users\":{users},\"slots\":{slots},\
\"dense_slots_per_sec\":{:.0},\"event_slots_per_sec\":{:.0},\"speedup\":{aggregate:.2}}}",
            registry * slots as f64 / dense_total_s,
            registry * slots as f64 / event_total_s,
        ));
    }

    // Scale sweep: the struct-of-arrays arena and the indexed phases at
    // city scale and beyond. `run` only (a million-user scan run would
    // dominate the whole benchmark), Online policy, `city-scale` preset
    // geometry, reported as fleet-aggregate **user-slots per second**.
    //
    // Knobs: `FEDCO_BENCH_SCALE_USERS` (comma list), `FEDCO_BENCH_SCALE_SLOTS`.
    let scale_users = env_list("FEDCO_BENCH_SCALE_USERS", &[20_000, 100_000, 1_000_000]);
    let scale_slots = env_u64("FEDCO_BENCH_SCALE_SLOTS", 200);
    micro::group(&format!(
        "engine scale — city-scale preset, Online, {scale_slots} slots, best of {reps}"
    ));
    println!("{:<42} {:>18} {:>12}", "users", "user-slots/s", "wall ms");
    for &scale in &scale_users {
        let config = scenario("city-scale", None, scale, scale_slots)
            .with_policy(PolicySpec::Online { v: None });
        let (wall, _, _) = time_run(&config, false, reps);
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

    // The `city-online` workload of `benchmark/`: fixed shape (not scaled
    // by the smoke knobs), so the recorded trajectory and the CI gate see
    // the same cell the end-to-end benchmark times.
    let (city_users, city_slots) = (7_500u64, 3_600u64);
    let config = scenario("city-scale", None, city_users, city_slots)
        .with_policy(PolicySpec::Online { v: None });
    let (wall, _, stats) = time_run(&config, false, reps);
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
