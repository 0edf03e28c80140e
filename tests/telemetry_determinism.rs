//! Facade-level observability regressions: the telemetry contract as seen
//! through `fedco::prelude`.
//!
//! Two invariants, matching the acceptance criteria of the telemetry
//! subsystem:
//!
//! 1. a traced `paper-default` sweep produces byte-identical serialized
//!    traces and metrics on 1, 2 and 4 fleet workers;
//! 2. the JSONL trace schema round-trips byte-identically, and so do the
//!    metrics derived from the round-tripped trace.
//!
//! That `Simulation::run` and its plain-scan reference emit the same event
//! stream is test code of `fedco-sim`, where the reference lives
//! (`scan::equivalence::assert_telemetry_identical_scan_vs_indexed`).
//!
//! The horizon here is scaled down so debug-mode tests stay fast; `ci.sh`
//! exercises the full-scale path in release mode through
//! `fleet_sweep --trace --verify`.

use fedco::prelude::*;

fn paper_grid() -> ScenarioGrid {
    ScenarioGrid::new(
        ScenarioSpec::preset("paper-default")
            .expect("registry preset")
            .with_users(6)
            .with_slots(600),
    )
}

#[test]
fn paper_default_traced_sweep_is_worker_count_invariant() {
    let grid = paper_grid();
    let (base_report, base_trace) = run_grid_traced(&grid, 1);
    let base_events = events_to_jsonl(&base_trace.events);
    let base_metrics = base_trace.metrics.to_jsonl();
    assert!(!base_trace.events.is_empty(), "trace must not be empty");
    for workers in [2, 4] {
        let (report, trace) = run_grid_traced(&grid, workers);
        assert_eq!(report.jobs, base_report.jobs, "{workers} workers");
        assert_eq!(
            events_to_jsonl(&trace.events),
            base_events,
            "serialized trace diverged on {workers} workers"
        );
        assert_eq!(
            trace.metrics.to_jsonl(),
            base_metrics,
            "serialized metrics diverged on {workers} workers"
        );
    }
}

#[test]
fn trace_and_metrics_schemas_round_trip_byte_identically() {
    let (_, trace) = run_grid_traced(&paper_grid(), 2);

    let jsonl = events_to_jsonl(&trace.events);
    let parsed = parse_events_jsonl(&jsonl).expect("trace JSONL parses back");
    assert_eq!(parsed, trace.events, "events round-trip structurally");
    assert_eq!(
        events_to_jsonl(&parsed),
        jsonl,
        "trace serialization is byte-stable across a round trip"
    );

    let metrics = MetricsRegistry::from_trace(&parsed);
    assert_eq!(metrics, trace.metrics, "metrics round-trip structurally");
    assert_eq!(
        metrics.to_jsonl(),
        trace.metrics.to_jsonl(),
        "metrics serialization is byte-stable across a round trip"
    );
}

#[test]
fn traced_facade_run_matches_untraced_results() {
    // Attaching telemetry must never perturb simulation results.
    let plain = run_simulation(SimConfig::small(PolicySpec::Online { v: None }));
    let (traced, events) = run_simulation_traced(SimConfig::small(PolicySpec::Online { v: None }));
    assert_eq!(
        plain.total_energy_j.to_bits(),
        traced.total_energy_j.to_bits()
    );
    assert_eq!(plain.total_updates, traced.total_updates);
    assert!(!events.is_empty());
    // The summary renderer gives a human-readable view of the same stream.
    let text = summarize_trace(&events);
    assert!(
        text.contains("events"),
        "summary mentions the stream: {text}"
    );
}
