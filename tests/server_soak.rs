//! The churn-heavy in-process soak: the `server-soak` scenario drives a
//! 1200-device fleet through ≥1000 accepted sessions with join rejections,
//! heartbeat expiries and backpressure refusals — and the whole run,
//! including the server's telemetry stream, is **byte-identical** across
//! repeats. This is the determinism acceptance gate for the service stack.
//! The goldens pin what those runs produce: the preset at seeds 42 and 7, the
//! 7 500-device fleet `srv-churn` drives, and a queue far longer than its
//! drain, where graceful leavers still hold queued updates.

use fedco::prelude::*;
use fedco::server::driver::{run_in_process, FleetDriverConfig};

fn soak_config() -> FleetDriverConfig {
    let spec = ScenarioSpec::preset("server-soak").expect("registry preset");
    FleetDriverConfig::from_scenario(&spec)
}

#[test]
fn server_soak_churns_hard_and_is_byte_identical_across_runs() {
    let cfg = soak_config();
    let (report_a, events_a) = run_in_process(&cfg).expect("soak run A");
    let (report_b, events_b) = run_in_process(&cfg).expect("soak run B");

    // Determinism: identical reports, and identical *serialized* telemetry
    // — the same bytes `fedco-trace diff` would compare.
    assert_eq!(report_a, report_b, "soak reports diverged between runs");
    let jsonl_a = events_to_jsonl(&events_a);
    let jsonl_b = events_to_jsonl(&events_b);
    assert_eq!(jsonl_a, jsonl_b, "server telemetry diverged between runs");
    assert!(!events_a.is_empty(), "soak must emit server telemetry");

    // Churn coverage: every admission/eviction/shedding path fired.
    let c = &report_a.server;
    assert!(
        c.joins_accepted >= 1000,
        "want >= 1000 accepted sessions, got {}",
        c.joins_accepted
    );
    assert!(c.joins_rejected > 0, "no join rejections: {c:?}");
    assert!(c.expired > 0, "no heartbeat expiries: {c:?}");
    assert!(
        report_a.backpressure_seen > 0,
        "no backpressure refusals: {report_a:?}"
    );
    assert!(c.pushes_refused > 0, "no refused pushes: {c:?}");
    assert!(c.pushes_applied > 0, "no applied pushes: {c:?}");
    assert!(c.left > 0, "no clean leaves: {c:?}");
    assert!(
        report_a.final_version > 0,
        "model never advanced: {report_a:?}"
    );

    // The trace carries every server event kind the churn implies.
    for kind in [
        "join-accepted",
        "join-rejected",
        "session-expired",
        "push-applied",
        "push-refused",
    ] {
        assert!(
            events_a.iter().any(|e| e.kind.name() == kind),
            "missing `{kind}` in the soak trace"
        );
    }
}

#[test]
fn world_churn_flows_from_scenario_into_the_soak_counters() {
    // A scenario-level `churn=` override reaches the driver through
    // `from_scenario`, and the resulting outages are world-driven: the
    // devices drop their sessions at seeded intervals, the heartbeat sweep
    // evicts the corpses, and the whole run stays byte-identical.
    let spec: ScenarioSpec = "server-soak:users=300:slots=600:churn=heavy"
        .parse()
        .expect("soak spec with churn override");
    let cfg = FleetDriverConfig::from_scenario(&spec);
    let (report_a, events_a) = run_in_process(&cfg).expect("churny soak A");
    let (report_b, events_b) = run_in_process(&cfg).expect("churny soak B");
    assert_eq!(report_a, report_b, "world churn broke soak determinism");
    assert_eq!(events_to_jsonl(&events_a), events_to_jsonl(&events_b));
    assert!(
        report_a.world_dropouts > 0,
        "heavy world churn never dropped a session: {report_a:?}"
    );
    assert!(
        report_a.server.expired > 0,
        "world dropouts must surface as heartbeat expiries: {report_a:?}"
    );
    assert!(report_a.render().contains("world_dropouts="));

    // The same scenario with churn off reports zero world dropouts — the
    // counters separate world-driven churn from the driver's own RNG churn.
    let calm_spec: ScenarioSpec = "server-soak:users=300:slots=600"
        .parse()
        .expect("soak spec without churn");
    let calm = FleetDriverConfig::from_scenario(&calm_spec);
    let (calm_report, _) = run_in_process(&calm).expect("calm soak");
    assert_eq!(calm_report.world_dropouts, 0);
}

/// FNV-1a over `report.render()` followed by `events_to_jsonl(&events)`: the
/// report, the model checksum and every server event of one in-process run.
fn soak_hash(cfg: &FleetDriverConfig) -> u64 {
    let (report, events) = run_in_process(cfg).expect("soak run");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in report
        .render()
        .bytes()
        .chain(events_to_jsonl(&events).bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn scenario_config(spec: &str) -> FleetDriverConfig {
    let spec: ScenarioSpec = spec.parse().expect("soak spec");
    FleetDriverConfig::from_scenario(&spec)
}

#[test]
fn server_soak_preset_reproduces_its_golden() {
    // The preset runs at seed 42.
    let specs = ["server-soak", "server-soak:seed=7"];
    let got = specs.map(|spec| soak_hash(&scenario_config(spec)));
    assert_eq!(
        got,
        [0xd945_6daa_5072_0d2f, 0x64cc_9926_d6a8_55ca],
        "{specs:?}: {got:#018x?}"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "seconds without optimisation; ci.sh runs it in --release"
)]
fn server_soak_at_7500_devices_reproduces_its_golden() {
    let got = soak_hash(&scenario_config("server-soak:users=7500:seed=42"));
    assert_eq!(got, 0x4e80_91af_af43_d710, "{got:#018x}");
}

#[test]
fn a_queue_longer_than_its_drain_reproduces_its_golden() {
    // 64 queued updates drained one a tick: an update waits far longer than
    // a device lingers, so most graceful leavers still hold queued work.
    let cfg = FleetDriverConfig {
        devices: 400,
        ticks: 600,
        arrival_p: 0.05,
        seed: 42,
        model_len: 8,
        max_sessions: 96,
        queue_capacity: 64,
        drain_per_tick: 1,
        heartbeat_timeout_ticks: 12,
        churn: ChurnSpec::Off,
    };
    let got = soak_hash(&cfg);
    assert_eq!(got, 0xe335_82d7_7c9c_867c, "{got:#018x}");
}

#[test]
fn soak_is_seed_sensitive() {
    // The byte-stability above is meaningful only if the run actually
    // depends on the seed — a constant trace would pass it vacuously.
    let cfg = soak_config();
    let other = FleetDriverConfig {
        seed: cfg.seed + 1,
        ..cfg.clone()
    };
    let (a, _) = run_in_process(&cfg).expect("base seed");
    let (b, _) = run_in_process(&other).expect("other seed");
    assert_ne!(a.model_checksum, b.model_checksum, "seed had no effect");
}
