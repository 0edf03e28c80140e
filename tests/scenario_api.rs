//! Acceptance tests for the declarative scenario API: every built-in
//! preset — and scenarios parsed from a scenario file — must produce
//! **bit-identical** results to the equivalent hand-built `SimConfig`, the
//! `spec → label → parse` round-trip must be exact, and the whole registry
//! must build valid configurations for each of the paper's policies.

use fedco::core::scenario::FIELD_KEYS;
use fedco::prelude::*;

/// Scaled-down overrides so a full-registry scan stays fast.
fn scaled(spec: &ScenarioSpec) -> ScenarioSpec {
    spec.clone().with_users(4).with_slots(400)
}

#[test]
fn every_preset_builds_the_equivalent_hand_built_config() {
    // The two presets with documented hand-built equivalents are equal as
    // whole structs, so every run of them is trivially bit-identical.
    for kind in PolicySpec::PAPER {
        assert_eq!(
            ScenarioSpec::preset("paper-default")
                .expect("preset")
                .build_with_policy(kind.clone())
                .expect("builds"),
            SimConfig::paper_default(kind.clone())
        );
        assert_eq!(
            ScenarioSpec::preset("smoke")
                .expect("preset")
                .build_with_policy(kind.clone())
                .expect("builds"),
            SimConfig::small(kind)
        );
    }
}

#[test]
fn registry_wide_build_validity_across_policies() {
    for spec in ScenarioSpec::default_registry() {
        for policy in PolicySpec::PAPER {
            let config = spec
                .build_with_policy(policy.clone())
                .unwrap_or_else(|e| panic!("{} x {policy}: {e}", spec.label()));
            assert!(config.validate().is_ok(), "{} x {policy}", spec.label());
            assert_eq!(config.policy.label(), policy.label());
        }
    }
}

#[test]
fn preset_runs_are_bit_identical_to_hand_built_configs() {
    // A declarative spec is nothing but a construction path: running its
    // built config must give the same bits as running a config assembled
    // by hand, field by field.
    let spec = scaled(&ScenarioSpec::preset("lte-uplink").expect("preset"));
    let declarative = run_simulation(
        spec.build_with_policy(PolicySpec::Online { v: None })
            .expect("builds")
            .summary_only(),
    );
    let hand_built = {
        let mut config = SimConfig::paper_default(PolicySpec::Online { v: None }).summary_only();
        config.num_users = 4;
        config.total_slots = 400;
        config.link = LinkKind::Lte;
        run_simulation(config)
    };
    assert_eq!(
        declarative.total_energy_j.to_bits(),
        hand_built.total_energy_j.to_bits()
    );
    assert_eq!(declarative.total_updates, hand_built.total_updates);
    assert_eq!(
        declarative.mean_lag.to_bits(),
        hand_built.mean_lag.to_bits()
    );
    assert_eq!(
        declarative.mean_queue.to_bits(),
        hand_built.mean_queue.to_bits()
    );

    // The same holds for a device-mix preset against an explicit list.
    let hetero = scaled(&ScenarioSpec::preset("hetero-devices").expect("preset"));
    let declarative = run_simulation(
        hetero
            .build_with_policy(PolicySpec::Offline)
            .expect("builds")
            .summary_only(),
    );
    let hand_built = {
        let mut config = SimConfig::paper_default(PolicySpec::Offline).summary_only();
        config.num_users = 4;
        config.total_slots = 400;
        config.devices = DeviceAssignment::Custom(vec![
            DeviceKind::Pixel2,
            DeviceKind::Pixel2,
            DeviceKind::Pixel2,
            DeviceKind::Nexus6,
            DeviceKind::Nexus6P,
            DeviceKind::Hikey970,
        ]);
        run_simulation(config)
    };
    assert_eq!(
        declarative.total_energy_j.to_bits(),
        hand_built.total_energy_j.to_bits()
    );
    assert_eq!(declarative.total_updates, hand_built.total_updates);
}

#[test]
fn parsed_scenario_file_runs_bit_identical_to_hand_built_config() {
    let text = "\
# an experiment catalogue checked into the repo
busy-lte-phones = smoke:users=5:slots=500:arrival_p=0.01:devices=pixel2:link=lte:v=1000
";
    let specs = parse_scenario_file(text).expect("parses");
    assert_eq!(specs.len(), 1);
    assert_eq!(specs[0].label(), "busy-lte-phones");
    let declarative = run_simulation(
        specs[0]
            .build_with_policy(PolicySpec::Online { v: None })
            .expect("builds")
            .summary_only(),
    );
    let hand_built = {
        let mut config = SimConfig::small(PolicySpec::Online { v: None }).summary_only();
        config.scheduler.v = 1000.0;
        config.num_users = 5;
        config.total_slots = 500;
        config.arrival_probability = 0.01;
        config.devices = DeviceAssignment::Uniform(DeviceKind::Pixel2);
        config.link = LinkKind::Lte;
        run_simulation(config)
    };
    assert_eq!(
        declarative.total_energy_j.to_bits(),
        hand_built.total_energy_j.to_bits()
    );
    assert_eq!(declarative.total_updates, hand_built.total_updates);
    assert_eq!(
        declarative.mean_lag.to_bits(),
        hand_built.mean_lag.to_bits()
    );
    assert_eq!(
        declarative.mean_virtual_queue.to_bits(),
        hand_built.mean_virtual_queue.to_bits()
    );
}

#[test]
fn checked_in_scenario_file_is_named_specs_that_build() {
    // Each entry of the example catalogue is its SPEC parsed and then
    // named NAME, and holds a valid config.
    let text = include_str!("../examples/scenarios.conf");
    let specs = parse_scenario_file(text).expect("parses");
    let lines: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .collect();
    assert_eq!(specs.len(), lines.len());
    for (spec, line) in specs.iter().zip(lines) {
        let (name, spec_text) = line.split_once('=').expect("NAME = SPEC");
        let expected = spec_text
            .parse::<ScenarioSpec>()
            .expect("SPEC parses")
            .named(name.trim());
        assert_eq!(spec, &expected, "{line}");
        assert!(spec.build().is_ok(), "{line}");
    }
}

#[test]
fn registry_labels_round_trip_with_overrides() {
    // spec → label → parse → identical label, for every preset and a
    // representative override mix on top of each.
    for spec in ScenarioSpec::default_registry() {
        let reparsed: ScenarioSpec = spec.label().parse().expect("label parses");
        assert_eq!(reparsed.label(), spec.label());
        assert_eq!(reparsed, spec);

        let mut tweaked = spec.with_users(9).with_arrival_p(0.25);
        tweaked.set("link", "wifi").expect("valid link");
        tweaked.set("traces", "off").expect("valid flag");
        let reparsed: ScenarioSpec = tweaked.label().parse().expect("label parses");
        assert_eq!(reparsed.label(), tweaked.label());
        assert_eq!(reparsed, tweaked);
        // And the two construction paths agree exactly.
        assert_eq!(
            reparsed.build().expect("builds"),
            tweaked.build().expect("builds")
        );
    }
}

#[test]
fn field_errors_name_the_offending_token() {
    // Unknown keys, duplicate keys and out-of-range values all name the
    // field (the satellite contract of the parser).
    let err = "smoke:warp=1"
        .parse::<ScenarioSpec>()
        .unwrap_err()
        .to_string();
    assert!(err.contains("`warp`"), "{err}");
    let err = "smoke:users=2:users=3"
        .parse::<ScenarioSpec>()
        .unwrap_err()
        .to_string();
    assert!(err.contains("duplicate scenario field `users`"), "{err}");
    let err = "smoke:arrival_p=2"
        .parse::<ScenarioSpec>()
        .unwrap_err()
        .to_string();
    assert!(err.contains("arrival_p=2"), "{err}");
    assert!(err.contains("[0, 1]"), "{err}");
}

#[test]
fn scale_presets_are_registered_with_pinned_shapes() {
    // The million-user engine ships two scale presets: `city-scale`
    // (>= 100k users) and `mega` (one million users). Their shapes are
    // pinned, they build valid (summary-only) configs for every registry
    // policy, and their labels round-trip.
    let city = ScenarioSpec::preset("city-scale").expect("registered preset");
    assert!(city.users() >= 100_000, "city-scale is at least 100k users");
    assert_eq!(city.users(), 120_000);
    assert_eq!(city.slots(), 3600);
    assert!(!city.traces(), "scale presets are summary-only");

    let mega = ScenarioSpec::preset("mega").expect("registered preset");
    assert_eq!(mega.users(), 1_000_000, "mega is the million-user preset");
    assert_eq!(mega.slots(), 10_800);
    assert!(!mega.traces(), "scale presets are summary-only");

    for name in ["city-scale", "mega"] {
        let spec = ScenarioSpec::preset(name).expect("registered preset");
        assert!(
            ScenarioSpec::default_registry()
                .iter()
                .any(|s| s.name() == name),
            "{name} missing from the default registry"
        );
        let reparsed: ScenarioSpec = spec.label().parse().expect("label parses");
        assert_eq!(reparsed, spec);
        for policy in PolicySpec::PAPER {
            let config = spec.build_with_policy(policy.clone()).expect("builds");
            assert!(config.validate().is_ok(), "{name} x {policy:?}");
            assert!(!config.collect_traces, "{name} builds summary-only");
        }
    }
}

#[test]
fn shards_field_is_gone_and_rejected_loudly() {
    // `shards` and every field deleted after it, and why. A stale one must
    // fail by name and list what *is* settable.
    const REMOVED: [(&str, &str); 2] = [
        // In-simulation sharding: parallelism is across jobs
        // (`fleet_sweep --workers`).
        ("shards", "2"),
        // Decision energy off: a policy's Table III overhead is always
        // charged (`SchedulingPolicy::decision_energy_overhead`).
        ("overhead", "off"),
    ];
    assert_eq!(FIELD_KEYS.len(), 17);
    for (key, value) in REMOVED {
        assert!(!FIELD_KEYS.contains(&key));
        let err = format!("smoke:{key}={value}")
            .parse::<ScenarioSpec>()
            .unwrap_err()
            .to_string();
        assert!(
            err.contains(&format!("unknown scenario field `{key}`")),
            "{err}"
        );
        for valid in FIELD_KEYS {
            assert!(err.contains(valid), "{valid} missing from: {err}");
        }
    }
}

#[test]
fn absurd_user_counts_are_rejected_before_any_allocation() {
    // Both ways into a fleet size stop at `SimConfig::MAX_USERS`: the
    // scenario field names itself and the limit...
    let err = "smoke:users=99999999999999"
        .parse::<ScenarioSpec>()
        .unwrap_err()
        .to_string();
    assert!(err.contains("users=99999999999999"), "{err}");
    assert!(err.contains("MAX_USERS = 10000000"), "{err}");
    // ...and so does a hand-built (or builder-built) config.
    let mut config = SimConfig::small(PolicySpec::Online { v: None });
    config.num_users = SimConfig::MAX_USERS + 1;
    let expected = ConfigError::TooManyUsers(SimConfig::MAX_USERS + 1);
    assert_eq!(config.validate(), Err(expected.clone()));
    assert_eq!(Simulation::try_new(config).err(), Some(expected.clone()));
    assert!(expected.to_string().contains("num_users"), "{expected}");
    assert!(expected.to_string().contains("MAX_USERS"), "{expected}");
    let built = ScenarioSpec::preset("smoke")
        .expect("preset")
        .with_users(SimConfig::MAX_USERS + 1)
        .build();
    assert_eq!(built.err(), Some(expected));
    // The bound itself is accepted.
    config = SimConfig::small(PolicySpec::Online { v: None });
    config.num_users = SimConfig::MAX_USERS;
    assert!(config.validate().is_ok());
}

#[test]
fn absurd_horizons_are_rejected_before_any_allocation() {
    // The arrival index and the deadline calendar hold an entry per slot,
    // and the arrival generator draws per slot: both ways into a horizon
    // stop at `SimConfig::MAX_SLOTS` before either is sized.
    let err = "smoke:users=1:slots=99999999999999"
        .parse::<ScenarioSpec>()
        .unwrap_err()
        .to_string();
    assert!(err.contains("slots=99999999999999"), "{err}");
    assert!(err.contains("MAX_SLOTS = 10000000"), "{err}");
    let mut config = SimConfig::small(PolicySpec::Online { v: None });
    config.total_slots = SimConfig::MAX_SLOTS + 1;
    let expected = ConfigError::TooManySlots(SimConfig::MAX_SLOTS + 1);
    assert_eq!(config.validate(), Err(expected.clone()));
    assert_eq!(Simulation::try_new(config).err(), Some(expected.clone()));
    assert!(expected.to_string().contains("total_slots"), "{expected}");
    assert!(expected.to_string().contains("MAX_SLOTS"), "{expected}");
    let built = ScenarioSpec::preset("smoke")
        .expect("preset")
        .with_slots(SimConfig::MAX_SLOTS + 1)
        .build();
    assert_eq!(built.err(), Some(expected));
    // The bound itself is accepted.
    config = SimConfig::small(PolicySpec::Online { v: None });
    config.total_slots = SimConfig::MAX_SLOTS;
    assert!(config.validate().is_ok());
}

#[test]
fn an_absurd_staleness_budget_plans_without_a_table() {
    // `lb=` is only checked finite and non-negative, and the offline planner
    // used to size its DP table from it: `paper-default:lb=1e13` aborted in
    // the allocator. A budget beyond the candidates' summed gap units needs
    // no DP at all, so the two budgets below plan — and run — alike.
    let run = |scenario: &str| {
        let spec: ScenarioSpec = scenario.parse().expect("parses");
        run_simulation(spec.build_with_policy(PolicySpec::Offline).expect("builds"))
    };
    assert_eq!(run("paper-default:lb=1e13"), run("paper-default:lb=1e6"));
}

#[test]
fn vanishing_slot_lengths_are_rejected_at_both_entry_points() {
    // `smoke:slot_seconds=1e-300` used to be accepted: the clock clamped the
    // slot to 1e-9 s for durations while energy accrued on 1e-300 s. Both
    // ways into a slot length now stop at `SimConfig::MIN_SLOT_SECONDS`.
    let err = "smoke:slot_seconds=1e-300"
        .parse::<ScenarioSpec>()
        .unwrap_err()
        .to_string();
    assert!(err.contains("slot_seconds=1e-300"), "{err}");
    assert!(err.contains("MIN_SLOT_SECONDS = 1e-9"), "{err}");
    let mut config = SimConfig::small(PolicySpec::Online { v: None });
    config.scheduler.slot_seconds = 1e-300;
    let expected = ConfigError::NonPositiveSlotSeconds(1e-300);
    assert_eq!(config.validate(), Err(expected.clone()));
    assert_eq!(Simulation::try_new(config).err(), Some(expected.clone()));
    assert!(expected.to_string().contains("slot_seconds"), "{expected}");
    assert!(expected.to_string().contains("MIN_SLOT_SECONDS = 1e-9"));
    // The floor itself is accepted, and the engine's clock runs on it.
    let floor: ScenarioSpec = "smoke:slots=50:slot_seconds=1e-9".parse().expect("parses");
    let config = floor.build().expect("builds");
    assert_eq!(config.scheduler.slot_seconds, SimConfig::MIN_SLOT_SECONDS);
    assert!(run_simulation(config).total_energy_j > 0.0);
}

#[test]
fn world_presets_are_registered_and_round_trip() {
    // The four world presets are first-class registry members: pinned
    // shapes, label round-trips, and valid builds for every policy.
    for name in [
        "diurnal-day",
        "flash-crowd",
        "battery-constrained",
        "compressed-uplink",
    ] {
        let spec = ScenarioSpec::preset(name).expect("registered preset");
        assert!(
            ScenarioSpec::default_registry()
                .iter()
                .any(|s| s.name() == name),
            "{name} missing from the default registry"
        );
        let reparsed: ScenarioSpec = spec.label().parse().expect("label parses");
        assert_eq!(reparsed, spec, "{name} label does not round-trip");
        for policy in PolicySpec::PAPER {
            let config = spec.build_with_policy(policy.clone()).expect("builds");
            assert!(config.validate().is_ok(), "{name} x {policy:?}");
            assert!(
                !config.world.is_paper_default(),
                "{name} must carry non-default world dynamics"
            );
        }
    }

    // Preset shapes: each preset turns on exactly its advertised dynamics.
    let diurnal = ScenarioSpec::preset("diurnal-day").expect("preset");
    assert_eq!(diurnal.arrival(), ArrivalSpec::Diurnal);
    assert_eq!(diurnal.battery(), BatterySpec::Off);
    let crowd = ScenarioSpec::preset("flash-crowd").expect("preset");
    assert_eq!(crowd.arrival(), ArrivalSpec::FlashCrowd);
    let constrained = ScenarioSpec::preset("battery-constrained").expect("preset");
    assert_eq!(constrained.battery(), BatterySpec::Constrained);
    assert_eq!(constrained.churn(), ChurnSpec::Light);
    let compressed = ScenarioSpec::preset("compressed-uplink").expect("preset");
    assert_eq!(compressed.compress(), CompressionSpec::Ratio(0.25));
    assert_eq!(compressed.link(), LinkKind::Lte);
}

#[test]
fn world_fields_parse_build_and_round_trip() {
    // Every world field key is settable in one spec, survives the
    // spec -> label -> parse round-trip, and lands in the built config.
    let spec: ScenarioSpec = "smoke:arrival=mmpp:battery=standard:churn=heavy:compress=0.5"
        .parse()
        .expect("world overrides parse");
    assert_eq!(spec.arrival(), ArrivalSpec::Mmpp);
    assert_eq!(spec.battery(), BatterySpec::Standard);
    assert_eq!(spec.churn(), ChurnSpec::Heavy);
    assert_eq!(spec.compress(), CompressionSpec::Ratio(0.5));
    let reparsed: ScenarioSpec = spec.label().parse().expect("label parses");
    assert_eq!(reparsed, spec);

    let config = spec
        .build_with_policy(PolicySpec::Online { v: None })
        .expect("builds");
    assert!(!config.world.is_paper_default());
    assert_eq!(config.world.battery, BatterySpec::Standard);
    assert_eq!(config.world.churn, ChurnSpec::Heavy);
    assert_eq!(config.world.compression, CompressionSpec::Ratio(0.5));

    // `set` records the same labels the parser accepts.
    let mut built = ScenarioSpec::preset("smoke").expect("preset");
    built.set("arrival", "flash-crowd").expect("valid model");
    built.set("churn", "light").expect("valid model");
    assert_eq!(
        built.label().parse::<ScenarioSpec>().expect("parses"),
        built
    );

    // A preset field can be overridden back to `off`.
    let plain: ScenarioSpec = "compressed-uplink:compress=off"
        .parse()
        .expect("override parses");
    assert_eq!(plain.compress(), CompressionSpec::Off);

    // Bad values name the offending token.
    for (field, bad) in [
        ("arrival", "smoke:arrival=warp"),
        ("battery", "smoke:battery=nuclear"),
        ("churn", "smoke:churn=extreme"),
        ("compress", "smoke:compress=2"),
    ] {
        let err = bad.parse::<ScenarioSpec>().unwrap_err().to_string();
        assert!(
            err.contains(field),
            "`{bad}` error does not name `{field}`: {err}"
        );
    }
}

#[test]
fn server_soak_preset_is_registered_and_round_trips() {
    // The churn-heavy service-soak scenario is a first-class preset: it is
    // in the registry, its shape is pinned, and its label survives the
    // spec -> label -> parse round-trip (with overrides, the syntax the
    // fedco-drive binary accepts).
    let spec = ScenarioSpec::preset("server-soak").expect("registered preset");
    assert!(
        ScenarioSpec::default_registry()
            .iter()
            .any(|s| s.name() == "server-soak"),
        "server-soak missing from the default registry"
    );
    assert_eq!(spec.users(), 1200);
    assert_eq!(spec.slots(), 1200);
    assert_eq!(spec.arrival_p(), 0.02);
    assert_eq!(spec.label(), "server-soak");

    let reparsed: ScenarioSpec = spec.label().parse().expect("label parses");
    assert_eq!(reparsed, spec);

    let scaled: ScenarioSpec = "server-soak:users=30:slots=120"
        .parse()
        .expect("override syntax parses");
    assert_eq!(scaled.users(), 30);
    assert_eq!(scaled.slots(), 120);
    assert_eq!(
        scaled.arrival_p(),
        0.02,
        "non-overridden fields keep preset values"
    );
    let relabeled: ScenarioSpec = scaled.label().parse().expect("scaled label parses");
    assert_eq!(relabeled, scaled);
}
