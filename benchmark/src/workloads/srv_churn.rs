//! `srv-churn`: the in-process server soak — the session and control plane.
//! Hundreds of thousands of 8-float frames, admission refusals, heartbeat
//! expiry sweeps.

use std::hint::black_box;

use fedco_core::scenario::ScenarioSpec;
use fedco_neural::model::ParamVector;
use fedco_server::{
    run_in_process, FleetDriverConfig, Message, ServerCore, ServerCoreConfig, SessionConfig,
    SessionRegistry,
};

use super::srv_model::wire_update;
use super::{seconds_per_call, Cx, PassOutcome, Size};
use crate::stats::Digest;

fn scenario(size: Size, seed: u64) -> String {
    format!(
        "{}:seed={seed}",
        size.pick("server-soak:users=7500", "server-soak:users=60:slots=200")
    )
}

fn driver_config(scenario: &str) -> Result<FleetDriverConfig, String> {
    let spec: ScenarioSpec = scenario
        .parse()
        .map_err(|e| format!("scenario `{scenario}`: {e}"))?;
    Ok(FleetDriverConfig::from_scenario(&spec))
}

/// One pass: one driver run against an in-process core.
pub fn pass(cx: &mut Cx<'_>) -> Result<PassOutcome, String> {
    let scenario = scenario(cx.size, cx.seed);
    let open = cx.tracer.enter("pass");

    // Set-up is the config and a core built from it, as `run_in_process`
    // builds its own first thing.
    let setup = cx.tracer.enter("server.config");
    let config = driver_config(&scenario).map(|config| {
        black_box(ServerCore::new(config.server_config()));
        config
    });
    let setup_s = cx.tracer.exit(setup);
    let config = config?;

    let run = cx.tracer.enter("server.run_in_process");
    let outcome = run_in_process(&config);
    cx.tracer.exit(run);
    let wall_s = cx.tracer.exit(open);
    let (report, events) = outcome.map_err(|e| format!("run_in_process: {e}"))?;

    let counters = report.server;
    let mut digest = Digest::default();
    digest.word(report.model_checksum);
    digest.word(report.final_version);
    for count in [
        report.joins_attempted,
        report.pushes_sent,
        counters.joins_accepted,
        counters.joins_rejected,
        counters.expired,
        counters.pushes_applied,
        counters.pushes_refused,
        events.len() as u64,
    ] {
        digest.word(count);
    }
    // Every join is answered one way or the other, and the driver really
    // drove the fleet.
    let consistent = counters.joins_accepted + counters.joins_rejected == report.joins_attempted
        && report.ticks == config.ticks
        && report.pushes_sent > 0;

    let s = &mut *cx.samples;
    s.push(
        "server.churn.joins_attempted",
        report.joins_attempted as f64,
    );
    s.push(
        "server.churn.joins_rejected",
        counters.joins_rejected as f64,
    );
    s.push("server.churn.pushes_sent", report.pushes_sent as f64);
    s.push(
        "server.churn.pushes_refused",
        counters.pushes_refused as f64,
    );
    s.push("server.churn.sessions_expired", counters.expired as f64);
    s.push(
        "server.churn.useful_push_ratio",
        counters.pushes_applied as f64 / (report.pushes_sent as f64).max(1.0),
    );
    Ok(PassOutcome {
        wall_s,
        setup_s,
        ops: 1,
        ops_failed: u64::from(!consistent),
        digest: digest.value(),
        child_peak_rss_mib: None,
    })
}

/// Fixed-input probes of the control plane: a small frame through the codec,
/// a session's life in the registry, and an expiry sweep over a full house.
pub fn probes(cx: &mut Cx<'_>) -> Result<(), String> {
    let config = driver_config(&scenario(cx.size, cx.seed))?;
    let iters = cx.size.pick(100_000u32, 1_000);

    let small = Message::PushUpdate {
        session: 7,
        update: wire_update(7, 3, vec![0.5; config.model_len]),
    };
    let mut undecodable = 0u32;
    let frame_s = seconds_per_call(iters, 7, || {
        let frame = black_box(&small).to_frame();
        undecodable += u32::from(Message::from_frame(&frame).is_err());
    });
    if undecodable > 0 {
        return Err("codec probe: a frame the codec wrote did not decode".to_string());
    }

    let session_config = SessionConfig {
        heartbeat_timeout_ticks: config.heartbeat_timeout_ticks,
        max_sessions: config.max_sessions,
    };
    let mut registry = SessionRegistry::new(session_config);
    let mut refused = 0u32;
    let mut client = 0u64;
    let join_leave_s = seconds_per_call(iters, 7, || {
        client += 1;
        match registry.join(client, 0, 0) {
            Ok(session) => {
                registry.leave(session);
            }
            Err(_) => refused += 1,
        }
    });
    if refused > 0 {
        return Err("session probe: an empty registry refused a join".to_string());
    }

    // A tick over a full house: every session is live, none is due, so the
    // sweep looks at all of them and expires nothing.
    let mut core = ServerCore::new(ServerCoreConfig {
        session: SessionConfig {
            heartbeat_timeout_ticks: u64::MAX / 2,
            max_sessions: config.max_sessions,
        },
        ..ServerCoreConfig::inline_with_model(ParamVector::zeros(config.model_len))
    });
    for client in 0..config.max_sessions as u64 {
        core.handle(Message::Hello { client });
    }
    if core.live_sessions() != config.max_sessions {
        return Err("tick probe: the core did not admit a full house".to_string());
    }
    let tick_s = seconds_per_call(cx.size.pick(2_000, 50), 7, || core.advance_tick());

    let s = &mut *cx.samples;
    s.push("server.codec.small_frame_ns", frame_s * 1e9);
    s.push("server.session.join_leave_ns", join_leave_s * 1e9);
    s.push("server.core.tick_us", tick_s * 1e6);
    Ok(())
}
