//! World-off regression gate.
//!
//! With `fedco-world` wired through the engine, the paper-default
//! configuration — `arrival=bernoulli`, battery, churn and compression all
//! off — must reproduce the pre-world engine **bit for bit**: result
//! scalars, the serialized telemetry stream, and the ML-mode model bits.
//! The golden constants below were captured on the commit immediately
//! before the world subsystem landed; if any of these assertions fires, the
//! paper-default world is no longer the identity.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fedco::fl::service::ModelService;
use fedco::fl::staleness::Lag;
use fedco::neural::tensor::TensorError;
use fedco::prelude::*;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn paper_default_world_reproduces_pre_world_goldens() {
    // (policy, energy bits, updates, mean-queue bits, max lag) captured
    // pre-world on `Simulation::run`.
    let goldens = [
        (
            PolicySpec::Online { v: None },
            0x411b_05b1_4395_809e_u64,
            821_u64,
            0x40b7_1e79_3882_7716_u64,
            434_u64,
        ),
        (PolicySpec::Immediate, 0x4129_ad54_23d7_0893, 1189, 0, 108),
        (PolicySpec::SyncSgd, 0x411e_824a_4083_1293, 18, 0, 0),
    ];
    for (kind, energy_bits, updates, queue_bits, max_lag) in goldens {
        let config = SimConfig::paper_default(kind.clone());
        assert!(
            config.world.is_paper_default(),
            "paper_default must carry the paper-default world"
        );
        let result = run_simulation(config);
        assert_eq!(
            result.total_energy_j.to_bits(),
            energy_bits,
            "energy bits drifted for {kind:?}"
        );
        assert_eq!(
            result.total_updates, updates,
            "updates drifted for {kind:?}"
        );
        assert_eq!(
            result.mean_queue.to_bits(),
            queue_bits,
            "mean-queue bits drifted for {kind:?}"
        );
        assert_eq!(result.max_lag, max_lag, "max lag drifted for {kind:?}");
    }
}

#[test]
fn paper_default_world_reproduces_the_pre_world_telemetry_stream() {
    let (result, events) =
        run_simulation_traced(SimConfig::paper_default(PolicySpec::Online { v: None }));
    assert_eq!(result.total_energy_j.to_bits(), 0x411b_05b1_4395_809e);
    // The stream that matters — every semantic event, in order. Captured at
    // the commit before span fast-forwarding was deleted, with this filter,
    // and unchanged by the deletion.
    let semantic: Vec<Event> = events
        .iter()
        .filter(|e| e.channel() == Channel::Semantic)
        .cloned()
        .collect();
    assert_eq!(semantic.len(), 2381, "semantic event count drifted");
    assert_eq!(
        fnv1a(events_to_jsonl(&semantic).as_bytes()),
        0xa1c2_65f6_6c09_0941,
        "serialized semantic telemetry drifted"
    );
    // The full stream adds the driver channel. Re-pinned (from 3917 events,
    // 0x2d30_d395_d4dd_ec78) when the fast-forward went: the 1536
    // `skip-span` / `dense-span` events that described what `run` skipped
    // became the one `dense-span` that closes a run stepping every slot.
    assert_eq!(events.len(), 2382, "event count drifted");
    assert_eq!(
        fnv1a(events_to_jsonl(&events).as_bytes()),
        0x4928_20a2_d3c5_9cf2,
        "serialized telemetry drifted"
    );
}

#[test]
fn paper_default_world_reproduces_pre_world_model_bits() {
    // An ML-mode run covers the model/accuracy bits too.
    let spec = ScenarioSpec::preset("ml-smoke").expect("preset");
    let config = spec
        .build_with_policy(PolicySpec::Online { v: None })
        .expect("builds");
    assert!(config.world.is_paper_default());
    let result = run_simulation(config);
    // Re-pinned once (from 0x40cd_63e8_1062_4db4 and 9 updates) when `V`
    // and `L_b` became per 25 devices: `ml-smoke` has 6.
    assert_eq!(result.total_energy_j.to_bits(), 0x40ce_ea36_e978_d483);
    assert_eq!(result.final_accuracy.map(f32::to_bits), Some(0x3daa_aaab));
    assert_eq!(result.total_updates, 15);
}

/// Forwards to the in-process server and counts the momentum-norm queries
/// and the downloads.
#[derive(Debug)]
struct CountingService {
    inner: ParameterServer,
    norm_queries: Arc<AtomicU64>,
    downloads: Arc<AtomicU64>,
}

impl ModelService for CountingService {
    fn download(&self) -> ModelSnapshot {
        self.downloads.fetch_add(1, Ordering::Relaxed);
        self.inner.download()
    }
    fn momentum_norm(&self) -> f32 {
        self.norm_queries.fetch_add(1, Ordering::Relaxed);
        self.inner.momentum_norm()
    }
    fn apply_async(&self, update: &LocalUpdate) -> Result<(Lag, ModelVersion), TensorError> {
        self.inner.apply_async(update)
    }
    fn apply_sync_round(&self, updates: &[LocalUpdate]) -> Result<ModelVersion, TensorError> {
        self.inner.apply_sync_round(updates)
    }
}

/// What a run on a [`CountingService`] leaves: the result, the final global
/// model, and the momentum-norm queries and downloads the run made.
struct CountedRun {
    result: SimResult,
    model: ModelSnapshot,
    norm_queries: u64,
    downloads: u64,
}

fn run_counted(config: SimConfig) -> CountedRun {
    let norm_queries = Arc::new(AtomicU64::new(0));
    let downloads = Arc::new(AtomicU64::new(0));
    let counters = (norm_queries.clone(), downloads.clone());
    let mut sim = Simulation::new(config).with_model_service(move |init| {
        Box::new(CountingService {
            inner: init.into_parameter_server(),
            norm_queries: counters.0,
            downloads: counters.1,
        })
    });
    let result = sim.run();
    let (norm_queries, downloads) = (
        norm_queries.load(Ordering::Relaxed),
        downloads.load(Ordering::Relaxed),
    );
    CountedRun {
        result,
        model: sim.model_snapshot(),
        norm_queries,
        downloads,
    }
}

#[test]
fn the_momentum_norm_is_asked_for_once_per_server_update() {
    // An O(params) pass in ML mode, a round trip on a remote service: the
    // engine holds the value until it next hands the server an update, so
    // 2000 slots of waiting users cost `total_updates + 1` queries at most —
    // and the run is the pinned `ml-smoke` run, bit for bit.
    let spec = ScenarioSpec::preset("ml-smoke").expect("preset");
    let config = spec
        .build_with_policy(PolicySpec::Online { v: None })
        .expect("builds");
    let slots = config.total_slots;
    let run = run_counted(config);
    assert_eq!(run.result.total_energy_j.to_bits(), 0x40ce_ea36_e978_d483);
    assert_eq!(run.result.total_updates, 15);
    assert!(
        (1..=run.result.total_updates + 1).contains(&run.norm_queries),
        "momentum_norm asked {} times over {slots} slots and {} updates",
        run.norm_queries,
        run.result.total_updates
    );
}

#[test]
fn the_model_is_downloaded_once_per_version() {
    // The engine keeps one copy of the global model and downloads it again
    // only after it applied an update or a round: every version is read, so
    // a run downloads exactly `total_updates + 1` times — a Sync-SGD run
    // once per round. (scenario, policy, downloads made by the engine that
    // downloaded at every read: per update, per requeued device and per
    // traced gap.)
    let runs = [
        ("paper-default", PolicySpec::Immediate, 3567),
        ("paper-default", PolicySpec::SyncSgd, 900),
        ("paper-default", PolicySpec::Offline, 501),
        ("paper-default", PolicySpec::Online { v: None }, 2463),
        ("mega:users=2000:slots=1200", PolicySpec::SyncSgd, 5989),
    ];
    for (scenario, policy, per_read) in runs {
        let spec: ScenarioSpec = scenario.parse().expect("parses");
        let config = spec.build_with_policy(policy.clone()).expect("builds");
        let run = run_counted(config);
        let updates = run.result.total_updates;
        assert!(updates > 0, "{scenario} under {policy:?} applies nothing");
        assert_eq!(
            run.downloads,
            updates + 1,
            "{scenario} under {policy:?}: {} downloads for {updates} updates (once per read: {per_read})",
            run.downloads
        );
    }
}

#[test]
fn a_swapped_in_service_matches_the_batch_run() {
    // The engine starts out holding the initial model it built the default
    // server from; the swap starts the count again at 0, so a held copy keyed
    // on that count alone would never download the new service's version 0.
    // Traced, the run reads version 0 again at its first evaluation, so the
    // new service sees `total_updates + 1` downloads (once per read, it saw
    // 23 under Online and 17 under Sync-SGD).
    let spec = ScenarioSpec::preset("ml-smoke").expect("preset");
    for policy in [PolicySpec::Online { v: None }, PolicySpec::SyncSgd] {
        let config = spec.build_with_policy(policy.clone()).expect("builds");
        let mut batch = Simulation::new(config.clone());
        let result = batch.run();
        let run = run_counted(config);
        assert_eq!(run.result, result, "{policy:?}");
        assert_eq!(run.model, batch.model_snapshot(), "{policy:?}");
        assert_eq!(run.downloads, result.total_updates + 1, "{policy:?}");
    }
}

/// Merges every update a second time, as another client of a shared server
/// would.
#[cfg(debug_assertions)]
#[derive(Debug)]
struct SecondWriter(ParameterServer);

#[cfg(debug_assertions)]
impl ModelService for SecondWriter {
    fn download(&self) -> ModelSnapshot {
        self.0.download()
    }
    fn momentum_norm(&self) -> f32 {
        self.0.momentum_norm()
    }
    fn apply_async(&self, update: &LocalUpdate) -> Result<(Lag, ModelVersion), TensorError> {
        self.0.apply_async(update)?;
        self.0.apply_async(update)
    }
    fn apply_sync_round(&self, updates: &[LocalUpdate]) -> Result<ModelVersion, TensorError> {
        self.0.apply_sync_round(updates)
    }
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "another writer moved the model")]
fn a_second_writer_is_caught_at_the_engines_next_apply() {
    // The held copy is current only while the engine is its service's one
    // writer; a version it did not make stops a debug run at once.
    let spec = ScenarioSpec::preset("ml-smoke").expect("preset");
    let config = spec
        .build_with_policy(PolicySpec::Online { v: None })
        .expect("builds");
    Simulation::new(config)
        .with_model_service(|init| Box::new(SecondWriter(init.into_parameter_server())))
        .run();
}

#[test]
fn compact_lenet_run_reproduces_the_pre_fast_kernel_bits() {
    // `ml-smoke` trains the tiny 12×12×1 net; this is the compact LeNet
    // (16×16×3) that Fig. 5 actually trains. Captured on the commit before
    // the contiguous conv kernels landed: a kernel that reorders one
    // reduction changes every constant below.
    let spec: ScenarioSpec = "paper-default:ml=full:slots=1200".parse().expect("parses");
    let config = spec
        .build_with_policy(PolicySpec::Online { v: None })
        .expect("builds");
    let mut sim = Simulation::new(config);
    let result = sim.run();
    let params = sim.model_snapshot().params;
    let bytes: Vec<u8> = params
        .values()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    assert_eq!(result.total_energy_j.to_bits(), 0x40e4_e2ef_ffff_ffde);
    assert_eq!(result.final_accuracy.map(f32::to_bits), Some(0x3e23_d70a));
    assert_eq!(result.total_updates, 60);
    assert_eq!(fnv1a(&bytes), 0x0d0e_16fc_a533_a46a, "global model drifted");
}

/// What a run's telemetry says about local epochs the world interrupted:
/// lower bounds, read off the semantic stream alone.
#[derive(Debug, Default)]
struct Interruptions {
    /// Epochs scheduled and never uploaded because the device went dark
    /// mid-training: a user scheduled twice with no merge (or closed round)
    /// of its own in between.
    aborted_mid_training: usize,
    /// Users that went dark while holding a downloaded model they had not
    /// started training on, and later came back for a fresh one.
    rejoined_after_waiting: usize,
    /// Updates that reached the server from a user one of whose earlier
    /// epochs was aborted: what carries a leaked optimiser state, if an
    /// aborted epoch leaves one, into the pinned model bits.
    uploads_after_an_abort: usize,
}

fn interruptions(events: &[Event], users: usize) -> Interruptions {
    let mut out = Interruptions::default();
    // Scheduled, and neither merged nor closed by a round since.
    let mut open_epoch = vec![false; users];
    let mut aborted_before = vec![false; users];
    let (mut dead, mut churned) = (vec![false; users], vec![false; users]);
    let mut dark_from_waiting = vec![false; users];
    for event in events {
        let world_flip = match &event.kind {
            EventKind::Schedule { user, .. } => {
                let u = *user as usize;
                out.aborted_mid_training += usize::from(open_epoch[u]);
                aborted_before[u] |= open_epoch[u];
                open_epoch[u] = true;
                None
            }
            EventKind::Merge { user, .. } => {
                let u = *user as usize;
                out.uploads_after_an_abort += usize::from(aborted_before[u]);
                open_epoch[u] = false;
                None
            }
            EventKind::Round { .. } => {
                // Whoever is scheduled and not dark when a round closes is
                // parked at its barrier: its update is in the round.
                for u in 0..users {
                    let in_round = open_epoch[u] && !dead[u] && !churned[u];
                    out.uploads_after_an_abort += usize::from(in_round && aborted_before[u]);
                    open_epoch[u] = false;
                }
                None
            }
            EventKind::BatteryDepleted { user, .. } => Some((*user as usize, Some(true), None)),
            EventKind::Recharged { user, .. } => Some((*user as usize, Some(false), None)),
            EventKind::UserChurned { user, offline } => {
                Some((*user as usize, None, Some(*offline)))
            }
            _ => None,
        };
        if let Some((u, battery, churn)) = world_flip {
            let was_dark = dead[u] || churned[u];
            dead[u] = battery.unwrap_or(dead[u]);
            churned[u] = churn.unwrap_or(churned[u]);
            let is_dark = dead[u] || churned[u];
            if !was_dark && is_dark && !open_epoch[u] {
                dark_from_waiting[u] = true;
            } else if was_dark && !is_dark && std::mem::take(&mut dark_from_waiting[u]) {
                out.rejoined_after_waiting += 1;
            }
        }
    }
    out
}

#[test]
fn ml_under_world_dynamics_reproduces_the_serial_training_bits() {
    // Real training with devices dying and churning mid-epoch. Captured on
    // the commit before local epochs moved off the slot-loop thread, where
    // every epoch ran inside `make_update` at its completion slot: an epoch
    // the world aborts must leave no trace in the client's optimiser, and a
    // device that rejoins must train on the model it rejoined with.
    // (scenario, policy, energy bits, accuracy bits, updates, FNV of the
    // final global parameters). The Online rows were re-pinned once when
    // `V` and `L_b` became per 25 devices (these fleets have 6 and 10; the
    // old values are in EXPERIMENTS.md, "Scaling V and L_b with the fleet").
    let goldens: [(&str, PolicySpec, u64, u32, u64, u64); 8] = [
        (
            "",
            PolicySpec::Online { v: None },
            0x40c1_d901_26e9_78c3,
            0x3daa_aaab,
            6,
            0xa9d9_93cf_5c86_c2bb,
        ),
        (
            "",
            PolicySpec::SyncSgd,
            0x40ce_154e_5604_1880,
            0x3daa_aaab,
            2,
            0x8063_a2d6_9b96_3b97,
        ),
        (
            ":compress=0.5",
            PolicySpec::Online { v: None },
            0x40c1_d901_26e9_78c3,
            0x3daa_aaab,
            6,
            0xaa50_fed4_b534_b71f,
        ),
        (
            ":compress=0.5",
            PolicySpec::SyncSgd,
            0x40ce_154e_5604_1880,
            0x3daa_aaab,
            2,
            0x0f1f_9bfb_652d_a325,
        ),
        (
            ":slots=6000:users=10",
            PolicySpec::Online { v: None },
            0x40f3_0293_ba5e_35a9,
            0x3e80_0000,
            77,
            0x4b2f_b511_3caf_746a,
        ),
        (
            ":slots=6000:users=10",
            PolicySpec::SyncSgd,
            0x40f6_a042_147a_e1d0,
            0x3e55_5555,
            9,
            0xb21f_45d4_bed4_c3be,
        ),
        (
            ":slots=6000:users=10:compress=0.5",
            PolicySpec::Online { v: None },
            0x40f3_0293_ba5e_35a9,
            0x3e55_5555,
            77,
            0x7c01_a5e5_b92c_c938,
        ),
        (
            ":slots=6000:users=10:compress=0.5",
            PolicySpec::SyncSgd,
            0x40f6_a042_147a_e1d0,
            0x3daa_aaab,
            9,
            0x8a6f_e696_6295_f74b,
        ),
    ];
    for (suffix, policy, energy_bits, accuracy_bits, updates, model_fnv) in goldens {
        let scenario = format!("ml-smoke:churn=heavy:battery=constrained{suffix}");
        let spec: ScenarioSpec = scenario.parse().expect("parses");
        let config = spec.build_with_policy(policy.clone()).expect("builds");
        let users = config.num_users;
        let sink = BufferSink::shared();
        let mut sim = Simulation::new(config).with_telemetry(sink.clone());
        let result = sim.run();
        let bytes: Vec<u8> = sim
            .model_snapshot()
            .params
            .values()
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        let seen = interruptions(&sink.drain(), users);
        let run = format!("{scenario} under {policy:?}");
        assert_eq!(result.total_energy_j.to_bits(), energy_bits, "{run}");
        assert_eq!(
            result.final_accuracy.map(f32::to_bits),
            Some(accuracy_bits),
            "{run}"
        );
        assert_eq!(result.total_updates, updates, "{run}");
        assert_eq!(fnv1a(&bytes), model_fnv, "global model drifted: {run}");
        // The runs are only worth pinning while the world really does cut
        // into training: every one aborts an epoch mid-flight, the
        // asynchronous ones also lose devices that were waiting with a
        // downloaded model, and the long ones upload from a device that was
        // cut off before.
        assert!(seen.aborted_mid_training >= 1, "{run}: {seen:?}");
        if !matches!(policy, PolicySpec::SyncSgd) {
            assert!(seen.rejoined_after_waiting >= 1, "{run}: {seen:?}");
        }
        if updates > 2 {
            assert!(seen.uploads_after_an_abort >= 1, "{run}: {seen:?}");
        }
    }
}
