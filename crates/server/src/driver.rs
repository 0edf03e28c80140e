//! The client-fleet driver: replays a scenario-derived device fleet against
//! a server.
//!
//! Each simulated device follows a small state machine — join, pull, train
//! (stretched by Bernoulli app interruptions at the scenario's arrival
//! probability), push, linger/leave — with a per-device seeded RNG, so the
//! whole fleet's request sequence is a pure function of the scenario. Some
//! devices die silently mid-session (their sessions expire), some abandon
//! queued updates (drained pushes hit unknown sessions), and a drain-limited
//! server sheds the rest as backpressure: the full churn surface of the
//! session layer is exercised by construction.
//!
//! The in-process run is single-threaded and advances the server's logical
//! tick in lock-step after each fleet sweep, which makes the server's
//! telemetry stream **byte-stable across runs**. The TCP run shards devices
//! across worker threads for real-socket soak; its interleaving (and hence
//! the server's trace) is nondeterministic by nature, only the counters are
//! compared.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use fedco_core::scenario::ScenarioSpec;
use fedco_neural::model::ParamVector;
use fedco_rng::rngs::{SmallRng, SplitMix64};
use fedco_rng::{Rng, SeedableRng};
use fedco_telemetry::event::Event;
use fedco_telemetry::sink::BufferSink;
use fedco_world::churn::ChurnSpec;

use crate::protocol::{Message, Refusal, WireError, WireUpdate};
use crate::service::{ServerCore, ServerCoreConfig};
use crate::session::{ChurnCounters, SessionConfig};
use crate::transport::{ChannelTransport, TcpTransport, Transport};

/// Everything that parameterises a fleet-driver run (and the server it
/// targets, for the in-process mode).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetDriverConfig {
    /// Number of simulated devices.
    pub devices: usize,
    /// Logical ticks to run.
    pub ticks: u64,
    /// Per-tick Bernoulli probability of a device joining (and of an app
    /// interruption stretching an ongoing training epoch).
    pub arrival_p: f64,
    /// Master seed; per-device streams are split off it.
    pub seed: u64,
    /// Length of the model the server serves.
    pub model_len: usize,
    /// Session cap — deliberately below the fleet size so join rejections
    /// occur under churn surges.
    pub max_sessions: usize,
    /// Ingress-queue bound (queued mode).
    pub queue_capacity: usize,
    /// Queued updates the server applies per tick.
    pub drain_per_tick: usize,
    /// Session heartbeat expiry, in ticks.
    pub heartbeat_timeout_ticks: u64,
    /// World churn model: devices inside a seeded outage interval drop any
    /// open session on the floor and stay dark until the interval ends —
    /// deterministic, scenario-driven churn on top of the driver's own
    /// RNG-ad-hoc silent deaths.
    pub churn: ChurnSpec,
}

impl FleetDriverConfig {
    /// Derives a driver config from a scenario: the fleet size, horizon,
    /// arrival probability and seed come straight from the spec; the
    /// admission/backpressure knobs are sized relative to the fleet so a
    /// churn-heavy scenario (e.g. the `server-soak` preset) exercises every
    /// refusal path.
    pub fn from_scenario(spec: &ScenarioSpec) -> Self {
        let devices = spec.users();
        FleetDriverConfig {
            devices,
            ticks: spec.slots(),
            arrival_p: spec.arrival_p(),
            seed: spec.seed(),
            model_len: 8,
            max_sessions: (devices / 8).max(8),
            queue_capacity: (devices / 32).max(4),
            drain_per_tick: (devices / 128).max(2),
            heartbeat_timeout_ticks: 12,
            churn: spec.churn(),
        }
    }

    /// The server-core config this driver config implies.
    pub fn server_config(&self) -> ServerCoreConfig {
        ServerCoreConfig {
            initial: ParamVector::zeros(self.model_len),
            learning_rate: 0.01,
            momentum_beta: 0.9,
            session: SessionConfig {
                heartbeat_timeout_ticks: self.heartbeat_timeout_ticks,
                max_sessions: self.max_sessions,
            },
            queue_capacity: self.queue_capacity,
            drain_per_tick: self.drain_per_tick,
            tick_every: 0,
        }
    }
}

/// What a driver run observed, client-side counters plus the server's own.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriverReport {
    /// Ticks driven.
    pub ticks: u64,
    /// `Hello` frames sent.
    pub joins_attempted: u64,
    /// `JoinRefused` replies seen.
    pub joins_refused_seen: u64,
    /// `PushUpdate` frames sent (including backpressure retries).
    pub pushes_sent: u64,
    /// Backpressure refusals seen (each triggers a retry next tick).
    pub backpressure_seen: u64,
    /// Devices that died silently mid-session (expiry fodder).
    pub silent_deaths: u64,
    /// Sessions dropped because the world churn model took the device into
    /// an outage interval (0 with churn off).
    pub world_dropouts: u64,
    /// The server's lifetime churn counters.
    pub server: ChurnCounters,
    /// Final global model version.
    pub final_version: u64,
    /// FNV-1a checksum over the final model's f32 bit patterns.
    pub model_checksum: u64,
    /// Sessions still live at the end.
    pub live_sessions: usize,
}

impl DriverReport {
    /// Renders the report as stable `key=value` lines (the binary's output).
    pub fn render(&self) -> String {
        let s = &self.server;
        format!(
            "ticks={}\njoins_attempted={}\njoins_accepted={}\njoins_rejected={}\n\
             sessions_expired={}\nsessions_left={}\npushes_sent={}\npushes_applied={}\n\
             pushes_queued={}\npushes_refused={}\nbackpressure_seen={}\nsilent_deaths={}\n\
             world_dropouts={}\nrounds_applied={}\nlive_sessions={}\nfinal_version={}\n\
             model_checksum={:016x}\n",
            self.ticks,
            self.joins_attempted,
            s.joins_accepted,
            s.joins_rejected,
            s.expired,
            s.left,
            self.pushes_sent,
            s.pushes_applied,
            s.pushes_queued,
            s.pushes_refused,
            self.backpressure_seen,
            self.silent_deaths,
            self.world_dropouts,
            s.rounds_applied,
            self.live_sessions,
            self.final_version,
            self.model_checksum,
        )
    }
}

/// FNV-1a over the f32 bit patterns of a parameter vector.
pub fn model_checksum(params: &ParamVector) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in params.values() {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[derive(Debug, Clone, PartialEq)]
enum DeviceState {
    /// Not connected; joins with probability `arrival_p` once the backoff
    /// has elapsed.
    Offline { backoff: u64 },
    /// Training a local epoch on an open session.
    Training { session: u64, remaining: u64 },
    /// Retrying a backpressured push.
    Pushing { session: u64 },
    /// Update handed over (queued); heartbeats a while, then leaves.
    Linger { session: u64, remaining: u64 },
}

#[derive(Debug)]
struct Device {
    id: u64,
    rng: SmallRng,
    state: DeviceState,
    base_version: u64,
    /// World churn outage intervals of this device (empty with churn off).
    outages: Vec<(u64, u64)>,
}

/// Client-side tallies accumulated by one device/worker.
#[derive(Debug, Clone, Copy, Default)]
struct ClientTallies {
    joins_attempted: u64,
    joins_refused_seen: u64,
    pushes_sent: u64,
    backpressure_seen: u64,
    silent_deaths: u64,
    world_dropouts: u64,
}

impl ClientTallies {
    fn absorb(&mut self, other: ClientTallies) {
        self.joins_attempted += other.joins_attempted;
        self.joins_refused_seen += other.joins_refused_seen;
        self.pushes_sent += other.pushes_sent;
        self.backpressure_seen += other.backpressure_seen;
        self.silent_deaths += other.silent_deaths;
        self.world_dropouts += other.world_dropouts;
    }
}

impl Device {
    fn new(id: u64, cfg: &FleetDriverConfig) -> Self {
        let mut splitter = SplitMix64::seed_from_u64(cfg.seed);
        splitter.absorb(0x5E55_1014); // domain-separate the driver's streams
        let seed = splitter.absorb(id);
        Device {
            id,
            rng: SmallRng::seed_from_u64(seed),
            state: DeviceState::Offline { backoff: 0 },
            base_version: 0,
            outages: cfg.churn.intervals_for(cfg.seed, id as usize, cfg.ticks),
        }
    }

    fn epoch_len(&mut self) -> u64 {
        3 + self.rng.gen_range(0..8u64)
    }

    fn make_params(&mut self, len: usize) -> Vec<f32> {
        (0..len).map(|_| self.rng.gen_range(-1.0..1.0f32)).collect()
    }

    fn push_message(&mut self, session: u64, model_len: usize) -> Message {
        Message::PushUpdate {
            session,
            update: WireUpdate {
                client: self.id,
                base_version: self.base_version,
                num_samples: 16 + self.rng.gen_range(0..64u64),
                train_loss_bits: self.rng.gen_range(0.0..4.0f32).to_bits(),
                train_accuracy_bits: self.rng.gen_range(0.0..1.0f32).to_bits(),
                params: self.make_params(model_len),
            },
        }
    }

    /// One tick of the device state machine.
    fn step(
        &mut self,
        transport: &mut dyn Transport,
        tick: u64,
        cfg: &FleetDriverConfig,
        tallies: &mut ClientTallies,
    ) -> Result<(), WireError> {
        // World churn: inside an outage interval the device is dark. Any
        // open session is dropped on the floor — no Leave frame, no RNG
        // draw — and the server's heartbeat sweep discovers the corpse, so
        // world churn shows up in the server's expiry counters.
        if ChurnSpec::is_offline(&self.outages, tick) {
            if !matches!(self.state, DeviceState::Offline { .. }) {
                tallies.world_dropouts += 1;
                self.state = DeviceState::Offline { backoff: 0 };
            }
            return Ok(());
        }
        match self.state.clone() {
            DeviceState::Offline { backoff } => {
                if backoff > 0 {
                    self.state = DeviceState::Offline {
                        backoff: backoff - 1,
                    };
                } else if self.rng.gen_bool(cfg.arrival_p) {
                    tallies.joins_attempted += 1;
                    match transport.request(&Message::Hello { client: self.id })? {
                        Message::Welcome { session, .. } => {
                            if let Message::Model { version, .. } =
                                transport.request(&Message::PullModel { session })?
                            {
                                self.base_version = version;
                            }
                            let remaining = self.epoch_len();
                            self.state = DeviceState::Training { session, remaining };
                        }
                        _ => {
                            tallies.joins_refused_seen += 1;
                            self.state = DeviceState::Offline {
                                backoff: 2 + self.rng.gen_range(0..6u64),
                            };
                        }
                    }
                }
            }
            DeviceState::Training { session, remaining } => {
                // Churn: some devices die silently mid-epoch and let the
                // server's heartbeat sweep discover the corpse.
                if self.rng.gen_bool(0.01) {
                    tallies.silent_deaths += 1;
                    self.state = DeviceState::Offline {
                        backoff: cfg.heartbeat_timeout_ticks + 4,
                    };
                    return Ok(());
                }
                // An app interruption (the paper's co-running arrival)
                // stretches the epoch.
                let mut remaining = remaining;
                if self.rng.gen_bool(cfg.arrival_p) {
                    remaining += 1 + self.rng.gen_range(0..4u64);
                }
                if remaining > 1 {
                    if tick % 4 == self.id % 4
                        && !matches!(
                            transport.request(&Message::Heartbeat { session })?,
                            Message::HeartbeatAck { .. }
                        )
                    {
                        // Session expired under us; start over.
                        self.state = DeviceState::Offline { backoff: 1 };
                        return Ok(());
                    }
                    self.state = DeviceState::Training {
                        session,
                        remaining: remaining - 1,
                    };
                } else {
                    self.try_push(transport, session, cfg, tallies)?;
                }
            }
            DeviceState::Pushing { session } => {
                self.try_push(transport, session, cfg, tallies)?;
            }
            DeviceState::Linger { session, remaining } => {
                if remaining == 0 {
                    let _ = transport.request(&Message::Leave { session })?;
                    self.state = DeviceState::Offline {
                        backoff: 1 + self.rng.gen_range(0..4u64),
                    };
                } else {
                    if tick % 3 == self.id % 3 {
                        let _ = transport.request(&Message::Heartbeat { session })?;
                    }
                    self.state = DeviceState::Linger {
                        session,
                        remaining: remaining - 1,
                    };
                }
            }
        }
        Ok(())
    }

    fn try_push(
        &mut self,
        transport: &mut dyn Transport,
        session: u64,
        cfg: &FleetDriverConfig,
        tallies: &mut ClientTallies,
    ) -> Result<(), WireError> {
        tallies.pushes_sent += 1;
        let msg = self.push_message(session, cfg.model_len);
        match transport.request(&msg)? {
            Message::PushApplied { version, .. } => {
                self.base_version = version;
                self.finish_session(transport, session)?;
            }
            Message::PushQueued { .. } => {
                // A fraction abandons the session right away — their queued
                // update drains into an unknown session.
                if self.rng.gen_bool(0.15) {
                    tallies.silent_deaths += 1;
                    self.state = DeviceState::Offline {
                        backoff: cfg.heartbeat_timeout_ticks + 4,
                    };
                } else {
                    self.state = DeviceState::Linger {
                        session,
                        remaining: 4 + self.rng.gen_range(0..4u64),
                    };
                }
            }
            Message::PushRefused {
                reason: Refusal::Backpressure,
            } => {
                tallies.backpressure_seen += 1;
                self.state = DeviceState::Pushing { session };
            }
            _ => {
                // Unknown session (expired), shutdown, or a length refusal:
                // give up on this session.
                self.state = DeviceState::Offline {
                    backoff: 2 + self.rng.gen_range(0..6u64),
                };
            }
        }
        Ok(())
    }

    fn finish_session(
        &mut self,
        transport: &mut dyn Transport,
        session: u64,
    ) -> Result<(), WireError> {
        // Most devices leave cleanly after an applied push; the rest walk
        // away and let the session expire.
        if self.rng.gen_bool(0.7) {
            let _ = transport.request(&Message::Leave { session })?;
            self.state = DeviceState::Offline {
                backoff: 1 + self.rng.gen_range(0..4u64),
            };
        } else {
            self.state = DeviceState::Offline {
                backoff: self.rng.gen_range(8..20u64),
            };
        }
        Ok(())
    }
}

/// Runs the fleet against an in-process [`ServerCore`] over the channel
/// transport: single-threaded, devices stepped in id order, the server tick
/// advanced in lock-step — fully deterministic, byte-stable telemetry.
///
/// Returns the report and the server's telemetry events.
///
/// # Errors
///
/// A [`WireError`] cannot actually occur over the channel transport, but
/// the plumbing is shared with the TCP path, so it propagates.
pub fn run_in_process(cfg: &FleetDriverConfig) -> Result<(DriverReport, Vec<Event>), WireError> {
    let mut core = ServerCore::new(cfg.server_config());
    let sink = BufferSink::shared();
    core.attach_telemetry(sink.clone());
    let core = Arc::new(Mutex::new(core));
    let mut transport = ChannelTransport::new(core.clone());
    let mut devices: Vec<Device> = (0..cfg.devices as u64)
        .map(|id| Device::new(id, cfg))
        .collect();
    let mut tallies = ClientTallies::default();
    for tick in 0..cfg.ticks {
        for device in devices.iter_mut() {
            device.step(&mut transport, tick, cfg, &mut tallies)?;
        }
        lock_core(&core).advance_tick();
    }
    let report = {
        let core = lock_core(&core);
        let (final_version, params) = core.model();
        DriverReport {
            ticks: cfg.ticks,
            joins_attempted: tallies.joins_attempted,
            joins_refused_seen: tallies.joins_refused_seen,
            pushes_sent: tallies.pushes_sent,
            backpressure_seen: tallies.backpressure_seen,
            silent_deaths: tallies.silent_deaths,
            world_dropouts: tallies.world_dropouts,
            server: core.counters(),
            final_version,
            model_checksum: model_checksum(&params),
            live_sessions: core.live_sessions(),
        }
    };
    Ok((report, sink.drain()))
}

fn lock_core(core: &Arc<Mutex<ServerCore>>) -> std::sync::MutexGuard<'_, ServerCore> {
    // fedco-audit: allow(panic-surface): poisoned core mutex means a handler already panicked; propagate
    core.lock().expect("server core mutex poisoned")
}

/// Runs the fleet against a live TCP server, devices sharded round-robin
/// across `workers` threads (one connection each). The server advances its
/// own tick (`tick_every`); the run is a soak, not a determinism check.
///
/// # Errors
///
/// Connection failures and mid-run wire errors surface as [`WireError`].
pub fn run_over_tcp(
    cfg: &FleetDriverConfig,
    addr: &str,
    workers: usize,
    timeout: Duration,
) -> Result<DriverReport, WireError> {
    let workers = workers.max(1);
    let handles: Vec<std::thread::JoinHandle<Result<ClientTallies, WireError>>> = (0..workers)
        .map(|w| {
            let cfg = cfg.clone();
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let mut transport = TcpTransport::connect(&addr, timeout)?;
                let mut devices: Vec<Device> = (0..cfg.devices as u64)
                    .filter(|id| (*id as usize) % workers == w)
                    .map(|id| Device::new(id, &cfg))
                    .collect();
                let mut tallies = ClientTallies::default();
                for tick in 0..cfg.ticks {
                    for device in devices.iter_mut() {
                        device.step(&mut transport, tick, &cfg, &mut tallies)?;
                    }
                }
                Ok(tallies)
            })
        })
        .collect();
    let mut tallies = ClientTallies::default();
    for handle in handles {
        match handle.join() {
            Ok(result) => tallies.absorb(result?),
            Err(_) => return Err(WireError::Io("driver worker panicked".to_string())),
        }
    }
    // Query the server's view over a fresh connection.
    let mut transport = TcpTransport::connect(addr, timeout)?;
    let stats = transport.request(&Message::QueryStats)?;
    let mut report = DriverReport {
        ticks: cfg.ticks,
        joins_attempted: tallies.joins_attempted,
        joins_refused_seen: tallies.joins_refused_seen,
        pushes_sent: tallies.pushes_sent,
        backpressure_seen: tallies.backpressure_seen,
        silent_deaths: tallies.silent_deaths,
        world_dropouts: tallies.world_dropouts,
        ..DriverReport::default()
    };
    if let Message::StatsIs {
        async_updates,
        sync_rounds,
        ..
    } = stats
    {
        report.server.pushes_applied = async_updates;
        report.server.rounds_applied = sync_rounds;
    }
    // Best-effort final-model checksum through a short-lived session.
    if let Message::Welcome { session, .. } =
        transport.request(&Message::Hello { client: u64::MAX })?
    {
        if let Message::Model { version, params } =
            transport.request(&Message::PullModel { session })?
        {
            report.final_version = version;
            report.model_checksum = model_checksum(&ParamVector::new(params));
        }
        let _ = transport.request(&Message::Leave { session })?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> FleetDriverConfig {
        FleetDriverConfig {
            devices: 40,
            ticks: 300,
            arrival_p: 0.05,
            seed: 7,
            model_len: 8,
            max_sessions: 12,
            queue_capacity: 2,
            drain_per_tick: 1,
            heartbeat_timeout_ticks: 6,
            churn: ChurnSpec::Off,
        }
    }

    #[test]
    fn from_scenario_scales_knobs_with_the_fleet() {
        let spec = ScenarioSpec::preset("server-soak").unwrap();
        let cfg = FleetDriverConfig::from_scenario(&spec);
        assert_eq!(cfg.devices, 1200);
        assert_eq!(cfg.ticks, 1200);
        assert!(cfg.max_sessions < cfg.devices);
        assert!(cfg.queue_capacity >= 4);
        assert!(cfg.drain_per_tick >= 2);
        assert_eq!(cfg.seed, spec.seed());
    }

    #[test]
    fn in_process_run_is_deterministic_and_churns() {
        let cfg = small_cfg();
        let (report_a, events_a) = run_in_process(&cfg).unwrap();
        let (report_b, events_b) = run_in_process(&cfg).unwrap();
        assert_eq!(report_a, report_b);
        assert_eq!(events_a, events_b);
        assert!(report_a.server.joins_accepted > 0, "{report_a:?}");
        assert!(report_a.server.joins_rejected > 0, "{report_a:?}");
        assert!(report_a.server.expired > 0, "{report_a:?}");
        assert!(report_a.backpressure_seen > 0, "{report_a:?}");
        assert!(report_a.server.pushes_applied > 0, "{report_a:?}");
        assert!(report_a.final_version > 0);
    }

    #[test]
    fn world_churn_drops_sessions_deterministically() {
        let off = small_cfg();
        let heavy = FleetDriverConfig {
            churn: ChurnSpec::Heavy,
            ..off.clone()
        };
        let (base, _) = run_in_process(&off).unwrap();
        assert_eq!(base.world_dropouts, 0, "churn off must drop nothing");
        let (a, events_a) = run_in_process(&heavy).unwrap();
        let (b, events_b) = run_in_process(&heavy).unwrap();
        assert_eq!(a, b, "world churn broke determinism");
        assert_eq!(events_a, events_b);
        assert!(a.world_dropouts > 0, "heavy churn never dropped: {a:?}");
        // Dropped sessions die silently, so the server's expiry counter
        // reflects the world-driven churn too.
        assert!(a.server.expired > 0, "{a:?}");
    }

    #[test]
    fn different_seeds_give_different_runs() {
        let cfg = small_cfg();
        let other = FleetDriverConfig {
            seed: 8,
            ..cfg.clone()
        };
        let (a, _) = run_in_process(&cfg).unwrap();
        let (b, _) = run_in_process(&other).unwrap();
        assert_ne!(a.model_checksum, b.model_checksum);
    }

    #[test]
    fn report_renders_stable_keys() {
        let (report, _) = run_in_process(&small_cfg()).unwrap();
        let text = report.render();
        for key in [
            "joins_accepted=",
            "joins_rejected=",
            "sessions_expired=",
            "pushes_applied=",
            "pushes_refused=",
            "backpressure_seen=",
            "model_checksum=",
        ] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
    }

    #[test]
    fn checksum_is_order_and_value_sensitive() {
        let a = model_checksum(&ParamVector::new(vec![1.0, 2.0]));
        let b = model_checksum(&ParamVector::new(vec![2.0, 1.0]));
        let c = model_checksum(&ParamVector::new(vec![1.0, 2.0]));
        assert_ne!(a, b);
        assert_eq!(a, c);
    }
}
