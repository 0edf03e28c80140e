//! The discrete-event simulation engine.
//!
//! The engine couples the four substrates: per-slot application arrivals and
//! device power states (`fedco-device`), the federated training loop and
//! staleness bookkeeping (`fedco-fl`, optionally running real LeNet training
//! on synthetic CIFAR-like shards via `fedco-neural`), and the scheduling
//! policies (`fedco-core`). One run reproduces the paper's 3-hour testbed
//! experiment for a chosen policy and parameter set.
//!
//! # The slot loop
//!
//! A run steps every slot of the horizon, and a slot runs world check →
//! planning → arrivals → census → decisions → power → timer expiry →
//! completions → round barrier → queue dynamics → recording. There is one
//! loop; [`Simulation::run`] and [`Simulation::run_dense`] differ only in
//! how the per-user phases find their users. `run_dense` is the reference:
//! each phase is a plain scan of the fleet. Algorithm 2 of the paper only
//! ever acts on devices *holding a pending task*, and a device that is
//! mid-epoch, or whose application timer is running down, does nothing
//! until its next event — so `run` drives the same phases from event
//! indices and a slot costs what happens in it, not the size of the fleet:
//!
//! * arrivals are read a slot's row at a time from the slot-major order of
//!   the one store they are sampled into ([`ArrivalSchedule`]);
//! * application expiries, epoch completions and wakes are absolute
//!   deadlines in one calendar, popped in `(slot, user)` order and checked
//!   against the arena, so a device that went dark leaves only a stale
//!   entry;
//! * the arena counts training / waiting / online users at every phase
//!   transition and keeps the waiting users as an ascending set, which
//!   drives the decision loop — less those asleep: a waiting user its
//!   policy cannot schedule before a later slot
//!   ([`SchedulingPolicy::next_decision_slot`]; the offline plan fixes
//!   every start) sleeps until a wake the calendar holds;
//! * power is *state since slot S* per user, written to a profiler only
//!   when the state changes or something else is charged.
//!
//! What stays per awake waiting user per slot is what the paper's
//! controller really does — the Eq. 21 decision, its Table III energy
//! overhead, the `+ε` gap step. A sleeper owes its `+ε` steps, which land
//! as one [`repeated_add`](fedco_device::energy::repeated_add) — the bits
//! of the single additions — at its wake and before anything reads its gap
//! (the [`user`](crate::user) module states the invariants); a slot that
//! charges decision overhead wakes every sleeper, since the scan charges
//! every waiting user. What stays per user is the fixed-order `gap_sum`
//! fold that feeds Eq. 16, redone in every slot that changed a gap (and,
//! inside the profilers, the repeated-addition energy chains): both define
//! the bits. Two values are held until the one thing that can change them
//! happens, as the deleted spans held them: the server's momentum norm
//! (until the next update) and the gap sum (until the next gap write, so
//! slots in which the whole fleet trains fold nothing). The `phases`
//! module holds the two implementations of each phase and the argument for
//! why they agree bit for bit.
//!
//! Slots in which nothing happens are stepped like any other: an empty
//! slot costs a few index lookups, and fast-forwarding over runs of them
//! stopped buying wall time once it did (EXPERIMENTS.md, "Why there is no
//! span fast-forward").
//!
//! # Where the devices train
//!
//! The slot loop runs on one thread; with real training on, the devices'
//! local epochs do not. An epoch is a pure function of the model the device
//! downloaded, its shard and its optimiser state ([`fedco_fl::client`]), so
//! the engine submits it to the process-wide [`TrainingPool`] with the
//! download — the constructor's hand-out, a requeue after an upload, a
//! rejoin — and claims the result at the slot the simulated epoch completes,
//! where it used to compute it. The slots in between are the overlap. A
//! device that goes dark mid-epoch drops its ticket, and nothing of that
//! epoch is ever committed to its client; what the horizon cuts short is
//! dropped the same way. Updates reach the server in the order they always
//! did, so every bit and every telemetry event is the same for any number of
//! helper threads, zero included.

use std::sync::Arc;

use fedco_rng::rngs::SmallRng;
use fedco_rng::{Rng, SeedableRng};

use fedco_core::experiment::{ConfigError, SimConfig};
use fedco_core::offline::{OfflineScheduler, OfflineUser};
use fedco_core::online::{OnlineDecisionInput, SlotOutcome};
use fedco_core::policy::{SchedulingPolicy, UserSlotContext, WindowPlan};
use fedco_core::spec::PolicyBuildContext;
use fedco_device::power::{AppStatus, PowerModel, PowerState, SlotDecision};
use fedco_device::profiler::{EnergyComponent, EnergyProfiler};
use fedco_fl::aggregation::AsyncUpdateRule;
use fedco_fl::client::{ClientConfig, EpochTask, FlClient};
use fedco_fl::model_state::{LocalUpdate, ModelSnapshot, ModelVersion};
use fedco_fl::partition::{partition_dataset, PartitionStrategy};
use fedco_fl::pool::{Ticket, TrainingPool};
use fedco_fl::service::{ModelService, ModelServiceInit};
use fedco_fl::staleness::{GradientGap, Lag, WeightPredictor};
use fedco_fl::transport::PAPER_MODEL_BYTES;
use fedco_neural::data::{Dataset, SyntheticCifarConfig};
use fedco_neural::model::{ParamVector, Sequential};
use fedco_telemetry::event::{Event, EventKind};
use fedco_telemetry::sink::{BufferSink, Telemetry};
use fedco_world::battery::BatteryParams;
use fedco_world::churn::ChurnSpec;
use fedco_world::CHECK_EVERY_SLOTS;

use crate::arrivals::ArrivalSchedule;
use crate::clock::SimClock;
use crate::index::{Calendar, Deadline};
use crate::phases::NOT_ACCRUING;
use crate::trace::{SimResult, TracePoint, UpdateEvent, UserGapPoint};
use crate::user::{TrainingPhase, UserArena};

/// Salt folded into the run seed before it is handed to the policy build, so
/// policy-private random streams never alias the engine's own streams.
const POLICY_SEED_SALT: u64 = 0x706F_6C69_6379_5EED;

/// Momentum-vector norm the gap predictor assumes in energy-only runs, and
/// in ML runs while the server's momentum is still zero.
const SYNTHETIC_VELOCITY_NORM: f32 = 2.0;

/// Execution statistics of one run. Purely diagnostic — never feeds back
/// into the simulation itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Slots stepped: the whole horizon, since every slot is.
    pub dense_slots: u64,
    /// Always 0: no slot is fast-forwarded. Kept, with
    /// [`spans`](Self::spans), for the readers of these counters.
    pub fast_forwarded_slots: u64,
    /// Always 0: there are no fast-forwarded spans.
    pub spans: u64,
    /// Per-user state touches made by the phases: one for every user a
    /// phase looks at or updates (a decision, an arrival, a deadline or
    /// wake, a power settlement, a sleeper's owed idle slots, a fleet-wide
    /// flush or world check). The plain
    /// scans of [`Simulation::run_dense`] pay `users` per phase per slot;
    /// the indexed [`Simulation::run`] pays for what happens.
    /// Deterministic — a count, not a timing.
    pub user_visits: u64,
}

/// The engine's telemetry attachment: the shared sink, the sampling cadence
/// of the cumulative energy events, and the idle-decision counter of the
/// driver channel.
#[derive(Debug)]
struct SimTelemetry {
    sink: Arc<dyn Telemetry>,
    /// Energy events are sampled every this many slots (the trace-recording
    /// cadence of the configuration, fixed at attach time so summary-only
    /// fleet jobs still sample).
    sample_every: u64,
    /// Idle `decide()` outcomes of the run. They repeat every waiting slot,
    /// so they are counted into the one driver-channel event that closes
    /// the run instead of being emitted per slot.
    idle_decisions: u64,
}

/// Mutable per-run accumulators threaded through the slot loop.
#[derive(Debug, Default)]
struct RunAccum {
    trace: Vec<TracePoint>,
    user_gaps: Vec<UserGapPoint>,
    updates: Vec<UpdateEvent>,
    queue_sum: f64,
    vq_sum: f64,
    corun_epochs: u64,
    total_lag: u64,
    max_lag: u64,
    last_accuracy: Option<f32>,
}

/// What the decisions of one slot add up to, for the queue dynamics.
#[derive(Debug, Default)]
struct DecisionTally {
    /// Users whose training was scheduled this slot.
    scheduled: usize,
    /// The backlog those users had accumulated while waiting, in
    /// user-slots.
    drained_wait_slots: usize,
}

/// Per-user battery bookkeeping of a world-enabled run, advanced only at
/// world check slots on the driving thread.
#[derive(Debug)]
struct BatteryRuntime {
    params: BatteryParams,
    /// Full capacity of each user's battery, in joules.
    capacity_j: Vec<f64>,
    /// Energy currently stored in each user's battery, in joules.
    stored_j: Vec<f64>,
    /// Profiler total already debited from each battery, so each check
    /// subtracts exactly the energy accrued since the previous check.
    last_total_j: Vec<f64>,
}

/// Engine-side state of the `fedco-world` environment models that need slot
/// bookkeeping (battery lifecycles and churn). Lives on the driving thread
/// only; every transition happens at a world check slot — a multiple of
/// [`CHECK_EVERY_SLOTS`] — in ascending user order. `None` when
/// the configured world needs no check slots (the paper-default world).
#[derive(Debug)]
struct WorldRuntime {
    battery: Option<BatteryRuntime>,
    /// Precomputed churn outage intervals per user (`None` when churn is
    /// off).
    churn_intervals: Option<Vec<Vec<(u64, u64)>>>,
    /// Whether each user's battery is below the death threshold.
    battery_dead: Vec<bool>,
    /// Whether each user is inside a churn outage interval.
    churned: Vec<bool>,
    /// The slot of the previous world check (0 before the first).
    last_check_slot: u64,
}

impl WorldRuntime {
    /// Whether the world currently wants user `i` offline.
    fn wants_offline(&self, i: usize) -> bool {
        self.battery_dead[i] || self.churned[i]
    }
}

/// The real machine-learning workload of one run.
#[derive(Debug)]
struct MlState {
    clients: Vec<FlClient>,
    /// Where the devices train: beside the slot loop, see
    /// [`fedco_fl::pool`].
    pool: Arc<TrainingPool>,
    /// Per user, the local epoch on the model it last downloaded: submitted
    /// with the download, claimed when the epoch completes, dropped — and
    /// with it everything the epoch would have changed — when the device
    /// goes dark first or downloads again.
    epochs: Vec<Option<Ticket<EpochTask>>>,
    test_set: Dataset,
    eval_net: Sequential,
    eval_every_slots: u64,
    eval_examples: usize,
}

impl MlState {
    /// Hands a downloaded model to user `i`'s client and submits the epoch
    /// it will train on it.
    fn hand_model(&mut self, i: usize, snapshot: &ModelSnapshot) {
        let client = &mut self.clients[i];
        client
            .receive_model(snapshot)
            // fedco-audit: allow(panic-surface): clients and server share the LeNet architecture built by the constructor
            .expect("architectures match");
        self.epochs[i] = Some(self.pool.submit(client.epoch_task()));
    }
}

/// The simulation engine.
#[derive(Debug)]
pub struct Simulation {
    pub(crate) config: SimConfig,
    pub(crate) clock: SimClock,
    pub(crate) arrivals: ArrivalSchedule,
    pub(crate) users: UserArena,
    pub(crate) profilers: Vec<EnergyProfiler>,
    policy: Box<dyn SchedulingPolicy>,
    offline_scheduler: OfflineScheduler,
    server: Box<dyn ModelService>,
    predictor: WeightPredictor,
    ml: Option<MlState>,
    rng: SmallRng,
    /// The engine's one copy of the global model: the initial model it built
    /// the server from, then downloaded at the [`applied`](Self::applied)
    /// count `model_at` holds (`None` after a service swap). The engine is
    /// its service's only writer, so the copy is current until it applies
    /// something.
    model: ModelSnapshot,
    model_at: Option<u64>,
    /// Per user, the model its current epoch started from — kept only in
    /// runs that read it (traces on, or a compressed uplink), else empty.
    base_params: Vec<ParamVector>,
    /// The round's updates, reserved for the whole fleet once per run.
    sync_buffer: Vec<LocalUpdate>,
    pub(crate) stats: EngineStats,
    /// `true` while driven by [`Simulation::run`]: the slot phases run from
    /// the event indices instead of scanning the arena, and power accounting
    /// is kept as open per-user spans (closed on every state change,
    /// extra-energy charge, trace snapshot, and at the end of the run).
    /// `run_dense` keeps the plain-scan, eager reference behaviour.
    pub(crate) indexed: bool,
    /// Cached [`SchedulingPolicy::quiescent_while_waiting`] for this run.
    policy_quiescent: bool,
    /// The server's momentum norm, as last asked for: an O(params) pass in
    /// ML mode and a round trip on a remote service, so it is held until
    /// the engine next hands the server an update — the only thing that can
    /// change it.
    momentum_norm: Option<f32>,
    /// Updates and rounds the engine has handed the server: the server's
    /// version count, so reset when the server is replaced, not per run.
    applied: u64,
    /// Application expiries and epoch completions by the slot they fall
    /// due (indexed loop only; the scan reference files nothing).
    pub(crate) calendar: Calendar,
    /// The power state each user has been accruing in since
    /// `power_since[i]`, not yet recorded in its profiler.
    pub(crate) power_state: Vec<PowerState>,
    /// The first slot of each user's open power span
    /// ([`NOT_ACCRUING`] while the device is offline).
    pub(crate) power_since: Vec<u64>,
    /// The slot boundary up to which every accruing user has accrued: the
    /// current slot before its power phase, the next one after it.
    pub(crate) accrued_to: u64,
    /// Users whose phase or application changed since power last accrued.
    pub(crate) dirty: Vec<u32>,
    /// The users whose epoch completed in the current slot's tick,
    /// ascending, with their co-running flag.
    pub(crate) completed: Vec<(usize, bool)>,
    /// World-model runtime (`None` when the configured world needs no check
    /// slots — the paper-default world, which keeps this path zero-cost).
    world: Option<WorldRuntime>,
    /// Telemetry attachment (`None` when disabled — the zero-cost default).
    telemetry: Option<SimTelemetry>,
    /// The scalars of the finished run, its series left out: what a second
    /// [`Simulation::run`] returns, stepping and recording nothing.
    finished: Option<SimResult>,
}

impl Simulation {
    /// Builds a simulation from a configuration.
    ///
    /// Thin shim over [`Simulation::try_new`] for callers that treat an
    /// invalid configuration as a programming error.
    ///
    /// # Panics
    ///
    /// Panics with the specific [`ConfigError`] (field and value) if the
    /// configuration is invalid.
    pub fn new(config: SimConfig) -> Self {
        match Simulation::try_new(config) {
            Ok(sim) => sim,
            // fedco-audit: allow(panic-surface): documented panicking shim; try_new is the typed fallible path
            Err(e) => panic!("invalid simulation configuration: {e}"),
        }
    }

    /// Builds a simulation from a configuration, rejecting invalid
    /// configurations with a typed [`ConfigError`] instead of panicking.
    pub fn try_new(config: SimConfig) -> Result<Self, ConfigError> {
        Self::with_training_pool(config, TrainingPool::global)
    }

    /// [`Simulation::try_new`] on the training pool `pool` returns, asked for
    /// only when the configuration trains a real model. The tests that hold
    /// results to be the same for any helper count come in here.
    pub(crate) fn with_training_pool(
        config: SimConfig,
        pool: impl FnOnce() -> Arc<TrainingPool>,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let clock = SimClock::new(config.scheduler.slot_seconds, config.total_slots);
        // Arrivals come from the configured world model: a wide fleet's
        // runs start sampling here, on threads of their own, and the slot
        // loop pulls their chunks as it reaches them; a narrow one is
        // sampled whole now. The Bernoulli model replays the historical
        // generator's RNG streams bit-for-bit (pinned by
        // `arrivals::reference_bits::bernoulli_model_matches_historical_generator`),
        // so the paper-default world changes nothing.
        let arrivals = ArrivalSchedule::start(
            config.world.arrival.model().as_ref(),
            config.num_users,
            config.total_slots,
            config.arrival_probability,
            config.seed,
        );
        // Struct-of-arrays user state; one shared DeviceProfile allocation
        // per distinct device kind instead of one copy per user.
        let users = UserArena::build(config.num_users, config.scheduler.epsilon, |i| {
            config.devices.device_for(i)
        });
        let profilers: Vec<EnergyProfiler> = (0..users.len())
            .map(|i| EnergyProfiler::lean(PowerModel::shared(users.shared_profile(i))))
            .collect();
        let policy = config.policy.build(
            &PolicyBuildContext::new(config.scheduler).with_seed(config.seed ^ POLICY_SEED_SALT),
        );
        let predictor = WeightPredictor::new(
            config.scheduler.learning_rate,
            config.scheduler.momentum_beta,
        );
        let offline_scheduler = OfflineScheduler::new(config.scheduler.staleness_bound, predictor);

        // Initial global parameters and optional ML workload.
        let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x5EED_F00D);
        let (initial_params, ml) = match &config.ml {
            Some(mlcfg) => {
                let arch = mlcfg.architecture;
                let data = SyntheticCifarConfig {
                    image_size: arch.image_size,
                    channels: arch.channels,
                    classes: arch.classes,
                    examples: mlcfg.total_examples,
                    noise_std: mlcfg.noise_std,
                    seed: config.seed ^ 0xDA7A,
                }
                .generate();
                let (train, test) = data.train_test_split(mlcfg.test_fraction);
                let shards =
                    partition_dataset(train, config.num_users, PartitionStrategy::Iid, config.seed);
                let client_cfg = ClientConfig {
                    batch_size: mlcfg.batch_size,
                    learning_rate: config.scheduler.learning_rate,
                    momentum: config.scheduler.momentum_beta,
                    local_passes: 1,
                };
                let clients: Vec<FlClient> = shards
                    .into_iter()
                    .enumerate()
                    .map(|(i, shard)| FlClient::new(i, arch, shard, client_cfg))
                    .collect();
                let mut init_rng = SmallRng::seed_from_u64(config.seed ^ 0x1217);
                let eval_net = arch.build(&mut init_rng);
                let initial = eval_net.parameters();
                (
                    initial,
                    Some(MlState {
                        epochs: clients.iter().map(|_| None).collect(),
                        clients,
                        pool: pool(),
                        test_set: test,
                        eval_net,
                        eval_every_slots: mlcfg.eval_every_slots.max(1),
                        eval_examples: mlcfg.eval_examples.max(1),
                    }),
                )
            }
            None => {
                // Energy-only mode: a small dummy parameter vector.
                let initial = ParamVector::new((0..8).map(|_| rng.gen_range(-1.0..1.0)).collect());
                (initial, None)
            }
        };
        let server: Box<dyn ModelService> = Box::new(
            ModelServiceInit {
                initial: initial_params.clone(),
                rule: AsyncUpdateRule::Replace,
                learning_rate: config.scheduler.learning_rate,
                momentum_beta: config.scheduler.momentum_beta,
            }
            .into_parameter_server(),
        );
        let reads_base = config.collect_traces || config.world.compression.ratio().is_some();
        let base_params =
            vec![initial_params.clone(); if reads_base { config.num_users } else { 0 }];

        // World runtime: battery state and churn outages, materialised once
        // (both are pure functions of the config) when any model needs slot
        // bookkeeping.
        let world = if config.world.needs_check_slots() {
            let battery = config.world.battery.params().map(|params| {
                let capacity_j: Vec<f64> = (0..users.len())
                    .map(|i| {
                        config
                            .world
                            .battery
                            .capacity_j(users.device(i))
                            .unwrap_or(f64::MAX)
                    })
                    .collect();
                let stored_j = capacity_j.iter().map(|c| c * params.initial_soc).collect();
                BatteryRuntime {
                    params,
                    stored_j,
                    last_total_j: vec![0.0; capacity_j.len()],
                    capacity_j,
                }
            });
            let churn_intervals = match config.world.churn {
                ChurnSpec::Off => None,
                spec => Some(
                    (0..users.len())
                        .map(|i| spec.intervals_for(config.seed, i, config.total_slots))
                        .collect(),
                ),
            };
            Some(WorldRuntime {
                battery,
                churn_intervals,
                battery_dead: vec![false; users.len()],
                churned: vec![false; users.len()],
                last_check_slot: 0,
            })
        } else {
            None
        };

        let power_state = vec![PowerState::Idle; users.len()];
        let power_since = vec![NOT_ACCRUING; users.len()];
        let mut sim = Simulation {
            config,
            clock,
            arrivals,
            users,
            profilers,
            policy,
            offline_scheduler,
            server,
            predictor,
            ml,
            rng,
            model: ModelSnapshot::new(initial_params, ModelVersion::INITIAL),
            model_at: Some(0),
            base_params,
            sync_buffer: Vec::new(),
            stats: EngineStats::default(),
            indexed: false,
            policy_quiescent: false,
            momentum_norm: None,
            applied: 0,
            calendar: Calendar::default(),
            power_state,
            power_since,
            accrued_to: 0,
            dirty: Vec::new(),
            completed: Vec::new(),
            world,
            telemetry: None,
            finished: None,
        };
        // Hand the initial global model to every ML client.
        if let Some(ml) = sim.ml.as_mut() {
            for i in 0..ml.clients.len() {
                ml.hand_model(i, &sim.model);
            }
        }
        Ok(sim)
    }

    /// The configuration of this run.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Replaces the in-process parameter server with another
    /// [`ModelService`] implementation (e.g. the `fedco-server` crate's
    /// wire-protocol client). The factory receives everything needed to
    /// start from the exact state the default server would: the initial
    /// global model, the merge rule, and the momentum hyperparameters. Call
    /// this before the first slot — the engine's aggregation calls are
    /// otherwise identical, so a faithful service reproduces the batch run
    /// bit-for-bit, trace included: the engine records every merge and
    /// round itself, whichever of this and
    /// [`with_telemetry`](Self::with_telemetry) comes first.
    ///
    /// The engine must be the service's only writer: it re-downloads the
    /// model only after its own applies, so a merge from another client
    /// would go unread until the engine's next one.
    pub fn with_model_service<F>(mut self, factory: F) -> Self
    where
        F: FnOnce(ModelServiceInit) -> Box<dyn ModelService>,
    {
        let init = ModelServiceInit {
            initial: self.server.download().params,
            rule: AsyncUpdateRule::Replace,
            learning_rate: self.config.scheduler.learning_rate,
            momentum_beta: self.config.scheduler.momentum_beta,
        };
        self.server = factory(init);
        self.momentum_norm = None;
        self.applied = 0;
        self.model_at = None;
        self
    }

    /// A snapshot of the current global model (parameters + version). After
    /// a run this is the final aggregated model — the bit-for-bit
    /// equivalence surface between the batch engine and a served run.
    pub fn model_snapshot(&self) -> fedco_fl::model_state::ModelSnapshot {
        self.server.download()
    }

    /// Attaches a telemetry sink. Every slot-clocked event of the run —
    /// schedules, merges, rounds, barrier arrivals, sampled per-component
    /// energy, driver spans — is recorded into it by the engine, stamped with
    /// the slot it is stepping; the model service records nothing, so the
    /// order of this and [`with_model_service`](Self::with_model_service)
    /// does not matter. Attaching telemetry never changes the simulation
    /// result: reading profiler totals is side-effect-free.
    ///
    /// A disabled sink (e.g. [`fedco_telemetry::sink::NullSink`]) is
    /// discarded outright, keeping the disabled path zero-cost.
    pub fn with_telemetry(mut self, sink: Arc<dyn Telemetry>) -> Self {
        if !sink.enabled() {
            return self;
        }
        self.telemetry = Some(SimTelemetry {
            sink,
            sample_every: self.config.record_every_slots.max(1),
            idle_decisions: 0,
        });
        self
    }

    /// Records `kind` at `slot` when telemetry is attached. Inlined, so an
    /// untraced run builds no event.
    #[inline]
    fn emit(&self, slot: u64, kind: EventKind) {
        if let Some(t) = &self.telemetry {
            t.sink.record(Event::new(slot, kind));
        }
    }

    /// Emits cumulative per-component energy totals at `slot`. Pending power
    /// spans are flushed first so the totals match what the scan reference
    /// reads — flush boundaries never change the repeated-addition sums, so
    /// sampling cannot perturb results.
    fn emit_telemetry_energy(&mut self, slot: u64) {
        if self.telemetry.is_none() {
            return;
        }
        self.flush_all_pending();
        for (component, joules) in self.energy_by_component() {
            self.emit(
                slot,
                EventKind::Energy {
                    component: component.label(),
                    joules,
                },
            );
        }
    }

    /// Cumulative energy of every component any user has touched, summed
    /// over users in index order, in component order — a fixed array like
    /// [`EnergyProfiler`]'s own, so a telemetry sample allocates nothing.
    fn energy_by_component(&self) -> impl Iterator<Item = (EnergyComponent, f64)> {
        let mut totals = [None; EnergyComponent::ALL.len()];
        for p in &self.profilers {
            for (component, energy) in p.components() {
                *totals[component as usize].get_or_insert(0.0) += energy.value();
            }
        }
        EnergyComponent::ALL
            .into_iter()
            .zip(totals)
            .filter_map(|(component, total)| Some((component, total?)))
    }

    /// Downloads the global model into the held copy if the engine applied
    /// anything since the last download.
    fn refresh_model(&mut self) {
        if self.model_at != Some(self.applied) {
            self.model = self.server.download();
            self.model_at = Some(self.applied);
        }
    }

    fn velocity_norm(&mut self) -> f32 {
        if self.ml.is_none() {
            return SYNTHETIC_VELOCITY_NORM;
        }
        let server = &self.server;
        let norm = *self
            .momentum_norm
            .get_or_insert_with(|| server.momentum_norm());
        if norm > 0.0 {
            norm
        } else {
            SYNTHETIC_VELOCITY_NORM
        }
    }

    /// The look-ahead window in slots — the same formula the policy build
    /// uses, so the replanning cadence a policy derives from its build
    /// context can never drift from the window the engine actually plans.
    fn window_slots(&self) -> u64 {
        PolicyBuildContext::new(self.config.scheduler).window_slots()
    }

    /// Computes the offline knapsack plan for the window starting at `slot`
    /// and installs it into the policy via
    /// [`SchedulingPolicy::install_plan`].
    fn plan_offline_window(&mut self, slot: u64) {
        let window = self.window_slots();
        let now_s = slot as f64 * self.config.scheduler.slot_seconds;
        let velocity = self.velocity_norm();
        // Per waiting user, ascending: its planner description and the slot
        // of its first arrival in the window, if any.
        let mut window_users = Vec::new();
        let mut arrival_slots = Vec::new();
        self.arrivals.hold(slot, slot.saturating_add(window));
        let first_arrivals = self.arrivals.first_arrivals_in_window(slot, window);
        for i in self.users.waiting() {
            let profile = self.users.profile(i);
            let arrival = first_arrivals[i];
            let (arrival_s, saving_j) = match arrival {
                Some(a) => {
                    let t_train = profile.training_time().value();
                    let t_corun = profile.corun_time(a.app).value();
                    let separate = profile.training_power().value() * t_train
                        + profile.app_power(a.app).value() * t_corun;
                    let corun = profile.corun_power(a.app).value() * t_corun;
                    (
                        Some(a.slot as f64 * self.config.scheduler.slot_seconds),
                        separate - corun,
                    )
                }
                None => (None, 0.0),
            };
            arrival_slots.push(arrival.map(|a| a.slot));
            window_users.push(OfflineUser {
                id: i,
                ready_time_s: now_s,
                app_arrival_s: arrival_s,
                duration_s: profile.training_time().value(),
                energy_saving_j: saving_j,
            });
        }
        self.stats.user_visits += window_users.len() as u64;
        let solution = self
            .offline_scheduler
            .schedule_window(&window_users, velocity);
        let mut selected = vec![false; self.users.len()];
        for &user_id in &solution.selected {
            selected[user_id] = true;
        }
        let mut plan = WindowPlan::new();
        for (wu, arrival_slot) in window_users.iter().zip(arrival_slots) {
            // Selected co-run opportunities start with their application;
            // rejected ones execute separately right away to keep their
            // staleness out of the budget; users without an arrival wait.
            if let Some(arrival_slot) = arrival_slot {
                let start = if selected[wu.id] { arrival_slot } else { slot };
                plan.set_start_slot(wu.id, start);
            }
        }
        self.policy.install_plan(&plan);
        // The plan moved every waiting user's first possible start.
        for wu in &window_users {
            self.ask_next_decision(wu.id, slot);
        }
    }

    /// Produces the local update of a completed epoch.
    fn make_update(&mut self, user_id: usize) -> LocalUpdate {
        match self.ml.as_mut() {
            Some(ml) => {
                let client = &mut ml.clients[user_id];
                let outcome = ml.epochs[user_id]
                    .take()
                    // An epoch nobody submitted continues from the client's
                    // own replica: submitted now, it runs at this claim.
                    .unwrap_or_else(|| ml.pool.submit(client.epoch_task()))
                    .claim()
                    // fedco-audit: allow(panic-surface): client datasets and model are sized together by the constructor
                    .expect("training geometry matches");
                client.commit(outcome)
            }
            None => {
                // Energy-only mode: a synthetic update that moves the dummy
                // global parameters by a step whose magnitude decays with the
                // number of applied updates, so the momentum norm behaves
                // like a converging run.
                self.refresh_model();
                let magnitude = 1.0 / (1.0 + self.applied as f32 / 50.0);
                let mut values = self.model.params.values().to_vec();
                let scale = magnitude / (values.len() as f32).sqrt();
                for v in values.iter_mut() {
                    *v += if self.rng.gen::<bool>() {
                        scale
                    } else {
                        -scale
                    };
                }
                LocalUpdate {
                    client_id: user_id,
                    params: ParamVector::new(values),
                    base_version: self.users.base_version[user_id],
                    num_samples: 1,
                    train_loss: 0.0,
                    train_accuracy: 0.0,
                }
            }
        }
    }

    /// Measured gradient gap of an update: the L2 distance between the global
    /// parameters the user started from and the global parameters at upload
    /// time (Definition 2).
    fn measured_gap(&mut self, user_id: usize) -> f64 {
        self.refresh_model();
        self.base_params[user_id]
            .distance_l2(&self.model.params)
            .map(|d| d as f64)
            .unwrap_or(0.0)
    }

    /// Re-downloads the global model for a user that just uploaded.
    ///
    /// `slot` stamps the compressed-upload telemetry event. A user the
    /// world wants offline (its churn outage started, or its battery died,
    /// while it was parked at the round barrier) goes dark here instead of
    /// re-entering the waiting pool.
    fn requeue_user(&mut self, user_id: usize, slot: u64) {
        if self
            .world
            .as_ref()
            .is_some_and(|w| w.wants_offline(user_id))
        {
            self.go_offline(user_id);
            return;
        }
        // One full model exchange per requeue: the update went up, the fresh
        // global model comes back down. Charge the radio if a link is set.
        // A compressed uplink shrinks only the upload leg; with compression
        // off the code path is exactly the historical one.
        if let Some(link) = &self.config.transport {
            let energy = match self.config.world.compression.ratio() {
                Some(ratio) => {
                    let upload = self
                        .config
                        .world
                        .compression
                        .upload_bytes(PAPER_MODEL_BYTES as u64);
                    self.emit(
                        slot,
                        EventKind::CompressedUpload {
                            user: user_id as u64,
                            bytes: upload,
                            ratio,
                        },
                    );
                    link.radio_energy(
                        link.compressed_exchange_time(PAPER_MODEL_BYTES, upload as usize),
                    )
                }
                None => link.radio_energy(link.exchange_time(PAPER_MODEL_BYTES)),
            };
            self.flush_pending(user_id);
            self.profilers[user_id].record_extra(EnergyComponent::Radio, energy);
        }
        self.hand_out_model(user_id);
        // The upload lands after this slot's decisions.
        self.ask_next_decision(user_id, slot + 1);
    }

    /// Hands user `i` the current global model — its client's next epoch and
    /// its base copy, where those are kept — and puts it in the waiting pool.
    fn hand_out_model(&mut self, i: usize) {
        self.refresh_model();
        if let Some(ml) = self.ml.as_mut() {
            ml.hand_model(i, &self.model);
        }
        if let Some(base) = self.base_params.get_mut(i) {
            base.clone_from(&self.model.params);
        }
        self.users.become_waiting(i, self.model.version);
    }

    /// Takes user `i` dark: its open power span lands first (the last
    /// energy the device accrues), any running training epoch is aborted
    /// and its work lost, and the foreground app is dropped — whatever
    /// deadlines it had filed in the calendar are stale from here on.
    /// Mirrors a phone dying mid-epoch — the server never hears from it.
    fn go_offline(&mut self, i: usize) {
        self.stop_accruing(i);
        self.users.go_offline(i);
        if let Some(ml) = self.ml.as_mut() {
            ml.epochs[i] = None;
        }
    }

    /// Brings user `i` back online at `slot`: a fresh download of the
    /// current global model (radio-free — the rejoin handshake is not a
    /// model exchange) and back into the waiting pool.
    fn come_online(&mut self, i: usize, slot: u64) {
        self.hand_out_model(i);
        self.mark_dirty(i);
        self.ask_next_decision(i, slot);
    }

    /// Asks the policy from which slot on waiting user `i` could be
    /// scheduled, counting from slot `from`, and lets the user sleep until
    /// then (until the policy's next plan for `None`) behind a wake in the
    /// calendar. The scan reference decides every waiting user in every
    /// slot and asks nothing.
    fn ask_next_decision(&mut self, i: usize, from: u64) {
        if !self.indexed {
            return;
        }
        match self.policy.next_decision_slot(i, from) {
            Some(wake) if wake <= from => self.users.wake(i, from),
            next => {
                let wake = next.unwrap_or(u64::MAX);
                self.users.sleep(i, from, wake);
                // A wake past the horizon is never filed.
                self.calendar.push(wake, i, Deadline::Wake);
            }
        }
    }

    /// The world check: battery accounting, churn transitions and the
    /// resulting offline/online flips, in ascending user order on the
    /// driving thread. Runs at every multiple of [`CHECK_EVERY_SLOTS`].
    fn world_check(&mut self, slot: u64) {
        let Some(mut w) = self.world.take() else {
            return;
        };
        let elapsed = slot - w.last_check_slot;
        w.last_check_slot = slot;
        self.stats.user_visits += self.users.len() as u64;
        for i in 0..self.users.len() {
            if let Some(b) = w.battery.as_mut() {
                // Debit exactly the energy accrued since the last check
                // (pending spans land first so the profiler total is the
                // scan-reference value), then credit the charging window.
                self.flush_pending(i);
                let total = self.profilers[i].total_energy().value();
                let drain = total - b.last_total_j[i];
                b.last_total_j[i] = total;
                b.stored_j[i] = (b.stored_j[i] - drain).max(0.0);
                if elapsed > 0 && b.params.is_charging(i, slot) {
                    let added = b
                        .params
                        .charge_added_j(elapsed, self.config.scheduler.slot_seconds);
                    b.stored_j[i] = (b.stored_j[i] + added).min(b.capacity_j[i]);
                }
                let soc = b.stored_j[i] / b.capacity_j[i];
                if !w.battery_dead[i] && soc <= b.params.die_soc {
                    w.battery_dead[i] = true;
                    self.emit(
                        slot,
                        EventKind::BatteryDepleted {
                            user: i as u64,
                            soc,
                        },
                    );
                } else if w.battery_dead[i] && soc >= b.params.rejoin_soc {
                    w.battery_dead[i] = false;
                    self.emit(
                        slot,
                        EventKind::Recharged {
                            user: i as u64,
                            soc,
                        },
                    );
                }
            }
            if let Some(intervals) = w.churn_intervals.as_ref() {
                let offline = ChurnSpec::is_offline(&intervals[i], slot);
                if offline != w.churned[i] {
                    w.churned[i] = offline;
                    self.emit(
                        slot,
                        EventKind::UserChurned {
                            user: i as u64,
                            offline,
                        },
                    );
                }
            }
            // Reconcile the phase with the world's verdict. Users parked at
            // the round barrier already uploaded; they go dark at requeue
            // time instead, so the sync buffer stays consistent.
            let wants_offline = w.wants_offline(i);
            let is_offline = matches!(self.users.phase(i), TrainingPhase::Offline);
            if wants_offline && !is_offline {
                if !matches!(self.users.phase(i), TrainingPhase::RoundBarrier) {
                    self.go_offline(i);
                }
            } else if !wants_offline && is_offline {
                self.come_online(i, slot);
            }
        }
        self.world = Some(w);
    }

    /// Evaluates the current global model on the held-out test set.
    fn evaluate_global(&mut self) -> Option<f32> {
        self.refresh_model();
        let ml = self.ml.as_mut()?;
        ml.eval_net.set_parameters(&self.model.params).ok()?;
        let n = ml.eval_examples;
        fedco_fl::client::evaluate_network(&mut ml.eval_net, &ml.test_set, n).ok()
    }

    /// Runs the simulation to the end of the horizon and returns the result:
    /// the slot loop with its per-user phases driven from the event indices
    /// (see the module docs). Bit-identical to [`Simulation::run_dense`].
    ///
    /// A simulation runs once: calling this or [`Simulation::run_dense`]
    /// again steps nothing, records no event and returns the first run's
    /// result without its series (`trace`, `user_gaps`, `updates`).
    pub fn run(&mut self) -> SimResult {
        self.run_slots(true)
    }

    /// Runs the simulation with every per-user phase a plain scan of the
    /// fleet. This is the reference implementation [`Simulation::run`] is
    /// tested and benchmarked against; results and telemetry are
    /// bit-identical between the two.
    pub fn run_dense(&mut self) -> SimResult {
        self.run_slots(false)
    }

    /// The slot loop: every slot of the horizon, one after the other.
    fn run_slots(&mut self, indexed: bool) -> SimResult {
        if let Some(summary) = &self.finished {
            return summary.clone();
        }
        self.begin_run(indexed);
        let mut acc = RunAccum::default();
        while !self.clock.finished() {
            self.step_slot(&mut acc);
            self.stats.dense_slots += 1;
        }
        self.finish(acc)
    }

    /// Statistics of the most recent run.
    pub fn engine_stats(&self) -> EngineStats {
        self.stats
    }

    /// Sets up the driver state of the one run.
    fn begin_run(&mut self, indexed: bool) {
        self.indexed = indexed;
        self.policy_quiescent = self.policy.quiescent_while_waiting();
        if self.policy.round_barrier() {
            self.sync_buffer.reserve_exact(self.users.len());
        }
        if indexed {
            // Every user starts accruing at the first power phase, which
            // looks at all of them once; nothing is due yet.
            self.calendar = Calendar::new(self.config.total_slots);
            self.dirty = (0..self.users.len() as u32).collect();
        }
        self.emit(
            0,
            EventKind::run_start(
                self.config.num_users as u64,
                self.config.total_slots,
                self.config.policy.label(),
            ),
        );
    }

    /// Slot phase 2 for one waiting user: the policy's decision, its energy
    /// overhead (`overhead_fraction` of Table III's, zero when free), and
    /// the outcome — training starts, or one more idle slot.
    ///
    /// This is what a fleet that mostly waits spends its run in, so it is
    /// forced into both decision loops: as a call it cost the waiting-heavy
    /// 100-device throughput cells a quarter of their time.
    #[inline(always)]
    fn decide_user(
        &mut self,
        i: usize,
        slot: u64,
        predicted: GradientGap,
        overhead_fraction: f64,
        tally: &mut DecisionTally,
    ) {
        let status = self.users.app_status(i);
        let idle_gap = GradientGap(self.users.gap_value(i).0 + self.users.epsilon());
        let input =
            OnlineDecisionInput::from_profile(self.users.profile(i), status, predicted, idle_gap);
        let ctx = UserSlotContext {
            user_id: i,
            slot,
            app_status: status,
            input,
        };
        let decision = self.policy.decide(&ctx);
        // Charge the decision-computation overhead the policy declares
        // (Table III measures it for the online controller; the baselines
        // decide for free).
        if overhead_fraction > 0.0 {
            let extra = self.decision_overhead(i, overhead_fraction);
            self.flush_pending(i);
            self.profilers[i].record_extra(EnergyComponent::Idle, extra);
        }
        match decision {
            SlotDecision::Schedule => {
                let corunning = status.is_app();
                let duration_s = match status {
                    AppStatus::App(app) => self.users.profile(i).corun_time(app).value(),
                    AppStatus::NoApp => self.users.profile(i).training_time().value(),
                };
                let slots = self.clock.slots_for(duration_s);
                tally.drained_wait_slots += self.users.current_wait_slots[i] as usize + 1;
                let until = self.users.start_training(i, slot, slots, corunning);
                self.file_deadline(i, until, Deadline::EpochDone);
                self.users.gap_schedule(i, predicted);
                tally.scheduled += 1;
                self.policy.notify_scheduled(i);
                self.emit(
                    slot,
                    EventKind::Schedule {
                        user: i as u64,
                        corun: corunning,
                    },
                );
            }
            SlotDecision::Idle => {
                // Still waiting at the end of this slot: the gap grows by
                // `ε` and the slot counts as waited.
                self.users.idle_slot(i);
            }
        }
    }

    /// Executes one slot and advances the clock by one.
    fn step_slot(&mut self, acc: &mut RunAccum) {
        {
            let slot = self.clock.slot();
            let now_s = self.clock.now_s();

            // (world) Battery accounting, churn transitions and the
            // resulting offline/online flips, at every check-cadence slot.
            // Runs before planning and arrivals so the rest of the slot
            // sees the post-transition fleet.
            if self.world.is_some() && slot % CHECK_EVERY_SLOTS == 0 {
                self.world_check(slot);
            }

            // (0) Look-ahead planning for policies that ask for it (the
            // offline knapsack by default; any custom policy can opt in via
            // the `wants_replanning` capability).
            if self.policy.wants_replanning(slot) {
                self.plan_offline_window(slot);
            }

            // (1) Application arrivals — the slot's row of the schedule
            // (ignored while another app runs) — then the phase census.
            self.phase_arrivals(slot);
            let (training_now, waiting_at_start) = self.phase_census();

            // (2) Scheduling decisions for waiting users.
            //
            // Queue semantics (Definition 3): every user that holds a pending
            // training task contributes one arrival per slot it remains
            // unscheduled, and scheduling a user drains the backlog it
            // accumulated while waiting. The task queue Q(t) therefore tracks
            // the total outstanding waiting work in user-slots, which is what
            // the Eq.-22 threshold `Q ≥ V·t_d·ΔP` acts on.
            // The momentum norm only feeds the decision inputs of waiting
            // users; with nobody waiting it is not asked for.
            let velocity = if waiting_at_start > 0 {
                self.velocity_norm()
            } else {
                0.0
            };
            // The momentum-predicted gap only depends on slot-wide state
            // (training count and velocity), so it is computed once per
            // slot — bit-identical to recomputing it per user.
            let predicted = self
                .predictor
                .predict_gap(Lag(training_now.max(1)), velocity);
            // The waiting users, ascending: the awake ones read off the
            // waiting set, or (the reference) all of them filtered out of a
            // scan of the fleet. A user leaves the set when it is
            // scheduled; none joins or wakes mid-loop.
            let mut tally = DecisionTally::default();
            // What each decision of this slot costs, read once: zero when
            // overhead accounting is off or the policy decides for free.
            let overhead = if self.config.decision_overhead {
                self.policy.decision_energy_overhead()
            } else {
                0.0
            };
            if self.indexed {
                // The scan charges every waiting user for its decision, so
                // nobody sleeps through a slot that costs one.
                if overhead > 0.0 {
                    self.stats.user_visits += self.users.wake_all(slot) as u64;
                }
                let awake = self.users.awake_count();
                self.stats.user_visits += awake as u64;
                if awake > 0 {
                    for b in 0..self.users.waiting_blocks() {
                        for i in self.users.awake_block(b) {
                            self.decide_user(i, slot, predicted, overhead, &mut tally);
                        }
                    }
                }
            } else {
                self.stats.user_visits += self.users.len() as u64;
                for i in 0..self.users.len() {
                    if self.users.is_waiting(i) {
                        self.decide_user(i, slot, predicted, overhead, &mut tally);
                    }
                }
            }

            // Idle outcomes repeat every waiting slot, a sleeper's too:
            // counted into the driver channel, never emitted per slot.
            if let Some(t) = self.telemetry.as_mut() {
                t.idle_decisions += (waiting_at_start - tally.scheduled) as u64;
            }

            // (3) Energy accounting and (4) timer expiry. The indexed loop
            // keeps each user's power as an open span closed on state
            // changes (batching the identical per-slot additions) and pops
            // the slot's deadlines off the calendar; the scan reference
            // records and checks every user, every slot.
            self.phase_power(slot);
            self.phase_tick(slot);

            // (5) Apply completed epochs to the server.
            let mut completed = std::mem::take(&mut self.completed);
            for (user_id, corunning) in completed.drain(..) {
                if corunning {
                    acc.corun_epochs += 1;
                }
                let mut update = self.make_update(user_id);
                // A compressed uplink loses update information: the pushed
                // parameters are pulled back toward the user's base
                // snapshot by the compression ratio (identity at ratio 1;
                // skipped entirely — bit-identically — when off).
                if self.config.world.compression.ratio().is_some() {
                    let spec = self.config.world.compression;
                    let damped: Vec<f32> = update
                        .params
                        .values()
                        .iter()
                        .zip(self.base_params[user_id].values())
                        .map(|(&p, &b)| spec.dampen(b, p))
                        .collect();
                    update.params = ParamVector::new(damped);
                }
                if self.policy.round_barrier() {
                    self.sync_buffer.push(update);
                    self.users.enter_barrier(user_id);
                    self.emit(
                        slot,
                        EventKind::Barrier {
                            depth: self.sync_buffer.len() as u64,
                        },
                    );
                } else {
                    // The per-update gap only feeds the UpdateEvent
                    // series; skip the O(params) distance in summary mode.
                    let gap = if self.config.collect_traces {
                        self.measured_gap(user_id)
                    } else {
                        0.0
                    };
                    self.momentum_norm = None;
                    let (lag, version) = self
                        .server
                        .apply_async(&update)
                        // fedco-audit: allow(panic-surface): updates come from clients sharing the server's architecture
                        .expect("update length matches global model");
                    self.applied += 1;
                    debug_assert_eq!(version.0, self.applied, "another writer moved the model");
                    // Recorded before the requeue, which may record the
                    // user's compressed upload.
                    self.emit(
                        slot,
                        EventKind::Merge {
                            user: user_id as u64,
                            lag: lag.value(),
                            version: version.0,
                        },
                    );
                    acc.total_lag += lag.value();
                    acc.max_lag = acc.max_lag.max(lag.value());
                    if self.config.collect_traces {
                        acc.updates.push(UpdateEvent {
                            t_s: now_s,
                            user_id,
                            lag: lag.value(),
                            gap,
                            corun: corunning,
                        });
                    }
                    self.requeue_user(user_id, slot);
                }
            }
            self.completed = completed;

            // (6) Round barrier: aggregate once every *online* participant
            // is done. Offline users neither train nor push, so the round
            // closes over the users the world left standing (with the
            // paper-default world the count is exactly the fleet size).
            let barrier_ready = self.policy.round_barrier()
                && !self.sync_buffer.is_empty()
                && self.sync_buffer.len() == self.online_users();
            if barrier_ready {
                let buffer = &self.sync_buffer;
                let mean_gap: f64 = if self.config.collect_traces {
                    buffer
                        .iter()
                        .map(|u| {
                            self.base_params[u.client_id]
                                .distance_l2(&u.params)
                                .map(|d| d as f64)
                                .unwrap_or(0.0)
                        })
                        // fedco-audit: allow(float-reduction): fixed-order reduction over the round buffer — deterministic by construction
                        .sum::<f64>()
                        / buffer.len().max(1) as f64
                } else {
                    0.0
                };
                self.momentum_norm = None;
                let version = self
                    .server
                    .apply_sync_round(buffer)
                    // fedco-audit: allow(panic-surface): round updates come from clients sharing the server's architecture
                    .expect("round updates match global model");
                self.applied += 1;
                debug_assert_eq!(version.0, self.applied, "another writer moved the model");
                self.emit(
                    slot,
                    EventKind::Round {
                        participants: buffer.len() as u64,
                        version: version.0,
                    },
                );
                self.sync_buffer.clear();
                if self.config.collect_traces {
                    acc.updates.push(UpdateEvent {
                        t_s: now_s,
                        user_id: usize::MAX,
                        lag: 0,
                        gap: mean_gap,
                        corun: false,
                    });
                }
                self.stats.user_visits += self.users.len() as u64;
                for i in 0..self.users.len() {
                    if !matches!(self.users.phase(i), TrainingPhase::Offline) {
                        self.requeue_user(i, slot);
                    }
                }
            }

            // (7) Queue dynamics. A quiescence-certified policy's
            // `end_of_slot` is a no-op and both backlogs are exactly zero,
            // so the indexed loop elides the gap fold, the call and the two
            // `+= 0.0` accumulations (exact no-ops on non-negative sums)
            // wholesale; the scan reference keeps them.
            if !(self.indexed && self.policy_quiescent) {
                // The fold over the gap lane: the arena's, which it holds
                // while no gap changes, or (the reference) afresh.
                let gap_sum = if self.indexed {
                    self.stats.user_visits += self.users.settle_all_idle(slot + 1) as u64;
                    self.users.gap_sum()
                } else {
                    self.users.fold_gaps()
                };
                let arrivals = waiting_at_start.saturating_sub(tally.scheduled);
                self.policy.end_of_slot(&SlotOutcome {
                    arrivals,
                    scheduled: tally.drained_wait_slots,
                    gap_sum,
                });
                acc.queue_sum += self.policy.queue_backlog();
                acc.vq_sum += self.policy.virtual_backlog();
            }

            // (8) Trace recording. Skipped wholesale in summary mode: the
            // periodic accuracy evaluation only feeds the trace (the final
            // accuracy is evaluated once after the loop), evaluation runs
            // the network in inference mode (no RNG draws), and the eval
            // net's parameters are overwritten before every use — so
            // skipping it cannot change any other stream.
            if self.config.collect_traces && slot % self.config.record_every_slots == 0 {
                // Trace points read profiler totals and the gap lane, so
                // pending spans and owed idle slots land first (no-ops in
                // the scan reference).
                self.flush_all_pending();
                self.stats.user_visits += self.users.settle_all_idle(slot + 1) as u64;
                if let Some(ml) = &self.ml {
                    if slot % ml.eval_every_slots == 0 {
                        if let Some(accuracy) = self.evaluate_global() {
                            acc.last_accuracy = Some(accuracy);
                        }
                    }
                }
                let gaps = self.users.gaps();
                let mean_gap = self.users.fold_gaps() / gaps.len().max(1) as f64;
                // fedco-audit: allow(float-reduction): max is order-insensitive over the user vector
                let max_gap = gaps.iter().copied().fold(0.0f64, f64::max);
                let total_energy_j: f64 = self
                    .profilers
                    .iter()
                    .map(|p| p.total_energy().value())
                    // fedco-audit: allow(float-reduction): fixed-order reduction over the per-user profilers — deterministic by construction
                    .sum();
                acc.trace.push(TracePoint {
                    t_s: now_s,
                    total_energy_j,
                    queue: self.policy.queue_backlog(),
                    virtual_queue: self.policy.virtual_backlog(),
                    mean_gap,
                    max_gap,
                    updates: self.applied,
                    accuracy: if self.ml.is_some() {
                        acc.last_accuracy
                    } else {
                        None
                    },
                });
                if self.config.record_user_gaps {
                    for (i, gap) in self.users.gaps().iter().enumerate() {
                        acc.user_gaps.push(UserGapPoint {
                            t_s: now_s,
                            user_id: i,
                            gap: *gap,
                        });
                    }
                }
            }

            // (9) Telemetry energy sampling. Independent of trace
            // collection so summary-only fleet jobs still sample.
            if self
                .telemetry
                .as_ref()
                .is_some_and(|t| slot % t.sample_every == 0)
            {
                self.emit_telemetry_energy(slot);
            }

            self.clock.tick();
        }
    }

    /// Assembles the result summary once the horizon is reached.
    fn finish(&mut self, acc: RunAccum) -> SimResult {
        // Epochs the horizon cut short are never uploaded: not run either.
        if let Some(ml) = self.ml.as_mut() {
            ml.epochs.iter_mut().for_each(|epoch| *epoch = None);
        }
        self.flush_all_pending();
        let total_slots = self.config.total_slots.max(1) as f64;
        let total_updates = self.applied;
        let by_component: Vec<(EnergyComponent, f64)> = self.energy_by_component().collect();
        let total_energy_j: f64 = self
            .profilers
            .iter()
            .map(|p| p.total_energy().value())
            // fedco-audit: allow(float-reduction): fixed-order reduction over users in index order
            .sum();
        // Close out the trace: the driver channel's one event (every slot
        // was stepped), then the final per-component totals and the run-end
        // marker at the horizon.
        let end = self.config.total_slots;
        let idle_decisions = self.telemetry.as_ref().map_or(0, |t| t.idle_decisions);
        self.emit(
            end,
            EventKind::DenseSpan {
                slots: self.stats.dense_slots,
                idle_decisions,
            },
        );
        for &(component, joules) in &by_component {
            self.emit(
                end,
                EventKind::Energy {
                    component: component.label(),
                    joules,
                },
            );
        }
        self.emit(
            end,
            EventKind::RunEnd {
                updates: total_updates,
                energy_j: total_energy_j,
            },
        );
        let final_accuracy = if self.ml.is_some() {
            self.evaluate_global()
        } else {
            None
        };
        let summary = SimResult {
            policy: self.config.policy.clone(),
            total_energy_j,
            energy_by_component: by_component,
            total_updates,
            corun_epochs: acc.corun_epochs,
            mean_lag: if total_updates > 0 {
                acc.total_lag as f64 / total_updates as f64
            } else {
                0.0
            },
            max_lag: acc.max_lag,
            final_accuracy,
            final_queue: self.policy.queue_backlog(),
            final_virtual_queue: self.policy.virtual_backlog(),
            mean_queue: acc.queue_sum / total_slots,
            mean_virtual_queue: acc.vq_sum / total_slots,
            trace: Vec::new(),
            user_gaps: Vec::new(),
            updates: Vec::new(),
        };
        self.finished = Some(summary.clone());
        SimResult {
            trace: acc.trace,
            user_gaps: acc.user_gaps,
            updates: acc.updates,
            ..summary
        }
    }
}

/// Builds and runs a simulation in one call. For summary-only results (what
/// the fleet dispatches) pass [`SimConfig::summary_only`]; the fallible path
/// is `Simulation::try_new(config)?.run()`.
///
/// # Panics
///
/// Panics with the specific [`ConfigError`] if the configuration is invalid.
pub fn run_simulation(config: SimConfig) -> SimResult {
    Simulation::new(config).run()
}

/// Builds and runs a simulation with tracing enabled, returning the result
/// together with the recorded event stream. The trace is a pure function of
/// the configuration: bit-identical across runs, and the same stream
/// [`Simulation::run_dense`] records. Telemetry sampling does not depend on
/// trace collection, so a [`SimConfig::summary_only`] run records it too.
///
/// # Panics
///
/// Panics with the specific [`ConfigError`] if the configuration is invalid.
pub fn run_simulation_traced(config: SimConfig) -> (SimResult, Vec<Event>) {
    let sink = BufferSink::shared();
    let mut sim = Simulation::new(config).with_telemetry(sink.clone());
    let result = sim.run();
    (result, sink.drain())
}

// The fleet executor moves configs into worker threads and runs simulations
// there; keep the whole pipeline `Send` (and the config shareable) by
// construction.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<Simulation>();
    assert_send::<SimConfig>();
    assert_sync::<SimConfig>();
    assert_send::<SimResult>();
};

// The engine holds one profiler per device: a million-device run pays every
// byte of it a million times.
const _: () = assert!(std::mem::size_of::<EnergyProfiler>() <= 64);

#[cfg(test)]
mod tests {
    use super::*;
    use fedco_core::experiment::MlConfig;
    use fedco_core::spec::PolicySpec;

    fn small(policy: PolicySpec) -> SimConfig {
        SimConfig::small(policy)
    }

    #[test]
    fn immediate_policy_trains_continuously() {
        let result = run_simulation(small(PolicySpec::Immediate));
        assert!(
            result.total_updates > 10,
            "updates {}",
            result.total_updates
        );
        assert!(result.total_energy_j > 0.0);
        assert_eq!(result.policy, PolicySpec::Immediate);
        // Training components dominate the energy mix.
        let training: f64 = result
            .energy_by_component
            .iter()
            .filter(|(c, _)| {
                matches!(
                    c,
                    EnergyComponent::TrainingOnly | EnergyComponent::CoRunning
                )
            })
            .map(|(_, e)| *e)
            .sum();
        assert!(training > result.total_energy_j * 0.5);
    }

    #[test]
    fn online_policy_saves_energy_versus_immediate() {
        let immediate = run_simulation(small(PolicySpec::Immediate));
        let online = run_simulation(small(PolicySpec::Online { v: None }));
        assert!(
            online.total_energy_j < immediate.total_energy_j,
            "online {} >= immediate {}",
            online.total_energy_j,
            immediate.total_energy_j
        );
        // Immediate makes at least as many updates.
        assert!(immediate.total_updates >= online.total_updates);
    }

    #[test]
    fn sync_policy_runs_rounds_with_zero_lag() {
        let result = run_simulation(small(PolicySpec::SyncSgd));
        assert!(result.total_updates >= 1);
        assert_eq!(result.max_lag, 0);
        assert_eq!(result.mean_lag, 0.0);
    }

    #[test]
    fn offline_policy_waits_for_corunning() {
        let mut config = small(PolicySpec::Offline);
        config.arrival_probability = 0.01;
        let result = run_simulation(config);
        let immediate = run_simulation(small(PolicySpec::Immediate));
        assert!(result.total_energy_j < immediate.total_energy_j);
    }

    #[test]
    fn ml_mode_produces_accuracy_curve() {
        let mut config = small(PolicySpec::Immediate);
        config.num_users = 3;
        config.total_slots = 900;
        config.ml = Some(MlConfig::tiny());
        config.record_every_slots = 50;
        let result = run_simulation(config);
        assert!(result.final_accuracy.is_some());
        let acc = result.final_accuracy.unwrap();
        assert!((0.0..=1.0).contains(&acc));
        assert!(result.trace.iter().any(|p| p.accuracy.is_some()));
    }

    #[test]
    fn trace_energy_is_monotonic() {
        let result = run_simulation(small(PolicySpec::Online { v: None }));
        for pair in result.trace.windows(2) {
            assert!(pair[1].total_energy_j >= pair[0].total_energy_j);
            assert!(pair[1].t_s > pair[0].t_s);
        }
        assert!(!result.trace.is_empty());
    }

    #[test]
    fn user_gap_recording_can_be_enabled() {
        let mut config = small(PolicySpec::Online { v: None });
        config.record_user_gaps = true;
        let result = run_simulation(config);
        assert!(!result.user_gaps.is_empty());
    }

    #[test]
    fn runs_are_deterministic_given_seed() {
        let a = run_simulation(small(PolicySpec::Online { v: None }));
        let b = run_simulation(small(PolicySpec::Online { v: None }));
        assert_eq!(a.total_energy_j, b.total_energy_j);
        assert_eq!(a.total_updates, b.total_updates);
        let c = run_simulation(small(PolicySpec::Online { v: None }).with_seed(99));
        assert!(c.total_energy_j != a.total_energy_j || c.total_updates != a.total_updates);
    }

    #[test]
    #[should_panic(expected = "invalid simulation configuration: num_users")]
    fn invalid_config_panics_naming_the_field() {
        let mut config = small(PolicySpec::Online { v: None });
        config.num_users = 0;
        let _ = Simulation::new(config);
    }

    #[test]
    fn try_new_returns_typed_errors_instead_of_panicking() {
        use fedco_core::experiment::ConfigError;
        let mut config = small(PolicySpec::Online { v: None });
        config.num_users = 0;
        assert_eq!(
            Simulation::try_new(config).err(),
            Some(ConfigError::ZeroUsers)
        );
        // A valid config runs exactly like the panicking path.
        let ok = Simulation::try_new(small(PolicySpec::Immediate))
            .expect("valid config")
            .run();
        let direct = run_simulation(small(PolicySpec::Immediate));
        assert_eq!(ok.total_energy_j.to_bits(), direct.total_energy_j.to_bits());
    }

    #[test]
    fn parameterized_online_specs_trade_energy_for_staleness() {
        // Smaller V weights the queues more, so the controller schedules
        // sooner: mean queue shrinks while energy grows towards Immediate.
        let base = small(PolicySpec::Online { v: None });
        let eager = run_simulation(base.clone().with_policy(PolicySpec::online_with_v(100.0)));
        let patient = run_simulation(base.with_policy(PolicySpec::online_with_v(50_000.0)));
        assert!(eager.total_updates >= patient.total_updates);
        assert!(eager.mean_queue <= patient.mean_queue);
        assert_eq!(eager.policy.label(), "Online(V=100)");
        assert_eq!(patient.policy.label(), "Online(V=50000)");
    }

    #[test]
    fn random_and_threshold_policies_run_through_the_engine() {
        let random = run_simulation(
            small(PolicySpec::Online { v: None })
                .with_policy(PolicySpec::Random { p: 0.2, salt: 0 }),
        );
        assert!(random.total_updates > 0);
        assert!(random.total_energy_j > 0.0);
        let threshold = run_simulation(small(PolicySpec::Online { v: None }).with_policy(
            PolicySpec::PowerThreshold {
                max_extra_watts: 0.65,
            },
        ));
        assert!(threshold.total_energy_j > 0.0);
        // Both run without barriers: lag accrues like the async baselines.
        assert_eq!(random.policy.label(), "Random(p=0.2, salt=0)");
        assert_eq!(threshold.policy.label(), "Threshold(dW<=0.65)");
    }

    /// Summary-only mode must change *what is stored*, never *what happens*:
    /// every scalar of the result stays bit-identical to a recording run.
    #[test]
    fn summary_mode_is_bit_identical_to_recording_mode() {
        for policy in PolicySpec::PAPER {
            let full = run_simulation(small(policy.clone()));
            let lean = run_simulation(small(policy.clone()).summary_only());
            assert_eq!(
                full.total_energy_j.to_bits(),
                lean.total_energy_j.to_bits(),
                "energy diverged for {policy:?}"
            );
            assert_eq!(full.total_updates, lean.total_updates);
            assert_eq!(full.corun_epochs, lean.corun_epochs);
            assert_eq!(full.mean_lag.to_bits(), lean.mean_lag.to_bits());
            assert_eq!(full.max_lag, lean.max_lag);
            assert_eq!(full.mean_queue.to_bits(), lean.mean_queue.to_bits());
            assert_eq!(full.final_accuracy, lean.final_accuracy);
            assert_eq!(full.energy_by_component, lean.energy_by_component);
            assert!(!full.trace.is_empty());
            assert!(lean.trace.is_empty());
            assert!(lean.updates.is_empty());
            assert!(lean.user_gaps.is_empty());
        }
    }

    #[test]
    fn summary_mode_with_ml_matches_recording_accuracy() {
        let mut config = small(PolicySpec::Immediate);
        config.num_users = 3;
        config.total_slots = 600;
        config.ml = Some(MlConfig::tiny());
        let full = run_simulation(config.clone());
        let lean = run_simulation(config.summary_only());
        assert_eq!(full.final_accuracy, lean.final_accuracy);
        assert_eq!(full.total_updates, lean.total_updates);
        assert_eq!(full.total_energy_j.to_bits(), lean.total_energy_j.to_bits());
    }

    #[test]
    fn telemetry_is_identical_scan_vs_indexed() {
        use fedco_telemetry::event::Channel;

        for policy in PolicySpec::PAPER {
            let traced = |indexed: bool| {
                let sink = BufferSink::shared();
                let mut sim = Simulation::new(small(policy.clone())).with_telemetry(sink.clone());
                let result = if indexed { sim.run() } else { sim.run_dense() };
                (result, sink.drain())
            };
            let (indexed_result, indexed_trace) = traced(true);
            let (scan_result, scan_trace) = traced(false);
            assert_eq!(
                indexed_result.total_energy_j.to_bits(),
                scan_result.total_energy_j.to_bits(),
                "energy diverged for {policy:?}"
            );
            // Every channel agrees: both step every slot.
            assert_eq!(scan_trace, indexed_trace, "trace diverged for {policy:?}");
            assert!(indexed_trace
                .iter()
                .any(|e| e.channel() == Channel::Semantic));
        }
    }

    #[test]
    fn attaching_telemetry_does_not_change_results() {
        for policy in PolicySpec::PAPER {
            let plain = run_simulation(small(policy.clone()));
            let (traced, events) = run_simulation_traced(small(policy.clone()));
            assert_eq!(
                plain.total_energy_j.to_bits(),
                traced.total_energy_j.to_bits(),
                "telemetry perturbed the run for {policy:?}"
            );
            assert_eq!(plain.total_updates, traced.total_updates);
            assert!(!events.is_empty());
            // The trace itself is deterministic across runs.
            let (_, again) = run_simulation_traced(small(policy.clone()));
            assert_eq!(events, again, "trace not reproducible for {policy:?}");
            // RunStart opens and RunEnd closes every trace.
            assert!(matches!(events[0].kind, EventKind::RunStart { .. }));
            assert!(matches!(
                events.last().map(|e| &e.kind),
                Some(EventKind::RunEnd { .. })
            ));
        }
    }

    /// The engine records every merge and round the server applies: their
    /// versions count 1, 2, … in stream order up to the run's update count,
    /// on the slots the engine stepped them in.
    #[test]
    fn merges_and_rounds_are_traced_in_version_order_within_the_horizon() {
        use fedco_core::scenario::ScenarioSpec;

        let spec: ScenarioSpec = "paper-default:users=5:slots=700".parse().expect("parses");
        for policy in [PolicySpec::Online { v: None }, PolicySpec::SyncSgd] {
            let config = spec.build_with_policy(policy.clone()).expect("builds");
            let horizon = config.total_slots;
            let (result, events) = run_simulation_traced(config);
            let mut versions = Vec::new();
            let mut max_merge_lag = 0;
            let mut last_slot = 0;
            for e in &events {
                let version = match e.kind {
                    EventKind::Merge { lag, version, .. } => {
                        max_merge_lag = max_merge_lag.max(lag);
                        version
                    }
                    EventKind::Round { version, .. } => version,
                    _ => continue,
                };
                assert!(e.slot >= last_slot && e.slot < horizon, "{policy:?}: {e:?}");
                last_slot = e.slot;
                versions.push(version);
            }
            assert!(result.total_updates > 0, "{policy:?} applies nothing");
            assert_eq!(
                versions,
                (1..=result.total_updates).collect::<Vec<_>>(),
                "{policy:?}"
            );
            assert_eq!(max_merge_lag, result.max_lag, "{policy:?}");
        }
    }

    /// The labels of the `energy` samples are the table the trace parser
    /// resolves them through: every trace the engine writes parses back.
    #[test]
    fn every_energy_component_label_resolves_through_the_telemetry_table() {
        use fedco_telemetry::event::{resolve_label, ENERGY_COMPONENTS};
        for component in EnergyComponent::ALL {
            let label = component.label();
            assert_eq!(resolve_label(ENERGY_COMPONENTS, label), Some(label));
            assert_eq!(ENERGY_COMPONENTS[component as usize], label);
        }
        assert_eq!(ENERGY_COMPONENTS.len(), EnergyComponent::ALL.len());
    }

    #[test]
    fn a_finished_simulation_runs_no_further() {
        let sink = BufferSink::shared();
        let mut sim =
            Simulation::new(small(PolicySpec::Online { v: None })).with_telemetry(sink.clone());
        let first = sim.run();
        assert!(first.corun_epochs > 0 && first.mean_queue > 0.0 && !first.trace.is_empty());
        assert!(!sink.drain().is_empty());
        let stats = sim.engine_stats();
        let scalars = SimResult {
            trace: Vec::new(),
            user_gaps: Vec::new(),
            updates: Vec::new(),
            ..first
        };
        for again in [sim.run(), sim.run_dense()] {
            assert_eq!(again, scalars);
        }
        assert!(sink.drain().is_empty(), "a finished run recorded events");
        assert_eq!(sim.engine_stats(), stats);
    }

    /// Only a run that reads a device's base copy of the model keeps one —
    /// the traced Definition-2 gap and the compressed uplink — and every run
    /// holds one copy of the global model, not one per device.
    #[test]
    fn base_copies_are_kept_only_where_they_are_read() {
        use fedco_world::compress::CompressionSpec;
        for policy in PolicySpec::PAPER {
            let traced = small(policy.clone());
            let summary = traced.clone().summary_only();
            let mut compressed = summary.clone();
            compressed.world.compression = CompressionSpec::Ratio(0.25);
            for (config, kept) in [(traced, true), (summary, false), (compressed, true)] {
                let users = config.num_users;
                let mut sim = Simulation::new(config);
                sim.run();
                let expected = if kept { users } else { 0 };
                assert_eq!(sim.base_params.len(), expected, "{policy:?}");
                assert_eq!(sim.model.version.0, sim.applied, "{policy:?}");
            }
        }
    }

    #[test]
    fn null_sink_telemetry_is_discarded() {
        use fedco_telemetry::sink::NullSink;
        let sim = Simulation::new(small(PolicySpec::Online { v: None }))
            .with_telemetry(Arc::new(NullSink));
        assert!(sim.telemetry.is_none(), "disabled sink must be discarded");
    }

    #[test]
    fn traced_energy_samples_are_cumulative_and_final() {
        let (result, events) = run_simulation_traced(small(PolicySpec::Immediate));
        // Per-component samples are non-decreasing over slots...
        let mut last: std::collections::BTreeMap<String, f64> = Default::default();
        let mut finals: std::collections::BTreeMap<String, f64> = Default::default();
        for e in &events {
            if let EventKind::Energy { component, joules } = &e.kind {
                let prev = last.insert(component.to_string(), *joules).unwrap_or(0.0);
                assert!(*joules >= prev, "{component} decreased");
                finals.insert(component.to_string(), *joules);
            }
        }
        // ...and the final samples reproduce the result's breakdown exactly.
        for (component, energy) in &result.energy_by_component {
            assert_eq!(
                finals.get(component.label()).copied().map(f64::to_bits),
                Some(energy.to_bits()),
                "final sample mismatch for {component:?}"
            );
        }
        // Summary-only tracing still samples energy identically.
        let (_, lean_events) = run_simulation_traced(small(PolicySpec::Immediate).summary_only());
        let lean_energy: Vec<&Event> = lean_events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Energy { .. }))
            .collect();
        assert!(!lean_energy.is_empty());
    }

    #[test]
    fn transport_charges_radio_energy_per_exchange() {
        use fedco_fl::transport::TransportModel;
        let base = small(PolicySpec::Immediate);
        let without = run_simulation(base.clone());
        let with = run_simulation(base.clone().with_transport(TransportModel::lte()));
        // Same schedule (the link does not change decisions)...
        assert_eq!(without.total_updates, with.total_updates);
        // ...but every async update paid one model exchange of radio energy.
        let radio: f64 = with
            .energy_by_component
            .iter()
            .filter(|(c, _)| *c == EnergyComponent::Radio)
            .map(|(_, e)| *e)
            .sum();
        let link = TransportModel::lte();
        let per_exchange = link
            .radio_energy(link.exchange_time(PAPER_MODEL_BYTES))
            .value();
        let expected = per_exchange * with.total_updates as f64;
        assert!(
            (radio - expected).abs() < 1e-6,
            "radio {radio} != {expected}"
        );
        assert!(with.total_energy_j > without.total_energy_j);
        // Wi-Fi is faster and lower-power than LTE, so it costs less radio.
        let wifi = run_simulation(base.with_transport(TransportModel::wifi()));
        assert!(wifi.total_energy_j < with.total_energy_j);
        assert!(wifi.total_energy_j > without.total_energy_j);
    }

    /// A run is the same run on any training pool: however many helper
    /// threads compute the devices' epochs, and whatever else shares them.
    mod training_pool {
        use super::*;
        use fedco_core::scenario::ScenarioSpec;

        const WORLD_DYNAMICS: &str = "ml-smoke:churn=heavy:battery=constrained:slots=6000:users=10";

        /// Everything a run leaves behind: the result, the final global model and
        /// the telemetry stream.
        fn run_on(
            pool: &Arc<TrainingPool>,
            scenario: &str,
            policy: PolicySpec,
        ) -> (SimResult, ParamVector, Vec<Event>) {
            let spec: ScenarioSpec = scenario.parse().expect("parses");
            let config = spec.build_with_policy(policy).expect("builds");
            let sink = BufferSink::shared();
            let mut sim = Simulation::with_training_pool(config, || pool.clone())
                .expect("valid")
                .with_telemetry(sink.clone());
            let result = sim.run();
            (result, sim.model_snapshot().params, sink.drain())
        }

        fn assert_same_for_any_helper_count(scenario: &str, policy: PolicySpec) {
            let serial = run_on(
                &Arc::new(TrainingPool::with_helpers(0)),
                scenario,
                policy.clone(),
            );
            assert!(serial.0.total_updates > 0, "{scenario} trains nothing");
            for helpers in [1, 4] {
                let pool = Arc::new(TrainingPool::with_helpers(helpers));
                let run = run_on(&pool, scenario, policy.clone());
                assert!(
                    run == serial,
                    "{scenario} under {policy:?} differs with {helpers} helper(s)"
                );
            }
        }

        #[test]
        fn zero_one_and_four_helpers_run_the_same_bits() {
            for policy in [
                PolicySpec::Online { v: None },
                PolicySpec::SyncSgd,
                PolicySpec::Immediate,
                PolicySpec::Offline,
            ] {
                assert_same_for_any_helper_count("ml-smoke", policy);
            }
            // Epochs aborted mid-training and devices rejoining (what
            // `tests/world_regression.rs` checks these scenarios do), with and
            // without a compressed uplink.
            for policy in [PolicySpec::Online { v: None }, PolicySpec::SyncSgd] {
                assert_same_for_any_helper_count(WORLD_DYNAMICS, policy.clone());
                assert_same_for_any_helper_count(&format!("{WORLD_DYNAMICS}:compress=0.5"), policy);
            }
        }

        #[test]
        fn helper_counts_agree_on_the_network_fig5_trains() {
            assert_same_for_any_helper_count(
                "paper-default:ml=full:slots=1200",
                PolicySpec::Online { v: None },
            );
        }

        #[test]
        fn dropping_a_simulation_mid_training_leaves_the_pool_to_the_next() {
            let pool = Arc::new(TrainingPool::with_helpers(1));
            let spec: ScenarioSpec = "paper-default:ml=full:slots=1200".parse().expect("parses");
            for _ in 0..3 {
                // Construction submits an epoch per device; the helper is in the
                // middle of one and the rest are queued when the simulation goes.
                let config = spec
                    .build_with_policy(PolicySpec::Immediate)
                    .expect("builds");
                drop(Simulation::with_training_pool(config, || pool.clone()).expect("valid"));
            }
            let after = run_on(&pool, WORLD_DYNAMICS, PolicySpec::Online { v: None });
            let fresh = run_on(
                &Arc::new(TrainingPool::with_helpers(1)),
                WORLD_DYNAMICS,
                PolicySpec::Online { v: None },
            );
            assert!(after == fresh);
        }
    }
}
