//! Experiment configuration presets and typed validation.
//!
//! [`SimConfig`] is the fully-resolved description of one simulation run.
//! It lives here in `fedco-core` (rather than in the simulator crate) so
//! that declarative scenario descriptions ([`ScenarioSpec`](crate::scenario::ScenarioSpec))
//! can [`build`](crate::scenario::ScenarioSpec::build) one without a
//! dependency cycle. A run names its transport link ([`LinkKind`]) and its
//! ML workload ([`MlMode`]); the engine resolves each name to its model once,
//! when it is built.

use crate::config::{SchedulerConfig, SchedulerConfigError};
use crate::spec::{PolicySpec, PolicySpecError};
use fedco_device::choices::UnknownChoice;
use fedco_device::profiles::DeviceKind;
use fedco_fl::transport::TransportModel;
use fedco_neural::lenet::LeNetConfig;
use fedco_world::WorldConfig;

/// Error returned when a [`DeviceAssignment::Custom`] list is empty: an
/// empty list assigns no device to anyone, so there is no sensible fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyDeviceList;

impl std::fmt::Display for EmptyDeviceList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("custom device assignment requires at least one device")
    }
}

impl std::error::Error for EmptyDeviceList {}

/// How devices are assigned to users.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum DeviceAssignment {
    /// Every user gets the same device model.
    Uniform(DeviceKind),
    /// Users cycle through the four testbed devices (the paper's setting:
    /// "each user randomly picks a device from the testbed").
    #[default]
    RoundRobinTestbed,
    /// An explicit device per user (cycled if shorter than the user count).
    /// Must be non-empty; build it through [`DeviceAssignment::custom`] to
    /// get the check at construction time.
    Custom(Vec<DeviceKind>),
}

impl DeviceAssignment {
    /// Builds a checked [`DeviceAssignment::Custom`], rejecting empty lists.
    pub fn custom(devices: Vec<DeviceKind>) -> Result<Self, EmptyDeviceList> {
        if devices.is_empty() {
            Err(EmptyDeviceList)
        } else {
            Ok(DeviceAssignment::Custom(devices))
        }
    }

    /// Whether the assignment can serve every user index.
    pub fn is_valid(&self) -> bool {
        match self {
            DeviceAssignment::Custom(devices) => !devices.is_empty(),
            _ => true,
        }
    }

    /// The device of a given user.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is an empty `Custom` list (which
    /// [`DeviceAssignment::custom`] and `SimConfig::validate` both reject).
    pub fn device_for(&self, user: usize) -> DeviceKind {
        match self {
            DeviceAssignment::Uniform(kind) => *kind,
            DeviceAssignment::RoundRobinTestbed => DeviceKind::ALL[user % DeviceKind::ALL.len()],
            DeviceAssignment::Custom(devices) => {
                assert!(!devices.is_empty(), "{EmptyDeviceList}");
                devices[user % devices.len()]
            }
        }
    }
}

/// The `devices=` token, which reports print too: `testbed`, one device
/// label in lowercase (uniform), or the `+`-joined labels of a custom list.
impl std::fmt::Display for DeviceAssignment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kinds = match self {
            DeviceAssignment::RoundRobinTestbed => return f.write_str("testbed"),
            DeviceAssignment::Uniform(kind) => std::slice::from_ref(kind),
            DeviceAssignment::Custom(kinds) => kinds,
        };
        let names: Vec<String> = kinds
            .iter()
            .map(|k| k.label().to_ascii_lowercase())
            .collect();
        f.write_str(&names.join("+"))
    }
}

/// Reads the `devices=` token back: `testbed` (the round-robin mix), one
/// device name (uniform) or a `+`-joined list (a cycled custom assignment),
/// names in any case.
impl std::str::FromStr for DeviceAssignment {
    type Err = UnknownChoice;

    fn from_str(value: &str) -> Result<Self, Self::Err> {
        if value.eq_ignore_ascii_case("testbed") {
            return Ok(DeviceAssignment::RoundRobinTestbed);
        }
        let kinds = value
            .split('+')
            .map(str::parse)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(match kinds[..] {
            [one] => DeviceAssignment::Uniform(one),
            _ => DeviceAssignment::Custom(kinds),
        })
    }
}

/// Configuration of the (optional) real machine-learning workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MlConfig {
    /// The network architecture trained on every device.
    pub architecture: LeNetConfig,
    /// Total number of synthetic CIFAR-like examples, split equally across
    /// users (the paper partitions CIFAR-10 equally over 25 users).
    pub total_examples: usize,
    /// Fraction of examples held out as the global test set.
    pub test_fraction: f32,
    /// How many test examples to use per accuracy evaluation.
    pub eval_examples: usize,
    /// Evaluate the global model every this many slots.
    pub eval_every_slots: u64,
    /// Mini-batch size (the paper uses 20).
    pub batch_size: usize,
    /// Pixel-noise level of the synthetic dataset.
    pub noise_std: f32,
}

impl Default for MlConfig {
    fn default() -> Self {
        MlConfig {
            architecture: LeNetConfig::compact(),
            total_examples: 1000,
            test_fraction: 0.2,
            eval_examples: 100,
            eval_every_slots: 200,
            batch_size: 20,
            noise_std: 0.35,
        }
    }
}

impl MlConfig {
    /// A very small configuration for unit/integration tests.
    pub fn tiny() -> Self {
        MlConfig {
            architecture: LeNetConfig::tiny(),
            total_examples: 120,
            test_fraction: 0.2,
            eval_examples: 24,
            eval_every_slots: 100,
            batch_size: 8,
            noise_std: 0.3,
        }
    }
}

fedco_device::choices! {
    /// The transport link of a run: the paper's ideal (radio-free)
    /// accounting or one of the [`TransportModel`] presets.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum LinkKind: "link" {
        /// No radio accounting (the paper's setting).
        Ideal = "ideal",
        /// Home Wi-Fi ([`TransportModel::wifi`]).
        Wifi = "wifi",
        /// Cellular LTE ([`TransportModel::lte`]).
        Lte = "lte",
    }
}

impl LinkKind {
    /// The transport model of this link, if any.
    pub fn model(self) -> Option<TransportModel> {
        match self {
            LinkKind::Ideal => None,
            LinkKind::Wifi => Some(TransportModel::wifi()),
            LinkKind::Lte => Some(TransportModel::lte()),
        }
    }
}

fedco_device::choices! {
    /// The machine-learning workload of a run, by preset name.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum MlMode: "ml mode" {
        /// Energy-only run: the gradient-gap dynamics are synthetic.
        #[default]
        Off = "off",
        /// The small test workload ([`MlConfig::tiny`]).
        Tiny = "tiny",
        /// The full default workload ([`MlConfig::default`]).
        Full = "full",
    }
}

impl MlMode {
    /// The workload configuration of this mode, if any.
    pub fn config(self) -> Option<MlConfig> {
        match self {
            MlMode::Off => None,
            MlMode::Tiny => Some(MlConfig::tiny()),
            MlMode::Full => Some(MlConfig::default()),
        }
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of users/devices (the paper uses 25).
    pub num_users: usize,
    /// Horizon in slots (the paper: 10 800 one-second slots, i.e. 3 hours).
    pub total_slots: u64,
    /// Per-slot Bernoulli application-arrival probability (paper: 0.001).
    pub arrival_probability: f64,
    /// Which scheduling policy drives the run: a built-in
    /// (`PolicySpec::Offline`), a parameterized one (`"online:v=1000"`
    /// parsed) or a custom factory.
    pub policy: PolicySpec,
    /// Scheduler parameters (V, L_b, ε, the slot length `t_d`, look-ahead
    /// window, η, β). `scheduler.slot_seconds` is the run's slot length.
    pub scheduler: SchedulerConfig,
    /// Master RNG seed.
    pub seed: u64,
    /// Device assignment across users.
    pub devices: DeviceAssignment,
    /// Record a trace point every this many slots.
    pub record_every_slots: u64,
    /// The real ML workload, by name ([`MlMode::config`] is its
    /// configuration); under [`MlMode::Off`] the run is energy-only and the
    /// gap predictor assumes a fixed momentum-vector norm.
    pub ml: MlMode,
    /// Whether to record per-user gap traces (Fig. 5d).
    pub record_user_gaps: bool,
    /// Whether to materialize the time series (`trace`, `updates`,
    /// `user_gaps`). Disable for fleet-scale sweeps: the run then keeps only
    /// O(users) state and the returned `SimResult` carries empty series while
    /// all scalar summaries (energy, updates, lag, accuracy, queues) are
    /// bit-identical to a recording run.
    pub collect_traces: bool,
    /// The transport link between the devices and the parameter server, by
    /// name ([`LinkKind::model`] is its model). Over a Wi-Fi or LTE link,
    /// every model exchange (upload of a local update plus re-download of
    /// the global model) charges radio energy for the transfer duration to
    /// the device under
    /// [`EnergyComponent::Radio`](fedco_device::profiler::EnergyComponent).
    /// [`LinkKind::Ideal`] reproduces the paper's accounting, which ignores
    /// the radio.
    pub link: LinkKind,
    /// The environment dynamics of the run: arrival model, battery
    /// lifecycles, churn and uplink compression. The default is the paper's
    /// world (Bernoulli arrivals, everything else off), under which the
    /// engine is bit-identical to its historical behaviour.
    pub world: WorldConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            num_users: 25,
            total_slots: 10_800,
            arrival_probability: 0.001,
            policy: PolicySpec::Online { v: None },
            scheduler: SchedulerConfig::default(),
            seed: 42,
            devices: DeviceAssignment::RoundRobinTestbed,
            record_every_slots: 60,
            ml: MlMode::Off,
            record_user_gaps: false,
            collect_traces: true,
            link: LinkKind::Ideal,
            world: WorldConfig::default(),
        }
    }
}

impl SimConfig {
    /// Largest fleet one simulation accepts: 10× the `mega` preset. Every
    /// per-user array is sized from `num_users` at construction, so an
    /// absurd count is rejected by [`SimConfig::validate`] — and by the
    /// scenario `users=` field — instead of reaching the allocator.
    pub const MAX_USERS: usize = 10_000_000;

    /// Shortest slot one simulation accepts, in seconds. Durations are
    /// converted to slots by dividing by the slot length, so a vanishing
    /// slot is rejected by [`SimConfig::validate`] — and by the scenario
    /// `slot_seconds=` field — instead of being clamped by the clock while
    /// energy accounting keeps the configured value.
    pub const MIN_SLOT_SECONDS: f64 = 1e-9;

    /// Longest horizon one simulation accepts: ~1 000× the paper's 10 800
    /// slots. The arrival index and the deadline calendar hold one entry
    /// per slot, so an absurd horizon is rejected by
    /// [`SimConfig::validate`] — and by the scenario `slots=` field —
    /// instead of spinning in the arrival generator and then reaching the
    /// allocator.
    pub const MAX_SLOTS: u64 = 10_000_000;

    /// The paper's main evaluation setting (Section VII-B) for a given
    /// policy: 25 users, 3 hours, arrival probability 0.001, V = 4000,
    /// L_b = 1000.
    pub fn paper_default(policy: PolicySpec) -> Self {
        SimConfig {
            policy,
            ..SimConfig::default()
        }
    }

    /// A fast, small configuration for tests: 6 users, 20 minutes. The
    /// `smoke` and `ml-smoke` scenario presets start from it.
    pub fn small(policy: PolicySpec) -> Self {
        SimConfig {
            num_users: 6,
            total_slots: 1200,
            arrival_probability: 0.005,
            policy,
            record_every_slots: 30,
            ..SimConfig::default()
        }
    }

    /// Returns a copy driven by a different policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicySpec) -> Self {
        self.policy = policy;
        self
    }

    /// Returns a copy with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy configured for summary-only execution: no time series
    /// and no per-user gap samples. This is what the fleet runtime uses so
    /// sweeps never materialize traces.
    #[must_use]
    pub fn summary_only(mut self) -> Self {
        self.collect_traces = false;
        self.record_user_gaps = false;
        self
    }

    /// Validates the configuration, returning a typed [`ConfigError`] that
    /// names the offending field and its value on failure.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_users == 0 {
            return Err(ConfigError::ZeroUsers);
        }
        if self.num_users > SimConfig::MAX_USERS {
            return Err(ConfigError::TooManyUsers(self.num_users));
        }
        if self.total_slots == 0 {
            return Err(ConfigError::ZeroSlots);
        }
        if self.total_slots > SimConfig::MAX_SLOTS {
            return Err(ConfigError::TooManySlots(self.total_slots));
        }
        let slot_seconds = self.scheduler.slot_seconds;
        if !(slot_seconds >= SimConfig::MIN_SLOT_SECONDS && slot_seconds.is_finite()) {
            return Err(ConfigError::NonPositiveSlotSeconds(slot_seconds));
        }
        if !(0.0..=1.0).contains(&self.arrival_probability) {
            return Err(ConfigError::ArrivalProbabilityOutOfRange(
                self.arrival_probability,
            ));
        }
        if self.record_every_slots == 0 {
            return Err(ConfigError::ZeroRecordEverySlots);
        }
        if let Some(ratio) = self.world.compression.ratio() {
            if !(ratio.is_finite() && ratio > 0.0 && ratio <= 1.0) {
                return Err(ConfigError::CompressionRatioOutOfRange(ratio));
            }
        }
        self.scheduler.validate().map_err(ConfigError::Scheduler)?;
        self.policy.validate().map_err(ConfigError::Policy)?;
        if !self.devices.is_valid() {
            return Err(ConfigError::Devices(EmptyDeviceList));
        }
        Ok(())
    }
}

/// A typed description of why a [`SimConfig`] was rejected. Each variant
/// names the offending field; `Display` spells out the field and the value.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `num_users` is zero.
    ZeroUsers,
    /// `num_users` exceeds [`SimConfig::MAX_USERS`] (value attached).
    TooManyUsers(usize),
    /// `total_slots` is zero.
    ZeroSlots,
    /// `total_slots` exceeds [`SimConfig::MAX_SLOTS`] (value attached).
    TooManySlots(u64),
    /// `scheduler.slot_seconds` is not a finite number of at least
    /// [`SimConfig::MIN_SLOT_SECONDS`] (value attached).
    NonPositiveSlotSeconds(f64),
    /// `arrival_probability` is outside `[0, 1]` (value attached).
    ArrivalProbabilityOutOfRange(f64),
    /// `record_every_slots` is zero.
    ZeroRecordEverySlots,
    /// The world's uplink-compression ratio is outside `(0, 1]` (value
    /// attached).
    CompressionRatioOutOfRange(f64),
    /// A `scheduler` field is out of range (field and value attached).
    Scheduler(SchedulerConfigError),
    /// A `policy` spec parameter is out of range (spec label, parameter and
    /// value attached) — the label keys every report, so the built policy
    /// must honour it exactly.
    Policy(PolicySpecError),
    /// The `devices` assignment is an empty custom list.
    Devices(EmptyDeviceList),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroUsers => f.write_str("num_users must be at least 1 (got 0)"),
            ConfigError::TooManyUsers(n) => write!(
                f,
                "num_users must be at most MAX_USERS = {} (got {n})",
                SimConfig::MAX_USERS
            ),
            ConfigError::ZeroSlots => f.write_str("total_slots must be at least 1 (got 0)"),
            ConfigError::TooManySlots(n) => write!(
                f,
                "total_slots must be at most MAX_SLOTS = {} (got {n})",
                SimConfig::MAX_SLOTS
            ),
            ConfigError::NonPositiveSlotSeconds(v) => {
                write!(
                    f,
                    "slot_seconds must be a finite positive number of seconds, \
at least MIN_SLOT_SECONDS = {:e} (got {v})",
                    SimConfig::MIN_SLOT_SECONDS
                )
            }
            ConfigError::ArrivalProbabilityOutOfRange(v) => {
                write!(f, "arrival_probability must lie in [0, 1] (got {v})")
            }
            ConfigError::ZeroRecordEverySlots => {
                f.write_str("record_every_slots must be at least 1 (got 0)")
            }
            ConfigError::CompressionRatioOutOfRange(v) => {
                write!(f, "world compression ratio must lie in (0, 1] (got {v})")
            }
            ConfigError::Scheduler(e) => write!(f, "{e}"),
            ConfigError::Policy(e) => write!(f, "{e}"),
            ConfigError::Devices(e) => write!(f, "devices: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Scheduler(e) => Some(e),
            ConfigError::Policy(e) => Some(e),
            ConfigError::Devices(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_evaluation() {
        let c = SimConfig::default();
        assert_eq!(c.num_users, 25);
        assert_eq!(c.total_slots, 10_800);
        assert_eq!(c.arrival_probability, 0.001);
        assert_eq!(c.scheduler.v, 4000.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_produce_valid_configs() {
        let c = SimConfig::paper_default(PolicySpec::Offline).with_seed(7);
        assert_eq!(c.policy, PolicySpec::Offline);
        assert_eq!(c.seed, 7);
        assert!(c.validate().is_ok());
        assert!(SimConfig::small(PolicySpec::Online { v: None })
            .validate()
            .is_ok());
    }

    #[test]
    fn out_of_range_arrival_probability_is_rejected_not_clamped() {
        let c = SimConfig {
            arrival_probability: 7.0,
            ..SimConfig::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::ArrivalProbabilityOutOfRange(7.0))
        );
        let nan = SimConfig {
            arrival_probability: f64::NAN,
            ..SimConfig::default()
        };
        assert!(matches!(
            nan.validate(),
            Err(ConfigError::ArrivalProbabilityOutOfRange(v)) if v.is_nan()
        ));
    }

    #[test]
    fn invalid_configs_detected() {
        let c = SimConfig {
            num_users: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
        let c2 = SimConfig {
            record_every_slots: 0,
            ..SimConfig::default()
        };
        assert!(c2.validate().is_err());
    }

    #[test]
    fn validate_names_field_and_value() {
        assert_eq!(
            SimConfig {
                num_users: 0,
                ..SimConfig::default()
            }
            .validate(),
            Err(ConfigError::ZeroUsers)
        );
        assert_eq!(
            SimConfig {
                total_slots: 0,
                ..SimConfig::default()
            }
            .validate(),
            Err(ConfigError::ZeroSlots)
        );
        let long = SimConfig {
            total_slots: SimConfig::MAX_SLOTS + 1,
            ..SimConfig::default()
        };
        assert_eq!(
            long.validate(),
            Err(ConfigError::TooManySlots(SimConfig::MAX_SLOTS + 1))
        );
        let message = long.validate().unwrap_err().to_string();
        assert!(
            message.starts_with("total_slots") && message.contains("MAX_SLOTS = 10000000"),
            "{message}"
        );
        let mut c = SimConfig::default();
        c.scheduler.slot_seconds = -0.5;
        assert_eq!(c.validate(), Err(ConfigError::NonPositiveSlotSeconds(-0.5)));
        assert!(c.validate().unwrap_err().to_string().contains("-0.5"));
        // Shorter than the clock can divide by: rejected, naming the floor.
        let mut tiny = SimConfig::default();
        tiny.scheduler.slot_seconds = 1e-300;
        assert_eq!(
            tiny.validate(),
            Err(ConfigError::NonPositiveSlotSeconds(1e-300))
        );
        let message = tiny.validate().unwrap_err().to_string();
        assert!(
            message.starts_with("slot_seconds") && message.contains("MIN_SLOT_SECONDS = 1e-9"),
            "{message}"
        );
        let mut floor = SimConfig::default();
        floor.scheduler.slot_seconds = SimConfig::MIN_SLOT_SECONDS;
        assert_eq!(floor.validate(), Ok(()));
        let mut inf = SimConfig::default();
        inf.scheduler.slot_seconds = f64::INFINITY;
        assert_eq!(
            inf.validate(),
            Err(ConfigError::NonPositiveSlotSeconds(f64::INFINITY))
        );
        let p = SimConfig {
            arrival_probability: 3.0,
            ..SimConfig::default()
        };
        assert_eq!(
            p.validate(),
            Err(ConfigError::ArrivalProbabilityOutOfRange(3.0))
        );
        assert_eq!(
            SimConfig {
                record_every_slots: 0,
                ..SimConfig::default()
            }
            .validate(),
            Err(ConfigError::ZeroRecordEverySlots)
        );
        assert!(SimConfig::default().validate().is_ok());
    }

    #[test]
    fn validate_absorbs_nested_errors() {
        // Scheduler errors surface the nested field name.
        let mut c = SimConfig::default();
        c.scheduler.momentum_beta = 2.0;
        match c.validate() {
            Err(ConfigError::Scheduler(e)) => {
                assert_eq!(e.field, "momentum_beta");
                assert!(c
                    .validate()
                    .unwrap_err()
                    .to_string()
                    .contains("momentum_beta"));
            }
            other => panic!("expected scheduler error, got {other:?}"),
        }
        // Empty device lists become ConfigError::Devices.
        let d = SimConfig {
            devices: DeviceAssignment::Custom(vec![]),
            ..SimConfig::default()
        };
        assert_eq!(d.validate(), Err(ConfigError::Devices(EmptyDeviceList)));
        assert!(d.validate().unwrap_err().to_string().contains("device"));
        use std::error::Error;
        assert!(d.validate().unwrap_err().source().is_some());
        // Out-of-range policy-spec parameters become ConfigError::Policy, so
        // try_new rejects a spec whose label misdescribes the built policy.
        let p = SimConfig::default().with_policy(PolicySpec::online_with_v(-1.0));
        match p.validate() {
            Err(ConfigError::Policy(e)) => {
                assert_eq!(e.parameter, "v");
                let message = p.validate().unwrap_err().to_string();
                assert!(message.contains("non-negative"), "{message}");
            }
            other => panic!("expected policy error, got {other:?}"),
        }
    }

    #[test]
    fn with_policy_replaces_the_spec() {
        let c = SimConfig::default().with_policy(PolicySpec::Offline);
        assert_eq!(c.policy, PolicySpec::Offline);
        let c2 = SimConfig::default().with_policy(PolicySpec::online_with_v(1000.0));
        assert_eq!(c2.policy.label(), "Online(V=1000)");
    }

    #[test]
    fn device_assignment_variants() {
        assert_eq!(
            DeviceAssignment::Uniform(DeviceKind::Nexus6).device_for(7),
            DeviceKind::Nexus6
        );
        let rr = DeviceAssignment::RoundRobinTestbed;
        assert_eq!(rr.device_for(0), DeviceKind::Nexus6);
        assert_eq!(rr.device_for(3), DeviceKind::Pixel2);
        assert_eq!(rr.device_for(4), DeviceKind::Nexus6);
        let custom = DeviceAssignment::custom(vec![DeviceKind::Pixel2, DeviceKind::Hikey970])
            .expect("non-empty list");
        assert_eq!(custom.device_for(1), DeviceKind::Hikey970);
        assert_eq!(custom.device_for(2), DeviceKind::Pixel2);
        assert_eq!(
            DeviceAssignment::default(),
            DeviceAssignment::RoundRobinTestbed
        );
    }

    #[test]
    fn empty_custom_assignment_is_rejected() {
        assert_eq!(DeviceAssignment::custom(vec![]), Err(EmptyDeviceList));
        assert!(!DeviceAssignment::Custom(vec![]).is_valid());
        assert!(DeviceAssignment::RoundRobinTestbed.is_valid());
        // An invalid assignment invalidates the whole configuration, so the
        // engine refuses to build instead of silently defaulting to Pixel2.
        let config = SimConfig {
            devices: DeviceAssignment::Custom(vec![]),
            ..SimConfig::default()
        };
        assert!(config.validate().is_err());
        assert_eq!(
            EmptyDeviceList.to_string(),
            "custom device assignment requires at least one device"
        );
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_custom_assignment_panics_on_lookup() {
        let _ = DeviceAssignment::Custom(vec![]).device_for(9);
    }

    #[test]
    fn assignment_labels() {
        // A report prints an assignment as the token that assigns it.
        assert_eq!(DeviceAssignment::RoundRobinTestbed.to_string(), "testbed");
        assert_eq!(
            DeviceAssignment::Uniform(DeviceKind::Nexus6).to_string(),
            "nexus6"
        );
        assert_eq!(
            DeviceAssignment::Custom(vec![DeviceKind::Pixel2, DeviceKind::Hikey970]).to_string(),
            "pixel2+hikey970"
        );
    }

    #[test]
    fn summary_only_and_transport_builders() {
        let mut c = SimConfig::small(PolicySpec::Online { v: None }).summary_only();
        c.link = LinkKind::Lte;
        assert!(!c.collect_traces);
        assert!(!c.record_user_gaps);
        assert_eq!(c.link, LinkKind::Lte);
        assert!(c.validate().is_ok());
        // Default keeps the paper's accounting: traces on, no radio.
        let d = SimConfig::default();
        assert!(d.collect_traces);
        assert_eq!(d.link, LinkKind::Ideal);
    }

    #[test]
    fn world_defaults_to_the_paper_world_and_validates_compression() {
        use fedco_world::prelude::*;
        let c = SimConfig::default();
        assert!(c.world.is_paper_default());
        let compressed = SimConfig {
            world: WorldConfig {
                compression: CompressionSpec::Ratio(0.25),
                ..WorldConfig::default()
            },
            ..SimConfig::default()
        };
        assert!(compressed.validate().is_ok());
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let c = SimConfig {
                world: WorldConfig {
                    compression: CompressionSpec::Ratio(bad),
                    ..WorldConfig::default()
                },
                ..SimConfig::default()
            };
            match c.validate() {
                Err(ConfigError::CompressionRatioOutOfRange(v)) => {
                    assert!(v.is_nan() == bad.is_nan() && (v.is_nan() || v == bad));
                    assert!(c.validate().unwrap_err().to_string().contains("(0, 1]"));
                }
                other => panic!("ratio {bad}: expected compression error, got {other:?}"),
            }
        }
    }

    #[test]
    fn ml_config_presets() {
        let tiny = MlConfig::tiny();
        assert!(tiny.total_examples < MlConfig::default().total_examples);
        assert_eq!(MlConfig::default().batch_size, 20);
    }
}
