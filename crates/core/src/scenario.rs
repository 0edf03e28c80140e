//! Open scenario descriptions: [`ScenarioSpec`] is the currency the
//! simulator, the fleet runtime and the report writers exchange when they
//! talk about "which workload".
//!
//! A spec is a *name plus recorded overrides over one held [`SimConfig`]*:
//! the user population, horizon and slot length, the application-arrival
//! model, the device assignment, the transport link and ML workload (by
//! name: [`LinkKind`], [`MlMode`]), the trace/summary mode and the
//! FL/training knobs are that config's fields, stated once. The spec itself
//! keeps only what a `SimConfig` cannot say: its name and the overrides its
//! label prints. It plays the same role for workloads that [`PolicySpec`]
//! plays for policies:
//!
//! * a stable [`label`](ScenarioSpec::label) keys every report row — the
//!   preset name plus any recorded field overrides (`paper-default`,
//!   `sparse:users=50`);
//! * `FromStr` parses the CLI syntax `name[:key=value…]`, rejecting
//!   unknown names and unknown/duplicate keys with errors that name the
//!   offending token and list the valid choices (a closed token — a device,
//!   a world preset, a link, an ML mode — fails with the one
//!   [`UnknownChoice`](fedco_device::choices::UnknownChoice) shape);
//! * [`set`](ScenarioSpec::set) has no range rules of its own: it writes a
//!   value into a copy and runs [`SimConfig::validate`] on it, so an
//!   out-of-range value is rejected with the validator's reason after a
//!   `scenario field key=value:` prefix, and the spec stays untouched;
//! * [`parse_scenario_file`] reads a whole catalogue of named scenarios
//!   from a hand-rolled section/`key=value` text format (the workspace is
//!   offline — no serde);
//! * [`default_registry`](ScenarioSpec::default_registry) enumerates the
//!   built-in presets (`paper-default`, `sparse`, `dense-burst`,
//!   `hetero-devices`, `lte-uplink`, …);
//! * [`build_with_policy`](ScenarioSpec::build_with_policy) clones the held
//!   config, sets the policy and validates it.
//!
//! ```
//! use fedco_core::scenario::ScenarioSpec;
//!
//! let spec: ScenarioSpec = "paper-default:users=50:arrival_p=0.005".parse().unwrap();
//! assert_eq!(spec.label(), "paper-default:users=50:arrival_p=0.005");
//! let config = spec.build().unwrap();
//! assert_eq!(config.num_users, 50);
//! assert_eq!(config.arrival_probability, 0.005);
//! ```

use crate::config::SchedulerConfig;
use crate::experiment::{ConfigError, DeviceAssignment, LinkKind, MlMode, SimConfig};
use crate::spec::PolicySpec;
use fedco_device::profiles::DeviceKind;
use fedco_world::arrival::ArrivalSpec;
use fedco_world::battery::BatterySpec;
use fedco_world::churn::ChurnSpec;
use fedco_world::compress::CompressionSpec;
use fedco_world::WorldConfig;

/// The names of the built-in presets, in registry order.
pub const PRESET_NAMES: [&str; 15] = [
    "paper-default",
    "smoke",
    "ml-smoke",
    "sparse",
    "dense-burst",
    "hetero-devices",
    "lte-uplink",
    "wifi-fleet",
    "server-soak",
    "city-scale",
    "mega",
    "diurnal-day",
    "flash-crowd",
    "battery-constrained",
    "compressed-uplink",
];

/// The sweepable scenario fields, in canonical order. Every key is
/// accepted by [`ScenarioSpec::set`], the `name:key=value…` CLI syntax and
/// the scenario-file format, and any of them can back a fleet sweep axis.
pub const FIELD_KEYS: [&str; 17] = [
    "users",
    "slots",
    "slot_seconds",
    "arrival_p",
    "arrival",
    "battery",
    "churn",
    "compress",
    "devices",
    "link",
    "seed",
    "v",
    "lb",
    "epsilon",
    "ml",
    "record_every",
    "traces",
];

/// A named, validated, fully-declarative description of a simulation
/// scenario: a name and the field overrides recorded against it, over the
/// one [`SimConfig`] they describe.
///
/// A spec deliberately carries **no policy** choice: scenarios and policies
/// are independent sweep axes, and [`ScenarioSpec::build_with_policy`]
/// crosses them at the last moment. Construct specs from the registry
/// ([`ScenarioSpec::preset`], `FromStr`), from a scenario file
/// ([`parse_scenario_file`]) or via [`ScenarioSpec::set`] and the `with_*`
/// builders; the field values themselves are read-only accessors so the
/// recorded overrides — and with them the [`label`](ScenarioSpec::label)
/// that keys every report row — can never drift out of sync with the fields.
///
/// Every spec from the registry, a string or a file holds a valid config:
/// [`set`](ScenarioSpec::set) writes a value into a copy, runs
/// [`SimConfig::validate`] on it and only then commits. The typed `with_*`
/// builders write through unchecked, and [`build`](ScenarioSpec::build)
/// validates again, so an out-of-range builder value is reported there.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    name: String,
    /// Overrides recorded against the name, in first-set order, with
    /// canonical value formatting; the label appends them as `:key=value`.
    overrides: Vec<(&'static str, String)>,
    /// The run, driven by the default policy until a build crosses it with
    /// another.
    config: SimConfig,
}

impl ScenarioSpec {
    /// The paper's main evaluation ([`SimConfig::default`]) under a
    /// caller-chosen name.
    fn base(name: impl Into<String>) -> Self {
        ScenarioSpec {
            name: name.into(),
            overrides: Vec::new(),
            config: SimConfig::default(),
        }
    }

    /// The built-in preset of the given name, if it exists. The presets:
    ///
    /// | name | regime |
    /// |------|--------|
    /// | `paper-default` | the paper's Section VII-B setting: 25 users, 3 h, p = 0.001, testbed mix, no radio |
    /// | `smoke` | 6 users, 20 min, p = 0.005 — the fast test/CI configuration (`SimConfig::small`) |
    /// | `ml-smoke` | `smoke` plus the tiny real-LeNet workload |
    /// | `sparse` | arrivals an order of magnitude scarcer (p = 0.0002; Fig. 6's left end) |
    /// | `dense-burst` | 40 busy users switching apps at p = 0.01 over one hour (Fig. 6's right end) |
    /// | `hetero-devices` | a phone-heavy heterogeneous fleet (3× Pixel 2 : 1× Nexus 6 : 1× Nexus 6P : 1× HiKey 970) |
    /// | `lte-uplink` | paper setting with every model exchange charged over LTE |
    /// | `wifi-fleet` | 100 users on home Wi-Fi, summary-only (the fleet-scale regime) |
    /// | `server-soak` | 1200 churn-heavy users at p = 0.02 over 20 min, summary-only — the `fedco-server` session-churn soak fleet |
    /// | `city-scale` | 120 000 users over one hour, summary-only — the struct-of-arrays throughput regime |
    /// | `mega` | 1 000 000 users over the full 3-hour horizon, summary-only — the million-user engine regime |
    /// | `diurnal-day` | paper setting under the diurnal arrival curve (quiet nights, busy middays) |
    /// | `flash-crowd` | 40 users whose arrivals spike 25× mid-horizon (a viral-event burst) |
    /// | `battery-constrained` | paper setting with small half-charged batteries, light churn and a tight charging window — devices die and rejoin |
    /// | `compressed-uplink` | LTE exchanges with 4× upload compression trading radio energy against update quality |
    pub fn preset(name: &str) -> Option<ScenarioSpec> {
        let mut s = ScenarioSpec::base(name);
        let c = &mut s.config;
        match name {
            "paper-default" => {}
            "smoke" => *c = SimConfig::small(c.policy.clone()),
            "ml-smoke" => {
                *c = SimConfig::small(c.policy.clone());
                c.ml = MlMode::Tiny;
            }
            "sparse" => c.arrival_probability = 0.0002,
            "dense-burst" => {
                c.num_users = 40;
                c.total_slots = 3600;
                c.arrival_probability = 0.01;
            }
            "hetero-devices" => {
                c.devices = DeviceAssignment::Custom(vec![
                    DeviceKind::Pixel2,
                    DeviceKind::Pixel2,
                    DeviceKind::Pixel2,
                    DeviceKind::Nexus6,
                    DeviceKind::Nexus6P,
                    DeviceKind::Hikey970,
                ]);
            }
            "lte-uplink" => c.link = LinkKind::Lte,
            "wifi-fleet" => {
                c.num_users = 100;
                c.link = LinkKind::Wifi;
                c.collect_traces = false;
            }
            "server-soak" => {
                c.num_users = 1200;
                c.total_slots = 1200;
                c.arrival_probability = 0.02;
                c.collect_traces = false;
            }
            "city-scale" => {
                c.num_users = 120_000;
                c.total_slots = 3600;
                c.collect_traces = false;
            }
            "mega" => {
                c.num_users = 1_000_000;
                c.collect_traces = false;
            }
            "diurnal-day" => {
                c.world.arrival = ArrivalSpec::Diurnal;
                c.arrival_probability = 0.002;
            }
            "flash-crowd" => {
                c.num_users = 40;
                c.total_slots = 3600;
                c.world.arrival = ArrivalSpec::FlashCrowd;
            }
            "battery-constrained" => {
                c.arrival_probability = 0.005;
                c.world.battery = BatterySpec::Constrained;
                c.world.churn = ChurnSpec::Light;
            }
            "compressed-uplink" => {
                c.link = LinkKind::Lte;
                c.world.compression = CompressionSpec::Ratio(0.25);
            }
            _ => return None,
        }
        Some(s)
    }

    /// The default scenario registry: every built-in preset, in
    /// [`PRESET_NAMES`] order. This is the set `--list-scenarios`
    /// prints and the registry-wide validity tests iterate over.
    pub fn default_registry() -> Vec<ScenarioSpec> {
        PRESET_NAMES
            .iter()
            // fedco-audit: allow(panic-surface): every PRESET_NAMES entry is a preset by construction (covered by registry tests)
            .map(|name| ScenarioSpec::preset(name).expect("registry preset"))
            .collect()
    }

    /// Re-names the spec: the new name becomes the whole identity of the
    /// current field values and the recorded overrides are cleared, so
    /// [`label`](ScenarioSpec::label) is just `name` until further fields
    /// change. This is how the scenario-file parser turns `base +
    /// overrides` sections into first-class named scenarios.
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self.overrides.clear();
        self
    }

    /// The stable label that keys report rows: the name, followed by every
    /// recorded override as `:key=value` in first-set order. For
    /// registry-derived specs the label is itself a parseable spec string,
    /// so `spec → label → parse → label` round-trips exactly.
    pub fn label(&self) -> String {
        let mut out = self.name.clone();
        for (key, value) in &self.overrides {
            out.push(':');
            out.push_str(key);
            out.push('=');
            out.push_str(value);
        }
        out
    }

    /// The scenario's name (the label without the overrides).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// User population.
    pub fn users(&self) -> usize {
        self.config.num_users
    }

    /// Horizon in slots.
    pub fn slots(&self) -> u64 {
        self.config.total_slots
    }

    /// Slot length in seconds (the scheduler's `t_d`).
    pub fn slot_seconds(&self) -> f64 {
        self.config.scheduler.slot_seconds
    }

    /// Per-slot Bernoulli application-arrival probability.
    pub fn arrival_p(&self) -> f64 {
        self.config.arrival_probability
    }

    /// Application-arrival process (`arrival_p` is its base rate).
    pub fn arrival(&self) -> ArrivalSpec {
        self.config.world.arrival
    }

    /// Battery/charging lifecycle model.
    pub fn battery(&self) -> BatterySpec {
        self.config.world.battery
    }

    /// Mid-horizon dropout/rejoin model.
    pub fn churn(&self) -> ChurnSpec {
        self.config.world.churn
    }

    /// Uplink-compression policy.
    pub fn compress(&self) -> CompressionSpec {
        self.config.world.compression
    }

    /// The resolved environment-dynamics configuration of the scenario.
    pub fn world(&self) -> WorldConfig {
        self.config.world.clone()
    }

    /// Device assignment across users.
    pub fn devices(&self) -> &DeviceAssignment {
        &self.config.devices
    }

    /// Transport link.
    pub fn link(&self) -> LinkKind {
        self.config.link
    }

    /// Base RNG seed.
    pub fn seed(&self) -> u64 {
        self.config.seed
    }

    /// Scheduler parameters (V, L_b, ε, the slot length, …).
    pub fn scheduler(&self) -> &SchedulerConfig {
        &self.config.scheduler
    }

    /// Machine-learning workload mode.
    pub fn ml(&self) -> MlMode {
        self.config.ml
    }

    /// Trace-recording cadence in slots.
    pub fn record_every(&self) -> u64 {
        self.config.record_every_slots
    }

    /// Whether time series are materialized (`false` = summary-only).
    pub fn traces(&self) -> bool {
        self.config.collect_traces
    }

    /// The canonical value text of one of the [`FIELD_KEYS`], as the label
    /// records it.
    fn value_of(&self, key: &str) -> String {
        let c = &self.config;
        match key {
            "users" => c.num_users.to_string(),
            "slots" => c.total_slots.to_string(),
            "slot_seconds" => c.scheduler.slot_seconds.to_string(),
            "arrival_p" => c.arrival_probability.to_string(),
            "arrival" => c.world.arrival.label().to_string(),
            "battery" => c.world.battery.label().to_string(),
            "churn" => c.world.churn.label().to_string(),
            "compress" => c.world.compression.label(),
            "devices" => c.devices.to_string(),
            "link" => c.link.label().to_string(),
            "seed" => c.seed.to_string(),
            "v" => c.scheduler.v.to_string(),
            "lb" => c.scheduler.staleness_bound.to_string(),
            "epsilon" => c.scheduler.epsilon.to_string(),
            "ml" => c.ml.label().to_string(),
            "record_every" => c.record_every_slots.to_string(),
            // `traces`, the last of the FIELD_KEYS (the only keys passed).
            _ => on_off(c.collect_traces).to_string(),
        }
    }

    /// Records the current value of a field as an override with canonical
    /// formatting: an existing entry for the key is replaced in place, so
    /// the label order is first-set order.
    fn record(&mut self, key: &'static str) {
        let value = self.value_of(key);
        match self.overrides.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) => entry.1 = value,
            None => self.overrides.push((key, value)),
        }
    }

    /// Writes one field of the held config and records it (the typed
    /// builders below; unchecked until [`build`](ScenarioSpec::build)).
    fn with(mut self, key: &'static str, write: impl FnOnce(&mut SimConfig)) -> Self {
        write(&mut self.config);
        self.record(key);
        self
    }

    /// Returns a copy with a different user population.
    #[must_use]
    pub fn with_users(self, users: usize) -> Self {
        self.with("users", |c| c.num_users = users)
    }

    /// Returns a copy with a different horizon.
    #[must_use]
    pub fn with_slots(self, slots: u64) -> Self {
        self.with("slots", |c| c.total_slots = slots)
    }

    /// Returns a copy with a different arrival probability.
    #[must_use]
    pub fn with_arrival_p(self, p: f64) -> Self {
        self.with("arrival_p", |c| c.arrival_probability = p)
    }

    /// Returns a copy with a different base seed.
    #[must_use]
    pub fn with_seed(self, seed: u64) -> Self {
        self.with("seed", |c| c.seed = seed)
    }

    /// Returns a copy with a different Lyapunov knob `V`.
    #[must_use]
    pub fn with_v(self, v: f64) -> Self {
        self.with("v", |c| c.scheduler.v = v)
    }

    /// Sets one field from its textual `key=value` form — the single entry
    /// point the CLI parser, the scenario-file parser and the fleet's sweep
    /// axes all share, so each of the [`FIELD_KEYS`] is uniformly
    /// sweepable. The value is parsed, written into a copy of the spec and
    /// checked by [`SimConfig::validate`]; only a valid copy is committed,
    /// so a rejected value leaves the spec untouched. Unknown keys and
    /// malformed or out-of-range values are rejected with an error naming
    /// the offending token (and the validator's reason) and, for unknown
    /// keys, listing the valid ones.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ParseScenarioError> {
        let key = key.trim().to_ascii_lowercase();
        let value = value.trim();
        let Some(&key) = FIELD_KEYS.iter().find(|k| **k == key) else {
            return Err(ParseScenarioError(format!(
                "unknown scenario field `{key}` (valid fields: {})",
                FIELD_KEYS.join(", ")
            )));
        };
        let bad =
            |detail: String| ParseScenarioError(format!("scenario field {key}={value}: {detail}"));
        let mut next = self.clone();
        let c = &mut next.config;
        match key {
            "users" => c.num_users = parsed(value).map_err(bad)?,
            "slots" => c.total_slots = parsed(value).map_err(bad)?,
            "slot_seconds" => c.scheduler.slot_seconds = parsed(value).map_err(bad)?,
            "arrival_p" => c.arrival_probability = parsed(value).map_err(bad)?,
            "arrival" => c.world.arrival = parsed(value).map_err(bad)?,
            "battery" => c.world.battery = parsed(value).map_err(bad)?,
            "churn" => c.world.churn = parsed(value).map_err(bad)?,
            "compress" => c.world.compression = CompressionSpec::parse(value).map_err(bad)?,
            "devices" => c.devices = parsed(value).map_err(bad)?,
            "link" => c.link = parsed(value).map_err(bad)?,
            "seed" => c.seed = parsed(value).map_err(bad)?,
            "v" => c.scheduler.v = parsed(value).map_err(bad)?,
            "lb" => c.scheduler.staleness_bound = parsed(value).map_err(bad)?,
            "epsilon" => c.scheduler.epsilon = parsed(value).map_err(bad)?,
            "ml" => c.ml = parsed(value).map_err(bad)?,
            "record_every" => c.record_every_slots = parsed(value).map_err(bad)?,
            _ => c.collect_traces = parse_on_off(value).map_err(bad)?,
        }
        next.config.validate().map_err(|e| bad(e.to_string()))?;
        next.record(key);
        *self = next;
        Ok(())
    }

    /// Resolves the spec into a full [`SimConfig`] driven by the given
    /// policy, flowing through [`SimConfig::validate`] so declarative
    /// scenarios obey exactly the rules of hand-built configurations.
    pub fn build_with_policy(&self, policy: PolicySpec) -> Result<SimConfig, ConfigError> {
        let config = self.config.clone().with_policy(policy);
        config.validate()?;
        Ok(config)
    }

    /// Resolves the spec with the default policy (the online controller at
    /// the configured `V`). Fleet sweeps cross scenarios with their own
    /// policy axis via [`ScenarioSpec::build_with_policy`].
    pub fn build(&self) -> Result<SimConfig, ConfigError> {
        self.build_with_policy(PolicySpec::Online { v: None })
    }

    /// Validates the spec by building it (and discarding the config).
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.build().map(|_| ())
    }
}

impl std::fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Error produced when parsing a [`ScenarioSpec`] from a string or a
/// scenario file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScenarioError(String);

impl ParseScenarioError {
    /// A parse error with the given message. Exposed so downstream parsers
    /// building on the scenario syntax (e.g. the fleet's sweep-axis CLI)
    /// can report their own token errors in the same type.
    pub fn new(message: impl Into<String>) -> Self {
        ParseScenarioError(message.into())
    }
}

impl std::fmt::Display for ParseScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseScenarioError {}

/// Parses the CLI syntax `name[:key=value[:key=value…]]`, where `name` is
/// a registry preset and every key is one of [`FIELD_KEYS`]:
///
/// * `paper-default`
/// * `sparse:users=50`
/// * `lte-uplink:arrival_p=0.005:devices=pixel2+hikey970`
///
/// Unknown names list the available presets; unknown keys list the valid
/// fields; duplicate keys and out-of-range values are rejected.
impl std::str::FromStr for ScenarioSpec {
    type Err = ParseScenarioError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.trim().split(':');
        let name = parts.next().unwrap_or_default().trim().to_ascii_lowercase();
        let mut spec = ScenarioSpec::preset(&name).ok_or_else(|| {
            ParseScenarioError(format!(
                "unknown scenario `{name}` (available presets: {})",
                PRESET_NAMES.join(", ")
            ))
        })?;
        let mut seen: Vec<String> = Vec::new();
        for part in parts {
            let (key, value) = part.split_once('=').ok_or_else(|| {
                ParseScenarioError(format!("scenario parameter `{part}` is not key=value"))
            })?;
            let key = key.trim().to_ascii_lowercase();
            if seen.contains(&key) {
                return Err(ParseScenarioError(format!(
                    "duplicate scenario field `{key}`"
                )));
            }
            spec.set(&key, value)?;
            seen.push(key);
        }
        Ok(spec)
    }
}

/// Parses a number or a closed choice, keeping the parser's own message.
fn parsed<T: std::str::FromStr>(value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e: T::Err| e.to_string())
}

fn on_off(value: bool) -> &'static str {
    if value {
        "on"
    } else {
        "off"
    }
}

fn parse_on_off(value: &str) -> Result<bool, String> {
    match value.to_ascii_lowercase().as_str() {
        "on" | "true" | "yes" | "1" => Ok(true),
        "off" | "false" | "no" | "0" => Ok(false),
        other => Err(format!("`{other}` is not on/off")),
    }
}

/// Parses a scenario file: a catalogue of named scenarios in a hand-rolled
/// section/`key=value` text format (the workspace is offline — no serde).
///
/// ```text
/// # One section per scenario. The section name is the scenario's label.
/// [weekend-lte]
/// base = sparse            # optional registry preset to start from
/// users = 50               # then any FIELD_KEYS entry, one per line
/// link = lte
///
/// [night-idle]
/// arrival_p = 0.0001
/// traces = off
/// ```
///
/// Rules, each violation reported with its line number:
/// * blank lines and lines starting with `#` or `;` are skipped;
/// * a section is `[name]` where `name` uses only letters, digits, `_`,
///   `.` and `-`; duplicate names — and names shadowing a registry preset —
///   are rejected, since the name alone keys every report row;
/// * `base = <preset>` must be the first entry of its section when
///   present (default `paper-default`);
/// * every other line is `key = value` with a key from [`FIELD_KEYS`].
pub fn parse_scenario_file(text: &str) -> Result<Vec<ScenarioSpec>, ParseScenarioError> {
    let mut specs: Vec<ScenarioSpec> = Vec::new();
    let mut current: Option<(String, ScenarioSpec, Vec<String>)> = None;
    let at = |line_no: usize, detail: String| {
        ParseScenarioError(format!("scenario file line {line_no}: {detail}"))
    };
    let finish = |specs: &mut Vec<ScenarioSpec>,
                  section: Option<(String, ScenarioSpec, Vec<String>)>| {
        if let Some((name, spec, _)) = section {
            specs.push(spec.named(name));
        }
    };
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with(';') {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let name = header
                .strip_suffix(']')
                .ok_or_else(|| at(line_no, format!("unterminated section header `{line}`")))?
                .trim();
            if name.is_empty()
                || !name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
            {
                return Err(at(
                    line_no,
                    format!(
                        "section name `{name}` must use only letters, digits, `_`, `.` and `-`"
                    ),
                ));
            }
            if PRESET_NAMES.contains(&name) {
                return Err(at(
                    line_no,
                    format!(
                        "section `{name}` shadows the built-in preset of the same name; \
pick a different name"
                    ),
                ));
            }
            if specs.iter().any(|s| s.name() == name)
                || current.as_ref().is_some_and(|(n, _, _)| n == name)
            {
                return Err(at(line_no, format!("duplicate scenario section `{name}`")));
            }
            finish(&mut specs, current.take());
            current = Some((
                name.to_string(),
                ScenarioSpec::base("paper-default"),
                Vec::new(),
            ));
            continue;
        }
        let (key, value) = line.split_once('=').ok_or_else(|| {
            at(
                line_no,
                format!("`{line}` is not a section header or key = value"),
            )
        })?;
        let key = key.trim().to_ascii_lowercase();
        let value = value.trim();
        let Some((_, spec, seen)) = current.as_mut() else {
            return Err(at(
                line_no,
                format!("`{line}` appears before any [section] header"),
            ));
        };
        if key == "base" {
            if !seen.is_empty() {
                return Err(at(
                    line_no,
                    "`base` must be the first entry of its section".to_string(),
                ));
            }
            let name = value.to_ascii_lowercase();
            let base = ScenarioSpec::preset(&name).ok_or_else(|| {
                at(
                    line_no,
                    format!(
                        "unknown base preset `{value}` (available presets: {})",
                        PRESET_NAMES.join(", ")
                    ),
                )
            })?;
            *spec = base;
            seen.push("base".to_string());
            continue;
        }
        if seen.contains(&key) {
            return Err(at(line_no, format!("duplicate scenario field `{key}`")));
        }
        spec.set(&key, value)
            .map_err(|e| at(line_no, e.to_string()))?;
        seen.push(key);
    }
    finish(&mut specs, current.take());
    if specs.is_empty() {
        return Err(ParseScenarioError(
            "scenario file defines no scenarios (no [section] headers found)".to_string(),
        ));
    }
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::MlConfig;
    use fedco_fl::transport::TransportModel;

    #[test]
    fn presets_cover_the_registry_and_build_valid_configs() {
        let registry = ScenarioSpec::default_registry();
        assert_eq!(registry.len(), PRESET_NAMES.len());
        for (spec, name) in registry.iter().zip(PRESET_NAMES) {
            assert_eq!(spec.name(), name);
            assert_eq!(spec.label(), name, "presets carry no overrides");
            let config = spec.build().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(config.validate().is_ok(), "{name}");
        }
        assert!(ScenarioSpec::preset("warp-speed").is_none());
    }

    #[test]
    fn paper_default_build_matches_hand_built_config() {
        let spec = ScenarioSpec::preset("paper-default").expect("preset");
        let built = spec
            .build_with_policy(PolicySpec::Online { v: None })
            .expect("builds");
        assert_eq!(
            built,
            SimConfig::paper_default(PolicySpec::Online { v: None })
        );
        let smoke = ScenarioSpec::preset("smoke").expect("preset");
        assert_eq!(
            smoke
                .build_with_policy(PolicySpec::Offline)
                .expect("builds"),
            SimConfig::small(PolicySpec::Offline)
        );
    }

    #[test]
    fn builders_record_overrides_in_the_label() {
        let mut spec = ScenarioSpec::preset("paper-default")
            .expect("preset")
            .with_users(50)
            .with_arrival_p(0.005);
        spec.set("link", "lte").expect("valid link");
        assert_eq!(
            spec.label(),
            "paper-default:users=50:arrival_p=0.005:link=lte"
        );
        // Re-setting a key replaces the value in place, keeping the order.
        let spec = spec.with_users(60);
        assert_eq!(
            spec.label(),
            "paper-default:users=60:arrival_p=0.005:link=lte"
        );
        let config = spec.build().expect("builds");
        assert_eq!(config.num_users, 60);
        assert_eq!(config.link, LinkKind::Lte);
    }

    #[test]
    fn parse_round_trips_through_the_label() {
        let inputs = [
            "paper-default",
            "smoke:users=3",
            "sparse:users=50:arrival_p=0.005",
            "hetero-devices:devices=pixel2+hikey970:seed=7",
            "lte-uplink:v=1000:lb=500:epsilon=0.1",
            "wifi-fleet:traces=on:ml=tiny:record_every=10",
            "dense-burst:slot_seconds=0.5:slots=600",
            "paper-default:arrival=mmpp:battery=standard:churn=light",
            "diurnal-day:arrival=flash-crowd:compress=0.5",
            "flash-crowd:battery=constrained:churn=heavy:compress=0.25",
            "battery-constrained:battery=off:churn=off",
            "compressed-uplink:compress=off:arrival=diurnal",
        ];
        for input in inputs {
            let spec: ScenarioSpec = input.parse().unwrap_or_else(|e| panic!("{input}: {e}"));
            assert_eq!(spec.label(), input, "canonical inputs are fixed points");
            let reparsed: ScenarioSpec = spec.label().parse().expect("label re-parses");
            assert_eq!(reparsed.label(), spec.label());
            assert_eq!(reparsed, spec, "label carries the whole definition");
        }
        // Non-canonical spellings normalize into the canonical label.
        let spec: ScenarioSpec = "SMOKE:users=07:traces=TRUE".parse().expect("parses");
        assert_eq!(spec.label(), "smoke:users=7:traces=on");
    }

    #[test]
    fn parse_rejects_bad_specs_with_named_tokens() {
        let err = "warp-speed"
            .parse::<ScenarioSpec>()
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown scenario `warp-speed`"), "{err}");
        assert!(err.contains("paper-default"), "lists presets: {err}");

        let err = "smoke:warp=9"
            .parse::<ScenarioSpec>()
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown scenario field `warp`"), "{err}");
        assert!(err.contains("arrival_p"), "lists fields: {err}");

        let err = "smoke:users=3:users=4"
            .parse::<ScenarioSpec>()
            .unwrap_err()
            .to_string();
        assert!(err.contains("duplicate scenario field `users`"), "{err}");

        let err = "smoke:users"
            .parse::<ScenarioSpec>()
            .unwrap_err()
            .to_string();
        assert!(err.contains("not key=value"), "{err}");

        for (input, needle) in [
            ("smoke:users=0", "at least 1"),
            ("smoke:slots=0", "at least 1"),
            ("smoke:arrival_p=1.5", "[0, 1]"),
            ("smoke:arrival_p=nan", "[0, 1]"),
            ("smoke:slot_seconds=0", "positive"),
            ("smoke:slot_seconds=inf", "positive"),
            ("smoke:slot_seconds=1e-300", "MIN_SLOT_SECONDS = 1e-9"),
            ("smoke:v=-1", "non-negative"),
            ("smoke:lb=nan", "non-negative"),
            ("smoke:epsilon=-0.1", "non-negative"),
            ("smoke:record_every=0", "at least 1"),
            ("smoke:devices=warpphone", "unknown device `warpphone`"),
            ("smoke:link=carrier-pigeon", "ideal, wifi, lte"),
            ("smoke:ml=huge", "off, tiny, full"),
            ("smoke:traces=maybe", "not on/off"),
            ("smoke:arrival=poisson", "unknown arrival model `poisson`"),
            ("smoke:battery=nuclear", "unknown battery model `nuclear`"),
            ("smoke:churn=tidal", "unknown churn model `tidal`"),
            ("smoke:compress=2.0", "(0, 1]"),
            ("smoke:compress=gzip", "expected off or a ratio"),
        ] {
            let err = input.parse::<ScenarioSpec>().unwrap_err().to_string();
            assert!(err.contains(needle), "{input}: {err}");
        }
    }

    #[test]
    fn device_tokens_round_trip() {
        for value in ["testbed", "pixel2", "pixel2+hikey970", "nexus6+nexus6p"] {
            let parsed: DeviceAssignment = value.parse().expect(value);
            assert_eq!(parsed.to_string(), value);
        }
        assert_eq!(
            "testbed".parse::<DeviceAssignment>(),
            Ok(DeviceAssignment::RoundRobinTestbed)
        );
        assert_eq!(
            "Pixel2".parse::<DeviceAssignment>(),
            Ok(DeviceAssignment::Uniform(DeviceKind::Pixel2))
        );
        assert!("pixel2+warpphone".parse::<DeviceAssignment>().is_err());
    }

    #[test]
    fn link_kinds_resolve_models_and_labels() {
        assert_eq!(LinkKind::Ideal.model(), None);
        assert_eq!(LinkKind::Wifi.model(), Some(TransportModel::wifi()));
        assert_eq!(LinkKind::Lte.model(), Some(TransportModel::lte()));
        assert_eq!("WIFI".parse(), Ok(LinkKind::Wifi));
        assert!("bluetooth".parse::<LinkKind>().is_err());
    }

    #[test]
    fn ml_modes_map_to_configs() {
        assert_eq!(MlMode::Off.config(), None);
        assert_eq!(MlMode::Tiny.config(), Some(MlConfig::tiny()));
        assert_eq!(MlMode::Full.config(), Some(MlConfig::default()));
        assert_eq!("tiny".parse(), Ok(MlMode::Tiny));
        assert!("gigantic".parse::<MlMode>().is_err());
        assert_eq!(MlMode::default(), MlMode::Off);
    }

    /// Every closed choice of the scenario syntax parses each of its labels
    /// back, trimmed and in any case, and an unknown token's error names the
    /// token and every label.
    #[test]
    fn every_closed_choice_parses_its_labels_and_names_them_when_unknown() {
        use fedco_device::choices::UnknownChoice;
        use std::fmt::{Debug, Display};
        use std::str::FromStr;

        fn check<T>(all: &[T], noun: &str, unknown: &str)
        where
            T: Copy + PartialEq + Debug + Display + FromStr<Err = UnknownChoice>,
        {
            for &value in all {
                let label = value.to_string();
                for token in [
                    label.clone(),
                    label.to_ascii_lowercase(),
                    label.to_ascii_uppercase(),
                    format!(" \t{label} "),
                ] {
                    assert_eq!(token.parse::<T>(), Ok(value), "{noun} `{token}`");
                }
            }
            let err = format!("  {unknown} ")
                .parse::<T>()
                .unwrap_err()
                .to_string();
            assert!(
                err.starts_with(&format!("unknown {noun} `{unknown}` (expected ")),
                "{err}"
            );
            for value in all {
                let label = value.to_string().to_ascii_lowercase();
                assert!(err.contains(&label), "{err} lists {label}");
            }
        }

        check(&DeviceKind::ALL, "device", "warpphone");
        check(&ArrivalSpec::ALL, "arrival model", "poisson");
        check(&BatterySpec::ALL, "battery model", "nuclear");
        check(&ChurnSpec::ALL, "churn model", "tidal");
        check(&LinkKind::ALL, "link", "carrier-pigeon");
        check(&MlMode::ALL, "ml mode", "gigantic");
        // `ALL` is declaration order; the round-robin testbed cycles it.
        assert_eq!(
            DeviceKind::ALL,
            [
                DeviceKind::Nexus6,
                DeviceKind::Nexus6P,
                DeviceKind::Hikey970,
                DeviceKind::Pixel2
            ]
        );
        assert_eq!(DeviceKind::Hikey970.to_string(), "Hikey970");
        assert_eq!("flash".parse(), Ok(ArrivalSpec::FlashCrowd));
        let err = "warpphone".parse::<DeviceKind>().unwrap_err().to_string();
        assert!(err.contains("nexus6, nexus6p, hikey970, pixel2"), "{err}");
        assert_eq!(ArrivalSpec::default(), ArrivalSpec::Bernoulli);
        assert_eq!(BatterySpec::default(), BatterySpec::Off);
        assert_eq!(ChurnSpec::default(), ChurnSpec::Off);
    }

    #[test]
    fn world_fields_flow_into_the_built_config() {
        let spec: ScenarioSpec = "smoke:arrival=mmpp:battery=constrained:churn=heavy:compress=0.5"
            .parse()
            .expect("parses");
        assert_eq!(spec.arrival(), ArrivalSpec::Mmpp);
        assert_eq!(spec.battery(), BatterySpec::Constrained);
        assert_eq!(spec.churn(), ChurnSpec::Heavy);
        assert_eq!(spec.compress(), CompressionSpec::Ratio(0.5));
        let config = spec.build().expect("builds");
        assert_eq!(config.world, spec.world());
        assert!(!config.world.is_paper_default());
        assert!(config.world.needs_check_slots());
        // Presets that never mention the world get the paper's world.
        let paper = ScenarioSpec::preset("paper-default").expect("preset");
        assert!(paper.world().is_paper_default());
        assert!(paper.build().expect("builds").world.is_paper_default());
        // The world presets resolve the expected models.
        let diurnal = ScenarioSpec::preset("diurnal-day").expect("preset");
        assert_eq!(diurnal.arrival(), ArrivalSpec::Diurnal);
        let flash = ScenarioSpec::preset("flash-crowd").expect("preset");
        assert_eq!(flash.arrival(), ArrivalSpec::FlashCrowd);
        let battery = ScenarioSpec::preset("battery-constrained").expect("preset");
        assert_eq!(battery.battery(), BatterySpec::Constrained);
        assert_eq!(battery.churn(), ChurnSpec::Light);
        let compressed = ScenarioSpec::preset("compressed-uplink").expect("preset");
        assert_eq!(compressed.compress(), CompressionSpec::Ratio(0.25));
        assert_eq!(compressed.link(), LinkKind::Lte);
    }

    #[test]
    fn scenario_file_parses_sections_and_bases() {
        let text = "\
# fleet catalogue
[weekend-lte]
base = sparse
users = 50
link = lte

; alternative comment style
[night-idle]
arrival_p = 0.0001
traces = off
";
        let specs = parse_scenario_file(text).expect("parses");
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].label(), "weekend-lte");
        assert_eq!(specs[0].users(), 50);
        assert_eq!(specs[0].link(), LinkKind::Lte);
        assert_eq!(specs[0].arrival_p(), 0.0002, "inherited from sparse");
        assert_eq!(specs[1].label(), "night-idle");
        assert_eq!(specs[1].arrival_p(), 0.0001);
        assert!(!specs[1].traces());
        for spec in &specs {
            assert!(spec.build().is_ok());
        }
        // Post-parse overrides still show up in the label (sweep axes).
        let mut tweaked = specs[0].clone();
        tweaked.set("users", "60").expect("valid field");
        assert_eq!(tweaked.label(), "weekend-lte:users=60");
    }

    #[test]
    fn scenario_file_rejections_name_the_line() {
        let cases = [
            ("users = 5\n", "before any [section]"),
            ("[a]\nusers = 5\n[a]\n", "duplicate scenario section `a`"),
            ("[sparse]\n", "shadows the built-in preset"),
            ("[bad name]\n", "must use only letters"),
            ("[a\n", "unterminated section header"),
            ("[a]\nusers = 5\nbase = smoke\n", "must be the first entry"),
            ("[a]\nbase = warp\n", "unknown base preset `warp`"),
            ("[a]\nusers = 5\nusers = 6\n", "duplicate scenario field"),
            ("[a]\nusers = 0\n", "at least 1"),
            ("[a]\nnot a key value\n", "not a section header"),
            ("# only comments\n", "defines no scenarios"),
        ];
        for (text, needle) in cases {
            let err = parse_scenario_file(text).unwrap_err().to_string();
            assert!(err.contains(needle), "{text:?}: {err}");
        }
        // Line numbers point at the offending line.
        let err = parse_scenario_file("[a]\nusers = 5\nusers = 6\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("line 3"), "{err}");
    }

    #[test]
    fn named_specs_key_on_their_name_alone() {
        let spec = ScenarioSpec::preset("sparse")
            .expect("preset")
            .with_users(50)
            .named("my-workload");
        assert_eq!(spec.label(), "my-workload");
        assert_eq!(spec.users(), 50);
        // Later overrides extend the new identity.
        assert_eq!(spec.with_seed(9).label(), "my-workload:seed=9");
    }

    #[test]
    fn a_rejected_set_leaves_the_label_and_the_config_unchanged() {
        // `set` writes into a copy and commits only what validates.
        let spec: ScenarioSpec = "smoke:users=3:v=100".parse().expect("parses");
        let config = spec.build().expect("builds");
        for (key, value) in [
            ("users", "0"),
            ("users", "99999999999999"),
            ("slot_seconds", "1e-300"),
            ("slot_seconds", "-1"),
            ("v", "-1"),
            ("v", "inf"),
            ("record_every", "0"),
            ("devices", "pixel2+warpphone"),
        ] {
            let mut tried = spec.clone();
            let err = tried.set(key, value).unwrap_err().to_string();
            assert!(
                err.starts_with(&format!("scenario field {key}={value}: ")),
                "{err}"
            );
            assert_eq!(tried.label(), spec.label(), "{key}={value}");
            assert_eq!(tried.build(), Ok(config.clone()), "{key}={value}");
            assert_eq!(tried, spec, "{key}={value}");
        }
    }

    #[test]
    fn build_flows_through_sim_config_validation() {
        // `set` guards the parse path; a programmatically-broken scheduler
        // is still caught at build time by SimConfig::validate.
        let mut spec = ScenarioSpec::preset("smoke").expect("preset");
        spec.config.scheduler.momentum_beta = 2.0;
        match spec.build() {
            Err(ConfigError::Scheduler(e)) => assert_eq!(e.field, "momentum_beta"),
            other => panic!("expected scheduler error, got {other:?}"),
        }
        assert!(spec.validate().is_err());
    }

    #[test]
    fn build_with_policy_crosses_policies_into_the_config() {
        let spec = ScenarioSpec::preset("smoke").expect("preset");
        let offline = spec.build_with_policy(PolicySpec::Offline).expect("builds");
        assert_eq!(offline.policy.label(), "Offline");
        let v = spec
            .build_with_policy(PolicySpec::online_with_v(1000.0))
            .expect("builds");
        assert_eq!(v.policy.label(), "Online(V=1000)");
        // Out-of-range policy specs are rejected exactly like elsewhere.
        assert!(spec
            .build_with_policy(PolicySpec::online_with_v(f64::NAN))
            .is_err());
    }
}
