//! Sweep grids: the cartesian product of scenarios, open field axes,
//! policies and seeds.
//!
//! A [`ScenarioGrid`] crosses a vector of declarative [`ScenarioSpec`]s
//! with any number of [`FieldAxis`] dimensions (each sweeping one scenario
//! field through a list of values), a policy dimension of
//! [`PolicySpec`]s, and a replicate-seed dimension — then expands the
//! product into a flat job list. Unlike the fixed five-axis grid this
//! replaces, *any* scenario field ([`fedco_core::scenario::FIELD_KEYS`])
//! can be swept without touching Rust: `--axis arrival_p=0.001,0.01` and
//! `--axis users=10,100,1000` are just as first-class as the policy sweep.
//!
//! Every job owns a fully-resolved, summary-only configuration whose seed
//! is derived by folding the job's grid coordinates (and the resolved
//! scenario's own `seed` field) through SplitMix64
//! ([`fedco_rng::rngs::SplitMix64`]), so the per-job random streams are a
//! pure function of *where the job sits in the grid* — never of which
//! worker ran it or in what order. Report rows are keyed by the pair
//! `(scenario_label, policy_label)`, where the scenario label embeds the
//! axis overrides applied to that cell (e.g. `smoke:users=100`).

use fedco_core::experiment::{ConfigError, SimConfig};
use fedco_core::scenario::{ParseScenarioError, ScenarioSpec};
use fedco_core::spec::{PolicySpec, PolicySpecError};
use fedco_rng::rngs::SplitMix64;
use fedco_rng::SeedableRng;

/// One open sweep dimension: a scenario field key and the list of textual
/// values it steps through. Values are applied with
/// [`ScenarioSpec::set`], so anything the `name:key=value` CLI syntax
/// accepts can be swept, and each applied value shows up in the cell's
/// scenario label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldAxis {
    /// The scenario field being swept (one of
    /// [`fedco_core::scenario::FIELD_KEYS`]).
    pub key: String,
    /// The values the axis steps through, in sweep order.
    pub values: Vec<String>,
}

impl FieldAxis {
    /// An axis over the given field and values.
    pub fn new(key: impl Into<String>, values: Vec<String>) -> Self {
        FieldAxis {
            key: key.into(),
            values,
        }
    }

    /// Parses the CLI syntax `key=v1,v2,…`. Keys are case-insensitive,
    /// like the `--scenario` and scenario-file key paths.
    pub fn parse(s: &str) -> Result<Self, ParseScenarioError> {
        let (key, list) = s.split_once('=').ok_or_else(|| {
            ParseScenarioError::new(format!("sweep axis `{s}` is not KEY=V1,V2,..."))
        })?;
        let values: Vec<String> = list
            .split(',')
            .map(str::trim)
            .filter(|v| !v.is_empty())
            .map(String::from)
            .collect();
        Ok(FieldAxis::new(key.trim().to_ascii_lowercase(), values))
    }
}

/// The position of a job in the grid, as indices into each dimension
/// (scenario-major, seed-minor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobCoord {
    /// Index into [`ScenarioGrid::scenarios`].
    pub scenario: usize,
    /// One index per [`ScenarioGrid::axes`] entry.
    pub fields: Vec<usize>,
    /// Index into [`ScenarioGrid::policies`].
    pub policy: usize,
    /// Index into [`ScenarioGrid::seeds`].
    pub seed: usize,
}

/// One fully-resolved unit of work: a (scenario, field-axis…, policy,
/// seed) cell of the grid with its summary-only simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetJob {
    /// Linear index of the job in grid order.
    pub id: usize,
    /// The grid coordinates.
    pub coord: JobCoord,
    /// The resolved configuration (summary-only, derived seed installed).
    pub config: SimConfig,
    /// The scenario label keying this cell's report rows — the scenario's
    /// own label plus the axis overrides applied to it.
    pub scenario_label: String,
    /// The policy label keying this cell's report rows.
    pub policy_label: String,
    /// The sweep-level seed this cell replicates (before derivation).
    pub replicate_seed: u64,
}

/// The cartesian product `scenarios × field axes × policies × seeds`.
///
/// All dimension vectors must be non-empty; [`ScenarioGrid::new`] starts
/// from one scenario, the four built-in policies, no field axes and the
/// scenario's own seed, and the `with_*` builders replace (or, for axes,
/// extend) one dimension each.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioGrid {
    /// The scenario dimension: declarative workload descriptions from the
    /// registry, a scenario file, or the builders. Labels must be distinct
    /// per entry for the per-cell rollups to be meaningful.
    pub scenarios: Vec<ScenarioSpec>,
    /// The open field-axis dimensions, applied to every scenario in order.
    pub axes: Vec<FieldAxis>,
    /// The policy dimension: any mix of built-ins, parameterized variants
    /// and custom specs.
    pub policies: Vec<PolicySpec>,
    /// The replicate-seed dimension.
    pub seeds: Vec<u64>,
    /// The seed every per-job derivation starts from.
    pub base_seed: u64,
}

impl ScenarioGrid {
    /// A grid comparing all four built-in policies over one scenario.
    pub fn new(scenario: ScenarioSpec) -> Self {
        ScenarioGrid::from_scenarios(vec![scenario])
    }

    /// A grid comparing all four built-in policies over several scenarios.
    /// The first scenario's `seed` field becomes the base seed and the
    /// single replicate seed, exactly as [`ScenarioGrid::new`] does for one
    /// scenario (an empty list is caught by [`ScenarioGrid::validate`]).
    pub fn from_scenarios(scenarios: Vec<ScenarioSpec>) -> Self {
        let seed = scenarios.first().map(ScenarioSpec::seed).unwrap_or(42);
        ScenarioGrid {
            scenarios,
            axes: Vec::new(),
            policies: PolicySpec::PAPER.to_vec(),
            seeds: vec![seed],
            base_seed: seed,
        }
    }

    /// A grid over the named registry preset.
    ///
    /// # Panics
    ///
    /// Panics if the name is not a registry preset; parse a
    /// [`ScenarioSpec`] for fallible lookup.
    pub fn preset(name: &str) -> Self {
        ScenarioGrid::new(
            ScenarioSpec::preset(name)
                // fedco-audit: allow(panic-surface): documented panicking convenience; ScenarioSpec::preset is the fallible path
                .unwrap_or_else(|| panic!("`{name}` is not a registry scenario preset")),
        )
    }

    /// Appends one open field axis (applied to every scenario).
    ///
    /// ```
    /// use fedco_fleet::prelude::*;
    ///
    /// let grid = ScenarioGrid::preset("smoke")
    ///     .with_axis("arrival_p", &["0.001", "0.01"])
    ///     .with_axis("link", &["ideal", "lte"]);
    /// assert_eq!(grid.len(), 4 * 2 * 2);
    /// ```
    #[must_use]
    pub fn with_axis(mut self, key: impl Into<String>, values: &[&str]) -> Self {
        self.axes.push(FieldAxis::new(
            key,
            values.iter().map(|v| v.to_string()).collect(),
        ));
        self
    }

    /// Replaces the field-axis dimensions.
    #[must_use]
    pub fn with_axes(mut self, axes: Vec<FieldAxis>) -> Self {
        self.axes = axes;
        self
    }

    /// Replaces the policy dimension with arbitrary specs, so one sweep can
    /// compare parameterized variants against the built-ins.
    #[must_use]
    pub fn with_policy_specs(mut self, policies: Vec<PolicySpec>) -> Self {
        self.policies = policies;
        self
    }

    /// Replaces the replicate-seed dimension with `count` seeds derived
    /// from the base seed (wrapping, so any base seed admits any count).
    #[must_use]
    pub fn with_replicates(mut self, count: usize) -> Self {
        self.seeds = (0..count as u64)
            .map(|i| self.base_seed.wrapping_add(i))
            .collect();
        self
    }

    /// Replaces the base seed of the per-job derivation (and nothing else;
    /// call before [`ScenarioGrid::with_replicates`] to re-derive the
    /// replicate seeds too).
    #[must_use]
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Validates the grid: every dimension non-empty, no field swept by two
    /// axes (the later would silently win), every policy spec in range, and
    /// every `scenario × axis-value` combination both parseable
    /// and buildable — so [`ScenarioGrid::expand`] cannot fail later.
    pub fn validate(&self) -> Result<(), GridError> {
        for (dim, empty) in [
            ("scenarios", self.scenarios.is_empty()),
            ("policies", self.policies.is_empty()),
            ("seeds", self.seeds.is_empty()),
        ] {
            if empty {
                return Err(GridError::EmptyDimension(dim));
            }
        }
        let key = |axis: &FieldAxis| axis.key.trim().to_ascii_lowercase();
        for (i, axis) in self.axes.iter().enumerate() {
            if axis.values.is_empty() {
                return Err(GridError::EmptyAxis(axis.key.clone()));
            }
            if self.axes[..i].iter().any(|a| key(a) == key(axis)) {
                return Err(GridError::RepeatedAxis(key(axis)));
            }
        }
        for spec in &self.policies {
            spec.validate().map_err(GridError::Policy)?;
        }
        // Walk the scenario × field-axis product once (policies and seeds
        // cannot affect scenario validity), checking both the axis
        // application and the final build of every combination.
        let scenario_cells: usize =
            self.axes.iter().map(|a| a.values.len()).product::<usize>() * self.scenarios.len();
        for cell in 0..scenario_cells {
            let mut rest = cell;
            let mut fields = Vec::with_capacity(self.axes.len());
            for axis in self.axes.iter().rev() {
                fields.push(rest % axis.values.len());
                rest /= axis.values.len();
            }
            fields.reverse();
            let coord = JobCoord {
                scenario: rest,
                fields,
                policy: 0,
                seed: 0,
            };
            let spec = self.resolve_scenario(&coord)?;
            spec.validate().map_err(|error| GridError::Scenario {
                label: spec.label(),
                error,
            })?;
        }
        Ok(())
    }

    /// Number of jobs in the grid.
    pub fn len(&self) -> usize {
        self.scenarios.len()
            * self.axes.iter().map(|a| a.values.len()).product::<usize>()
            * self.policies.len()
            * self.seeds.len()
    }

    /// Whether the grid has no jobs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The coordinates of linear job index `id` (scenario-major,
    /// seed-minor).
    pub fn coord(&self, id: usize) -> JobCoord {
        let mut rest = id;
        let seed = rest % self.seeds.len();
        rest /= self.seeds.len();
        let policy = rest % self.policies.len();
        rest /= self.policies.len();
        let mut fields = Vec::with_capacity(self.axes.len());
        for axis in self.axes.iter().rev() {
            fields.push(rest % axis.values.len());
            rest /= axis.values.len();
        }
        fields.reverse();
        JobCoord {
            scenario: rest,
            fields,
            policy,
            seed,
        }
    }

    /// The derived simulation seed of a cell: the base seed, the resolved
    /// scenario's own `seed` field and the grid coordinates folded through
    /// SplitMix64. Folding the scenario's seed in keeps `seed=…` overrides
    /// and `--axis seed=…` sweeps honest — the labeled seed genuinely
    /// changes the cell's random streams — while depending only on
    /// coordinates and scenario content (never on expansion or execution
    /// order) keeps fleet results bit-identical across worker counts.
    pub fn job_seed(&self, coord: &JobCoord, scenario: &ScenarioSpec) -> u64 {
        let mut sm = SplitMix64::seed_from_u64(self.base_seed);
        sm.absorb(scenario.seed());
        sm.absorb(coord.scenario as u64);
        for &field in &coord.fields {
            sm.absorb(field as u64);
        }
        sm.absorb(coord.policy as u64);
        sm.absorb(self.seeds[coord.seed])
    }

    /// The scenario spec of a cell: the coordinate's scenario with every
    /// field-axis value applied (and recorded in its label).
    pub fn resolve_scenario(&self, coord: &JobCoord) -> Result<ScenarioSpec, GridError> {
        let mut spec = self.scenarios[coord.scenario].clone();
        for (axis, &value_idx) in self.axes.iter().zip(&coord.fields) {
            let value = &axis.values[value_idx];
            spec.set(&axis.key, value)
                .map_err(|error| GridError::Axis {
                    key: axis.key.clone(),
                    value: value.clone(),
                    scenario: self.scenarios[coord.scenario].label(),
                    error,
                })?;
        }
        Ok(spec)
    }

    /// Builds the job at linear index `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id >= self.len()` or the cell is invalid (which
    /// [`ScenarioGrid::validate`] rules out up front).
    pub fn job(&self, id: usize) -> FleetJob {
        assert!(
            id < self.len(),
            "job index {id} out of grid of {}",
            self.len()
        );
        let coord = self.coord(id);
        let spec = match self.resolve_scenario(&coord) {
            Ok(spec) => spec,
            // fedco-audit: allow(panic-surface): documented panicking API; validate() is the fallible path run first by run_grid
            Err(e) => panic!("invalid scenario grid: {e}"),
        };
        let policy = &self.policies[coord.policy];
        let config = match spec.build_with_policy(policy.clone()) {
            Ok(config) => config
                .with_seed(self.job_seed(&coord, &spec))
                .summary_only(),
            // fedco-audit: allow(panic-surface): documented panicking API; validate() is the fallible path run first by run_grid
            Err(e) => panic!("invalid scenario grid cell `{}`: {e}", spec.label()),
        };
        FleetJob {
            id,
            scenario_label: spec.label(),
            policy_label: policy.label(),
            replicate_seed: self.seeds[coord.seed],
            coord,
            config,
        }
    }

    /// Expands the whole grid into its job list, in linear order.
    ///
    /// # Panics
    ///
    /// Panics with the specific [`GridError`] if the grid is invalid.
    pub fn expand(&self) -> Vec<FleetJob> {
        if let Err(e) = self.validate() {
            // fedco-audit: allow(panic-surface): documented panicking shim; validate() is the typed fallible path
            panic!("invalid scenario grid: {e}");
        }
        (0..self.len()).map(|id| self.job(id)).collect()
    }
}

/// A typed description of why a [`ScenarioGrid`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum GridError {
    /// A fixed sweep dimension (named) is empty.
    EmptyDimension(&'static str),
    /// The field axis over the named key has no values.
    EmptyAxis(String),
    /// Two axes sweep the named key (compared trimmed and lowercased, as
    /// [`ScenarioSpec::set`] reads it).
    RepeatedAxis(String),
    /// An axis value does not apply to a scenario (key, value, scenario
    /// label and the field-naming parse error attached).
    Axis {
        /// The swept field.
        key: String,
        /// The rejected value.
        value: String,
        /// The label of the scenario the value was applied to.
        scenario: String,
        /// The underlying field error.
        error: ParseScenarioError,
    },
    /// A resolved scenario cell fails configuration validation (label and
    /// the underlying error attached).
    Scenario {
        /// The label of the offending cell.
        label: String,
        /// The underlying configuration error.
        error: ConfigError,
    },
    /// A spec in the policy dimension carries an out-of-range parameter.
    Policy(PolicySpecError),
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::EmptyDimension(dim) => {
                write!(f, "sweep dimension `{dim}` must not be empty")
            }
            GridError::EmptyAxis(key) => {
                write!(f, "sweep axis `{key}` must list at least one value")
            }
            GridError::RepeatedAxis(key) => write!(f, "sweep axis `{key}` is given more than once"),
            GridError::Axis {
                key,
                value,
                scenario,
                error,
            } => write!(
                f,
                "axis `{key}={value}` does not apply to scenario `{scenario}`: {error}"
            ),
            GridError::Scenario { label, error } => {
                write!(f, "scenario `{label}`: {error}")
            }
            GridError::Policy(e) => write!(f, "policy dimension: {e}"),
        }
    }
}

impl std::error::Error for GridError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GridError::Axis { error, .. } => Some(error),
            GridError::Scenario { error, .. } => Some(error),
            GridError::Policy(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> ScenarioGrid {
        ScenarioGrid::from_scenarios(vec![
            ScenarioSpec::preset("smoke").expect("preset"),
            ScenarioSpec::preset("hetero-devices")
                .expect("preset")
                .with_users(4)
                .with_slots(400),
        ])
        .with_axis("arrival_p", &["0.001", "0.01"])
        .with_axis("link", &["ideal", "lte"])
        .with_replicates(2)
    }

    #[test]
    fn from_scenarios_seeds_from_the_first_scenario() {
        let g = grid();
        assert_eq!(g.base_seed, g.scenarios[0].seed());
        assert_eq!(g.seeds, vec![g.base_seed, g.base_seed + 1]);
        // The single-scenario constructor is the same thing.
        let single = ScenarioGrid::new(ScenarioSpec::preset("smoke").expect("preset"));
        assert_eq!(single.base_seed, 42);
        assert_eq!(single.seeds, vec![42]);
        // The default policy axis is the paper's four, in report order.
        assert_eq!(single.policies, PolicySpec::PAPER);
    }

    #[test]
    fn scenario_seed_overrides_reach_the_derived_job_seed() {
        // `seed` is a sweepable field like any other: a seed override (or a
        // seed axis) must genuinely change the cell's random streams, so
        // the labeled seed is never a lie.
        let g = ScenarioGrid::preset("smoke").with_axis("seed", &["1", "2"]);
        let jobs = g.expand();
        assert_eq!(jobs.len(), 8);
        for pair in jobs.chunks(2) {
            assert_ne!(
                pair[0].config.seed, pair[1].config.seed,
                "{} vs {}",
                pair[0].scenario_label, pair[1].scenario_label
            );
        }
        assert!(jobs.iter().any(|j| j.scenario_label.ends_with("seed=1")));
        // Expansion stays a pure function of the grid.
        let again = g.expand();
        for (a, b) in jobs.iter().zip(&again) {
            assert_eq!(a.config.seed, b.config.seed);
        }
    }

    #[test]
    fn axis_keys_are_case_insensitive_like_scenario_keys() {
        let axis = FieldAxis::parse("USERS=4,8").expect("parses");
        assert_eq!(axis.key, "users");
        let g = ScenarioGrid::preset("smoke").with_axes(vec![axis]);
        assert!(g.validate().is_ok());
        // with_axis goes through ScenarioSpec::set, which lowercases too.
        let g2 = ScenarioGrid::preset("smoke").with_axis("Link", &["ideal", "lte"]);
        assert!(g2.validate().is_ok(), "{:?}", g2.validate());
    }

    #[test]
    fn len_is_product_of_dimensions() {
        let g = grid();
        assert_eq!(g.len(), 2 * 2 * 2 * 4 * 2);
        assert!(g.validate().is_ok());
        assert!(!g.is_empty());
        assert_eq!(g.expand().len(), g.len());
    }

    #[test]
    fn coords_roundtrip_and_cover_grid() {
        let g = grid();
        let jobs = g.expand();
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.id, i);
            assert_eq!(g.coord(i), job.coord);
        }
        // Every policy appears equally often …
        for policy in &g.policies {
            let n = jobs
                .iter()
                .filter(|j| j.policy_label == policy.label())
                .count();
            assert_eq!(n, g.len() / g.policies.len(), "{policy}");
        }
        // … and so does every (scenario, axis-values) combination.
        let mut labels: Vec<String> = jobs.iter().map(|j| j.scenario_label.clone()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 2 * 2 * 2, "distinct scenario cells");
    }

    #[test]
    fn axis_values_resolve_into_configs_and_labels() {
        let g = grid();
        for job in g.expand() {
            assert!(!job.config.collect_traces, "jobs are summary-only");
            assert!(job.config.validate().is_ok());
            // The scenario label names exactly the axis values the config
            // resolved to.
            let arrival = format!("arrival_p={}", job.config.arrival_probability);
            assert!(
                job.scenario_label.contains(&arrival),
                "{} missing {arrival}",
                job.scenario_label
            );
            let link = job.config.link;
            assert!(
                job.scenario_label.contains(&format!("link={link}")),
                "{} missing link={link}",
                job.scenario_label
            );
        }
    }

    #[test]
    fn job_seeds_are_coordinate_determined_and_distinct() {
        let g = grid();
        let jobs = g.expand();
        let again = g.expand();
        for (a, b) in jobs.iter().zip(&again) {
            assert_eq!(a.config.seed, b.config.seed);
        }
        let mut seeds: Vec<u64> = jobs.iter().map(|j| j.config.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), jobs.len(), "all cells get distinct seeds");
        assert!(jobs.iter().all(|j| j.config.seed != j.replicate_seed));
    }

    #[test]
    fn replicates_wrap_at_the_seed_space_boundary() {
        let g = ScenarioGrid::new(
            ScenarioSpec::preset("smoke")
                .expect("preset")
                .with_seed(u64::MAX),
        )
        .with_replicates(2);
        assert_eq!(g.seeds, vec![u64::MAX, 0]);
        assert_eq!(g.base_seed, u64::MAX);
    }

    #[test]
    fn empty_dimensions_invalidate_the_grid() {
        let g = grid().with_policy_specs(vec![]);
        assert!(g.validate().is_err());
        assert!(g.is_empty());
        assert_eq!(g.validate(), Err(GridError::EmptyDimension("policies")));
        let g2 = ScenarioGrid::from_scenarios(vec![]);
        assert_eq!(g2.validate(), Err(GridError::EmptyDimension("scenarios")));
        let g3 = grid().with_replicates(0);
        assert_eq!(g3.validate(), Err(GridError::EmptyDimension("seeds")));
        let g4 = grid().with_axes(vec![FieldAxis::new("users", vec![])]);
        assert_eq!(g4.validate(), Err(GridError::EmptyAxis("users".into())));
        assert!(grid().validate().is_ok());
    }

    #[test]
    fn a_repeated_axis_key_is_rejected_by_name() {
        // Without the check the later axis silently wins: two cells print,
        // one row of twice the runs reports.
        let g = ScenarioGrid::preset("smoke")
            .with_axis("users", &["5", "6"])
            .with_axis(" Users ", &["7"]);
        assert_eq!(g.validate(), Err(GridError::RepeatedAxis("users".into())));
        let msg = g.validate().unwrap_err().to_string();
        assert_eq!(msg, "sweep axis `users` is given more than once");
        let parsed = ["users=5,6", "USERS=7"].map(|a| FieldAxis::parse(a).expect("parses"));
        let g2 = ScenarioGrid::preset("smoke").with_axes(parsed.to_vec());
        assert_eq!(g2.validate(), Err(GridError::RepeatedAxis("users".into())));
        // Distinct keys still cross.
        let g3 = ScenarioGrid::preset("smoke")
            .with_axis("users", &["5"])
            .with_axis("slots", &["60"]);
        assert!(g3.validate().is_ok());
    }

    #[test]
    fn bad_axis_values_name_key_value_and_scenario() {
        let g = ScenarioGrid::preset("smoke").with_axis("users", &["4", "0"]);
        match g.validate() {
            Err(GridError::Axis {
                key,
                value,
                scenario,
                ..
            }) => {
                assert_eq!(key, "users");
                assert_eq!(value, "0");
                assert_eq!(scenario, "smoke");
            }
            other => panic!("expected axis error, got {other:?}"),
        }
        let msg = g.validate().unwrap_err().to_string();
        assert!(msg.contains("users=0"), "{msg}");
        assert!(msg.contains("smoke"), "{msg}");
        // Unknown axis keys are caught the same way.
        let g2 = ScenarioGrid::preset("smoke").with_axis("warp", &["1"]);
        assert!(g2
            .validate()
            .unwrap_err()
            .to_string()
            .contains("unknown scenario field `warp`"));
        // Out-of-range policy parameters are named too.
        let g3 =
            ScenarioGrid::preset("smoke").with_policy_specs(vec![PolicySpec::online_with_v(-1.0)]);
        match g3.validate() {
            Err(GridError::Policy(e)) => assert_eq!(e.parameter, "v"),
            other => panic!("expected policy error, got {other:?}"),
        }
    }

    #[test]
    fn field_axis_parses_cli_syntax() {
        let axis = FieldAxis::parse("arrival_p=0.001,0.01, 0.05").expect("parses");
        assert_eq!(axis.key, "arrival_p");
        assert_eq!(axis.values, vec!["0.001", "0.01", "0.05"]);
        assert!(FieldAxis::parse("no-equals-sign").is_err());
        let err = FieldAxis::parse("warp=1,2")
            .map(|a| ScenarioGrid::preset("smoke").with_axes(vec![a]).validate());
        assert!(matches!(err, Ok(Err(GridError::Axis { .. }))));
    }

    #[test]
    fn policy_dimension_takes_parameterized_specs() {
        let mut specs = PolicySpec::PAPER.to_vec();
        specs.extend([1000.0, 4000.0, 16000.0].map(PolicySpec::online_with_v));
        let g = ScenarioGrid::preset("smoke").with_policy_specs(specs.clone());
        assert_eq!(g.len(), specs.len());
        for (job, spec) in g.expand().iter().zip(&specs) {
            assert_eq!(job.config.policy, *spec);
            assert_eq!(job.policy_label, spec.label());
        }
    }

    #[test]
    #[should_panic(expected = "not a registry scenario preset")]
    fn unknown_preset_panics() {
        let _ = ScenarioGrid::preset("warp-speed");
    }
}
