//! Metrics derived deterministically from event streams.
//!
//! Rather than maintaining mutable counters in the hot path, metrics are a
//! **pure function of the trace**: [`MetricsRegistry::from_trace`] folds an
//! event stream into counters, sums, gauges and slot-histograms keyed by the
//! existing `(scenario, policy)` labels. Because the trace is bit-identical
//! across runs, drivers and worker counts, so is every derived metric — the
//! registry stores everything in a `BTreeMap`, so serialization order is
//! deterministic too.

use std::collections::btree_map::{BTreeMap, Entry};

use crate::event::{Event, EventKind};
use crate::export::json_escape;

/// The label triple a metric is keyed by.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// The scenario label of the cell (`-` for a standalone run).
    pub scenario: String,
    /// The policy label of the cell.
    pub policy: String,
    /// The metric name (e.g. `merges_total`, `energy_j/radio`).
    pub name: String,
}

impl MetricKey {
    /// Builds a key.
    pub fn new(scenario: &str, policy: &str, name: &str) -> Self {
        MetricKey {
            scenario: scenario.to_string(),
            policy: policy.to_string(),
            name: name.to_string(),
        }
    }
}

/// A histogram of `u64` samples in power-of-two buckets.
///
/// Bucket `0` counts zero samples; bucket `i > 0` counts samples with
/// `floor(log2(v)) == i - 1`, i.e. `v` in `[2^(i-1), 2^i)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotHistogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Per-bucket counts, trailing empty buckets trimmed.
    pub buckets: Vec<u64>,
}

impl SlotHistogram {
    /// The bucket index of a sample.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = Self::bucket_of(value);
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        self.min = if self.count == 0 {
            value
        } else {
            self.min.min(value)
        };
        self.max = self.max.max(value);
        self.sum += value;
        self.count += 1;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &SlotHistogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.count += other.count;
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            // fedco-audit: allow(float-reduction): integer field access, not a float accumulation
            self.sum as f64 / self.count as f64
        }
    }
}

/// The value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing event count.
    Counter(u64),
    /// A float accumulator (added across merges).
    Sum(f64),
    /// A last-value-wins observation stamped with its slot: the latest
    /// write of the walk wins, whatever its slot (a later job of the same
    /// cell restarts the slot clock).
    Gauge {
        /// The slot of the observation.
        slot: u64,
        /// The observed value.
        value: f64,
    },
    /// A power-of-two histogram of `u64` samples.
    SlotHistogram(SlotHistogram),
}

impl MetricValue {
    /// The stable wire name of the value type.
    pub fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Sum(_) => "sum",
            MetricValue::Gauge { .. } => "gauge",
            MetricValue::SlotHistogram(_) => "slot-histogram",
        }
    }

    /// Folds in what the events after this value's own made of the same
    /// metric: counts, sums and samples add up, a gauge is overwritten.
    fn continue_with(&mut self, later: MetricValue) {
        match (self, later) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
            (MetricValue::Sum(a), MetricValue::Sum(b)) => *a += b,
            (MetricValue::SlotHistogram(a), MetricValue::SlotHistogram(b)) => a.merge(&b),
            (mine, gauge @ MetricValue::Gauge { .. }) => *mine = gauge,
            // A name never changes type within one schema version; if two
            // traces disagree, keep the earlier side, as the walk does with
            // a count or a sample that meets a value of another type.
            (_, _) => {}
        }
    }
}

/// Declares the fixed metric names of the schema once: the index a walk
/// keeps an accumulator under, and the wire name it is serialized as.
macro_rules! fixed_names {
    ($($id:ident = $label:literal,)*) => {
        #[derive(Clone, Copy)]
        enum Name { $($id,)* }
        const NAME_LABELS: &[&str] = &[$($label,)*];
    };
}

fixed_names! {
    RunsTotal = "runs_total",
    SchedulesTotal = "schedules_total",
    CorunSchedulesTotal = "corun_schedules_total",
    MergesTotal = "merges_total",
    MergeLag = "merge_lag",
    ModelVersion = "model_version",
    SyncRoundsTotal = "sync_rounds_total",
    BarrierDepth = "barrier_depth",
    UpdatesTotal = "updates_total",
    TotalEnergyJ = "total_energy_j",
    DenseSlotsTotal = "dense_slots_total",
    IdleDecisionsTotal = "idle_decisions_total",
    JobsTotal = "jobs_total",
    JoinsAcceptedTotal = "joins_accepted_total",
    JoinsRejectedTotal = "joins_rejected_total",
    SessionsExpiredTotal = "sessions_expired_total",
    PushesAppliedTotal = "pushes_applied_total",
    PushLag = "push_lag",
    PushesRefusedTotal = "pushes_refused_total",
    RoundAdvancesTotal = "round_advances_total",
    BatteryDeathsTotal = "battery_deaths_total",
    RechargesTotal = "recharges_total",
    ChurnDeparturesTotal = "churn_departures_total",
    ChurnRejoinsTotal = "churn_rejoins_total",
    CompressedUploadsTotal = "compressed_uploads_total",
    CompressedBytesTotal = "compressed_bytes_total",
}

/// The metrics of one `(scenario, policy)` cell while a trace is walked: a
/// slot per fixed name, so an event costs an array index instead of a
/// three-`String` key and a map search. Keys are built once per cell and
/// name, when the walk ends.
struct CellMetrics {
    fixed: Vec<Option<MetricValue>>,
    /// The `energy_j/<component>` gauges, by component label (a handful).
    energy: Vec<(String, MetricValue)>,
}

impl CellMetrics {
    fn new() -> Self {
        CellMetrics {
            fixed: vec![None; NAME_LABELS.len()],
            energy: Vec::new(),
        }
    }

    fn count(&mut self, name: Name, delta: u64) {
        if let MetricValue::Counter(v) =
            self.fixed[name as usize].get_or_insert(MetricValue::Counter(0))
        {
            *v += delta;
        }
    }

    fn sum(&mut self, name: Name, delta: f64) {
        if let MetricValue::Sum(v) = self.fixed[name as usize].get_or_insert(MetricValue::Sum(0.0))
        {
            *v += delta;
        }
    }

    fn gauge(&mut self, name: Name, slot: u64, value: f64) {
        self.fixed[name as usize] = Some(MetricValue::Gauge { slot, value });
    }

    fn sample(&mut self, name: Name, value: u64) {
        if let MetricValue::SlotHistogram(h) = self.fixed[name as usize]
            .get_or_insert_with(|| MetricValue::SlotHistogram(SlotHistogram::default()))
        {
            h.record(value);
        }
    }

    fn energy(&mut self, component: &str, slot: u64, joules: f64) {
        let gauge = MetricValue::Gauge {
            slot,
            value: joules,
        };
        match self.energy.iter_mut().find(|(c, _)| c == component) {
            Some((_, held)) => *held = gauge,
            None => self.energy.push((component.to_string(), gauge)),
        }
    }
}

/// A deterministic, ordered collection of metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<MetricKey, MetricValue>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Derives metrics from a trace, tracking `(scenario, policy)` labels
    /// from `job-start` / `run-start` events. Standalone run traces (no job
    /// markers) fall under the scenario label `-`.
    pub fn from_trace(events: &[Event]) -> Self {
        Self::from_labeled_trace("-", "-", events)
    }

    /// Derives metrics from a trace with initial labels (used for a single
    /// run whose cell labels are known to the caller).
    pub fn from_labeled_trace(scenario: &str, policy: &str, events: &[Event]) -> Self {
        use Name::*;
        // The cell the walk is in is held apart from the cells it has left,
        // which wait under their labels in case a later job returns to them.
        let mut parked: BTreeMap<(String, String), CellMetrics> = BTreeMap::new();
        let mut labels = (scenario.to_string(), policy.to_string());
        let mut cell = CellMetrics::new();
        let mut enter = |labels: &mut (String, String), cell: &mut CellMetrics, next| {
            let entered = parked.remove(&next).unwrap_or_else(CellMetrics::new);
            let left = std::mem::replace(cell, entered);
            parked.insert(std::mem::replace(labels, next), left);
        };
        for event in events {
            let slot = event.slot;
            match &event.kind {
                EventKind::JobStart { labels: job, .. } => {
                    if labels.0 != job.scenario || labels.1 != job.policy {
                        let next = (job.scenario.clone(), job.policy.clone());
                        enter(&mut labels, &mut cell, next);
                    }
                }
                EventKind::RunStart { policy: p, .. } => {
                    if labels.1 != **p {
                        let next = (labels.0.clone(), (**p).clone());
                        enter(&mut labels, &mut cell, next);
                    }
                    cell.count(RunsTotal, 1);
                }
                EventKind::Schedule { corun, .. } => {
                    cell.count(SchedulesTotal, 1);
                    if *corun {
                        cell.count(CorunSchedulesTotal, 1);
                    }
                }
                EventKind::Energy { component, joules } => cell.energy(component, slot, *joules),
                EventKind::Merge { lag, version, .. } => {
                    cell.count(MergesTotal, 1);
                    cell.sample(MergeLag, *lag);
                    cell.gauge(ModelVersion, slot, *version as f64);
                }
                EventKind::Round { version, .. } => {
                    cell.count(SyncRoundsTotal, 1);
                    cell.gauge(ModelVersion, slot, *version as f64);
                }
                EventKind::Barrier { depth } => cell.sample(BarrierDepth, *depth),
                EventKind::RunEnd { updates, energy_j } => {
                    cell.count(UpdatesTotal, *updates);
                    cell.sum(TotalEnergyJ, *energy_j);
                }
                EventKind::DenseSpan {
                    slots,
                    idle_decisions,
                } => {
                    cell.count(DenseSlotsTotal, *slots);
                    cell.count(IdleDecisionsTotal, *idle_decisions);
                }
                EventKind::JobEnd { .. } => cell.count(JobsTotal, 1),
                EventKind::JoinAccepted { .. } => cell.count(JoinsAcceptedTotal, 1),
                EventKind::JoinRejected { .. } => cell.count(JoinsRejectedTotal, 1),
                EventKind::SessionExpired { .. } => cell.count(SessionsExpiredTotal, 1),
                EventKind::PushApplied { lag, version, .. } => {
                    cell.count(PushesAppliedTotal, 1);
                    cell.sample(PushLag, *lag);
                    cell.gauge(ModelVersion, slot, *version as f64);
                }
                EventKind::PushRefused { .. } => cell.count(PushesRefusedTotal, 1),
                EventKind::RoundAdvance { version, .. } => {
                    cell.count(RoundAdvancesTotal, 1);
                    cell.gauge(ModelVersion, slot, *version as f64);
                }
                EventKind::BatteryDepleted { .. } => cell.count(BatteryDeathsTotal, 1),
                EventKind::Recharged { .. } => cell.count(RechargesTotal, 1),
                EventKind::UserChurned { offline, .. } => {
                    cell.count(
                        if *offline {
                            ChurnDeparturesTotal
                        } else {
                            ChurnRejoinsTotal
                        },
                        1,
                    );
                }
                EventKind::CompressedUpload { bytes, .. } => {
                    cell.count(CompressedUploadsTotal, 1);
                    cell.count(CompressedBytesTotal, *bytes);
                }
            }
        }
        parked.insert(labels, cell);

        let mut metrics = BTreeMap::new();
        for ((scenario, policy), cell) in parked {
            let mut insert = |name: String, value| {
                let key = MetricKey {
                    scenario: scenario.clone(),
                    policy: policy.clone(),
                    name,
                };
                metrics.insert(key, value);
            };
            for (label, value) in NAME_LABELS.iter().zip(cell.fixed) {
                if let Some(value) = value {
                    insert(label.to_string(), value);
                }
            }
            for (component, gauge) in cell.energy {
                insert(format!("energy_j/{component}"), gauge);
            }
        }
        MetricsRegistry { metrics }
    }

    /// Continues this registry's walk with `later`, the registry of the
    /// events that came next: counters, sums and histograms add, a gauge of
    /// `later` overwrites — the later job wins, whatever its slot, exactly
    /// as one walk over the concatenated stream has it. Folding per-job
    /// registries in job order therefore reproduces
    /// [`from_trace`](MetricsRegistry::from_trace) of the merged stream,
    /// every bit of it as long as each appended registry holds one addend
    /// per float sum (a job has one `run-end`); with more, the sum is
    /// associated differently and may differ in its last bits.
    pub fn append(&mut self, later: MetricsRegistry) {
        for (key, value) in later.metrics {
            match self.metrics.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(value);
                }
                Entry::Occupied(mut slot) => slot.get_mut().continue_with(value),
            }
        }
    }

    /// Iterates metrics in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricKey, &MetricValue)> {
        self.metrics.iter()
    }

    /// Looks up one metric.
    pub fn get(&self, scenario: &str, policy: &str, name: &str) -> Option<&MetricValue> {
        self.metrics.get(&MetricKey::new(scenario, policy, name))
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Serializes the registry as JSON lines, one metric per line, in key
    /// order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.metrics {
            out.push_str(&format!(
                "{{\"scenario\":\"{}\",\"policy\":\"{}\",\"metric\":\"{}\",\"type\":\"{}\"",
                json_escape(&key.scenario),
                json_escape(&key.policy),
                json_escape(&key.name),
                value.type_name(),
            ));
            match value {
                MetricValue::Counter(v) => out.push_str(&format!(",\"value\":{v}")),
                MetricValue::Sum(v) => out.push_str(&format!(",\"value\":{v}")),
                MetricValue::Gauge { slot, value } => {
                    out.push_str(&format!(",\"slot\":{slot},\"value\":{value}"))
                }
                MetricValue::SlotHistogram(h) => {
                    let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
                    out.push_str(&format!(
                        ",\"count\":{},\"min\":{},\"max\":{},\"sum\":{},\"buckets\":[{}]",
                        h.count,
                        h.min,
                        h.max,
                        h.sum,
                        buckets.join(",")
                    ));
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(SlotHistogram::bucket_of(0), 0);
        assert_eq!(SlotHistogram::bucket_of(1), 1);
        assert_eq!(SlotHistogram::bucket_of(2), 2);
        assert_eq!(SlotHistogram::bucket_of(3), 2);
        assert_eq!(SlotHistogram::bucket_of(4), 3);
        assert_eq!(SlotHistogram::bucket_of(u64::MAX), 64);
        let mut h = SlotHistogram::default();
        for v in [0, 1, 2, 3, 7, 8] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 8);
        assert_eq!(h.sum, 21);
        assert_eq!(h.buckets, vec![1, 1, 2, 1, 1]);
        let mut other = SlotHistogram::default();
        other.record(1024);
        h.merge(&other);
        assert_eq!(h.count, 7);
        assert_eq!(h.max, 1024);
        assert_eq!(h.buckets.len(), 12);
        assert!((h.mean() - (21.0 + 1024.0) / 7.0).abs() < 1e-12);
    }

    #[test]
    fn trace_derivation_counts_the_expected_metrics() {
        use crate::event::{Event, EventKind};
        let events = vec![
            Event::new(0, EventKind::job_start(0, "smoke".into(), "Online".into())),
            Event::new(0, EventKind::run_start(3, 100, "Online".into())),
            Event::new(
                2,
                EventKind::Schedule {
                    user: 1,
                    corun: true,
                },
            ),
            Event::new(
                5,
                EventKind::Schedule {
                    user: 2,
                    corun: false,
                },
            ),
            Event::new(
                7,
                EventKind::Merge {
                    user: 1,
                    lag: 3,
                    version: 1,
                },
            ),
            Event::new(
                30,
                EventKind::Energy {
                    component: "radio",
                    joules: 1.5,
                },
            ),
            Event::new(
                60,
                EventKind::Energy {
                    component: "radio",
                    joules: 2.5,
                },
            ),
            Event::new(
                99,
                EventKind::DenseSpan {
                    slots: 60,
                    idle_decisions: 11,
                },
            ),
            Event::new(
                100,
                EventKind::RunEnd {
                    updates: 1,
                    energy_j: 12.0,
                },
            ),
            Event::new(100, EventKind::JobEnd { job: 0 }),
        ];
        let m = MetricsRegistry::from_trace(&events);
        assert_eq!(
            m.get("smoke", "Online", "schedules_total"),
            Some(&MetricValue::Counter(2))
        );
        assert_eq!(
            m.get("smoke", "Online", "corun_schedules_total"),
            Some(&MetricValue::Counter(1))
        );
        assert_eq!(
            m.get("smoke", "Online", "energy_j/radio"),
            Some(&MetricValue::Gauge {
                slot: 60,
                value: 2.5
            })
        );
        assert_eq!(
            m.get("smoke", "Online", "dense_slots_total"),
            Some(&MetricValue::Counter(60))
        );
        match m.get("smoke", "Online", "merge_lag") {
            Some(MetricValue::SlotHistogram(h)) => assert_eq!((h.count, h.max), (1, 3)),
            other => panic!("unexpected merge_lag {other:?}"),
        }
        assert_eq!(
            m.get("smoke", "Online", "jobs_total"),
            Some(&MetricValue::Counter(1))
        );
    }

    /// One job's stream as the fleet merge wraps it: `merges` merge events
    /// ending at slot `horizon`, one energy sample per component, one
    /// `run-end` carrying `energy_j`.
    fn job(id: u64, cell: (&str, &str), horizon: u64, merges: u64, energy_j: f64) -> Vec<Event> {
        let mut events = vec![
            Event::new(0, EventKind::job_start(id, cell.0.into(), cell.1.into())),
            Event::new(0, EventKind::run_start(3, horizon, cell.1.into())),
        ];
        for i in 0..merges {
            let slot = horizon - (merges - i);
            events.push(Event::new(
                slot,
                EventKind::Schedule {
                    user: i,
                    corun: i % 2 == 0,
                },
            ));
            events.push(Event::new(slot, EventKind::Barrier { depth: i }));
            events.push(Event::new(
                slot,
                EventKind::Merge {
                    user: i,
                    lag: i * id,
                    version: i + 1,
                },
            ));
        }
        for component in ["idle", "radio"] {
            events.push(Event::new(
                horizon,
                EventKind::Energy {
                    component,
                    joules: energy_j / 2.0,
                },
            ));
        }
        events.push(Event::new(
            horizon,
            EventKind::RunEnd {
                updates: merges,
                energy_j,
            },
        ));
        events.push(Event::new(horizon, EventKind::JobEnd { job: id }));
        events
    }

    #[test]
    fn appending_per_job_registries_continues_the_walk_byte_for_byte() {
        // Three seeds of one cell whose float energies do not add
        // associatively, a second cell in between, and a last job that is
        // *shorter* than the first: its gauges carry smaller slots and must
        // still win, as they do in one walk over the merged stream.
        let jobs = [
            job(0, ("smoke", "Online"), 400, 9, 0.1),
            job(1, ("smoke", "Online"), 400, 5, 0.2),
            job(2, ("smoke", "Offline"), 400, 2, 7.5),
            job(3, ("smoke", "Online"), 100, 3, 0.3),
            job(4, ("smoke", "Offline"), 400, 0, 1e-9),
        ];
        let whole = MetricsRegistry::from_trace(&jobs.concat());
        let mut folded = MetricsRegistry::new();
        for events in &jobs {
            folded.append(MetricsRegistry::from_trace(events));
        }
        assert_eq!(folded.to_jsonl(), whole.to_jsonl());
        assert_eq!(folded, whole);
        assert_eq!(
            folded.get("smoke", "Online", "model_version"),
            Some(&MetricValue::Gauge {
                slot: 99,
                value: 3.0
            }),
            "the later job wins, not the larger slot"
        );
        assert_eq!(
            folded.get("smoke", "Online", "total_energy_j"),
            Some(&MetricValue::Sum(0.0 + 0.1 + 0.2 + 0.3))
        );
        assert_eq!(
            folded.get("smoke", "Online", "jobs_total"),
            Some(&MetricValue::Counter(3))
        );
        match folded.get("smoke", "Online", "merge_lag") {
            Some(MetricValue::SlotHistogram(h)) => assert_eq!((h.count, h.max), (17, 6)),
            other => panic!("unexpected merge_lag {other:?}"),
        }
        // A metric only the later side has is taken as it is.
        assert_eq!(
            folded.get("smoke", "Offline", "energy_j/radio"),
            Some(&MetricValue::Gauge {
                slot: 400,
                value: 5e-10
            })
        );
    }

    /// The walk this module had before the per-cell slots: a [`MetricKey`]
    /// of three `String`s and a map search per event. Kept as the oracle
    /// the slot walk must match on every event kind and label change.
    mod reference_bits {
        use super::*;
        use crate::export::tests::one_of_each;

        struct Keyed(MetricsRegistry);

        impl Keyed {
            /// Adds `delta` to a counter.
            fn add_counter(&mut self, scenario: &str, policy: &str, name: &str, delta: u64) {
                if let MetricValue::Counter(v) = self
                    .0
                    .metrics
                    .entry(MetricKey::new(scenario, policy, name))
                    .or_insert(MetricValue::Counter(0))
                {
                    *v += delta;
                }
            }

            /// Adds `delta` to a float sum.
            fn add_sum(&mut self, scenario: &str, policy: &str, name: &str, delta: f64) {
                if let MetricValue::Sum(v) = self
                    .0
                    .metrics
                    .entry(MetricKey::new(scenario, policy, name))
                    .or_insert(MetricValue::Sum(0.0))
                {
                    *v += delta;
                }
            }

            /// Sets a gauge observation (last write within a walk wins).
            fn set_gauge(
                &mut self,
                scenario: &str,
                policy: &str,
                name: &str,
                slot: u64,
                value: f64,
            ) {
                self.0.metrics.insert(
                    MetricKey::new(scenario, policy, name),
                    MetricValue::Gauge { slot, value },
                );
            }

            /// Records one histogram sample.
            fn record_histogram(&mut self, scenario: &str, policy: &str, name: &str, value: u64) {
                if let MetricValue::SlotHistogram(h) = self
                    .0
                    .metrics
                    .entry(MetricKey::new(scenario, policy, name))
                    .or_insert_with(|| MetricValue::SlotHistogram(SlotHistogram::default()))
                {
                    h.record(value);
                }
            }
        }

        fn walk(scenario: &str, policy: &str, events: &[Event]) -> MetricsRegistry {
            let mut registry = Keyed(MetricsRegistry::new());
            let mut scenario = scenario.to_string();
            let mut policy = policy.to_string();
            for event in events {
                match &event.kind {
                    EventKind::JobStart { labels, .. } => {
                        scenario = labels.scenario.clone();
                        policy = labels.policy.clone();
                    }
                    EventKind::RunStart { policy: p, .. } => {
                        policy = p.to_string();
                        registry.add_counter(&scenario, &policy, "runs_total", 1);
                    }
                    EventKind::Schedule { corun, .. } => {
                        registry.add_counter(&scenario, &policy, "schedules_total", 1);
                        if *corun {
                            registry.add_counter(&scenario, &policy, "corun_schedules_total", 1);
                        }
                    }
                    EventKind::Energy { component, joules } => {
                        registry.set_gauge(
                            &scenario,
                            &policy,
                            &format!("energy_j/{component}"),
                            event.slot,
                            *joules,
                        );
                    }
                    EventKind::Merge { lag, version, .. } => {
                        registry.add_counter(&scenario, &policy, "merges_total", 1);
                        registry.record_histogram(&scenario, &policy, "merge_lag", *lag);
                        registry.set_gauge(
                            &scenario,
                            &policy,
                            "model_version",
                            event.slot,
                            *version as f64,
                        );
                    }
                    EventKind::Round { version, .. } => {
                        registry.add_counter(&scenario, &policy, "sync_rounds_total", 1);
                        registry.set_gauge(
                            &scenario,
                            &policy,
                            "model_version",
                            event.slot,
                            *version as f64,
                        );
                    }
                    EventKind::Barrier { depth } => {
                        registry.record_histogram(&scenario, &policy, "barrier_depth", *depth);
                    }
                    EventKind::RunEnd { updates, energy_j } => {
                        registry.add_counter(&scenario, &policy, "updates_total", *updates);
                        registry.add_sum(&scenario, &policy, "total_energy_j", *energy_j);
                    }
                    EventKind::DenseSpan {
                        slots,
                        idle_decisions,
                    } => {
                        registry.add_counter(&scenario, &policy, "dense_slots_total", *slots);
                        registry.add_counter(
                            &scenario,
                            &policy,
                            "idle_decisions_total",
                            *idle_decisions,
                        );
                    }
                    EventKind::JobEnd { .. } => {
                        registry.add_counter(&scenario, &policy, "jobs_total", 1);
                    }
                    EventKind::JoinAccepted { .. } => {
                        registry.add_counter(&scenario, &policy, "joins_accepted_total", 1);
                    }
                    EventKind::JoinRejected { .. } => {
                        registry.add_counter(&scenario, &policy, "joins_rejected_total", 1);
                    }
                    EventKind::SessionExpired { .. } => {
                        registry.add_counter(&scenario, &policy, "sessions_expired_total", 1);
                    }
                    EventKind::PushApplied { lag, version, .. } => {
                        registry.add_counter(&scenario, &policy, "pushes_applied_total", 1);
                        registry.record_histogram(&scenario, &policy, "push_lag", *lag);
                        registry.set_gauge(
                            &scenario,
                            &policy,
                            "model_version",
                            event.slot,
                            *version as f64,
                        );
                    }
                    EventKind::PushRefused { .. } => {
                        registry.add_counter(&scenario, &policy, "pushes_refused_total", 1);
                    }
                    EventKind::RoundAdvance { version, .. } => {
                        registry.add_counter(&scenario, &policy, "round_advances_total", 1);
                        registry.set_gauge(
                            &scenario,
                            &policy,
                            "model_version",
                            event.slot,
                            *version as f64,
                        );
                    }
                    EventKind::BatteryDepleted { .. } => {
                        registry.add_counter(&scenario, &policy, "battery_deaths_total", 1);
                    }
                    EventKind::Recharged { .. } => {
                        registry.add_counter(&scenario, &policy, "recharges_total", 1);
                    }
                    EventKind::UserChurned { offline, .. } => {
                        if *offline {
                            registry.add_counter(&scenario, &policy, "churn_departures_total", 1);
                        } else {
                            registry.add_counter(&scenario, &policy, "churn_rejoins_total", 1);
                        }
                    }
                    EventKind::CompressedUpload { bytes, .. } => {
                        registry.add_counter(&scenario, &policy, "compressed_uploads_total", 1);
                        registry.add_counter(&scenario, &policy, "compressed_bytes_total", *bytes);
                    }
                }
            }
            registry.0
        }

        #[test]
        fn the_slot_walk_matches_the_keyed_walk_on_every_kind_and_label_change() {
            // Every kind once (one job plus server events under its labels),
            // then jobs that switch cells, return to an earlier one, restart
            // the slot clock, and a run whose policy differs from its job's.
            let mut events = one_of_each();
            events.extend(job(1, ("smoke", "Online"), 400, 9, 0.1));
            events.extend(job(2, ("smoke", "Offline"), 400, 2, 7.5));
            events.extend(job(3, ("smoke", "Online"), 100, 3, 0.3));
            events.extend(job(4, ("sparse", "Online"), 100, 1, 2.0));
            events.push(Event::new(
                0,
                EventKind::run_start(1, 1, "Immediate".into()),
            ));
            events.extend(one_of_each().into_iter().skip(2));
            for (scenario, policy) in [("-", "-"), ("smoke:users=3", "Online(V=1000)")] {
                let slots = MetricsRegistry::from_labeled_trace(scenario, policy, &events);
                let keyed = walk(scenario, policy, &events);
                assert_eq!(slots.to_jsonl(), keyed.to_jsonl());
                assert_eq!(slots, keyed);
            }
            assert_eq!(MetricsRegistry::from_trace(&[]), walk("-", "-", &[]));
        }
    }

    #[test]
    fn jsonl_is_one_escaped_line_per_metric_in_key_order() {
        let mut events = job(
            0,
            ("paper-default \"quoted\"", "Online"),
            600,
            6,
            98765.4321098765,
        );
        events.push(Event::new(
            600,
            EventKind::Energy {
                component: "radio",
                joules: 1.0 / 3.0,
            },
        ));
        let m = MetricsRegistry::from_trace(&events);
        assert_eq!(m.len(), 12);
        let jsonl = m.to_jsonl();
        assert_eq!(jsonl.lines().count(), m.len());
        let first = jsonl.lines().next().expect("one line per metric");
        assert_eq!(
            first,
            "{\"scenario\":\"paper-default \\\"quoted\\\"\",\"policy\":\"Online\",\
\"metric\":\"barrier_depth\",\"type\":\"slot-histogram\",\
\"count\":6,\"min\":0,\"max\":5,\"sum\":15,\"buckets\":[1,1,2,2]}"
        );
    }
}
