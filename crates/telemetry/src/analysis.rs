//! Trace analysis: summaries, timelines and diffs over event streams.
//!
//! These are the library backing of the `fedco-trace` CLI; they operate on
//! parsed [`Event`] streams and produce plain-text reports, so tests and
//! other tools can use them without shelling out.

use std::collections::{BTreeMap, BTreeSet};

use crate::event::{Channel, Event, EventKind};
use crate::export::event_line;
use crate::metrics::{MetricValue, MetricsRegistry};

/// Renders a per-kind / per-channel summary of a trace, followed by the
/// derived metrics.
pub fn summarize(events: &[Event]) -> String {
    let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut by_channel: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut max_slot = 0u64;
    for event in events {
        *by_kind.entry(event.kind.name()).or_insert(0) += 1;
        let channel = match event.channel() {
            Channel::Semantic => "semantic",
            Channel::Driver => "driver",
            Channel::Fleet => "fleet",
            Channel::Server => "server",
        };
        *by_channel.entry(channel).or_insert(0) += 1;
        max_slot = max_slot.max(event.slot);
    }
    let mut out = String::new();
    out.push_str(&format!(
        "trace: {} events, last slot {}\n",
        events.len(),
        max_slot
    ));
    out.push_str("\nevents by channel:\n");
    for (channel, count) in &by_channel {
        out.push_str(&format!("  {channel:<12} {count}\n"));
    }
    out.push_str("\nevents by kind:\n");
    for (kind, count) in &by_kind {
        out.push_str(&format!("  {kind:<12} {count}\n"));
    }
    let metrics = MetricsRegistry::from_trace(events);
    if !metrics.is_empty() {
        out.push_str("\nderived metrics (scenario / policy / metric):\n");
        for (key, value) in metrics.iter() {
            let rendered = match value {
                MetricValue::Counter(v) => v.to_string(),
                MetricValue::Sum(v) => format!("{v:.3}"),
                MetricValue::Gauge { slot, value } => format!("{value:.3} @ slot {slot}"),
                MetricValue::SlotHistogram(h) => format!(
                    "n={} min={} mean={:.2} max={}",
                    h.count,
                    h.min,
                    h.mean(),
                    h.max
                ),
            };
            out.push_str(&format!(
                "  {} / {} / {:<24} {}\n",
                key.scenario, key.policy, key.name, rendered
            ));
        }
    }
    out
}

/// Restricts a fleet trace to one job's stream (between its `job-start` and
/// `job-end` markers, inclusive). Traces without job markers are returned
/// whole when `job` is 0.
pub fn job_slice(events: &[Event], job: u64) -> Vec<Event> {
    let start = events
        .iter()
        .position(|e| matches!(&e.kind, EventKind::JobStart { job: j, .. } if *j == job));
    let Some(start) = start else {
        return if job == 0 {
            events.to_vec()
        } else {
            Vec::new()
        };
    };
    let end = events[start..]
        .iter()
        .position(|e| matches!(&e.kind, EventKind::JobEnd { job: j } if *j == job))
        .map(|i| start + i + 1)
        .unwrap_or(events.len());
    events[start..end].to_vec()
}

/// Renders the per-component cumulative energy timeline of a trace: one row
/// per sampled slot, one column per [`EnergyComponent`]-label seen.
///
/// [`EnergyComponent`]: https://docs.rs/fedco-device
pub fn timeline(events: &[Event]) -> String {
    let mut components: BTreeSet<&str> = BTreeSet::new();
    for event in events {
        if let EventKind::Energy { component, .. } = &event.kind {
            components.insert(component);
        }
    }
    if components.is_empty() {
        return "no energy samples in trace\n".to_string();
    }
    // slot -> component -> cumulative joules, in slot order.
    let mut rows: BTreeMap<u64, BTreeMap<&str, f64>> = BTreeMap::new();
    for event in events {
        if let EventKind::Energy { component, joules } = &event.kind {
            rows.entry(event.slot)
                .or_default()
                .insert(component, *joules);
        }
    }
    let mut out = String::new();
    out.push_str(&format!("{:>8}", "slot"));
    for component in &components {
        out.push_str(&format!("  {component:>12}"));
    }
    out.push_str(&format!("  {:>12}\n", "total_j"));
    let mut last: BTreeMap<&str, f64> = BTreeMap::new();
    for (slot, samples) in &rows {
        for (component, joules) in samples {
            last.insert(*component, *joules);
        }
        out.push_str(&format!("{slot:>8}"));
        let mut total = 0.0;
        for component in &components {
            let joules = last.get(component).copied().unwrap_or(0.0);
            total += joules;
            out.push_str(&format!("  {joules:>12.3}"));
        }
        out.push_str(&format!("  {total:>12.3}\n"));
    }
    out
}

/// The result of diffing two traces.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Events compared on each side (after channel filtering).
    pub compared: (usize, usize),
    /// The first divergence, if any: index into the filtered streams plus
    /// the serialized line of each side (`None` when one stream simply ends
    /// first).
    pub divergence: Option<(usize, Option<String>, Option<String>)>,
}

impl DiffReport {
    /// Whether the two traces are identical under the chosen filter.
    pub fn identical(&self) -> bool {
        self.divergence.is_none()
    }
}

impl std::fmt::Display for DiffReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.divergence {
            None => write!(f, "identical: {} events on both sides", self.compared.0),
            Some((index, left, right)) => {
                writeln!(
                    f,
                    "diverges at event {index} (left has {}, right has {}):",
                    self.compared.0, self.compared.1
                )?;
                writeln!(
                    f,
                    "  left : {}",
                    left.as_deref().unwrap_or("<end of trace>")
                )?;
                write!(
                    f,
                    "  right: {}",
                    right.as_deref().unwrap_or("<end of trace>")
                )
            }
        }
    }
}

/// Diffs two traces down to the first divergence.
///
/// By default only the **semantic** and **fleet** channels are compared:
/// the driver channel (the dense span that closes each run) describes how
/// the engine executed a run, not what the simulated system did. Pass
/// `include_driver` to compare everything.
pub fn diff(left: &[Event], right: &[Event], include_driver: bool) -> DiffReport {
    let keep = |e: &&Event| include_driver || e.channel() != Channel::Driver;
    let left: Vec<&Event> = left.iter().filter(keep).collect();
    let right: Vec<&Event> = right.iter().filter(keep).collect();
    let compared = (left.len(), right.len());
    for i in 0..left.len().max(right.len()) {
        match (left.get(i), right.get(i)) {
            (Some(l), Some(r)) if l == r => {}
            (l, r) => {
                return DiffReport {
                    compared,
                    divergence: Some((i, l.map(|e| event_line(e)), r.map(|e| event_line(e)))),
                };
            }
        }
    }
    DiffReport {
        compared,
        divergence: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn semantic(slot: u64, depth: u64) -> Event {
        Event::new(slot, EventKind::Barrier { depth })
    }

    #[test]
    fn diff_ignores_driver_channel_by_default() {
        let left = vec![
            semantic(1, 1),
            Event::new(
                5,
                EventKind::DenseSpan {
                    slots: 5,
                    idle_decisions: 2,
                },
            ),
            semantic(9, 2),
        ];
        let right = vec![
            semantic(1, 1),
            Event::new(
                5,
                EventKind::DenseSpan {
                    slots: 4,
                    idle_decisions: 2,
                },
            ),
            semantic(9, 2),
        ];
        let report = diff(&left, &right, false);
        assert!(report.identical());
        assert_eq!(report.compared, (2, 2));
        assert!(report.to_string().starts_with("identical"));
        let full = diff(&left, &right, true);
        assert!(!full.identical());
        assert_eq!(full.divergence.as_ref().map(|d| d.0), Some(1));
    }

    #[test]
    fn diff_reports_first_divergence_and_length_mismatch() {
        let left = vec![semantic(1, 1), semantic(2, 2)];
        let right = vec![semantic(1, 1), semantic(2, 3)];
        let report = diff(&left, &right, false);
        let (index, l, r) = report.divergence.clone().expect("diverges");
        assert_eq!(index, 1);
        assert!(l.unwrap().contains("\"depth\":2"));
        assert!(r.unwrap().contains("\"depth\":3"));
        let short = diff(&left, &left[..1], false);
        let (index, l, r) = short.divergence.clone().expect("diverges");
        assert_eq!(index, 1);
        assert!(l.is_some());
        assert!(r.is_none());
        assert!(short.to_string().contains("<end of trace>"));
    }

    #[test]
    fn summarize_counts_kinds_and_channels() {
        let events = vec![
            semantic(1, 1),
            semantic(2, 2),
            Event::new(
                10,
                EventKind::DenseSpan {
                    slots: 8,
                    idle_decisions: 0,
                },
            ),
        ];
        let text = summarize(&events);
        assert!(text.contains("3 events"));
        assert!(text.contains("last slot 10"));
        assert!(text.contains("semantic"));
        assert!(text.contains("barrier      2"));
        assert!(text.contains("dense-span   1"));
    }

    #[test]
    fn timeline_carries_components_forward() {
        let energy = |slot: u64, component: &'static str, joules: f64| {
            Event::new(slot, EventKind::Energy { component, joules })
        };
        let events = vec![
            energy(30, "idle", 1.0),
            energy(30, "radio", 0.5),
            energy(60, "idle", 2.0),
        ];
        let text = timeline(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("idle"));
        assert!(lines[0].contains("radio"));
        assert!(lines[1].trim_start().starts_with("30"));
        // Slot 60 re-samples idle; radio carries forward from slot 30.
        assert!(lines[2].contains("2.000"));
        assert!(lines[2].contains("0.500"));
        assert!(lines[2].contains("2.500"));
        assert_eq!(timeline(&[semantic(1, 1)]), "no energy samples in trace\n");
    }

    #[test]
    fn job_slice_extracts_one_job() {
        let events = vec![
            Event::new(0, EventKind::job_start(0, "a".into(), "p".into())),
            semantic(1, 1),
            Event::new(5, EventKind::JobEnd { job: 0 }),
            Event::new(0, EventKind::job_start(1, "b".into(), "p".into())),
            semantic(2, 2),
            Event::new(9, EventKind::JobEnd { job: 1 }),
        ];
        let one = job_slice(&events, 1);
        assert_eq!(one.len(), 3);
        assert!(matches!(
            &one[0].kind,
            EventKind::JobStart { labels, .. } if labels.scenario == "b"
        ));
        assert!(job_slice(&events[1..2], 0).len() == 1);
        assert!(job_slice(&events[1..2], 3).is_empty());
    }
}
