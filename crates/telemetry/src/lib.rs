//! Deterministic telemetry for the fedco workspace: slot-clocked tracing,
//! metrics and profiling.
//!
//! The primary clock of every trace is the **simulation slot**, never wall
//! time, so a trace is a pure function of the scenario configuration:
//! bit-identical across runs, between the engine's indexed slot loop and
//! its plain-scan reference, and across fleet worker counts. The
//! one place wall time exists is the [`profiling`] module, whose
//! measurements are wrapped in [`profiling::Measured`] and therefore never
//! participate in equality comparisons.
//!
//! Modules:
//!
//! * [`event`] — typed events and their semantic/driver/fleet channels.
//! * [`sink`] — [`sink::BufferSink`], the one sink.
//! * [`metrics`] — counters/sums/gauges/slot-histograms derived purely from
//!   traces, keyed by `(scenario, policy)`.
//! * [`export`] — byte-stable JSONL/CSV exporters and the matching parser.
//! * [`analysis`] — summaries, energy timelines and first-divergence diffs
//!   (the library behind the `fedco-trace` CLI).
//! * [`profiling`] — the single annotated wall-clock module.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analysis;
pub mod event;
pub mod export;
pub mod metrics;
pub mod profiling;
pub mod sink;

/// The common imports: `use fedco_telemetry::prelude::*;`.
pub mod prelude {
    pub use crate::analysis::{diff, job_slice, summarize, timeline, DiffReport};
    pub use crate::event::{Channel, Event, EventKind};
    pub use crate::export::{
        event_line, events_to_csv, events_to_jsonl, parse_events_jsonl, ParseError,
    };
    pub use crate::metrics::{MetricKey, MetricValue, MetricsRegistry, SlotHistogram};
    pub use crate::profiling::{Measured, Stopwatch};
    pub use crate::sink::BufferSink;
}

pub use prelude::*;
