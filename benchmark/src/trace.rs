//! In-memory spans around every call the harness makes into a layer.
//!
//! One origin stopwatch gives every start and end, so spans of one run are
//! comparable. Timing always happens — the passes need the durations for
//! `setup_s` / `wall_s` — and *tracing* only adds keeping the span records,
//! which are written out once, when the run ends.

use fedco_telemetry::profiling::Stopwatch;

use crate::json::Value;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer call it wraps, e.g. `sim.run`.
    pub name: &'static str,
    /// Seconds since the run's origin.
    pub start_s: f64,
    /// Seconds since the run's origin.
    pub end_s: f64,
    /// Index of the span that caused it.
    pub parent: Option<usize>,
    /// The pass (repetition) of the workload it belongs to: spans of one
    /// pass share this identifier.
    pub pass: u32,
}

impl Span {
    /// `end − start`.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// An open span, returned by [`Tracer::enter`] and closed by
/// [`Tracer::exit`].
#[derive(Debug)]
#[must_use = "close the span with Tracer::exit"]
pub struct Open {
    start_s: f64,
    index: Option<usize>,
}

/// The span recorder of one run.
#[derive(Debug)]
pub struct Tracer {
    origin: Stopwatch,
    recording: bool,
    pass: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Stopwatch::start(),
            recording: false,
            pass: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Tracer {
    /// Seconds since the run's origin.
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed_s()
    }

    /// Starts pass `pass`, keeping its spans only when `recording`.
    pub fn begin_pass(&mut self, pass: u32, recording: bool) {
        self.pass = pass;
        self.recording = recording;
        self.stack.clear();
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let start_s = self.now_s();
        let index = self.recording.then(|| {
            self.spans.push(Span {
                name,
                start_s,
                end_s: start_s,
                parent: self.stack.last().copied(),
                pass: self.pass,
            });
            self.spans.len() - 1
        });
        if let Some(index) = index {
            self.stack.push(index);
        }
        Open { start_s, index }
    }

    /// Closes a span and returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end_s = self.now_s();
        if let Some(index) = open.index {
            if let Some(span) = self.spans.get_mut(index) {
                span.end_s = end_s;
            }
            // Close any span left open inside this one (an early return).
            while let Some(top) = self.stack.pop() {
                if top == index {
                    break;
                }
            }
        }
        end_s - open.start_s
    }

    /// Every recorded span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans as JSON lines: name, start, end, parent, pass and
    /// self time, one span per line.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let self_s = self_times(&self.spans);
        let mut out = String::new();
        for (id, (span, self_s)) in self.spans.iter().zip(self_s).enumerate() {
            let line = Value::obj([
                ("id", Value::Num(id as f64)),
                ("workload", Value::str(workload)),
                ("pass", Value::Num(f64::from(span.pass))),
                ("name", Value::str(span.name)),
                ("start_s", Value::Num(span.start_s)),
                ("end_s", Value::Num(span.end_s)),
                (
                    "parent",
                    span.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("self_s", Value::Num(self_s)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

/// Self time of each span: its duration minus the part of its interval that
/// its direct children cover (overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(slot) = span.parent.and_then(|p| children.get_mut(p)) {
            slot.push((span.start_s, span.end_s));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut frontier = span.start_s;
            for (start, end) in kids {
                let start = start.max(frontier);
                let end = end.min(span.end_s);
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
            span.duration_s() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_s,
            end_s,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span("pass", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 4.0, 6.0, Some(0)),       // adjacent to `a`
            span("a.inner", 2.0, 3.0, Some(1)), // nested: counts against `a` only
        ];
        let self_s = self_times(&spans);
        assert_eq!(self_s, vec![5.0, 2.0, 2.0, 1.0]);
    }

    #[test]
    fn overlapping_children_are_not_counted_twice() {
        let spans = vec![
            span("pass", 0.0, 10.0, None),
            span("a", 1.0, 5.0, Some(0)),
            span("b", 3.0, 7.0, Some(0)),
            span("late", 9.0, 12.0, Some(0)), // clipped to the parent
        ];
        assert_eq!(self_times(&spans)[0], 10.0 - 6.0 - 1.0);
    }

    #[test]
    fn tracer_records_parents_only_while_recording() {
        let mut tracer = Tracer::default();
        tracer.begin_pass(0, true);
        let outer = tracer.enter("pass");
        let inner = tracer.enter("sim.run");
        let inner_s = tracer.exit(inner);
        let outer_s = tracer.exit(outer);
        assert!(outer_s >= inner_s && inner_s >= 0.0);
        tracer.begin_pass(1, false);
        let quiet = tracer.enter("pass");
        assert!(tracer.exit(quiet) >= 0.0);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2, "the untraced pass keeps no span");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        let jsonl = tracer.to_jsonl("w");
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            assert!(crate::json::parse(line).is_ok(), "{line}");
        }
    }
}
