//! The telemetry sink: where events go.
//!
//! A [`BufferSink`] is shared behind an `Arc` so the engine, the service core
//! and the fleet executor can all write to the same buffer; a run without
//! telemetry attaches none and builds no event. Concurrent producers each
//! write to their **own** buffer, and the buffers are merged in a fixed order
//! afterwards (the fleet executor: one per job, in job order), so the merged
//! stream never depends on thread interleaving.

use std::sync::{Arc, Mutex};

use crate::event::Event;

/// An in-memory sink buffering events in arrival order.
#[derive(Debug, Default)]
pub struct BufferSink {
    events: Mutex<Vec<Event>>,
}

impl BufferSink {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BufferSink::default()
    }

    /// Creates an empty buffer behind an `Arc`, ready to hand to producers.
    pub fn shared() -> Arc<Self> {
        Arc::new(BufferSink::new())
    }

    /// The single audited lock acquisition: the mutex is only poisoned if a
    /// producer panicked mid-push, after which the trace is incomplete and
    /// propagating the panic is the only honest response.
    fn locked(&self) -> std::sync::MutexGuard<'_, Vec<Event>> {
        // fedco-audit: allow(panic-surface): poisoned lock means a producer already panicked; propagate
        self.events.lock().expect("telemetry buffer mutex poisoned")
    }

    /// Records one event. May be called from multiple threads; ordering
    /// across threads is the *caller's* responsibility (use one sink per
    /// producer and merge deterministically).
    pub fn record(&self, event: Event) {
        self.locked().push(event);
    }

    /// Takes the buffered events, leaving the buffer empty.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *self.locked())
    }

    /// A copy of the buffered events.
    pub fn snapshot(&self) -> Vec<Event> {
        self.locked().clone()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.locked().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.locked().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn buffer_sink_preserves_arrival_order() {
        let sink = BufferSink::new();
        assert!(sink.is_empty());
        for slot in 0..5 {
            sink.record(Event::new(slot, EventKind::Barrier { depth: slot }));
        }
        assert_eq!(sink.len(), 5);
        let events = sink.drain();
        assert!(sink.is_empty());
        let slots: Vec<u64> = events.iter().map(|e| e.slot).collect();
        assert_eq!(slots, vec![0, 1, 2, 3, 4]);
    }
}
