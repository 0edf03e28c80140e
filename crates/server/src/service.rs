//! The service core: admission, ingress queueing, aggregation, telemetry.
//!
//! [`ServerCore`] is the single-threaded heart of the service. It owns the
//! [`ParameterServer`], the session registry and the bounded ingress queue,
//! and handles one decoded [`Message`] at a time; transports (the in-process
//! channel, or one thread per TCP connection sharing the core behind a
//! mutex) feed it frames. All behaviour is a pure function of the request
//! sequence and the logical tick clock, which is what makes in-process soak
//! telemetry byte-stable across runs.
//!
//! Two ingress modes:
//!
//! * `queue_capacity == 0` — **inline**: every push applies immediately and
//!   the reply carries the resulting lag and version. This is the mode the
//!   served-vs-batch equivalence contract covers.
//! * `queue_capacity > 0` — **queued**: pushes land in a bounded queue and
//!   are drained (at most `drain_per_tick`) by [`ServerCore::advance_tick`];
//!   a full queue sheds load with an explicit backpressure refusal instead
//!   of buffering unboundedly.
//!
//! A request costs the same however much other sessions have queued: each
//! session counts its own queued updates ([`Session::queued`]), and a
//! `Leave` walks the queue to apply the leaver's work only when that count
//! is above zero. A session that expires keeps its entries in the queue;
//! they drain later as `unknown-session` refusals.
//!
//! [`Session::queued`]: crate::session::Session::queued

use std::collections::VecDeque;
use std::sync::Arc;

use fedco_fl::aggregation::AsyncUpdateRule;
use fedco_fl::model_state::{LocalUpdate, ModelVersion};
use fedco_fl::server::{ParameterServer, ServerStats};
use fedco_neural::model::ParamVector;
use fedco_telemetry::event::{Event, EventKind};
use fedco_telemetry::sink::BufferSink;

use crate::protocol::{Message, Refusal, WireError, WireUpdate};
use crate::session::{ChurnCounters, SessionConfig, SessionRegistry};

/// Everything that parameterises a [`ServerCore`].
#[derive(Debug, Clone)]
pub struct ServerCoreConfig {
    /// The initial global model.
    pub initial: ParamVector,
    /// Momentum learning rate (matches the clients' optimiser).
    pub learning_rate: f32,
    /// Momentum decay factor β.
    pub momentum_beta: f32,
    /// Session admission/expiry policy.
    pub session: SessionConfig,
    /// Ingress queue bound; `0` applies pushes inline.
    pub queue_capacity: usize,
    /// Queued updates applied per tick (ignored in inline mode).
    pub drain_per_tick: usize,
    /// Auto-advance the tick after this many handled frames, over either
    /// transport (`0` = the owner advances ticks manually — the
    /// deterministic in-process mode).
    pub tick_every: u64,
}

impl ServerCoreConfig {
    /// A config serving a fresh zero model of the given length, inline
    /// ingress, default sessions — the simplest correct service.
    pub fn inline_with_model(initial: ParamVector) -> Self {
        ServerCoreConfig {
            initial,
            learning_rate: 0.01,
            momentum_beta: 0.9,
            session: SessionConfig::default(),
            queue_capacity: 0,
            drain_per_tick: 0,
            tick_every: 0,
        }
    }
}

/// The session-oriented aggregation service core.
#[derive(Debug)]
pub struct ServerCore {
    server: ParameterServer,
    registry: SessionRegistry,
    queue: VecDeque<(u64, LocalUpdate)>,
    counters: ChurnCounters,
    tick: u64,
    frames_handled: u64,
    model_len: usize,
    queue_capacity: usize,
    drain_per_tick: usize,
    tick_every: u64,
    shutting_down: bool,
    telemetry: Option<Arc<BufferSink>>,
}

impl ServerCore {
    /// Builds a core from a config.
    pub fn new(config: ServerCoreConfig) -> Self {
        let model_len = config.initial.len();
        ServerCore {
            server: ParameterServer::new(
                config.initial,
                AsyncUpdateRule::Replace,
                config.learning_rate,
                config.momentum_beta,
            ),
            registry: SessionRegistry::new(config.session),
            queue: VecDeque::new(),
            counters: ChurnCounters::default(),
            tick: 0,
            frames_handled: 0,
            model_len,
            queue_capacity: config.queue_capacity,
            drain_per_tick: config.drain_per_tick,
            tick_every: config.tick_every,
            shutting_down: false,
            telemetry: None,
        }
    }

    /// Attaches a telemetry sink; every session/aggregation decision is
    /// recorded as a `Server`-channel event stamped with the logical tick.
    pub fn attach_telemetry(&mut self, sink: Arc<BufferSink>) {
        self.telemetry = Some(sink);
    }

    fn emit(&self, kind: EventKind) {
        if let Some(sink) = &self.telemetry {
            sink.record(Event::new(self.tick, kind));
        }
    }

    /// The current logical tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Lifetime churn counters.
    pub fn counters(&self) -> ChurnCounters {
        self.counters
    }

    /// Aggregation statistics of the wrapped parameter server.
    pub fn stats(&self) -> ServerStats {
        self.server.stats()
    }

    /// Live session count.
    pub fn live_sessions(&self) -> usize {
        self.registry.len()
    }

    /// The session admission cap (`SessionConfig::max_sessions`).
    pub fn max_sessions(&self) -> usize {
        self.registry.config.max_sessions
    }

    /// Current ingress-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The current global model (version + parameters).
    pub fn model(&self) -> (u64, ParamVector) {
        let snap = self.server.download();
        (snap.version.0, snap.params)
    }

    /// Advances the logical tick: expires silent sessions, then drains up
    /// to `drain_per_tick` queued updates into the global model.
    pub fn advance_tick(&mut self) {
        self.tick += 1;
        for id in self.registry.expire(self.tick) {
            self.counters.expired += 1;
            self.emit(EventKind::SessionExpired { session: id });
        }
        let budget = self.drain_per_tick.max(1);
        for _ in 0..budget {
            match self.queue.pop_front() {
                Some((session, update)) => self.apply_queued(session, update),
                None => break,
            }
        }
    }

    /// Applies every queued update belonging to `session` in queue order,
    /// preserving the queue order of everyone else's. It rebuilds the whole
    /// queue, so a `Leave` calls it only for a session whose `queued` count
    /// says it has work there.
    fn flush_queued_for(&mut self, session: u64) {
        let mut mine = Vec::new();
        let drained = std::mem::take(&mut self.queue);
        for (s, update) in drained {
            if s == session {
                mine.push(update);
            } else {
                self.queue.push_back((s, update));
            }
        }
        for update in mine {
            self.apply_queued(session, update);
        }
    }

    fn apply_queued(&mut self, session: u64, update: LocalUpdate) {
        // A session can expire or leave while its update waits; the update
        // is then dropped (the device will retry), mirroring a real server
        // discarding uploads from evicted clients.
        if self.registry.get(session).is_none() {
            self.counters.pushes_refused += 1;
            self.emit(EventKind::PushRefused {
                session,
                reason: Refusal::UnknownSession.label(),
            });
            return;
        }
        match self.server.apply_async(&update) {
            Ok((lag, ModelVersion(version))) => {
                self.registry.record_drained(session);
                self.counters.pushes_applied += 1;
                self.emit(EventKind::PushApplied {
                    session,
                    lag: lag.value(),
                    version,
                });
            }
            Err(_) => {
                self.counters.pushes_refused += 1;
                self.emit(EventKind::PushRefused {
                    session,
                    reason: Refusal::WrongModelLen.label(),
                });
            }
        }
    }

    /// Handles one decoded request, producing the reply to send back, and
    /// counts it towards the frame clock (`tick_every`) — here, where the
    /// TCP connection threads and [`handle_bytes`](Self::handle_bytes) both
    /// pass, so the clock runs whichever transport carried the frame.
    pub fn handle(&mut self, msg: Message) -> Message {
        let reply = self.dispatch(msg);
        self.frames_handled += 1;
        if self.tick_every > 0 && self.frames_handled % self.tick_every == 0 {
            self.advance_tick();
        }
        reply
    }

    fn dispatch(&mut self, msg: Message) -> Message {
        match msg {
            Message::Hello { client } => self.handle_hello(client),
            Message::PullModel { session } => {
                let snap = self.server.download();
                if self
                    .registry
                    .record_pull(session, self.tick, snap.version.0)
                {
                    Message::Model {
                        version: snap.version.0,
                        params: snap.params.into_values(),
                    }
                } else {
                    Message::PushRefused {
                        reason: Refusal::UnknownSession,
                    }
                }
            }
            Message::PushUpdate { session, update } => self.handle_push(session, update),
            Message::PushRound { session, updates } => self.handle_round(session, updates),
            Message::Heartbeat { session } => {
                if self.registry.touch(session, self.tick) {
                    Message::HeartbeatAck { tick: self.tick }
                } else {
                    Message::PushRefused {
                        reason: Refusal::UnknownSession,
                    }
                }
            }
            Message::Leave { session } => match self.registry.get(session).map(|s| s.queued) {
                Some(queued) => {
                    // A graceful goodbye flushes the client's queued work
                    // first: accepted updates are only ever dropped when a
                    // session *vanishes* (expiry), never when it leaves.
                    if queued > 0 {
                        self.flush_queued_for(session);
                    }
                    self.registry.leave(session);
                    self.counters.left += 1;
                    Message::LeaveOk
                }
                None => Message::PushRefused {
                    reason: Refusal::UnknownSession,
                },
            },
            Message::QueryNorm => Message::NormIs {
                bits: self.server.momentum_norm().to_bits(),
            },
            Message::QueryStats => {
                let stats = self.server.stats();
                Message::StatsIs {
                    async_updates: stats.async_updates,
                    sync_rounds: stats.sync_rounds,
                    total_lag: stats.total_lag,
                    max_lag: stats.max_lag,
                }
            }
            Message::Shutdown => {
                // Drain everything still queued so accepted work is never
                // lost, then stop admitting new sessions and updates.
                while let Some((session, update)) = self.queue.pop_front() {
                    self.apply_queued(session, update);
                }
                self.shutting_down = true;
                Message::ShutdownOk
            }
            // A reply kind arriving as a request is a protocol misuse, not
            // a crash: refuse it.
            _ => Message::PushRefused {
                reason: Refusal::BadRequest,
            },
        }
    }

    fn handle_hello(&mut self, client: u64) -> Message {
        if self.shutting_down {
            self.counters.joins_rejected += 1;
            self.emit(EventKind::JoinRejected {
                client,
                reason: Refusal::ShuttingDown.label(),
            });
            return Message::JoinRefused {
                reason: Refusal::ShuttingDown,
            };
        }
        let version = self.server.version().0;
        match self.registry.join(client, self.tick, version) {
            Ok(session) => {
                self.counters.joins_accepted += 1;
                self.emit(EventKind::JoinAccepted { session, client });
                Message::Welcome {
                    session,
                    model_version: version,
                    model_len: self.model_len as u64,
                }
            }
            Err(reason) => {
                self.counters.joins_rejected += 1;
                self.emit(EventKind::JoinRejected {
                    client,
                    reason: reason.label(),
                });
                Message::JoinRefused { reason }
            }
        }
    }

    fn refuse_push(&mut self, session: u64, reason: Refusal) -> Message {
        self.counters.pushes_refused += 1;
        self.emit(EventKind::PushRefused {
            session,
            reason: reason.label(),
        });
        Message::PushRefused { reason }
    }

    fn handle_push(&mut self, session: u64, update: WireUpdate) -> Message {
        if self.shutting_down {
            return self.refuse_push(session, Refusal::ShuttingDown);
        }
        if self.registry.get(session).is_none() {
            return self.refuse_push(session, Refusal::UnknownSession);
        }
        if update.params.len() != self.model_len {
            return self.refuse_push(session, Refusal::WrongModelLen);
        }
        let local = wire_to_local(update);
        if self.queue_capacity == 0 {
            match self.server.apply_async(&local) {
                Ok((lag, ModelVersion(version))) => {
                    self.registry.record_push(session, self.tick);
                    self.counters.pushes_applied += 1;
                    self.emit(EventKind::PushApplied {
                        session,
                        lag: lag.value(),
                        version,
                    });
                    Message::PushApplied {
                        lag: lag.value(),
                        version,
                    }
                }
                Err(_) => self.refuse_push(session, Refusal::WrongModelLen),
            }
        } else if self.queue.len() >= self.queue_capacity {
            self.refuse_push(session, Refusal::Backpressure)
        } else {
            self.registry.record_queued(session, self.tick);
            self.queue.push_back((session, local));
            self.counters.pushes_queued += 1;
            Message::PushQueued {
                depth: self.queue.len() as u64,
            }
        }
    }

    fn handle_round(&mut self, session: u64, updates: Vec<WireUpdate>) -> Message {
        if self.shutting_down {
            return self.refuse_push(session, Refusal::ShuttingDown);
        }
        if self.registry.get(session).is_none() {
            return self.refuse_push(session, Refusal::UnknownSession);
        }
        if updates.is_empty() {
            return self.refuse_push(session, Refusal::BadRequest);
        }
        if updates.iter().any(|u| u.params.len() != self.model_len) {
            return self.refuse_push(session, Refusal::WrongModelLen);
        }
        let locals: Vec<LocalUpdate> = updates.into_iter().map(wire_to_local).collect();
        match self.server.apply_sync_round(&locals) {
            Ok(ModelVersion(version)) => {
                self.registry.record_push(session, self.tick);
                self.counters.rounds_applied += 1;
                self.emit(EventKind::RoundAdvance {
                    version,
                    participants: locals.len() as u64,
                });
                Message::RoundOk { version }
            }
            Err(_) => self.refuse_push(session, Refusal::WrongModelLen),
        }
    }

    /// Decodes one frame, handles it, and encodes the reply into `reply`
    /// (replacing what it held, reusing its allocation) — the in-process
    /// channel's request path, so it exercises the wire format end to end.
    ///
    /// # Errors
    ///
    /// Returns the [`WireError`] of a malformed request frame, leaving
    /// `reply` untouched; the caller decides whether to drop the connection.
    pub fn handle_bytes(&mut self, frame: &[u8], reply: &mut Vec<u8>) -> Result<(), WireError> {
        let msg = Message::from_frame(frame)?;
        self.handle(msg).encode_into(reply);
        Ok(())
    }
}

fn wire_to_local(update: WireUpdate) -> LocalUpdate {
    LocalUpdate {
        client_id: update.client as usize,
        params: ParamVector::new(update.params),
        base_version: ModelVersion(update.base_version),
        num_samples: update.num_samples as usize,
        train_loss: f32::from_bits(update.train_loss_bits),
        train_accuracy: f32::from_bits(update.train_accuracy_bits),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedco_rng::rngs::SmallRng;
    use fedco_rng::{Rng, SeedableRng};

    fn core(queue_capacity: usize, drain: usize, max_sessions: usize) -> ServerCore {
        ServerCore::new(ServerCoreConfig {
            initial: ParamVector::zeros(4),
            learning_rate: 0.1,
            momentum_beta: 0.9,
            session: SessionConfig {
                heartbeat_timeout_ticks: 2,
                max_sessions,
            },
            queue_capacity,
            drain_per_tick: drain,
            tick_every: 0,
        })
    }

    fn join(c: &mut ServerCore, client: u64) -> u64 {
        match c.handle(Message::Hello { client }) {
            Message::Welcome { session, .. } => session,
            other => panic!("expected Welcome, got {}", other.name()),
        }
    }

    fn push(c: &mut ServerCore, session: u64, params: Vec<f32>) -> Message {
        c.handle(Message::PushUpdate {
            session,
            update: WireUpdate {
                client: 1,
                base_version: 0,
                num_samples: 8,
                train_loss_bits: 0,
                train_accuracy_bits: 0,
                params,
            },
        })
    }

    #[test]
    fn inline_mode_applies_and_reports_lag_and_version() {
        let mut c = core(0, 0, 8);
        let s = join(&mut c, 1);
        let reply = push(&mut c, s, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(reply, Message::PushApplied { lag: 0, version: 1 });
        assert_eq!(c.model().1.values(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.counters().pushes_applied, 1);
    }

    #[test]
    fn queued_mode_backpressures_and_drains_per_tick() {
        let mut c = core(2, 1, 8);
        let s = join(&mut c, 1);
        assert_eq!(
            push(&mut c, s, vec![1.0; 4]),
            Message::PushQueued { depth: 1 }
        );
        assert_eq!(
            push(&mut c, s, vec![2.0; 4]),
            Message::PushQueued { depth: 2 }
        );
        assert_eq!(
            push(&mut c, s, vec![3.0; 4]),
            Message::PushRefused {
                reason: Refusal::Backpressure
            }
        );
        assert_eq!(c.counters().pushes_refused, 1);
        c.advance_tick();
        assert_eq!(c.queue_depth(), 1);
        assert_eq!(c.stats().async_updates, 1);
        c.advance_tick();
        assert_eq!(c.queue_depth(), 0);
        assert_eq!(c.stats().async_updates, 2);
    }

    #[test]
    fn sessions_expire_without_heartbeats_and_their_queued_pushes_drop() {
        let mut c = core(4, 4, 8);
        let s = join(&mut c, 1);
        assert_eq!(
            push(&mut c, s, vec![1.0; 4]),
            Message::PushQueued { depth: 1 }
        );
        // Queue three updates, then go silent: the drain applies one per
        // tick (without touching the session — backlog is not liveness),
        // so on tick 3 expiry runs first and orphans the last update.
        let mut c2 = core(4, 0, 8);
        let s2 = join(&mut c2, 1);
        for _ in 0..3 {
            assert!(matches!(
                push(&mut c2, s2, vec![1.0; 4]),
                Message::PushQueued { .. }
            ));
        }
        c2.advance_tick();
        c2.advance_tick();
        c2.advance_tick(); // 3 silent ticks > heartbeat_timeout_ticks = 2
        assert_eq!(c2.counters().expired, 1);
        assert_eq!(c2.live_sessions(), 0);
        assert!(c2.counters().pushes_refused >= 1, "orphaned update dropped");
        assert_eq!(
            c2.handle(Message::Heartbeat { session: s2 }),
            Message::PushRefused {
                reason: Refusal::UnknownSession
            }
        );
        drop(c);
    }

    #[test]
    fn server_full_and_wrong_len_and_unknown_session_are_refused() {
        let mut c = core(0, 0, 1);
        let s = join(&mut c, 1);
        assert_eq!(
            c.handle(Message::Hello { client: 2 }),
            Message::JoinRefused {
                reason: Refusal::ServerFull
            }
        );
        assert_eq!(
            push(&mut c, s, vec![1.0; 3]),
            Message::PushRefused {
                reason: Refusal::WrongModelLen
            }
        );
        assert_eq!(
            push(&mut c, 999, vec![1.0; 4]),
            Message::PushRefused {
                reason: Refusal::UnknownSession
            }
        );
        assert_eq!(c.counters().joins_rejected, 1);
    }

    #[test]
    fn graceful_leave_flushes_the_sessions_queued_updates() {
        let mut c = core(8, 1, 8);
        let a = join(&mut c, 1);
        let b = join(&mut c, 2);
        assert!(matches!(
            push(&mut c, a, vec![1.0; 4]),
            Message::PushQueued { .. }
        ));
        assert!(matches!(
            push(&mut c, b, vec![2.0; 4]),
            Message::PushQueued { .. }
        ));
        assert!(matches!(
            push(&mut c, a, vec![3.0; 4]),
            Message::PushQueued { .. }
        ));
        // Leaving applies both of a's updates immediately; b's stays queued.
        assert_eq!(c.handle(Message::Leave { session: a }), Message::LeaveOk);
        assert_eq!(c.stats().async_updates, 2);
        assert_eq!(c.queue_depth(), 1);
        assert_eq!(c.counters().pushes_applied, 2);
        assert_eq!(c.counters().pushes_refused, 0, "a goodbye never drops work");
        // b's update still drains in order on the next tick.
        c.advance_tick();
        assert_eq!(c.stats().async_updates, 3);
        assert_eq!(c.queue_depth(), 0);
    }

    #[test]
    fn shutdown_drains_then_refuses_everything() {
        let mut c = core(4, 1, 8);
        let s = join(&mut c, 1);
        assert!(matches!(
            push(&mut c, s, vec![9.0; 4]),
            Message::PushQueued { .. }
        ));
        assert_eq!(c.handle(Message::Shutdown), Message::ShutdownOk);
        assert_eq!(c.stats().async_updates, 1, "queued work applied on drain");
        assert_eq!(
            c.handle(Message::Hello { client: 7 }),
            Message::JoinRefused {
                reason: Refusal::ShuttingDown
            }
        );
        assert_eq!(
            push(&mut c, s, vec![1.0; 4]),
            Message::PushRefused {
                reason: Refusal::ShuttingDown
            }
        );
    }

    #[test]
    fn rounds_aggregate_and_reply_kinds_are_refused_as_requests() {
        let mut c = core(0, 0, 8);
        let s = join(&mut c, 1);
        let mk = |v: f32| WireUpdate {
            client: 0,
            base_version: 0,
            num_samples: 10,
            train_loss_bits: 0,
            train_accuracy_bits: 0,
            params: vec![v; 4],
        };
        let reply = c.handle(Message::PushRound {
            session: s,
            updates: vec![mk(0.0), mk(4.0)],
        });
        assert_eq!(reply, Message::RoundOk { version: 1 });
        assert_eq!(c.model().1.values(), &[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(
            c.handle(Message::PushRound {
                session: s,
                updates: vec![]
            }),
            Message::PushRefused {
                reason: Refusal::BadRequest
            }
        );
        assert_eq!(
            c.handle(Message::LeaveOk),
            Message::PushRefused {
                reason: Refusal::BadRequest
            }
        );
    }

    #[test]
    fn telemetry_records_churn_on_the_tick_clock() {
        let mut c = core(1, 1, 1);
        let sink = BufferSink::shared();
        c.attach_telemetry(sink.clone());
        let s = join(&mut c, 5);
        c.handle(Message::Hello { client: 6 }); // rejected: full
        push(&mut c, s, vec![1.0; 4]); // queued (no event)
        push(&mut c, s, vec![2.0; 4]); // backpressure
        c.advance_tick(); // applies the queued push
        let kinds: Vec<&'static str> = sink.drain().iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            vec![
                "join-accepted",
                "join-rejected",
                "push-refused",
                "push-applied"
            ]
        );
    }

    /// [`ServerCore::handle`] with the `Leave` arm as it was before sessions
    /// counted their queued updates: every graceful leave rebuilds the queue.
    fn handle_reference(c: &mut ServerCore, msg: Message) -> Message {
        let Message::Leave { session } = msg else {
            return c.handle(msg);
        };
        let reply = if c.registry.get(session).is_some() {
            c.flush_queued_for(session);
            c.registry.leave(session);
            c.counters.left += 1;
            Message::LeaveOk
        } else {
            Message::PushRefused {
                reason: Refusal::UnknownSession,
            }
        };
        c.frames_handled += 1;
        if c.tick_every > 0 && c.frames_handled % c.tick_every == 0 {
            c.advance_tick();
        }
        reply
    }

    /// Every live session's `queued` count equals its entries in the queue.
    fn assert_counts_match_the_queue(c: &ServerCore, live: &[u64], at: &str) {
        for &id in live {
            if let Some(s) = c.registry.get(id) {
                let held = c.queue.iter().filter(|(owner, _)| *owner == id).count();
                assert_eq!(s.queued, held as u64, "{at}: session {id}");
            }
        }
    }

    /// One request of the oracle's random mix, or `None` for a tick. The
    /// session is one of the 16 most recent ids (404 is never a session);
    /// `Shutdown` comes only `late`.
    fn random_request(rng: &mut SmallRng, known: &[u64], late: bool) -> Option<Message> {
        let session = known[known.len() - 1 - rng.gen_range(0..known.len().min(16))];
        Some(match rng.gen_range(0..100u32) {
            0..=14 => Message::Hello {
                client: rng.gen_range(0..64u64),
            },
            15..=24 => Message::PullModel { session },
            25..=54 => {
                let len = if rng.gen_bool(0.05) { 3 } else { 4 };
                Message::PushUpdate {
                    session,
                    update: WireUpdate {
                        client: rng.gen_range(0..64u64),
                        base_version: rng.gen_range(0..8u64),
                        num_samples: rng.gen_range(1..64u64),
                        train_loss_bits: rng.gen_range(0.0..4.0f32).to_bits(),
                        train_accuracy_bits: rng.gen_range(0.0..1.0f32).to_bits(),
                        params: (0..len).map(|_| rng.gen_range(-1.0..1.0f32)).collect(),
                    },
                }
            }
            55..=64 => Message::Heartbeat { session },
            65..=79 => Message::Leave { session },
            80..=84 => Message::QueryNorm,
            99 if late => Message::Shutdown,
            _ => return None,
        })
    }

    #[test]
    fn leave_flush_reference_bits() {
        let (mut with_work, mut without_work) = (0u32, 0u32);
        for seed in 0..6u64 {
            // A queue far longer than its drain: updates wait dozens of
            // ticks, so leavers often still hold some of them.
            let [mut new, mut old] = [(); 2].map(|()| {
                let mut c = ServerCore::new(ServerCoreConfig {
                    session: SessionConfig {
                        heartbeat_timeout_ticks: 6,
                        max_sessions: 12,
                    },
                    queue_capacity: 48,
                    drain_per_tick: 1,
                    ..ServerCoreConfig::inline_with_model(ParamVector::zeros(4))
                });
                let sink = BufferSink::shared();
                c.attach_telemetry(sink.clone());
                (c, sink)
            });
            let mut rng = SmallRng::seed_from_u64(seed);
            let (mut known, mut live) = (vec![404], Vec::new());
            for step in 0..4_000 {
                let at = format!("seed {seed} step {step}");
                match random_request(&mut rng, &known, step >= 3_800) {
                    None => {
                        new.0.advance_tick();
                        old.0.advance_tick();
                    }
                    Some(msg) => {
                        if let Message::Leave { session } = msg {
                            if new.0.registry.get(session).is_some() {
                                match new.0.queue.iter().any(|(owner, _)| *owner == session) {
                                    true => with_work += 1,
                                    false => without_work += 1,
                                }
                            }
                        }
                        let reply = new.0.handle(msg.clone());
                        assert_eq!(reply, handle_reference(&mut old.0, msg), "{at}");
                        if let Message::Welcome { session, .. } = reply {
                            known.push(session);
                            live.push(session);
                        }
                    }
                }
                assert_eq!(new.0.counters(), old.0.counters(), "{at}");
                assert_eq!(new.0.stats(), old.0.stats(), "{at}");
                assert_eq!(new.0.queue_depth(), old.0.queue_depth(), "{at}");
                assert_eq!(new.1.drain(), old.1.drain(), "{at}");
                let [(v_new, p_new), (v_old, p_old)] = [&new.0, &old.0].map(ServerCore::model);
                assert_eq!(v_new, v_old, "{at}");
                let bits = |p: &ParamVector| p.values().iter().map(|v| v.to_bits()).collect();
                let (b_new, b_old): (Vec<u32>, Vec<u32>) = (bits(&p_new), bits(&p_old));
                assert_eq!(b_new, b_old, "{at}: model bits");
                live.retain(|id| new.0.registry.get(*id).is_some());
                assert_counts_match_the_queue(&new.0, &live, &at);
                assert_counts_match_the_queue(&old.0, &live, &at);
            }
        }
        assert!(with_work > 100, "only {with_work} leaves held queued work");
        assert!(without_work > 100, "only {without_work} leaves held none");
    }

    #[test]
    fn handle_bytes_round_trips_the_wire_and_auto_ticks() {
        let mut c = ServerCore::new(ServerCoreConfig {
            tick_every: 2,
            ..ServerCoreConfig::inline_with_model(ParamVector::zeros(2))
        });
        let mut reply = Vec::new();
        c.handle_bytes(&Message::Hello { client: 1 }.to_frame(), &mut reply)
            .unwrap();
        assert!(matches!(
            Message::from_frame(&reply).unwrap(),
            Message::Welcome { .. }
        ));
        assert_eq!(c.tick(), 0);
        // A shorter reply replaces the longer one in the same buffer.
        c.handle_bytes(&Message::QueryNorm.to_frame(), &mut reply)
            .unwrap();
        assert!(matches!(
            Message::from_frame(&reply).unwrap(),
            Message::NormIs { .. }
        ));
        assert_eq!(c.tick(), 1, "auto-tick after every 2 frames");
        let before = reply.clone();
        assert!(c.handle_bytes(&[1, 2, 3], &mut reply).is_err());
        assert_eq!(reply, before, "a malformed frame leaves the reply alone");
    }
}
