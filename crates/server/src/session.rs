//! The session layer: who is connected, since when, and until when.
//!
//! A session is the unit of admission control and staleness tracking. The
//! registry is a `BTreeMap` so every iteration (expiry sweeps, snapshots)
//! happens in session-id order — the in-process soak's byte-stable telemetry
//! depends on it. All time here is the server's **logical tick**, advanced
//! explicitly by the owner; nothing in this module reads a wall clock.

use std::collections::BTreeMap;

use crate::protocol::Refusal;

/// Admission and expiry policy for the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// A session that has not been touched for this many ticks is expired
    /// by the next sweep.
    pub heartbeat_timeout_ticks: u64,
    /// Hard cap on concurrent sessions; joins beyond it are refused.
    pub max_sessions: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            heartbeat_timeout_ticks: 12,
            max_sessions: 1024,
        }
    }
}

/// One live client session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// The registry-assigned session id (monotonic, never reused).
    pub id: u64,
    /// The client's self-declared id.
    pub client: u64,
    /// Tick of the last join/pull/push/heartbeat on this session.
    pub last_seen_tick: u64,
    /// The model version this session last downloaded — the base for its
    /// per-session staleness.
    pub last_pull_version: u64,
    /// Updates this session has had applied.
    pub pushes_applied: u64,
    /// Updates of this session waiting in the service's ingress queue:
    /// [`record_queued`](SessionRegistry::record_queued) counts one in,
    /// [`record_drained`](SessionRegistry::record_drained) one out. A
    /// `Leave` walks the queue only when this is above zero.
    pub queued: u64,
}

/// Counters over the whole life of a registry/service — the soak report's
/// churn evidence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnCounters {
    /// Joins admitted.
    pub joins_accepted: u64,
    /// Joins refused (capacity or shutdown).
    pub joins_rejected: u64,
    /// Sessions evicted by heartbeat expiry.
    pub expired: u64,
    /// Sessions closed by an explicit `Leave`.
    pub left: u64,
    /// Updates applied to the global model.
    pub pushes_applied: u64,
    /// Updates refused (backpressure, unknown session, bad length…).
    pub pushes_refused: u64,
    /// Updates accepted into the ingress queue.
    pub pushes_queued: u64,
    /// Synchronous rounds applied.
    pub rounds_applied: u64,
}

/// The session registry.
#[derive(Debug, Default)]
pub struct SessionRegistry {
    pub(crate) config: SessionConfig,
    sessions: BTreeMap<u64, Session>,
    next_id: u64,
}

impl SessionRegistry {
    /// An empty registry under the given policy.
    pub fn new(config: SessionConfig) -> Self {
        SessionRegistry {
            config,
            sessions: BTreeMap::new(),
            next_id: 1,
        }
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether no session is live.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Admits a client, handing out a fresh session id, or refuses it when
    /// the registry is full.
    ///
    /// # Errors
    ///
    /// [`Refusal::ServerFull`] at capacity.
    pub fn join(&mut self, client: u64, now: u64, model_version: u64) -> Result<u64, Refusal> {
        if self.sessions.len() >= self.config.max_sessions {
            return Err(Refusal::ServerFull);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.sessions.insert(
            id,
            Session {
                id,
                client,
                last_seen_tick: now,
                last_pull_version: model_version,
                pushes_applied: 0,
                queued: 0,
            },
        );
        Ok(id)
    }

    /// Looks a session up.
    pub fn get(&self, session: u64) -> Option<&Session> {
        self.sessions.get(&session)
    }

    /// Marks a session as seen `now`; returns `false` for unknown sessions.
    pub fn touch(&mut self, session: u64, now: u64) -> bool {
        match self.sessions.get_mut(&session) {
            Some(s) => {
                s.last_seen_tick = now;
                true
            }
            None => false,
        }
    }

    /// Records a model download on the session (touches it too).
    pub fn record_pull(&mut self, session: u64, now: u64, version: u64) -> bool {
        match self.sessions.get_mut(&session) {
            Some(s) => {
                s.last_seen_tick = now;
                s.last_pull_version = version;
                true
            }
            None => false,
        }
    }

    /// Records an applied push on the session (touches it too).
    pub fn record_push(&mut self, session: u64, now: u64) -> bool {
        match self.sessions.get_mut(&session) {
            Some(s) => {
                s.last_seen_tick = now;
                s.pushes_applied += 1;
                true
            }
            None => false,
        }
    }

    /// Records a push entering the ingress queue (touches the session too).
    pub fn record_queued(&mut self, session: u64, now: u64) -> bool {
        match self.sessions.get_mut(&session) {
            Some(s) => {
                s.last_seen_tick = now;
                s.queued += 1;
                true
            }
            None => false,
        }
    }

    /// Records a push applied from the ingress queue **without** touching
    /// the session: backlog drained by the server is not evidence the
    /// client is still alive, so it must not postpone heartbeat expiry.
    pub fn record_drained(&mut self, session: u64) -> bool {
        match self.sessions.get_mut(&session) {
            Some(s) => {
                s.pushes_applied += 1;
                s.queued = s.queued.saturating_sub(1);
                true
            }
            None => false,
        }
    }

    /// Closes a session; returns `false` if it did not exist.
    pub fn leave(&mut self, session: u64) -> bool {
        self.sessions.remove(&session).is_some()
    }

    /// Evicts every session whose last touch is older than the heartbeat
    /// timeout, returning the expired ids in ascending order.
    pub fn expire(&mut self, now: u64) -> Vec<u64> {
        let timeout = self.config.heartbeat_timeout_ticks;
        let dead: Vec<u64> = self
            .sessions
            .values()
            .filter(|s| now.saturating_sub(s.last_seen_tick) > timeout)
            .map(|s| s.id)
            .collect();
        for id in &dead {
            self.sessions.remove(id);
        }
        dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(max: usize, timeout: u64) -> SessionRegistry {
        SessionRegistry::new(SessionConfig {
            heartbeat_timeout_ticks: timeout,
            max_sessions: max,
        })
    }

    #[test]
    fn join_hands_out_monotonic_ids_and_caps_at_capacity() {
        let mut r = registry(2, 10);
        let a = r.join(7, 0, 0).unwrap();
        let b = r.join(8, 0, 0).unwrap();
        assert!(a < b);
        assert_eq!(r.join(9, 0, 0), Err(Refusal::ServerFull));
        assert_eq!(r.len(), 2);
        assert!(r.leave(a));
        assert!(!r.leave(a));
        let c = r.join(9, 1, 0).unwrap();
        assert!(c > b, "ids are never reused");
    }

    #[test]
    fn expiry_sweeps_only_stale_sessions_in_id_order() {
        let mut r = registry(10, 3);
        let a = r.join(1, 0, 0).unwrap();
        let b = r.join(2, 0, 0).unwrap();
        let c = r.join(3, 0, 0).unwrap();
        // b stays alive via heartbeat; a and c go quiet.
        assert!(r.touch(b, 4));
        let dead = r.expire(4);
        assert_eq!(dead, vec![a, c]);
        assert_eq!(r.len(), 1);
        assert!(r.get(b).is_some());
        // Exactly-at-timeout is still alive; one past is not.
        assert!(r.expire(7).is_empty());
        assert_eq!(r.expire(8), vec![b]);
        assert!(r.is_empty());
    }

    #[test]
    fn pull_and_push_update_session_state() {
        let mut r = registry(4, 10);
        let s = r.join(5, 0, 3).unwrap();
        assert_eq!(r.get(s).unwrap().last_pull_version, 3);
        assert!(r.record_pull(s, 2, 9));
        assert!(r.record_push(s, 3));
        let sess = r.get(s).unwrap();
        assert_eq!(sess.last_pull_version, 9);
        assert_eq!(sess.pushes_applied, 1);
        assert_eq!(sess.last_seen_tick, 3);
        assert!(!r.record_pull(999, 0, 0));
        assert!(!r.record_push(999, 0));
        assert!(!r.touch(999, 0));
        // A queued push touches the session; its drain does not.
        assert!(r.record_queued(s, 5) && r.record_queued(s, 6));
        assert!(r.record_drained(s));
        let sess = r.get(s).unwrap();
        assert_eq!(
            (sess.queued, sess.pushes_applied, sess.last_seen_tick),
            (1, 2, 6)
        );
        assert!(!r.record_queued(999, 0));
    }
}
