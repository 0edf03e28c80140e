//! Typed telemetry events on the simulation-slot clock.
//!
//! Every event carries the **slot** it happened in — the simulated clock,
//! never wall time — so a trace is a pure function of the configuration and
//! bit-identical across runs and worker counts. Events fall into four
//! channels:
//!
//! * **semantic** — what the simulated system did (schedules, merges,
//!   rounds, barrier depths, energy accrual).
//! * **driver** — how the engine executed it. The engine steps every slot
//!   and closes a run with one dense span. Trace diffs exclude this channel
//!   by default.
//! * **fleet** — job lifecycle markers the sweep merge inserts around each
//!   job's stream, deterministic because the merge happens in job order.
//! * **server** — session lifecycle and aggregation decisions of the
//!   long-running `fedco-server` service (joins, expiries, applied/refused
//!   pushes, round advances), stamped with the server's logical tick.
//!   Byte-stable over the in-process transport, where the fleet driver
//!   advances ticks in lock-step.
//!
//! # Size
//!
//! A traced run holds every event in memory until it is written (a
//! `srv-churn` pass: 275 450 of them), so an [`Event`] is held to 40 bytes:
//! the slot and an [`EventKind`] whose largest payload is 24 bytes. The rule
//! for a new or grown variant follows from it:
//!
//! * A label from a closed set is a `&'static str` out of that set's table
//!   ([`ENERGY_COMPONENTS`], [`REFUSAL_REASONS`]): emitting it allocates
//!   nothing, and the parser resolves a label it reads through the same
//!   table, rejecting one it does not know.
//! * A payload over 24 bytes goes behind one `Box`. That is affordable only
//!   for an event a run emits a handful of times ([`EventKind::RunStart`],
//!   [`EventKind::JobStart`] with their free-text labels), never for one it
//!   emits per slot, user or request.

/// The comparison channel an event belongs to (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// Simulated-system behaviour.
    Semantic,
    /// Engine execution mechanics (how many slots were stepped).
    Driver,
    /// Sweep job lifecycle markers inserted by the deterministic merge.
    Fleet,
    /// Session churn and aggregation decisions of the `fedco-server`
    /// service, on the server's logical tick clock.
    Server,
}

/// Every `component` label an [`EventKind::Energy`] may carry: the labels of
/// `fedco-device`'s `EnergyComponent`, in its order.
pub const ENERGY_COMPONENTS: &[&str] = &["co-running", "training", "app", "idle", "radio"];

/// Every `reason` label an [`EventKind::JoinRejected`] or
/// [`EventKind::PushRefused`] may carry: the labels of `fedco-server`'s
/// `Refusal`, in wire-code order.
pub const REFUSAL_REASONS: &[&str] = &[
    "server-full",
    "unknown-session",
    "backpressure",
    "wrong-model-len",
    "shutting-down",
    "bad-request",
];

/// The entry of `table` equal to `label`, as the `'static` string an event
/// holds; `None` for a label the table does not know.
pub fn resolve_label(table: &[&'static str], label: &str) -> Option<&'static str> {
    table.iter().copied().find(|&known| known == label)
}

/// One telemetry event, stamped with the simulation slot it happened in.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// The simulation slot (the primary, deterministic clock).
    pub slot: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Builds an event.
    pub fn new(slot: u64, kind: EventKind) -> Self {
        Event { slot, kind }
    }

    /// The comparison channel of the event.
    pub fn channel(&self) -> Channel {
        self.kind.channel()
    }
}

// The size rule of the module docs.
const _: () = assert!(size_of::<Event>() <= 40);

/// The free-text labels of a [`EventKind::JobStart`], behind the variant's
/// one `Box`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobLabels {
    /// The scenario label of the cell.
    pub scenario: String,
    /// The policy label of the cell.
    pub policy: String,
}

/// The typed payload of an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A run began (semantic).
    RunStart {
        /// Number of simulated users.
        users: u64,
        /// Horizon length in slots.
        slots: u64,
        /// The policy label ([`PolicySpec::label`]-style), boxed: free text
        /// once per run (see the module docs).
        ///
        /// [`PolicySpec::label`]: https://docs.rs/fedco-core
        policy: Box<String>,
    },
    /// A policy `decide()` returned `Schedule` for a waiting user
    /// (semantic). Idle outcomes are counted per dense span instead — they
    /// repeat every slot a user waits, so they belong to the driver channel.
    Schedule {
        /// The user that starts training this slot.
        user: u64,
        /// Whether the epoch co-runs with a foreground application.
        corun: bool,
    },
    /// Cumulative energy of one [`EnergyComponent`] across all users,
    /// sampled at a telemetry sampling slot (semantic).
    ///
    /// [`EnergyComponent`]: https://docs.rs/fedco-device
    Energy {
        /// The component label, one of [`ENERGY_COMPONENTS`].
        component: &'static str,
        /// Cumulative joules accrued into the component so far.
        joules: f64,
    },
    /// The parameter server applied one asynchronous update (semantic).
    Merge {
        /// The uploading user.
        user: u64,
        /// Model staleness (lag) of the update at merge time.
        lag: u64,
        /// The global model version after the merge.
        version: u64,
    },
    /// The parameter server applied one synchronous aggregation round
    /// (semantic).
    Round {
        /// Number of participating updates.
        participants: u64,
        /// The global model version after the round.
        version: u64,
    },
    /// A user entered the synchronous round barrier (semantic).
    Barrier {
        /// Depth of the server's sync buffer after the arrival.
        depth: u64,
    },
    /// A run finished (semantic).
    RunEnd {
        /// Total updates applied to the global model.
        updates: u64,
        /// Total device energy of the run, in joules.
        energy_j: f64,
    },
    /// A contiguous stretch of stepped slots ended (driver). The engine
    /// emits one per run, covering the horizon.
    DenseSpan {
        /// Dense slots in the stretch.
        slots: u64,
        /// Idle `decide()` outcomes inside the stretch.
        idle_decisions: u64,
    },
    /// A fleet job's event stream begins (fleet).
    JobStart {
        /// Linear job index in grid order.
        job: u64,
        /// The scenario and policy labels of the cell.
        labels: Box<JobLabels>,
    },
    /// A fleet job's event stream ends (fleet).
    JobEnd {
        /// Linear job index in grid order.
        job: u64,
    },
    /// The service admitted a client and opened a session (server).
    JoinAccepted {
        /// The session id handed to the client.
        session: u64,
        /// The client's self-declared id.
        client: u64,
    },
    /// The service refused a client's join (server).
    JoinRejected {
        /// The client's self-declared id.
        client: u64,
        /// The refusal label, one of [`REFUSAL_REASONS`].
        reason: &'static str,
    },
    /// A session missed its heartbeat deadline and was evicted (server).
    SessionExpired {
        /// The expired session.
        session: u64,
    },
    /// The service drained one queued update into the global model (server).
    PushApplied {
        /// The pushing session.
        session: u64,
        /// Model staleness (lag) of the update at apply time.
        lag: u64,
        /// The global model version after the apply.
        version: u64,
    },
    /// The service refused a pushed update (server).
    PushRefused {
        /// The pushing session (0 when the session is unknown).
        session: u64,
        /// The refusal label, one of [`REFUSAL_REASONS`].
        reason: &'static str,
    },
    /// The service applied a synchronous aggregation round (server).
    RoundAdvance {
        /// The global model version after the round.
        version: u64,
        /// Number of participating updates.
        participants: u64,
    },
    /// A user's battery drained to the death threshold and the device went
    /// dark (semantic).
    BatteryDepleted {
        /// The user whose device died.
        user: u64,
        /// State of charge at death, in `[0, 1]`.
        soc: f64,
    },
    /// A dead user's battery recharged past the rejoin threshold and the
    /// device came back online (semantic).
    Recharged {
        /// The user whose device rejoined.
        user: u64,
        /// State of charge at rejoin, in `[0, 1]`.
        soc: f64,
    },
    /// A user's world churn state flipped (semantic).
    UserChurned {
        /// The user that churned.
        user: u64,
        /// `true` when the user dropped out, `false` when it rejoined.
        offline: bool,
    },
    /// A model update was uploaded through the compressed uplink
    /// (semantic).
    CompressedUpload {
        /// The uploading user.
        user: u64,
        /// Bytes actually sent over the air.
        bytes: u64,
        /// The compression ratio applied.
        ratio: f64,
    },
}

impl EventKind {
    /// A [`EventKind::RunStart`], its policy label boxed.
    pub fn run_start(users: u64, slots: u64, policy: String) -> Self {
        EventKind::RunStart {
            users,
            slots,
            policy: Box::new(policy),
        }
    }

    /// A [`EventKind::JobStart`], its labels boxed.
    pub fn job_start(job: u64, scenario: String, policy: String) -> Self {
        EventKind::JobStart {
            job,
            labels: Box::new(JobLabels { scenario, policy }),
        }
    }

    /// The stable wire name of the event kind (the `"event"` field of the
    /// JSONL schema).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::RunStart { .. } => "run-start",
            EventKind::Schedule { .. } => "schedule",
            EventKind::Energy { .. } => "energy",
            EventKind::Merge { .. } => "merge",
            EventKind::Round { .. } => "round",
            EventKind::Barrier { .. } => "barrier",
            EventKind::RunEnd { .. } => "run-end",
            EventKind::DenseSpan { .. } => "dense-span",
            EventKind::JobStart { .. } => "job-start",
            EventKind::JobEnd { .. } => "job-end",
            EventKind::JoinAccepted { .. } => "join-accepted",
            EventKind::JoinRejected { .. } => "join-rejected",
            EventKind::SessionExpired { .. } => "session-expired",
            EventKind::PushApplied { .. } => "push-applied",
            EventKind::PushRefused { .. } => "push-refused",
            EventKind::RoundAdvance { .. } => "round-advance",
            EventKind::BatteryDepleted { .. } => "battery-depleted",
            EventKind::Recharged { .. } => "recharged",
            EventKind::UserChurned { .. } => "user-churned",
            EventKind::CompressedUpload { .. } => "compressed-upload",
        }
    }

    /// The comparison channel of the kind.
    pub fn channel(&self) -> Channel {
        match self {
            EventKind::DenseSpan { .. } => Channel::Driver,
            EventKind::JobStart { .. } | EventKind::JobEnd { .. } => Channel::Fleet,
            EventKind::JoinAccepted { .. }
            | EventKind::JoinRejected { .. }
            | EventKind::SessionExpired { .. }
            | EventKind::PushApplied { .. }
            | EventKind::PushRefused { .. }
            | EventKind::RoundAdvance { .. } => Channel::Server,
            _ => Channel::Semantic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channels_partition_the_kinds() {
        let semantic = Event::new(3, EventKind::Barrier { depth: 2 });
        assert_eq!(semantic.channel(), Channel::Semantic);
        let driver = Event::new(
            3,
            EventKind::DenseSpan {
                slots: 40,
                idle_decisions: 2,
            },
        );
        assert_eq!(driver.channel(), Channel::Driver);
        let fleet = Event::new(0, EventKind::JobEnd { job: 7 });
        assert_eq!(fleet.channel(), Channel::Fleet);
        let server = Event::new(9, EventKind::SessionExpired { session: 4 });
        assert_eq!(server.channel(), Channel::Server);
        // World lifecycle events describe the simulated system, so both
        // engine drivers must emit them identically: semantic channel.
        for kind in [
            EventKind::BatteryDepleted { user: 1, soc: 0.05 },
            EventKind::Recharged { user: 1, soc: 0.31 },
            EventKind::UserChurned {
                user: 2,
                offline: true,
            },
            EventKind::CompressedUpload {
                user: 3,
                bytes: 625_000,
                ratio: 0.25,
            },
        ] {
            assert_eq!(kind.channel(), Channel::Semantic, "{}", kind.name());
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            EventKind::DenseSpan {
                slots: 1,
                idle_decisions: 0
            }
            .name(),
            "dense-span"
        );
        assert_eq!(
            EventKind::Merge {
                user: 0,
                lag: 0,
                version: 1
            }
            .name(),
            "merge"
        );
        assert_eq!(
            EventKind::PushRefused {
                session: 1,
                reason: "backpressure"
            }
            .name(),
            "push-refused"
        );
    }
}
