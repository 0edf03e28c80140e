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
//! # One table
//!
//! Each kind is declared once, as a row of the `event_kinds!` table below:
//! its variant and docs, its wire name (the `"event"` field of a JSONL line),
//! its channel, and its fields in JSON order with their types. The
//! [`EventKind`] enum, [`EventKind::name`], [`EventKind::channel`], the JSONL
//! and CSV writers and the parser of [`crate::export`] all come from it, so a
//! new kind is one row here plus its arm in `metrics.rs`'s fold (what the
//! event means, which no table can say). A new field key needs its column in
//! [`EVENT_CSV_HEADER`](crate::export::EVENT_CSV_HEADER) too; the export
//! tests fail until it has one.
//!
//! # Size
//!
//! A traced run holds every event in memory until it is written (a
//! `srv-churn` pass: 275 450 of them), so an [`Event`] is held to 40 bytes:
//! the slot and an [`EventKind`] whose largest payload is 24 bytes. The rule
//! for a new or grown row follows from it:
//!
//! * A label from a closed set is a `&'static str` field that names its
//!   table (`component in ENERGY_COMPONENTS: &'static str`): emitting it
//!   allocates nothing, and the parser resolves a label it reads through the
//!   same table ([`ENERGY_COMPONENTS`], [`REFUSAL_REASONS`]), rejecting one
//!   it does not know.
//! * A payload over 24 bytes goes behind one `Box`. That is affordable only
//!   for an event a run emits a handful of times ([`EventKind::RunStart`],
//!   [`EventKind::JobStart`] with their free-text labels), never for one it
//!   emits per slot, user or request. A boxed field is written and read as
//!   its `WireField` implementation in `export.rs` says (`Box<JobLabels>` as
//!   its two keys, `scenario` and `policy`).

use crate::export::{FieldVisitor, Fields, Key, Value, WireField};

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
/// `Refusal`, in wire-code order. This is the only list of them:
/// `Refusal::label` reads a refusal's entry here (code `c` is entry `c - 1`).
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

/// Builds [`EventKind`] and everything that reads or writes its fields from
/// the one table of kinds (see the module docs). A row is
/// `Variant = "wire-name" on Channel { field: Type, .. }`; a closed-set label
/// is `field in TABLE: &'static str`.
macro_rules! event_kinds {
    (@key $field:ident) => {{
        const KEY: Key = Key::new(stringify!($field));
        KEY
    }};
    (@visit $out:ident $field:ident) => {
        WireField::visit($field, event_kinds!(@key $field), $out)
    };
    (@visit $out:ident $field:ident in $labels:ident) => {
        $out.field(event_kinds!(@key $field), Value::Str($field))
    };
    (@read $fields:ident $field:ident $ty:ty) => {
        <$ty as WireField>::read($fields, event_kinds!(@key $field))?
    };
    (@read $fields:ident $field:ident $ty:ty, $labels:ident) => {
        $fields.label(stringify!($field), $labels)?
    };
    ($(
        $(#[$doc:meta])*
        $variant:ident = $name:literal on $channel:ident {
            $($(#[$field_doc:meta])* $field:ident $(in $labels:ident)?: $ty:ty,)*
        }
    )*) => {
        /// The typed payload of an [`Event`].
        #[derive(Debug, Clone, PartialEq)]
        pub enum EventKind {
            $($(#[$doc])* $variant { $($(#[$field_doc])* $field: $ty,)* },)*
        }

        impl EventKind {
            /// The stable wire name of the event kind (the `"event"` field of
            /// the JSONL schema).
            pub fn name(&self) -> &'static str {
                match self {
                    $(EventKind::$variant { .. } => $name,)*
                }
            }

            /// The comparison channel of the kind.
            pub fn channel(&self) -> Channel {
                match self {
                    $(EventKind::$variant { .. } => Channel::$channel,)*
                }
            }

            /// Hands every field of the kind to `out`, in JSON order, under
            /// its wire key. Inlined into each writer's one call site, where
            /// every key and value type becomes a constant of the line it
            /// writes (the JSONL writer is the trace export's hot loop).
            #[inline(always)]
            pub(crate) fn visit_fields(&self, out: &mut impl FieldVisitor) {
                match self {
                    $(EventKind::$variant { $($field),* } => {
                        $(event_kinds!(@visit out $field $(in $labels)?);)*
                    })*
                }
            }

            /// The kind whose wire name is `name`, its fields read from
            /// `fields` in JSON order (the first missing or mistyped one is
            /// the error).
            pub(crate) fn parse_fields(name: &str, fields: &Fields<'_>) -> Result<Self, String> {
                Ok(match name {
                    $($name => EventKind::$variant {
                        $($field: event_kinds!(@read fields $field $ty $(, $labels)?),)*
                    },)*
                    other => return Err(format!("unknown event kind `{other}`")),
                })
            }
        }

        /// Every wire name of the table, in table order.
        #[cfg(test)]
        pub(crate) const KIND_NAMES: &[&str] = &[$($name),*];
    };
}

event_kinds! {
    /// A run began (semantic).
    RunStart = "run-start" on Semantic {
        /// Number of simulated users.
        users: u64,
        /// Horizon length in slots.
        slots: u64,
        /// The policy label ([`PolicySpec::label`]-style), boxed: free text
        /// once per run (see the module docs).
        ///
        /// [`PolicySpec::label`]: https://docs.rs/fedco-core
        policy: Box<String>,
    }
    /// A policy `decide()` returned `Schedule` for a waiting user
    /// (semantic). Idle outcomes are counted per dense span instead — they
    /// repeat every slot a user waits, so they belong to the driver channel.
    Schedule = "schedule" on Semantic {
        /// The user that starts training this slot.
        user: u64,
        /// Whether the epoch co-runs with a foreground application.
        corun: bool,
    }
    /// Cumulative energy of one [`EnergyComponent`] across all users,
    /// sampled at a telemetry sampling slot (semantic).
    ///
    /// [`EnergyComponent`]: https://docs.rs/fedco-device
    Energy = "energy" on Semantic {
        /// The component label, one of [`ENERGY_COMPONENTS`].
        component in ENERGY_COMPONENTS: &'static str,
        /// Cumulative joules accrued into the component so far.
        joules: f64,
    }
    /// The parameter server applied one asynchronous update (semantic).
    Merge = "merge" on Semantic {
        /// The uploading user.
        user: u64,
        /// Model staleness (lag) of the update at merge time.
        lag: u64,
        /// The global model version after the merge.
        version: u64,
    }
    /// The parameter server applied one synchronous aggregation round
    /// (semantic).
    Round = "round" on Semantic {
        /// Number of participating updates.
        participants: u64,
        /// The global model version after the round.
        version: u64,
    }
    /// A user entered the synchronous round barrier (semantic).
    Barrier = "barrier" on Semantic {
        /// Depth of the server's sync buffer after the arrival.
        depth: u64,
    }
    /// A run finished (semantic).
    RunEnd = "run-end" on Semantic {
        /// Total updates applied to the global model.
        updates: u64,
        /// Total device energy of the run, in joules.
        energy_j: f64,
    }
    /// A contiguous stretch of stepped slots ended (driver). The engine
    /// emits one per run, covering the horizon.
    DenseSpan = "dense-span" on Driver {
        /// Dense slots in the stretch.
        slots: u64,
        /// Idle `decide()` outcomes inside the stretch.
        idle_decisions: u64,
    }
    /// A fleet job's event stream begins (fleet).
    JobStart = "job-start" on Fleet {
        /// Linear job index in grid order.
        job: u64,
        /// The scenario and policy labels of the cell.
        labels: Box<JobLabels>,
    }
    /// A fleet job's event stream ends (fleet).
    JobEnd = "job-end" on Fleet {
        /// Linear job index in grid order.
        job: u64,
    }
    /// The service admitted a client and opened a session (server).
    JoinAccepted = "join-accepted" on Server {
        /// The session id handed to the client.
        session: u64,
        /// The client's self-declared id.
        client: u64,
    }
    /// The service refused a client's join (server).
    JoinRejected = "join-rejected" on Server {
        /// The client's self-declared id.
        client: u64,
        /// The refusal label, one of [`REFUSAL_REASONS`].
        reason in REFUSAL_REASONS: &'static str,
    }
    /// A session missed its heartbeat deadline and was evicted (server).
    SessionExpired = "session-expired" on Server {
        /// The expired session.
        session: u64,
    }
    /// The service drained one queued update into the global model (server).
    PushApplied = "push-applied" on Server {
        /// The pushing session.
        session: u64,
        /// Model staleness (lag) of the update at apply time.
        lag: u64,
        /// The global model version after the apply.
        version: u64,
    }
    /// The service refused a pushed update (server).
    PushRefused = "push-refused" on Server {
        /// The pushing session (0 when the session is unknown).
        session: u64,
        /// The refusal label, one of [`REFUSAL_REASONS`].
        reason in REFUSAL_REASONS: &'static str,
    }
    /// The service applied a synchronous aggregation round (server).
    RoundAdvance = "round-advance" on Server {
        /// The global model version after the round.
        version: u64,
        /// Number of participating updates.
        participants: u64,
    }
    /// A user's battery drained to the death threshold and the device went
    /// dark (semantic).
    BatteryDepleted = "battery-depleted" on Semantic {
        /// The user whose device died.
        user: u64,
        /// State of charge at death, in `[0, 1]`.
        soc: f64,
    }
    /// A dead user's battery recharged past the rejoin threshold and the
    /// device came back online (semantic).
    Recharged = "recharged" on Semantic {
        /// The user whose device rejoined.
        user: u64,
        /// State of charge at rejoin, in `[0, 1]`.
        soc: f64,
    }
    /// A user's world churn state flipped (semantic).
    UserChurned = "user-churned" on Semantic {
        /// The user that churned.
        user: u64,
        /// `true` when the user dropped out, `false` when it rejoined.
        offline: bool,
    }
    /// A model update was uploaded through the compressed uplink
    /// (semantic).
    CompressedUpload = "compressed-upload" on Semantic {
        /// The uploading user.
        user: u64,
        /// Bytes actually sent over the air.
        bytes: u64,
        /// The compression ratio applied.
        ratio: f64,
    }
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
