//! The protocol's sample messages: at least one of every kind, two where a
//! second set of values reaches other bytes. The unit tests of
//! `src/protocol.rs` include this file through `#[path]` and
//! `tests/protocol_fuzz.rs` as a module, so the fuzz loops run over the list
//! that `protocol::tests::the_samples_cover_every_row_of_the_table` holds to
//! every tag of the `messages!` table. A new row needs a sample here.

use super::{Message, Refusal, WireUpdate};

/// An update with a signed zero and the smallest normal among its params.
pub fn one_update() -> WireUpdate {
    WireUpdate {
        client: 3,
        base_version: 41,
        num_samples: 128,
        train_loss_bits: 1.25_f32.to_bits(),
        train_accuracy_bits: 0.5_f32.to_bits(),
        params: vec![1.0, -2.5, f32::MIN_POSITIVE, 0.0, -0.0],
    }
}

/// An update whose fields all follow from `seed`.
fn seeded_update(seed: u64) -> WireUpdate {
    WireUpdate {
        client: seed,
        base_version: seed.wrapping_mul(3),
        num_samples: 16 + seed,
        train_loss_bits: (0.25f32 * seed as f32).to_bits(),
        train_accuracy_bits: (0.125f32 * seed as f32).to_bits(),
        params: vec![1.5, -0.0, f32::MIN_POSITIVE, 3.25e7],
    }
}

/// Every sample, in tag order.
pub fn samples() -> Vec<Message> {
    let update = one_update();
    vec![
        Message::Hello { client: 7 },
        Message::Welcome {
            session: 1,
            model_version: 9,
            model_len: 8,
        },
        Message::Welcome {
            session: 1,
            model_version: 2,
            model_len: 4,
        },
        Message::JoinRefused {
            reason: Refusal::ServerFull,
        },
        Message::PullModel { session: 1 },
        Message::Model {
            version: 9,
            params: vec![0.25, -1.0, 3.5e-12, f32::MAX],
        },
        Message::Model {
            version: 9,
            params: vec![0.5, -2.0, -0.0, f32::INFINITY],
        },
        Message::PushUpdate {
            session: 1,
            update: update.clone(),
        },
        Message::PushUpdate {
            session: 1,
            update: seeded_update(2),
        },
        Message::PushApplied {
            lag: 2,
            version: 10,
        },
        Message::PushApplied {
            lag: 3,
            version: 10,
        },
        Message::PushQueued { depth: 5 },
        Message::PushRefused {
            reason: Refusal::Backpressure,
        },
        Message::PushRound {
            session: 1,
            updates: vec![update.clone(), update],
        },
        Message::PushRound {
            session: 1,
            updates: vec![seeded_update(1), seeded_update(9)],
        },
        Message::RoundOk { version: 11 },
        Message::Heartbeat { session: 1 },
        Message::HeartbeatAck { tick: 77 },
        Message::HeartbeatAck { tick: 99 },
        Message::Leave { session: 1 },
        Message::LeaveOk,
        Message::QueryNorm,
        Message::NormIs {
            bits: 0.75_f32.to_bits(),
        },
        Message::NormIs {
            bits: 1.75f32.to_bits(),
        },
        Message::QueryStats,
        Message::StatsIs {
            async_updates: 100,
            sync_rounds: 2,
            total_lag: 321,
            max_lag: 9,
        },
        Message::StatsIs {
            async_updates: 4,
            sync_rounds: 2,
            total_lag: 7,
            max_lag: 3,
        },
        Message::Shutdown,
        Message::ShutdownOk,
    ]
}
