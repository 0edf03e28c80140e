//! Fuzz-by-hand coverage of the wire protocol's decode paths.
//!
//! Every hostile input class the frame format admits — truncation at every
//! byte, wrong version, unknown tag, an oversized length prefix, trailing
//! bytes, a peer vanishing mid-frame, and seeded random corruption — must
//! come back as a typed [`WireError`]. The decoder must **never** panic:
//! these tests are the std-only stand-in for a fuzzer.

use fedco_rng::rngs::SmallRng;
use fedco_rng::{Rng, SeedableRng};
use fedco_server::protocol::{
    read_frame, Message, Refusal, WireError, WireUpdate, HEADER_LEN, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};

// `one_update` serves the unit tests of `src/protocol.rs`.
#[allow(dead_code)]
mod wire_samples;
use wire_samples::samples;

#[test]
fn every_truncation_of_every_frame_is_a_typed_error() {
    for msg in samples() {
        let frame = msg.to_frame();
        for cut in 0..frame.len() {
            let err = Message::from_frame(&frame[..cut])
                .expect_err(&format!("{}[..{cut}] decoded", msg.name()));
            assert!(
                matches!(
                    err,
                    WireError::Truncated | WireError::BadPayload(_) | WireError::TrailingBytes
                ),
                "{}[..{cut}] gave {err:?}",
                msg.name()
            );
        }
    }
}

#[test]
fn wrong_version_and_unknown_tag_are_rejected_by_name() {
    let mut frame = Message::Hello { client: 1 }.to_frame();
    frame[4] = 0xFE;
    frame[5] = 0xCA;
    assert_eq!(
        Message::from_frame(&frame),
        Err(WireError::BadVersion { got: 0xCAFE })
    );

    let mut frame = Message::Hello { client: 1 }.to_frame();
    frame[6] = 200;
    assert_eq!(
        Message::from_frame(&frame),
        Err(WireError::BadTag { got: 200 })
    );
}

#[test]
fn oversized_length_prefix_is_rejected_before_any_allocation() {
    let mut frame = Message::QueryNorm.to_frame();
    let huge = (MAX_FRAME_LEN + 1).to_le_bytes();
    frame[..4].copy_from_slice(&huge);
    assert_eq!(
        Message::from_frame(&frame),
        Err(WireError::Oversized {
            len: MAX_FRAME_LEN + 1
        })
    );
    // The same header through the streaming reader must fail identically,
    // without attempting to read (or allocate) 16 MiB.
    let mut reader = std::io::Cursor::new(frame);
    assert_eq!(
        read_frame(&mut reader),
        Err(WireError::Oversized {
            len: MAX_FRAME_LEN + 1
        })
    );
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut frame = Message::LeaveOk.to_frame();
    frame.push(0);
    assert_eq!(Message::from_frame(&frame), Err(WireError::TrailingBytes));
}

#[test]
fn mid_frame_disconnect_reads_as_disconnected() {
    for msg in samples() {
        let frame = msg.to_frame();
        // A peer that vanishes after any proper prefix (including after the
        // bare header) is a disconnect, not a decode defect.
        for cut in [1, HEADER_LEN.min(frame.len()), frame.len() - 1] {
            if cut >= frame.len() {
                continue;
            }
            let mut reader = std::io::Cursor::new(frame[..cut].to_vec());
            assert_eq!(
                read_frame(&mut reader),
                Err(WireError::Disconnected),
                "{} cut at {cut}",
                msg.name()
            );
        }
        // The full frame still reads back as itself.
        let mut reader = std::io::Cursor::new(frame);
        assert_eq!(read_frame(&mut reader), Ok(msg));
    }
}

#[test]
fn seeded_random_corruption_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0x0F0C_C1E5);
    for msg in samples() {
        let clean = msg.to_frame();
        for _ in 0..200 {
            let mut frame = clean.clone();
            for _ in 0..rng.gen_range(1..=4usize) {
                let at = rng.gen_range(0..frame.len());
                frame[at] ^= rng.gen_range(1..=255u64) as u8;
            }
            // Ok(decoded-something-else) and Err(typed) are both fine;
            // reaching the next iteration at all is the assertion.
            let _ = Message::from_frame(&frame);
            let mut reader = std::io::Cursor::new(frame);
            let _ = read_frame(&mut reader);
        }
    }
}

#[test]
fn random_byte_soup_never_panics() {
    let mut rng = SmallRng::seed_from_u64(20_220_708);
    for _ in 0..500 {
        let len = rng.gen_range(0..64usize);
        let soup: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u64) as u8).collect();
        let _ = Message::from_frame(&soup);
        let mut reader = std::io::Cursor::new(soup);
        let _ = read_frame(&mut reader);
    }
}

#[test]
fn nan_payloads_round_trip_bit_for_bit() {
    // NaN breaks `==` but not the wire: params travel as bit patterns.
    let nan_bits = f32::NAN.to_bits() | 0x0040_1234; // a payload-carrying NaN
    let msg = Message::Model {
        version: 1,
        params: vec![f32::from_bits(nan_bits)],
    };
    match Message::from_frame(&msg.to_frame()).expect("NaN frame decodes") {
        Message::Model { params, .. } => assert_eq!(params[0].to_bits(), nan_bits),
        other => panic!("expected Model, got {}", other.name()),
    }
}

#[test]
fn version_constant_is_pinned() {
    // Bumping the protocol version is a wire-compatibility break; this
    // assertion makes it a deliberate test edit instead of an accident.
    assert_eq!(PROTOCOL_VERSION, 1);
    let frame = Message::Shutdown.to_frame();
    assert_eq!(&frame[4..6], &1u16.to_le_bytes());
}
