//! The hand-rolled, length-prefixed binary wire protocol.
//!
//! The workspace is offline and zero-dependency, so there is no serde here.
//! Each message kind is one row of the `messages!` table below (its tag, wire
//! name and fields in wire order), and each field type has one codec (the
//! private `Wire` trait): explicit little-endian writes, and a bounds-checked
//! reader that returns typed [`WireError`]s — a malformed, truncated or
//! oversized frame can never panic the server.
//!
//! A frame is an 8-byte header followed by the payload:
//!
//! ```text
//! [u32 LE payload length][u16 LE protocol version][u8 kind tag][u8 reserved=0][payload…]
//! ```
//!
//! `f32` values travel as their IEEE-754 bit patterns (`to_bits` as u32 LE),
//! so a model round-trips bit-for-bit — the substrate of the served-vs-batch
//! equivalence guarantee.

use std::io::{Read, Write};

use fedco_telemetry::event::REFUSAL_REASONS;

/// The protocol version this build speaks. A mismatched header is a typed
/// [`WireError::BadVersion`], never a misparse.
pub const PROTOCOL_VERSION: u16 = 1;

/// Upper bound on a frame payload (16 MiB — comfortably above the paper's
/// 2.5 MB model uploads). A larger length prefix is rejected before any
/// allocation happens.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 8;

/// A typed wire failure. Every decode path returns one of these; none
/// panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the frame did.
    Truncated,
    /// The header announced an unsupported protocol version.
    BadVersion {
        /// The version found in the header.
        got: u16,
    },
    /// The header carried an unknown message tag.
    BadTag {
        /// The tag found in the header.
        got: u8,
    },
    /// The length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized {
        /// The announced payload length.
        len: u32,
    },
    /// The payload decoded but violated the message's invariants.
    BadPayload(String),
    /// The payload was longer than the message it encoded.
    TrailingBytes,
    /// The peer closed the connection mid-frame.
    Disconnected,
    /// A read or write timed out. The stream is still in step only if the
    /// timeout fell on a frame boundary: a read that had already consumed
    /// part of a frame must be resumed by the same [`FrameReader`], which
    /// keeps the partial frame for exactly that.
    TimedOut,
    /// An OS-level I/O failure.
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadVersion { got } => {
                write!(
                    f,
                    "unsupported protocol version {got} (want {PROTOCOL_VERSION})"
                )
            }
            WireError::BadTag { got } => write!(f, "unknown message tag {got}"),
            WireError::Oversized { len } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
                )
            }
            WireError::BadPayload(why) => write!(f, "bad payload: {why}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after message payload"),
            WireError::Disconnected => write!(f, "peer disconnected mid-frame"),
            WireError::TimedOut => write!(f, "i/o deadline elapsed"),
            WireError::Io(why) => write!(f, "i/o failure: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Why the server refused a join or a push. The `u8` codes are part of the
/// wire format; [`Refusal::label`] gives the stable human/telemetry string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Refusal {
    /// The session registry is at capacity.
    ServerFull = 1,
    /// The named session does not exist (never did, expired, or left).
    UnknownSession = 2,
    /// The bounded ingress queue is full; retry later.
    Backpressure = 3,
    /// The pushed parameter vector has the wrong length.
    WrongModelLen = 4,
    /// The server is draining for shutdown and admits no new work.
    ShuttingDown = 5,
    /// The request was structurally valid but semantically empty/invalid.
    BadRequest = 6,
}

// Every refusal has a label and every label a refusal.
const _: () = assert!(Refusal::ALL.len() == REFUSAL_REASONS.len());

impl Refusal {
    /// Every refusal in code order: `ALL[code - 1]` has that code.
    const ALL: [Refusal; 6] = [
        Refusal::ServerFull,
        Refusal::UnknownSession,
        Refusal::Backpressure,
        Refusal::WrongModelLen,
        Refusal::ShuttingDown,
        Refusal::BadRequest,
    ];

    fn code(self) -> u8 {
        self as u8
    }

    fn from_code(code: u8) -> Result<Refusal, WireError> {
        code.checked_sub(1)
            .and_then(|i| Refusal::ALL.get(usize::from(i)).copied())
            .ok_or_else(|| WireError::BadPayload(format!("unknown refusal code {code}")))
    }

    /// The stable label used in telemetry events and driver reports: the
    /// refusal's entry of [`REFUSAL_REASONS`], which is in code order.
    pub fn label(self) -> &'static str {
        REFUSAL_REASONS[usize::from(self.code()) - 1]
    }
}

/// One local update as it travels on the wire. Training metrics ride along
/// as raw bit patterns so the round-trip is exact.
#[derive(Debug, Clone, PartialEq)]
pub struct WireUpdate {
    /// The uploading client's id.
    pub client: u64,
    /// The model version the client trained from.
    pub base_version: u64,
    /// Sample count (FedAvg weighting).
    pub num_samples: u64,
    /// `f32::to_bits` of the reported training loss.
    pub train_loss_bits: u32,
    /// `f32::to_bits` of the reported training accuracy.
    pub train_accuracy_bits: u32,
    /// The flat parameter vector.
    pub params: Vec<f32>,
}

/// Wire size of a [`WireUpdate`] before its parameter vector.
const UPDATE_FIXED_LEN: usize = 8 + 8 + 8 + 4 + 4;

/// Builds [`Message`] and its codec from the one table of kinds. A row is
/// `Variant = tag "wire-name" { field: Type, .. }` with the fields in wire
/// order (a kind without fields has no braces); each field travels as its
/// type's [`Wire`] codec says.
macro_rules! messages {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $tag:literal $name:literal $({
            $($(#[$field_doc:meta])* $field:ident: $ty:ty,)*
        })?
    )*) => {
        /// Every message of the protocol. Requests and replies share the tag
        /// space; the session layer decides which direction a kind is valid in.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Message {
            $($(#[$doc])* $variant $({ $($(#[$field_doc])* $field: $ty,)* })?,)*
        }

        impl Message {
            fn tag(&self) -> u8 {
                match self {
                    $(Message::$variant { .. } => $tag,)*
                }
            }

            /// The stable wire name of the message kind (diagnostics only).
            pub fn name(&self) -> &'static str {
                match self {
                    $(Message::$variant { .. } => $name,)*
                }
            }

            /// The payload size in bytes.
            fn payload_len(&self) -> usize {
                match self {
                    $(Message::$variant $({ $($field),* })? => 0 $($(+ $field.wire_len())*)?,)*
                }
            }

            fn put_payload(&self, out: &mut Vec<u8>) {
                match self {
                    $(Message::$variant $({ $($field),* })? => { $($($field.put(out);)*)? })*
                }
            }

            fn decode_payload(tag: u8, payload: &[u8]) -> Result<Message, WireError> {
                let mut cur = Cursor::new(payload);
                let msg = match tag {
                    $($tag => Message::$variant $({
                        $($field: <$ty as Wire>::get(&mut cur)?,)*
                    })?,)*
                    got => return Err(WireError::BadTag { got }),
                };
                if cur.remaining() > 0 {
                    return Err(WireError::TrailingBytes);
                }
                Ok(msg)
            }
        }
    };
}

messages! {
    /// Client → server: request a session.
    Hello = 1 "hello" {
        /// The client's self-declared id.
        client: u64,
    }
    /// Server → client: session granted.
    Welcome = 2 "welcome" {
        /// The session id to use on subsequent requests.
        session: u64,
        /// The current global model version.
        model_version: u64,
        /// The length of the global parameter vector.
        model_len: u64,
    }
    /// Server → client: join refused.
    JoinRefused = 3 "join-refused" {
        /// Why.
        reason: Refusal,
    }
    /// Client → server: download the global model.
    PullModel = 4 "pull-model" {
        /// The requesting session.
        session: u64,
    }
    /// Server → client: the global model.
    Model = 5 "model" {
        /// The global version of the snapshot.
        version: u64,
        /// The flat parameters.
        params: Vec<f32>,
    }
    /// Client → server: one asynchronous update.
    PushUpdate = 6 "push-update" {
        /// The pushing session.
        session: u64,
        /// The update.
        update: WireUpdate,
    }
    /// Server → client: the update was applied inline.
    PushApplied = 7 "push-applied" {
        /// The staleness (lag) the update experienced.
        lag: u64,
        /// The global version after the apply.
        version: u64,
    }
    /// Server → client: the update was queued for a later tick.
    PushQueued = 8 "push-queued" {
        /// Ingress-queue depth after enqueueing.
        depth: u64,
    }
    /// Server → client: the update was refused (backpressure, bad session…).
    PushRefused = 9 "push-refused" {
        /// Why.
        reason: Refusal,
    }
    /// Client → server: one synchronous aggregation round (Sync-SGD).
    PushRound = 10 "push-round" {
        /// The pushing session.
        session: u64,
        /// The participating updates.
        updates: Vec<WireUpdate>,
    }
    /// Server → client: the round was applied.
    RoundOk = 11 "round-ok" {
        /// The global version after the round.
        version: u64,
    }
    /// Client → server: keep the session alive.
    Heartbeat = 12 "heartbeat" {
        /// The session to touch.
        session: u64,
    }
    /// Server → client: heartbeat acknowledged.
    HeartbeatAck = 13 "heartbeat-ack" {
        /// The server's current logical tick.
        tick: u64,
    }
    /// Client → server: close the session cleanly.
    Leave = 14 "leave" {
        /// The session to close.
        session: u64,
    }
    /// Server → client: session closed.
    LeaveOk = 15 "leave-ok"
    /// Client → server: query the momentum-vector norm (Eq. 1).
    QueryNorm = 16 "query-norm"
    /// Server → client: the momentum norm as raw bits (exact round-trip).
    NormIs = 17 "norm-is" {
        /// `f32::to_bits` of the norm.
        bits: u32,
    }
    /// Client → server: query the aggregation statistics.
    QueryStats = 18 "query-stats"
    /// Server → client: the aggregation statistics.
    StatsIs = 19 "stats-is" {
        /// Total asynchronous updates applied.
        async_updates: u64,
        /// Total synchronous rounds applied.
        sync_rounds: u64,
        /// Sum of lags over applied asynchronous updates.
        total_lag: u64,
        /// Largest lag observed.
        max_lag: u64,
    }
    /// Client → server: drain and stop the service.
    Shutdown = 20 "shutdown"
    /// Server → client: shutdown acknowledged.
    ShutdownOk = 21 "shutdown-ok"
}

impl Message {
    /// Encodes the message as one complete frame (header + payload).
    ///
    /// Infallible: a payload above [`MAX_FRAME_LEN`] still encodes (its length
    /// field wraps) and every decoder rejects it; [`FrameWriter::write_to`]
    /// is where the cap is enforced on the sending side.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut frame = Vec::new();
        self.encode_into(&mut frame);
        frame
    }

    /// Replaces the contents of `out` with the message's frame: one exact
    /// reservation, the header, and the payload written in place behind it.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let len = self.payload_len();
        out.clear();
        out.reserve_exact(HEADER_LEN + len);
        put_u32(out, len as u32);
        out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        out.push(self.tag());
        out.push(0); // reserved
        self.put_payload(out);
    }

    /// Decodes exactly one frame from `bytes`, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// Any structural defect yields a typed [`WireError`].
    pub fn from_frame(bytes: &[u8]) -> Result<Message, WireError> {
        if bytes.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        if len > MAX_FRAME_LEN {
            return Err(WireError::Oversized { len });
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != PROTOCOL_VERSION {
            return Err(WireError::BadVersion { got: version });
        }
        let tag = bytes[6];
        let payload = &bytes[HEADER_LEN..];
        if payload.len() < len as usize {
            return Err(WireError::Truncated);
        }
        if payload.len() > len as usize {
            return Err(WireError::TrailingBytes);
        }
        Message::decode_payload(tag, payload)
    }
}

/// One field type's codec: its size on the wire, its writer and its
/// bounds-checked reader. Every field of a [`Message`] row is one of these.
trait Wire: Sized {
    fn wire_len(&self) -> usize;
    fn put(&self, out: &mut Vec<u8>);
    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError>;
}

/// Little-endian integers.
macro_rules! wire_int {
    ($($ty:ident $put:ident),*) => {$(
        impl Wire for $ty {
            fn wire_len(&self) -> usize {
                size_of::<$ty>()
            }

            fn put(&self, out: &mut Vec<u8>) {
                $put(out, *self);
            }

            fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
                let mut bytes = [0; size_of::<$ty>()];
                bytes.copy_from_slice(cur.take(size_of::<$ty>())?);
                Ok($ty::from_le_bytes(bytes))
            }
        }
    )*};
}

wire_int!(u32 put_u32, u64 put_u64);

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Its one-byte code.
impl Wire for Refusal {
    fn wire_len(&self) -> usize {
        1
    }

    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.code());
    }

    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        Refusal::from_code(cur.take(1)?[0])
    }
}

/// A `u32` count, then each value's bit pattern.
impl Wire for Vec<f32> {
    fn wire_len(&self) -> usize {
        4 + 4 * self.len()
    }

    fn put(&self, out: &mut Vec<u8>) {
        // Over a slice: the same loop over `&Vec<f32>` encoded a LeNet-5
        // frame about a third slower (EXPERIMENTS.md, "One wire table").
        put_f32s(out, self);
    }

    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        let count = u32::get(cur)? as usize;
        if count > cur.remaining() / 4 {
            return Err(WireError::BadPayload(format!(
                "vector of {count} f32s cannot fit in {} remaining bytes",
                cur.remaining()
            )));
        }
        let floats = cur
            .take(4 * count)?
            .chunks_exact(4)
            .map(|b| f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]])));
        // `extend` into a sized vector compiles to a block copy; `collect`
        // on the same iterator converts an element at a time (4× slower on a
        // LeNet-5 model, EXPERIMENTS.md "Data plane").
        let mut out = Vec::with_capacity(count);
        out.extend(floats);
        Ok(out)
    }
}

fn put_f32s(out: &mut Vec<u8>, values: &[f32]) {
    put_u32(out, values.len() as u32);
    let start = out.len();
    out.resize(start + 4 * values.len(), 0);
    for (bytes, v) in out[start..].chunks_exact_mut(4).zip(values) {
        bytes.copy_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Its fields in declaration order.
impl Wire for WireUpdate {
    fn wire_len(&self) -> usize {
        UPDATE_FIXED_LEN + self.params.wire_len()
    }

    fn put(&self, out: &mut Vec<u8>) {
        self.client.put(out);
        self.base_version.put(out);
        self.num_samples.put(out);
        self.train_loss_bits.put(out);
        self.train_accuracy_bits.put(out);
        self.params.put(out);
    }

    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(WireUpdate {
            client: u64::get(cur)?,
            base_version: u64::get(cur)?,
            num_samples: u64::get(cur)?,
            train_loss_bits: u32::get(cur)?,
            train_accuracy_bits: u32::get(cur)?,
            params: Vec::get(cur)?,
        })
    }
}

/// A `u32` count, then each update.
impl Wire for Vec<WireUpdate> {
    fn wire_len(&self) -> usize {
        4 + self.iter().map(Wire::wire_len).sum::<usize>()
    }

    fn put(&self, out: &mut Vec<u8>) {
        put_u32(out, self.len() as u32);
        for update in self {
            update.put(out);
        }
    }

    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        let count = u32::get(cur)? as usize;
        // A count the remaining payload cannot possibly hold is a lie.
        if count > cur.remaining() / UPDATE_FIXED_LEN {
            return Err(WireError::BadPayload(format!(
                "round of {count} updates cannot fit in {} remaining bytes",
                cur.remaining()
            )));
        }
        let mut updates = Vec::with_capacity(count);
        for _ in 0..count {
            updates.push(WireUpdate::get(cur)?);
        }
        Ok(updates)
    }
}

/// A bounds-checked reader over a payload slice: the bytes not yet taken.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor(bytes)
    }

    fn remaining(&self) -> usize {
        self.0.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let (taken, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(taken)
    }
}

/// The longest parameter vector one frame can carry in either direction: a
/// `PushUpdate` (session, the update's 32 fixed bytes and the vector's count
/// around its parameters) is the larger of the two single-model frames, so a
/// model this long also fits a `Model` reply.
pub const MAX_MODEL_LEN: usize = (MAX_FRAME_LEN as usize - (8 + UPDATE_FIXED_LEN + 4)) / 4;

/// Writes one frame to a stream through a [`FrameWriter`] that lives for
/// this call only: one frame buffer allocated and freed. A stream that
/// carries more than one frame keeps a `FrameWriter` instead.
///
/// # Errors
///
/// See [`FrameWriter::write_to`].
pub fn write_frame(w: &mut impl Write, msg: &Message) -> Result<(), WireError> {
    FrameWriter::default().write_to(w, msg)
}

/// Reads exactly one frame from a stream that never times out mid-frame (a
/// byte slice, a blocking socket). A stream with a read timeout, or one that
/// carries more than one frame, needs a [`FrameReader`] that outlives the
/// call.
///
/// # Errors
///
/// See [`FrameReader::read_from`].
pub fn read_frame(r: &mut impl Read) -> Result<Message, WireError> {
    FrameReader::default().read_from(r)
}

/// Writes frames to one stream, encoding each into the buffer the previous
/// one used, so a stream of frames allocates only when a frame outgrows
/// every earlier one.
///
/// Memory: the buffer holds the largest frame this writer has sent (at most
/// [`HEADER_LEN`] + [`MAX_FRAME_LEN`] bytes) until the writer is dropped.
#[derive(Debug, Default)]
pub struct FrameWriter {
    /// The last frame sent; its capacity is kept for the next.
    frame: Vec<u8>,
}

impl FrameWriter {
    /// Encodes `msg` into the kept buffer, writes the whole frame and flushes.
    ///
    /// # Errors
    ///
    /// A payload above [`MAX_FRAME_LEN`] is [`WireError::Oversized`] before a
    /// byte is sent — the peer's decoder would reject it unread. OS failures
    /// map to [`WireError::Io`] / [`WireError::Disconnected`] /
    /// [`WireError::TimedOut`]; a write that fails part-way leaves the stream
    /// out of step, so its connection is done.
    pub fn write_to(&mut self, w: &mut impl Write, msg: &Message) -> Result<(), WireError> {
        let len = msg.payload_len();
        if len > MAX_FRAME_LEN as usize {
            return Err(WireError::Oversized {
                len: u32::try_from(len).unwrap_or(u32::MAX),
            });
        }
        msg.encode_into(&mut self.frame);
        w.write_all(&self.frame).map_err(map_io)?;
        w.flush().map_err(map_io)
    }
}

/// Reads frames off one stream into one buffer it keeps, so a stream of
/// frames allocates only when a frame outgrows every earlier one. Both TCP
/// ends (`TcpTransport` and each `fedco-serve` connection) hold one reader
/// and one [`FrameWriter`], so neither allocates a frame. A partly
/// read frame is kept across a [`WireError::TimedOut`], so the next call
/// resumes it where the bytes stopped instead of parsing the rest of a
/// payload as a header.
///
/// Memory: the buffer holds the largest frame this reader has read (at most
/// [`HEADER_LEN`] + [`MAX_FRAME_LEN`] bytes) until the reader is dropped.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// The bytes of the current frame read so far, header first; empty
    /// between frames, with the capacity of the largest frame read.
    frame: Vec<u8>,
}

impl FrameReader {
    /// Reads (or finishes reading) exactly one frame.
    ///
    /// # Errors
    ///
    /// An EOF at a frame boundary is [`WireError::Disconnected`]; mid-frame it
    /// is also `Disconnected` (the peer vanished, nothing was truncated on our
    /// side). Header defects surface as their typed variants before the payload
    /// is read, so an oversized announcement never allocates. After
    /// [`WireError::TimedOut`] the bytes that did arrive are kept and the next
    /// call continues from them; the timeout was an idle one only if the
    /// reader was at a frame boundary.
    pub fn read_from(&mut self, r: &mut impl Read) -> Result<Message, WireError> {
        self.fill(r, HEADER_LEN)?;
        let h = &self.frame;
        let len = u32::from_le_bytes([h[0], h[1], h[2], h[3]]);
        if len > MAX_FRAME_LEN {
            return Err(WireError::Oversized { len });
        }
        let version = u16::from_le_bytes([h[4], h[5]]);
        if version != PROTOCOL_VERSION {
            return Err(WireError::BadVersion { got: version });
        }
        let tag = h[6];
        self.fill(r, HEADER_LEN + len as usize)?;
        let msg = Message::decode_payload(tag, &self.frame[HEADER_LEN..]);
        self.frame.clear();
        msg
    }

    /// Reads until the frame buffer holds `upto` bytes, straight into its
    /// spare capacity (nothing is zero-filled first). `read_to_end` leaves
    /// what it read in the buffer when it fails, which is what makes a
    /// timed-out read resumable.
    fn fill(&mut self, r: &mut impl Read, upto: usize) -> Result<(), WireError> {
        let missing = upto.saturating_sub(self.frame.len());
        self.frame.reserve_exact(missing);
        r.take(missing as u64)
            .read_to_end(&mut self.frame)
            .map_err(map_io)?;
        if self.frame.len() < upto {
            return Err(WireError::Disconnected);
        }
        Ok(())
    }
}

fn map_io(e: std::io::Error) -> WireError {
    match e.kind() {
        std::io::ErrorKind::UnexpectedEof
        | std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::ConnectionAborted
        | std::io::ErrorKind::BrokenPipe => WireError::Disconnected,
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => WireError::TimedOut,
        _ => WireError::Io(e.to_string()),
    }
}

#[cfg(test)]
#[path = "../tests/wire_samples/mod.rs"]
mod wire_samples;

#[cfg(test)]
mod tests {
    use super::*;
    use fedco_rng::rngs::SmallRng;
    use fedco_rng::{Rng, SeedableRng};

    use super::wire_samples::{one_update, samples};

    #[test]
    fn every_message_round_trips_through_a_frame() {
        for msg in samples() {
            let frame = msg.to_frame();
            assert_eq!(
                frame.len(),
                HEADER_LEN + msg.payload_len(),
                "{}",
                msg.name()
            );
            let back = Message::from_frame(&frame)
                .unwrap_or_else(|e| panic!("{} failed to round-trip: {e}", msg.name()));
            assert_eq!(back, msg, "{} round-trip", msg.name());
        }
    }

    /// `samples` (and so every round-trip, truncation, resume and fuzz test
    /// over it, here and in `tests/protocol_fuzz.rs`) has a sample of every
    /// row of `messages!`: a row added without one fails this test instead
    /// of going unexercised.
    #[test]
    fn the_samples_cover_every_row_of_the_table() {
        let decoded_tags: Vec<u8> = (0..=u8::MAX)
            .filter(|&tag| {
                let mut frame = Message::QueryNorm.to_frame();
                frame[6] = tag;
                !matches!(Message::from_frame(&frame), Err(WireError::BadTag { .. }))
            })
            .collect();
        let mut kinds: Vec<(u8, &str)> = samples().iter().map(|m| (m.tag(), m.name())).collect();
        kinds.dedup();
        let sample_tags: Vec<u8> = kinds.iter().map(|&(tag, _)| tag).collect();
        assert_eq!(
            sample_tags, decoded_tags,
            "a sample per decodable tag, in tag order"
        );
        let names: std::collections::HashSet<&str> = kinds.iter().map(|&(_, name)| name).collect();
        assert_eq!(names.len(), kinds.len(), "two kinds share a name");
    }

    #[test]
    fn every_message_round_trips_through_a_stream() {
        let messages = samples();
        let mut stream = Vec::new();
        for msg in &messages {
            write_frame(&mut stream, msg).unwrap();
        }
        let mut reader = stream.as_slice();
        for msg in &messages {
            assert_eq!(&read_frame(&mut reader).unwrap(), msg);
        }
        assert_eq!(read_frame(&mut reader), Err(WireError::Disconnected));
    }

    #[test]
    fn f32_bit_patterns_survive_the_wire_exactly() {
        let weird = vec![
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::MIN_POSITIVE / 2.0, // subnormal
        ];
        let msg = Message::Model {
            version: 1,
            params: weird.clone(),
        };
        let back = Message::from_frame(&msg.to_frame()).unwrap();
        match back {
            Message::Model { params, .. } => {
                assert_eq!(params.len(), weird.len());
                for (a, b) in params.iter().zip(&weird) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("decoded as {}", other.name()),
        }
    }

    #[test]
    fn refusal_codes_round_trip_and_labels_are_stable() {
        for reason in Refusal::ALL {
            assert_eq!(Refusal::from_code(reason.code()), Ok(reason));
        }
        assert_eq!(Refusal::Backpressure.label(), "backpressure");
        assert!(Refusal::from_code(0).is_err());
        assert!(Refusal::from_code(200).is_err());
    }

    /// The labels the service puts in `join-rejected` / `push-refused`
    /// events are the table the trace parser resolves them through, in
    /// wire-code order: every trace the service writes parses back.
    #[test]
    fn every_refusal_label_resolves_through_the_telemetry_table() {
        use fedco_telemetry::event::{resolve_label, REFUSAL_REASONS};
        let mut known = 0;
        for code in 0..=u8::MAX {
            if let Ok(reason) = Refusal::from_code(code) {
                let label = reason.label();
                assert_eq!(resolve_label(REFUSAL_REASONS, label), Some(label));
                assert_eq!(REFUSAL_REASONS[usize::from(code) - 1], label);
                known += 1;
            }
        }
        assert_eq!(known, REFUSAL_REASONS.len(), "a label no refusal has");
    }

    #[test]
    fn header_layout_is_pinned() {
        let frame = Message::Hello { client: 0x0102 }.to_frame();
        assert_eq!(frame.len(), HEADER_LEN + 8);
        assert_eq!(&frame[0..4], &8u32.to_le_bytes());
        assert_eq!(&frame[4..6], &PROTOCOL_VERSION.to_le_bytes());
        assert_eq!(frame[6], 1); // Hello tag
        assert_eq!(frame[7], 0); // reserved
        assert_eq!(&frame[8..16], &0x0102u64.to_le_bytes());
    }

    /// The rewritten codec against the one it replaced. `ci.sh` runs this
    /// module in `--release` too: the bulk conversions only vectorise there.
    mod reference_bits {
        use super::*;

        /// The encoder as it was before `encode_into`: the payload built four
        /// bytes at a time in an unreserved `Vec`, then copied behind its header.
        /// Bodies unchanged — the oracle the single-buffer codec is held to.
        /// A new `messages!` row needs a new arm here, written from the row's
        /// wire layout: the oracle is extended for a new kind and never
        /// changed for an existing one.
        fn reference_frame(msg: &Message) -> Vec<u8> {
            fn put_f32s(out: &mut Vec<u8>, values: &[f32]) {
                put_u32(out, values.len() as u32);
                for v in values {
                    put_u32(out, v.to_bits());
                }
            }
            fn put_update(out: &mut Vec<u8>, u: &WireUpdate) {
                put_u64(out, u.client);
                put_u64(out, u.base_version);
                put_u64(out, u.num_samples);
                put_u32(out, u.train_loss_bits);
                put_u32(out, u.train_accuracy_bits);
                put_f32s(out, &u.params);
            }
            let mut out = Vec::new();
            match msg {
                Message::Hello { client } => put_u64(&mut out, *client),
                Message::Welcome {
                    session,
                    model_version,
                    model_len,
                } => {
                    put_u64(&mut out, *session);
                    put_u64(&mut out, *model_version);
                    put_u64(&mut out, *model_len);
                }
                Message::JoinRefused { reason } => out.push(reason.code()),
                Message::PullModel { session } => put_u64(&mut out, *session),
                Message::Model { version, params } => {
                    put_u64(&mut out, *version);
                    put_f32s(&mut out, params);
                }
                Message::PushUpdate { session, update } => {
                    put_u64(&mut out, *session);
                    put_update(&mut out, update);
                }
                Message::PushApplied { lag, version } => {
                    put_u64(&mut out, *lag);
                    put_u64(&mut out, *version);
                }
                Message::PushQueued { depth } => put_u64(&mut out, *depth),
                Message::PushRefused { reason } => out.push(reason.code()),
                Message::PushRound { session, updates } => {
                    put_u64(&mut out, *session);
                    put_u32(&mut out, updates.len() as u32);
                    for u in updates {
                        put_update(&mut out, u);
                    }
                }
                Message::RoundOk { version } => put_u64(&mut out, *version),
                Message::Heartbeat { session } => put_u64(&mut out, *session),
                Message::HeartbeatAck { tick } => put_u64(&mut out, *tick),
                Message::Leave { session } => put_u64(&mut out, *session),
                Message::LeaveOk | Message::QueryNorm | Message::QueryStats => {}
                Message::NormIs { bits } => put_u32(&mut out, *bits),
                Message::StatsIs {
                    async_updates,
                    sync_rounds,
                    total_lag,
                    max_lag,
                } => {
                    put_u64(&mut out, *async_updates);
                    put_u64(&mut out, *sync_rounds);
                    put_u64(&mut out, *total_lag);
                    put_u64(&mut out, *max_lag);
                }
                Message::Shutdown | Message::ShutdownOk => {}
            }
            let payload = out;
            let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
            frame.push(msg.tag());
            frame.push(0); // reserved
            frame.extend_from_slice(&payload);
            frame
        }

        /// Any bit pattern at all: NaNs with payloads, subnormals, infinities.
        fn random_floats(rng: &mut SmallRng, len: usize) -> Vec<f32> {
            (0..len)
                .map(|_| f32::from_bits(rng.gen_range(0..=u64::from(u32::MAX)) as u32))
                .collect()
        }

        fn random_update(rng: &mut SmallRng, len: usize) -> WireUpdate {
            WireUpdate {
                client: rng.gen_range(0..1u64 << 40),
                base_version: rng.gen_range(0..1u64 << 40),
                num_samples: rng.gen_range(0..4096u64),
                train_loss_bits: rng.gen_range(0..=u64::from(u32::MAX)) as u32,
                train_accuracy_bits: rng.gen_range(0..=u64::from(u32::MAX)) as u32,
                params: random_floats(rng, len),
            }
        }

        /// LeNet-5-sized frames of all three vector kinds, and the empty
        /// vectors (the small ones are in `samples`).
        fn vector_frames() -> Vec<Message> {
            const LENET5: usize = 62_006;
            let mut rng = SmallRng::seed_from_u64(0xC0DEC);
            vec![
                Message::Model {
                    version: u64::MAX,
                    params: random_floats(&mut rng, LENET5),
                },
                Message::PushUpdate {
                    session: 7,
                    update: random_update(&mut rng, LENET5),
                },
                Message::PushRound {
                    session: 7,
                    updates: (0..3).map(|_| random_update(&mut rng, LENET5)).collect(),
                },
                Message::Model {
                    version: 0,
                    params: Vec::new(),
                },
                Message::PushRound {
                    session: 0,
                    updates: vec![random_update(&mut rng, 0)],
                },
            ]
        }

        #[test]
        fn encode_into_matches_the_per_element_encoder() {
            let mut reused = Vec::new();
            let mut longest_first = samples();
            longest_first.extend(vector_frames());
            // Longest frame first, so every later encode lands in a buffer that
            // still holds more bytes than it needs.
            longest_first.sort_by_key(|msg| std::cmp::Reverse(msg.payload_len()));
            for msg in &longest_first {
                let expected = reference_frame(msg);
                let frame = msg.to_frame();
                assert!(frame == expected, "{}: frame bytes moved", msg.name());
                let reserved = HEADER_LEN + msg.payload_len();
                match msg {
                    Message::Model { .. }
                    | Message::PushUpdate { .. }
                    | Message::PushRound { .. } => assert_eq!(frame.len(), reserved),
                    _ => assert!(frame.len() <= reserved, "{} outgrew 32", msg.name()),
                }
                msg.encode_into(&mut reused);
                assert!(reused == expected, "{}: reused buffer", msg.name());
                match Message::from_frame(&frame) {
                    // `==` on the messages would call every NaN different.
                    Ok(back) => assert!(back.to_frame() == expected, "{}: decode", msg.name()),
                    Err(e) => panic!("{} did not decode: {e}", msg.name()),
                }
            }
        }

        #[test]
        fn sampled_truncations_of_the_big_frames_are_typed_errors() {
            // Every cut of the small frames is in `tests/protocol_fuzz.rs`; the
            // 248 KB ones are cut every few KB and at every byte of both ends.
            for msg in vector_frames() {
                let frame = msg.to_frame();
                let cuts = (0..frame.len())
                    .filter(|cut| cut % 4_099 == 0 || *cut < 64 || frame.len() - cut <= 64);
                for cut in cuts {
                    let err = Message::from_frame(&frame[..cut])
                        .expect_err(&format!("{}[..{cut}] decoded", msg.name()));
                    assert!(
                        matches!(err, WireError::Truncated | WireError::BadPayload(_)),
                        "{}[..{cut}] gave {err:?}",
                        msg.name()
                    );
                    let mut reader = &frame[..cut];
                    assert_eq!(read_frame(&mut reader), Err(WireError::Disconnected));
                }
            }
            // A count the remaining bytes cannot hold is refused before anything
            // is sized from it.
            let mut lying = Message::Model {
                version: 1,
                params: vec![1.0; 4],
            }
            .to_frame();
            lying[HEADER_LEN + 8..HEADER_LEN + 12].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(matches!(
                Message::from_frame(&lying),
                Err(WireError::BadPayload(_))
            ));
        }
    }

    #[test]
    fn the_encoder_refuses_what_the_decoder_would() {
        // Nothing below touches the vectors, so they stay untouched zero pages.
        let fits = Message::PushUpdate {
            session: 1,
            update: WireUpdate {
                params: vec![0.0; MAX_MODEL_LEN],
                ..one_update()
            },
        };
        assert!(fits.payload_len() <= MAX_FRAME_LEN as usize);
        let too_long = Message::Model {
            version: 1,
            params: vec![0.0; MAX_FRAME_LEN as usize / 4],
        };
        let len = too_long.payload_len();
        assert!(len > MAX_FRAME_LEN as usize);
        let mut sent = Vec::new();
        assert_eq!(
            write_frame(&mut sent, &too_long),
            Err(WireError::Oversized { len: len as u32 })
        );
        assert!(sent.is_empty(), "refused before a byte is sent");
        let one_more = Message::PushUpdate {
            session: 1,
            update: WireUpdate {
                params: vec![0.0; MAX_MODEL_LEN + 1],
                ..one_update()
            },
        };
        assert!(write_frame(&mut sent, &one_more).is_err());
    }

    /// A stream that hands out its script in order: `Some` bytes are read
    /// (in as many calls as the caller's buffers need), `None` is one timeout.
    struct Scripted<'a>(std::collections::VecDeque<Option<&'a [u8]>>);

    impl Read for Scripted<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            loop {
                match self.0.front_mut() {
                    None => return Ok(0),
                    Some(None) => {
                        self.0.pop_front();
                        return Err(std::io::ErrorKind::WouldBlock.into());
                    }
                    Some(Some([])) => {
                        self.0.pop_front();
                    }
                    Some(Some(bytes)) => {
                        let n = bytes.len().min(buf.len());
                        buf[..n].copy_from_slice(&bytes[..n]);
                        *bytes = &bytes[n..];
                        return Ok(n);
                    }
                }
            }
        }
    }

    #[test]
    fn a_timeout_at_any_byte_of_a_frame_is_resumed() {
        let mut messages = samples();
        messages.push(Message::Model {
            version: 3,
            params: vec![0.5; 300],
        });
        for msg in messages {
            let frame = msg.to_frame();
            for cut in 0..frame.len() {
                // `cut` bytes, a timeout, the rest, then the next frame whole.
                let script = [Some(&frame[..cut]), None, Some(&frame[cut..]), Some(&frame)];
                let mut stream = Scripted(script.into());
                let mut reader = FrameReader::default();
                assert_eq!(
                    reader.read_from(&mut stream),
                    Err(WireError::TimedOut),
                    "{} cut at {cut}",
                    msg.name()
                );
                for _ in 0..2 {
                    let back = reader.read_from(&mut stream);
                    assert_eq!(back.as_ref(), Ok(&msg), "{} cut at {cut}", msg.name());
                }
                assert_eq!(reader.read_from(&mut stream), Err(WireError::Disconnected));
            }
        }
    }

    /// The number of floats in a LeNet-5 model, the size of the data plane's
    /// big frames.
    const LENET5: usize = 62_006;

    fn lenet5_model() -> Message {
        Message::Model {
            version: 5,
            params: (0..LENET5).map(|i| i as f32 * 0.5).collect(),
        }
    }

    #[test]
    fn one_writer_and_one_reader_carry_frames_of_every_size_with_no_stale_tail() {
        let shorter = Message::Model {
            version: 6,
            params: (0..LENET5 / 2).map(|i| -(i as f32)).collect(),
        };
        let messages = [
            lenet5_model(),
            Message::Hello { client: 7 },
            Message::PushUpdate {
                session: 2,
                update: WireUpdate {
                    params: vec![0.25; 1_000],
                    ..one_update()
                },
            },
            shorter,
        ];
        let mut writer = FrameWriter::default();
        let mut stream = Vec::new();
        for msg in &messages {
            writer.write_to(&mut stream, msg).unwrap();
        }
        let frames: Vec<u8> = messages.iter().flat_map(Message::to_frame).collect();
        assert!(stream == frames, "the kept buffer changed a frame's bytes");
        let mut bytes = stream.as_slice();
        let mut reader = FrameReader::default();
        for msg in &messages {
            assert_eq!(
                reader.read_from(&mut bytes).as_ref(),
                Ok(msg),
                "{}",
                msg.name()
            );
        }
        assert_eq!(reader.read_from(&mut bytes), Err(WireError::Disconnected));
    }

    #[test]
    fn a_timeout_at_any_byte_of_a_small_frame_is_resumed_after_a_large_one() {
        let large = lenet5_model();
        let large_frame = large.to_frame();
        let mut reader = FrameReader::default();
        let mut stream = Scripted([Some(large_frame.as_slice())].into());
        assert_eq!(reader.read_from(&mut stream).as_ref(), Ok(&large));
        let held = reader.frame.capacity();
        assert!(held >= large_frame.len());
        let small = Message::PushUpdate {
            session: 1,
            update: one_update(),
        };
        let frame = small.to_frame();
        for cut in 0..frame.len() {
            let script = [Some(&frame[..cut]), None, Some(&frame[cut..]), Some(&frame)];
            let mut stream = Scripted(script.into());
            assert_eq!(
                reader.read_from(&mut stream),
                Err(WireError::TimedOut),
                "cut at {cut}"
            );
            for _ in 0..2 {
                assert_eq!(
                    reader.read_from(&mut stream).as_ref(),
                    Ok(&small),
                    "cut at {cut}"
                );
            }
            assert_eq!(reader.read_from(&mut stream), Err(WireError::Disconnected));
            assert_eq!(reader.frame.capacity(), held, "cut at {cut}");
        }
    }

    #[test]
    fn an_oversized_header_after_a_large_frame_is_refused_before_its_payload() {
        let large = lenet5_model();
        let mut stream = large.to_frame();
        let mut lying = Message::QueryNorm.to_frame();
        lying[..4].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        stream.extend_from_slice(&lying);
        let payload = [0xAB; 64];
        stream.extend_from_slice(&payload);
        let mut bytes = stream.as_slice();
        let mut reader = FrameReader::default();
        assert_eq!(reader.read_from(&mut bytes).as_ref(), Ok(&large));
        let held = reader.frame.capacity();
        assert_eq!(
            reader.read_from(&mut bytes),
            Err(WireError::Oversized {
                len: MAX_FRAME_LEN + 1
            })
        );
        assert_eq!(bytes, payload, "only the header was read");
        assert_eq!(reader.frame.capacity(), held, "nothing was sized from it");
    }

    #[test]
    fn the_writer_refuses_an_oversized_message_then_writes_the_next() {
        let mut writer = FrameWriter::default();
        let mut sent = Vec::new();
        let large = lenet5_model();
        writer.write_to(&mut sent, &large).unwrap();
        sent.clear();
        // Zeroes the encoder never touches stay untouched zero pages.
        let too_long = Message::Model {
            version: 1,
            params: vec![0.0; MAX_FRAME_LEN as usize / 4],
        };
        assert_eq!(
            writer.write_to(&mut sent, &too_long),
            Err(WireError::Oversized {
                len: too_long.payload_len() as u32
            })
        );
        assert!(sent.is_empty(), "refused before a byte is sent");
        let next = Message::Heartbeat { session: 3 };
        writer.write_to(&mut sent, &next).unwrap();
        assert!(sent == next.to_frame());
        writer.write_to(&mut sent, &large).unwrap();
        let both: Vec<u8> = [next, large].iter().flat_map(Message::to_frame).collect();
        assert!(sent == both);
    }
}
