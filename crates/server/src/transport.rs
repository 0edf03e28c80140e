//! Client-side transports: how a request frame reaches a [`ServerCore`].
//!
//! [`ChannelTransport`] calls the core directly (no threads, no sockets) but
//! still encodes every request and decodes every reply through the full wire
//! format, so it exercises the exact bytes a socket would carry — this is
//! the deterministic transport every test and the soak determinism check
//! use. [`TcpTransport`] speaks the same frames over a `std::net` loopback
//! stream with read/write timeouts for real soak runs; its [`FrameReader`]
//! keeps a reply that timed out half-read, so a slow link delays a frame
//! instead of desynchronising the stream. Both transports keep their frame
//! buffers from one request to the next, so a request allocates no frame.

use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::protocol::{FrameReader, FrameWriter, Message, WireError};
use crate::service::ServerCore;

/// A synchronous request/reply channel to a server.
pub trait Transport: Send + std::fmt::Debug {
    /// Sends one request and waits for its reply.
    ///
    /// # Errors
    ///
    /// Any encode/decode/I-O defect surfaces as a typed [`WireError`].
    fn request(&mut self, msg: &Message) -> Result<Message, WireError>;
}

/// The deterministic in-process transport: requests go straight to a shared
/// [`ServerCore`] as encoded frames. It keeps its last request frame and
/// last reply frame and encodes the next ones into them, so a request
/// allocates no frame.
#[derive(Debug, Clone)]
pub struct ChannelTransport {
    core: Arc<Mutex<ServerCore>>,
    request: Vec<u8>,
    reply: Vec<u8>,
}

impl ChannelTransport {
    /// Wraps a shared core.
    pub fn new(core: Arc<Mutex<ServerCore>>) -> Self {
        ChannelTransport {
            core,
            request: Vec::new(),
            reply: Vec::new(),
        }
    }

    /// The shared core (for owners that also drive ticks).
    pub fn core(&self) -> Arc<Mutex<ServerCore>> {
        self.core.clone()
    }
}

impl Transport for ChannelTransport {
    fn request(&mut self, msg: &Message) -> Result<Message, WireError> {
        msg.encode_into(&mut self.request);
        self.core
            .lock()
            // fedco-audit: allow(panic-surface): poisoned core mutex means a handler already panicked; propagate
            .expect("server core mutex poisoned")
            .handle_bytes(&self.request, &mut self.reply)?;
        Message::from_frame(&self.reply)
    }
}

/// A blocking loopback TCP transport with read/write timeouts. Like
/// [`ChannelTransport`], it keeps its frames: requests are encoded into its
/// [`FrameWriter`]'s buffer and replies read into its [`FrameReader`]'s, so
/// a request allocates no frame.
///
/// Memory: the two buffers hold the largest request and the largest reply
/// this connection has carried (each at most the frame cap) and are freed
/// with the transport.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    reader: FrameReader,
    writer: FrameWriter,
}

impl TcpTransport {
    /// Connects to `addr` and arms both directions with `timeout`.
    ///
    /// # Errors
    ///
    /// Connection or socket-option failures map to [`WireError::Io`].
    pub fn connect(addr: &str, timeout: Duration) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr).map_err(|e| WireError::Io(e.to_string()))?;
        TcpTransport::from_stream(stream, timeout)
    }

    /// Wraps an accepted stream (server side uses the same frame I/O).
    ///
    /// # Errors
    ///
    /// Socket-option failures map to [`WireError::Io`].
    pub fn from_stream(stream: TcpStream, timeout: Duration) -> Result<Self, WireError> {
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| WireError::Io(e.to_string()))?;
        stream
            .set_write_timeout(Some(timeout))
            .map_err(|e| WireError::Io(e.to_string()))?;
        stream
            .set_nodelay(true)
            .map_err(|e| WireError::Io(e.to_string()))?;
        Ok(TcpTransport {
            stream,
            reader: FrameReader::default(),
            writer: FrameWriter::default(),
        })
    }
}

impl Transport for TcpTransport {
    fn request(&mut self, msg: &Message) -> Result<Message, WireError> {
        self.writer.write_to(&mut self.stream, msg)?;
        self.reader.read_from(&mut self.stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, write_frame};
    use crate::service::ServerCoreConfig;
    use fedco_neural::model::ParamVector;

    #[test]
    fn channel_transport_round_trips_through_wire_frames() {
        let core = Arc::new(Mutex::new(ServerCore::new(
            ServerCoreConfig::inline_with_model(ParamVector::zeros(3)),
        )));
        let mut t = ChannelTransport::new(core.clone());
        let session = match t.request(&Message::Hello { client: 9 }).unwrap() {
            Message::Welcome {
                session, model_len, ..
            } => {
                assert_eq!(model_len, 3);
                session
            }
            other => panic!("expected Welcome, got {}", other.name()),
        };
        match t.request(&Message::PullModel { session }).unwrap() {
            Message::Model { version, params } => {
                assert_eq!(version, 0);
                assert_eq!(params, vec![0.0, 0.0, 0.0]);
            }
            other => panic!("expected Model, got {}", other.name()),
        }
        assert_eq!(
            t.request(&Message::Leave { session }).unwrap(),
            Message::LeaveOk
        );
        assert_eq!(core.lock().unwrap().counters().left, 1);
    }

    #[test]
    fn tcp_transport_speaks_the_same_frames_over_loopback() {
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let core = ServerCore::new(ServerCoreConfig::inline_with_model(ParamVector::zeros(2)));
            let core = Arc::new(Mutex::new(core));
            let (stream, _) = listener.accept().unwrap();
            let mut stream = stream;
            while let Ok(msg) = read_frame(&mut stream) {
                let is_shutdown = matches!(msg, Message::Shutdown);
                let reply = core.lock().unwrap().handle(msg);
                write_frame(&mut stream, &reply).unwrap();
                if is_shutdown {
                    break;
                }
            }
        });
        let mut t = TcpTransport::connect(&addr, Duration::from_secs(5)).unwrap();
        assert!(matches!(
            t.request(&Message::Hello { client: 1 }).unwrap(),
            Message::Welcome { .. }
        ));
        assert_eq!(t.request(&Message::Shutdown).unwrap(), Message::ShutdownOk);
        server.join().unwrap();
    }

    #[test]
    fn tcp_transport_alternates_lenet5_frames_with_small_ones() {
        use crate::protocol::WireUpdate;
        use std::net::TcpListener;

        const LENET5: usize = 62_006;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let initial = ParamVector::new((0..LENET5).map(|i| i as f32).collect());
            let mut core = ServerCore::new(ServerCoreConfig::inline_with_model(initial));
            let (mut stream, _) = listener.accept().unwrap();
            let (mut reader, mut writer) = (FrameReader::default(), FrameWriter::default());
            while let Ok(msg) = reader.read_from(&mut stream) {
                let is_shutdown = matches!(msg, Message::Shutdown);
                writer.write_to(&mut stream, &core.handle(msg)).unwrap();
                if is_shutdown {
                    break;
                }
            }
        });
        let mut t = TcpTransport::connect(&addr, Duration::from_secs(20)).unwrap();
        let Ok(Message::Welcome { session, .. }) = t.request(&Message::Hello { client: 1 }) else {
            panic!("Hello was not welcomed");
        };
        let mut held: Vec<f32> = (0..LENET5).map(|i| i as f32).collect();
        for version in 0..4u64 {
            assert_eq!(
                t.request(&Message::PullModel { session }),
                Ok(Message::Model {
                    version,
                    params: held.clone(),
                }),
                "pull {version}"
            );
            assert_eq!(
                t.request(&Message::Heartbeat { session }),
                Ok(Message::HeartbeatAck { tick: 0 })
            );
            // Every upload differs from the last in every element.
            held = (0..LENET5)
                .map(|i| (i as f32 + 1.0) * -(version as f32 + 2.0))
                .collect();
            let push = Message::PushUpdate {
                session,
                update: WireUpdate {
                    client: 1,
                    base_version: version,
                    num_samples: 32,
                    train_loss_bits: 0,
                    train_accuracy_bits: 0,
                    params: held.clone(),
                },
            };
            assert_eq!(
                t.request(&push),
                Ok(Message::PushApplied {
                    lag: 0,
                    version: version + 1
                })
            );
            assert!(matches!(
                t.request(&Message::QueryStats),
                Ok(Message::StatsIs { async_updates, .. }) if async_updates == version + 1
            ));
        }
        assert_eq!(t.request(&Message::Shutdown), Ok(Message::ShutdownOk));
        server.join().unwrap();
    }

    #[test]
    fn a_reply_that_times_out_is_finished_by_the_next_read_not_misparsed() {
        use std::io::Write;
        use std::net::TcpListener;
        use std::sync::mpsc::channel;

        let late = Message::Model {
            version: 4,
            params: vec![0.25; 64],
        };
        // The reply stalls before its first byte (an idle timeout) and in the
        // middle of its payload.
        for cut in [0, late.to_frame().len() / 2] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let (resume, resumed) = channel::<()>();
            let frame = late.to_frame();
            let server = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                read_frame(&mut stream).unwrap();
                stream.write_all(&frame[..cut]).unwrap();
                resumed.recv().unwrap();
                stream.write_all(&frame[cut..]).unwrap();
                read_frame(&mut stream).unwrap();
                write_frame(&mut stream, &Message::LeaveOk).unwrap();
                read_frame(&mut stream).unwrap();
            });
            let mut t = TcpTransport::connect(&addr, Duration::from_millis(50)).unwrap();
            let ask = Message::QueryStats;
            assert_eq!(t.request(&ask), Err(WireError::TimedOut), "cut {cut}");
            resume.send(()).unwrap();
            // The stream is still in step: frames arrive whole and in order,
            // one request late.
            t.stream
                .set_read_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            assert_eq!(t.request(&ask).as_ref(), Ok(&late), "cut {cut}");
            assert_eq!(t.request(&ask), Ok(Message::LeaveOk), "cut {cut}");
            server.join().unwrap();
        }
    }
}
