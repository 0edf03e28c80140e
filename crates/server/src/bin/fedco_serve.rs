//! `fedco-serve` — the long-running parameter-server service.
//!
//! ```text
//! cargo run --release --offline -p fedco-server --bin fedco-serve -- [flags]
//!
//!   --listen ADDR         bind address (default 127.0.0.1:0; the chosen
//!                         address is printed as `listening=HOST:PORT`)
//!   --model-len N         served model length (default 8)
//!   --seed N              0 = zero-initialised model (default); otherwise
//!                         seeds a uniform(-1,1) initial model
//!   --max-sessions N      session admission cap (default 1024)
//!   --queue N             ingress queue bound; 0 = inline apply (default 64)
//!   --drain N             queued updates applied per tick (default 8)
//!   --heartbeat-timeout N session expiry in ticks (default 12)
//!   --tick-every N        also advance the logical tick every N frames
//!                         handled (default 0 = off; the ticker thread is
//!                         the usual clock for a live server)
//!   --tick-ms N           advance the logical tick every N milliseconds
//!                         (default 25; 0 disables the ticker thread, in
//!                         which case --tick-every must be > 0)
//!   --trace PATH          write the server telemetry stream as JSON lines
//!                         on shutdown
//! ```
//!
//! One thread per connection; all of them share the one [`ServerCore`]. A
//! `Shutdown` frame drains the ingress queue, answers `ShutdownOk`, and
//! stops the accept loop — a clean, in-protocol exit. The process itself
//! stays on wall-clock only for socket waits; every decision the core makes
//! runs on its logical tick.
//!
//! Nothing polls: `accept` blocks and the ticker waits on a channel. The
//! connection that answers `ShutdownOk` sets the stop flag, sends the ticker
//! its stop message, and makes one loopback connection to the listener to
//! wake the acceptor, so neither start-up nor exit waits out an interval.
//!
//! At most `--max-sessions` connections are served at once: one past that
//! is closed as it is accepted, with a line on stderr, so a flood of idle
//! connections cannot hold a thread (and its frame buffers) each.
//!
//! A connection waits as long as it likes between frames, but a frame must
//! be whole 5 s after its first byte arrived (and a reply written within
//! 5 s), or the connection is dropped: a peer that stops or trickles inside
//! a frame does not hold its thread and its partial frame.

use std::io::{Read, Write as _};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use fedco_neural::model::ParamVector;
use fedco_rng::rngs::SmallRng;
use fedco_rng::{Rng, SeedableRng};
use fedco_server::deadline::Deadline;
use fedco_server::protocol::{
    FrameReader, FrameWriter, Message, WireError, MAX_FRAME_LEN, MAX_MODEL_LEN,
};
use fedco_server::service::{ServerCore, ServerCoreConfig};
use fedco_server::session::SessionConfig;
use fedco_telemetry::export::events_to_jsonl;
use fedco_telemetry::sink::BufferSink;

struct Args {
    listen: String,
    model_len: usize,
    seed: u64,
    max_sessions: usize,
    queue: usize,
    drain: usize,
    heartbeat_timeout: u64,
    tick_every: u64,
    tick_ms: u64,
    trace: Option<String>,
}

const USAGE: &str = "usage: fedco-serve [--listen ADDR] [--model-len N] [--seed N] \
[--max-sessions N] [--queue N] [--drain N] [--heartbeat-timeout N] [--tick-every N] \
[--tick-ms N] [--trace PATH]";

/// The value given after `flag`, parsed.
fn parsed<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let value = value.ok_or_else(|| format!("missing value for {flag}"))?;
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        listen: "127.0.0.1:0".to_string(),
        model_len: 8,
        seed: 0,
        max_sessions: 1024,
        queue: 64,
        drain: 8,
        heartbeat_timeout: 12,
        tick_every: 0,
        tick_ms: 25,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let f = flag.as_str();
        match f {
            "--listen" => args.listen = parsed(f, it.next())?,
            "--model-len" => {
                args.model_len = parsed(f, it.next())?;
                if args.model_len == 0 {
                    return Err("--model-len must be at least 1".to_string());
                }
            }
            "--seed" => args.seed = parsed(f, it.next())?,
            "--max-sessions" => args.max_sessions = parsed(f, it.next())?,
            "--queue" => args.queue = parsed(f, it.next())?,
            "--drain" => args.drain = parsed(f, it.next())?,
            "--heartbeat-timeout" => args.heartbeat_timeout = parsed(f, it.next())?,
            "--tick-every" => args.tick_every = parsed(f, it.next())?,
            "--tick-ms" => args.tick_ms = parsed(f, it.next())?,
            "--trace" => args.trace = Some(parsed(f, it.next())?),
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(Some(args))
}

fn initial_model(len: usize, seed: u64) -> ParamVector {
    if seed == 0 {
        ParamVector::zeros(len)
    } else {
        let mut rng = SmallRng::seed_from_u64(seed);
        ParamVector::new((0..len).map(|_| rng.gen_range(-1.0..1.0f32)).collect())
    }
}

/// How long a connection thread blocks in a read before it looks at the stop
/// signal again.
const READ_POLL: Duration = Duration::from_millis(250);

/// How long one frame may take: to be written out (the socket's write
/// timeout) and, once its first byte has arrived, to arrive whole.
const FRAME_BUDGET: Duration = Duration::from_secs(5);

/// What every thread of the service shares.
#[derive(Debug)]
struct Shared {
    core: Mutex<ServerCore>,
    /// Set by the connection that answered `ShutdownOk`, or by the first
    /// thread to find the core poisoned.
    stop: AtomicBool,
    /// Ends the ticker's timed wait (nobody listens when there is no ticker).
    stop_ticker: Sender<()>,
    /// Where the listener is bound (the acceptor's wake-up call goes there).
    local: SocketAddr,
}

impl Shared {
    /// Stops the service: the flag for the connection threads, a message
    /// for the ticker, and for the acceptor one connection to its own
    /// listener (through loopback when it is bound to an unspecified
    /// address, which cannot be connected to).
    fn shut_down(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.stop_ticker.send(());
        let ip = match self.local.ip() {
            ip if !ip.is_unspecified() => ip,
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        };
        let wake = SocketAddr::new(ip, self.local.port());
        if let Err(e) = TcpStream::connect_timeout(&wake, Duration::from_secs(1)) {
            eprintln!("fedco-serve: could not wake the acceptor at {wake}: {e}");
        }
    }

    /// The core, or `None` once a thread has panicked holding it. The first
    /// thread to find it poisoned says so and stops the service, which then
    /// exits through its summary.
    fn lock_core(&self) -> Option<MutexGuard<'_, ServerCore>> {
        let core = self.core.lock().ok();
        if core.is_none() && !self.stop.swap(true, Ordering::SeqCst) {
            eprintln!("fedco-serve: a thread panicked holding the server core; shutting down");
            self.shut_down();
        }
        core
    }
}

/// A connection's socket as its frame reader sees it: once the frame in
/// flight has spent its budget, a read fails as a timeout instead of
/// waiting, so a peer that stops or trickles inside a frame cannot hold the
/// connection.
struct FrameClock<'s> {
    stream: &'s TcpStream,
    budget: Duration,
    /// Started by the read that brings a frame's first byte (the reader
    /// never asks for more than the frame in flight), cleared when the frame
    /// is whole.
    deadline: Option<Deadline>,
}

impl FrameClock<'_> {
    fn spent(&self) -> bool {
        self.deadline.is_some_and(|deadline| deadline.expired())
    }
}

impl Read for FrameClock<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.spent() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        let n = self.stream.read(buf)?;
        if n > 0 && self.deadline.is_none() {
            self.deadline = Some(Deadline::starting_now(self.budget));
        }
        Ok(n)
    }
}

/// Serves one connection until the peer disconnects, shutdown begins, or a
/// frame takes longer than `frame_budget` to arrive or to be written. The
/// reader and the writer keep their buffers between frames: the connection
/// holds its largest request and its largest reply until it closes.
fn serve_connection(stream: TcpStream, shared: &Shared, frame_budget: Duration) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err()
        || stream.set_write_timeout(Some(frame_budget)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let mut input = FrameClock {
        stream: &stream,
        budget: frame_budget,
        deadline: None,
    };
    let mut output = &stream;
    let mut reader = FrameReader::default();
    let mut writer = FrameWriter::default();
    loop {
        let msg = match reader.read_from(&mut input) {
            Ok(msg) => msg,
            Err(WireError::TimedOut) => {
                // Idle at a frame boundary, or a peer pausing inside a frame
                // (the reader keeps what arrived): keep waiting unless the
                // service is going down or the frame's budget is spent.
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                if input.spent() {
                    eprintln!(
                        "fedco-serve: dropping connection: a frame was not whole \
                         {frame_budget:?} after its first byte"
                    );
                    return;
                }
                continue;
            }
            Err(WireError::Disconnected) => return,
            Err(e) => {
                // Malformed frame: answer with nothing we can; log and drop.
                eprintln!("fedco-serve: dropping connection: {e}");
                return;
            }
        };
        input.deadline = None;
        let Some(reply) = shared.lock_core().map(|mut core| core.handle(msg)) else {
            return;
        };
        if writer.write_to(&mut output, &reply).is_err() {
            return;
        }
        if reply == Message::ShutdownOk {
            shared.shut_down();
            return;
        }
    }
}

/// The accept side: the listener and the connection threads still running.
#[derive(Debug)]
struct Acceptor {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// The most connections served at once: the core's session cap.
    max_connections: usize,
}

impl Acceptor {
    /// Binds the listener; the receiver is the ticker's end of the stop
    /// channel.
    fn bind(listen: &str, core: ServerCore) -> Result<(Acceptor, Receiver<()>), String> {
        let listener = TcpListener::bind(listen).map_err(|e| format!("bind {listen}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let (stop_ticker, ticker_stopped) = channel();
        let max_connections = core.max_sessions();
        let shared = Arc::new(Shared {
            core: Mutex::new(core),
            stop: AtomicBool::new(false),
            stop_ticker,
            local,
        });
        let acceptor = Acceptor {
            listener,
            shared,
            workers: Vec::new(),
            max_connections,
        };
        Ok((acceptor, ticker_stopped))
    }

    /// Blocks for the next connection and gives it a thread, unless
    /// `max_connections` are open already: then it closes the connection.
    /// Threads that have finished are dropped first (a finished thread's
    /// handle has nothing left to join), so a long-running server holds one
    /// handle per open connection, not one per connection it ever accepted.
    fn accept_one(&mut self) -> Result<(), String> {
        let (stream, peer) = self.listener.accept().map_err(|e| format!("accept: {e}"))?;
        self.workers.retain(|worker| !worker.is_finished());
        if self.shared.stop.load(Ordering::SeqCst) {
            // Once stopped, what arrives is the wake-up call (or a client
            // too late to be served): drop it.
        } else if self.workers.len() >= self.max_connections {
            eprintln!("fedco-serve: closing connection from {peer}: --max-sessions are open");
        } else {
            let shared = self.shared.clone();
            self.workers.push(std::thread::spawn(move || {
                serve_connection(stream, &shared, FRAME_BUDGET);
            }));
        }
        Ok(())
    }

    /// Accepts until the stop signal is raised, then joins what is left.
    fn run(mut self) -> Result<(), String> {
        while !self.shared.stop.load(Ordering::SeqCst) {
            self.accept_one()?;
        }
        for worker in self.workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

fn run(args: Args) -> Result<(), String> {
    if args.tick_ms == 0 && args.tick_every == 0 {
        return Err("a live server needs a clock: set --tick-ms or --tick-every".to_string());
    }
    if args.model_len > MAX_MODEL_LEN {
        return Err(format!(
            "--model-len {}: no frame can carry that model; MAX_FRAME_LEN ({MAX_FRAME_LEN} \
             bytes) holds at most {MAX_MODEL_LEN} parameters",
            args.model_len
        ));
    }
    let sink = BufferSink::shared();
    let mut core = ServerCore::new(ServerCoreConfig {
        initial: initial_model(args.model_len, args.seed),
        learning_rate: 0.01,
        momentum_beta: 0.9,
        session: SessionConfig {
            heartbeat_timeout_ticks: args.heartbeat_timeout,
            max_sessions: args.max_sessions,
        },
        queue_capacity: args.queue,
        drain_per_tick: args.drain,
        tick_every: args.tick_every,
    });
    if args.trace.is_some() {
        core.attach_telemetry(sink.clone());
    }

    let (acceptor, ticker_stopped) = Acceptor::bind(&args.listen, core)?;
    let shared = acceptor.shared.clone();
    println!("listening={}", shared.local);
    // Make sure a parent process polling our stdout sees the address now.
    let _ = std::io::stdout().flush();

    // The wall-time ticker: heartbeat expiry and queue draining keep
    // happening on a live server even when no frames are arriving.
    let ticker = (args.tick_ms > 0).then(|| {
        let shared = shared.clone();
        let every = Duration::from_millis(args.tick_ms);
        std::thread::spawn(move || {
            while ticker_stopped.recv_timeout(every) == Err(RecvTimeoutError::Timeout) {
                match shared.lock_core() {
                    Some(mut core) => core.advance_tick(),
                    None => break,
                }
            }
        })
    });

    acceptor.run()?;
    if let Some(ticker) = ticker {
        let _ = ticker.join();
    }

    let (counters, stats, version) = {
        let core = match shared.core.lock() {
            Ok(core) => core,
            Err(poisoned) => poisoned.into_inner(),
        };
        (core.counters(), core.stats(), core.model().0)
    };
    println!(
        "shutdown: version={} async_updates={} joins_accepted={} joins_rejected={} \
         expired={} pushes_refused={}",
        version,
        stats.async_updates,
        counters.joins_accepted,
        counters.joins_rejected,
        counters.expired,
        counters.pushes_refused,
    );
    if let Some(path) = args.trace {
        let events = sink.drain();
        std::fs::write(&path, events_to_jsonl(&events))
            .map_err(|e| format!("writing trace {path}: {e}"))?;
        println!("trace={path} events={}", events.len());
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(Some(args)) => match run(args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("fedco-serve: {e}");
                ExitCode::FAILURE
            }
        },
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fedco-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedco_server::protocol::{read_frame, write_frame, Refusal, WireUpdate, HEADER_LEN};
    use std::io::Write;

    fn bound() -> (Acceptor, Receiver<()>) {
        let core = ServerCore::new(ServerCoreConfig::inline_with_model(ParamVector::zeros(4)));
        Acceptor::bind("127.0.0.1:0", core).unwrap()
    }

    fn acceptor() -> Acceptor {
        bound().0
    }

    fn connect(acceptor: &mut Acceptor) -> TcpStream {
        let client = TcpStream::connect(acceptor.shared.local).unwrap();
        acceptor.accept_one().unwrap();
        client
    }

    #[test]
    fn the_acceptor_holds_one_handle_per_open_connection() {
        let mut acceptor = acceptor();
        let held: Vec<TcpStream> = (0..3).map(|_| connect(&mut acceptor)).collect();
        for _ in 0..300 {
            drop(connect(&mut acceptor));
            assert_eq!(acceptor.workers.len(), held.len() + 1);
            // The closed connection's thread ends on the EOF it reads; the
            // next accept must then let go of its handle.
            let patience = Deadline::starting_now(Duration::from_secs(20));
            while !acceptor.workers[held.len()].is_finished() {
                assert!(!patience.expired(), "a closed connection kept its thread");
                std::thread::yield_now();
            }
        }
        drop(held);
    }

    /// Writes `frame` with a pause longer than the server's read timeout
    /// after its first `cut` bytes.
    fn write_with_a_stall(client: &mut TcpStream, frame: &[u8], cut: usize) {
        client.write_all(&frame[..cut]).unwrap();
        client.flush().unwrap();
        std::thread::sleep(READ_POLL + Duration::from_millis(150));
        client.write_all(&frame[cut..]).unwrap();
    }

    #[test]
    fn a_peer_that_stalls_inside_a_frame_is_resumed_not_dropped() {
        let mut acceptor = acceptor();
        let mut client = connect(&mut acceptor);
        client.set_nodelay(true).unwrap();
        write_frame(&mut client, &Message::Hello { client: 1 }).unwrap();
        let Message::Welcome { session, .. } = read_frame(&mut client).unwrap() else {
            panic!("Hello was not welcomed");
        };
        let push = Message::PushUpdate {
            session,
            update: WireUpdate {
                client: 1,
                base_version: 0,
                num_samples: 32,
                train_loss_bits: 0,
                train_accuracy_bits: 0,
                params: vec![1.0, 2.0, 3.0, 4.0],
            },
        }
        .to_frame();
        // The header and half the payload, a pause, the rest.
        let half = HEADER_LEN + (push.len() - HEADER_LEN) / 2;
        write_with_a_stall(&mut client, &push, half);
        assert_eq!(
            read_frame(&mut client),
            Ok(Message::PushApplied { lag: 0, version: 1 })
        );
        // A pause inside the header itself.
        write_with_a_stall(&mut client, &Message::Heartbeat { session }.to_frame(), 3);
        assert_eq!(
            read_frame(&mut client),
            Ok(Message::HeartbeatAck { tick: 0 })
        );
        assert_eq!(
            acceptor.shared.core.lock().unwrap().model().1.values(),
            &[1.0, 2.0, 3.0, 4.0]
        );
    }

    /// A connection served on its own thread with `frame_budget`.
    fn serve_within(acceptor: &Acceptor, frame_budget: Duration) -> (TcpStream, JoinHandle<()>) {
        let client = TcpStream::connect(acceptor.shared.local).unwrap();
        client.set_nodelay(true).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let (stream, _) = acceptor.listener.accept().unwrap();
        let shared = acceptor.shared.clone();
        let thread = std::thread::spawn(move || serve_connection(stream, &shared, frame_budget));
        (client, thread)
    }

    const TEST_BUDGET: Duration = Duration::from_millis(300);

    #[test]
    fn a_connection_idle_between_frames_outlives_the_frame_budget() {
        let acceptor = acceptor();
        let (mut client, thread) = serve_within(&acceptor, TEST_BUDGET);
        for client_id in 0..2 {
            std::thread::sleep(TEST_BUDGET * 2);
            write_frame(&mut client, &Message::Hello { client: client_id }).unwrap();
            assert!(matches!(
                read_frame(&mut client),
                Ok(Message::Welcome { .. })
            ));
        }
        drop(client);
        thread.join().unwrap();
    }

    #[test]
    fn a_peer_that_stops_inside_a_frame_is_dropped_after_the_frame_budget() {
        let acceptor = acceptor();
        let (mut client, thread) = serve_within(&acceptor, TEST_BUDGET);
        write_frame(&mut client, &Message::Hello { client: 1 }).unwrap();
        assert!(matches!(
            read_frame(&mut client),
            Ok(Message::Welcome { .. })
        ));
        let frame = Message::Heartbeat { session: 1 }.to_frame();
        let budget = Deadline::starting_now(TEST_BUDGET);
        client.write_all(&frame[..HEADER_LEN + 2]).unwrap();
        // No reply: the server closes the connection, and not before the
        // budget is spent.
        assert_eq!(read_frame(&mut client), Err(WireError::Disconnected));
        assert!(budget.expired());
        thread.join().unwrap();
    }

    #[test]
    fn a_peer_that_trickles_a_frame_is_dropped_after_the_frame_budget() {
        let acceptor = acceptor();
        let (client, thread) = serve_within(&acceptor, TEST_BUDGET);
        let mut writing = client.try_clone().unwrap();
        // Every byte arrives well inside the socket's read timeout.
        let trickle = std::thread::spawn(move || {
            let frame = Message::Model {
                version: 0,
                params: vec![1.0; 1_000],
            }
            .to_frame();
            frame.iter().all(|byte| {
                std::thread::sleep(Duration::from_millis(20));
                writing.write_all(&[*byte]).is_ok()
            })
        });
        let mut reading = client;
        assert_eq!(read_frame(&mut reading), Err(WireError::Disconnected));
        thread.join().unwrap();
        assert!(!trickle.join().unwrap(), "the whole frame was taken in");
    }

    #[test]
    fn the_frame_clock_expires_a_silent_session_over_tcp() {
        // No ticker thread: `--tick-ms 0 --tick-every 1`, a tick per frame.
        let core = ServerCore::new(ServerCoreConfig {
            session: SessionConfig {
                heartbeat_timeout_ticks: 3,
                max_sessions: 8,
            },
            tick_every: 1,
            ..ServerCoreConfig::inline_with_model(ParamVector::zeros(4))
        });
        let (mut acceptor, _ticker_stopped) = Acceptor::bind("127.0.0.1:0", core).unwrap();
        let mut silent = connect(&mut acceptor);
        write_frame(&mut silent, &Message::Hello { client: 1 }).unwrap();
        let Message::Welcome { session, .. } = read_frame(&mut silent).unwrap() else {
            panic!("Hello was not welcomed");
        };
        // Another client's frames are all the clock there is.
        let mut busy = connect(&mut acceptor);
        for _ in 0..6 {
            write_frame(&mut busy, &Message::QueryStats).unwrap();
            assert!(matches!(read_frame(&mut busy), Ok(Message::StatsIs { .. })));
        }
        {
            let core = acceptor.shared.core.lock().unwrap();
            assert_eq!(core.tick(), 7, "one tick per frame handled over TCP");
            assert_eq!(core.counters().expired, 1);
        }
        write_frame(&mut silent, &Message::Heartbeat { session }).unwrap();
        assert_eq!(
            read_frame(&mut silent),
            Ok(Message::PushRefused {
                reason: Refusal::UnknownSession
            })
        );
    }

    #[test]
    fn connections_past_the_session_cap_are_closed_at_accept() {
        // `--max-sessions 1`: one connection is served at a time.
        let core = ServerCore::new(ServerCoreConfig {
            session: SessionConfig {
                max_sessions: 1,
                ..SessionConfig::default()
            },
            ..ServerCoreConfig::inline_with_model(ParamVector::zeros(4))
        });
        let (mut acceptor, _ticker_stopped) = Acceptor::bind("127.0.0.1:0", core).unwrap();
        let mut first = connect(&mut acceptor);
        let mut extra = connect(&mut acceptor);
        extra
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        assert_eq!(read_frame(&mut extra), Err(WireError::Disconnected));
        assert_eq!(acceptor.workers.len(), 1);
        write_frame(&mut first, &Message::Hello { client: 1 }).unwrap();
        assert!(matches!(
            read_frame(&mut first),
            Ok(Message::Welcome { .. })
        ));
        // Once the first connection closes, its slot serves the next one.
        drop(first);
        let patience = Deadline::starting_now(Duration::from_secs(5));
        while !acceptor.workers[0].is_finished() {
            assert!(!patience.expired(), "a closed connection kept its thread");
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut next = connect(&mut acceptor);
        assert_eq!(acceptor.workers.len(), 1);
        // The first session is still live and holds the session cap, so the
        // served connection asks for stats rather than a session.
        write_frame(&mut next, &Message::QueryStats).unwrap();
        assert!(matches!(read_frame(&mut next), Ok(Message::StatsIs { .. })));
    }

    #[test]
    fn shutdown_wakes_the_acceptor_and_the_ticker_without_another_client() {
        let (acceptor, ticker_stopped) = bound();
        let shared = acceptor.shared.clone();
        let ticker =
            std::thread::spawn(move || ticker_stopped.recv_timeout(Duration::from_secs(3600)));
        let mut client = TcpStream::connect(shared.local).unwrap();
        let serving = std::thread::spawn(move || acceptor.run());
        write_frame(&mut client, &Message::Shutdown).unwrap();
        assert_eq!(read_frame(&mut client), Ok(Message::ShutdownOk));
        // Both joins hang (and the test times out) if shutdown wakes nobody.
        serving.join().unwrap().unwrap();
        assert_eq!(ticker.join().unwrap(), Ok(()));
        assert!(shared.stop.load(Ordering::SeqCst));
    }

    #[test]
    fn a_poisoned_core_closes_the_connection_and_stops_the_service() {
        let mut acceptor = acceptor();
        let shared = acceptor.shared.clone();
        let poisoner = shared.clone();
        let panicked = std::thread::spawn(move || {
            let _core = poisoner.core.lock().unwrap();
            panic!("a handler panicked holding the core");
        })
        .join();
        assert!(panicked.is_err() && shared.core.is_poisoned());
        let mut client = connect(&mut acceptor);
        client
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        write_frame(&mut client, &Message::Hello { client: 1 }).unwrap();
        // No reply: the connection closes, after the stop signal is raised.
        assert!(read_frame(&mut client).is_err());
        assert!(shared.stop.load(Ordering::SeqCst));
    }
}
