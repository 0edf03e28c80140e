//! `srv-model`: the shipped `fedco-serve` binary over TCP loopback, one
//! closed-loop client pulling and pushing a LeNet-5-sized model. Closed loop
//! because a device waits for its reply before it trains again.

use std::hint::black_box;
use std::io::{BufRead, BufReader, Read};
use std::process::{ChildStdout, Command, Stdio};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use fedco_fl::aggregation::AsyncUpdateRule;
use fedco_fl::server::ParameterServer;
use fedco_neural::model::ParamVector;
use fedco_server::{
    ChannelTransport, Message, ServerCore, ServerCoreConfig, SessionConfig, TcpTransport,
    Transport, WireUpdate,
};
use fedco_telemetry::profiling::Stopwatch;

use super::{seconds_per_call, Cx, PassOutcome, Size};
use crate::proc::{peak_rss_mib, Reaped};
use crate::stats::{median, Digest};

/// LeNet-5's parameter count: a 248 KB frame each way.
const LENET5_PARAMS: usize = 62_006;

/// A heartbeat timeout (in 25 ms ticks) no run can reach, so no session
/// expires under the client.
const NEVER_EXPIRE_TICKS: u64 = 1_000_000_000;

/// How long after the server printed its address the client connects.
const CONNECT_PAUSE: Duration = Duration::from_millis(2);

/// Socket timeout of the client.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

fn model_len(size: Size) -> usize {
    size.pick(LENET5_PARAMS, 512)
}

/// A spawned `fedco-serve`, its address, and its stdout (kept open: the
/// server prints a summary on shutdown and must not hit a closed pipe).
struct Server {
    child: Reaped,
    addr: String,
    stdout: BufReader<ChildStdout>,
}

fn spawn_server(cx: &Cx<'_>) -> Result<Server, String> {
    let binary = cx.dirs.binary("fedco-serve")?;
    let mut child = Command::new(binary)
        .args(["--listen", "127.0.0.1:0", "--queue", "0"])
        .args(["--model-len", &model_len(cx.size).to_string()])
        .args(["--heartbeat-timeout", &NEVER_EXPIRE_TICKS.to_string()])
        .args(["--max-sessions", "64"])
        .args(["--seed", &cx.seed.max(1).to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn fedco-serve: {e}"))?;
    let stdout = child.stdout.take();
    let child = Reaped(child);
    let mut stdout = BufReader::new(stdout.ok_or("fedco-serve: no stdout pipe")?);
    let mut line = String::new();
    stdout
        .read_line(&mut line)
        .map_err(|e| format!("fedco-serve stdout: {e}"))?;
    let addr = line
        .trim()
        .strip_prefix("listening=")
        .ok_or_else(|| {
            format!(
                "fedco-serve: expected `listening=ADDR`, got `{}`",
                line.trim()
            )
        })?
        .to_string();
    Ok(Server {
        child,
        addr,
        stdout,
    })
}

impl Server {
    /// In-protocol shutdown, then waits for the process to exit cleanly.
    fn shutdown(mut self, client: &mut Client<TcpTransport>) -> Result<(), String> {
        match client.transport.request(&Message::Shutdown) {
            Ok(Message::ShutdownOk) => {}
            other => return Err(format!("Shutdown answered with {other:?}")),
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        self.child.wait_success()
    }
}

/// The update a device pushes after a 32-example local epoch.
pub fn wire_update(client: u64, base_version: u64, params: Vec<f32>) -> WireUpdate {
    WireUpdate {
        client,
        base_version,
        num_samples: 32,
        train_loss_bits: 1.0f32.to_bits(),
        train_accuracy_bits: 0.5f32.to_bits(),
        params,
    }
}

/// One device: a transport, its session, and the model it last pulled.
struct Client<T: Transport> {
    transport: T,
    session: u64,
    id: u64,
    /// First parameter of the model last pushed; the next pull must return
    /// it, which proves the server applied the push.
    expect_head: Option<f32>,
}

/// What one pull+push cycle observed.
struct Cycle {
    ms: f64,
    version: u64,
    lag: u64,
    ok: bool,
}

impl<T: Transport> Client<T> {
    fn join(mut transport: T, id: u64, expect_len: usize) -> Result<Self, String> {
        match transport.request(&Message::Hello { client: id }) {
            Ok(Message::Welcome {
                session, model_len, ..
            }) if model_len as usize == expect_len => Ok(Client {
                transport,
                session,
                id,
                expect_head: None,
            }),
            other => Err(format!("Hello answered with {other:?}")),
        }
    }

    /// Pulls the model, stamps it, pushes it back. A wire error ends the
    /// pass; an unexpected reply or a lost push marks the cycle failed.
    fn cycle(&mut self, stamp: f32) -> Result<Cycle, String> {
        let watch = Stopwatch::start();
        let pulled = self
            .transport
            .request(&Message::PullModel {
                session: self.session,
            })
            .map_err(|e| format!("PullModel: {e}"))?;
        let Message::Model {
            version,
            mut params,
        } = pulled
        else {
            return Ok(Cycle::failed(watch.elapsed_ms()));
        };
        let head_ok = match (self.expect_head, params.first()) {
            (Some(expected), Some(head)) => expected.to_bits() == head.to_bits(),
            _ => true,
        };
        if let Some(head) = params.first_mut() {
            *head = stamp;
        }
        let pushed = self
            .transport
            .request(&Message::PushUpdate {
                session: self.session,
                update: wire_update(self.id, version, params),
            })
            .map_err(|e| format!("PushUpdate: {e}"))?;
        let ms = watch.elapsed_ms();
        let Message::PushApplied {
            lag,
            version: after,
        } = pushed
        else {
            return Ok(Cycle::failed(ms));
        };
        self.expect_head = Some(stamp);
        Ok(Cycle {
            ms,
            version: after,
            lag,
            ok: head_ok && after > version,
        })
    }
}

impl Cycle {
    fn failed(ms: f64) -> Cycle {
        Cycle {
            ms,
            version: 0,
            lag: 0,
            ok: false,
        }
    }
}

/// One pass: spawn the server, join, run the cycles, shut down.
pub fn pass(cx: &mut Cx<'_>) -> Result<PassOutcome, String> {
    let cycles = cx.size.pick(750u32, 20);
    let open = cx.tracer.enter("pass");

    let spawn = cx.tracer.enter("server.spawn");
    let server = spawn_server(cx);
    let spawn_s = cx.tracer.exit(spawn);
    let server = server?;

    // The server polls `accept` every 20 ms. A client that connects the
    // instant the address is printed races the server's first poll and waits
    // either 0 or 20 ms, a coin toss that would make `setup_s` bimodal. A
    // real client (it has to read the address first) never wins that race, so
    // the pause makes losing it the rule; it counts as set-up time.
    let join = cx.tracer.enter("server.connect_hello");
    std::thread::sleep(CONNECT_PAUSE);
    let client = TcpTransport::connect(&server.addr, IO_TIMEOUT)
        .map_err(|e| format!("connect {}: {e}", server.addr))
        .and_then(|t| Client::join(t, cx.seed, model_len(cx.size)));
    let join_s = cx.tracer.exit(join);
    let mut client = client?;

    let run = cx.tracer.enter("server.cycles");
    let mut digest = Digest::default();
    let mut failed = 0u64;
    for i in 0..cycles {
        let cycle = client.cycle(i as f32 + 1.0)?;
        cx.samples.push("cycle_p50_ms", cycle.ms);
        digest.word(cycle.version);
        digest.word(cycle.lag);
        failed += u64::from(!cycle.ok);
    }
    cx.tracer.exit(run);

    let child_peak_rss_mib = peak_rss_mib(Some(server.child.pid()));
    let stop = cx.tracer.enter("server.shutdown");
    let stopped = server.shutdown(&mut client);
    cx.tracer.exit(stop);
    let wall_s = cx.tracer.exit(open);
    stopped?;

    Ok(PassOutcome {
        wall_s,
        setup_s: spawn_s + join_s,
        ops: u64::from(cycles),
        ops_failed: failed,
        digest: digest.value(),
        child_peak_rss_mib,
    })
}

fn push_message(session: u64, len: usize) -> Message {
    Message::PushUpdate {
        session,
        update: wire_update(1, 0, (0..len).map(|i| i as f32 * 1e-3).collect()),
    }
}

fn inline_core(len: usize) -> ServerCore {
    ServerCore::new(ServerCoreConfig {
        session: SessionConfig {
            heartbeat_timeout_ticks: NEVER_EXPIRE_TICKS,
            max_sessions: 64,
        },
        ..ServerCoreConfig::inline_with_model(ParamVector::zeros(len))
    })
}

/// Fixed-input probes of the data plane, layer by layer below the socket:
/// model download, codec, core handlers, the same cycle over the in-process
/// channel, and two connections contending for the one core.
pub fn probes(cx: &mut Cx<'_>) -> Result<(), String> {
    let len = model_len(cx.size);
    let iters = cx.size.pick(100u32, 10);

    // fl: what a PullModel costs below the wire — cloning the model out of
    // the parameter server under its mutex.
    let server = ParameterServer::new(ParamVector::zeros(len), AsyncUpdateRule::Replace, 0.05, 0.9);
    let download_s = seconds_per_call(iters, 7, || {
        black_box(server.download());
    });
    cx.samples.push("fl.server.download_us", download_s * 1e6);

    // codec: both big frames, both directions.
    let push = push_message(1, len);
    let model = Message::Model {
        version: 1,
        params: vec![0.25; len],
    };
    let push_frame = push.to_frame();
    let model_frame = model.to_frame();
    let mut undecodable = 0u32;
    let encode_push_s = seconds_per_call(iters, 7, || {
        black_box(black_box(&push).to_frame());
    });
    let decode_push_s = seconds_per_call(iters, 7, || {
        undecodable += u32::from(Message::from_frame(black_box(&push_frame)).is_err());
    });
    let encode_model_s = seconds_per_call(iters, 7, || {
        black_box(black_box(&model).to_frame());
    });
    let decode_model_s = seconds_per_call(iters, 7, || {
        undecodable += u32::from(Message::from_frame(black_box(&model_frame)).is_err());
    });
    if undecodable > 0 {
        return Err("codec probe: a frame the codec wrote did not decode".to_string());
    }
    let s = &mut *cx.samples;
    s.push("server.codec.encode_push_us", encode_push_s * 1e6);
    s.push("server.codec.decode_push_us", decode_push_s * 1e6);
    s.push("server.codec.encode_model_us", encode_model_s * 1e6);
    s.push("server.codec.decode_model_us", decode_model_s * 1e6);
    s.push("server.codec.push_frame_bytes", push_frame.len() as f64);

    // core: the handlers on decoded messages. `handle` takes the message by
    // value, so each timed batch is cloned before its clock starts.
    let mut core = inline_core(len);
    let Message::Welcome { session, .. } = core.handle(Message::Hello { client: 1 }) else {
        return Err("core probe: Hello was not welcomed".to_string());
    };
    let pull_s = seconds_per_call(iters, 7, || {
        black_box(core.handle(Message::PullModel { session }));
    });
    let push = push_message(session, len);
    let batch = cx.size.pick(32usize, 4);
    let per_push: Vec<f64> = (0..7)
        .map(|_| {
            let messages = vec![push.clone(); batch];
            let watch = Stopwatch::start();
            for message in messages {
                black_box(core.handle(message));
            }
            watch.elapsed_s() / batch as f64
        })
        .collect();
    cx.samples.push("server.core.handle_pull_us", pull_s * 1e6);
    cx.samples
        .push("server.core.handle_push_us", median(&per_push) * 1e6);

    // channel: the pass's own cycle, minus the socket and the second thread.
    let channel = ChannelTransport::new(Arc::new(Mutex::new(inline_core(len))));
    let mut client = Client::join(channel, 1, len)?;
    let mut cycle_ms = Vec::new();
    for i in 0..cx.size.pick(300u32, 10) {
        let cycle = client.cycle(i as f32 + 1.0)?;
        if !cycle.ok {
            return Err("channel probe: a cycle failed".to_string());
        }
        cycle_ms.push(cycle.ms);
    }
    cx.samples
        .push("server.channel.cycle_us", median(&cycle_ms) * 1e3);

    probe_two_connections(cx)
}

/// `server`: two closed-loop connections at once — contention for the one
/// core mutex (informational on a 2-core box, where the clients and the
/// server's two connection threads share the cores).
fn probe_two_connections(cx: &mut Cx<'_>) -> Result<(), String> {
    let open = cx.tracer.enter("server.tcp.two_connections");
    let server = spawn_server(cx)?;
    let len = model_len(cx.size);
    let cycles = cx.size.pick(300u32, 10);
    let barrier = Barrier::new(2);
    let run = |id: u64| -> Result<(Client<TcpTransport>, Vec<f64>), String> {
        let client = TcpTransport::connect(&server.addr, IO_TIMEOUT)
            .map_err(|e| format!("connect {}: {e}", server.addr))
            .and_then(|t| Client::join(t, id, len));
        // Both sides reach the barrier even when joining failed.
        barrier.wait();
        let mut client = client?;
        let mut cycle_ms = Vec::new();
        for i in 0..cycles {
            // The other connection overwrites the model between this one's
            // push and its next pull, so the lost-push check does not apply.
            client.expect_head = None;
            cycle_ms.push(client.cycle(i as f32 + 1.0)?.ms);
        }
        Ok((client, cycle_ms))
    };
    let (first, second) = std::thread::scope(|scope| {
        let other = scope.spawn(|| run(2));
        let first = run(1);
        let second = other
            .join()
            .unwrap_or_else(|_| Err("second connection panicked".to_string()));
        (first, second)
    });
    let (mut client, mut cycle_ms) = first?;
    let (second_client, second_ms) = second?;
    drop(second_client);
    cycle_ms.extend(second_ms);
    server.shutdown(&mut client)?;
    cx.tracer.exit(open);
    cx.samples
        .push("server.tcp.cycle_2conn_us", median(&cycle_ms) * 1e3);
    Ok(())
}
