//! `net-open`: the transport path. A loopback `NetServer` over a memory
//! backend with checkpoints off, so wire, server barrier, supervisor
//! batching and shard apply do all the work and storage does none.
//!
//! Each session starts a fresh server, registers the tenants, then runs
//! phase A (saturated: at most `MAX_INFLIGHT` epochs in flight, giving
//! `jobs_per_s`) and phase B (a true open loop at `RATE_B` epochs/s whose
//! ack latency counts from each epoch's due time). One sender thread
//! encodes `SubmitBatch` + `Tick` with `wire::encode_message_into`; one
//! receiver thread decodes the acks.

use crate::gen::{check, Inputs};
use crate::probes::Layers;
use crate::trace::Tracer;
use crate::{Opts, Recorded, Run, SHARDS};
use rrs_core::RunResult;
use rrs_service::net::wire::{encode_message_into, MsgStream, Request, Response, PROTO_VERSION};
use rrs_service::{
    Codec, FaultPlan, IngestMode, MemoryBackend, NetServer, RetryPolicy, Supervisor,
    SupervisorConfig,
};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub const TENANTS: u64 = 64;
pub const PARTS: u64 = 4;
const PHASE_A: usize = 512;
/// Short enough for about 35 sessions in a run: sessions differ by up to
/// a half as each places fresh server threads on the cores, so the number
/// of sessions, more than their length, steadies the run's average.
const PHASE_B: usize = 256;
const MAX_INFLIGHT: usize = 8;
/// Phase B's fixed rate in epochs per second: about a seventh of the
/// saturated phase-A rate measured when the benchmark was introduced (2
/// vCPU container), frozen so both sides of a comparison offer the same
/// load. At 1800 and even 900 epochs/s, the capacity swings of a shared
/// machine pushed the open loop close enough to saturation that its p90
/// doubled in some runs.
const RATE_B: f64 = 500.0;
/// How long before an epoch's due time the open-loop sender stops
/// sleeping and starts yielding.
const SPIN: Duration = Duration::from_micros(150);

/// The supervisor `rrs serve` would run for this workload: batched
/// ingest, no checkpoints.
pub fn config(checkpoint_every: u64) -> SupervisorConfig {
    SupervisorConfig {
        shards: SHARDS,
        queue_capacity: 64,
        checkpoint_every,
        retry: RetryPolicy::default(),
        shed: Default::default(),
        ingest: IngestMode::Batched,
    }
}

/// A fresh in-process service over memory with checkpoints off: what
/// `net-open`'s server runs, and the probes' in-process baseline.
pub fn memory_service() -> Result<Supervisor, String> {
    Supervisor::with_storage(
        config(0),
        &FaultPlan::none(),
        Box::new(MemoryBackend::new()),
    )
    .map_err(|e| format!("supervisor: {e}"))
}

/// Timestamps the sender takes for one epoch.
struct Sent {
    due: Option<Instant>,
    encode: Instant,
    encoded: Instant,
    sent: Instant,
}

/// A connected client: reader half plus a write handle on the same socket.
pub struct Client {
    pub msgs: MsgStream,
    pub out: TcpStream,
}

impl Client {
    /// Dials the server, greets it and registers every tenant.
    pub fn connect(server: &NetServer, inputs: &Inputs) -> Result<Client, String> {
        let stream = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let out = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let mut msgs = MsgStream::new(stream).map_err(|e| e.to_string())?;
        let mut call = |req: &Request| -> Result<Response, String> {
            msgs.send(req, false).map_err(|e| e.to_string())?;
            msgs.recv().map_err(|e| e.to_string())
        };
        match call(&Request::Hello {
            proto: PROTO_VERSION,
            client: 1,
        })? {
            Response::Hello { .. } => {}
            other => return Err(format!("hello answered {other:?}")),
        }
        for (id, spec) in inputs.specs.iter().enumerate() {
            match call(&Request::AddTenant {
                id: id as u64,
                spec: spec.clone(),
            })? {
                Response::Ok => {}
                other => return Err(format!("add_tenant answered {other:?}")),
            }
        }
        Ok(Client { msgs, out })
    }

    /// Ends the run and returns every tenant's result.
    pub fn finish(&mut self) -> Result<BTreeMap<u64, RunResult>, String> {
        self.msgs
            .send(&Request::Finish, false)
            .map_err(|e| e.to_string())?;
        match self.msgs.recv().map_err(|e| e.to_string())? {
            Response::Results { results } => Ok(results.into_iter().collect()),
            other => Err(format!("finish answered {other:?}")),
        }
    }
}

/// Reads one epoch's `Queued` + `TickAck`.
pub fn read_ack(msgs: &mut MsgStream, epoch: u64) -> Result<(), String> {
    for _ in 0..2 {
        match msgs.recv::<Response>().map_err(|e| e.to_string())? {
            Response::Queued { epoch: e, .. } | Response::TickAck { epoch: e, .. }
                if e == epoch => {}
            other => return Err(format!("epoch {epoch} answered {other:?}")),
        }
    }
    Ok(())
}

/// Appends one epoch's `SubmitBatch` + `Tick` frames to `frame`.
pub fn encode_epoch(
    req: &Request,
    epoch: u64,
    body: &mut Vec<u8>,
    frame: &mut Vec<u8>,
) -> Result<(), String> {
    encode_message_into(req, Codec::Binary, false, body, frame).map_err(|e| e.to_string())?;
    encode_message_into(
        &Request::Tick { epoch, parties: 1 },
        Codec::Binary,
        false,
        body,
        frame,
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

pub fn run(opts: &Opts, tracer: &mut Tracer, run: &mut Run) -> Result<Recorded, String> {
    let (a, b, rate) = if opts.smoke {
        (32, 32, 2000.0)
    } else {
        (PHASE_A, PHASE_B, RATE_B)
    };
    let inputs = Inputs::service(opts.seed, TENANTS, PARTS, a + b);
    let oracle = inputs.oracle(a + b)?;
    let requests: Vec<Request> = inputs
        .epochs
        .iter()
        .enumerate()
        .map(|(i, e)| Request::SubmitBatch {
            epoch: i as u64 + 1,
            entries: e.clone(),
        })
        .collect();
    let load = Load {
        inputs: &inputs,
        requests: &requests,
        oracle: &oracle,
        a,
        rate,
    };
    run.warm_up(|warm| load.session(false, tracer, warm))?;
    let started = Instant::now();
    let mut i = 0;
    while opts.again(started, i, 2) {
        load.session(opts.traced_session(i), tracer, run)?;
        i += 1;
    }
    run.note(format!(
        "net-open: {i} sessions of {a} saturated + {b} open-loop epochs at {rate} epochs/s"
    ));
    // Probes stop short of a checkpoint boundary so recovery replays a WAL suffix.
    Ok(Recorded {
        inputs,
        epochs: a + b - 16,
        recovery_dir: None,
    })
}

/// One session's fixed load: the requests, their oracle, the saturated
/// phase's length and the open-loop rate.
struct Load<'a> {
    inputs: &'a Inputs,
    requests: &'a [Request],
    oracle: &'a BTreeMap<u64, RunResult>,
    a: usize,
    rate: f64,
}

impl Load<'_> {
    fn session(&self, traced: bool, tracer: &mut Tracer, run: &mut Run) -> Result<(), String> {
        let Load {
            inputs,
            requests,
            oracle,
            a,
            rate,
        } = *self;
        let total = requests.len();
        let t0 = Instant::now();
        let sup = memory_service()?;
        let mut server =
            NetServer::start(sup, "127.0.0.1:0").map_err(|e| format!("server: {e}"))?;
        let client = Client::connect(&server, inputs)?;
        run.setup_s.push(t0.elapsed().as_secs_f64());

        let Client { mut msgs, mut out } = client;
        let (credit_tx, credit_rx) = mpsc::channel::<()>();
        let (sent, send_err, joined) = std::thread::scope(|s| {
            let receiver = s.spawn(move || {
                let mut acks = Vec::with_capacity(total);
                for epoch in 1..=total as u64 {
                    if let Err(e) = read_ack(&mut msgs, epoch) {
                        return (acks, Some(e), msgs);
                    }
                    acks.push(Instant::now());
                    let _ = credit_tx.send(());
                }
                (acks, None, msgs)
            });
            let (sent, send_err) = send_all(requests, a, rate, traced, &mut out, &credit_rx);
            if send_err.is_some() {
                // Unblock the receiver: no more acks are coming.
                let _ = out.shutdown(std::net::Shutdown::Both);
            }
            (sent, send_err, receiver.join())
        });
        let Ok((acks, recv_err, msgs)) = joined else {
            server.shutdown();
            return Err("net-open receiver panicked".into());
        };

        run.attempted += total as u64;
        run.failed += (total - acks.len()) as u64;
        if let Some(e) = send_err.or(recv_err) {
            run.errors.push(format!("net-open session: {e}"));
            server.shutdown();
            return Ok(());
        }
        let jobs_a = Inputs::jobs(&inputs.epochs[..a]) as f64;
        let jobs_per_s = jobs_a / acks[a - 1].duration_since(sent[0].encode).as_secs_f64();
        if traced {
            run.traced_jobs_per_s.push(jobs_per_s)
        } else {
            run.jobs_per_s.push(jobs_per_s)
        }
        let from = run.latency_ns.len();
        for (i, (s, &ack)) in sent.iter().zip(&acks).enumerate() {
            let start = s.due.unwrap_or(s.encode);
            if let Some(due) = s.due {
                run.latency_ns
                    .push(ack.duration_since(due).as_nanos() as f64);
                run.lateness_ns
                    .push(s.encode.saturating_duration_since(due).as_nanos() as f64);
            }
            if traced {
                let epoch = i as u64 + 1;
                let root = tracer.span("epoch", start, ack, None, epoch);
                if s.due.is_some() {
                    tracer.span("loadgen.wait", start, s.encode, root, epoch);
                }
                tracer.span("wire.encode", s.encode, s.encoded, root, epoch);
                tracer.span("net.send", s.encoded, s.sent, root, epoch);
                tracer.span("net.server_rtt", s.sent, ack, root, epoch);
            }
        }
        run.close_session(from);
        let mut client = Client { msgs, out };
        let results = client.finish();
        drop(client);
        server.shutdown();
        if let Err(e) = results.and_then(|r| check("net-open", &r, oracle)) {
            run.errors.push(e);
        }
        Ok(())
    }
}

/// The sender: phase A keeps at most `MAX_INFLIGHT` epochs unacknowledged;
/// phase B sends epoch `k` at `start + k / rate` whatever the acks do.
fn send_all(
    requests: &[Request],
    a: usize,
    rate: f64,
    traced: bool,
    out: &mut TcpStream,
    credits: &mpsc::Receiver<()>,
) -> (Vec<Sent>, Option<String>) {
    let mut sent = Vec::with_capacity(requests.len());
    let (mut body, mut frame) = (Vec::new(), Vec::new());
    let mut inflight = 0usize;
    let mut b_start = Instant::now();
    for (i, req) in requests.iter().enumerate() {
        while credits.try_recv().is_ok() {
            inflight = inflight.saturating_sub(1);
        }
        if i == a {
            // Drain phase A so the open loop starts on an idle server.
            while inflight > 0 && credits.recv().is_ok() {
                inflight -= 1;
            }
            b_start = Instant::now() + Duration::from_millis(1);
        }
        let due = (i >= a).then(|| b_start + Duration::from_secs_f64((i - a) as f64 / rate));
        match due {
            Some(due) => {
                // Sleeping overshoots by the timer slack (~50 us), so sleep
                // to just short of the due time and yield the rest.
                let now = Instant::now();
                if due > now + SPIN {
                    std::thread::sleep(due - now - SPIN);
                }
                while Instant::now() < due {
                    std::thread::yield_now();
                }
            }
            None => {
                while inflight >= MAX_INFLIGHT {
                    if credits.recv().is_err() {
                        return (sent, Some("receiver stopped".into()));
                    }
                    inflight -= 1;
                }
            }
        }
        let encode = Instant::now();
        frame.clear();
        if let Err(e) = encode_epoch(req, i as u64 + 1, &mut body, &mut frame) {
            return (sent, Some(e));
        }
        let encoded = if traced { Instant::now() } else { encode };
        if let Err(e) = out.write_all(&frame) {
            return (sent, Some(format!("send: {e}")));
        }
        let done = if traced { Instant::now() } else { encoded };
        sent.push(Sent {
            due,
            encode,
            encoded,
            sent: done,
        });
        inflight += 1;
    }
    (sent, None)
}

/// Phase-B epoch latency split into the sender's own spans and the
/// server-side work the probes replay in-process.
pub fn budget(tracer: &Tracer, run: &Run, layers: &Layers) -> (f64, Vec<(String, f64)>) {
    let total = crate::stats::mean(&run.latency_ns).unwrap_or(0.0);
    let late = crate::stats::mean(&run.lateness_ns).unwrap_or(0.0);
    (
        total,
        vec![
            ("loadgen.wait (generator lateness)".into(), late),
            ("wire.encode (client)".into(), tracer.mean("wire.encode")),
            ("net.send (client write)".into(), tracer.mean("net.send")),
            (
                "wire.decode (server, probe)".into(),
                layers.mean("wire.decode_us"),
            ),
            (
                "supervisor submit+tick (probe)".into(),
                layers.mean("supervisor.epoch"),
            ),
        ],
    )
}
