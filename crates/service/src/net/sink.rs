//! Client-side batching sink: buffers submits per tick epoch, frames them,
//! pipelines epochs without waiting for acks, and survives connection loss
//! by replaying unacknowledged frames.
//!
//! The sink mirrors the in-process [`crate::Supervisor`] submit path on
//! the wire: everything submitted between two `tick()` calls rides one
//! `SubmitBatch` frame, sent back-to-back with the `Tick` frame in a
//! single socket write — so one client epoch is one socket batch is one
//! WAL group commit on the server. Every frame is the WAL's own binary
//! frame ([`super::wire`]); there is no codec or compression to configure.
//!
//! ## Pipelining and the ack window
//!
//! `tick()` does not wait for the server. It records the epoch as
//! *in flight* (keeping the encoded frames for possible replay) and only
//! drains acks once more than `max_inflight` epochs are outstanding.
//! Because the server answers every request in order, draining is just
//! reading responses in the order the epochs were sent.
//!
//! ## Reconnects
//!
//! Any socket error flips the sink into recovery: it redials with the
//! seeded-jittered [`RetryPolicy`] backoff schedule (the exact policy the
//! supervisor uses for shard commands — no ad-hoc sleeps), re-greets, and
//! resends every in-flight epoch's frames. The server deduplicates
//! re-submitted batches and replays recorded ticks, so the WAL sees each
//! epoch exactly once no matter where the connection died.

use super::wire::{encode_message_into, MsgStream, Request, Response, PROTO_VERSION};
use crate::error::{ServiceError, ServiceResult};
use crate::storage::frame::Codec;
use crate::shard::{ShardSnapshot, TenantId};
use crate::supervisor::RetryPolicy;
use crate::stats::{LatencyHistogramNs, ServiceStats};
use crate::tenant::TenantSpec;
use rrs_core::{ColorId, RunResult};
use std::collections::{BTreeMap, VecDeque};
use std::net::TcpStream;
use std::time::Instant;

/// Tuning for a [`NetSink`].
#[derive(Debug, Clone)]
pub struct SinkConfig {
    /// Reconnect/retry policy (attempts, per-op timeout, backoff base).
    /// Also sets the socket read/write timeouts.
    pub retry: RetryPolicy,
    /// Seed for the jittered backoff schedule: same seed, same schedule.
    pub seed: u64,
    /// Barrier width stamped on every `Tick` (concurrent driving clients).
    pub parties: u32,
    /// Epochs allowed in flight before `tick()` drains an ack.
    pub max_inflight: usize,
}

impl Default for SinkConfig {
    fn default() -> Self {
        SinkConfig {
            retry: RetryPolicy::default(),
            seed: 0,
            parties: 1,
            max_inflight: 8,
        }
    }
}

/// Wire-level counters for one sink.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetCounters {
    /// Bytes written to the socket.
    pub bytes_sent: u64,
    /// Bytes read from the socket.
    pub bytes_received: u64,
    /// Frames written (submit batches, ticks, and control requests).
    pub frames_sent: u64,
    /// Successful reconnects after a connection loss.
    pub reconnects: u64,
    /// Jobs carried by submitted batches.
    pub jobs_submitted: u64,
    /// Epochs acknowledged durable + applied.
    pub epochs_acked: u64,
    /// Serialized body bytes sent (framing excluded).
    pub body_bytes_sent: u64,
    /// Body bytes received (framing excluded).
    pub body_bytes_received: u64,
}

/// One unacknowledged epoch: its encoded frames (for replay) and what
/// responses it still owes us.
#[derive(Debug)]
struct InFlight {
    epoch: u64,
    /// The epoch carried a `SubmitBatch`, so a `Queued` precedes its ack.
    expects_queued: bool,
    /// The `Queued` has been consumed (reset on reconnect: the replayed
    /// frames produce a fresh one).
    queued_received: bool,
    /// Encoded `SubmitBatch` + `Tick` frames, ready to resend verbatim.
    frames: Vec<u8>,
    sent_at: Instant,
}

/// The deterministic redial schedule for `policy` under `seed`: one sleep
/// per retry attempt after the first failure. Exposed so tests (and
/// operators) can see exactly how a client will back off.
pub fn reconnect_schedule(policy: &RetryPolicy, seed: u64) -> Vec<std::time::Duration> {
    (1..policy.attempts).map(|attempt| policy.backoff_for(attempt, seed)).collect()
}

/// A connected client for one `rrs serve` endpoint.
pub struct NetSink {
    addr: String,
    config: SinkConfig,
    client_id: u64,
    msgs: MsgStream,
    /// Shard count learned from the server's `Hello`.
    shards: usize,
    /// Submits buffered for the next `tick()`.
    pending: Vec<(TenantId, Vec<(ColorId, u64)>)>,
    pending_jobs: u64,
    /// Epochs sent but not yet fully acknowledged, oldest first.
    inflight: VecDeque<InFlight>,
    /// Next epoch `tick()` will stamp (first epoch is 1).
    next_epoch: u64,
    /// Per-shard seqs from the most recent `TickAck`.
    last_seqs: Vec<u64>,
    /// Ack round-trip latencies (send of the epoch's frames → its ack).
    ack_latency: LatencyHistogramNs,
    counters: NetCounters,
    /// Body bytes encoded by `tick()` (its frames bypass `MsgStream::send`,
    /// so the stream's own counter never sees them).
    tick_body_bytes: u64,
}

impl NetSink {
    /// Dials `addr`, greets the server, and returns a ready sink.
    /// `client_id` must be unique among concurrently driving clients: the
    /// server uses it to deduplicate resent batches.
    pub fn connect(addr: &str, client_id: u64, config: SinkConfig) -> ServiceResult<NetSink> {
        let msgs = dial(addr, client_id, &config)?;
        let mut sink = NetSink {
            addr: addr.to_string(),
            config,
            client_id,
            msgs,
            shards: 0,
            pending: Vec::new(),
            pending_jobs: 0,
            inflight: VecDeque::new(),
            next_epoch: 1,
            last_seqs: Vec::new(),
            ack_latency: LatencyHistogramNs::new(),
            counters: NetCounters::default(),
            tick_body_bytes: 0,
        };
        let resp: Response = sink.msgs.recv()?;
        match resp {
            Response::Hello { proto: _, shards } => sink.shards = shards,
            other => return Err(unexpected("hello", &other)),
        }
        sink.sync_byte_counters();
        Ok(sink)
    }

    /// Shard count reported by the server.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Wire counters so far.
    pub fn counters(&self) -> NetCounters {
        self.counters
    }

    /// Ack round-trip latency histogram (one sample per acked epoch).
    pub fn ack_latency(&self) -> &LatencyHistogramNs {
        &self.ack_latency
    }

    /// Per-shard durable seqs from the most recent tick ack (`seq = WAL
    /// offset + 1`): everything this client submitted up to that tick is
    /// on disk and applied.
    pub fn last_seqs(&self) -> &[u64] {
        &self.last_seqs
    }

    /// Registers a tenant (synchronous round-trip; do this before driving).
    pub fn add_tenant(&mut self, id: TenantId, spec: TenantSpec) -> ServiceResult<()> {
        match self.round_trip(&Request::AddTenant { id, spec })? {
            Response::Ok => Ok(()),
            Response::Err { message } => Err(ServiceError::Net(message)),
            other => Err(unexpected("add_tenant", &other)),
        }
    }

    /// Buffers arrivals for `tenant` into the current epoch's batch.
    /// Nothing touches the socket until [`NetSink::tick`].
    pub fn submit(&mut self, tenant: TenantId, arrivals: Vec<(ColorId, u64)>) {
        self.pending_jobs += arrivals.iter().map(|(_, n)| *n).sum::<u64>();
        self.pending.push((tenant, arrivals));
    }

    /// Ships the buffered batch and a tick request for the next epoch in
    /// one socket write, then returns without waiting for the ack unless
    /// the pipeline is full.
    pub fn tick(&mut self) -> ServiceResult<()> {
        let epoch = self.next_epoch;
        let entries = std::mem::take(&mut self.pending);
        let jobs = std::mem::take(&mut self.pending_jobs);
        let expects_queued = !entries.is_empty();
        let mut frames = Vec::new();
        let encode = |req: &Request, frames: &mut Vec<u8>| {
            encode_message_into(req, Codec::Binary, false, &mut Vec::new(), frames)
        };
        if expects_queued {
            let batch = Request::SubmitBatch { epoch, entries };
            self.tick_body_bytes += encode(&batch, &mut frames)? as u64;
            self.counters.frames_sent += 1;
        }
        let tick = Request::Tick { epoch, parties: self.config.parties };
        self.tick_body_bytes += encode(&tick, &mut frames)? as u64;
        self.counters.frames_sent += 1;
        self.counters.jobs_submitted += jobs;
        let inflight = InFlight {
            epoch,
            expects_queued,
            queued_received: false,
            frames,
            sent_at: Instant::now(),
        };
        if let Err(e) = self.msgs.send_bytes(&inflight.frames) {
            self.inflight.push_back(inflight);
            self.next_epoch += 1;
            self.recover(e)?;
        } else {
            self.inflight.push_back(inflight);
            self.next_epoch += 1;
        }
        self.sync_byte_counters();
        while self.inflight.len() > self.config.max_inflight {
            self.await_one_ack()?;
        }
        Ok(())
    }

    /// Blocks until every in-flight epoch is acknowledged.
    pub fn flush(&mut self) -> ServiceResult<()> {
        while !self.inflight.is_empty() {
            self.await_one_ack()?;
        }
        Ok(())
    }

    /// Fetches a stats report (flushes the pipeline first so the report
    /// reflects every acked epoch).
    pub fn stats(&mut self) -> ServiceResult<ServiceStats> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats { stats } => Ok(*stats),
            Response::Err { message } => Err(ServiceError::Net(message)),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Fetches one shard's snapshot (flushes first).
    pub fn snapshot_shard(&mut self, shard: usize) -> ServiceResult<ShardSnapshot> {
        match self.round_trip(&Request::Snapshot { shard })? {
            Response::Snapshot { snapshot } => Ok(*snapshot),
            Response::Err { message } => Err(ServiceError::Net(message)),
            other => Err(unexpected("snapshot", &other)),
        }
    }

    /// Finishes the run: flushes, asks the server to wind down the
    /// supervisor, and returns the final per-tenant results.
    pub fn finish(mut self) -> ServiceResult<BTreeMap<TenantId, RunResult>> {
        match self.round_trip(&Request::Finish)? {
            Response::Results { results } => Ok(results.into_iter().collect()),
            Response::Err { message } => Err(ServiceError::Net(message)),
            other => Err(unexpected("finish", &other)),
        }
    }

    /// Severs the TCP connection out from under the sink, as a network
    /// fault would. The next operation takes the reconnect path. Test
    /// hook for the conformance suite.
    #[doc(hidden)]
    pub fn sever_connection(&mut self) {
        let _ = self.msgs.stream().shutdown(std::net::Shutdown::Both);
    }

    /// Sends a synchronous request after draining the pipeline, retrying
    /// through reconnects.
    fn round_trip(&mut self, req: &Request) -> ServiceResult<Response> {
        self.flush()?;
        let mut last_err: Option<ServiceError> = None;
        for _ in 0..self.config.retry.attempts.max(1) {
            let attempt = (|| -> ServiceResult<Response> {
                self.msgs.send(req, false)?;
                self.counters.frames_sent += 1;
                self.msgs.recv()
            })();
            self.sync_byte_counters();
            match attempt {
                Ok(resp) => {
                    // A reconnect can resend AddTenant after the original
                    // landed; the duplicate error is then a success.
                    if self.counters.reconnects > 0 {
                        if let (Request::AddTenant { id, .. }, Response::Err { message }) =
                            (req, &resp)
                        {
                            if message.contains(&format!("tenant {id} already registered")) {
                                return Ok(Response::Ok);
                            }
                        }
                    }
                    return Ok(resp);
                }
                Err(e) => {
                    self.recover(e.clone()).map_err(|e| last_err.clone().unwrap_or(e))?;
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| ServiceError::Net("request retries exhausted".into())))
    }

    /// Consumes the oldest in-flight epoch's responses (its `Queued`, if
    /// any, then its `TickAck`), reconnecting and replaying on error.
    fn await_one_ack(&mut self) -> ServiceResult<()> {
        loop {
            let Some(front) = self.inflight.front() else { return Ok(()) };
            let needs_queued = front.expects_queued && !front.queued_received;
            match self.msgs.recv::<Response>() {
                Ok(resp) => {
                    self.sync_byte_counters();
                    if needs_queued {
                        match resp {
                            Response::Queued { .. } => {
                                if let Some(front) = self.inflight.front_mut() {
                                    front.queued_received = true;
                                }
                                continue;
                            }
                            Response::Err { message } => {
                                return Err(ServiceError::Net(message));
                            }
                            other => return Err(unexpected("queued", &other)),
                        }
                    }
                    match resp {
                        Response::TickAck { epoch, seqs } => {
                            let front = self
                                .inflight
                                .pop_front()
                                .expect("front checked above");
                            if epoch != front.epoch {
                                return Err(ServiceError::Net(format!(
                                    "ack for epoch {epoch}, expected {}",
                                    front.epoch
                                )));
                            }
                            let nanos = front.sent_at.elapsed().as_nanos();
                            self.ack_latency.record(nanos.min(u64::MAX as u128) as u64);
                            self.counters.epochs_acked += 1;
                            self.last_seqs = seqs;
                            return Ok(());
                        }
                        Response::Err { message } => {
                            return Err(ServiceError::Net(message));
                        }
                        other => return Err(unexpected("tick ack", &other)),
                    }
                }
                Err(e) => {
                    self.sync_byte_counters();
                    self.recover(e)?;
                }
            }
        }
    }

    /// Reconnects after `cause` and replays every in-flight epoch. The
    /// server's dedup makes the replay idempotent.
    fn recover(&mut self, cause: ServiceError) -> ServiceResult<()> {
        match dial(&self.addr, self.client_id, &self.config.clone()) {
            Ok(msgs) => {
                self.msgs = msgs;
                let resp: Response = self.msgs.recv().map_err(|_| cause.clone())?;
                match resp {
                    Response::Hello { .. } => {}
                    other => return Err(unexpected("hello", &other)),
                }
                self.counters.reconnects += 1;
                // Replay unacked epochs in order. Their `Queued`s come
                // back fresh, so reset the pairing state.
                let mut frames = Vec::new();
                for inflight in self.inflight.iter_mut() {
                    inflight.queued_received = false;
                    frames.extend_from_slice(&inflight.frames);
                }
                if !frames.is_empty() {
                    self.msgs.send_bytes(&frames)?;
                }
                self.sync_byte_counters();
                Ok(())
            }
            Err(_) => Err(cause),
        }
    }

    fn sync_byte_counters(&mut self) {
        self.counters.bytes_sent = self.msgs.bytes_sent;
        self.counters.bytes_received = self.msgs.bytes_received;
        self.counters.body_bytes_sent = self.msgs.body_bytes_sent + self.tick_body_bytes;
        self.counters.body_bytes_received = self.msgs.body_bytes_received;
    }
}

/// Dials with the policy's seeded backoff schedule, sends `Hello`, and
/// returns the stream (the `Hello` response is left for the caller).
fn dial(addr: &str, client_id: u64, config: &SinkConfig) -> ServiceResult<MsgStream> {
    let schedule = reconnect_schedule(&config.retry, config.seed);
    let mut delays = schedule.iter();
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream
                    .set_read_timeout(Some(config.retry.op_timeout.max(std::time::Duration::from_millis(1))))
                    .map_err(|e| ServiceError::Net(format!("set_read_timeout: {e}")))?;
                stream
                    .set_write_timeout(Some(config.retry.op_timeout.max(std::time::Duration::from_millis(1))))
                    .map_err(|e| ServiceError::Net(format!("set_write_timeout: {e}")))?;
                let mut msgs = MsgStream::new(stream)?;
                msgs.send(
                    &Request::Hello { proto: PROTO_VERSION, client: client_id },
                    false,
                )?;
                return Ok(msgs);
            }
            Err(e) => match delays.next() {
                Some(delay) => std::thread::sleep(*delay),
                None => return Err(ServiceError::Net(format!("connect {addr}: {e}"))),
            },
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ServiceError {
    ServiceError::Net(format!("expected {wanted} response, got {got:?}"))
}
