//! TCP front-end for the [`Supervisor`]: thread-per-connection request
//! handling over the shared tick barrier.
//!
//! The server owns the supervisor; every connection funnels into one
//! `Mutex<Core>`, so the supervisor keeps its single-threaded semantics
//! and the network run stays bit-identical to an in-process batched run.
//! That lock is not the bottleneck it looks like: submits only buffer
//! entries, and the heavy work under `tick()` is the same group-commit
//! the in-process path does.
//!
//! ## The tick barrier
//!
//! `Tick { epoch, parties }` is a barrier of width `parties`: the request
//! blocks until `parties` distinct ticks for that epoch have arrived, the
//! last arrival fires `Supervisor::tick()`, and every waiter receives the
//! same `TickAck { epoch, seqs }` where `seqs = wal_ends()` — the
//! per-shard `WAL offset + 1` frontier that PR-5's group commit and PR-8's
//! fsync ack barrier have already made durable *and* applied by the time
//! `tick()` returns. The ack a client gets over the socket is therefore
//! exactly the durability receipt the storage tier produces; nothing is
//! invented at the network layer.
//!
//! ## Exactly-once over reconnects
//!
//! Completed epochs keep their acks in a bounded window so a client that
//! lost the connection mid-epoch can resend: a duplicate `Tick` for a
//! completed epoch replays the recorded ack instead of re-ticking, and a
//! duplicate `SubmitBatch` (tracked per client id from `Hello`) is
//! acknowledged without re-applying. Submit-then-crash-then-resend thus
//! lands exactly once in the WAL.

use super::wire::{MsgStream, Request, Response, PROTO_VERSION};
use crate::error::{ServiceError, ServiceResult};
use crate::shard::TenantId;
use crate::supervisor::Supervisor;
use rrs_core::RunResult;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Completed-epoch acks retained for duplicate-tick replay. A reconnecting
/// client is at most `max_inflight` epochs behind, so a thousand is deep
/// margin.
const ACK_WINDOW: usize = 1024;

/// How long a tick waiter will sit in the barrier before giving up. Only
/// reached when a co-driving client dies for good.
const BARRIER_TIMEOUT: Duration = Duration::from_secs(30);

/// Supervisor state shared by every connection.
struct Core {
    /// `Some` until `Finish` consumes it.
    sup: Option<Supervisor>,
    shards: usize,
    /// Last completed tick epoch (0 before the first tick).
    epoch: u64,
    /// `Tick` arrivals for epoch `epoch + 1`.
    arrived: u32,
    /// Barrier width of the epoch being assembled (from its first arrival).
    parties: u32,
    /// Recent completed epochs: `(epoch, tick outcome)`.
    acks: VecDeque<(u64, Result<Vec<u64>, String>)>,
    /// Highest epoch each client has submitted for (dedup on resend).
    submitted: HashMap<u64, u64>,
    /// Set by `Finish`; replayed for idempotent repeats.
    results: Option<Vec<(TenantId, RunResult)>>,
}

impl Core {
    fn recorded_ack(&self, epoch: u64) -> Option<Response> {
        self.acks.iter().find(|(e, _)| *e == epoch).map(|(e, r)| match r {
            Ok(seqs) => Response::TickAck { epoch: *e, seqs: seqs.clone() },
            Err(msg) => Response::Err { message: msg.clone() },
        })
    }

    fn record_ack(&mut self, epoch: u64, outcome: Result<Vec<u64>, String>) {
        self.acks.push_back((epoch, outcome));
        while self.acks.len() > ACK_WINDOW {
            self.acks.pop_front();
        }
    }
}

struct Shared {
    core: Mutex<Core>,
    cv: Condvar,
    done: AtomicBool,
    /// Live connection streams, for shutdown.
    conns: Mutex<Vec<TcpStream>>,
}

impl Shared {
    /// Lock that shrugs off poisoning: a panicked connection thread must
    /// not wedge every other client.
    fn lock(&self) -> MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// A running network front-end. Dropping it (or calling
/// [`NetServer::shutdown`]) stops the listener and joins every thread.
pub struct NetServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `sup`. The supervisor is owned by the server until a client sends
    /// `Finish`.
    pub fn start(sup: Supervisor, addr: &str) -> ServiceResult<NetServer> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| ServiceError::Net(format!("bind {addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| ServiceError::Net(format!("local_addr: {e}")))?;
        let shards = sup.config().shards;
        let shared = Arc::new(Shared {
            core: Mutex::new(Core {
                sup: Some(sup),
                shards,
                epoch: 0,
                arrived: 0,
                parties: 0,
                acks: VecDeque::new(),
                submitted: HashMap::new(),
                results: None,
            }),
            cv: Condvar::new(),
            done: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("rrs-net-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(|e| ServiceError::Spawn(format!("accept thread: {e}")))?;
        Ok(NetServer { shared, addr: local, accept: Some(accept) })
    }

    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until some client has finished the run, then returns the
    /// final results. Errors if the server shuts down first.
    pub fn wait_finished(&self) -> ServiceResult<Vec<(TenantId, RunResult)>> {
        let mut core = self.shared.lock();
        loop {
            if let Some(results) = &core.results {
                return Ok(results.clone());
            }
            if self.shared.done.load(Ordering::SeqCst) {
                return Err(ServiceError::Net("server shut down before finish".into()));
            }
            let (guard, _) = self
                .shared
                .cv
                .wait_timeout(core, Duration::from_millis(200))
                .unwrap_or_else(|p| p.into_inner());
            core = guard;
        }
    }

    /// Stops accepting, severs every live connection, and joins all
    /// threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.done.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        {
            let conns = self.shared.conns.lock().unwrap_or_else(|p| p.into_inner());
            for stream in conns.iter() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        // Unblock the accept loop: it only checks `done` between accepts.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut conn_handles = Vec::new();
    for stream in listener.incoming() {
        if shared.done.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if let Ok(peer) = stream.try_clone() {
            shared.conns.lock().unwrap_or_else(|p| p.into_inner()).push(peer);
        }
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("rrs-net-conn".into())
            .spawn(move || {
                let _ = serve_connection(stream, conn_shared);
            });
        if let Ok(handle) = spawned {
            conn_handles.push(handle);
        }
    }
    for handle in conn_handles {
        let _ = handle.join();
    }
}

/// Runs one connection to completion. Any send/recv error tears the
/// connection down; the client reconnects and replays.
fn serve_connection(stream: TcpStream, shared: Arc<Shared>) -> ServiceResult<()> {
    let mut msgs = MsgStream::new(stream)?;
    let mut client: Option<u64> = None;
    loop {
        if shared.done.load(Ordering::SeqCst) {
            return Ok(());
        }
        let req: Request = msgs.recv()?;
        let resp = handle_request(&shared, &mut client, req);
        msgs.send(&resp, false)?;
        if shared.done.load(Ordering::SeqCst) {
            return Ok(());
        }
    }
}

fn err(e: impl std::fmt::Display) -> Response {
    Response::Err { message: e.to_string() }
}

fn handle_request(shared: &Shared, client: &mut Option<u64>, req: Request) -> Response {
    match req {
        Request::Hello { proto, client: id } => {
            if proto != PROTO_VERSION {
                return err(format!(
                    "protocol mismatch: client {proto}, server accepts {PROTO_VERSION}"
                ));
            }
            *client = Some(id);
            let core = shared.lock();
            Response::Hello { proto: PROTO_VERSION, shards: core.shards }
        }
        Request::AddTenant { id, spec } => {
            let mut core = shared.lock();
            match core.sup.as_mut() {
                Some(sup) => match sup.add_tenant(id, spec) {
                    Ok(()) => Response::Ok,
                    Err(e) => err(e),
                },
                None => err("run already finished"),
            }
        }
        Request::SubmitBatch { epoch, entries } => {
            let Some(client) = *client else {
                return err("submit before hello");
            };
            let mut core = shared.lock();
            if epoch != core.epoch + 1 {
                // Completed epoch: a resend after reconnect. The original
                // copy is already journaled — ack without re-applying.
                if epoch <= core.epoch && core.submitted.get(&client) >= Some(&epoch) {
                    let jobs = entries
                        .iter()
                        .flat_map(|(_, arrivals)| arrivals.iter().map(|(_, n)| n))
                        .sum();
                    return Response::Queued { epoch, jobs };
                }
                return err(format!(
                    "submit for epoch {epoch}, next uncompleted is {}",
                    core.epoch + 1
                ));
            }
            if core.submitted.get(&client) >= Some(&epoch) {
                let jobs = entries
                    .iter()
                    .flat_map(|(_, arrivals)| arrivals.iter().map(|(_, n)| n))
                    .sum();
                return Response::Queued { epoch, jobs };
            }
            let Some(sup) = core.sup.as_mut() else {
                return err("run already finished");
            };
            let mut jobs = 0u64;
            for (tenant, arrivals) in &entries {
                jobs += arrivals.iter().map(|(_, n)| *n).sum::<u64>();
                if let Err(e) = sup.submit(*tenant, arrivals.clone()) {
                    return err(e);
                }
            }
            core.submitted.insert(client, epoch);
            Response::Queued { epoch, jobs }
        }
        Request::Tick { epoch, parties } => tick_barrier(shared, epoch, parties),
        Request::Stats => {
            let mut core = shared.lock();
            match core.sup.as_mut() {
                Some(sup) => match sup.stats() {
                    Ok(stats) => Response::Stats { stats: Box::new(stats) },
                    Err(e) => err(e),
                },
                None => err("run already finished"),
            }
        }
        Request::Snapshot { shard } => {
            let mut core = shared.lock();
            match core.sup.as_mut() {
                Some(sup) => match sup.snapshot_shard(shard) {
                    Ok(snapshot) => Response::Snapshot { snapshot: Box::new(snapshot) },
                    Err(e) => err(e),
                },
                None => err("run already finished"),
            }
        }
        Request::Finish => {
            let mut core = shared.lock();
            if let Some(results) = &core.results {
                return Response::Results { results: results.clone() };
            }
            let Some(sup) = core.sup.take() else {
                return err("run already finished");
            };
            match sup.finish() {
                Ok(map) => {
                    let results: Vec<(TenantId, RunResult)> = map.into_iter().collect();
                    core.results = Some(results.clone());
                    shared.cv.notify_all();
                    Response::Results { results }
                }
                Err(e) => err(e),
            }
        }
    }
}

/// The barrier at the heart of the protocol: block until `parties` ticks
/// for `epoch` have arrived, let the last arrival drive the supervisor,
/// and hand everyone the same durable ack.
fn tick_barrier(shared: &Shared, epoch: u64, parties: u32) -> Response {
    if parties == 0 {
        return err("tick with zero parties");
    }
    let mut core = shared.lock();
    if epoch <= core.epoch {
        // Duplicate from a reconnecting client: replay the recorded ack.
        return match core.recorded_ack(epoch) {
            Some(resp) => resp,
            None => err(format!("epoch {epoch} outside the ack window")),
        };
    }
    if epoch != core.epoch + 1 {
        // In-order request handling makes this unreachable for honest
        // clients: a pipelined Tick N+1 is only *read* after Tick N's
        // response, which required the N barrier to complete.
        return err(format!("tick for epoch {epoch}, expected {}", core.epoch + 1));
    }
    if core.arrived == 0 {
        core.parties = parties;
    } else if core.parties != parties {
        return err(format!(
            "tick barrier width disagreement: {} vs {parties}",
            core.parties
        ));
    }
    core.arrived += 1;
    if core.arrived >= core.parties {
        // Last arrival: fire the tick while holding the lock (submits for
        // the next epoch must not interleave).
        let outcome = match core.sup.as_mut() {
            Some(sup) => match sup.tick() {
                Ok(()) => Ok(sup.wal_ends()),
                Err(e) => Err(e.to_string()),
            },
            None => Err("run already finished".into()),
        };
        core.epoch = epoch;
        core.arrived = 0;
        core.record_ack(epoch, outcome);
        shared.cv.notify_all();
        return core.recorded_ack(epoch).unwrap_or_else(|| err("ack window underflow"));
    }
    // Not last: wait for the epoch to complete.
    loop {
        let (guard, timeout) = shared
            .cv
            .wait_timeout(core, BARRIER_TIMEOUT)
            .unwrap_or_else(|p| p.into_inner());
        core = guard;
        if core.epoch >= epoch {
            return match core.recorded_ack(epoch) {
                Some(resp) => resp,
                None => err(format!("epoch {epoch} fell out of the ack window")),
            };
        }
        if shared.done.load(Ordering::SeqCst) {
            return err("server shutting down");
        }
        if timeout.timed_out() {
            return err(format!("tick barrier timed out waiting for epoch {epoch}"));
        }
    }
}
