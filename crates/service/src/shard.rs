//! Shard workers: each shard is one OS thread owning a disjoint set of
//! tenants, drained from a bounded MPSC command queue.
//!
//! Senders `try_send`; when the queue is full they count one backpressure
//! wait and retry with bounded backoff until a deadline
//! ([`ShardHandle::send_deadline`]), so producers slow down to the shard's
//! drain rate instead of growing an unbounded buffer, and a stalled worker
//! surfaces as a typed timeout instead of a hang. Queue depth is tracked
//! with a shared atomic (incremented on enqueue, decremented when the worker
//! pops), which keeps the hot path lock-free.
//!
//! The worker's whole run loop executes under `catch_unwind`: a panic —
//! injected via [`crate::ShardFaults`] or real — is captured into a shared
//! slot ([`ShardHandle::panic_message`]) and the thread exits cleanly, so a
//! supervisor can detect the death ([`ShardHandle::is_finished`], send
//! failures, reply timeouts) and rebuild the shard from checkpoint + WAL.
//!
//! Journaled commands carry an **epoch sequence number** (their WAL offset
//! plus one). After fully applying such a command the worker publishes the
//! sequence into a shared atomic, so a supervisor can acknowledge whole
//! batches of work by waiting on one offset
//! ([`ShardHandle::wait_applied`]) instead of allocating a reply channel
//! per command — the backbone of batched ingestion and parallel tick
//! fan-out.

use crate::error::{ServiceError, ServiceResult};
use crate::faults::{self, ShardFaults};
use crate::stats::{LatencyHistogramNs, ShardStats};
use crate::tenant::{Tenant, TenantSnapshot, TenantSpec};
use rrs_core::{ColorId, RunResult};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tenants are identified service-wide by an opaque integer id.
pub type TenantId = u64;

/// The shard a tenant id maps to under a given shard count.
///
/// Fibonacci hashing: multiply by 2^64/φ and keep the high bits, which
/// spreads sequential ids evenly across small shard counts. Routing is a pure
/// function of `(id, shards)`, so recovery, snapshot validation and
/// cross-topology comparisons place tenants identically.
pub fn shard_for(id: TenantId, shards: usize) -> usize {
    let h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    (h as usize) % shards.max(1)
}

/// Commands a shard worker understands.
pub enum Command {
    /// Registers a new tenant at round 0.
    AddTenant {
        /// Tenant id, unique across all shards.
        id: TenantId,
        /// Instance parameters for the tenant's engine.
        spec: TenantSpec,
        /// Acknowledgement channel.
        reply: SyncSender<ServiceResult<()>>,
    },
    /// Group commit: every buffered submit destined for this shard within
    /// one tick epoch, applied in submission order.
    SubmitBatch {
        /// `(tenant, arrivals)` entries in original submission order.
        entries: Vec<(TenantId, Vec<(ColorId, u64)>)>,
        /// Epoch sequence (WAL offset + 1) published once applied.
        seq: u64,
    },
    /// Advances every owned tenant one round.
    Tick {
        /// Epoch sequence (WAL offset + 1) published once applied.
        seq: u64,
    },
    /// Captures a serializable snapshot of every owned tenant.
    Snapshot {
        /// Reply channel for the captured state.
        reply: SyncSender<ShardSnapshot>,
    },
    /// Reports the shard's counters.
    Stats {
        /// Reply channel for the counters.
        reply: SyncSender<ShardStats>,
    },
    /// Drains every tenant to its horizon and shuts the worker down.
    Finish {
        /// Reply channel for the final per-tenant results.
        reply: SyncSender<ServiceResult<Vec<(TenantId, RunResult)>>>,
    },
}

/// Serializable capture of one shard: every owned tenant's snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSnapshot {
    /// The shard index the snapshot was taken from.
    pub shard: usize,
    /// `(tenant id, snapshot)` in ascending tenant order.
    pub tenants: Vec<(TenantId, TenantSnapshot)>,
}

impl ShardSnapshot {
    /// Job conservation over every tenant in the shard.
    pub fn conserves_jobs(&self) -> bool {
        self.tenants.iter().all(|(_, t)| t.conserves_jobs())
    }

    /// Structural validation against a topology: the shard index must be in
    /// range, tenant entries strictly ascending (no duplicates), every
    /// tenant must route to this shard under `route`, and every tenant must
    /// pass [`TenantSnapshot::validate`]. Returns the first violation as a
    /// typed error. Cost: O(tenants × colors), independent of run length.
    pub fn validate(
        &self,
        shards: usize,
        route: impl Fn(TenantId) -> usize,
    ) -> ServiceResult<()> {
        if self.shard >= shards {
            return Err(ServiceError::UnknownShard(self.shard));
        }
        let mut prev: Option<TenantId> = None;
        for (id, t) in &self.tenants {
            match prev {
                Some(p) if p == *id => return Err(ServiceError::DuplicateTenant(*id)),
                Some(p) if p > *id => {
                    return Err(ServiceError::Corrupt(format!(
                        "tenant entries out of order ({p} before {id})"
                    )))
                }
                _ => {}
            }
            prev = Some(*id);
            let expected = route(*id);
            if expected != self.shard {
                return Err(ServiceError::MisroutedTenant {
                    tenant: *id,
                    shard: self.shard,
                    expected,
                });
            }
            t.validate().map_err(|e| match e {
                ServiceError::Corrupt(msg) => ServiceError::Corrupt(format!("tenant {id}: {msg}")),
                other => other,
            })?;
        }
        Ok(())
    }
}

/// Bounded exponential backoff for short waits: a few spin-loop hints,
/// then scheduler yields, then jittered sleeps doubling from 10 µs up to a
/// 1 ms cap. Keeps the first retries in the sub-microsecond range (epoch
/// joins usually resolve immediately) without ever busy-burning a core when
/// the other side is genuinely slow. The sleep stage draws a deterministic
/// jitter from the backoff's seed, so waiters seeded differently (e.g. by
/// shard index) desynchronize instead of thundering in lockstep.
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
    seed: u64,
}

impl Backoff {
    const SPINS: u32 = 6;
    const YIELDS: u32 = 10;
    const BASE_SLEEP_MICROS: u64 = 10;
    const MAX_SLEEP_MICROS: u64 = 1_000;

    /// A fresh backoff at the spinning stage (seed 0).
    pub fn new() -> Self {
        Backoff::default()
    }

    /// A fresh backoff whose sleep stage jitters deterministically from
    /// `seed`.
    pub fn seeded(seed: u64) -> Self {
        Backoff { step: 0, seed }
    }

    /// The sleep duration in microseconds for escalation step `step` under
    /// `seed`: zero through the spin/yield stages, then a deterministic
    /// draw from `[base/2, base]` of the doubling schedule, never exceeding
    /// the 1 ms cap. Pure, so tests can pin bounds and determinism.
    pub fn sleep_micros_for(step: u32, seed: u64) -> u64 {
        if step < Self::SPINS + Self::YIELDS {
            return 0;
        }
        let exp = (step - Self::SPINS - Self::YIELDS).min(7);
        let base = (Self::BASE_SLEEP_MICROS << exp).min(Self::MAX_SLEEP_MICROS);
        faults::jitter_range(base / 2, base, seed, u64::from(step))
    }

    /// Waits one step and escalates: spin → yield → capped jittered sleep.
    pub fn wait(&mut self) {
        if self.step < Self::SPINS {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
        } else if self.step < Self::SPINS + Self::YIELDS {
            std::thread::yield_now();
        } else {
            let micros = Self::sleep_micros_for(self.step, self.seed);
            std::thread::sleep(Duration::from_micros(micros));
        }
        self.step = self.step.saturating_add(1);
    }

    /// Whether the backoff has escalated past spinning/yielding to sleeps.
    pub fn is_sleeping(&self) -> bool {
        self.step > Self::SPINS + Self::YIELDS
    }
}

/// Parameters for one worker thread.
#[derive(Debug, Clone, Copy)]
pub struct WorkerConfig {
    /// The shard index.
    pub shard: usize,
    /// Bounded command-queue capacity.
    pub queue_capacity: usize,
    /// Inbox watermark for submit-time load shedding (`None` = never shed).
    pub inbox_watermark: Option<u64>,
    /// Ticks already applied to the handed-over tenants (non-zero when a
    /// supervisor respawns a shard), so fault arming and tick counters stay
    /// in absolute shard-lifetime ticks.
    pub ticks_done: u64,
    /// Epoch sequence the handed-over tenants already reflect (the WAL end
    /// after recovery replay): the worker's applied-offset atomic starts
    /// here, so supervisors waiting on pre-crash sequences resolve at once.
    pub applied_start: u64,
}

/// Sender side of a shard: the command queue plus its shared gauges.
pub struct ShardHandle {
    shard: usize,
    tx: SyncSender<Command>,
    depth: Arc<AtomicUsize>,
    backpressure: Arc<AtomicU64>,
    applied: Arc<AtomicU64>,
    panic_slot: Arc<Mutex<Option<String>>>,
    join: JoinHandle<()>,
}

impl ShardHandle {
    /// The shard index this handle talks to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Commands currently queued.
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Whether the worker thread has exited (finished, killed or panicked).
    pub fn is_finished(&self) -> bool {
        self.join.is_finished()
    }

    /// The highest epoch sequence the worker has fully applied.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Acquire)
    }

    /// Waits (spin → yield → bounded sleeps) until the worker has applied
    /// epoch sequence `seq`, i.e. every journaled command at WAL offsets
    /// `< seq` has taken effect. One offset wait acknowledges an entire
    /// batch of commands — no per-command reply channels. A dead worker is
    /// reported as [`ServiceError::ShardDown`], deadline expiry as
    /// [`ServiceError::Timeout`], mirroring the reply-channel semantics.
    pub fn wait_applied(&self, seq: u64, deadline: Instant) -> ServiceResult<()> {
        let mut backoff = Backoff::seeded(self.shard as u64);
        loop {
            if self.applied.load(Ordering::Acquire) >= seq {
                return Ok(());
            }
            if self.is_finished() {
                // The worker may have published and then exited; re-check
                // once so a clean shutdown is not misread as a crash.
                if self.applied.load(Ordering::Acquire) >= seq {
                    return Ok(());
                }
                return Err(ServiceError::ShardDown(self.shard));
            }
            if Instant::now() >= deadline {
                return Err(ServiceError::Timeout(self.shard));
            }
            backoff.wait();
        }
    }

    /// The captured panic message, if the worker died panicking.
    pub fn panic_message(&self) -> Option<String> {
        self.panic_slot
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Enqueues a command without ever blocking past `deadline`: a full
    /// queue is retried (one counted backpressure wait) until the deadline,
    /// then reported as [`ServiceError::Timeout`] — a stalled worker cannot
    /// hang the sender.
    pub fn send_deadline(&self, cmd: Command, deadline: Instant) -> ServiceResult<()> {
        self.depth.fetch_add(1, Ordering::Relaxed);
        let mut cmd = cmd;
        let mut counted = false;
        let mut backoff = Backoff::seeded(self.shard as u64);
        loop {
            match self.tx.try_send(cmd) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Full(c)) => {
                    if !counted {
                        self.backpressure.fetch_add(1, Ordering::Relaxed);
                        counted = true;
                    }
                    if Instant::now() >= deadline {
                        self.depth.fetch_sub(1, Ordering::Relaxed);
                        return Err(ServiceError::Timeout(self.shard));
                    }
                    cmd = c;
                    // Saturated producers escalate to bounded sleeps instead
                    // of burning a core at a fixed spin cadence.
                    backoff.wait();
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.depth.fetch_sub(1, Ordering::Relaxed);
                    return Err(ServiceError::ShardDown(self.shard));
                }
            }
        }
    }

    /// Sends a command and waits at most `timeout` (covering both the
    /// enqueue and the reply) for its answer. A missing reply — dead worker,
    /// stalled worker, dropped reply — becomes a typed
    /// [`ServiceError::Timeout`] / [`ServiceError::ShardDown`] instead of a
    /// hang.
    pub fn round_trip_deadline<T>(
        &self,
        make: impl FnOnce(SyncSender<T>) -> Command,
        timeout: Duration,
    ) -> ServiceResult<T> {
        let deadline = Instant::now() + timeout;
        let (reply_tx, reply_rx) = sync_channel(1);
        self.send_deadline(make(reply_tx), deadline)?;
        reply_rx
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            .map_err(|e| match e {
                RecvTimeoutError::Timeout => ServiceError::Timeout(self.shard),
                RecvTimeoutError::Disconnected => ServiceError::ShardDown(self.shard),
            })
    }

    /// Drains every tenant without consuming the handle: the worker shuts
    /// down after replying, bounded by `timeout`, so a caller can retry
    /// against a rebuilt worker.
    pub fn finish_timeout(
        &self,
        timeout: Duration,
    ) -> ServiceResult<Vec<(TenantId, RunResult)>> {
        self.round_trip_deadline(|reply| Command::Finish { reply }, timeout)?
    }

    /// Drops the handle without joining the worker — for replacing a worker
    /// that may be stalled (joining it would block the supervisor). The
    /// orphan exits on its own once it drains the closed queue or wakes from
    /// its stall; its tenants are discarded.
    pub fn abandon(self) {
        drop(self.tx);
        // JoinHandle dropped: the thread is detached.
    }
}

/// Spawns a shard worker owning `tenants` (empty for a fresh shard, restored
/// tenants when rebuilding a dead one), with the given watermarks, fault
/// injection and starting tick count.
pub fn spawn_shard_with(
    config: WorkerConfig,
    faults: Arc<ShardFaults>,
    tenants: BTreeMap<TenantId, Tenant>,
) -> ServiceResult<ShardHandle> {
    let shard = config.shard;
    let (tx, rx) = sync_channel(config.queue_capacity.max(1));
    let depth = Arc::new(AtomicUsize::new(0));
    let backpressure = Arc::new(AtomicU64::new(0));
    let applied = Arc::new(AtomicU64::new(config.applied_start));
    let panic_slot = Arc::new(Mutex::new(None));
    let worker = Worker {
        tenants,
        stats: ShardStats { shard, ..ShardStats::default() },
        depth: Arc::clone(&depth),
        backpressure: Arc::clone(&backpressure),
        applied: Arc::clone(&applied),
        inbox_watermark: config.inbox_watermark,
        ticks_done: config.ticks_done,
        faults,
    };
    let slot = Arc::clone(&panic_slot);
    let join = std::thread::Builder::new()
        .name(format!("rrs-shard-{shard}"))
        .spawn(move || {
            // Capture panics — injected or real — so the thread exits
            // cleanly and the supervisor can read the cause.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(move || worker.run(rx))) {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "worker panicked (non-string payload)".into());
                *slot.lock().unwrap_or_else(|p| p.into_inner()) = Some(msg);
            }
        })
        .map_err(|e| ServiceError::Spawn(format!("shard {shard}: {e}")))?;
    Ok(ShardHandle { shard, tx, depth, backpressure, applied, panic_slot, join })
}

struct Worker {
    tenants: BTreeMap<TenantId, Tenant>,
    stats: ShardStats,
    depth: Arc<AtomicUsize>,
    backpressure: Arc<AtomicU64>,
    applied: Arc<AtomicU64>,
    inbox_watermark: Option<u64>,
    ticks_done: u64,
    faults: Arc<ShardFaults>,
}

impl Worker {
    fn run(mut self, rx: Receiver<Command>) {
        while let Ok(cmd) = rx.recv() {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            self.stats.commands += 1;
            if self.handle(cmd) {
                return; // Finish processed — shut down.
            }
        }
        // All senders dropped: the worker was abandoned. Owned tenants are
        // discarded; recovery rebuilds them from checkpoint + WAL.
    }

    /// Sends a reply unless a reply-drop fault eats it. A receiver that
    /// already gave up (timed out) is not an error.
    fn reply<T>(&mut self, ch: SyncSender<T>, value: T) {
        if self.faults.take_reply_drop(self.ticks_done) {
            self.stats.faults_injected += 1;
            return;
        }
        let _ = ch.send(value);
    }

    /// Publishes an applied epoch sequence (release-ordered, so a waiter
    /// that observes it also observes the command's effects). An ack-drop
    /// fault suppresses the publication: the state advanced but the
    /// supervisor never hears, exercising the offset-join timeout path.
    fn publish(&mut self, seq: u64) {
        if self.faults.take_ack_drop(self.ticks_done) {
            self.stats.faults_injected += 1;
            return;
        }
        self.applied.fetch_max(seq, Ordering::Release);
    }

    /// Returns `true` when the worker should shut down.
    fn handle(&mut self, cmd: Command) -> bool {
        match cmd {
            Command::AddTenant { id, spec, reply } => {
                let res = match self.tenants.entry(id) {
                    std::collections::btree_map::Entry::Occupied(_) => {
                        Err(ServiceError::DuplicateTenant(id))
                    }
                    std::collections::btree_map::Entry::Vacant(slot) => {
                        Tenant::new(spec).map(|t| {
                            slot.insert(t);
                        })
                    }
                };
                if res.is_err() {
                    self.stats.command_errors += 1;
                }
                self.reply(reply, res);
            }
            Command::SubmitBatch { entries, seq } => {
                // One command, N submits: `submits` counts entries.
                self.stats.batches += 1;
                self.stats.submits += entries.len() as u64;
                for (tenant, arrivals) in entries {
                    // The tenant's own shed counter tracks the drop; stats
                    // aggregate it lazily in `current_stats`.
                    match self.tenants.get_mut(&tenant) {
                        Some(t) => {
                            if t.submit_shedding(&arrivals, self.inbox_watermark).is_err() {
                                self.stats.command_errors += 1;
                            }
                        }
                        None => self.stats.command_errors += 1,
                    }
                }
                self.publish(seq);
            }
            Command::Tick { seq } => {
                self.ticks_done += 1;
                match self.faults.take_tick_fault(self.ticks_done) {
                    Some(crate::faults::FaultKind::Panic) => {
                        self.stats.faults_injected += 1;
                        panic!("injected fault: panic at tick {}", self.ticks_done);
                    }
                    Some(crate::faults::FaultKind::Stall { millis }) => {
                        self.stats.faults_injected += 1;
                        std::thread::sleep(Duration::from_millis(millis));
                    }
                    _ => {}
                }
                self.stats.ticks += 1;
                let mut latency = LatencyHistogramNs::new();
                for t in self.tenants.values_mut() {
                    let start = Instant::now();
                    if t.tick().is_err() {
                        self.stats.command_errors += 1;
                    }
                    latency.record(start.elapsed().as_nanos() as u64);
                }
                self.stats.step_latency.merge(&latency);
                self.publish(seq);
            }
            Command::Snapshot { reply } => {
                let mut snap = ShardSnapshot {
                    shard: self.stats.shard,
                    tenants: self
                        .tenants
                        .iter()
                        .map(|(&id, t)| (id, t.snapshot()))
                        .collect(),
                };
                if self.faults.take_snapshot_corruption(self.ticks_done) {
                    self.stats.faults_injected += 1;
                    // Silent bit-flip: inflate one executed count, breaking
                    // job conservation (checkpoint validation must reject).
                    if let Some((_, t)) = snap.tenants.first_mut() {
                        t.engine.result.executed += 1;
                    }
                }
                self.reply(reply, snap);
            }
            Command::Stats { reply } => {
                let stats = self.current_stats();
                self.reply(reply, stats);
            }
            Command::Finish { reply } => {
                let tenants = std::mem::take(&mut self.tenants);
                let mut results = Vec::with_capacity(tenants.len());
                let res = (|| {
                    for (id, t) in tenants {
                        results.push((id, t.finish()?));
                    }
                    Ok(std::mem::take(&mut results))
                })();
                self.reply(reply, res);
                return true;
            }
        }
        false
    }

    fn current_stats(&self) -> ShardStats {
        let mut s = self.stats.clone();
        s.tenants = self.tenants.len();
        s.queue_depth = self.depth.load(Ordering::Relaxed);
        s.backpressure_waits = self.backpressure.load(Ordering::Relaxed);
        let (mut executed, mut dropped, mut reconfig, mut shed) = (0, 0, 0, 0);
        for t in self.tenants.values() {
            let p = t.progress();
            executed += p.executed;
            dropped += p.dropped;
            reconfig += p.cost.reconfig;
            shed += p.shed;
        }
        s.executed = executed;
        s.dropped = dropped;
        s.reconfig_cost = reconfig;
        s.shed_jobs = shed;
        s
    }
}

/// Rebuilds the tenants of a [`ShardSnapshot`] ([`Tenant::restore`] per
/// tenant: validation, then a direct load of each engine and policy state —
/// no replay), ready to hand to [`spawn_shard_with`].
pub fn restore_tenants(
    snapshot: ShardSnapshot,
) -> ServiceResult<BTreeMap<TenantId, Tenant>> {
    let mut tenants = BTreeMap::new();
    for (id, snap) in snapshot.tenants {
        if tenants.insert(id, Tenant::restore(snap)?).is_some() {
            return Err(ServiceError::DuplicateTenant(id));
        }
    }
    Ok(tenants)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicySpec;
    use rrs_core::ColorTable;

    fn spec() -> TenantSpec {
        TenantSpec::new(PolicySpec::DlruEdf, ColorTable::from_delay_bounds(&[2, 4]), 4, 2)
    }

    #[test]
    fn backoff_sleep_stage_is_bounded_and_deterministic() {
        let sleep_start = Backoff::SPINS + Backoff::YIELDS;
        // Spin/yield stages never sleep.
        for step in 0..sleep_start {
            assert_eq!(Backoff::sleep_micros_for(step, 3), 0);
        }
        // Every sleep stays within [base/2, base] of the doubling schedule,
        // capped at MAX_SLEEP_MICROS, and the same (step, seed) pair always
        // draws the same jitter.
        for step in sleep_start..sleep_start + 12 {
            let exp = (step - sleep_start).min(7);
            let base = (Backoff::BASE_SLEEP_MICROS << exp).min(Backoff::MAX_SLEEP_MICROS);
            for seed in 0..16u64 {
                let micros = Backoff::sleep_micros_for(step, seed);
                assert!(micros >= base / 2 && micros <= base, "step {step} seed {seed}: {micros}");
                assert_eq!(micros, Backoff::sleep_micros_for(step, seed));
            }
        }
        // Different seeds actually desynchronize somewhere in the schedule.
        assert!(
            (sleep_start + 2..sleep_start + 12)
                .any(|s| Backoff::sleep_micros_for(s, 1) != Backoff::sleep_micros_for(s, 2)),
            "seeds 1 and 2 never diverged"
        );
    }

    /// Every reply wait in these tests is bounded; a healthy worker answers
    /// in microseconds.
    const T: Duration = Duration::from_secs(5);

    fn worker(shard: usize) -> WorkerConfig {
        WorkerConfig {
            shard,
            queue_capacity: 4,
            inbox_watermark: None,
            ticks_done: 0,
            applied_start: 0,
        }
    }

    fn spawn(shard: usize, faults: Arc<ShardFaults>) -> ShardHandle {
        spawn_shard_with(worker(shard), faults, BTreeMap::new()).unwrap()
    }

    fn send(h: &ShardHandle, cmd: Command) -> ServiceResult<()> {
        h.send_deadline(cmd, Instant::now() + T)
    }

    fn add_tenant(h: &ShardHandle, id: TenantId) -> ServiceResult<()> {
        h.round_trip_deadline(|reply| Command::AddTenant { id, spec: spec(), reply }, T)?
    }

    fn snapshot(h: &ShardHandle) -> ShardSnapshot {
        h.round_trip_deadline(|reply| Command::Snapshot { reply }, T).unwrap()
    }

    fn wait_until_finished(h: &ShardHandle) {
        while !h.is_finished() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn worker_processes_commands_and_finishes() {
        let h = spawn(0, ShardFaults::none());
        add_tenant(&h, 7).unwrap();
        assert!(matches!(add_tenant(&h, 7), Err(ServiceError::DuplicateTenant(7))));
        let entries = vec![(7, vec![(ColorId(0), 2)]), (7, vec![(ColorId(0), 1)])];
        send(&h, Command::SubmitBatch { entries, seq: 1 }).unwrap();
        send(&h, Command::Tick { seq: 2 }).unwrap();
        h.wait_applied(2, Instant::now() + T).unwrap();
        assert_eq!(h.applied(), 2);
        let snap = snapshot(&h);
        assert_eq!(snap.tenants.len(), 1);
        assert!(snap.conserves_jobs());
        let stats = h.round_trip_deadline(|reply| Command::Stats { reply }, T).unwrap();
        assert_eq!(stats.ticks, 1);
        assert_eq!((stats.batches, stats.submits), (1, 2), "submits count batch entries");
        let results = h.finish_timeout(T).unwrap();
        assert_eq!(results.len(), 1);
        let r = &results[0].1;
        assert_eq!(r.executed + r.dropped_jobs, 3);
    }

    #[test]
    fn kill_then_restore_continues_from_snapshot() {
        let h = spawn(1, ShardFaults::none());
        add_tenant(&h, 1).unwrap();
        for round in 0..5u64 {
            let entries = vec![(1, vec![(ColorId(1), 2)])];
            send(&h, Command::SubmitBatch { entries, seq: 2 * round + 1 }).unwrap();
            send(&h, Command::Tick { seq: 2 * round + 2 }).unwrap();
        }
        let snap = snapshot(&h);
        h.abandon();
        let rebuilt = restore_tenants(snap.clone()).unwrap();
        let h2 = spawn_shard_with(worker(1), ShardFaults::none(), rebuilt).unwrap();
        assert_eq!(snapshot(&h2), snap, "restored shard state is bit-identical");
        let results = h2.finish_timeout(T).unwrap();
        assert_eq!(results[0].1.executed + results[0].1.dropped_jobs, 10);
    }

    #[test]
    fn send_to_dead_shard_reports_shard_down() {
        let h = spawn(2, ShardFaults::none());
        h.finish_timeout(T).unwrap();
        // Wait for the worker to actually exit so the queue is closed.
        wait_until_finished(&h);
        assert!(matches!(send(&h, Command::Tick { seq: 1 }), Err(ServiceError::ShardDown(2))));
        assert!(h.panic_message().is_none());
    }

    #[test]
    fn injected_panic_is_captured_not_propagated() {
        use crate::faults::{Fault, FaultKind};
        let faults = Arc::new(ShardFaults::new(vec![Fault {
            shard: 3,
            at_tick: 2,
            kind: FaultKind::Panic,
        }]));
        let h = spawn(3, Arc::clone(&faults));
        add_tenant(&h, 1).unwrap();
        send(&h, Command::Tick { seq: 1 }).unwrap();
        send(&h, Command::Tick { seq: 2 }).unwrap(); // fault arms at tick 2
        wait_until_finished(&h);
        assert_eq!(faults.injected(), 1);
        let msg = h.panic_message().expect("panic captured");
        assert!(msg.contains("injected fault"), "unexpected message: {msg}");
        assert!(matches!(send(&h, Command::Tick { seq: 3 }), Err(ServiceError::ShardDown(3))));
    }

    #[test]
    fn round_trip_deadline_times_out_on_stall() {
        use crate::faults::{Fault, FaultKind};
        let faults = Arc::new(ShardFaults::new(vec![Fault {
            shard: 4,
            at_tick: 1,
            kind: FaultKind::Stall { millis: 200 },
        }]));
        let h = spawn(4, faults);
        send(&h, Command::Tick { seq: 1 }).unwrap();
        let started = Instant::now();
        let res: ServiceResult<ShardSnapshot> = h
            .round_trip_deadline(|reply| Command::Snapshot { reply }, Duration::from_millis(30));
        assert!(matches!(res, Err(ServiceError::Timeout(4))), "got {res:?}");
        assert!(started.elapsed() < Duration::from_millis(190), "deadline was honored");
        h.abandon(); // never join a stalled worker
    }

    #[test]
    fn snapshot_validation_catches_structural_corruption() {
        let tenant = Tenant::new(spec()).unwrap().snapshot();
        let snap = ShardSnapshot { shard: 0, tenants: vec![(2, tenant)] };

        assert!(snap.validate(1, |_| 0).is_ok());
        assert!(matches!(snap.validate(0, |_| 0), Err(ServiceError::UnknownShard(0))));
        assert!(matches!(
            snap.validate(1, |_| 5),
            Err(ServiceError::MisroutedTenant { tenant: 2, shard: 0, expected: 5 })
        ));

        let mut dup = snap.clone();
        dup.tenants.push(dup.tenants[0].clone());
        assert!(matches!(dup.validate(1, |_| 0), Err(ServiceError::DuplicateTenant(2))));

        let mut unsorted = snap.clone();
        unsorted.tenants.insert(0, (9, snap.tenants[0].1.clone()));
        assert!(matches!(unsorted.validate(1, |_| 0), Err(ServiceError::Corrupt(_))));

        let mut lossy = snap;
        lossy.tenants[0].1.engine.result.executed += 1;
        assert!(matches!(lossy.validate(1, |_| 0), Err(ServiceError::Corrupt(_))));
    }

    #[test]
    fn routing_is_a_pure_function_of_id_and_shard_count() {
        for shards in [1usize, 2, 3, 8] {
            let mut hit = vec![false; shards];
            for id in 0..64u64 {
                let s = shard_for(id, shards);
                assert!(s < shards);
                assert_eq!(s, shard_for(id, shards));
                hit[s] = true;
            }
            assert!(hit.iter().all(|&h| h), "{shards} shards: some shard owns no tenant");
        }
        assert_eq!(shard_for(5, 0), 0, "a zero shard count clamps to one shard");
    }
}
