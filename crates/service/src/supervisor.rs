//! Automatic shard supervision: checkpoint + WAL recovery, fault detection,
//! bounded retries, and overload shedding.
//!
//! A [`Supervisor`] owns the shard workers, routes tenants to them by
//! [`shard_for`], journals every state-changing command into a per-shard
//! [`Wal`] before enqueueing it and takes periodic validated
//! [`Checkpoint`]s. When a worker dies (panic captured by the worker's
//! `catch_unwind`, detected through join-handle monitoring, send failures
//! or reply deadlines) the supervisor rebuilds the shard automatically:
//! restore the newest checkpoint (replay-verified), re-apply the WAL
//! suffix, respawn the worker — bit-identical to a run that never failed,
//! because every policy is deterministic and the WAL holds every command,
//! including those lost in the dead worker's queue.
//!
//! Overload degrades gracefully instead of stalling: a full shard queue past
//! [`ShedConfig::queue_watermark`] or a tenant inbox past
//! [`ShedConfig::inbox_watermark`] turns arrivals into counted
//! **service-level drops** (the paper's unit drop cost applied at the door)
//! rather than blocking the caller; [`crate::ServiceStats`] reports shed
//! counts per tenant. Cross-shard commands that need a reply retry with
//! deadline-aware exponential backoff, bounded by
//! [`RetryPolicy::attempts`], and surface as typed
//! [`ServiceError::Timeout`] / [`ServiceError::ShardDown`] instead of
//! unwraps or hangs.

use crate::error::{ServiceError, ServiceResult};
use crate::faults::{self, FaultPlan, ShardFaults};
use crate::shard::{
    restore_tenants, shard_for, spawn_shard_with, Command, ShardHandle, ShardSnapshot, TenantId,
    WorkerConfig,
};
use crate::stats::ServiceStats;
use crate::storage::{MemoryBackend, ShardStore, StorageBackend};
use crate::tenant::{Tenant, TenantSpec};
use crate::wal::{replay, Checkpoint, WalRecord};
use rrs_core::{ColorId, RunResult};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A journaled submit batch (per-tenant arrival lists) plus the WAL length
/// after the append, as produced by `journal_pending`.
type JournaledBatch = (Vec<(TenantId, Vec<(ColorId, u64)>)>, u64);

/// Bounded-retry parameters for cross-shard commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per command (1 = no retry).
    pub attempts: u32,
    /// Per-attempt deadline covering enqueue + reply.
    pub op_timeout: Duration,
    /// Base backoff between attempts; doubles per retry, capped at
    /// `op_timeout` so the worst case stays within
    /// `attempts × 2 × op_timeout`.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            op_timeout: Duration::from_secs(2),
            backoff: Duration::from_millis(10),
        }
    }
}

impl RetryPolicy {
    /// The pause before retry `attempt` (1-based): the doubling backoff
    /// capped at `op_timeout`, with a deterministic seeded jitter drawn
    /// from `[base/2, base]` so callers retrying in unison (one seed per
    /// shard) desynchronize instead of hammering the same instant. Pure,
    /// so tests can pin bounds and determinism.
    pub fn backoff_for(&self, attempt: u32, seed: u64) -> Duration {
        let exp = attempt.saturating_sub(1).min(16);
        let base = self.backoff.saturating_mul(1u32 << exp).min(self.op_timeout);
        faults::jittered(base, seed, u64::from(attempt))
    }
}

/// Restart-storm circuit breaker parameters (see
/// [`Supervisor::set_breaker`]). A shard that keeps dying faster than it
/// can do useful work trips its breaker **open**: the supervisor stops
/// rebuilding it, sheds its traffic with per-tenant accounting, and only
/// after `cooldown` tick epochs spawns a **half-open** probe worker. The
/// breaker closes again once the probe survives `probes` consecutive
/// healthy epochs; a failure while half-open reopens it immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Trip open when a shard accumulates this many recoveries within
    /// `window` tick epochs.
    pub trip_after: u32,
    /// Sliding recovery-history window, in tick epochs.
    pub window: u64,
    /// Tick epochs an open breaker sheds before the half-open probe.
    pub cooldown: u64,
    /// Consecutive healthy epochs required to close from half-open.
    pub probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { trip_after: 3, window: 16, cooldown: 8, probes: 2 }
    }
}

/// Per-shard breaker state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Normal operation; recoveries rebuild the shard.
    Closed,
    /// Tripped at epoch `since`: no rebuilds, traffic sheds.
    Open {
        /// The supervisor clock when the breaker tripped.
        since: u64,
    },
    /// A probe worker is running; `healthy` epochs survived so far.
    HalfOpen {
        /// Healthy epochs the probe has survived.
        healthy: u32,
    },
}

/// Load-shedding watermarks (both default to off).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShedConfig {
    /// Shed a tenant's submit when its shard queue holds at least this many
    /// commands (checked supervisor-side, before journaling).
    pub queue_watermark: Option<usize>,
    /// Shed the jobs that would push a tenant's inbox past this many
    /// buffered jobs (applied inside the worker and during WAL replay, so
    /// recovery reproduces the same shedding decisions).
    pub inbox_watermark: Option<u64>,
}

/// How submits travel from the supervisor to the shard workers.
///
/// There is one transport, so this enum has one variant. It stays as a
/// type only because the end-to-end benchmark (`crates/bench/e2e`) writes
/// `ingest: IngestMode::Batched`; the field and the enum go together once
/// that benchmark may change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IngestMode {
    /// Submits buffer supervisor-side per shard and ride into the worker as
    /// one [`Command::SubmitBatch`] per tick epoch: one WAL group commit
    /// and one enqueue instead of `N`, acknowledged by epoch sequence.
    /// Ticks additionally fan out to all shards before joining on applied
    /// offsets, overlapping the shards' round execution.
    #[default]
    Batched,
}

/// Supervisor topology and robustness parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Number of shard workers.
    pub shards: usize,
    /// Bounded command-queue capacity per shard.
    pub queue_capacity: usize,
    /// Ticks between checkpoints (0 = only the genesis checkpoint; recovery
    /// then replays the whole WAL).
    pub checkpoint_every: u64,
    /// Retry/backoff/deadline policy for reply-bearing commands.
    pub retry: RetryPolicy,
    /// Overload shedding watermarks.
    pub shed: ShedConfig,
    /// Submit transport (see [`IngestMode`]; batched group commit is the
    /// only one).
    pub ingest: IngestMode,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            shards: 4,
            queue_capacity: 128,
            checkpoint_every: 32,
            retry: RetryPolicy::default(),
            shed: ShedConfig::default(),
            ingest: IngestMode::default(),
        }
    }
}

/// One recovery, for the record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// The rebuilt shard.
    pub shard: usize,
    /// Why the supervisor intervened (detection path + captured panic).
    pub cause: String,
    /// WAL records replayed past the checkpoint.
    pub replayed: u64,
}

/// Per-shard supervision state.
struct Seat {
    handle: ShardHandle,
    /// The shard's journal + checkpoint retention (memory or disk). The
    /// store keeps the newest checkpoints for fallback, so one corrupted
    /// checkpoint cannot brick the shard.
    store: Box<dyn ShardStore>,
    /// Tick records journaled over the shard's lifetime (including ticks
    /// recovered from a previous process under the disk backend).
    ticks: u64,
    /// Submit buffer for the current tick epoch, in submission order (a
    /// tenant may appear more than once; order is what makes mid-batch
    /// shedding replay bit-identically).
    pending: Vec<(TenantId, Vec<(ColorId, u64)>)>,
    recoveries: u64,
    checkpoints_rejected: u64,
    faults: Arc<ShardFaults>,
    /// Circuit-breaker state (always `Closed` unless a breaker is
    /// installed via [`Supervisor::set_breaker`]).
    breaker: BreakerState,
    /// Supervisor-clock epochs of recent recoveries, pruned to the breaker
    /// window.
    recovery_clock: VecDeque<u64>,
    /// Times this shard's breaker tripped open.
    trips: u64,
}

/// A sharded multi-tenant scheduler service that survives worker death,
/// stalls and overload automatically. Tenants route by [`shard_for`]
/// (`hash(tenant id) % shards`).
pub struct Supervisor {
    config: SupervisorConfig,
    seats: Vec<Seat>,
    backend: Box<dyn StorageBackend>,
    /// Tenant directory: id → shard.
    tenants: BTreeMap<TenantId, usize>,
    /// Queue-watermark sheds, attributed per tenant (inbox-watermark sheds
    /// live in the tenants themselves and survive recovery via snapshots).
    /// Supervisor-side state only: not journaled, so a cold start resets it.
    queue_shed: BTreeMap<TenantId, u64>,
    events: Vec<RecoveryEvent>,
    /// Restart-storm circuit breaker, off unless installed.
    breaker: Option<BreakerConfig>,
    /// Tick-epoch clock driving breaker windows and cooldowns.
    clock: u64,
}

impl Supervisor {
    /// Starts `config.shards` supervised empty shard workers.
    pub fn new(config: SupervisorConfig) -> ServiceResult<Self> {
        Supervisor::with_faults(config, &FaultPlan::none())
    }

    /// Starts a supervisor whose workers run under a deterministic
    /// [`FaultPlan`] — the chaos-testing entry point.
    pub fn with_faults(config: SupervisorConfig, plan: &FaultPlan) -> ServiceResult<Self> {
        Supervisor::with_storage(config, plan, Box::new(MemoryBackend::new()))
    }

    /// Starts a supervisor over an explicit storage backend, performing
    /// **cold-start recovery**: every shard is rebuilt from its store's
    /// newest valid checkpoint plus WAL-suffix replay before its worker
    /// spawns. For a fresh [`MemoryBackend`] this degenerates to an empty
    /// start; for a [`crate::DiskBackend`] over an existing data directory
    /// it resurrects the whole service, bit-identical to the committed
    /// prefix of the previous process's run.
    pub fn with_storage(
        config: SupervisorConfig,
        plan: &FaultPlan,
        mut backend: Box<dyn StorageBackend>,
    ) -> ServiceResult<Self> {
        let shards = config.shards.max(1);
        let config = SupervisorConfig { shards, ..config };
        let fault_state = plan.per_shard(shards);
        let mut seats = Vec::with_capacity(shards);
        let mut tenants_dir: BTreeMap<TenantId, usize> = BTreeMap::new();
        let mut events = Vec::new();
        for (shard, faults) in fault_state.into_iter().enumerate() {
            let store = backend.open_shard(shard, Arc::clone(&faults))?;
            // Newest checkpoint first, older ones as fallback — the same
            // ladder recover() climbs, but sourced from the (possibly
            // crash-repaired) store.
            let mut restored: Option<(BTreeMap<TenantId, Tenant>, u64, u64)> = None;
            let mut last_err = ServiceError::ShardDown(shard);
            for ck in store.checkpoints().iter().rev() {
                let suffix = store.records_from(ck.wal_offset);
                let outcome = restore_tenants(ck.snapshot.clone()).and_then(|mut tenants| {
                    replay(&mut tenants, suffix.iter(), config.shed.inbox_watermark).map(
                        |replayed| {
                            let ticks = ck.ticks
                                + suffix
                                    .iter()
                                    .filter(|r| matches!(r, WalRecord::Tick))
                                    .count() as u64;
                            (tenants, replayed, ticks)
                        },
                    )
                });
                match outcome {
                    Ok(done) => {
                        restored = Some(done);
                        break;
                    }
                    Err(e) => last_err = e,
                }
            }
            let Some((tenants, replayed, ticks)) = restored else {
                return Err(last_err);
            };
            for &id in tenants.keys() {
                tenants_dir.insert(id, shard);
            }
            if store.end() > 0 {
                events.push(RecoveryEvent {
                    shard,
                    cause: "cold start from durable storage".into(),
                    replayed,
                });
            }
            let handle = spawn_shard_with(
                Supervisor::worker_config(&config, shard, ticks, store.end()),
                Arc::clone(&faults),
                tenants,
            )?;
            seats.push(Seat {
                handle,
                store,
                ticks,
                pending: Vec::new(),
                recoveries: 0,
                checkpoints_rejected: 0,
                faults,
                breaker: BreakerState::Closed,
                recovery_clock: VecDeque::new(),
                trips: 0,
            });
        }
        Ok(Supervisor {
            config,
            seats,
            backend,
            tenants: tenants_dir,
            queue_shed: BTreeMap::new(),
            events,
            breaker: None,
            clock: 0,
        })
    }

    fn worker_config(
        config: &SupervisorConfig,
        shard: usize,
        ticks_done: u64,
        applied_start: u64,
    ) -> WorkerConfig {
        WorkerConfig {
            shard,
            queue_capacity: config.queue_capacity,
            inbox_watermark: config.shed.inbox_watermark,
            ticks_done,
            applied_start,
        }
    }

    /// The supervisor topology.
    pub fn config(&self) -> SupervisorConfig {
        self.config
    }

    /// The shard a tenant id maps to.
    pub fn shard_of(&self, id: TenantId) -> usize {
        shard_for(id, self.seats.len())
    }

    /// Shard rebuilds so far, across all shards.
    pub fn recoveries(&self) -> u64 {
        self.seats.iter().map(|s| s.recoveries).sum()
    }

    /// Checkpoints rejected by validation (corrupted snapshot replies).
    pub fn checkpoints_rejected(&self) -> u64 {
        self.seats.iter().map(|s| s.checkpoints_rejected).sum()
    }

    /// Installs a restart-storm circuit breaker. Kept out of
    /// [`SupervisorConfig`] so the many existing construction sites stay
    /// untouched; call right after construction, before driving traffic.
    pub fn set_breaker(&mut self, config: BreakerConfig) {
        self.breaker = Some(config);
    }

    /// Breaker trips so far, across all shards.
    pub fn breaker_trips(&self) -> u64 {
        self.seats.iter().map(|s| s.trips).sum()
    }

    /// Whether `shard`'s breaker is currently open (shedding, not
    /// rebuilding).
    pub fn breaker_open(&self, shard: usize) -> bool {
        self.seats
            .get(shard)
            .is_some_and(|s| matches!(s.breaker, BreakerState::Open { .. }))
    }

    /// Decides whether a failure on `shard` should skip the rebuild:
    /// records the recovery in the sliding window, trips the breaker on a
    /// storm, and reopens immediately when a half-open probe fails.
    /// Returns `true` when the shard is (now) open and must not rebuild.
    fn breaker_gate(&mut self, shard: usize, cause: &str) -> bool {
        let Some(cfg) = self.breaker else { return false };
        match self.seats[shard].breaker {
            BreakerState::Open { .. } => return true,
            BreakerState::HalfOpen { .. } => {
                self.trip(shard, format!("{cause}; half-open probe failed, breaker reopened"));
                return true;
            }
            BreakerState::Closed => {}
        }
        let clock = self.clock;
        let seat = &mut self.seats[shard];
        seat.recovery_clock.push_back(clock);
        while seat
            .recovery_clock
            .front()
            .is_some_and(|&t| clock.saturating_sub(t) > cfg.window)
        {
            seat.recovery_clock.pop_front();
        }
        if (seat.recovery_clock.len() as u32) < cfg.trip_after {
            return false;
        }
        let n = seat.recovery_clock.len();
        self.trip(
            shard,
            format!("{cause}; restart storm ({n} recoveries in {} epochs), breaker opened", cfg.window),
        );
        true
    }

    /// Opens `shard`'s breaker: sheds the un-journaled submit buffer with
    /// per-tenant accounting (journaled records replay at the eventual
    /// probe rebuild, so they must NOT be shed) and logs the trip.
    fn trip(&mut self, shard: usize, cause: String) {
        let shed = self.shed_pending(shard);
        self.seats[shard].breaker = BreakerState::Open { since: self.clock };
        self.seats[shard].trips += 1;
        self.events.push(RecoveryEvent {
            shard,
            cause: format!("{cause}; shed {shed} buffered jobs"),
            replayed: 0,
        });
    }

    /// Sheds `shard`'s buffered (not yet journaled) submits into the
    /// per-tenant shed ledger, returning the job count.
    fn shed_pending(&mut self, shard: usize) -> u64 {
        let pending = std::mem::take(&mut self.seats[shard].pending);
        let mut shed = 0;
        for (id, arrivals) in pending {
            let jobs: u64 = arrivals.iter().map(|&(_, k)| k).sum();
            shed += jobs;
            *self.queue_shed.entry(id).or_insert(0) += jobs;
        }
        shed
    }

    /// Advances `shard`'s breaker one epoch: an open breaker whose cooldown
    /// has elapsed rebuilds the shard as a half-open probe.
    fn breaker_step(&mut self, shard: usize) -> ServiceResult<()> {
        let Some(cfg) = self.breaker else { return Ok(()) };
        if let BreakerState::Open { since } = self.seats[shard].breaker {
            if self.clock.saturating_sub(since) >= cfg.cooldown {
                self.probe(shard)?;
            }
        }
        Ok(())
    }

    /// Rebuilds an open shard and moves its breaker to half-open.
    fn probe(&mut self, shard: usize) -> ServiceResult<()> {
        self.rebuild(shard, "breaker half-open probe")?;
        self.seats[shard].breaker = BreakerState::HalfOpen { healthy: 0 };
        Ok(())
    }

    /// Paths that *must* have an answer from `shard` (stats, snapshots,
    /// finish, registration) force an early half-open probe instead of
    /// waiting out the cooldown.
    fn force_probe(&mut self, shard: usize) -> ServiceResult<()> {
        if self.breaker_open(shard) {
            self.probe(shard)?;
        }
        Ok(())
    }

    /// Credits `shard` with one healthy epoch; a half-open breaker closes
    /// after the configured probe window.
    fn breaker_note_healthy(&mut self, shard: usize) {
        let Some(cfg) = self.breaker else { return };
        if let BreakerState::HalfOpen { healthy } = self.seats[shard].breaker {
            let healthy = healthy + 1;
            if healthy >= cfg.probes {
                self.seats[shard].breaker = BreakerState::Closed;
                self.seats[shard].recovery_clock.clear();
                self.events.push(RecoveryEvent {
                    shard,
                    cause: "circuit breaker closed after healthy probe window".into(),
                    replayed: 0,
                });
            } else {
                self.seats[shard].breaker = BreakerState::HalfOpen { healthy };
            }
        }
    }

    /// Storage-tier counters, without the shard round-trips of
    /// [`Supervisor::stats`].
    pub fn storage_stats(&self) -> crate::storage::StorageStats {
        self.backend.stats()
    }

    /// Per-shard WAL frontiers: entry `i` is one past the offset of the
    /// last record staged on shard `i`'s store — the epoch sequence
    /// (`seq = offset + 1`) that shard's tick acknowledgement carries.
    /// After [`Supervisor::tick`] returns the frontier is both durable
    /// (group commit + ack barrier) and applied (epoch join), which is what
    /// makes it the wire-level ack for the network server.
    pub fn wal_ends(&self) -> Vec<u64> {
        self.seats.iter().map(|seat| seat.store.end()).collect()
    }

    /// Tick epochs journaled for one shard over its lifetime — including
    /// epochs recovered from durable storage at cold start. Crash-recovery
    /// tests use this to know how far each shard's committed prefix reaches
    /// (shards can land on different epochs when a crash interrupts the
    /// per-shard group commits mid-broadcast).
    pub fn shard_ticks(&self, shard: usize) -> ServiceResult<u64> {
        self.seats
            .get(shard)
            .map(|s| s.ticks)
            .ok_or(ServiceError::UnknownShard(shard))
    }

    /// The recovery log, in order of occurrence.
    pub fn recovery_events(&self) -> &[RecoveryEvent] {
        &self.events
    }

    /// Registers a tenant on its home shard.
    ///
    /// The registration is validated supervisor-side (duplicate id, engine
    /// construction) **before** it is journaled, so a WAL never replays a
    /// failing `AddTenant`.
    pub fn add_tenant(&mut self, id: TenantId, spec: TenantSpec) -> ServiceResult<()> {
        if self.tenants.contains_key(&id) {
            return Err(ServiceError::DuplicateTenant(id));
        }
        // Proves the spec constructs; the throwaway instance is dropped.
        Tenant::new(spec.clone())?;
        let shard = self.shard_of(id);
        self.force_probe(shard)?;
        self.ensure_live(shard, "liveness check before add_tenant")?;
        // Journal + commit before the send: the acknowledgement below
        // externalizes the registration, so it must be durable first.
        self.seats[shard].store.append(&WalRecord::AddTenant { id, spec: spec.clone() })?;
        self.seats[shard].store.commit()?;
        let sent = self.seats[shard].handle.round_trip_deadline(
            |reply| Command::AddTenant { id, spec, reply },
            self.config.retry.op_timeout,
        );
        match sent {
            Ok(ack) => ack?,
            // Already journaled: recovery replays the registration, so the
            // command is in effect either way.
            Err(ServiceError::Timeout(_)) | Err(ServiceError::ShardDown(_)) => {
                self.recover(shard, "add_tenant did not acknowledge")?;
            }
            Err(e) => return Err(e),
        }
        self.tenants.insert(id, shard);
        Ok(())
    }

    /// Buffers arrivals for a tenant's next tick, shedding instead of
    /// blocking when the shard queue is past the watermark.
    ///
    /// The arrivals park in the shard's seat until the next flush point
    /// (tick, checkpoint, snapshot, stats or finish), where the whole epoch
    /// is journaled as one [`WalRecord::SubmitBatch`] group commit and
    /// enqueued as a single command.
    pub fn submit(&mut self, id: TenantId, arrivals: Vec<(ColorId, u64)>) -> ServiceResult<()> {
        let &shard = self.tenants.get(&id).ok_or(ServiceError::UnknownTenant(id))?;
        let jobs: u64 = arrivals.iter().map(|&(_, k)| k).sum();
        if jobs == 0 {
            return Ok(());
        }
        // A tripped shard sheds at the door, same accounting as the queue
        // watermark: the jobs never enter the system.
        if self.breaker_open(shard) {
            *self.queue_shed.entry(id).or_insert(0) += jobs;
            return Ok(());
        }
        if let Some(w) = self.config.shed.queue_watermark {
            if self.seats[shard].handle.queue_depth() >= w {
                *self.queue_shed.entry(id).or_insert(0) += jobs;
                return Ok(());
            }
        }
        self.seats[shard].pending.push((id, arrivals));
        Ok(())
    }

    /// Journals a shard's buffered submits as one [`WalRecord::SubmitBatch`]
    /// append, returning the command to enqueue (`None` when nothing was
    /// buffered). The caller decides the commit boundary: standalone flush
    /// points commit immediately, the batched tick folds the batch and its
    /// tick into a single epoch commit.
    fn journal_pending(
        &mut self,
        shard: usize,
    ) -> ServiceResult<Option<JournaledBatch>> {
        if self.seats[shard].pending.is_empty() {
            return Ok(None);
        }
        let entries = std::mem::take(&mut self.seats[shard].pending);
        let offset = self.seats[shard]
            .store
            .append(&WalRecord::SubmitBatch { entries: entries.clone() })?;
        Ok(Some((entries, offset + 1)))
    }

    /// Flushes a shard's buffered submits as one group commit: a single
    /// [`WalRecord::SubmitBatch`] append + commit, a single
    /// [`Command::SubmitBatch`] enqueue. A dead or saturated worker
    /// triggers recovery — the record is already journaled, so replay
    /// applies the batch either way.
    fn flush_shard(&mut self, shard: usize) -> ServiceResult<()> {
        let Some((entries, seq)) = self.journal_pending(shard)? else {
            return Ok(());
        };
        self.seats[shard].store.commit()?;
        let deadline = Instant::now() + self.config.retry.op_timeout;
        match self.seats[shard]
            .handle
            .send_deadline(Command::SubmitBatch { entries, seq }, deadline)
        {
            Ok(()) => Ok(()),
            Err(ServiceError::Timeout(_)) | Err(ServiceError::ShardDown(_)) => {
                self.recover(shard, "batch did not enqueue")
            }
            Err(e) => Err(e),
        }
    }

    /// Advances every tenant on every shard one round, checkpointing on the
    /// configured cadence.
    ///
    /// The tick **fans out**: every shard first gets its buffered submit
    /// batch and a journaled `Tick` epoch (phase 1), so all shards execute
    /// their rounds concurrently; the supervisor then joins on each shard's
    /// applied WAL offset (phase 2) and finally takes any due checkpoints
    /// (phase 3). A shard that fails to enqueue or to acknowledge its epoch
    /// is rebuilt from checkpoint + WAL — the journaled records replay, so
    /// the epoch applies either way.
    pub fn tick(&mut self) -> ServiceResult<()> {
        self.clock += 1;
        // Phase 1 — broadcast: journal each shard's submit batch *and* its
        // tick, start making both durable with ONE pipelined group commit
        // (the epoch fsync runs in the background; the ack barrier in
        // phase 2 waits for it), then enqueue both commands without
        // waiting. All shards overlap their round execution from here.
        let mut joins: Vec<Option<u64>> = vec![None; self.seats.len()];
        for (shard, join) in joins.iter_mut().enumerate() {
            self.breaker_step(shard)?;
            if self.breaker_open(shard) {
                self.shed_pending(shard);
                continue;
            }
            self.ensure_live(shard, "worker found dead before tick")?;
            if self.breaker_open(shard) {
                continue;
            }
            let batch = self.journal_pending(shard)?;
            let offset = self.seats[shard].store.append(&WalRecord::Tick)?;
            self.seats[shard].store.commit_begin()?;
            self.seats[shard].ticks += 1;
            let seq = offset + 1;
            if let Some((entries, batch_seq)) = batch {
                let deadline = Instant::now() + self.config.retry.op_timeout;
                match self.seats[shard]
                    .handle
                    .send_deadline(Command::SubmitBatch { entries, seq: batch_seq }, deadline)
                {
                    Ok(()) => {}
                    Err(ServiceError::Timeout(_)) | Err(ServiceError::ShardDown(_)) => {
                        // Both records are journaled: recovery replays the
                        // batch and the tick together, no sends or join.
                        self.recover(shard, "batch did not enqueue")?;
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            let deadline = Instant::now() + self.config.retry.op_timeout;
            match self.seats[shard].handle.send_deadline(Command::Tick { seq }, deadline) {
                Ok(()) => *join = Some(seq),
                Err(ServiceError::Timeout(_)) | Err(ServiceError::ShardDown(_)) => {
                    // Journaled: recovery replays the tick, no join needed.
                    self.recover(shard, "tick did not enqueue")?;
                }
                Err(e) => return Err(e),
            }
        }
        // Phase 2 — join: wait for every shard's applied offset to reach
        // its tick epoch, then hold the **ack barrier**: the epoch's
        // background fsync must land before this tick returns and
        // externalizes the epoch. Shards that needed recovery in phase 1
        // replayed the epoch synchronously and skip the applied join.
        for (shard, join) in joins.iter().enumerate() {
            if let Some(seq) = *join {
                let deadline = Instant::now() + self.config.retry.op_timeout;
                match self.seats[shard].handle.wait_applied(seq, deadline) {
                    Ok(()) => self.breaker_note_healthy(shard),
                    Err(ServiceError::Timeout(_)) | Err(ServiceError::ShardDown(_)) => {
                        self.recover(shard, "tick epoch was not acknowledged")?;
                    }
                    Err(e) => return Err(e),
                }
            }
            self.seats[shard].store.commit_wait()?;
        }
        // Phase 3 — checkpoints, on the journaled-tick cadence. Open
        // shards have no worker to snapshot; they checkpoint after the
        // probe rebuild catches them up.
        let every = self.config.checkpoint_every;
        if every > 0 {
            for shard in 0..self.seats.len() {
                if self.breaker_open(shard) {
                    continue;
                }
                if self.seats[shard].ticks.is_multiple_of(every) {
                    self.checkpoint(shard)?;
                }
            }
        }
        Ok(())
    }

    /// Takes, validates and adopts a checkpoint of one shard now. A corrupt
    /// snapshot reply is rejected (the previous checkpoints stay); a dead or
    /// stalled worker triggers recovery instead.
    pub fn checkpoint(&mut self, shard: usize) -> ServiceResult<()> {
        if shard >= self.seats.len() {
            return Err(ServiceError::UnknownShard(shard));
        }
        self.force_probe(shard)?;
        // Any buffered submits must be journaled before the offset is
        // captured, or the checkpoint would claim to cover them.
        self.flush_shard(shard)?;
        let offset = self.seats[shard].store.end();
        let ticks = self.seats[shard].ticks;
        let snap = match self.seats[shard].handle.round_trip_deadline(
            |reply| Command::Snapshot { reply },
            self.config.retry.op_timeout,
        ) {
            Ok(snap) => snap,
            Err(ServiceError::Timeout(_)) | Err(ServiceError::ShardDown(_)) => {
                return self.recover(shard, "checkpoint snapshot did not answer");
            }
            Err(e) => return Err(e),
        };
        if let Err(e) = self.validate_checkpoint(shard, &snap) {
            self.seats[shard].checkpoints_rejected += 1;
            self.events.push(RecoveryEvent {
                shard,
                cause: format!("checkpoint rejected: {e}"),
                replayed: 0,
            });
            return Ok(());
        }
        // Adoption delegates retention + WAL garbage collection (and, on
        // disk, the durable checkpoint file write) to the store.
        self.seats[shard]
            .store
            .put_checkpoint(Checkpoint { snapshot: snap, wal_offset: offset, ticks })
    }

    /// Cheap structural validation of a would-be checkpoint: topology,
    /// routing, job conservation, and agreement with the tenant directory.
    /// (Full replay verification happens at recovery, with fallback.)
    fn validate_checkpoint(&self, shard: usize, snap: &ShardSnapshot) -> ServiceResult<()> {
        if snap.shard != shard {
            return Err(ServiceError::Corrupt(format!(
                "snapshot claims shard {}, expected {shard}",
                snap.shard
            )));
        }
        snap.validate(self.seats.len(), |id| shard_for(id, self.seats.len()))?;
        for (id, _) in &snap.tenants {
            if self.tenants.get(id) != Some(&shard) {
                return Err(ServiceError::UnknownTenant(*id));
            }
        }
        Ok(())
    }

    /// Handles a shard failure: normally rebuilds from checkpoint + WAL,
    /// but when an installed circuit breaker detects a restart storm the
    /// shard is left down (open breaker) and its traffic sheds until a
    /// half-open probe succeeds — a permanently dying shard costs a bounded
    /// number of respawns instead of one per epoch.
    fn recover(&mut self, shard: usize, cause: &str) -> ServiceResult<()> {
        if self.breaker_gate(shard, cause) {
            return Ok(());
        }
        self.rebuild(shard, cause)
    }

    /// Rebuilds a dead, stalled or misbehaving shard from its newest
    /// checkpoint plus the WAL suffix, falling back to older checkpoints if
    /// replay verification reports divergence. The old worker is abandoned,
    /// never joined — a stalled thread cannot hang the supervisor.
    fn rebuild(&mut self, shard: usize, cause: &str) -> ServiceResult<()> {
        let panic_msg = self.seats[shard].handle.panic_message();
        let seat = &self.seats[shard];
        let mut rebuilt: Option<(BTreeMap<TenantId, Tenant>, u64)> = None;
        let mut last_err = ServiceError::ShardDown(shard);
        for ck in seat.store.checkpoints().iter().rev() {
            // The store's retained window includes staged-but-uncommitted
            // records, so worker-death recovery never loses the tail the
            // live supervisor already externalized.
            let suffix = seat.store.records_from(ck.wal_offset);
            let restored = restore_tenants(ck.snapshot.clone()).and_then(|mut tenants| {
                replay(&mut tenants, suffix.iter(), self.config.shed.inbox_watermark)
                    .map(|replayed| (tenants, replayed))
            });
            match restored {
                Ok(done) => {
                    rebuilt = Some(done);
                    break;
                }
                Err(e) => last_err = e,
            }
        }
        let Some((tenants, replayed)) = rebuilt else {
            return Err(last_err);
        };
        // Replay covered the whole retained WAL, so the respawned worker
        // starts with every journaled record already applied.
        let replacement = spawn_shard_with(
            Supervisor::worker_config(
                &self.config,
                shard,
                self.seats[shard].ticks,
                self.seats[shard].store.end(),
            ),
            Arc::clone(&self.seats[shard].faults),
            tenants,
        )?;
        let old = std::mem::replace(&mut self.seats[shard].handle, replacement);
        old.abandon();
        self.seats[shard].recoveries += 1;
        let cause = match panic_msg {
            Some(msg) => format!("{cause}; worker panicked: {msg}"),
            None => cause.to_string(),
        };
        self.events.push(RecoveryEvent { shard, cause, replayed });
        Ok(())
    }

    /// Recovers `shard` if its worker thread has exited.
    fn ensure_live(&mut self, shard: usize, cause: &str) -> ServiceResult<()> {
        if self.seats[shard].handle.is_finished() {
            self.recover(shard, cause)?;
        }
        Ok(())
    }

    /// Runs a reply-bearing command against a shard with bounded retries:
    /// each timeout or dead worker triggers a recovery, then a
    /// seeded-jittered exponentially backed-off retry (capped at the op
    /// deadline), up to [`RetryPolicy::attempts`].
    fn with_retry<T>(
        &mut self,
        shard: usize,
        what: &str,
        op: impl Fn(&ShardHandle, Duration) -> ServiceResult<T>,
    ) -> ServiceResult<T> {
        let RetryPolicy { attempts, op_timeout, .. } = self.config.retry;
        let mut last = ServiceError::ShardDown(shard);
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(self.config.retry.backoff_for(attempt, shard as u64));
            }
            match op(&self.seats[shard].handle, op_timeout) {
                Ok(v) => return Ok(v),
                Err(e @ (ServiceError::Timeout(_) | ServiceError::ShardDown(_))) => {
                    last = e;
                    self.recover(shard, what)?;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    /// Captures one shard's state (with retry + recovery).
    pub fn snapshot_shard(&mut self, shard: usize) -> ServiceResult<ShardSnapshot> {
        if shard >= self.seats.len() {
            return Err(ServiceError::UnknownShard(shard));
        }
        self.force_probe(shard)?;
        // The snapshot must see buffered submits (queue order guarantees the
        // worker applies the batch before answering).
        self.flush_shard(shard)?;
        self.with_retry(shard, "snapshot did not answer", |h, t| {
            h.round_trip_deadline(|reply| Command::Snapshot { reply }, t)
        })
    }

    /// Collects service-wide counters; shed counts are per tenant
    /// (inbox-watermark sheds from the tenants themselves, queue-watermark
    /// sheds from the supervisor's ledger) and each shard carries its
    /// recovery count.
    pub fn stats(&mut self) -> ServiceResult<ServiceStats> {
        let mut shards = Vec::new();
        let mut tenants = Vec::new();
        for shard in 0..self.seats.len() {
            self.force_probe(shard)?;
            self.flush_shard(shard)?;
            let mut s = self.with_retry(shard, "stats did not answer", |h, t| {
                h.round_trip_deadline(|reply| Command::Stats { reply }, t)
            })?;
            let snap = self.snapshot_shard(shard)?;
            s.recoveries = self.seats[shard].recoveries;
            s.breaker_trips = self.seats[shard].trips;
            for (id, t) in snap.tenants {
                let queue_shed = self.queue_shed.get(&id).copied().unwrap_or(0);
                s.shed_jobs += queue_shed;
                let r = &t.engine.result;
                tenants.push((
                    id,
                    crate::tenant::TenantProgress {
                        rounds: r.rounds,
                        arrived: t.arrived(),
                        executed: r.executed,
                        dropped: r.dropped_jobs,
                        pending: t.engine.pending.total(),
                        inbox: t.inbox.iter().map(|&(_, k)| k).sum(),
                        shed: t.shed + queue_shed,
                        cost: r.cost,
                        reconfig_events: r.reconfig_events,
                    },
                ));
            }
            shards.push(s);
        }
        tenants.sort_by_key(|&(id, _)| id);
        Ok(ServiceStats { shards, tenants, storage: self.backend.stats() })
    }

    /// Drains every tenant to its horizon (with retry + recovery per shard)
    /// and returns the final per-tenant results in ascending tenant order.
    pub fn finish(mut self) -> ServiceResult<BTreeMap<TenantId, RunResult>> {
        let mut results = BTreeMap::new();
        for shard in 0..self.seats.len() {
            self.force_probe(shard)?;
            self.flush_shard(shard)?;
            let finished =
                self.with_retry(shard, "finish did not answer", |h, t| h.finish_timeout(t))?;
            for (id, r) in finished {
                results.insert(id, r);
            }
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{Fault, FaultKind};
    use crate::policy::PolicySpec;
    use rrs_core::{ColorId, ColorTable};

    fn spec() -> TenantSpec {
        TenantSpec::new(PolicySpec::DlruEdf, ColorTable::from_delay_bounds(&[2, 4]), 4, 2)
    }

    fn quick_config(shards: usize) -> SupervisorConfig {
        SupervisorConfig {
            shards,
            queue_capacity: 8,
            checkpoint_every: 4,
            retry: RetryPolicy {
                attempts: 3,
                op_timeout: Duration::from_millis(500),
                backoff: Duration::from_millis(1),
            },
            shed: ShedConfig::default(),
            ..SupervisorConfig::default()
        }
    }

    fn drive(sup: &mut Supervisor, tenants: u64, rounds: u64) {
        for round in 0..rounds {
            for id in 0..tenants {
                sup.submit(id, vec![(ColorId((id % 2) as u32), 1 + round % 3)]).unwrap();
            }
            sup.tick().unwrap();
        }
    }

    #[test]
    fn supervised_run_matches_plain_run_without_faults() {
        let mut a = Supervisor::new(quick_config(2)).unwrap();
        let mut b = Supervisor::new(SupervisorConfig {
            checkpoint_every: 0, // genesis-only: recovery would replay all
            ..quick_config(2)
        })
        .unwrap();
        for sup in [&mut a, &mut b] {
            for id in 0..4 {
                sup.add_tenant(id, spec()).unwrap();
            }
            drive(sup, 4, 6);
        }
        assert_eq!(a.finish().unwrap(), b.finish().unwrap());
    }

    #[test]
    fn panic_mid_run_recovers_bit_identically() {
        let mut clean = Supervisor::new(quick_config(2)).unwrap();
        let plan = FaultPlan {
            faults: vec![
                Fault { shard: 0, at_tick: 3, kind: FaultKind::Panic },
                Fault { shard: 1, at_tick: 5, kind: FaultKind::Panic },
            ],
        };
        let mut chaotic = Supervisor::with_faults(quick_config(2), &plan).unwrap();
        for sup in [&mut clean, &mut chaotic] {
            for id in 0..4 {
                sup.add_tenant(id, spec()).unwrap();
            }
            drive(sup, 4, 8);
        }
        assert!(chaotic.recoveries() >= 2, "both injected panics recovered");
        let events = chaotic.recovery_events().to_vec();
        assert!(
            events.iter().any(|e| e.cause.contains("injected fault")),
            "panic message captured: {events:?}"
        );
        assert_eq!(chaotic.finish().unwrap(), clean.finish().unwrap());
    }

    #[test]
    fn corrupted_checkpoint_is_rejected_and_survivable() {
        let plan = FaultPlan {
            faults: vec![
                // Corrupt the first periodic checkpoint (tick 4)...
                Fault { shard: 0, at_tick: 4, kind: FaultKind::CorruptSnapshot },
                // ...then kill the worker so recovery must use older state.
                Fault { shard: 0, at_tick: 6, kind: FaultKind::Panic },
            ],
        };
        let mut clean = Supervisor::new(quick_config(1)).unwrap();
        let mut chaotic = Supervisor::with_faults(quick_config(1), &plan).unwrap();
        for sup in [&mut clean, &mut chaotic] {
            sup.add_tenant(0, spec()).unwrap();
            drive(sup, 1, 10);
        }
        assert_eq!(chaotic.checkpoints_rejected(), 1);
        assert!(chaotic.recoveries() >= 1);
        assert_eq!(chaotic.finish().unwrap(), clean.finish().unwrap());
    }

    #[test]
    fn inbox_watermark_sheds_deterministically() {
        let mut sup = Supervisor::new(SupervisorConfig {
            shed: ShedConfig { inbox_watermark: Some(2), queue_watermark: None },
            ..quick_config(1)
        })
        .unwrap();
        sup.add_tenant(0, spec()).unwrap();
        for _ in 0..5 {
            // 6 jobs per round against a watermark of 2 → 4 shed per round.
            sup.submit(0, vec![(ColorId(0), 6)]).unwrap();
            sup.tick().unwrap();
        }
        let stats = sup.stats().unwrap();
        assert_eq!(stats.shed(), 20);
        assert_eq!(stats.tenants[0].1.shed, 20);
        assert_eq!(stats.tenants[0].1.arrived, 10, "watermark admits 2 per round");
        assert!(stats.conserves_jobs());
        sup.finish().unwrap();
    }

    #[test]
    fn retry_backoff_is_jittered_bounded_and_deterministic() {
        let p = RetryPolicy {
            attempts: 5,
            op_timeout: Duration::from_millis(40),
            backoff: Duration::from_millis(10),
        };
        for attempt in 1..6u32 {
            let base = p.backoff.saturating_mul(1 << (attempt - 1)).min(p.op_timeout);
            for seed in 0..8u64 {
                let d = p.backoff_for(attempt, seed);
                assert!(d >= base / 2 && d <= base, "attempt {attempt} seed {seed}: {d:?}");
                assert_eq!(d, p.backoff_for(attempt, seed), "deterministic per (attempt, seed)");
            }
        }
        assert!(
            (1..6u32).any(|a| p.backoff_for(a, 1) != p.backoff_for(a, 2)),
            "seeds 1 and 2 never diverged"
        );
    }

    #[test]
    fn breaker_bounds_restart_storms_and_accounts_shed() {
        // A shard that panics on every tick: an unguarded supervisor
        // respawns it every epoch.
        let storm = FaultPlan {
            faults: (1..=30)
                .map(|t| Fault { shard: 0, at_tick: t, kind: FaultKind::Panic })
                .collect(),
        };
        let mut unguarded = Supervisor::with_faults(quick_config(1), &storm).unwrap();
        unguarded.add_tenant(0, spec()).unwrap();
        drive(&mut unguarded, 1, 12);
        let unguarded_recoveries = unguarded.recoveries();
        assert!(unguarded_recoveries >= 8, "storm respawns ~every epoch: {unguarded_recoveries}");
        unguarded.finish().unwrap();

        // The breaker trips after 3 recoveries in the window and, with a
        // cooldown longer than the run, never probes during it — so the
        // respawn count is provably bounded by trip_after plus the forced
        // probe at the final stats/finish round-trips.
        let mut guarded = Supervisor::with_faults(quick_config(1), &storm).unwrap();
        guarded.set_breaker(BreakerConfig {
            trip_after: 3,
            window: 64,
            cooldown: 1_000,
            probes: 2,
        });
        guarded.add_tenant(0, spec()).unwrap();
        drive(&mut guarded, 1, 12);
        assert_eq!(guarded.breaker_trips(), 1, "one trip, then the shard stays open");
        assert!(
            guarded.recoveries() <= 4,
            "respawns bounded by trip_after + forced probe: {}",
            guarded.recoveries()
        );
        assert!(guarded.breaker_open(0), "still open before any forced probe");
        let stats = guarded.stats().unwrap();
        assert_eq!(stats.shards[0].breaker_trips, 1);
        assert!(stats.conserves_jobs(), "shed accounting keeps jobs conserved");
        assert!(
            stats.tenants[0].1.shed > 0,
            "traffic to the open shard was shed with accounting"
        );
        assert!(
            guarded
                .recovery_events()
                .iter()
                .any(|e| e.cause.contains("breaker opened")),
            "trip is logged: {:?}",
            guarded.recovery_events()
        );
        guarded.finish().unwrap();
    }

    #[test]
    fn breaker_closes_after_healthy_probe_window() {
        // Three quick deaths trip the breaker; after the cooldown the
        // half-open probe survives (no more armed faults) and the breaker
        // closes, restoring normal service.
        let storm = FaultPlan {
            faults: (1..=3)
                .map(|t| Fault { shard: 0, at_tick: t, kind: FaultKind::Panic })
                .collect(),
        };
        let mut sup = Supervisor::with_faults(quick_config(1), &storm).unwrap();
        sup.set_breaker(BreakerConfig { trip_after: 3, window: 16, cooldown: 2, probes: 2 });
        sup.add_tenant(0, spec()).unwrap();
        drive(&mut sup, 1, 12);
        assert_eq!(sup.breaker_trips(), 1);
        assert!(!sup.breaker_open(0), "probe succeeded and the breaker closed");
        assert!(
            sup.recovery_events()
                .iter()
                .any(|e| e.cause.contains("breaker closed")),
            "close is logged: {:?}",
            sup.recovery_events()
        );
        let stats = sup.stats().unwrap();
        assert!(stats.conserves_jobs());
        sup.finish().unwrap();
    }

    #[test]
    fn duplicate_and_unknown_tenants_are_typed_errors() {
        let mut sup = Supervisor::new(quick_config(2)).unwrap();
        sup.add_tenant(1, spec()).unwrap();
        assert!(matches!(sup.add_tenant(1, spec()), Err(ServiceError::DuplicateTenant(1))));
        assert!(matches!(
            sup.submit(9, vec![(ColorId(0), 1)]),
            Err(ServiceError::UnknownTenant(9))
        ));
        sup.finish().unwrap();
    }
}
