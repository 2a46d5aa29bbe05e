//! Pluggable durability: the [`StorageBackend`] / [`ShardStore`] traits and
//! their two implementations.
//!
//! The supervisor journals every state-changing command and takes periodic
//! checkpoints; *where those live* is this module's concern:
//!
//! * [`MemoryBackend`] keeps them in process memory — exactly the behavior
//!   the supervisor had before this tier existed. Recovery survives worker
//!   death, not process death.
//! * [`DiskBackend`] keeps them in segmented, CRC32-framed WAL files plus
//!   checkpoint files under a data directory, with group-commit fsync at
//!   the tick-epoch boundary. A cold start rebuilds the whole service from
//!   disk, bit-identical to an uninterrupted in-memory run over the same
//!   committed prefix.
//!
//! Both implement the same narrow contract, so
//! [`crate::Supervisor::with_storage`] — and every conformance test — runs
//! identically over either.
//!
//! ## The commit boundary
//!
//! [`ShardStore::append`] stages a record and assigns its offset;
//! [`ShardStore::commit`] makes everything staged durable. The supervisor
//! calls `commit` once per shard per tick epoch (covering the epoch's
//! `SubmitBatch` *and* its `Tick` in one fsync) **before** the commands are
//! enqueued to the worker — classic write-ahead ordering. Registration
//! (`AddTenant`) commits immediately because its acknowledgement
//! externalizes the result.

mod disk;
pub mod frame;
mod memory;

pub use disk::{DiskBackend, DiskConfig};
pub use memory::MemoryBackend;

use crate::error::ServiceResult;
use crate::faults::ShardFaults;
use crate::wal::{Checkpoint, WalRecord};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// One shard's durable journal + checkpoint retention.
///
/// Offsets are absolute record indices since the shard was born (the same
/// numbering [`crate::Wal`] uses), so checkpoint adoption can garbage-collect
/// old records without renumbering.
pub trait ShardStore: Send {
    /// Stages a record for the next [`commit`](ShardStore::commit) and
    /// returns its absolute offset. The record is immediately visible to
    /// [`records_from`](ShardStore::records_from) (worker-death recovery
    /// must replay it even before it is durable — the supervisor only
    /// externalizes state *after* commit).
    fn append(&mut self, record: &WalRecord) -> ServiceResult<u64>;

    /// Makes every staged record durable (the group-commit fsync boundary).
    /// A no-op when nothing is staged, and for memory-backed stores.
    fn commit(&mut self) -> ServiceResult<()>;

    /// Starts making the staged records durable without waiting for the
    /// fsync to land (pipelined group commit). A caller that externalizes
    /// state on return **must** pair this with
    /// [`commit_wait`](ShardStore::commit_wait) before publishing — the ack
    /// barrier. Default: a full synchronous [`commit`](ShardStore::commit),
    /// so stores without a pipeline keep the old semantics.
    fn commit_begin(&mut self) -> ServiceResult<()> {
        self.commit()
    }

    /// Blocks until every commit begun so far is durable, surfacing any
    /// background fsync outcome. Default: no-op (synchronous stores are
    /// already durable when `commit` returns).
    fn commit_wait(&mut self) -> ServiceResult<()> {
        Ok(())
    }

    /// The absolute offset one past the last appended record.
    fn end(&self) -> u64;

    /// The retained records from absolute offset `from` (clamped to the
    /// retained window) to the end, committed or staged. The disk store
    /// keeps its records as CRC-checked frames and decodes them here, on
    /// demand; a frame that passes its CRC but does not decode ends the
    /// list there (see [`try_records_from`](ShardStore::try_records_from)).
    fn records_from(&self, from: u64) -> Vec<WalRecord>;

    /// [`records_from`](ShardStore::records_from), except that a retained
    /// record that does not decode is an error rather than the end of the
    /// list. Both recovery ladders read their replay suffix through this,
    /// so a fallback to an older checkpoint across such a frame fails its
    /// rung instead of replaying a shorter suffix. Default: `records_from`,
    /// for stores that hold their records decoded.
    fn try_records_from(&self, from: u64) -> ServiceResult<Vec<WalRecord>> {
        Ok(self.records_from(from))
    }

    /// Adopts a validated checkpoint: persists it, prunes retention down to
    /// the store's limit, and garbage-collects records older than the
    /// oldest retained checkpoint.
    fn put_checkpoint(&mut self, checkpoint: Checkpoint) -> ServiceResult<()>;

    /// Retained checkpoints, oldest → newest. Never empty: a store with no
    /// adopted checkpoint reports the genesis checkpoint, so recovery can
    /// always start somewhere.
    fn checkpoints(&self) -> Vec<Checkpoint>;
}

/// A factory for [`ShardStore`]s plus tier-wide observability.
pub trait StorageBackend: Send {
    /// Short human-readable backend name (`"memory"` / `"disk"`).
    fn name(&self) -> &'static str;

    /// Opens (creating or recovering) the store for one shard. `faults`
    /// carries the shard's deterministic fault schedule; disk stores arm
    /// torn-write / partial-fsync / corrupt-CRC faults from it, memory
    /// stores ignore it.
    fn open_shard(
        &mut self,
        shard: usize,
        faults: Arc<ShardFaults>,
    ) -> ServiceResult<Box<dyn ShardStore>>;

    /// Cumulative counters across every store this backend opened.
    fn stats(&self) -> StorageStats;
}

/// Monotonic counters for the storage tier, surfaced in
/// [`crate::ServiceStats::storage`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StorageStats {
    /// Backend name (`"memory"` or `"disk"`).
    pub backend: String,
    /// Group commits that wrote at least one staged record.
    pub commits: u64,
    /// `fsync` calls issued (0 when fsync is disabled in [`DiskConfig`]).
    pub fsyncs: u64,
    /// WAL bytes written, including frame headers.
    pub bytes_written: u64,
    /// Serialized payload bytes produced for WAL records and checkpoints
    /// (framing excluded) — the bytes-on-disk figure that moves when the
    /// encoding changes, next to `bytes_written` which adds framing and
    /// rewrite amplification.
    #[serde(default)]
    pub payload_bytes: u64,
    /// WAL segment files created.
    pub segments_created: u64,
    /// Checkpoint files written.
    pub checkpoints_written: u64,
    /// Checkpoint files deleted by retention.
    pub checkpoints_pruned: u64,
    /// Torn segment tails truncated away during recovery scans.
    pub torn_tails_repaired: u64,
    /// Complete-but-invalid frames (CRC or decode failures) that ended a
    /// recovery scan.
    pub corrupt_frames_dropped: u64,
    /// Checkpoint files skipped during recovery (unreadable or corrupt).
    pub checkpoints_skipped: u64,
    /// Stores wedged by an injected torn-write / partial-fsync fault
    /// (writes silently stop; the service continues in memory).
    pub wedged: u64,
    /// Write attempts retried after a transient IO error (seeded-jittered
    /// exponential backoff inside one group commit).
    pub retries: u64,
    /// Damaged files moved into `.quarantine/` during recovery scans
    /// instead of wedging the store.
    pub quarantines: u64,
    /// Group commits served from the degraded memory mirror while the disk
    /// was unavailable (each one doubles as a re-attach probe).
    pub degraded_commits: u64,
    /// Successful heals: a degraded store backfilled its missed records
    /// from the memory mirror and re-attached durability.
    pub heal_events: u64,
    /// WAL segment files reclaimed by checkpoint-retention GC — segments
    /// wholly below the oldest retained checkpoint, deleted at checkpoint
    /// time and on cold start.
    #[serde(default)]
    pub wal_segments_reclaimed: u64,
    /// Bytes of WAL deleted with those reclaimed segments.
    #[serde(default)]
    pub wal_bytes_reclaimed: u64,
}

impl fmt::Display for StorageStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "storage[{}]: {} commits, {} fsyncs, {} bytes ({} payload), \
             {} segments (-{} gc'd, {} B), {} ckpts (+{} pruned), \
             heal {}r/{}q/{}d/{}h",
            self.backend,
            self.commits,
            self.fsyncs,
            self.bytes_written,
            self.payload_bytes,
            self.segments_created,
            self.wal_segments_reclaimed,
            self.wal_bytes_reclaimed,
            self.checkpoints_written,
            self.checkpoints_pruned,
            self.retries,
            self.quarantines,
            self.degraded_commits,
            self.heal_events,
        )
    }
}
