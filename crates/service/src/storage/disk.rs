//! The on-disk storage backend: segmented CRC32-framed WAL files plus
//! checkpoint files, with group-commit fsync and crash recovery.
//!
//! ## Layout
//!
//! ```text
//! <root>/
//!   shard-000/
//!     wal-800.seg      segment whose first record has absolute offset 800,
//!                      cut when the checkpoint at 800 was adopted
//!     wal-1200.seg     the open segment, cut at the checkpoint at 1200
//!     ck-800.ck        oldest retained checkpoint: the first 800 records
//!     ck-1200.ck       newest retained checkpoint
//!   shard-001/ …
//! ```
//!
//! Segments and checkpoints both hold [`super::frame`]-encoded records
//! (`[len][crc][0xB1][rrs-codec body]`, the only format), so every byte on
//! disk is covered by a CRC. Adopting a checkpoint closes the
//! open segment, so segments start at checkpoint offsets. A segment also
//! closes once it reaches `max_segment_bytes` (the only cut when
//! checkpoints are off), and the segment a cold start recovers last stays
//! closed. Retention keeps two checkpoints and deletes every segment that
//! ends at or below the older one, so the retained WAL is one checkpoint
//! interval plus the open one. Checkpoint files are written to a temp
//! name, fsynced, then renamed, so a crash never leaves a half checkpoint
//! under a live name.
//!
//! ## The frame mirror
//!
//! The store keeps each retained segment's bytes in memory, exactly what
//! its file holds or will hold once the next commit writes the rest, with
//! the byte offset of each record's frame. [`ShardStore::append`] encodes a
//! record once, straight into the open segment's buffer;
//! [`ShardStore::commit`] writes the bytes not yet written with **one**
//! write + fsync (the group commit — the supervisor calls it once per tick
//! epoch, before any command is enqueued); [`ShardStore::records_from`]
//! decodes on demand. Worker-death recovery reads the mirror, never the
//! disk.
//!
//! ## Recovery (open)
//!
//! Opening a shard directory first reads every checkpoint. One written in
//! a retired format — JSON, or the log-bearing shape (each tenant's
//! per-round arrival log, restored by replay) — refuses the cold start
//! with [`ServiceError::UnsupportedFormat`] before any file is touched:
//! such a directory is neither migrated nor quarantined. Otherwise the
//! scan keeps the valid checkpoints (quarantining corrupt ones) and reads
//! the segments in offset order into the mirror, checking each frame's CRC
//! without decoding it. The first torn or corrupt frame ends the log: the
//! torn tail is truncated away and later segments (unreachable once the
//! offset chain breaks) are quarantined. One segment is the exception:
//! when the chain breaks below the newest checkpoint and a segment starts
//! exactly at that checkpoint's offset, the walk restarts there, since the
//! checkpoint covers every record lost. The older checkpoint and the
//! segments below the newest one are then dropped, as they are when no
//! such segment exists and the checkpoint alone is the recovered state.
//! Then only the frames past the newest checkpoint are decoded, each once,
//! and those records are what the cold start replays. A CRC-valid frame
//! among them that does not decode is checked before anything is cut: a
//! JSON frame or a per-submit `Submit` record refuses the cold start the
//! same way, leaving the directory byte-identical; anything else ends the
//! log as a corrupt frame does. Frames below the newest checkpoint stay
//! undecoded. A fallback to an older checkpoint decodes them through
//! [`ShardStore::try_records_from`], which fails on a frame that does not
//! decode instead of returning a shorter suffix. Each file is read once,
//! with a plain `fs::read`.
//!
//! ## Self-healing
//!
//! Live IO failures no longer wedge the store. Each failure is classified
//! **transient** (interrupted / would-block / timed-out, or an injected
//! [`FaultKind::TransientIo`] / [`FaultKind::IoErrorBurst`]) or
//! **permanent** (everything else, e.g. an injected [`FaultKind::DiskFull`]).
//! Transient write failures are retried in place with seeded-jittered
//! exponential backoff; when retries exhaust — or a permanent failure hits —
//! the store drops to **degraded memory-mirror mode**: appends keep landing
//! in the mirror (the live service stays correct and keeps serving), every
//! subsequent commit doubles as a re-attach probe, and the first probe that
//! can write again *backfills* the frames missed while degraded (each
//! segment's bytes past what its file holds, copied from the mirror without
//! re-encoding) before resuming normal commits — a heal event. Recovery
//! scans move unreadable or unreachable files into `.quarantine/` (with a
//! `MANIFEST` line per file) instead of deleting evidence. All of it is
//! counted: `retries`, `quarantines`, `degraded_commits`, `heal_events`.
//!
//! ## Pipelined fsync
//!
//! With `pipeline_fsync` on (the default), group-commit fsyncs are executed
//! by one background thread per backend: `commit_begin` writes the staged
//! frames and enqueues the fsync; `commit_wait` is the **ack barrier** — it
//! blocks until every enqueued fsync for this store has landed, so the
//! supervisor still externalizes state only after the epoch is durable. The
//! write→fsync→publish ordering is unchanged; only the wait overlaps with
//! the epoch's worker round-trips. A background fsync failure degrades the
//! store (self-healing) instead of surfacing as a hard error. The
//! crash-consistency story is identical to synchronous fsync.
//!
//! ## Fault injection
//!
//! Torn-write / partial-fsync faults fire during a commit and then **wedge**
//! the store: subsequent writes are silently dropped while the in-memory
//! mirror keeps the live service correct — exactly the state of a machine
//! whose disk froze at that instant. A later cold start sees only the
//! committed prefix, which is what the crash-recovery suite asserts against.
//! The IO-fault kinds above instead exercise the self-healing paths and
//! must lose nothing.

use super::frame::{self, FrameError};
use super::memory::RETAINED;
use super::{ShardStore, StorageBackend, StorageStats};
use crate::error::{ServiceError, ServiceResult};
use crate::faults::{self, FaultKind, ShardFaults};
use crate::wal::{Checkpoint, WalRecord};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Disk backend tuning. `root` is the only required decision.
#[derive(Debug, Clone)]
pub struct DiskConfig {
    /// Data directory; one `shard-NNN` subdirectory per shard.
    pub root: PathBuf,
    /// Issue `fsync` on commits and checkpoint writes. Disable only in
    /// tests that don't model power loss — without fsync a "committed"
    /// record can still vanish in a real crash.
    pub fsync: bool,
    /// Close the open segment once it reaches this many bytes (checked
    /// after each commit). Adopting a checkpoint closes it too, so the cap
    /// only decides segment size with `checkpoint_every 0` or past it.
    pub max_segment_bytes: u64,
    /// Write attempts per group commit (including the first) before a
    /// transient IO failure degrades the store to memory-mirror mode.
    pub io_retries: u32,
    /// Base pause before the first retry of a transient IO failure; doubles
    /// per retry, with deterministic per-shard jitter in `[pause/2, pause]`.
    pub io_backoff: Duration,
    /// Run group-commit fsyncs on a background thread (`commit_begin` /
    /// `commit_wait` pipelining). Acks still publish only after the epoch's
    /// fsync lands; this only overlaps the wait with worker round-trips.
    pub pipeline_fsync: bool,
}

impl DiskConfig {
    /// Defaults (fsync on and pipelined, 256 KiB segments, 4 write attempts
    /// with 500 µs base backoff) rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        DiskConfig {
            root: root.into(),
            fsync: true,
            max_segment_bytes: 256 * 1024,
            io_retries: 4,
            io_backoff: Duration::from_micros(500),
            pipeline_fsync: true,
        }
    }

    /// Preflight check that `root` can actually back a disk store: it must
    /// be (or be creatable as) a directory we can write into. Returns the
    /// typed [`ServiceError::InvalidDataDir`] the CLI maps to exit code 2.
    pub fn validate(&self) -> ServiceResult<()> {
        let path = self.root.display().to_string();
        if self.root.exists() && !self.root.is_dir() {
            return Err(ServiceError::InvalidDataDir {
                path,
                reason: "exists but is not a directory".into(),
            });
        }
        fs::create_dir_all(&self.root).map_err(|e| ServiceError::InvalidDataDir {
            path: path.clone(),
            reason: format!("cannot create: {e}"),
        })?;
        let probe = self.root.join(".rrs-writable-probe");
        fs::write(&probe, b"probe")
            .map_err(|e| ServiceError::InvalidDataDir {
                path: path.clone(),
                reason: format!("not writable: {e}"),
            })?;
        let _ = fs::remove_file(&probe);
        Ok(())
    }
}

/// Tier-wide atomic counters shared by every store of one backend.
#[derive(Debug, Default)]
struct Counters {
    commits: AtomicU64,
    fsyncs: AtomicU64,
    bytes_written: AtomicU64,
    payload_bytes: AtomicU64,
    segments_created: AtomicU64,
    checkpoints_written: AtomicU64,
    checkpoints_pruned: AtomicU64,
    torn_tails_repaired: AtomicU64,
    corrupt_frames_dropped: AtomicU64,
    checkpoints_skipped: AtomicU64,
    wedged: AtomicU64,
    retries: AtomicU64,
    quarantines: AtomicU64,
    degraded_commits: AtomicU64,
    heal_events: AtomicU64,
    wal_segments_reclaimed: AtomicU64,
    wal_bytes_reclaimed: AtomicU64,
}

/// One background-fsync request: sync this handle, then settle the owning
/// store's barrier.
struct FsyncJob {
    file: File,
    sync: Arc<SyncState>,
    counters: Arc<Counters>,
}

/// Per-store barrier between `commit_begin` (enqueue) and `commit_wait`.
#[derive(Debug, Default)]
struct SyncState {
    inner: Mutex<SyncInner>,
    done: Condvar,
}

#[derive(Debug, Default)]
struct SyncInner {
    pending: u64,
    /// First background fsync failure since the last wait, if any.
    error: Option<String>,
}

impl SyncState {
    fn enqueue(&self) {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).pending += 1;
    }

    fn complete(&self, error: Option<String>) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.pending = inner.pending.saturating_sub(1);
        if inner.error.is_none() {
            inner.error = error;
        }
        drop(inner);
        self.done.notify_all();
    }

    /// Blocks until every enqueued fsync has completed; returns the first
    /// failure observed since the previous wait.
    fn wait_idle(&self) -> Option<String> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        while inner.pending > 0 {
            inner = self.done.wait(inner).unwrap_or_else(|p| p.into_inner());
        }
        inner.error.take()
    }
}

/// Durable storage rooted at a data directory. See the module docs.
#[derive(Debug)]
pub struct DiskBackend {
    config: DiskConfig,
    counters: Arc<Counters>,
    /// Submission side of the background fsync thread (None ⇒ fsyncs run
    /// inline). The thread drains the channel and exits once every sender —
    /// the backend's and each store's — is gone.
    pipe: Option<Sender<FsyncJob>>,
}

impl DiskBackend {
    /// A disk backend over `config.root` (created on first shard open).
    pub fn new(config: DiskConfig) -> Self {
        let pipe = if config.fsync && config.pipeline_fsync {
            let (tx, rx) = mpsc::channel::<FsyncJob>();
            std::thread::Builder::new()
                .name("rrs-fsync".into())
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        let res = job.file.sync_data();
                        job.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
                        job.sync.complete(res.err().map(|e| e.to_string()));
                    }
                })
                .ok()
                .map(|_| tx)
        } else {
            None
        };
        DiskBackend { config, counters: Arc::new(Counters::default()), pipe }
    }
}

impl StorageBackend for DiskBackend {
    fn name(&self) -> &'static str {
        "disk"
    }

    fn open_shard(
        &mut self,
        shard: usize,
        faults: Arc<ShardFaults>,
    ) -> ServiceResult<Box<dyn ShardStore>> {
        let dir = self.config.root.join(format!("shard-{shard:03}"));
        let store = DiskStore::open(
            shard,
            dir,
            self.config.clone(),
            Arc::clone(&self.counters),
            faults,
            self.pipe.clone(),
        )?;
        Ok(Box::new(store))
    }

    fn stats(&self) -> StorageStats {
        let c = &self.counters;
        StorageStats {
            backend: "disk".into(),
            commits: c.commits.load(Ordering::Relaxed),
            fsyncs: c.fsyncs.load(Ordering::Relaxed),
            bytes_written: c.bytes_written.load(Ordering::Relaxed),
            payload_bytes: c.payload_bytes.load(Ordering::Relaxed),
            segments_created: c.segments_created.load(Ordering::Relaxed),
            checkpoints_written: c.checkpoints_written.load(Ordering::Relaxed),
            checkpoints_pruned: c.checkpoints_pruned.load(Ordering::Relaxed),
            torn_tails_repaired: c.torn_tails_repaired.load(Ordering::Relaxed),
            corrupt_frames_dropped: c.corrupt_frames_dropped.load(Ordering::Relaxed),
            checkpoints_skipped: c.checkpoints_skipped.load(Ordering::Relaxed),
            wedged: c.wedged.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            quarantines: c.quarantines.load(Ordering::Relaxed),
            degraded_commits: c.degraded_commits.load(Ordering::Relaxed),
            heal_events: c.heal_events.load(Ordering::Relaxed),
            wal_segments_reclaimed: c.wal_segments_reclaimed.load(Ordering::Relaxed),
            wal_bytes_reclaimed: c.wal_bytes_reclaimed.load(Ordering::Relaxed),
        }
    }
}

/// One retained WAL segment in the frame mirror.
#[derive(Debug, Default)]
struct Segment {
    /// Absolute offset of the segment's first record.
    start: u64,
    /// The segment's frames, back to back: what its file holds up to
    /// `written`, then what the next commit writes.
    bytes: Vec<u8>,
    /// Byte offset in `bytes` of each record's frame.
    frames: Vec<usize>,
    /// Leading bytes of `bytes` already written to the file.
    written: usize,
    /// Whether appends still extend this segment. Only the last one can be
    /// open.
    open: bool,
}

impl Segment {
    /// An empty open segment whose first record will have offset `start`.
    fn new(start: u64) -> Self {
        Segment { start, open: true, ..Segment::default() }
    }

    /// Absolute offset one past the segment's last record.
    fn end(&self) -> u64 {
        self.start + self.frames.len() as u64
    }

    /// Record `i`'s payload: its frame less the header.
    fn payload(&self, i: usize) -> &[u8] {
        let end = self.frames.get(i + 1).copied().unwrap_or(self.bytes.len());
        &self.bytes[self.frames[i] + frame::FRAME_HEADER..end]
    }

    /// Drops record `i` and every record after it.
    fn truncate(&mut self, i: usize) {
        self.bytes.truncate(self.frames[i]);
        self.frames.truncate(i);
        self.written = self.written.min(self.bytes.len());
    }
}

#[derive(Debug)]
struct DiskStore {
    shard: usize,
    dir: PathBuf,
    config: DiskConfig,
    counters: Arc<Counters>,
    faults: Arc<ShardFaults>,
    /// The frame mirror: retained segments, ascending by start offset. The
    /// last one is the write target; worker-death recovery decodes from
    /// here without touching the disk.
    segments: Vec<Segment>,
    /// The first retained record, where `records_from` clamps. Records
    /// below the oldest retained checkpoint leave the window even while
    /// their segment stays.
    base: u64,
    /// The records past the newest checkpoint, decoded once at cold start
    /// for the replay, with the offset of the first. Dropped at the first
    /// append.
    recovered: Option<(u64, Vec<WalRecord>)>,
    /// Retained checkpoints, oldest → newest (mirrors the files on disk).
    checkpoints: Vec<Checkpoint>,
    /// Open append handle into the segment starting at `tail` (None ⇒ the
    /// next write opens it).
    writer: Option<File>,
    /// Start offset of the segment the last write went to: the file a
    /// failed write or fsync may have left dirty.
    tail: u64,
    /// Group commits so far (1-based fault arming key).
    commit_count: u64,
    /// True once a torn-write/partial-fsync fault fired: all further disk
    /// writes are silently dropped.
    wedged: bool,
    /// True ⇒ degraded memory-mirror mode: the disk is failing, appends go
    /// to the mirror only, and every commit doubles as a re-attach probe.
    degraded: bool,
    /// A failed write attempt may have left garbage past the `tail`
    /// segment's written bytes; healed tails are shaved back before reuse.
    dirty_tail: bool,
    /// Injected [`FaultKind::TransientIo`]: write attempts left to fail.
    attempt_failures: u64,
    /// Injected outage ([`FaultKind::IoErrorBurst`] / [`FaultKind::DiskFull`]):
    /// group commits (or probes) left to fail, and whether the simulated
    /// errors are permanent-class.
    outage_commits: u64,
    outage_permanent: bool,
    /// Barrier between pipelined `commit_begin`s and `commit_wait`.
    sync: Arc<SyncState>,
    /// Background fsync submission (None ⇒ sync inline).
    pipe: Option<Sender<FsyncJob>>,
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> ServiceError {
    ServiceError::Storage(format!("{what} {}: {e}", path.display()))
}

fn unsupported(path: &Path, format: &'static str) -> ServiceError {
    ServiceError::UnsupportedFormat { path: path.display().to_string(), format }
}

/// A classified IO failure: transient ones are worth retrying, permanent
/// ones degrade the store immediately.
#[derive(Debug, Clone)]
struct IoFailure {
    transient: bool,
    msg: String,
}

/// Classifies a real `io::Error`: interrupted / would-block / timed-out
/// write attempts are transient blips; everything else (ENOSPC, EIO, EROFS,
/// permission changes…) is treated as permanent until a probe succeeds.
fn classify(what: &str, shard: usize, e: &std::io::Error) -> IoFailure {
    use std::io::ErrorKind;
    let transient = matches!(
        e.kind(),
        ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut
    );
    IoFailure { transient, msg: format!("{what} (shard {shard}): {e}") }
}

/// Parses `wal-<offset>.seg` / `ck-<offset>.ck` names.
fn parse_name(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
}

/// Retired formats, named in [`ServiceError::UnsupportedFormat`].
const LOG_BEARING_CHECKPOINT: &str =
    "log-bearing checkpoint (every tenant's per-round arrival log, restored by replay)";
const JSON_FRAME: &str = "JSON frame (a text payload without the binary tag)";
const PER_SUBMIT_RECORD: &str =
    "per-submit WAL record (one `Submit` record per submit, before group commit)";

/// Whether a decoded checkpoint tree has the retired shape: some tenant
/// snapshot (`snapshot.tenants[i] = [id, tenant]`) with a `log` field.
fn is_log_bearing(tree: &serde::Value) -> bool {
    let tenants = tree.get_field("snapshot").and_then(|s| s.get_field("tenants"));
    tenants.and_then(serde::Value::as_array).is_some_and(|entries| {
        entries.iter().any(|entry| {
            let tenant = entry.as_array().and_then(|pair| pair.get(1));
            tenant.is_some_and(|t| t.get_field("log").is_some())
        })
    })
}

/// Names the retired format of a CRC-valid frame payload that did not
/// decode, or `None` when it is plain corruption: a JSON document (any
/// first byte but the binary tag), a per-submit record (a tree whose one
/// key is `Submit`) or a log-bearing checkpoint.
fn retired_format(payload: &[u8]) -> Option<&'static str> {
    if payload.first()? != &frame::BINARY_TAG {
        return Some(JSON_FRAME);
    }
    let tree = frame::decode_payload::<serde::Value>(payload).ok()?;
    if is_log_bearing(&tree) {
        return Some(LOG_BEARING_CHECKPOINT);
    }
    let per_submit = tree.as_object().is_some_and(|f| f.len() == 1 && f[0].0 == "Submit");
    per_submit.then_some(PER_SUBMIT_RECORD)
}

impl DiskStore {
    fn open(
        shard: usize,
        dir: PathBuf,
        config: DiskConfig,
        counters: Arc<Counters>,
        faults: Arc<ShardFaults>,
        pipe: Option<Sender<FsyncJob>>,
    ) -> ServiceResult<Self> {
        fs::create_dir_all(&dir).map_err(|e| io_err("create", &dir, e))?;
        let mut store = DiskStore {
            shard,
            dir,
            config,
            counters,
            faults,
            segments: Vec::new(),
            base: 0,
            recovered: None,
            checkpoints: Vec::new(),
            writer: None,
            tail: 0,
            commit_count: 0,
            wedged: false,
            degraded: false,
            dirty_tail: false,
            attempt_failures: 0,
            outage_commits: 0,
            outage_permanent: false,
            sync: Arc::new(SyncState::default()),
            pipe,
        };
        store.recover_from_dir()?;
        Ok(store)
    }

    /// Scans the shard directory, repairing torn tails and dropping
    /// unreachable data, rebuilds the frame mirror + checkpoint window, and
    /// decodes the replay suffix. See the module docs for the algorithm.
    fn recover_from_dir(&mut self) -> ServiceResult<()> {
        let mut seg_files: Vec<(u64, PathBuf)> = Vec::new();
        let mut ck_files: Vec<(u64, PathBuf)> = Vec::new();
        let mut tmp_files: Vec<PathBuf> = Vec::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err("read dir", &self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read dir", &self.dir, e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(off) = parse_name(&name, "wal-", ".seg") {
                seg_files.push((off, entry.path()));
            } else if let Some(off) = parse_name(&name, "ck-", ".ck") {
                ck_files.push((off, entry.path()));
            } else if name.ends_with(".tmp") {
                // A checkpoint write that never reached its rename.
                tmp_files.push(entry.path());
            }
        }
        seg_files.sort_by_key(|&(off, _)| off);
        ck_files.sort_by_key(|&(off, _)| off);

        // Every checkpoint is read before the directory is touched: one in
        // a retired format refuses the whole cold start, leaving every file
        // where it is.
        let mut read = Vec::with_capacity(ck_files.len());
        for (_, path) in &ck_files {
            match self.read_checkpoint(path) {
                Err(e @ ServiceError::UnsupportedFormat { .. }) => return Err(e),
                ck => read.push(ck),
            }
        }
        for path in tmp_files {
            let _ = fs::remove_file(path);
        }

        // Checkpoints: newest RETAINED valid ones survive; corrupt or
        // unreadable files are counted and quarantined, stale ones pruned.
        let mut checkpoints: Vec<Checkpoint> = Vec::new();
        for ((off, path), ck) in ck_files.iter().zip(read) {
            match ck {
                Ok(ck) if ck.wal_offset == *off && ck.snapshot.shard == self.shard => {
                    checkpoints.push(ck);
                }
                _ => {
                    self.counters.checkpoints_skipped.fetch_add(1, Ordering::Relaxed);
                    self.quarantine_file(path, "corrupt or mismatched checkpoint");
                }
            }
        }
        while checkpoints.len() > RETAINED {
            let stale = checkpoints.remove(0);
            self.counters.checkpoints_pruned.fetch_add(1, Ordering::Relaxed);
            self.remove_file(&self.ck_path(stale.wal_offset));
        }

        // Segments: read each once into the mirror and walk its frames'
        // CRCs, without decoding, in offset order while the offset chain
        // stays contiguous; the first torn/corrupt frame (or gap) ends the
        // valid prefix — the tail file is truncated, later files
        // quarantined.
        self.base = seg_files.first().map(|&(off, _)| off).unwrap_or(0);
        let newest = checkpoints.last().map(|c| c.wal_offset);
        let mut broken = false;
        for (off, path) in &seg_files {
            if Some(*off) == newest && self.end() < *off {
                // The chain broke below the newest checkpoint, which covers
                // every record lost, and this segment starts exactly at it:
                // restart the walk here instead of losing its suffix too.
                self.discard_below_newest(&mut checkpoints);
                broken = false;
            }
            if broken || *off != self.end() {
                self.quarantine_file(path, "unreachable after log break");
                broken = true;
                continue;
            }
            let mut bytes = match self.read_file(path) {
                Ok(b) => b,
                Err(_) => {
                    self.counters.corrupt_frames_dropped.fetch_add(1, Ordering::Relaxed);
                    self.quarantine_file(path, "unreadable segment");
                    broken = true;
                    continue;
                }
            };
            let (frames, valid_len, err) = frame::scan_frames(&bytes);
            if let Some(err) = err {
                let reason = match err {
                    FrameError::Torn => {
                        self.counters.torn_tails_repaired.fetch_add(1, Ordering::Relaxed);
                        "no valid frames (torn)"
                    }
                    FrameError::Corrupt => {
                        self.counters.corrupt_frames_dropped.fetch_add(1, Ordering::Relaxed);
                        "no valid frames (corrupt)"
                    }
                };
                broken = true;
                if frames.is_empty() {
                    self.quarantine_file(path, reason);
                    continue;
                }
                self.truncate_file(path, valid_len as u64)?;
                bytes.truncate(valid_len);
            }
            // An empty file can only end the chain (its successor would
            // share its name); it stays open so the next append fills it.
            let open = frames.is_empty();
            self.segments.push(Segment { start: *off, written: bytes.len(), bytes, frames, open });
        }

        if newest.is_some_and(|newest| newest > self.end()) {
            // The log lost records the checkpoint already covers (e.g. a
            // corrupt frame below the checkpoint offset) and no segment
            // starts at it. The checkpoint alone is the recovered state.
            self.discard_below_newest(&mut checkpoints);
        }
        if checkpoints.is_empty() && self.base == 0 {
            // Full history on disk (or an empty directory): genesis is a
            // sound recovery base. When history was GC'd and every
            // checkpoint is gone, the window stays empty so recovery fails
            // loudly instead of silently replaying from the wrong base.
            checkpoints.push(Checkpoint::genesis(self.shard));
        }
        // Decode the replay suffix, and only it: the records past the
        // newest checkpoint. One that does not decode ends the log there.
        if let Some(from) = checkpoints.last().map(|c| c.wal_offset.max(self.base)) {
            let mut suffix = Vec::new();
            if let Err(at) = self.decode_into(from, &mut suffix) {
                self.refuse_retired(at)?;
                self.cut_log(at)?;
            }
            self.recovered = Some((from, suffix));
        }
        // Records below the oldest retained checkpoint leave the window, and
        // cold-start GC reclaims the segment files that end at or below it
        // now rather than at the next checkpoint adoption.
        self.checkpoints = checkpoints;
        if let Some(oldest) = self.checkpoints.first().map(|c| c.wal_offset) {
            self.base = self.base.max(oldest.min(self.end()));
            self.collect_segments(oldest);
        }
        Ok(())
    }

    /// Keeps only the newest checkpoint and drops the log below it: every
    /// segment in the mirror is deleted, and with the log every older
    /// checkpoint, whose replay suffix no longer exists.
    fn discard_below_newest(&mut self, checkpoints: &mut Vec<Checkpoint>) {
        for seg in std::mem::take(&mut self.segments) {
            self.remove_file(&self.seg_path(seg.start));
        }
        let Some(newest) = checkpoints.pop() else { return };
        for stale in checkpoints.drain(..) {
            if stale.wal_offset != newest.wal_offset {
                self.remove_file(&self.ck_path(stale.wal_offset));
            }
        }
        self.base = newest.wal_offset;
        checkpoints.push(newest);
    }

    /// Refuses the cold start when record `at`, a CRC-valid frame that does
    /// not decode, is in a retired format rather than corrupt. Runs before
    /// [`DiskStore::cut_log`], so nothing of such a directory is truncated.
    fn refuse_retired(&self, at: u64) -> ServiceResult<()> {
        let idx = self.segments.partition_point(|s| s.end() <= at);
        let Some(seg) = self.segments.get(idx) else {
            return Ok(());
        };
        match retired_format(seg.payload((at - seg.start) as usize)) {
            Some(format) => Err(unsupported(&self.seg_path(seg.start), format)),
            None => Ok(()),
        }
    }

    /// Ends the log before record `at`, a CRC-valid frame that does not
    /// decode, as a corrupt frame ends it: its segment is truncated before
    /// it (quarantined when it is the segment's first) and every later
    /// segment is quarantined as unreachable.
    fn cut_log(&mut self, at: u64) -> ServiceResult<()> {
        self.counters.corrupt_frames_dropped.fetch_add(1, Ordering::Relaxed);
        let idx = self.segments.partition_point(|s| s.end() <= at);
        let Some(seg) = self.segments.get(idx) else {
            return Ok(());
        };
        let (path, i) = (self.seg_path(seg.start), (at - seg.start) as usize);
        let valid_len = seg.frames[i];
        let later = self.segments.split_off(idx + 1);
        if i == 0 {
            self.quarantine_file(&path, "no valid frames (corrupt)");
            self.segments.pop();
        } else {
            self.truncate_file(&path, valid_len as u64)?;
            self.segments[idx].truncate(i);
        }
        for seg in later {
            self.quarantine_file(&self.seg_path(seg.start), "unreachable after log break");
        }
        Ok(())
    }

    /// The absolute offset one past the last record in the mirror.
    fn end(&self) -> u64 {
        self.segments.last().map_or(self.base, Segment::end)
    }

    /// Decodes the retained records from `from` (clamped to the window)
    /// onto `out`: the cold start's decoded suffix where it covers them,
    /// the mirror's frames otherwise. Stops at the first frame that does
    /// not decode and returns its offset; once the cold start has cut the
    /// log, only a frame read back from disk below the newest checkpoint
    /// can fail.
    fn decode_into(&self, from: u64, out: &mut Vec<WalRecord>) -> Result<(), u64> {
        let from = from.max(self.base);
        if let Some((at, suffix)) = &self.recovered {
            if from >= *at {
                out.extend_from_slice(suffix.get((from - at) as usize..).unwrap_or_default());
                return Ok(());
            }
        }
        out.reserve(self.end().saturating_sub(from) as usize);
        let first = self.segments.partition_point(|s| s.end() <= from);
        for seg in &self.segments[first..] {
            let skip = from.saturating_sub(seg.start) as usize;
            for i in skip..seg.frames.len() {
                match frame::decode_payload(seg.payload(i)) {
                    Ok(record) => out.push(record),
                    Err(_) => return Err(seg.start + i as u64),
                }
            }
        }
        Ok(())
    }

    /// The open segment, starting one at the end of the log if the last
    /// one is closed.
    fn open_segment(&mut self) -> &mut Segment {
        if !self.segments.last().is_some_and(|s| s.open) {
            let start = self.end();
            self.segments.push(Segment::new(start));
        }
        let last = self.segments.len() - 1;
        &mut self.segments[last]
    }

    fn seg_path(&self, start: u64) -> PathBuf {
        self.dir.join(format!("wal-{start}.seg"))
    }

    fn ck_path(&self, offset: u64) -> PathBuf {
        self.dir.join(format!("ck-{offset}.ck"))
    }

    /// Reads a whole file.
    fn read_file(&self, path: &Path) -> ServiceResult<Vec<u8>> {
        fs::read(path).map_err(|e| io_err("read", path, e))
    }

    /// Reads one checkpoint file. A file whose frame is intact but holds a
    /// retired format (JSON, or tenants carrying per-round arrival logs) is
    /// [`ServiceError::UnsupportedFormat`], not corruption.
    fn read_checkpoint(&self, path: &Path) -> ServiceResult<Checkpoint> {
        let bytes = self.read_file(path)?;
        let (ck, consumed) = frame::decode_value::<Checkpoint>(&bytes).map_err(|e| {
            let payload = frame::decode_frame(&bytes).map(|(payload, _)| payload);
            match payload.ok().and_then(retired_format) {
                Some(format) => unsupported(path, format),
                None => ServiceError::Storage(format!("{}: {e:?}", path.display())),
            }
        })?;
        if consumed != bytes.len() {
            return Err(ServiceError::Storage(format!(
                "{}: trailing bytes after checkpoint frame",
                path.display()
            )));
        }
        Ok(ck)
    }

    fn remove_file(&self, path: &Path) {
        let _ = fs::remove_file(path);
    }

    fn truncate_file(&self, path: &Path, len: u64) -> ServiceResult<()> {
        let f = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err("open", path, e))?;
        f.set_len(len).map_err(|e| io_err("truncate", path, e))?;
        if self.config.fsync {
            f.sync_data().map_err(|e| io_err("fsync", path, e))?;
        }
        Ok(())
    }

    /// Moves a damaged or unreachable file into `<shard>/.quarantine/` and
    /// appends a `MANIFEST` line naming it and why — evidence survives for
    /// post-mortems instead of being deleted, and the recovery scan never
    /// sees the file again (the `.quarantine` name parses as neither a
    /// segment nor a checkpoint). Falls back to deletion when the rename
    /// itself fails; all steps are best-effort (recovery must proceed).
    fn quarantine_file(&self, path: &Path, reason: &str) {
        let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
            return;
        };
        let qdir = self.dir.join(".quarantine");
        let moved =
            fs::create_dir_all(&qdir).is_ok() && fs::rename(path, qdir.join(&name)).is_ok();
        if !moved {
            let _ = fs::remove_file(path);
        }
        if let Ok(mut manifest) =
            OpenOptions::new().create(true).append(true).open(qdir.join("MANIFEST"))
        {
            let _ = writeln!(manifest, "{name}\t{reason}");
        }
        self.counters.quarantines.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops to degraded memory-mirror mode: the disk is failing, the live
    /// service keeps running off the mirror, and every later commit probes
    /// for re-attachment. Idempotent.
    fn enter_degraded(&mut self) {
        if self.degraded || self.wedged {
            return;
        }
        self.degraded = true;
        self.dirty_tail = true;
        self.writer = None;
        self.attempt_failures = 0;
    }

    /// Clears the wreckage of a failed write attempt so the next attempt
    /// starts from a chain-valid disk state: the `tail` segment's file is
    /// deleted when none of it was written yet, and otherwise shaved back
    /// to its written bytes and re-fsynced. The mirror keeps every frame.
    fn repair_failed_write(&mut self) -> Result<(), IoFailure> {
        self.writer = None;
        let Some(seg) = self.segments.iter().find(|s| s.start == self.tail) else {
            self.dirty_tail = false;
            return Ok(());
        };
        let path = self.seg_path(seg.start);
        if seg.written == 0 {
            self.remove_file(&path);
            self.dirty_tail = false;
            return Ok(());
        }
        let file = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| classify("reopen tail", self.shard, &e))?;
        file.set_len(seg.written as u64).map_err(|e| classify("shave tail", self.shard, &e))?;
        if self.config.fsync {
            file.sync_data().map_err(|e| classify("fsync tail", self.shard, &e))?;
        }
        self.dirty_tail = false;
        Ok(())
    }

    /// An injected outage in progress? Consumes one commit's worth and
    /// reports whether the simulated errors are permanent-class.
    fn outage_active(&mut self) -> Option<bool> {
        if self.outage_commits == 0 {
            return None;
        }
        self.outage_commits -= 1;
        Some(self.outage_permanent)
    }

    /// Writes segment `idx` up to byte `upto` as one group commit,
    /// retrying transient failures with seeded-jittered exponential
    /// backoff. `forced` carries an injected whole-commit outage
    /// (`Some(permanent)`); injected single-attempt failures come from
    /// `attempt_failures`. On `Err` the disk state has been repaired
    /// best-effort and the caller should degrade.
    fn write_with_retry(
        &mut self,
        idx: usize,
        upto: usize,
        forced: Option<bool>,
    ) -> Result<(), IoFailure> {
        let attempts = if forced == Some(true) { 1 } else { self.config.io_retries.max(1) };
        let mut last = IoFailure { transient: true, msg: "no attempt made".into() };
        for attempt in 0..attempts {
            if attempt > 0 {
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
                let base = self
                    .config
                    .io_backoff
                    .saturating_mul(1u32 << (attempt - 1).min(10));
                std::thread::sleep(faults::jittered(base, self.shard as u64, attempt as u64));
            }
            let injected = if forced.is_some() {
                Some(IoFailure {
                    transient: forced != Some(true),
                    msg: "injected IO outage".into(),
                })
            } else if self.attempt_failures > 0 {
                self.attempt_failures -= 1;
                Some(IoFailure { transient: true, msg: "injected transient IO error".into() })
            } else {
                None
            };
            let was_injected = injected.is_some();
            let result = match injected {
                Some(failure) => Err(failure),
                None => self.write_to_segment(idx, upto),
            };
            match result {
                Ok(()) => return Ok(()),
                Err(failure) => {
                    // A real failure may have half-extended the segment;
                    // shave it back before retrying (or degrading) so the
                    // on-disk chain stays valid. Injected failures fire
                    // before any byte moves, so there is nothing to repair.
                    if !was_injected {
                        let _ = self.repair_failed_write();
                    }
                    if !failure.transient {
                        return Err(failure);
                    }
                    last = failure;
                }
            }
        }
        Err(last)
    }

    /// Writes segment `idx`'s bytes from `written` to `upto` into its file
    /// (created when none of the segment is written yet, reopened for
    /// append otherwise), arranges their fsync per config — pipelined
    /// through the background thread when available, inline otherwise —
    /// and advances `written`. A closed segment, or one that reached
    /// `max_segment_bytes` (which closes it), releases the writer, so the
    /// next write opens the next segment's file.
    fn write_to_segment(&mut self, idx: usize, upto: usize) -> Result<(), IoFailure> {
        let start = self.segments[idx].start;
        if self.writer.is_none() || self.tail != start {
            self.tail = start;
            let path = self.seg_path(start);
            let fresh = self.segments[idx].written == 0;
            // `create(true)` + truncate: a same-named leftover could only be
            // an invalid tail already dropped by the recovery scan, or the
            // wreck of a failed create.
            let file = if fresh {
                OpenOptions::new().write(true).create(true).truncate(true).open(&path)
            } else {
                OpenOptions::new().append(true).open(&path)
            }
            .map_err(|e| classify("segment open", self.shard, &e))?;
            if fresh {
                self.counters.segments_created.fetch_add(1, Ordering::Relaxed);
            }
            self.writer = Some(file);
        }
        let seg = &self.segments[idx];
        let bytes = &seg.bytes[seg.written..upto];
        let Some(file) = self.writer.as_mut() else {
            return Err(IoFailure { transient: false, msg: "segment writer vanished".into() });
        };
        file.write_all(bytes).map_err(|e| classify("segment write", self.shard, &e))?;
        if self.config.fsync {
            match (self.pipe.as_ref(), file.try_clone()) {
                (Some(tx), Ok(clone)) => {
                    // Pipelined: enqueue and let commit_wait barrier on it.
                    self.sync.enqueue();
                    let job = FsyncJob {
                        file: clone,
                        sync: Arc::clone(&self.sync),
                        counters: Arc::clone(&self.counters),
                    };
                    if let Err(back) = tx.send(job) {
                        // Thread gone — sync inline and settle the barrier.
                        let job = back.0;
                        let res = job.file.sync_data();
                        job.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
                        job.sync.complete(res.err().map(|e| e.to_string()));
                    }
                }
                _ => {
                    file.sync_data()
                        .map_err(|e| classify("segment fsync", self.shard, &e))?;
                    self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.counters.bytes_written.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let seg = &mut self.segments[idx];
        seg.written = upto;
        if !seg.open || upto as u64 >= self.config.max_segment_bytes {
            seg.open = false;
            self.writer = None;
        }
        Ok(())
    }

    /// One degraded-mode probe: if the (injected) outage has cleared, shave
    /// any dirty tail, backfill from the mirror every frame the disk missed
    /// (each segment's bytes past what its file holds, in order), barrier
    /// its fsync, and re-attach. Stays degraded on any failure — the next
    /// commit probes again.
    fn probe_heal(&mut self) {
        self.counters.degraded_commits.fetch_add(1, Ordering::Relaxed);
        if self.outage_active().is_some() {
            return; // the simulated outage is still in force
        }
        if self.dirty_tail && self.repair_failed_write().is_err() {
            return;
        }
        let mut backfilled = false;
        for idx in 0..self.segments.len() {
            let len = self.segments[idx].bytes.len();
            if self.segments[idx].written == len {
                continue;
            }
            if self.write_to_segment(idx, len).is_err() {
                self.dirty_tail = true;
                return;
            }
            backfilled = true;
        }
        if backfilled {
            self.counters.commits.fetch_add(1, Ordering::Relaxed);
        }
        // The heal only counts once the backfill is *durable*.
        if let Some(_err) = self.sync.wait_idle() {
            self.dirty_tail = true;
            return;
        }
        self.degraded = false;
        self.counters.heal_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Deletes the segment files that end at or below `oldest` (the oldest
    /// retained checkpoint offset) — their records can never be replayed
    /// again — and drops them from the mirror. Segments start at checkpoint
    /// offsets, so this reclaims every interval below the oldest retained
    /// checkpoint and the retained WAL is one checkpoint interval plus the
    /// open one. An adoption never collects the last segment: it ends at
    /// the log's end, past the oldest retained checkpoint. A cold start
    /// whose only checkpoint sits at the log's end collects every segment,
    /// and the next append starts one at that offset. Reclaimed files and
    /// bytes feed [`StorageStats::wal_segments_reclaimed`] /
    /// [`StorageStats::wal_bytes_reclaimed`]. Callers must only invoke this
    /// with every segment written and no commit in flight (`put_checkpoint`
    /// commits synchronously first; recovery runs before the first commit).
    fn collect_segments(&mut self, oldest: u64) {
        let dead = self.segments.partition_point(|s| s.end() <= oldest);
        let dead: Vec<Segment> = self.segments.drain(..dead).collect();
        for seg in dead {
            self.remove_file(&self.seg_path(seg.start));
            self.counters.wal_segments_reclaimed.fetch_add(1, Ordering::Relaxed);
            self.counters.wal_bytes_reclaimed.fetch_add(seg.written as u64, Ordering::Relaxed);
        }
    }

    /// Writes one checkpoint durably under its live name: temp file, write,
    /// fsync, rename. IO failures are classified for the caller to degrade
    /// on; a crash mid-sequence never leaves a half checkpoint live.
    fn write_checkpoint_file(&mut self, offset: u64, bytes: &[u8]) -> Result<(), IoFailure> {
        let tmp = self.dir.join(format!("ck-{offset}.tmp"));
        let path = self.ck_path(offset);
        let mut file =
            File::create(&tmp).map_err(|e| classify("checkpoint create", self.shard, &e))?;
        file.write_all(bytes).map_err(|e| classify("checkpoint write", self.shard, &e))?;
        if self.config.fsync {
            file.sync_data().map_err(|e| classify("checkpoint fsync", self.shard, &e))?;
            self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        drop(file);
        fs::rename(&tmp, &path).map_err(|e| classify("checkpoint rename", self.shard, &e))?;
        self.counters.checkpoints_written.fetch_add(1, Ordering::Relaxed);
        self.counters.bytes_written.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        // Settle in-flight pipelined fsyncs: a cleanly dropped store leaves
        // nothing un-durable behind.
        let _ = self.sync.wait_idle();
    }
}

impl ShardStore for DiskStore {
    fn append(&mut self, record: &WalRecord) -> ServiceResult<u64> {
        self.recovered = None;
        let offset = self.end();
        // Encode straight into the open segment's buffer, whatever the disk
        // is doing: a commit writes it from there, a degraded store's heal
        // backfills it from there (wedged stores never write it), and
        // recovery decodes it from there.
        let seg = self.open_segment();
        let at = seg.bytes.len();
        if let Err(e) = frame::encode_value_into(record, frame::Codec::Binary, &mut seg.bytes) {
            seg.bytes.truncate(at);
            return Err(e);
        }
        seg.frames.push(at);
        let payload = seg.bytes.len() - at - frame::FRAME_HEADER;
        self.counters.payload_bytes.fetch_add(payload as u64, Ordering::Relaxed);
        Ok(offset)
    }

    fn commit(&mut self) -> ServiceResult<()> {
        self.commit_begin()?;
        self.commit_wait()
    }

    fn commit_begin(&mut self) -> ServiceResult<()> {
        if self.wedged {
            return Ok(());
        }
        if self.degraded {
            // The commit is a probe; the heal writes what it missed.
            self.probe_heal();
            return Ok(());
        }
        // While attached every commit writes all that is pending, and a
        // checkpoint commits before it closes a segment, so the pending
        // frames all sit in the last segment.
        let Some(idx) = self.segments.len().checked_sub(1) else {
            return Ok(());
        };
        let (written, len) = (self.segments[idx].written, self.segments[idx].bytes.len());
        if written == len {
            return Ok(());
        }
        self.commit_count += 1;
        match self.faults.take_storage_fault(self.commit_count) {
            Some(FaultKind::TornWrite { keep_bytes }) => {
                // A crash mid-write: a prefix of the pending frames lands on
                // disk (usually cutting a frame in half), then the disk
                // goes dark. This store never reads the torn file again;
                // only a cold start will.
                let upto = written.saturating_add(keep_bytes as usize).min(len);
                self.write_to_segment(idx, upto).map_err(|f| ServiceError::Storage(f.msg))?;
                self.wedged = true;
                self.counters.wedged.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            Some(FaultKind::PartialFsync) => {
                // The write was acknowledged but never reached the platter:
                // nothing lands, the disk goes dark.
                self.wedged = true;
                self.counters.wedged.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            Some(FaultKind::CorruptCrc) => {
                // Silent bit rot inside the first pending frame's payload,
                // on disk only: the mirror keeps the intact byte. The commit
                // itself "succeeds".
                let at = written + frame::FRAME_HEADER;
                let rot = |seg: &mut Segment| {
                    if let Some(byte) = seg.bytes.get_mut(at) {
                        *byte ^= 0xFF;
                    }
                };
                rot(&mut self.segments[idx]);
                let wrote = self.write_to_segment(idx, len);
                rot(&mut self.segments[idx]);
                wrote.map_err(|f| ServiceError::Storage(f.msg))?;
                self.counters.commits.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            // Self-healing-class IO faults arm the simulated failure modes
            // consumed by the write/retry machinery below.
            Some(FaultKind::TransientIo { fails }) => self.attempt_failures = fails,
            Some(FaultKind::SlowIo { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
            }
            Some(FaultKind::IoErrorBurst { len }) => {
                self.outage_commits = len;
                self.outage_permanent = false;
            }
            Some(FaultKind::DiskFull { commits }) => {
                self.outage_commits = commits;
                self.outage_permanent = true;
            }
            _ => {}
        }
        let forced = self.outage_active();
        match self.write_with_retry(idx, len, forced) {
            Ok(()) => {
                self.counters.commits.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(_failure) => {
                // Self-healing: the frames live on in the mirror; serve
                // from memory and heal once the disk answers again.
                self.enter_degraded();
                Ok(())
            }
        }
    }

    fn commit_wait(&mut self) -> ServiceResult<()> {
        if self.sync.wait_idle().is_some() {
            // A background fsync failed. Stop trusting the disk and heal
            // through the degraded path instead of failing the epoch — the
            // next probe re-fsyncs the tail before re-attaching.
            self.enter_degraded();
        }
        Ok(())
    }

    fn end(&self) -> u64 {
        DiskStore::end(self)
    }

    fn records_from(&self, from: u64) -> Vec<WalRecord> {
        let mut records = Vec::new();
        // A frame that does not decode ends the list; `try_records_from`
        // reports it instead.
        let _ = self.decode_into(from, &mut records);
        records
    }

    fn try_records_from(&self, from: u64) -> ServiceResult<Vec<WalRecord>> {
        let mut records = Vec::new();
        self.decode_into(from, &mut records).map_err(|at| {
            ServiceError::Corrupt(format!(
                "shard {}: WAL record {at} passes its CRC but does not decode",
                self.shard
            ))
        })?;
        Ok(records)
    }

    fn put_checkpoint(&mut self, checkpoint: Checkpoint) -> ServiceResult<()> {
        // The WAL must be durable up to the checkpoint's offset before the
        // checkpoint file can claim to cover it (write-ahead ordering).
        // While degraded this is the probe that may heal the store just in
        // time for the file write below.
        self.commit()?;
        let offset = checkpoint.wal_offset;
        if !self.wedged && !self.degraded {
            let bytes = frame::encode_value_with(&checkpoint, frame::Codec::Binary)?;
            self.counters
                .payload_bytes
                .fetch_add((bytes.len() - frame::FRAME_HEADER) as u64, Ordering::Relaxed);
            if self.write_checkpoint_file(offset, &bytes).is_err() {
                // Checkpoint IO failures degrade like commit failures: the
                // in-memory window below still adopts the checkpoint, so
                // worker-death recovery is unaffected; only the durable
                // copy waits for the heal.
                self.enter_degraded();
            }
        }
        // Retention window update (same shape as the memory backend). An
        // adoption at an already-retained offset replaces in place so the
        // prune below never deletes a live file.
        if self.checkpoints.last().map(|c| c.wal_offset) == Some(offset) {
            self.checkpoints.pop();
        }
        self.checkpoints.push(checkpoint);
        let attached = !self.wedged && !self.degraded;
        while self.checkpoints.len() > RETAINED {
            let stale = self.checkpoints.remove(0);
            if attached {
                self.remove_file(&self.ck_path(stale.wal_offset));
                self.counters.checkpoints_pruned.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Cut the segment here: the next append starts a new one at the
        // checkpoint's offset, so GC reclaims whole checkpoint intervals.
        if let Some(seg) = self.segments.last_mut() {
            seg.open = false;
        }
        self.writer = None;
        if let Some(oldest) = self.checkpoints.first().map(|c| c.wal_offset) {
            // Records below the oldest retained checkpoint leave the
            // window. While degraded (or wedged) GC waits: the heal
            // backfill still writes the segments the disk missed.
            self.base = self.base.max(oldest);
            if attached {
                self.collect_segments(oldest);
            }
        }
        Ok(())
    }

    fn checkpoints(&self) -> Vec<Checkpoint> {
        self.checkpoints.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Fault;
    use rrs_core::ColorId;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rrs-disk-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn submit(tenant: u64, n: u64) -> WalRecord {
        WalRecord::SubmitBatch { entries: vec![(tenant, vec![(ColorId(0), n)])] }
    }

    fn open_store(backend: &mut DiskBackend, shard: usize) -> Box<dyn ShardStore> {
        backend.open_shard(shard, ShardFaults::none()).unwrap()
    }

    #[test]
    fn committed_records_survive_reopen() {
        let root = temp_root("roundtrip");
        let mut backend = DiskBackend::new(DiskConfig::new(&root));
        {
            let mut store = open_store(&mut backend, 0);
            for i in 0..5 {
                store.append(&submit(i, i + 1)).unwrap();
                store.append(&WalRecord::Tick).unwrap();
            }
            store.commit().unwrap();
            // Staged-but-uncommitted records are visible in memory only.
            store.append(&submit(99, 1)).unwrap();
            assert_eq!(store.end(), 11);
        }
        let mut backend2 = DiskBackend::new(DiskConfig::new(&root));
        let store = open_store(&mut backend2, 0);
        assert_eq!(store.end(), 10, "the uncommitted record is gone");
        let records = store.records_from(0);
        assert_eq!(records.len(), 10);
        assert_eq!(records[0], submit(0, 1));
        assert_eq!(records[9], WalRecord::Tick);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn segments_rotate_and_old_ones_are_collected() {
        let root = temp_root("rotate");
        let mut cfg = DiskConfig::new(&root);
        cfg.max_segment_bytes = 64; // force rotation every commit or two
        cfg.fsync = false;
        let mut backend = DiskBackend::new(cfg.clone());
        let mut store = open_store(&mut backend, 0);
        for i in 0..20 {
            store.append(&submit(i, 1)).unwrap();
            store.commit().unwrap();
        }
        let segs = |root: &Path| {
            let mut v: Vec<String> = fs::read_dir(root.join("shard-000"))
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .filter(|n| n.ends_with(".seg"))
                .collect();
            v.sort();
            v
        };
        assert!(segs(&root).len() > 3, "rotation produced several segments");
        // Adopt checkpoints past the end: everything but the live segment
        // is garbage-collected.
        let ck = |off| Checkpoint { wal_offset: off, ..Checkpoint::genesis(0) };
        store.put_checkpoint(ck(19)).unwrap();
        store.put_checkpoint(ck(20)).unwrap();
        store.put_checkpoint(ck(20)).unwrap(); // same-offset re-adoption is safe
        assert!(segs(&root).len() <= 2, "collected: {:?}", segs(&root));
        // And the survivors still recover.
        let mut backend2 = DiskBackend::new(cfg);
        let store2 = open_store(&mut backend2, 0);
        assert_eq!(store2.end(), 20);
        assert_eq!(store2.checkpoints().last().unwrap().wal_offset, 20);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoint_gc_reclaims_segments_and_counts_bytes() {
        let root = temp_root("gc-count");
        let mut cfg = DiskConfig::new(&root);
        cfg.max_segment_bytes = 64;
        cfg.fsync = false;
        let mut backend = DiskBackend::new(cfg);
        let mut store = open_store(&mut backend, 0);
        for i in 0..20 {
            store.append(&submit(i, 1)).unwrap();
            store.commit().unwrap();
        }
        assert_eq!(backend.stats().wal_segments_reclaimed, 0, "no GC before a checkpoint");
        let ck = |off| Checkpoint { wal_offset: off, ..Checkpoint::genesis(0) };
        store.put_checkpoint(ck(19)).unwrap();
        store.put_checkpoint(ck(20)).unwrap();
        let stats = backend.stats();
        assert!(
            stats.wal_segments_reclaimed >= 3,
            "checkpoint-time GC reclaimed the dead prefix: {stats}"
        );
        assert!(stats.wal_bytes_reclaimed > 0, "reclaimed bytes counted: {stats}");
        assert!(
            stats.wal_bytes_reclaimed <= stats.bytes_written,
            "cannot reclaim more than was written: {stats}"
        );
        // New appends after GC still commit and recover.
        store.append(&WalRecord::Tick).unwrap();
        store.commit().unwrap();
        drop(store);
        let mut backend2 = DiskBackend::new(DiskConfig { fsync: false, ..DiskConfig::new(&root) });
        let store2 = open_store(&mut backend2, 0);
        assert_eq!(store2.end(), 21);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn cold_start_reclaims_segments_below_the_retained_window() {
        let root = temp_root("gc-cold");
        let mut cfg = DiskConfig::new(&root);
        cfg.max_segment_bytes = 64;
        cfg.fsync = false;
        {
            // A full contiguous log 0..20 with no checkpoint adoptions, so
            // checkpoint-time GC never ran and every segment file survives.
            let mut backend = DiskBackend::new(cfg.clone());
            let mut store = open_store(&mut backend, 0);
            for i in 0..20 {
                store.append(&submit(i, 1)).unwrap();
                store.commit().unwrap();
            }
        }
        // Plant the checkpoint files by hand (the state a process that died
        // degraded — durable checkpoints, skipped GC — leaves behind).
        let shard_dir = root.join("shard-000");
        for off in [18u64, 20] {
            let ck = Checkpoint { wal_offset: off, ..Checkpoint::genesis(0) };
            let bytes = frame::encode_value_with(&ck, frame::Codec::Binary).unwrap();
            fs::write(shard_dir.join(format!("ck-{off}.ck")), bytes).unwrap();
        }
        let seg_starts = |dir: &Path| {
            let mut v: Vec<u64> = fs::read_dir(dir)
                .unwrap()
                .filter_map(|e| {
                    let name = e.unwrap().file_name().to_string_lossy().into_owned();
                    name.strip_prefix("wal-")
                        .and_then(|s| s.strip_suffix(".seg"))
                        .and_then(|s| s.parse().ok())
                })
                .collect();
            v.sort_unstable();
            v
        };
        let before = seg_starts(&shard_dir);
        assert!(before.len() > 3, "several dead segments on disk: {before:?}");
        let mut backend2 = DiskBackend::new(cfg);
        let store2 = open_store(&mut backend2, 0);
        assert_eq!(store2.end(), 20);
        assert_eq!(store2.records_from(0).len(), 2, "mirror truncated to the window");
        let after = seg_starts(&shard_dir);
        assert!(after.len() < before.len(), "cold start reclaimed: {before:?} -> {after:?}");
        // A closed segment spans its start to the next one's start; any
        // closed segment ending at or below the oldest retained checkpoint
        // (18) was wholly dead and must be gone.
        for pair in after.windows(2) {
            assert!(pair[1] > 18, "segment wal-{}.seg lies wholly below the window", pair[0]);
        }
        let stats = backend2.stats();
        assert!(stats.wal_segments_reclaimed > 0, "reclaims counted at cold start: {stats}");
        assert!(stats.wal_bytes_reclaimed > 0, "bytes counted at cold start: {stats}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_write_fault_wedges_and_cold_start_recovers_the_prefix() {
        let root = temp_root("torn");
        let mut backend = DiskBackend::new(DiskConfig::new(&root));
        let faults = Arc::new(ShardFaults::new(vec![Fault {
            shard: 0,
            at_tick: 3, // third group commit tears
            kind: FaultKind::TornWrite { keep_bytes: 5 },
        }]));
        let mut store = backend.open_shard(0, faults).unwrap();
        for i in 0..6 {
            store.append(&submit(i, 1)).unwrap();
            store.commit().unwrap();
        }
        assert_eq!(store.end(), 6, "the live service saw every record");
        assert_eq!(backend.stats().wedged, 1);
        let mut backend2 = DiskBackend::new(DiskConfig::new(&root));
        let store2 = open_store(&mut backend2, 0);
        assert_eq!(store2.end(), 2, "commits 1-2 durable, 3 torn, 4-6 dark");
        assert_eq!(backend2.stats().torn_tails_repaired, 1);
        // The repaired store accepts new appends cleanly.
        drop(store2);
        let mut store2 = open_store(&mut backend2, 0);
        store2.append(&WalRecord::Tick).unwrap();
        store2.commit().unwrap();
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_crc_fault_is_caught_by_recovery() {
        let root = temp_root("crc");
        let mut backend = DiskBackend::new(DiskConfig::new(&root));
        let faults = Arc::new(ShardFaults::new(vec![Fault {
            shard: 0,
            at_tick: 2,
            kind: FaultKind::CorruptCrc,
        }]));
        let mut store = backend.open_shard(0, faults).unwrap();
        for i in 0..4 {
            store.append(&submit(i, 1)).unwrap();
            store.commit().unwrap();
        }
        let mut backend2 = DiskBackend::new(DiskConfig::new(&root));
        let store2 = open_store(&mut backend2, 0);
        assert_eq!(store2.end(), 1, "scan stops at the rotted frame");
        assert_eq!(backend2.stats().corrupt_frames_dropped, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_checkpoint_files_are_skipped() {
        let root = temp_root("badck");
        let cfg = DiskConfig::new(&root);
        let mut backend = DiskBackend::new(cfg.clone());
        let mut store = open_store(&mut backend, 0);
        for _ in 0..4 {
            store.append(&WalRecord::Tick).unwrap();
        }
        store.commit().unwrap();
        store
            .put_checkpoint(Checkpoint { wal_offset: 4, ..Checkpoint::genesis(0) })
            .unwrap();
        drop(store);
        // Rot the checkpoint file on disk.
        let ck = root.join("shard-000").join("ck-4.ck");
        let mut bytes = fs::read(&ck).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&ck, bytes).unwrap();
        let mut backend2 = DiskBackend::new(cfg);
        let store2 = open_store(&mut backend2, 0);
        assert_eq!(backend2.stats().checkpoints_skipped, 1);
        // Falls back to genesis + full replay: all four ticks recovered.
        let cks = store2.checkpoints();
        assert_eq!(cks.len(), 1);
        assert_eq!(cks[0].wal_offset, 0, "genesis fallback");
        assert_eq!(store2.end(), 4);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn transient_io_errors_retry_in_place_without_degrading() {
        let root = temp_root("transient");
        let mut cfg = DiskConfig::new(&root);
        cfg.io_backoff = Duration::from_micros(10); // keep the test fast
        let mut backend = DiskBackend::new(cfg.clone());
        let faults = Arc::new(ShardFaults::new(vec![Fault {
            shard: 0,
            at_tick: 2, // second group commit hits 2 transient failures
            kind: FaultKind::TransientIo { fails: 2 },
        }]));
        let mut store = backend.open_shard(0, faults).unwrap();
        for i in 0..4 {
            store.append(&submit(i, 1)).unwrap();
            store.commit().unwrap();
        }
        let s = backend.stats();
        assert_eq!(s.retries, 2, "both injected failures were retried");
        assert_eq!(s.degraded_commits, 0, "retry absorbed the glitch in place");
        assert_eq!(s.heal_events, 0);
        assert_eq!(s.commits, 4);
        drop(store);
        let mut backend2 = DiskBackend::new(cfg);
        let store2 = open_store(&mut backend2, 0);
        assert_eq!(store2.end(), 4, "nothing was lost");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn io_error_burst_degrades_then_heals_with_full_durability() {
        let root = temp_root("burst");
        let mut cfg = DiskConfig::new(&root);
        cfg.io_backoff = Duration::from_micros(10);
        let mut backend = DiskBackend::new(cfg.clone());
        let faults = Arc::new(ShardFaults::new(vec![Fault {
            shard: 0,
            at_tick: 2, // commits 2 and 3 fail wholesale
            kind: FaultKind::IoErrorBurst { len: 2 },
        }]));
        let mut store = backend.open_shard(0, faults).unwrap();
        for i in 0..6 {
            store.append(&submit(i, 1)).unwrap();
            store.commit().unwrap();
        }
        assert_eq!(store.end(), 6, "the mirror served every record throughout");
        let s = backend.stats();
        assert!(s.retries > 0, "the burst exhausted the retry budget");
        assert!(s.degraded_commits >= 2, "commits during the outage were probes");
        assert_eq!(s.heal_events, 1, "one heal once the disk answered");
        drop(store);
        // Cold start: FULL durability, including the records appended while
        // the store was degraded — the heal backfilled them from the mirror.
        let mut backend2 = DiskBackend::new(cfg);
        let store2 = open_store(&mut backend2, 0);
        assert_eq!(store2.end(), 6, "degraded-era records were backfilled");
        assert_eq!(store2.records_from(0), (0..6).map(|i| submit(i, 1)).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn heal_backfills_every_segment_the_outage_missed() {
        let root = temp_root("heal-cut");
        let mut cfg = DiskConfig::new(&root);
        cfg.io_backoff = Duration::from_micros(10);
        let mut backend = DiskBackend::new(cfg.clone());
        let faults = Arc::new(ShardFaults::new(vec![Fault {
            shard: 0,
            at_tick: 2, // commit 2 and the next two probes fail
            kind: FaultKind::IoErrorBurst { len: 3 },
        }]));
        let mut store = backend.open_shard(0, faults).unwrap();
        store.append(&submit(0, 1)).unwrap();
        store.commit().unwrap();
        store.append(&submit(1, 1)).unwrap();
        store.commit().unwrap(); // degrades
        store.append(&submit(2, 1)).unwrap();
        // Adopted while degraded: the checkpoint cuts the segment, so the
        // outage's frames end up in two segments, neither fully written.
        store.put_checkpoint(Checkpoint { wal_offset: 3, ..Checkpoint::genesis(0) }).unwrap();
        store.append(&submit(3, 1)).unwrap();
        store.commit().unwrap(); // the last failing probe
        store.commit().unwrap(); // heals, with nothing new to commit
        assert_eq!(backend.stats().heal_events, 1);
        drop(store);
        let mut backend2 = DiskBackend::new(cfg);
        let store2 = open_store(&mut backend2, 0);
        assert_eq!(store2.records_from(0), (0..4).map(|i| submit(i, 1)).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn disk_full_degrades_immediately_without_burning_retries() {
        let root = temp_root("full");
        let cfg = DiskConfig::new(&root);
        let mut backend = DiskBackend::new(cfg.clone());
        let faults = Arc::new(ShardFaults::new(vec![Fault {
            shard: 0,
            at_tick: 2,
            kind: FaultKind::DiskFull { commits: 1 },
        }]));
        let mut store = backend.open_shard(0, faults).unwrap();
        for i in 0..4 {
            store.append(&submit(i, 1)).unwrap();
            store.commit().unwrap();
        }
        let s = backend.stats();
        assert_eq!(s.retries, 0, "permanent-class errors skip the retry loop");
        assert!(s.degraded_commits >= 1);
        assert_eq!(s.heal_events, 1, "healed on the first post-outage probe");
        drop(store);
        let mut backend2 = DiskBackend::new(cfg);
        let store2 = open_store(&mut backend2, 0);
        assert_eq!(store2.end(), 4);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn unreadable_segment_is_quarantined_with_a_manifest_line() {
        let root = temp_root("quarantine");
        let cfg = DiskConfig::new(&root);
        {
            let mut backend = DiskBackend::new(cfg.clone());
            let mut store = open_store(&mut backend, 0);
            for _ in 0..3 {
                store.append(&WalRecord::Tick).unwrap();
            }
            store.commit().unwrap();
        }
        // Rot the whole segment: zero valid frames survive.
        let seg = root.join("shard-000").join("wal-0.seg");
        fs::write(&seg, vec![0xFFu8; 16]).unwrap();
        let mut backend2 = DiskBackend::new(cfg);
        let store2 = open_store(&mut backend2, 0);
        assert_eq!(store2.end(), 0, "nothing readable recovered");
        assert_eq!(backend2.stats().quarantines, 1);
        assert!(!seg.exists(), "the damaged file left the live directory");
        let qdir = root.join("shard-000").join(".quarantine");
        assert!(qdir.join("wal-0.seg").exists(), "evidence preserved");
        let manifest = fs::read_to_string(qdir.join("MANIFEST")).unwrap();
        assert!(
            manifest.contains("wal-0.seg") && manifest.contains("no valid frames"),
            "manifest names the file and the reason: {manifest:?}"
        );
        // The quarantined store keeps working.
        drop(store2);
        let mut store3 = open_store(&mut backend2, 0);
        store3.append(&WalRecord::Tick).unwrap();
        store3.commit().unwrap();
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn pipelined_fsync_barrier_preserves_group_commit_durability() {
        let root = temp_root("pipeline");
        let cfg = DiskConfig::new(&root);
        assert!(cfg.pipeline_fsync && cfg.fsync, "pipelining is the default");
        {
            let mut backend = DiskBackend::new(cfg.clone());
            let mut store = open_store(&mut backend, 0);
            // Several epochs in flight before one barrier.
            for i in 0..5 {
                store.append(&submit(i, 1)).unwrap();
                store.commit_begin().unwrap();
            }
            store.commit_wait().unwrap();
            assert!(backend.stats().fsyncs >= 1, "background thread fsynced");
        }
        let mut backend2 = DiskBackend::new(cfg);
        let store2 = open_store(&mut backend2, 0);
        assert_eq!(store2.end(), 5, "every pipelined epoch is durable after the barrier");
        let _ = fs::remove_dir_all(&root);
    }
}
