//! Typed errors for every service operation.

use crate::shard::TenantId;
use std::fmt;

/// Result alias using [`ServiceError`].
pub type ServiceResult<T> = std::result::Result<T, ServiceError>;

/// Errors raised by the service layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// An engine or policy construction error bubbled up from `rrs-core`.
    Engine(rrs_core::Error),
    /// The target shard's worker is gone (killed or panicked).
    ShardDown(usize),
    /// A command to a shard did not complete within its deadline (worker
    /// stalled, queue full past the deadline, or a reply was lost).
    Timeout(usize),
    /// A shard index outside `0..shards`.
    UnknownShard(usize),
    /// A command referenced a tenant the shard does not own.
    UnknownTenant(TenantId),
    /// A tenant id was registered twice.
    DuplicateTenant(TenantId),
    /// A snapshot places a tenant on a shard the routing function disagrees
    /// with — applying it would silently adopt a foreign tenant.
    MisroutedTenant {
        /// The misplaced tenant.
        tenant: TenantId,
        /// The shard the snapshot claims.
        shard: usize,
        /// The shard the routing function assigns.
        expected: usize,
    },
    /// A snapshot failed structural validation (unsorted tenants, job
    /// conservation violated, shard index mismatch).
    Corrupt(String),
    /// Spawning a worker thread failed.
    Spawn(String),
    /// Replaying a snapshot did not reproduce the recorded engine state —
    /// the snapshot is corrupt or the policy is nondeterministic.
    Divergence(String),
    /// A storage-tier failure: I/O error, unreadable frame, or a record
    /// that failed to encode.
    Storage(String),
    /// A network-layer failure: socket I/O, a frame that failed CRC
    /// validation on the wire, or a protocol violation.
    Net(String),
    /// The configured data directory cannot back a disk store: it exists
    /// but is not a directory, cannot be created, or is not writable. The
    /// CLI maps this to exit code 2 (usage error) instead of panicking.
    InvalidDataDir {
        /// The offending path, as configured.
        path: String,
        /// Why it was rejected.
        reason: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Engine(e) => write!(f, "engine error: {e}"),
            ServiceError::ShardDown(i) => write!(f, "shard {i} is down"),
            ServiceError::Timeout(i) => write!(f, "command to shard {i} timed out"),
            ServiceError::UnknownShard(i) => write!(f, "no such shard: {i}"),
            ServiceError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            ServiceError::DuplicateTenant(t) => write!(f, "tenant {t} already registered"),
            ServiceError::MisroutedTenant { tenant, shard, expected } => write!(
                f,
                "snapshot places tenant {tenant} on shard {shard}, routing says {expected}"
            ),
            ServiceError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            ServiceError::Spawn(msg) => write!(f, "worker spawn failed: {msg}"),
            ServiceError::Divergence(msg) => write!(f, "snapshot divergence: {msg}"),
            ServiceError::Storage(msg) => write!(f, "storage error: {msg}"),
            ServiceError::Net(msg) => write!(f, "net error: {msg}"),
            ServiceError::InvalidDataDir { path, reason } => {
                write!(f, "invalid data dir {path}: {reason}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<rrs_core::Error> for ServiceError {
    fn from(e: rrs_core::Error) -> Self {
        ServiceError::Engine(e)
    }
}
