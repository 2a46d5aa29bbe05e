//! # rrs-service — sharded multi-tenant streaming scheduler service
//!
//! Runs many independent [`rrs_core::StreamingEngine`] instances (one per
//! *tenant*) behind a [`Supervisor`] that owns a fixed set of shard
//! workers:
//!
//! * tenants are hash-partitioned across the shards ([`shard_for`]); each
//!   shard is one worker thread draining a bounded MPSC queue of
//!   [`Command`]s (`AddTenant`, `SubmitBatch`, `Tick`, `Snapshot`, `Stats`,
//!   `Finish`), with counted backpressure and deadline-bounded sends when
//!   the queue fills;
//! * a [`TenantSnapshot`] holds a tenant's **state, not its history** —
//!   spec, inbox, counters and the [`rrs_core::EngineSnapshot`] with the
//!   policy's saved state — so it is serializable in O(colors) bytes and
//!   restorable with **bit-identical** continuation: restore validates it
//!   structurally and loads it into a fresh engine, with no replay;
//! * the supervisor journals every state-changing command into a per-shard
//!   write-ahead log ([`Wal`], kept by a [`StorageBackend`]: memory or
//!   disk) before enqueueing, buffers each tick epoch's submits into one
//!   group commit, takes periodic validated [`Checkpoint`]s, detects dead
//!   or stalled workers (captured panics, join-handle monitoring, reply
//!   deadlines) and rebuilds them from checkpoint + WAL replay —
//!   bit-identical to an unfailed run; cross-shard commands retry with
//!   deadline-aware backoff ([`RetryPolicy`]) and overload **sheds**
//!   arrivals at configurable watermarks ([`ShedConfig`]) instead of
//!   blocking, counted per tenant as service-level drops;
//! * deterministic **fault injection** ([`FaultPlan`]) arms seeded panics,
//!   stalls, dropped replies, snapshot corruption and storage IO faults at
//!   exact shard lifetimes, for chaos tests that stay reproducible;
//! * per-shard and per-tenant counters (rounds, executed, dropped, shed,
//!   recoveries, reconfiguration cost, queue depth, backpressure waits,
//!   p50/p99 step latency) are exposed through [`Supervisor::stats`] as a
//!   [`ServiceStats`].
//!
//! Because every [`PolicySpec`] policy is deterministic, a tenant's final
//! [`rrs_core::RunResult`] is independent of the shard count, of command
//! interleaving across tenants, and of any crash/recover cycle — so a lone
//! [`Tenant`] fed the same arrivals is the oracle the conformance, fuzz and
//! chaos tests in this crate check the supervised service against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod error;
pub mod faults;
pub mod net;
pub mod policy;
pub mod shard;
pub mod stats;
pub mod storage;
pub mod supervisor;
pub mod tenant;
pub mod wal;

pub use error::{ServiceError, ServiceResult};
pub use faults::{Fault, FaultKind, FaultPlan, ShardFaults};
pub use net::{NetCounters, NetServer, NetSink, SinkConfig};
pub use policy::PolicySpec;
pub use shard::{
    restore_tenants, shard_for, spawn_shard_with, Backoff, Command, ShardHandle, ShardSnapshot,
    TenantId, WorkerConfig,
};
pub use stats::{LatencyHistogramNs, ServiceStats, ShardStats};
pub use storage::{
    frame::Codec, DiskBackend, DiskConfig, MemoryBackend, ShardStore, StorageBackend,
    StorageStats,
};
pub use supervisor::{
    BreakerConfig, IngestMode, RecoveryEvent, RetryPolicy, ShedConfig, Supervisor,
    SupervisorConfig,
};
pub use tenant::{Tenant, TenantProgress, TenantSnapshot, TenantSpec};
pub use wal::{replay, Checkpoint, Wal, WalRecord};
