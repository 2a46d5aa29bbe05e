//! Per-shard write-ahead log and checkpoints.
//!
//! The supervisor is the only sender into a shard's command queue, so it can
//! journal every state-changing command (`AddTenant`, `SubmitBatch`, `Tick`)
//! **before** enqueueing it. Recovery is then pure replay: rebuild the
//! tenants from the newest validated checkpoint (itself replay-verified by
//! [`crate::restore_tenants`]) and apply the WAL suffix past the
//! checkpoint's offset with exactly the worker's own semantics — same
//! per-tenant iteration order, same inbox-watermark shedding rule, same
//! error tolerance. Because every policy is deterministic, the rebuilt shard
//! is bit-identical to one that never failed, including commands that were
//! sitting in the dead worker's queue (they are in the log too).
//!
//! Offsets are absolute record indices since the shard was born, so
//! checkpoints can be truncated away without renumbering.

use crate::error::ServiceResult;
use crate::shard::{ShardSnapshot, TenantId};
use crate::tenant::{Tenant, TenantSpec};
use rrs_core::ColorId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// One journaled state-changing command.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalRecord {
    /// A tenant registration.
    AddTenant {
        /// Tenant id, unique across all shards.
        id: TenantId,
        /// The tenant's instance parameters.
        spec: TenantSpec,
    },
    /// Buffered arrivals for one tenant. The supervisor no longer writes
    /// this record (every submit rides in a `SubmitBatch`), but data
    /// directories journaled by earlier per-submit ingestion still hold it,
    /// so replay keeps applying it and those directories still cold-start.
    Submit {
        /// Target tenant.
        tenant: TenantId,
        /// `(color, count)` pairs, in submission order.
        arrivals: Vec<(ColorId, u64)>,
    },
    /// Group commit: every submit destined for this shard within one tick
    /// epoch, journaled as a single record. Entries keep submission order
    /// (a tenant may appear more than once), so replay applies the same
    /// per-entry inbox-watermark shedding decisions as `N` separate
    /// `Submit` records would — including shedding that strikes mid-batch.
    SubmitBatch {
        /// `(tenant, arrivals)` in original submission order.
        entries: Vec<(TenantId, Vec<(ColorId, u64)>)>,
    },
    /// One round advanced for every tenant on the shard.
    Tick,
}

/// An append-only command journal with absolute offsets.
#[derive(Debug, Clone, Default)]
pub struct Wal {
    base: u64,
    records: VecDeque<WalRecord>,
}

impl Wal {
    /// An empty log starting at offset 0.
    pub fn new() -> Self {
        Wal::default()
    }

    /// Reassembles a log from recovered parts: `base` is the absolute
    /// offset of `records[0]` (storage backends rebuilding their in-memory
    /// mirror from disk use this; an empty `records` gives an empty log
    /// whose next append lands at `base`).
    pub fn from_parts(base: u64, records: Vec<WalRecord>) -> Self {
        Wal { base, records: records.into() }
    }

    /// The absolute offset one past the last record.
    pub fn end(&self) -> u64 {
        self.base + self.records.len() as u64
    }

    /// Records currently retained (not yet truncated).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the retained window is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends a record, returning its absolute offset.
    pub fn append(&mut self, record: WalRecord) -> u64 {
        let at = self.end();
        self.records.push_back(record);
        at
    }

    /// Drops every record before absolute offset `to` (clamped to the
    /// retained window) — called once a checkpoint at `to` is durable.
    pub fn truncate_to(&mut self, to: u64) {
        while self.base < to && !self.records.is_empty() {
            self.records.pop_front();
            self.base += 1;
        }
    }

    /// Iterates the records from absolute offset `from` to the end.
    pub fn iter_from(&self, from: u64) -> impl Iterator<Item = &WalRecord> {
        let skip = from.saturating_sub(self.base) as usize;
        self.records.iter().skip(skip)
    }
}

/// A validated shard snapshot plus the WAL offset it corresponds to: the
/// shard's state after exactly `wal_offset` journaled records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// The captured state.
    pub snapshot: ShardSnapshot,
    /// Absolute WAL offset at capture time.
    pub wal_offset: u64,
    /// Tick records among the first `wal_offset` (the respawned worker's
    /// starting tick count, so fault arming stays in absolute ticks).
    pub ticks: u64,
}

impl Checkpoint {
    /// The genesis checkpoint: an empty shard at offset 0.
    pub fn genesis(shard: usize) -> Self {
        Checkpoint {
            snapshot: ShardSnapshot { shard, tenants: Vec::new() },
            wal_offset: 0,
            ticks: 0,
        }
    }
}

/// Replays journaled records onto a tenant map with the worker's exact
/// semantics. Returns the number of records applied.
///
/// Mirrors `Worker::handle` case by case: ticks advance tenants in ascending
/// id order, submits go through the same watermark shedding rule, and
/// per-command engine errors are tolerated (the worker counts them and moves
/// on, so replay must too).
pub fn replay<'a>(
    tenants: &mut BTreeMap<TenantId, Tenant>,
    records: impl Iterator<Item = &'a WalRecord>,
    inbox_watermark: Option<u64>,
) -> ServiceResult<u64> {
    let mut applied = 0;
    for record in records {
        match record {
            WalRecord::AddTenant { id, spec } => {
                // The supervisor validates registrations before journaling,
                // so construction errors here mean real corruption.
                tenants.insert(*id, Tenant::new(spec.clone())?);
            }
            WalRecord::Submit { tenant, arrivals } => {
                if let Some(t) = tenants.get_mut(tenant) {
                    let _ = t.submit_shedding(arrivals, inbox_watermark);
                }
            }
            WalRecord::SubmitBatch { entries } => {
                // Entry order is submission order: each entry sheds (or not)
                // against the inbox level left by the entries before it,
                // exactly as the worker applied them.
                for (tenant, arrivals) in entries {
                    if let Some(t) = tenants.get_mut(tenant) {
                        let _ = t.submit_shedding(arrivals, inbox_watermark);
                    }
                }
            }
            WalRecord::Tick => {
                for t in tenants.values_mut() {
                    let _ = t.tick();
                }
            }
        }
        applied += 1;
    }
    Ok(applied)
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
    fn offsets_survive_truncation() {
        let mut wal = Wal::new();
        for _ in 0..5 {
            wal.append(WalRecord::Tick);
        }
        assert_eq!(wal.end(), 5);
        wal.truncate_to(3);
        assert_eq!(wal.len(), 2);
        assert_eq!(wal.end(), 5, "absolute offsets are stable");
        assert_eq!(wal.iter_from(4).count(), 1);
        assert_eq!(wal.iter_from(0).count(), 2, "clamped to the retained window");
    }

    #[test]
    fn replay_reproduces_a_live_shard() {
        // Drive a map of tenants directly, journaling every step; replaying
        // the journal onto an empty map must land on identical snapshots.
        let mut wal = Wal::new();
        let mut live: BTreeMap<TenantId, Tenant> = BTreeMap::new();
        for id in [1u64, 2] {
            wal.append(WalRecord::AddTenant { id, spec: spec() });
            live.insert(id, Tenant::new(spec()).unwrap());
        }
        for round in 0..6u64 {
            let arrivals = vec![(ColorId((round % 2) as u32), 1 + round % 3)];
            wal.append(WalRecord::Submit { tenant: 1, arrivals: arrivals.clone() });
            live.get_mut(&1).unwrap().submit_shedding(&arrivals, Some(3)).unwrap();
            wal.append(WalRecord::Tick);
            for t in live.values_mut() {
                t.tick().unwrap();
            }
        }
        let mut rebuilt = BTreeMap::new();
        let applied = replay(&mut rebuilt, wal.iter_from(0), Some(3)).unwrap();
        assert_eq!(applied, wal.end());
        assert_eq!(rebuilt.len(), 2);
        for (id, t) in &live {
            assert_eq!(rebuilt[id].snapshot(), t.snapshot(), "tenant {id}");
        }
    }
}
