//! Observability: per-shard and per-tenant counters plus a cheap
//! fixed-size latency histogram for step latencies.

use crate::tenant::TenantProgress;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A log₂-bucketed histogram of nanosecond latencies.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` ns (bucket 0 also holds 0).
/// Quantiles are reported as the upper bound of the containing bucket, i.e.
/// within 2× of the true value — plenty for p50/p99 service telemetry, at a
/// fixed 512-byte footprint and O(1) record cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogramNs {
    buckets: [u64; 64],
    count: u64,
}

impl Default for LatencyHistogramNs {
    fn default() -> Self {
        Self { buckets: [0; 64], count: 0 }
    }
}

impl LatencyHistogramNs {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, nanos: u64) {
        let idx = (64 - nanos.leading_zeros()).saturating_sub(1) as usize;
        self.buckets[idx.min(63)] += 1;
        self.count += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile (upper bucket bound), 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
    }

    /// Median step latency.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Tail step latency.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogramNs) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
    }
}

/// Manual serde impls (the derive can't reconstruct a `[u64; 64]`): the wire
/// form is the flat bucket array; the sample count is the bucket sum.
impl Serialize for LatencyHistogramNs {
    fn to_value(&self) -> serde::Value {
        serde::Value::Array(self.buckets.iter().map(|&b| serde::Value::U64(b)).collect())
    }
}

impl Deserialize for LatencyHistogramNs {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let counts: Vec<u64> = Vec::from_value(v)?;
        if counts.len() != 64 {
            return Err(serde::Error::msg(format!(
                "expected 64 histogram buckets, found {}",
                counts.len()
            )));
        }
        let mut h = LatencyHistogramNs::new();
        for (slot, &n) in h.buckets.iter_mut().zip(counts.iter()) {
            *slot = n;
            h.count += n;
        }
        Ok(h)
    }
}

/// Counters for one shard worker.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Tenants owned by the shard.
    pub tenants: usize,
    /// Commands processed (all kinds).
    pub commands: u64,
    /// Submit operations processed: a `SubmitBatch` command counts once per
    /// coalesced entry.
    pub submits: u64,
    /// `SubmitBatch` commands processed (at most one per tick epoch).
    pub batches: u64,
    /// Tick commands processed (each advances every owned tenant one round).
    pub ticks: u64,
    /// Jobs executed across all owned tenants.
    pub executed: u64,
    /// Jobs dropped across all owned tenants.
    pub dropped: u64,
    /// Jobs shed at the inbox watermark across all owned tenants
    /// (service-level drops: they never entered a round).
    pub shed_jobs: u64,
    /// Total reconfiguration cost across all owned tenants.
    pub reconfig_cost: u64,
    /// Commands sitting in the shard's queue when the stats were taken.
    pub queue_depth: usize,
    /// Times a sender found the bounded queue full and had to wait.
    pub backpressure_waits: u64,
    /// Commands that failed inside the worker (unknown tenant, engine error).
    pub command_errors: u64,
    /// Faults fired inside this worker (injected panics, stalls, dropped
    /// replies, corrupted snapshots). Worker-lifetime, reset on respawn.
    pub faults_injected: u64,
    /// Times the supervisor rebuilt this shard from checkpoint + WAL (filled
    /// in by the supervisor; the worker itself reports 0).
    pub recoveries: u64,
    /// Times this shard's circuit breaker tripped open on a restart storm
    /// (filled in by the supervisor; 0 unless a breaker is installed).
    pub breaker_trips: u64,
    /// Per-tenant-step latency histogram (one sample per tenant per tick).
    pub step_latency: LatencyHistogramNs,
}

impl fmt::Display for ShardStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {}: {} tenants, {} cmds ({} ticks), exec {}, drop {}, shed {}, \
             reconfig {}, queue {}, bp {}, recoveries {} ({} trips), \
             step p50 {}ns p99 {}ns",
            self.shard,
            self.tenants,
            self.commands,
            self.ticks,
            self.executed,
            self.dropped,
            self.shed_jobs,
            self.reconfig_cost,
            self.queue_depth,
            self.backpressure_waits,
            self.recoveries,
            self.breaker_trips,
            self.step_latency.p50(),
            self.step_latency.p99(),
        )
    }
}

/// A point-in-time view of the whole service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Per-shard counters, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Per-tenant progress, in ascending tenant order.
    pub tenants: Vec<(u64, TenantProgress)>,
    /// Storage-tier counters (group commits, fsyncs, retries, heals; all
    /// zeros for the memory backend).
    pub storage: crate::storage::StorageStats,
}

impl ServiceStats {
    /// Jobs executed service-wide.
    pub fn executed(&self) -> u64 {
        self.shards.iter().map(|s| s.executed).sum()
    }

    /// Jobs dropped service-wide.
    pub fn dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped).sum()
    }

    /// Jobs shed service-wide (inbox watermark + queue watermark drops;
    /// per-tenant attribution lives in [`crate::TenantProgress::shed`]).
    pub fn shed(&self) -> u64 {
        self.tenants.iter().map(|(_, p)| p.shed).sum()
    }

    /// Shard recoveries service-wide (supervised runs only).
    pub fn recoveries(&self) -> u64 {
        self.shards.iter().map(|s| s.recoveries).sum()
    }

    /// Step-latency histogram merged over all shards.
    pub fn step_latency(&self) -> LatencyHistogramNs {
        let mut h = LatencyHistogramNs::new();
        for s in &self.shards {
            h.merge(&s.step_latency);
        }
        h
    }

    /// Job conservation over every tenant:
    /// `arrived = executed + dropped + pending` (inbox jobs are not yet
    /// arrived).
    pub fn conserves_jobs(&self) -> bool {
        self.tenants
            .iter()
            .all(|(_, p)| p.arrived == p.executed + p.dropped + p.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = LatencyHistogramNs::new();
        for ns in [0, 1, 2, 3, 1000, 1_000_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 6);
        assert!(h.p50() <= 1024, "median dominated by tiny samples: {}", h.p50());
        assert!(h.p99() >= 1_000_000, "tail sees the 1ms sample: {}", h.p99());
    }

    #[test]
    fn quantiles_of_empty_are_zero() {
        let h = LatencyHistogramNs::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LatencyHistogramNs::new();
        let mut b = LatencyHistogramNs::new();
        a.record(10);
        b.record(10_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.p99() >= 10_000);
    }
}
