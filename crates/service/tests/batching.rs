//! Batched ingestion ≡ lone-tenant replay.
//!
//! The supervisor coalesces every submit bound for a shard within one tick
//! epoch into a single WAL group commit and a single
//! [`rrs_service::Command::SubmitBatch`], and fans ticks out to all shards
//! before joining on epoch acknowledgements. None of that may change *what*
//! the service computes: for every policy, the final per-tenant
//! [`RunResult`]s and the per-tenant progress in [`ServiceStats`] must be
//! bit-identical to each tenant's arrivals fed through a lone [`Tenant`] —
//! including when inbox shedding strikes mid-batch, when workers are killed
//! between group commits (WAL replay must reproduce each batch's per-entry
//! shedding decisions), and when a worker applies a tick but never
//! acknowledges its epoch ([`FaultKind::DropAck`]).

use rrs_core::{ColorId, ColorTable, RunResult};
use rrs_service::{
    shard_for, Fault, FaultKind, FaultPlan, PolicySpec, RetryPolicy, ServiceStats, ShedConfig,
    Supervisor, SupervisorConfig, Tenant, TenantProgress, TenantSpec,
};
use std::collections::BTreeMap;
use std::sync::Once;
use std::time::Duration;

const DELAY_BOUNDS: &[u64] = &[2, 4, 8];
const N: usize = 4;
const DELTA: u64 = 2;
const ROUNDS: u64 = 16;

/// Injected panics are part of the test; keep them off stderr while letting
/// unexpected panics through to the default hook.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains("injected fault"))
                .or_else(|| {
                    info.payload().downcast_ref::<&str>().map(|s| s.contains("injected fault"))
                })
                .unwrap_or(false);
            if !injected {
                default_hook(info);
            }
        }));
    });
}

fn spec(policy: PolicySpec) -> TenantSpec {
    TenantSpec::new(policy, ColorTable::from_delay_bounds(DELAY_BOUNDS), N, DELTA)
}

/// One tenant per streaming-capable policy, so the conformance claim covers
/// every scheduler the service can host.
fn tenant_count() -> u64 {
    PolicySpec::all().len() as u64
}

fn policy_for(id: u64) -> PolicySpec {
    let all = PolicySpec::all();
    all[(id as usize) % all.len()]
}

/// Deterministic per-tenant arrivals: a function of `(tenant, round, part)`
/// only. `part` lets a round submit twice per tenant, so a batch carries the
/// same tenant more than once and mid-batch shedding is actually exercised.
fn arrivals(tenant: u64, round: u64, part: u64) -> Vec<(ColorId, u64)> {
    let mut out = Vec::new();
    for c in 0..DELAY_BOUNDS.len() as u64 {
        let mix = tenant
            .wrapping_mul(31)
            .wrapping_add(round.wrapping_mul(17))
            .wrapping_add(part.wrapping_mul(13))
            .wrapping_add(c.wrapping_mul(7));
        if mix % 3 != 0 {
            out.push((ColorId(c as u32), 1 + mix % 4));
        }
    }
    out
}

fn quick_config(shards: usize) -> SupervisorConfig {
    SupervisorConfig {
        shards,
        queue_capacity: 8,
        checkpoint_every: 5,
        retry: RetryPolicy {
            attempts: 4,
            op_timeout: Duration::from_millis(250),
            backoff: Duration::from_millis(2),
        },
        shed: ShedConfig::default(),
        ..SupervisorConfig::default()
    }
}

/// Runs the standard two-submits-per-round workload; returns the final
/// results, the pre-finish stats and the recovery count.
fn run(config: SupervisorConfig, plan: &FaultPlan) -> (BTreeMap<u64, RunResult>, ServiceStats, u64) {
    quiet_injected_panics();
    let tenants = tenant_count();
    let mut sup = Supervisor::with_faults(config, plan).unwrap();
    for id in 0..tenants {
        sup.add_tenant(id, spec(policy_for(id))).unwrap();
    }
    for round in 0..ROUNDS {
        for part in 0..2 {
            for id in 0..tenants {
                sup.submit(id, arrivals(id, round, part)).unwrap();
            }
        }
        sup.tick().unwrap();
    }
    let stats = sup.stats().unwrap();
    let recoveries = sup.recoveries();
    (sup.finish().unwrap(), stats, recoveries)
}

/// The oracle: each tenant's two-submits-per-round arrivals through a lone
/// [`Tenant`] under the same inbox watermark. Returns the final results and
/// the per-tenant progress just before finishing.
fn lone_run(watermark: Option<u64>) -> (BTreeMap<u64, RunResult>, Vec<(u64, TenantProgress)>) {
    let mut results = BTreeMap::new();
    let mut progress = Vec::new();
    for id in 0..tenant_count() {
        let mut t = Tenant::new(spec(policy_for(id))).unwrap();
        for round in 0..ROUNDS {
            for part in 0..2 {
                t.submit_shedding(&arrivals(id, round, part), watermark).unwrap();
            }
            t.tick().unwrap();
        }
        progress.push((id, t.progress()));
        results.insert(id, t.finish().unwrap());
    }
    (results, progress)
}

/// Asserts a supervised stats report agrees with the lone-tenant oracle:
/// per-tenant progress exactly, and each shard's tenant count and
/// executed/dropped/shed/reconfiguration totals as sums over the tenants it
/// owns. `worker_counters` additionally checks `ticks` and the per-entry
/// `submits` count — valid only for fault-free runs, because those are
/// worker-lifetime counters and reset when a recovery respawns the worker.
fn assert_stats_conform(
    stats: &ServiceStats,
    oracle: &[(u64, TenantProgress)],
    worker_counters: bool,
) {
    assert_eq!(stats.tenants, oracle, "per-tenant progress");
    let shards = stats.shards.len();
    for s in &stats.shards {
        let owned: Vec<&TenantProgress> = oracle
            .iter()
            .filter(|(id, _)| shard_for(*id, shards) == s.shard)
            .map(|(_, p)| p)
            .collect();
        assert_eq!(s.tenants, owned.len(), "shard {}: tenant count", s.shard);
        let sum = |f: fn(&TenantProgress) -> u64| owned.iter().map(|p| f(p)).sum::<u64>();
        assert_eq!(s.executed, sum(|p| p.executed), "shard {}: executed", s.shard);
        assert_eq!(s.dropped, sum(|p| p.dropped), "shard {}: dropped", s.shard);
        assert_eq!(s.shed_jobs, sum(|p| p.shed), "shard {}: shed", s.shard);
        assert_eq!(s.reconfig_cost, sum(|p| p.cost.reconfig), "shard {}: reconfig", s.shard);
        if worker_counters {
            let submits = (0..tenant_count())
                .filter(|&id| shard_for(id, shards) == s.shard)
                .flat_map(|id| (0..ROUNDS).flat_map(move |r| (0..2).map(move |p| (id, r, p))))
                .filter(|&(id, r, p)| !arrivals(id, r, p).is_empty())
                .count() as u64;
            assert_eq!(s.submits, submits, "shard {}: per-entry submit count", s.shard);
            assert_eq!(s.ticks, ROUNDS, "shard {}: ticks", s.shard);
        }
    }
    assert!(stats.conserves_jobs());
}

/// The core conformance claim, fault-free: batched ingestion computes
/// results and stats bit-identical to lone tenants for every policy, across
/// shard counts, and actually coalesces (at most one batch per epoch, not
/// one command per submit).
#[test]
fn batched_ingest_matches_lone_tenants_for_every_policy() {
    let (oracle_results, oracle_progress) = lone_run(None);
    for shards in [1, 2, 4] {
        let (results, stats, _) = run(quick_config(shards), &FaultPlan::none());
        assert_eq!(results, oracle_results, "{shards} shards: results diverged");
        assert_stats_conform(&stats, &oracle_progress, true);
        for shard in &stats.shards {
            assert!(
                shard.batches <= shard.ticks,
                "shard {}: at most one group commit per epoch ({} batches, {} ticks)",
                shard.shard,
                shard.batches,
                shard.ticks
            );
            assert!(shard.batches > 0, "shard {}: batching engaged", shard.shard);
        }
    }
}

/// Kill every shard's worker once mid-run: WAL replay of `SubmitBatch`
/// group commits must land on the lone-tenant oracle's state.
#[test]
fn killed_workers_replay_group_commits_bit_identically() {
    let shards = 2;
    let plan = FaultPlan::kill_each_shard_once(shards, ROUNDS, 42);
    let (oracle_results, oracle_progress) = lone_run(None);
    let (chaos_results, chaos_stats, recoveries) = run(quick_config(shards), &plan);
    assert!(recoveries >= shards as u64, "every injected kill recovered");
    assert_eq!(chaos_results, oracle_results, "recovery diverged from the oracle");
    assert_stats_conform(&chaos_stats, &oracle_progress, false);
}

/// Mid-batch inbox shedding: with a low watermark and two submits per tenant
/// per epoch, shedding decisions depend on the *order of entries within a
/// group commit*. They must agree with the lone-tenant oracle, and survive
/// a worker kill (replay re-sheds identically).
#[test]
fn mid_batch_shedding_matches_oracle_and_survives_kills() {
    let shed = ShedConfig { inbox_watermark: Some(3), queue_watermark: None };
    let shards = 2;
    let config = SupervisorConfig { shed, ..quick_config(shards) };
    let (oracle_results, oracle_progress) = lone_run(shed.inbox_watermark);
    assert!(
        oracle_progress.iter().any(|(_, p)| p.shed > 0),
        "the watermark is low enough to bite"
    );
    let (results, stats, _) = run(config, &FaultPlan::none());
    assert_eq!(results, oracle_results, "mid-batch shedding diverged");
    assert_stats_conform(&stats, &oracle_progress, true);

    let plan = FaultPlan::kill_each_shard_once(shards, ROUNDS, 7);
    let (chaos_results, chaos_stats, recoveries) = run(config, &plan);
    assert!(recoveries >= shards as u64);
    assert_eq!(chaos_results, oracle_results, "replayed shedding diverged");
    assert_stats_conform(&chaos_stats, &oracle_progress, false);
}

/// A worker that applies its tick but never publishes the epoch ack
/// ([`FaultKind::DropAck`]) must be detected at the join phase and rebuilt —
/// and since the tick was journaled, the rebuild lands on identical state.
#[test]
fn dropped_epoch_ack_recovers_bit_identically() {
    let shards = 2;
    let plan = FaultPlan {
        faults: vec![Fault { shard: 0, at_tick: 6, kind: FaultKind::DropAck }],
    };
    let (oracle_results, oracle_progress) = lone_run(None);
    quiet_injected_panics();
    let tenants = tenant_count();
    let mut sup = Supervisor::with_faults(quick_config(shards), &plan).unwrap();
    for id in 0..tenants {
        sup.add_tenant(id, spec(policy_for(id))).unwrap();
    }
    for round in 0..ROUNDS {
        for part in 0..2 {
            for id in 0..tenants {
                sup.submit(id, arrivals(id, round, part)).unwrap();
            }
        }
        sup.tick().unwrap();
    }
    assert!(sup.recoveries() >= 1, "the silent ack drop was detected");
    assert!(
        sup.recovery_events().iter().any(|e| e.cause.contains("tick epoch was not acknowledged")),
        "recovery came from the join phase: {:?}",
        sup.recovery_events()
    );
    let stats = sup.stats().unwrap();
    assert_stats_conform(&stats, &oracle_progress, false);
    assert_eq!(sup.finish().unwrap(), oracle_results, "ack-drop recovery diverged");
}
