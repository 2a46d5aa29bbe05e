//! Storage-fault suite at the supervisor level: the supervised service over a
//! [`DiskBackend`] whose group commits fail in controlled ways.
//!
//! The claims under test are the self-healing storage contract:
//!
//! Every live run is compared against the same arrivals fed through lone
//! [`Tenant`]s — no service, no storage.
//!
//! * **Transient IO errors** are absorbed by seeded-jittered retries inside
//!   the commit — no degradation, full durability, identical results.
//! * **IO-error bursts** and **disk-full outages** flip the store into
//!   degraded memory-mirror mode: the service keeps answering (results stay
//!   bit-identical to a fault-free run), every commit while degraded doubles
//!   as a re-attach probe, and the heal backfills the missed records so a
//!   cold start still recovers *everything*.
//! * **Slow IO** only perturbs timing, never results.
//! * **Random IO fault plans** (the chaos-lattice generator) never panic the
//!   service, never break job conservation, and always leave a recoverable
//!   data directory.

use rrs_service::{
    DiskBackend, DiskConfig, FaultPlan, PolicySpec, RetryPolicy, ShedConfig, Supervisor,
    SupervisorConfig, Tenant, TenantSpec,
};
use rrs_core::{ColorId, ColorTable, RunResult};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

const DELAY_BOUNDS: &[u64] = &[2, 4, 8];
const TENANTS: u64 = 5;
const ROUNDS: u64 = 16;

fn spec(policy: PolicySpec) -> TenantSpec {
    TenantSpec::new(policy, ColorTable::from_delay_bounds(DELAY_BOUNDS), 4, 2)
}

fn policy_for(id: u64) -> PolicySpec {
    let all = PolicySpec::all();
    all[(id as usize) % all.len()]
}

fn arrivals(tenant: u64, round: u64) -> Vec<(ColorId, u64)> {
    let mut out = Vec::new();
    for c in 0..DELAY_BOUNDS.len() as u64 {
        let mix = tenant
            .wrapping_mul(31)
            .wrapping_add(round.wrapping_mul(17))
            .wrapping_add(c.wrapping_mul(7));
        if mix % 3 != 0 {
            out.push((ColorId(c as u32), 1 + mix % 4));
        }
    }
    out
}

fn config(shards: usize) -> SupervisorConfig {
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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rrs-iofault-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn disk_backend(dir: &Path) -> Box<DiskBackend> {
    let mut cfg = DiskConfig::new(dir);
    cfg.io_backoff = Duration::from_micros(50); // keep injected retries fast
    Box::new(DiskBackend::new(cfg))
}

/// Drives the standard workload over a disk-backed supervisor, returning
/// the final results plus the storage counters observed before `finish`.
fn disk_run(dir: &Path, plan: &FaultPlan) -> (BTreeMap<u64, RunResult>, rrs_service::StorageStats) {
    let mut sup = Supervisor::with_storage(config(2), plan, disk_backend(dir)).unwrap();
    for id in 0..TENANTS {
        sup.add_tenant(id, spec(policy_for(id))).unwrap();
    }
    for round in 0..ROUNDS {
        for id in 0..TENANTS {
            sup.submit(id, arrivals(id, round)).unwrap();
        }
        sup.tick().unwrap();
    }
    let stats = sup.stats().unwrap();
    assert!(stats.conserves_jobs(), "job conservation broken under IO faults");
    let storage = stats.storage.clone();
    (sup.finish().unwrap(), storage)
}

/// The fault-free oracle: the same workload through lone tenants.
fn clean_run() -> BTreeMap<u64, RunResult> {
    (0..TENANTS)
        .map(|id| {
            let mut t = Tenant::new(spec(policy_for(id))).unwrap();
            for round in 0..ROUNDS {
                t.submit(&arrivals(id, round)).unwrap();
                t.tick().unwrap();
            }
            (id, t.finish().unwrap())
        })
        .collect()
}

/// Cold-starts a supervisor from `dir` and drains it — the disk-recovery
/// oracle. When every fault healed before shutdown this must reproduce the
/// live run's results exactly.
fn cold_start_results(dir: &Path) -> BTreeMap<u64, RunResult> {
    let mut sup =
        Supervisor::with_storage(config(2), &FaultPlan::none(), disk_backend(dir)).unwrap();
    let stats = sup.stats().unwrap();
    assert!(stats.conserves_jobs(), "recovered state must conserve jobs");
    sup.finish().unwrap()
}

#[test]
fn transient_io_errors_are_retried_with_no_visible_effect() {
    let dir = temp_dir("transient");
    let plan = FaultPlan::parse("transient-io@4:0:2, transient-io@6:1:3", 2, ROUNDS).unwrap();
    let (results, storage) = disk_run(&dir, &plan);
    assert!(storage.retries >= 5, "every injected failure retried: {}", storage.retries);
    assert_eq!(storage.degraded_commits, 0, "retries absorbed the glitches in place");
    assert_eq!(results, clean_run(), "transient IO changed results");
    assert_eq!(
        cold_start_results(&dir),
        results,
        "cold start lost records"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn io_error_burst_degrades_heals_and_stays_bit_identical() {
    let dir = temp_dir("burst");
    let plan = FaultPlan::parse("io-error-burst@5:0:2, io-error-burst@7:1:3", 2, ROUNDS).unwrap();
    let (results, storage) = disk_run(&dir, &plan);
    assert!(storage.degraded_commits >= 2, "outage commits served from the mirror");
    assert!(storage.heal_events >= 2, "both shards re-attached: {}", storage.heal_events);
    assert_eq!(results, clean_run(), "the outage changed results");
    // The heal backfilled the mirror-only records: full durability.
    assert_eq!(
        cold_start_results(&dir),
        results,
        "degraded-era records were not backfilled"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_full_outage_is_survived_and_healed() {
    let dir = temp_dir("full");
    let plan = FaultPlan::parse("disk-full@6:0:2", 2, ROUNDS).unwrap();
    let (results, storage) = disk_run(&dir, &plan);
    assert!(storage.degraded_commits >= 1);
    assert!(storage.heal_events >= 1, "the shard re-attached after the outage");
    assert_eq!(results, clean_run());
    assert_eq!(cold_start_results(&dir), results);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_io_perturbs_timing_but_never_results() {
    let dir = temp_dir("slow");
    let plan = FaultPlan::parse("slow-io@3:0:25, slow-io@9:1:25", 2, ROUNDS).unwrap();
    let (results, storage) = disk_run(&dir, &plan);
    assert_eq!(storage.degraded_commits, 0, "slowness is not failure");
    assert_eq!(results, clean_run());
    assert_eq!(cold_start_results(&dir), results);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn late_io_faults_heal_and_match_lone_tenants() {
    let dir = temp_dir("late");
    let plan =
        FaultPlan::parse("transient-io@9:0:2, io-error-burst@14:1:2", 2, ROUNDS).unwrap();
    let (results, storage) = disk_run(&dir, &plan);
    assert!(storage.retries >= 2, "the late transient errors were retried");
    assert!(storage.heal_events >= 1, "the late burst degraded and healed");
    assert_eq!(results, clean_run());
    assert_eq!(cold_start_results(&dir), results);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The chaos-lattice generator never panics the service, never breaks
/// conservation, and always leaves a directory a cold start can recover
/// (random plans may include torn writes, so the cold start is only checked
/// for soundness, not equality — that prefix oracle lives in `rrs chaos`).
#[test]
fn random_io_plans_are_survivable_and_recoverable() {
    for seed in [1u64, 7, 1312] {
        let dir = temp_dir(&format!("rand-{seed}"));
        let plan = FaultPlan::random_io(seed, 2, ROUNDS, 4);
        assert!(!plan.faults.is_empty(), "seed {seed} generated no faults");
        let (results, _) = disk_run(&dir, &plan);
        assert_eq!(results.len(), TENANTS as usize);
        let mut sup =
            Supervisor::with_storage(config(2), &FaultPlan::none(), disk_backend(&dir)).unwrap();
        let stats = sup.stats().unwrap();
        assert!(stats.conserves_jobs(), "seed {seed}: recovered state conserves jobs");
        sup.finish().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
