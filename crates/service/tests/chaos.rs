//! Chaos tests: the supervised service under injected faults and overload.
//!
//! The core claim is the acceptance criterion of the supervision layer: with
//! a seeded [`FaultPlan`] that kills each shard's worker once mid-run, the
//! supervised final per-tenant [`RunResult`]s are **bit-identical** to a
//! fault-free run (both a supervised one and lone [`Tenant`]s) —
//! checkpoint + WAL recovery loses nothing, including commands that were
//! sitting in a dead worker's queue. Mixed fault plans (stalls, dropped
//! replies, corrupted snapshots) change the *timing* of the run but never
//! its results. Under sustained overload with shedding enabled the run
//! completes without deadlock, sheds deterministically at the inbox
//! watermark, and accounts for every submitted job.
//!
//! `chaos_random_smoke` adds a time-boxed random-plan pass when
//! `RRS_CHAOS_MS` is set (used by CI's chaos job); the seed is printed
//! before each iteration so a failure reproduces from the log.

use rrs_core::{ColorId, ColorTable, RunResult};
use rrs_service::{
    FaultPlan, PolicySpec, RetryPolicy, ShedConfig, Supervisor, SupervisorConfig, Tenant,
    TenantSpec,
};
use std::collections::BTreeMap;
use std::sync::Once;
use std::time::Duration;

const DELAY_BOUNDS: &[u64] = &[2, 4, 8];
const N: usize = 4;
const DELTA: u64 = 2;
const TENANTS: u64 = 5;
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

fn policy_for(id: u64) -> PolicySpec {
    let all = PolicySpec::all();
    all[(id as usize) % all.len()]
}

/// Deterministic per-tenant arrivals: a function of `(tenant, round)` only,
/// so every execution path sees the same workload.
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

/// Runs the standard workload through a supervisor; returns final results
/// and the recovery count.
fn supervised_run(
    config: SupervisorConfig,
    plan: &FaultPlan,
) -> (BTreeMap<u64, RunResult>, u64) {
    quiet_injected_panics();
    let mut sup = Supervisor::with_faults(config, plan).unwrap();
    for id in 0..TENANTS {
        sup.add_tenant(id, spec(policy_for(id))).unwrap();
    }
    for round in 0..ROUNDS {
        for id in 0..TENANTS {
            sup.submit(id, arrivals(id, round)).unwrap();
        }
        sup.tick().unwrap();
    }
    let recoveries = sup.recoveries();
    (sup.finish().unwrap(), recoveries)
}

/// The same workload through lone tenants: no service, no shards.
fn lone_run() -> BTreeMap<u64, RunResult> {
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

/// The acceptance criterion: kill each shard's worker once at a seeded tick;
/// recovery from checkpoint + WAL must be bit-identical to a run that never
/// failed — supervised or not.
#[test]
fn kill_each_shard_once_is_bit_identical_to_unfailed_run() {
    let shards = 2;
    let plan = FaultPlan::kill_each_shard_once(shards, ROUNDS, 42);
    assert_eq!(plan.faults.len(), shards);
    let (chaotic, recoveries) = supervised_run(quick_config(shards), &plan);
    assert!(recoveries >= shards as u64, "each injected kill recovered: {recoveries}");
    let (clean, clean_recoveries) = supervised_run(quick_config(shards), &FaultPlan::none());
    assert_eq!(clean_recoveries, 0, "no spurious recoveries without faults");
    assert_eq!(chaotic, clean, "recovery diverged from the unfailed supervised run");
    assert_eq!(chaotic, lone_run(), "recovery diverged from the lone tenants");
}

/// Stalls, dropped replies and corrupted snapshots perturb timing and
/// trigger retries, recoveries and checkpoint rejections — but results are
/// timing-independent.
#[test]
fn mixed_fault_plan_preserves_results() {
    let shards = 2;
    let plan = FaultPlan::parse(
        "stall@2:0:40, drop-reply@5:0, corrupt-snapshot@4:1, panic@7:1, panic@11:0",
        shards,
        ROUNDS,
    )
    .unwrap();
    let (chaotic, recoveries) = supervised_run(quick_config(shards), &plan);
    assert!(recoveries >= 2, "both panics force recovery: {recoveries}");
    assert_eq!(chaotic, lone_run(), "mixed faults changed results");
}

/// 4× overload against an inbox watermark: the run completes without
/// deadlock, sheds are per-tenant and deterministic (two identical runs
/// agree), and every submitted job is accounted for as
/// `submitted = arrived + inbox + shed`.
#[test]
fn overload_sheds_deterministically_instead_of_deadlocking() {
    let watermark = 4u64;
    let per_round = 4 * watermark; // 4× the admissible burst
    let config = SupervisorConfig {
        shed: ShedConfig { inbox_watermark: Some(watermark), queue_watermark: None },
        ..quick_config(2)
    };
    let run = |config: SupervisorConfig| {
        let mut sup = Supervisor::with_faults(config, &FaultPlan::none()).unwrap();
        for id in 0..TENANTS {
            sup.add_tenant(id, spec(policy_for(id))).unwrap();
        }
        for _ in 0..ROUNDS {
            for id in 0..TENANTS {
                sup.submit(id, vec![(ColorId(0), per_round)]).unwrap();
            }
            sup.tick().unwrap();
        }
        let stats = sup.stats().unwrap();
        sup.finish().unwrap();
        stats
    };
    let stats = run(config);
    let submitted = ROUNDS * per_round;
    for (id, p) in &stats.tenants {
        assert!(p.shed > 0, "tenant {id} shed nothing under 4x overload");
        assert_eq!(
            p.arrived + p.inbox + p.shed,
            submitted,
            "tenant {id}: submitted jobs not accounted for"
        );
    }
    assert!(stats.conserves_jobs());
    let again = run(config);
    let sheds = |s: &rrs_service::ServiceStats| -> Vec<(u64, u64)> {
        s.tenants.iter().map(|(id, p)| (*id, p.shed)).collect()
    };
    assert_eq!(sheds(&stats), sheds(&again), "inbox shedding must be deterministic");
}

/// Queue-watermark shedding: with the watermark at 0 every submit is shed at
/// the door, so the engines never see a job, yet stats attribute every shed
/// job to its tenant and `finish` completes cleanly.
#[test]
fn queue_watermark_sheds_at_the_door() {
    let config = SupervisorConfig {
        shed: ShedConfig { inbox_watermark: None, queue_watermark: Some(0) },
        ..quick_config(2)
    };
    let mut sup = Supervisor::with_faults(config, &FaultPlan::none()).unwrap();
    for id in 0..TENANTS {
        sup.add_tenant(id, spec(policy_for(id))).unwrap();
    }
    for _ in 0..4 {
        for id in 0..TENANTS {
            sup.submit(id, vec![(ColorId(0), 3)]).unwrap();
        }
        sup.tick().unwrap();
    }
    let stats = sup.stats().unwrap();
    for (id, p) in &stats.tenants {
        assert_eq!(p.shed, 12, "tenant {id}: every job shed at the queue watermark");
        assert_eq!(p.arrived, 0, "tenant {id}: no job reached the engine");
    }
    assert_eq!(stats.shed(), TENANTS * 12);
    let results = sup.finish().unwrap();
    assert_eq!(results.len(), TENANTS as usize);
}

/// Recovery survives a corrupted checkpoint: the corrupt snapshot reply is
/// rejected at validation, so a later panic recovers from the older
/// checkpoint with a longer WAL replay — still bit-identical.
#[test]
fn corrupt_checkpoint_then_panic_recovers_from_older_state() {
    let shards = 1;
    // checkpoint_every = 5 → the tick-5 checkpoint gets the corrupt reply.
    let plan = FaultPlan::parse("corrupt-snapshot@5, panic@9", shards, ROUNDS).unwrap();
    let (chaotic, recoveries) = supervised_run(quick_config(shards), &plan);
    assert!(recoveries >= 1);
    assert_eq!(chaotic, lone_run(), "fallback recovery diverged");
}

/// Random *IO* fault plans over the disk backend: transient errors, slow
/// commits, whole-commit bursts and disk-full outages (plus the classic
/// torn-write/corrupt-CRC crash faults) must never change the live run's
/// results — the degraded memory mirror keeps serving while the disk heals.
#[test]
fn random_io_chaos_on_disk_preserves_results() {
    for seed in [3u64, 99] {
        chaos_io_one(seed);
    }
}

/// One seeded random-IO-plan run over the disk backend, compared against a
/// fault-free oracle. Shared by the fixed-seed test above and the
/// time-boxed `chaos_random_smoke`.
fn chaos_io_one(seed: u64) {
    use rrs_service::{DiskBackend, DiskConfig};
    quiet_injected_panics();
    let shards = 1 + (seed % 3) as usize;
    let plan = rrs_service::FaultPlan::random_io(seed, shards, ROUNDS, 4);
    let dir = std::env::temp_dir().join(format!(
        "rrs-chaos-io-{seed}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = DiskConfig::new(&dir);
    cfg.io_backoff = Duration::from_micros(50);
    let mut sup = Supervisor::with_storage(
        quick_config(shards),
        &plan,
        Box::new(DiskBackend::new(cfg)),
    )
    .unwrap();
    for id in 0..TENANTS {
        sup.add_tenant(id, spec(policy_for(id))).unwrap();
    }
    for round in 0..ROUNDS {
        for id in 0..TENANTS {
            sup.submit(id, arrivals(id, round)).unwrap();
        }
        sup.tick().unwrap();
    }
    let chaotic = sup.finish().unwrap();
    let (clean, _) = supervised_run(quick_config(shards), &FaultPlan::none());
    assert_eq!(chaotic, clean, "seed {seed}: IO fault plan changed results");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker that dies every epoch is a restart storm. The circuit breaker
/// must bound the respawn count (trip, shed with accounting, stay open),
/// keep job conservation intact, and still let `finish` drain cleanly via
/// the forced half-open probe.
#[test]
fn breaker_bounds_a_restart_storm_under_the_chaos_workload() {
    use rrs_service::BreakerConfig;
    quiet_injected_panics();
    let shards = 2;
    let storm = FaultPlan {
        faults: (1..=ROUNDS)
            .map(|t| rrs_service::Fault {
                shard: 0,
                at_tick: t,
                kind: rrs_service::FaultKind::Panic,
            })
            .collect(),
    };
    let mut sup = Supervisor::with_faults(quick_config(shards), &storm).unwrap();
    sup.set_breaker(BreakerConfig { trip_after: 3, window: 32, cooldown: 10_000, probes: 2 });
    for id in 0..TENANTS {
        sup.add_tenant(id, spec(policy_for(id))).unwrap();
    }
    for round in 0..ROUNDS {
        for id in 0..TENANTS {
            sup.submit(id, arrivals(id, round)).unwrap();
        }
        sup.tick().unwrap();
    }
    assert_eq!(sup.breaker_trips(), 1, "the storm trips exactly once");
    assert!(
        sup.recoveries() <= 4,
        "respawns bounded by trip_after + forced probe, got {}",
        sup.recoveries()
    );
    let stats = sup.stats().unwrap();
    assert!(stats.conserves_jobs(), "shed accounting keeps conservation intact");
    assert!(
        stats.tenants.iter().any(|(_, p)| p.shed > 0),
        "traffic to the open shard was shed with per-tenant accounting"
    );
    let results = sup.finish().unwrap();
    assert_eq!(results.len(), TENANTS as usize, "finish drains every tenant");
}

/// SplitMix64, as in the fuzz suite.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn chaos_one(seed: u64) {
    let shards = 1 + (seed % 3) as usize;
    let plan = FaultPlan::random(seed, shards, ROUNDS, 4);
    let (chaotic, _) = supervised_run(quick_config(shards), &plan);
    let (clean, _) = supervised_run(quick_config(shards), &FaultPlan::none());
    assert_eq!(chaotic, clean, "seed {seed}: random fault plan changed results");
}

/// Time-boxed random-plan pass, enabled by `RRS_CHAOS_MS` (milliseconds).
/// Without the variable it runs a single extra seed of each kind, so
/// tier-1 stays fast and deterministic. Iterations alternate between
/// worker-fault plans on the memory backend and storage-IO-fault plans on
/// the disk backend, so the smoke exercises both fault families.
#[test]
fn chaos_random_smoke() {
    let budget_ms: u64 = std::env::var("RRS_CHAOS_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    if budget_ms == 0 {
        chaos_one(0xBADC_0FFE);
        chaos_io_one(0xBADC_0FFE);
        return;
    }
    let start = std::time::Instant::now();
    let mut seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(1);
    let mut iterations = 0u64;
    while start.elapsed().as_millis() < budget_ms as u128 {
        // Print the seed first so a failure is reproducible from the log.
        if iterations.is_multiple_of(2) {
            println!("chaos_random_smoke: worker seed {seed}");
            chaos_one(seed);
        } else {
            println!("chaos_random_smoke: io seed {seed}");
            chaos_io_one(seed);
        }
        seed = Rng(seed).next();
        iterations += 1;
    }
    println!("chaos_random_smoke: {iterations} iterations in {:?}", start.elapsed());
}
