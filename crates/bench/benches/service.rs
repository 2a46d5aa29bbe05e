//! E12g — service shard scaling: the same multi-tenant open-loop load driven
//! through a supervised `rrs-service` at 1, 2, 4 and 8 shards, steady and
//! with a mid-run worker kill (a `kill@ROUND:SHARD` fault plan the supervisor
//! recovers from checkpoint + WAL), plus the cost of shard snapshots and of
//! restoring from one as the run grows (both hold state, not history, so
//! neither should grow with the run).
//!
//! On a multi-core machine throughput should grow with the shard count until
//! tenants-per-shard stops amortizing the command queue; on a single-core
//! container the curves collapse to the 1-shard line plus queue overhead.
//! Before timing anything, the harness asserts conformance: every shard
//! count, with a kill in the middle, must produce final per-tenant results
//! identical to lone tenants fed the same arrivals.
//!
//! E13b — supervised recovery and overload shedding: the same load steady vs
//! a fault plan that kills every shard's worker once (the steady/faulted gap
//! is the checkpoint + WAL recovery cost), and a 4× overload drive with and
//! without an inbox watermark (the shedding fast-path vs buffering
//! everything). Both are gated on bit-identical results against the
//! lone-tenant reference before timing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rrs_service::{
    FaultPlan, PolicySpec, RetryPolicy, ShedConfig, Supervisor, SupervisorConfig, Tenant,
    TenantSpec,
};
use rrs_workloads::{MultiTenantLoad, OpenLoopDriver, RandomBatched, WorkloadSpec};
use std::hint::black_box;

const TENANTS: u64 = 16;
const N: usize = 8;
const DELTA: u64 = 4;

fn bench_load(horizon: u64) -> MultiTenantLoad {
    MultiTenantLoad::new(
        WorkloadSpec::RandomBatched(RandomBatched {
            delay_bounds: vec![4, 8, 16, 32],
            load: 0.6,
            activity: 0.8,
            horizon,
            rate_limited: true,
        }),
        TENANTS,
        12,
    )
}

fn tenant_spec(driver: &OpenLoopDriver, t: u64) -> TenantSpec {
    TenantSpec::new(PolicySpec::DlruEdf, driver.trace(t).colors().clone(), N, DELTA)
}

/// The reference: each tenant's arrivals through a lone tenant, ticked to
/// the fleet horizon like the service does. Results in tenant order.
fn lone_results(driver: &OpenLoopDriver) -> Vec<rrs_core::RunResult> {
    (0..driver.tenants())
        .map(|t| {
            let mut lone = Tenant::new(tenant_spec(driver, t)).expect("tenant");
            for round in 0..=driver.horizon() {
                lone.submit(&driver.arrivals(t, round)).expect("submit");
                lone.tick().expect("tick");
            }
            lone.finish().expect("finish")
        })
        .collect()
}

/// Kills shard 0's worker while it applies the middle round.
fn mid_run_kill(driver: &OpenLoopDriver, shards: usize) -> FaultPlan {
    let spec = format!("kill@{}:0", driver.horizon() / 2 + 1);
    FaultPlan::parse(&spec, shards, driver.horizon() + 1).expect("fault plan")
}

/// Drives the whole load through a supervisor under a fault plan. Returns
/// the final per-tenant results (tenant order).
fn drive(
    driver: &OpenLoopDriver,
    shards: usize,
    plan: &FaultPlan,
    shed: ShedConfig,
) -> Vec<rrs_core::RunResult> {
    let config = SupervisorConfig {
        shards,
        queue_capacity: 64,
        checkpoint_every: 32,
        retry: RetryPolicy::default(),
        shed,
        ..SupervisorConfig::default()
    };
    let mut sup = Supervisor::with_faults(config, plan).expect("supervisor start");
    for t in 0..driver.tenants() {
        sup.add_tenant(t, tenant_spec(driver, t)).expect("add tenant");
    }
    for round in 0..=driver.horizon() {
        for t in 0..driver.tenants() {
            sup.submit(t, driver.arrivals(t, round)).expect("submit");
        }
        sup.tick().expect("tick");
    }
    let results = sup.finish().expect("finish");
    (0..driver.tenants()).map(|t| results[&t].clone()).collect()
}

fn bench_shard_scaling(c: &mut Criterion) {
    quiet_injected_panics();
    let load = bench_load(256);
    let driver = OpenLoopDriver::new(&load);
    let jobs: u64 = (0..TENANTS).map(|t| driver.trace(t).total_jobs()).sum();
    let no_shed = ShedConfig::default();

    // Conformance gate: every shard count, with a mid-run kill, must agree
    // with the lone-tenant reference bit for bit.
    let reference = lone_results(&driver);
    for shards in [1usize, 2, 4, 8] {
        assert_eq!(
            drive(&driver, shards, &mid_run_kill(&driver, shards), no_shed),
            reference,
            "kill and recovery at {shards} shards changed results"
        );
    }
    println!(
        "service: kill/recover conformance OK at 1/2/4/8 shards \
         ({TENANTS} tenants, {jobs} jobs)"
    );

    let mut group = c.benchmark_group("service-shard-scaling");
    group.sample_size(10);
    group.throughput(Throughput::Elements(jobs));
    for shards in [1usize, 2, 4, 8] {
        let kill = mid_run_kill(&driver, shards);
        group.bench_function(BenchmarkId::new("steady", shards), |b| {
            b.iter(|| black_box(drive(&driver, shards, &FaultPlan::none(), no_shed)).len());
        });
        group.bench_function(BenchmarkId::new("kill-recover", shards), |b| {
            b.iter(|| black_box(drive(&driver, shards, &kill, no_shed)).len());
        });
    }
    group.finish();
}

fn bench_snapshot_restore(c: &mut Criterion) {
    // Cost of the snapshot and of restoring from it as the run gets longer:
    // a snapshot holds each tenant's state, not its arrivals, so both should
    // stay flat across horizons.
    let mut group = c.benchmark_group("service-snapshot");
    for horizon in [64u64, 256] {
        let load = bench_load(horizon);
        let driver = OpenLoopDriver::new(&load);
        let config = SupervisorConfig { shards: 2, queue_capacity: 64, ..Default::default() };
        let mut sup = Supervisor::new(config).expect("supervisor start");
        for t in 0..driver.tenants() {
            sup.add_tenant(t, tenant_spec(&driver, t)).expect("add tenant");
        }
        for round in 0..=driver.horizon() {
            for t in 0..driver.tenants() {
                sup.submit(t, driver.arrivals(t, round)).expect("submit");
            }
            sup.tick().expect("tick");
        }
        group.bench_function(BenchmarkId::new("snapshot", horizon), |b| {
            b.iter(|| black_box(sup.snapshot_shard(0).expect("snapshot")));
        });
        let snap = sup.snapshot_shard(0).expect("snapshot");
        group.bench_function(BenchmarkId::new("restore", horizon), |b| {
            b.iter(|| {
                rrs_service::restore_tenants(black_box(snap.clone())).expect("restore").len()
            });
        });
        sup.finish().expect("finish");
    }
    group.finish();
}

/// Injected panics are expected during the recovery benches; keep them
/// quiet.
fn quiet_injected_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
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

fn bench_supervised_recovery(c: &mut Criterion) {
    quiet_injected_panics();
    let load = bench_load(192);
    let driver = OpenLoopDriver::new(&load);
    let jobs: u64 = (0..TENANTS).map(|t| driver.trace(t).total_jobs()).sum();
    let no_shed = ShedConfig::default();

    // Conformance gate: supervised steady and supervised-with-kills must both
    // match the lone-tenant reference bit for bit.
    let reference = lone_results(&driver);
    for shards in [2usize, 4] {
        let plan = FaultPlan::kill_each_shard_once(shards, driver.horizon() + 1, 7);
        assert_eq!(
            drive(&driver, shards, &FaultPlan::none(), no_shed),
            reference,
            "supervised steady run diverged at {shards} shards"
        );
        assert_eq!(
            drive(&driver, shards, &plan, no_shed),
            reference,
            "recovery at {shards} shards changed results"
        );
    }
    println!("service: supervised recovery conformance OK at 2/4 shards");

    let mut group = c.benchmark_group("service-recovery");
    group.sample_size(10);
    group.throughput(Throughput::Elements(jobs));
    for shards in [2usize, 4] {
        let plan = FaultPlan::kill_each_shard_once(shards, driver.horizon() + 1, 7);
        group.bench_function(BenchmarkId::new("supervised-steady", shards), |b| {
            b.iter(|| black_box(drive(&driver, shards, &FaultPlan::none(), no_shed)).len());
        });
        group.bench_function(BenchmarkId::new("kill-each-shard", shards), |b| {
            b.iter(|| black_box(drive(&driver, shards, &plan, no_shed)).len());
        });
    }
    group.finish();
}

fn bench_shedding_throughput(c: &mut Criterion) {
    // A 4× overload drive: every tenant submits a fixed burst per round that
    // is four times the inbox watermark. With shedding on, excess jobs take
    // the counted fast-path; with shedding off they all buffer and tick.
    const ROUNDS: u64 = 128;
    const WATERMARK: u64 = 8;
    const BURST: u64 = 4 * WATERMARK;
    let drive_overload = |shed: ShedConfig| {
        let config = SupervisorConfig {
            shards: 2,
            queue_capacity: 64,
            checkpoint_every: 32,
            retry: RetryPolicy::default(),
            shed,
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(config).expect("supervisor start");
        let colors = rrs_core::ColorTable::from_delay_bounds(&[4, 8, 16, 32]);
        for t in 0..TENANTS {
            sup.add_tenant(t, TenantSpec::new(PolicySpec::DlruEdf, colors.clone(), N, DELTA))
                .expect("add tenant");
        }
        for _ in 0..ROUNDS {
            for t in 0..TENANTS {
                sup.submit(t, vec![(rrs_core::ColorId(0), BURST)]).expect("submit");
            }
            sup.tick().expect("tick");
        }
        let stats = sup.stats().expect("stats");
        sup.finish().expect("finish");
        stats
    };

    // Gate: under overload the watermark sheds exactly the excess.
    let stats = drive_overload(ShedConfig {
        inbox_watermark: Some(WATERMARK),
        queue_watermark: None,
    });
    assert_eq!(
        stats.shed(),
        TENANTS * ROUNDS * (BURST - WATERMARK),
        "inbox watermark must shed exactly the per-round excess"
    );
    println!("service: overload shedding accounts for the excess exactly");

    let mut group = c.benchmark_group("service-shedding");
    group.sample_size(10);
    group.throughput(Throughput::Elements(TENANTS * ROUNDS * BURST));
    group.bench_function("overload-no-shed", |b| {
        b.iter(|| black_box(drive_overload(ShedConfig::default())).shed());
    });
    group.bench_function("overload-inbox-watermark", |b| {
        b.iter(|| {
            black_box(drive_overload(ShedConfig {
                inbox_watermark: Some(WATERMARK),
                queue_watermark: None,
            }))
            .shed()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_shard_scaling,
    bench_snapshot_restore,
    bench_supervised_recovery,
    bench_shedding_throughput
);
criterion_main!(benches);
