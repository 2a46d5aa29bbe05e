//! E14 — durable storage tier: the same supervised multi-tenant load driven
//! on the in-memory backend vs the on-disk WAL + checkpoint store (with and
//! without fsync), plus cold-start recovery.
//!
//! Before timing anything, the harness asserts storage conformance: the
//! disk backend must produce final per-tenant results bit-identical to the
//! in-memory run — durability must be invisible to scheduling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rrs_core::{ColorId, ColorTable};
use rrs_service::{
    DiskBackend, DiskConfig, FaultPlan, MemoryBackend, PolicySpec, StorageBackend, Supervisor,
    SupervisorConfig, TenantSpec,
};
use std::hint::black_box;
use std::path::PathBuf;

const TENANTS: u64 = 8;
const SHARDS: usize = 2;
const ROUNDS: u64 = 96;
const SUBMITS: u64 = 4;

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rrs-bench-store-{tag}-{}", std::process::id()))
}

fn arrivals(tenant: u64, round: u64, part: u64) -> Vec<(ColorId, u64)> {
    let mix = tenant
        .wrapping_mul(31)
        .wrapping_add(round.wrapping_mul(17))
        .wrapping_add(part.wrapping_mul(13));
    vec![(ColorId((mix % 3) as u32), 1 + mix % 3)]
}

fn total_jobs() -> u64 {
    (0..ROUNDS)
        .flat_map(|r| (0..SUBMITS).flat_map(move |p| (0..TENANTS).map(move |t| (t, r, p))))
        .map(|(t, r, p)| arrivals(t, r, p).iter().map(|&(_, k)| k).sum::<u64>())
        .sum()
}

/// Drives the whole load on `backend`; returns final results tenant-ordered.
fn drive(backend: Box<dyn StorageBackend>) -> Vec<rrs_core::RunResult> {
    let config =
        SupervisorConfig { shards: SHARDS, checkpoint_every: 24, ..SupervisorConfig::default() };
    let mut sup =
        Supervisor::with_storage(config, &FaultPlan::none(), backend).expect("supervisor start");
    for id in 0..TENANTS {
        let spec = TenantSpec::new(
            PolicySpec::DlruEdf,
            ColorTable::from_delay_bounds(&[2, 4, 8]),
            4,
            2,
        );
        sup.add_tenant(id, spec).expect("add tenant");
    }
    for round in 0..ROUNDS {
        for part in 0..SUBMITS {
            for id in 0..TENANTS {
                sup.submit(id, arrivals(id, round, part)).expect("submit");
            }
        }
        sup.tick().expect("tick");
    }
    let results = sup.finish().expect("finish");
    (0..TENANTS).map(|t| results[&t].clone()).collect()
}

fn disk_config(dir: &PathBuf, fsync: bool) -> DiskConfig {
    let _ = std::fs::remove_dir_all(dir);
    let mut cfg = DiskConfig::new(dir);
    cfg.fsync = fsync;
    cfg
}

fn bench_backends(c: &mut Criterion) {
    // Conformance gate before any timing.
    let dir = scratch("conformance");
    let reference = drive(Box::new(MemoryBackend::new()));
    let disk = drive(Box::new(DiskBackend::new(disk_config(&dir, true))));
    assert_eq!(disk, reference, "disk backend changed scheduling results");
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "storage: backend conformance OK ({TENANTS} tenants, {} jobs)",
        total_jobs()
    );

    let mut group = c.benchmark_group("storage-backend");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total_jobs()));
    group.bench_function(BenchmarkId::new("memory", TENANTS), |b| {
        b.iter(|| black_box(drive(Box::new(MemoryBackend::new()))).len());
    });
    let dir = scratch("fsync");
    group.bench_function(BenchmarkId::new("disk-fsync", TENANTS), |b| {
        b.iter(|| black_box(drive(Box::new(DiskBackend::new(disk_config(&dir, true))))).len());
    });
    group.bench_function(BenchmarkId::new("disk-nofsync", TENANTS), |b| {
        b.iter(|| black_box(drive(Box::new(DiskBackend::new(disk_config(&dir, false))))).len());
    });
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

fn bench_cold_start(c: &mut Criterion) {
    // Write one durable run, then repeatedly cold-start supervisors over it.
    let dir = scratch("coldstart");
    drive(Box::new(DiskBackend::new(disk_config(&dir, false))));
    let config =
        SupervisorConfig { shards: SHARDS, checkpoint_every: 24, ..SupervisorConfig::default() };
    let mut group = c.benchmark_group("storage-cold-start");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("recover", ROUNDS), |b| {
        b.iter(|| {
            let mut cfg = DiskConfig::new(&dir);
            cfg.fsync = false;
            let sup = Supervisor::with_storage(
                config,
                &FaultPlan::none(),
                Box::new(DiskBackend::new(cfg)),
            )
            .expect("cold start");
            let ticks = sup.shard_ticks(0).expect("ticks");
            assert_eq!(ticks, ROUNDS);
            black_box(ticks)
        });
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_backends, bench_cold_start);
criterion_main!(benches);
