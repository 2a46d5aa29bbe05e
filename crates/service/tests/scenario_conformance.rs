//! Streaming-source ≡ offline-oracle conformance through the live service.
//!
//! Every scenario generator — the Appendix A/B adversaries streaming in
//! closed form, the per-round-seeded stochastic generators, and a
//! trace-backed legacy generator — is driven through the supervised service
//! via [`StreamingDriver`] (arrivals queried round by round, never a
//! materialized trace), over both storage backends.
//! The per-tenant [`RunResult`]s must be bit-identical to a lone
//! [`StreamingEngine`] fed from the *materialized offline oracle trace*
//! ([`StreamingDriver::oracle`]) over the same fleet horizon: the streamed
//! rounds and the offline trace are interchangeable all the way through WAL,
//! sharding, group commit and disk recovery.

use rrs_core::{CostModel, RunResult, StreamingEngine};
use rrs_service::{
    DiskBackend, DiskConfig, FaultPlan, MemoryBackend, PolicySpec, StorageBackend, Supervisor,
    SupervisorConfig, TenantSpec,
};
use rrs_workloads::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

const TENANTS: u64 = 3;
const N: usize = 4;
const DELTA: u64 = 2;

/// The scenario matrix's workload axis, sized for test runtime (horizons
/// ≤ 128 rounds).
fn workloads() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::DlruAdversary(DlruAdversary::scaled(1)),
        WorkloadSpec::EdfAdversary(EdfAdversary::scaled(0)),
        WorkloadSpec::Drifting(DriftingDemand {
            period: 32,
            horizon: 64,
            ..DriftingDemand::default()
        }),
        WorkloadSpec::FlashCrowd(FlashCrowd {
            width: 16,
            horizon: 64,
            ..FlashCrowd::default()
        }),
        WorkloadSpec::Bursty(Bursty {
            delay_bounds: vec![2, 4, 8, 16],
            on_load: 0.7,
            p_on: 0.5,
            p_off: 0.4,
            horizon: 48,
            rate_limited: true,
        }),
    ]
}

/// Per-tenant reference: the tenant's *offline oracle trace* through a lone
/// streaming engine over the fleet horizon (the supervisor ticks every
/// tenant to the fleet-wide horizon, so the reference must too).
fn oracle_reference(driver: &StreamingDriver, policy: PolicySpec) -> Vec<RunResult> {
    (0..driver.tenants())
        .map(|t| {
            let trace = driver.oracle(t);
            let p = policy.build(trace.colors(), N, DELTA).unwrap();
            let mut eng = StreamingEngine::with_speed(
                trace.colors().clone(),
                p,
                N,
                CostModel::new(DELTA),
                policy.speed(),
            )
            .unwrap();
            for r in 0..=driver.horizon() {
                eng.step(&trace.arrivals_at(r)).unwrap();
            }
            eng.finish().unwrap()
        })
        .collect()
}

/// Drives the streaming sources through a supervised service and returns the
/// final per-tenant results.
fn service_run(
    driver: &StreamingDriver,
    policy: PolicySpec,
    shards: usize,
    backend: Box<dyn StorageBackend>,
) -> BTreeMap<u64, RunResult> {
    let config = SupervisorConfig {
        shards,
        queue_capacity: 16,
        checkpoint_every: 7,
        ..Default::default()
    };
    let mut sup = Supervisor::with_storage(config, &FaultPlan::none(), backend).unwrap();
    for t in 0..driver.tenants() {
        sup.add_tenant(t, TenantSpec::new(policy, driver.colors(t), N, DELTA))
            .unwrap();
    }
    for round in 0..=driver.horizon() {
        for t in 0..driver.tenants() {
            let arrivals = driver.arrivals(t, round);
            if !arrivals.is_empty() {
                sup.submit(t, arrivals).unwrap();
            }
        }
        sup.tick().unwrap();
    }
    sup.finish().unwrap()
}

fn check_all_workloads(disk: bool, tag: &str) {
    for (i, spec) in workloads().into_iter().enumerate() {
        let load = MultiTenantLoad::new(spec.clone(), TENANTS, 42);
        let driver = StreamingDriver::from_load(&load).unwrap();
        let policy = PolicySpec::DlruEdf;
        let reference = oracle_reference(&driver, policy);
        for shards in [1, 2] {
            let backend: Box<dyn StorageBackend> = if disk {
                let dir = scratch_dir(&format!("{tag}-{}-{shards}", spec.name()));
                Box::new(DiskBackend::new(DiskConfig::new(&dir)))
            } else {
                Box::new(MemoryBackend::new())
            };
            let results = service_run(&driver, policy, shards, backend);
            for t in 0..TENANTS {
                assert_eq!(
                    results[&t],
                    reference[t as usize],
                    "workload {} ({i}), tenant {t}, {shards} shards: live service \
                     diverged from the offline oracle",
                    spec.name()
                );
            }
            if disk {
                let _ = std::fs::remove_dir_all(scratch_dir(&format!(
                    "{tag}-{}-{shards}",
                    spec.name()
                )));
            }
        }
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rrs-scenario-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn streaming_sources_conform_batched_memory() {
    check_all_workloads(false, "b-mem");
}

#[test]
fn streaming_sources_conform_batched_disk() {
    check_all_workloads(true, "b-disk");
}

/// The same conformance claim across the *policy* axis: every streamable
/// policy computes identical results from streamed rounds and from the
/// materialized oracle (memory backend, one workload —
/// the drifting generator, whose demand sweep exercises reconfiguration).
#[test]
fn every_policy_conforms_on_the_drifting_source() {
    let load = MultiTenantLoad::new(
        WorkloadSpec::Drifting(DriftingDemand {
            period: 32,
            horizon: 48,
            ..DriftingDemand::default()
        }),
        2,
        7,
    );
    let driver = StreamingDriver::from_load(&load).unwrap();
    for &policy in PolicySpec::all() {
        let reference = oracle_reference(&driver, policy);
        let results = service_run(&driver, policy, 2, Box::new(MemoryBackend::new()));
        for t in 0..2 {
            assert_eq!(
                results[&t],
                reference[t as usize],
                "policy {}: tenant {t} diverged",
                policy.name()
            );
        }
    }
}
