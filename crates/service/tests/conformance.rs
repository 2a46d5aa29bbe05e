//! Streaming ≡ batch conformance, for every streaming-capable policy.
//!
//! Feeding a random trace through a [`StreamingEngine`] round by round (and
//! through the service's [`Tenant`] wrapper, including a mid-run
//! snapshot → JSON → restore cycle) must produce a [`RunResult`] bit-identical
//! to replaying the same trace through the batch [`Engine`] — same cost, same
//! executed/dropped counts, same round count, same per-color breakdown. The
//! same must hold through a sharded [`Supervisor`] whose worker is killed in
//! the middle and rebuilt from checkpoint + WAL, at 1, 2 and 8 shards.

use rrs_core::{CostModel, Engine, EngineOptions, RunResult, StreamingEngine, Trace};
use rrs_service::{
    shard_for, FaultPlan, PolicySpec, Supervisor, SupervisorConfig, Tenant, TenantSpec,
};
use rrs_workloads::prelude::*;

const DELAY_BOUNDS: &[u64] = &[2, 4, 8, 16];
const N: usize = 4;
const DELTA: u64 = 2;

fn random_trace(seed: u64) -> Trace {
    WorkloadSpec::RandomBatched(RandomBatched {
        delay_bounds: DELAY_BOUNDS.to_vec(),
        load: 0.6,
        activity: 0.7,
        horizon: 48,
        rate_limited: false,
    })
    .generate(seed)
}

fn batch_reference(spec: PolicySpec, trace: &Trace) -> RunResult {
    let mut policy = spec
        .build(trace.colors(), N, DELTA)
        .expect("policy builds");
    Engine::with_options(EngineOptions { speed: spec.speed(), ..Default::default() })
        .run(trace, policy.as_mut(), N, CostModel::new(DELTA))
        .expect("batch run")
}

#[test]
fn every_policy_streams_identically_to_batch_replay() {
    for (i, &spec) in PolicySpec::all().iter().enumerate() {
        let trace = random_trace(1000 + i as u64);
        let batch = batch_reference(spec, &trace);

        let policy = spec.build(trace.colors(), N, DELTA).unwrap();
        let mut stream = StreamingEngine::with_speed(
            trace.colors().clone(),
            policy,
            N,
            CostModel::new(DELTA),
            spec.speed(),
        )
        .unwrap();
        for r in 0..=trace.horizon() {
            stream.step(&trace.arrivals_at(r)).unwrap();
        }
        let streamed = stream.finish().unwrap();
        assert_eq!(streamed, batch, "{}: streaming diverged from batch", spec.name());
    }
}

#[test]
fn every_policy_survives_mid_run_snapshot_restore() {
    for (i, &spec) in PolicySpec::all().iter().enumerate() {
        let trace = random_trace(2000 + i as u64);
        let batch = batch_reference(spec, &trace);
        let horizon = trace.horizon();
        // A policy-dependent pseudo-random cut strictly inside the run.
        let cut = 1 + (i as u64 * 7 + 3) % horizon;

        let tspec = TenantSpec::new(spec, trace.colors().clone(), N, DELTA);
        let mut live = Tenant::new(tspec).unwrap();
        for r in 0..cut {
            live.submit(&trace.arrivals_at(r)).unwrap();
            live.tick().unwrap();
        }

        // Snapshot → JSON → back, then restore (replays the arrival log
        // through a fresh policy and verifies the rebuilt engine state).
        let snap = live.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back, "{}: snapshot JSON round-trip", spec.name());
        let mut restored = Tenant::restore(back).unwrap();

        for r in cut..=horizon {
            let arrivals = trace.arrivals_at(r);
            live.submit(&arrivals).unwrap();
            live.tick().unwrap();
            restored.submit(&arrivals).unwrap();
            restored.tick().unwrap();
        }
        let live_result = live.finish().unwrap();
        let restored_result = restored.finish().unwrap();
        assert_eq!(
            restored_result, live_result,
            "{}: restored tenant diverged from uninterrupted run (cut at {cut})",
            spec.name()
        );
        assert_eq!(
            live_result, batch,
            "{}: streamed tenant diverged from batch replay",
            spec.name()
        );
    }
}

/// Drives `tenants` tenants through a supervisor with `shards` shards,
/// killing tenant 0's worker while it applies round `kill_round`, and
/// returns the final per-tenant results in tenant order.
fn service_run(
    load: &MultiTenantLoad,
    spec: PolicySpec,
    shards: usize,
    kill_round: u64,
) -> Vec<RunResult> {
    let driver = OpenLoopDriver::new(load);
    // Shard-local ticks are 1-based: round r is tick r + 1.
    let kill = format!("kill@{}:{}", kill_round + 1, shard_for(0, shards));
    let plan = FaultPlan::parse(&kill, shards, driver.horizon() + 1).unwrap();
    let config = SupervisorConfig {
        shards,
        queue_capacity: 16,
        checkpoint_every: 4,
        ..SupervisorConfig::default()
    };
    let mut sup = Supervisor::with_faults(config, &plan).unwrap();
    for t in 0..driver.tenants() {
        let tspec = TenantSpec::new(spec, driver.trace(t).colors().clone(), N, DELTA);
        sup.add_tenant(t, tspec).unwrap();
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
    assert_eq!(sup.recoveries(), 1, "the injected kill was recovered");
    let results = sup.finish().unwrap();
    (0..driver.tenants()).map(|t| results[&t].clone()).collect()
}

#[test]
fn kill_and_restore_conformance_across_1_2_8_shards() {
    let load = MultiTenantLoad::new(
        WorkloadSpec::RandomBatched(RandomBatched {
            delay_bounds: DELAY_BOUNDS.to_vec(),
            load: 0.5,
            activity: 0.8,
            horizon: 24,
            rate_limited: true,
        }),
        6,
        42,
    );
    let spec = PolicySpec::DlruEdf;

    // Per-tenant reference: the tenant's trace through a lone streaming
    // engine, no service, no sharding, no kill.
    let reference: Vec<RunResult> = (0..load.tenants)
        .map(|t| {
            let trace = load.trace_for(t);
            let policy = spec.build(trace.colors(), N, DELTA).unwrap();
            let mut eng = StreamingEngine::with_speed(
                trace.colors().clone(),
                policy,
                N,
                CostModel::new(DELTA),
                spec.speed(),
            )
            .unwrap();
            // The service ticks every tenant through the fleet-wide horizon.
            let fleet_horizon = OpenLoopDriver::new(&load).horizon();
            for r in 0..=fleet_horizon {
                eng.step(&trace.arrivals_at(r)).unwrap();
            }
            eng.finish().unwrap()
        })
        .collect();

    for shards in [1, 2, 8] {
        let got = service_run(&load, spec, shards, 9);
        assert_eq!(
            got, reference,
            "results changed under {shards} shards with a mid-run kill and recovery"
        );
    }
}
