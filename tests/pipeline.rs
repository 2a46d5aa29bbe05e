//! Cross-crate integration tests: the full VarBatch → Distribute → ΔLRU-EDF
//! pipeline against the engine, checker, and offline oracles — plus the
//! service pipeline parameterized over every [`StorageBackend`], pinning
//! that durability is invisible to scheduling results.

use rrs::offline::{optimal, OptConfig};
use rrs::prelude::*;
use rrs_analysis::runner::{run_kind, PolicyKind};
use rrs_service::{
    DiskBackend, DiskConfig, FaultPlan, MemoryBackend, PolicySpec, StorageBackend, Supervisor,
    SupervisorConfig, TenantSpec,
};
use std::collections::BTreeMap;

fn seeded_general(seed: u64, horizon: u64) -> Trace {
    RandomGeneral {
        delay_bounds: vec![4, 8, 16, 64],
        rates: vec![0.5, 0.4, 0.3, 0.2],
        horizon,
    }
    .generate(seed)
}

#[test]
fn varbatch_conserves_jobs_across_seeds() {
    for seed in 0..5 {
        let trace = seeded_general(seed, 256);
        let run = run_varbatch(&trace, 8, 3).unwrap();
        assert!(run.cost.drop <= trace.total_jobs());
        assert_eq!(
            run.cost.drop, run.distribute.projected_cost.drop,
            "seed {seed}: VarBatch drop accounting is consistent"
        );
    }
}

#[test]
fn distribute_projection_is_monotone_across_seeds() {
    for seed in 0..5 {
        let trace = RandomBatched {
            delay_bounds: vec![4, 8, 16],
            load: 2.0,
            activity: 0.8,
            horizon: 256,
            rate_limited: false,
        }
        .generate(seed);
        let run = run_distribute(&trace, 8, 3).unwrap();
        assert!(
            run.projected_cost.total() <= run.inner.cost.total(),
            "seed {seed}: Lemma 4.2"
        );
    }
}

#[test]
fn every_policy_cost_at_least_opt_on_small_instances() {
    // The exact DP is optimal: no policy (online or offline) may beat it with
    // the same m resources.
    for seed in 0..4 {
        let trace = RandomBatched {
            delay_bounds: vec![2, 4],
            load: 0.8,
            activity: 0.9,
            horizon: 24,
            rate_limited: true,
        }
        .generate(seed);
        let m = 2;
        let delta = 2;
        let opt = optimal(&trace, OptConfig::new(m, delta)).unwrap().cost;
        for kind in [
            PolicyKind::SeqEdf,
            PolicyKind::GreedyPending,
            PolicyKind::StaticPartition,
            PolicyKind::NeverReconfigure,
            PolicyKind::HindsightGreedy,
        ] {
            let s = run_kind(kind, &trace, m, delta).unwrap();
            assert!(
                s.cost.total() >= opt,
                "seed {seed}: {} cost {} < OPT {opt}",
                kind.name(),
                s.cost.total()
            );
        }
    }
}

#[test]
fn augmented_dlru_edf_beats_unaugmented_baselines_on_adversaries() {
    let adv = DlruAdversary {
        n: 8,
        delta: 2,
        j: 7,
        k: 9,
    };
    let trace = adv.generate();
    let combo = run_kind(PolicyKind::DlruEdf, &trace, 8, 2).unwrap();
    let dlru = run_kind(PolicyKind::Dlru, &trace, 8, 2).unwrap();
    assert!(combo.cost.total() * 4 <= dlru.cost.total());
}

#[test]
fn recorded_schedules_validate_for_all_batched_policies() {
    use rrs_core::{CostModel, Engine, EngineOptions};
    let trace = RandomBatched {
        delay_bounds: vec![2, 4, 8],
        load: 0.7,
        activity: 0.8,
        horizon: 64,
        rate_limited: true,
    }
    .generate(11);
    let engine = Engine::with_options(EngineOptions {
        speed: Speed::Uni,
        record_schedule: true,
        track_latency: false,
        track_perf: false,
    });
    let n = 8;
    let delta = 2;
    let mut policies: Vec<Box<dyn rrs_core::Policy>> = vec![
        Box::new(DlruEdf::new(trace.colors(), n, delta).unwrap()),
        Box::new(Dlru::new(trace.colors(), n, delta).unwrap()),
        Box::new(Edf::new(trace.colors(), n, delta).unwrap()),
    ];
    for p in policies.iter_mut() {
        let r = engine
            .run(&trace, p.as_mut(), n, CostModel::new(delta))
            .unwrap();
        let sched = r.schedule.as_ref().unwrap();
        let replayed =
            rrs_core::check_schedule(&trace, sched, CostModel::new(delta)).unwrap();
        assert_eq!(replayed, r.cost, "{}", p.name());
    }
}

#[test]
fn varbatch_on_arbitrary_delay_bounds() {
    // Non power-of-two bounds exercise the §5.3 extension end to end.
    let trace = RandomGeneral {
        delay_bounds: vec![5, 12, 48],
        rates: vec![0.4, 0.3, 0.1],
        horizon: 256,
    }
    .generate(3);
    let run = run_varbatch(&trace, 8, 2).unwrap();
    assert!(run.cost.drop < trace.total_jobs(), "some jobs are served");
}

/// Drives the multi-tenant service over a seeded workload on the given
/// storage backend and returns the final per-tenant results.
fn service_results(backend: Box<dyn StorageBackend>) -> BTreeMap<u64, rrs_core::RunResult> {
    let config = SupervisorConfig {
        shards: 2,
        queue_capacity: 64,
        checkpoint_every: 4,
        ..SupervisorConfig::default()
    };
    let mut sup = Supervisor::with_storage(config, &FaultPlan::none(), backend).unwrap();
    let policies = [PolicySpec::DlruEdf, PolicySpec::Dlru, PolicySpec::Edf];
    for id in 0u64..3 {
        let spec = TenantSpec::new(
            policies[id as usize],
            ColorTable::from_delay_bounds(&[2, 4, 8]),
            8,
            2,
        );
        sup.add_tenant(id, spec).unwrap();
    }
    // Per-tenant arrivals come from the same seeded generator the engine
    // pipeline tests use, bucketed by round.
    let traces: Vec<Trace> = (0..3)
        .map(|seed| {
            RandomBatched {
                delay_bounds: vec![2, 4, 8],
                load: 1.2,
                activity: 0.8,
                horizon: 24,
                rate_limited: false,
            }
            .generate(seed)
        })
        .collect();
    for round in 0..24u64 {
        for (id, trace) in traces.iter().enumerate() {
            let arrivals: Vec<(ColorId, u64)> = trace
                .iter()
                .filter(|a| a.round == round)
                .map(|a| (a.color, a.count))
                .collect();
            if !arrivals.is_empty() {
                sup.submit(id as u64, arrivals).unwrap();
            }
        }
        sup.tick().unwrap();
    }
    sup.finish().unwrap()
}

#[test]
fn service_pipeline_is_invariant_across_storage_backends() {
    let dir = std::env::temp_dir().join(format!("rrs-pipeline-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let memory = service_results(Box::new(MemoryBackend::new()));
    let disk = service_results(Box::new(DiskBackend::new(DiskConfig::new(&dir))));
    assert_eq!(
        memory, disk,
        "the storage backend must be invisible to scheduling results"
    );
    // Sanity: the workload actually scheduled something on every tenant.
    for (id, result) in &memory {
        assert!(result.executed > 0, "tenant {id} did no work");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn aggregate_realizes_lemma_41_on_opt_schedules() {
    // Build an exact OPT schedule for a batched instance with oversized
    // batches, then aggregate it into the split instance with 3x resources.
    let trace = TraceBuilder::with_delay_bounds(&[2, 4])
        .jobs(0, 0, 5)
        .jobs(2, 0, 1)
        .jobs(0, 1, 9)
        .jobs(8, 1, 2)
        .build();
    let opt = optimal(&trace, OptConfig::new(2, 2)).unwrap();
    let agg = aggregate(&trace, &opt.schedule, 3, 2).unwrap();
    assert_eq!(
        agg.schedule.executed_jobs(),
        opt.schedule.executed_jobs(),
        "Lemma 4.5: drop cost preserved"
    );
    assert!(
        agg.cost.reconfig <= 10 * opt.cost.max(1),
        "Lemma 4.6 shape: reconfig within a constant factor ({} vs {})",
        agg.cost.reconfig,
        opt.cost
    );
}
