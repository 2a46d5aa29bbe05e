//! Differential tests pinning the online algorithms against the exhaustive
//! offline oracle (`rrs_offline::exhaustive_optimal`) on instances small
//! enough for complete search (≤ 3 colors, horizon ≤ 16, m ≤ 3):
//!
//! * no online policy given the *same* resources ever beats OPT;
//! * ΔLRU-EDF under the paper's 8× augmentation stays within a fixed
//!   constant of exact OPT on rate-limited batched instances (Theorem 1's
//!   regime), with additive slack for startup reconfiguration.

use proptest::prelude::*;
use rrs::prelude::*;
use rrs_analysis::runner::{run_kind, PolicyKind};
use rrs_core::engine::run_policy;
use rrs_offline::exhaustive_optimal;
use rrs_service::{
    DiskBackend, DiskConfig, FaultPlan, MemoryBackend, PolicySpec, StorageBackend, Supervisor,
    SupervisorConfig, Tenant, TenantSpec,
};

/// Strategy: a trace tiny enough for exhaustive search. Delay bounds stay in
/// {1, 2, 4, 8} and rounds in 0..8, so `horizon ≤ 15` under the oracle's cap.
fn tiny_trace() -> impl Strategy<Value = Trace> {
    let bounds = proptest::collection::vec(
        prop_oneof![Just(1u64), Just(2), Just(4), Just(8)],
        1..=3usize,
    );
    bounds.prop_flat_map(|bounds| {
        let ncolors = bounds.len() as u32;
        let arrivals = proptest::collection::vec((0u64..8, 0..ncolors, 1u64..=3), 1..=8);
        arrivals.prop_map(move |arr| {
            let mut t = Trace::new(ColorTable::from_delay_bounds(&bounds));
            for (round, c, count) in arr {
                t.add(round, ColorId(c), count).unwrap();
            }
            t
        })
    })
}

/// Strategy: a tiny **rate-limited batched** trace (arrivals snapped to
/// multiples of D_ℓ, at most D_ℓ jobs per batch) — Theorem 1's regime.
fn tiny_rate_limited() -> impl Strategy<Value = Trace> {
    tiny_trace().prop_map(|t| {
        let mut out = Trace::new(t.colors().clone());
        for a in t.iter() {
            let d = t.colors().delay_bound(a.color);
            out.add(a.round - a.round % d, a.color, a.count.min(d)).unwrap();
        }
        out
    })
}

proptest! {
    // Exhaustive search is exponential; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn equal_resource_baselines_never_beat_exhaustive_opt(
        trace in tiny_trace(),
        m in 1usize..=2,
        delta in 1u64..4,
    ) {
        let opt = exhaustive_optimal(&trace, m, delta);
        prop_assume!(opt.is_ok());
        let opt = opt.unwrap();
        let mut greedy = rrs_algorithms::GreedyPending::new();
        let g = run_policy(&trace, &mut greedy, m, delta).unwrap();
        prop_assert!(g.cost.total() >= opt, "greedy {} < OPT {}", g.cost.total(), opt);
        let mut never = rrs_algorithms::NeverReconfigure::new();
        let nv = run_policy(&trace, &mut never, m, delta).unwrap();
        prop_assert!(nv.cost.total() >= opt, "never {} < OPT {}", nv.cost.total(), opt);
        let mut stat = rrs_algorithms::StaticPartition::new(trace.colors(), m);
        let st = run_policy(&trace, &mut stat, m, delta).unwrap();
        prop_assert!(st.cost.total() >= opt, "static {} < OPT {}", st.cost.total(), opt);
        let mut hind = rrs_offline::HindsightGreedy::new(trace.clone(), 8);
        let h = run_policy(&trace, &mut hind, m, delta).unwrap();
        prop_assert!(h.cost.total() >= opt, "hindsight {} < OPT {}", h.cost.total(), opt);
    }

    #[test]
    fn dlru_edf_tracks_exhaustive_opt_under_augmentation(
        trace in tiny_rate_limited(),
        m in 1usize..=2,
        delta in 1u64..3,
    ) {
        prop_assume!(trace.total_jobs() > 0);
        let opt = exhaustive_optimal(&trace, m, delta);
        prop_assume!(opt.is_ok());
        let opt = opt.unwrap();
        // Theorem 1 setting: ΔLRU-EDF gets n = 8m resources against OPT's m.
        let s = run_kind(PolicyKind::DlruEdf, &trace, 8 * m, delta).unwrap();
        // The reproduction's E3 gate allows a worst-case factor of 40 against
        // a *loose* lower bound; against exact OPT the same constant with
        // additive startup slack (≤ 4 recolorings per epoch, ≤ one epoch per
        // color on these tiny traces) is a strictly tighter pin.
        let slack = 4 * delta * trace.colors().len() as u64;
        prop_assert!(
            s.cost.total() <= 40 * opt + slack,
            "ΔLRU-EDF {} vs OPT {} (slack {})",
            s.cost.total(),
            opt,
            slack
        );
    }
}

/// Random per-round arrival bursts for the service differential: tenant ids
/// in `0..3`, colors in the two-color table, small counts.
fn tiny_service_workload() -> impl Strategy<Value = Vec<Vec<(u64, u32, u64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u64..3, 0u32..2, 1u64..4), 0..=4),
        1..=10,
    )
}

/// The service differential's three tenants: one per streaming policy.
fn service_tenant_spec(id: u64) -> TenantSpec {
    TenantSpec::new(
        [PolicySpec::DlruEdf, PolicySpec::Edf, PolicySpec::Dlru][id as usize],
        ColorTable::from_delay_bounds(&[2, 4]),
        4,
        2,
    )
}

/// Runs one workload (outer = rounds, inner = submits) through a supervisor
/// on `backend`, returning every tenant's final result plus each shard's
/// snapshot — the full observable service state.
fn drive_service(
    workload: &[Vec<(u64, u32, u64)>],
    backend: Box<dyn StorageBackend>,
) -> (Vec<(u64, rrs_core::RunResult)>, Vec<rrs_service::ShardSnapshot>) {
    let config = SupervisorConfig {
        shards: 2,
        queue_capacity: 32,
        checkpoint_every: 3,
        ..SupervisorConfig::default()
    };
    let mut sup = Supervisor::with_storage(config, &FaultPlan::none(), backend).unwrap();
    for id in 0u64..3 {
        sup.add_tenant(id, service_tenant_spec(id)).unwrap();
    }
    for round in workload {
        for &(tenant, color, count) in round {
            sup.submit(tenant, vec![(ColorId(color), count)]).unwrap();
        }
        sup.tick().unwrap();
    }
    let snapshots = (0..2).map(|s| sup.snapshot_shard(s).unwrap()).collect();
    (sup.finish().unwrap().into_iter().collect(), snapshots)
}

/// The oracle: each tenant's share of the workload through a lone tenant.
fn lone_results(workload: &[Vec<(u64, u32, u64)>]) -> Vec<(u64, rrs_core::RunResult)> {
    (0u64..3)
        .map(|id| {
            let mut t = Tenant::new(service_tenant_spec(id)).unwrap();
            for round in workload {
                for &(tenant, color, count) in round {
                    if tenant == id {
                        t.submit(&[(ColorId(color), count)]).unwrap();
                    }
                }
                t.tick().unwrap();
            }
            (id, t.finish().unwrap())
        })
        .collect()
}

proptest! {
    // Each case spins real worker threads and disk I/O; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Storage-backend differential: on any workload, the disk backend's
    /// observable service state (snapshots and final results) is
    /// bit-identical to the in-memory run's, and both runs' results equal
    /// lone tenants fed the same arrivals.
    #[test]
    fn service_state_is_identical_across_backends(workload in tiny_service_workload()) {
        let dir = std::env::temp_dir().join(format!(
            "rrs-diff-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let memory = drive_service(&workload, Box::new(MemoryBackend::new()));
        let disk = drive_service(&workload, Box::new(DiskBackend::new(DiskConfig::new(&dir))));
        prop_assert_eq!(&memory.0, &disk.0, "final results diverge across backends");
        prop_assert_eq!(&memory.1, &disk.1, "shard snapshots diverge across backends");
        prop_assert_eq!(&memory.0, &lone_results(&workload), "service diverged from lone tenants");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
