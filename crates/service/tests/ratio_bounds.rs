//! Live-service ratio bounds on the scaled Appendix A/B adversaries.
//!
//! The targeted policy (ΔLRU on Appendix A, EDF on Appendix B) is run
//! through the supervised service — streaming ingestion, WAL, sharding —
//! and its end-to-end cost ratio against the appendix's explicit offline
//! schedule ([`DlruAdversary::offline_cost`] / [`EdfAdversary::offline_cost`])
//! must sit at or above the paper's lower bound
//! ([`paper_ratio_bound`](DlruAdversary::paper_ratio_bound)), within a small
//! tolerance, at several scaled sizes. On the same inputs ΔLRU-EDF must stay
//! cheap: each single-minded policy is beaten by the combined one on its own
//! adversary, which is the separation the scenario sweep later tags.

use rrs_core::RunResult;
use rrs_service::{FaultPlan, MemoryBackend, PolicySpec, Supervisor, SupervisorConfig, TenantSpec};
use rrs_workloads::prelude::*;

/// Runs one adversary spec through the live service under `policy`, single
/// tenant, and returns the final result.
fn live_run(spec: &WorkloadSpec, policy: PolicySpec, n: usize, delta: u64) -> RunResult {
    let src = spec.source(0).expect("adversary spec must validate");
    let config = SupervisorConfig {
        shards: 2,
        queue_capacity: 16,
        checkpoint_every: 8,
        ..Default::default()
    };
    let mut sup =
        Supervisor::with_storage(config, &FaultPlan::none(), Box::new(MemoryBackend::new()))
            .unwrap();
    sup.add_tenant(0, TenantSpec::new(policy, src.colors(), n, delta))
        .unwrap();
    for round in 0..=src.horizon() {
        let arrivals = src.arrivals_at(round);
        if !arrivals.is_empty() {
            sup.submit(0, arrivals).unwrap();
        }
        sup.tick().unwrap();
    }
    sup.finish().unwrap().remove(&0).unwrap()
}

#[test]
fn dlru_pays_the_appendix_a_bound_live() {
    let mut ratios = Vec::new();
    for size in 1..=3u32 {
        let adv = DlruAdversary::scaled(size);
        let spec = WorkloadSpec::DlruAdversary(adv);
        let dlru = live_run(&spec, PolicySpec::Dlru, adv.n, adv.delta);
        let combo = live_run(&spec, PolicySpec::DlruEdf, adv.n, adv.delta);
        let denom = adv.offline_cost() as f64;
        let r_dlru = dlru.cost.total() as f64 / denom;
        let r_combo = combo.cost.total() as f64 / denom;
        let bound = adv.paper_ratio_bound();
        println!(
            "dlru scaled({size}): n={} delta={} j={} k={} rounds={} \
             dlru_cost={} combo_cost={} offline={} r_dlru={r_dlru:.3} \
             r_combo={r_combo:.3} bound={bound:.3}",
            adv.n,
            adv.delta,
            adv.j,
            adv.k,
            1u64 << adv.k,
            dlru.cost.total(),
            combo.cost.total(),
            adv.offline_cost(),
        );
        ratios.push((size, r_dlru, r_combo, bound));
    }
    for &(size, r_dlru, r_combo, bound) in &ratios {
        assert!(
            r_dlru >= 0.9 * bound,
            "scaled({size}): live ΔLRU ratio {r_dlru:.3} fell below the paper bound {bound:.3}"
        );
        assert!(
            r_combo < r_dlru,
            "scaled({size}): ΔLRU-EDF ({r_combo:.3}) should beat ΔLRU ({r_dlru:.3}) \
             on ΔLRU's own adversary"
        );
    }
    assert!(
        ratios[2].1 > ratios[0].1,
        "ΔLRU's live ratio should grow along the scaled sweep"
    );
}

#[test]
fn edf_pays_the_appendix_b_bound_live() {
    let mut ratios = Vec::new();
    for size in 1..=3u32 {
        let adv = EdfAdversary::scaled(size);
        let spec = WorkloadSpec::EdfAdversary(adv);
        let edf = live_run(&spec, PolicySpec::Edf, adv.n, adv.delta);
        let combo = live_run(&spec, PolicySpec::DlruEdf, adv.n, adv.delta);
        let denom = adv.offline_cost() as f64;
        let r_edf = edf.cost.total() as f64 / denom;
        let r_combo = combo.cost.total() as f64 / denom;
        let bound = adv.paper_ratio_bound();
        println!(
            "edf scaled({size}): k={} rounds={} edf_cost={} combo_cost={} \
             offline={} r_edf={r_edf:.3} r_combo={r_combo:.3} bound={bound:.3}",
            adv.k,
            1u64 << (adv.k + adv.n as u32 / 2 - 1),
            edf.cost.total(),
            combo.cost.total(),
            adv.offline_cost(),
        );
        ratios.push((size, r_edf, r_combo, bound));
    }
    // The bound doubles per size step; live EDF must track it and ΔLRU-EDF
    // must not.
    for &(size, r_edf, r_combo, bound) in &ratios {
        assert!(
            r_edf >= 0.9 * bound,
            "scaled({size}): live EDF ratio {r_edf:.3} fell below the paper bound {bound:.3}"
        );
        assert!(
            r_combo < r_edf,
            "scaled({size}): ΔLRU-EDF ({r_combo:.3}) should beat EDF ({r_edf:.3}) \
             on EDF's own adversary"
        );
    }
    assert!(
        ratios[2].1 > ratios[0].1,
        "EDF's live ratio should grow along the scaled sweep"
    );
}
