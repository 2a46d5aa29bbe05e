//! Snapshots hold state, not history: at a fixed tenant count, a shard
//! snapshot's encoded size stays flat as a run grows from 512 to 4096
//! rounds, and each tenant's `arrived` counter agrees with a lone tenant
//! fed the same arrivals.

use rrs_core::{ColorId, ColorTable};
use rrs_service::{PolicySpec, ShardSnapshot, Supervisor, SupervisorConfig, Tenant, TenantSpec};

const SHARDS: usize = 2;
/// Two tenants per policy, so both shards see a mix of every policy.
const TENANTS: u64 = 24;

fn spec_for(id: u64) -> TenantSpec {
    let all = PolicySpec::all();
    TenantSpec::new(
        all[id as usize % all.len()],
        ColorTable::from_delay_bounds(&[2, 4, 8]),
        4,
        2,
    )
}

/// A deterministic mix: about two thirds of a tenant's colors get 1–4 jobs
/// per round.
fn arrivals(id: u64, round: u64) -> Vec<(ColorId, u64)> {
    (0..3u32)
        .filter_map(|c| {
            let h = (id * 31 + round * 17 + u64::from(c) * 7).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let h = h >> 40;
            (!h.is_multiple_of(3)).then_some((ColorId(c), 1 + h % 4))
        })
        .collect()
}

/// Runs `rounds` epochs and returns every shard's snapshot plus the
/// supervisor's per-tenant `arrived` counts.
fn run(rounds: u64) -> (Vec<ShardSnapshot>, Vec<(u64, u64)>) {
    let config = SupervisorConfig {
        shards: SHARDS,
        ..SupervisorConfig::default()
    };
    let mut sup = Supervisor::new(config).unwrap();
    for id in 0..TENANTS {
        sup.add_tenant(id, spec_for(id)).unwrap();
    }
    for round in 0..rounds {
        for id in 0..TENANTS {
            sup.submit(id, arrivals(id, round)).unwrap();
        }
        sup.tick().unwrap();
    }
    let snaps = (0..SHARDS)
        .map(|s| sup.snapshot_shard(s).unwrap())
        .collect();
    let stats = sup.stats().unwrap();
    let arrived = stats
        .tenants
        .iter()
        .map(|(id, p)| (*id, p.arrived))
        .collect();
    sup.finish().unwrap();
    (snaps, arrived)
}

#[test]
fn shard_snapshots_stay_flat_from_512_to_4096_rounds() {
    let (short, _) = run(512);
    let (long, arrived) = run(4096);
    for (a, b) in short.iter().zip(&long) {
        let (small, large) = (rrs_codec::to_vec(a).len(), rrs_codec::to_vec(b).len());
        assert!(
            large as f64 <= 1.05 * small as f64,
            "shard {}: {large} B at 4096 rounds vs {small} B at 512",
            a.shard
        );
    }
    // `arrived` agrees with a lone tenant.
    assert_eq!(arrived.len(), TENANTS as usize);
    for (id, arrived) in arrived {
        let mut lone = Tenant::new(spec_for(id)).unwrap();
        for round in 0..4096 {
            lone.submit(&arrivals(id, round)).unwrap();
            lone.tick().unwrap();
        }
        assert_eq!(arrived, lone.arrived(), "tenant {id}");
        assert_eq!(arrived, lone.progress().arrived, "tenant {id}");
    }
}
