//! Randomized service fuzzing.
//!
//! A deterministic per-tenant *script* (policy + per-round arrivals) is drawn
//! from a seed, then executed three ways: through a [`Supervisor`] at 1, 2
//! and 8 shards, each with its own random interleaving of submits, random
//! split submits, random snapshot probes, a random checkpoint cadence and
//! random worker kills (a `kill@ROUND:SHARD` [`FaultPlan`], recovered from
//! checkpoint + WAL). Every tenant's final [`RunResult`] must be identical
//! across all shard counts and interleavings, and equal to the script run
//! through a lone [`Tenant`] with no service at all. Every snapshot taken
//! along the way must conserve jobs (arrived = executed + dropped + pending).
//!
//! The fixed-seed passes keep tier-1 deterministic; `fuzz_random_smoke` adds
//! a time-boxed random-seed pass when `RRS_FUZZ_MS` is set (used by CI's
//! smoke job).

use rrs_core::{ColorId, ColorTable, RunResult};
use rrs_service::{
    Fault, FaultKind, FaultPlan, PolicySpec, Supervisor, SupervisorConfig, Tenant, TenantSpec,
};
use std::sync::Once;

const DELAY_BOUNDS: &[u64] = &[2, 4, 8];
const N: usize = 4;
const DELTA: u64 = 2;

/// SplitMix64: small, seedable, good enough for fuzz scripts.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// One tenant's deterministic workload: arrivals for each round.
struct Script {
    policy: PolicySpec,
    rounds: Vec<Vec<(ColorId, u64)>>,
}

fn draw_scripts(seed: u64, tenants: u64, rounds: usize) -> Vec<Script> {
    let mut rng = Rng(seed);
    (0..tenants)
        .map(|_| {
            let policy = PolicySpec::all()[rng.below(PolicySpec::all().len() as u64) as usize];
            let rounds = (0..rounds)
                .map(|_| {
                    let mut arrivals = Vec::new();
                    for c in 0..DELAY_BOUNDS.len() as u32 {
                        if rng.chance(40) {
                            arrivals.push((ColorId(c), 1 + rng.below(3)));
                        }
                    }
                    arrivals
                })
                .collect();
            Script { policy, rounds }
        })
        .collect()
}

fn tenant_spec(script: &Script) -> TenantSpec {
    TenantSpec::new(
        script.policy,
        ColorTable::from_delay_bounds(DELAY_BOUNDS),
        N,
        DELTA,
    )
}

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

/// The ground truth: each script through a lone tenant, no service.
fn reference_results(scripts: &[Script]) -> Vec<RunResult> {
    scripts
        .iter()
        .map(|s| {
            let mut t = Tenant::new(tenant_spec(s)).unwrap();
            for arrivals in &s.rounds {
                t.submit(arrivals).unwrap();
                t.tick().unwrap();
            }
            t.finish().unwrap()
        })
        .collect()
}

/// Runs the scripts through a supervisor with chaos drawn from
/// `interleave_seed`, returning final results in tenant order.
fn service_run(scripts: &[Script], shards: usize, interleave_seed: u64) -> Vec<RunResult> {
    quiet_injected_panics();
    let mut rng = Rng(interleave_seed);
    let rounds = scripts.iter().map(|s| s.rounds.len()).max().unwrap_or(0);
    // Hard failures: now and then a worker dies while applying a round's
    // tick; the supervisor rebuilds it from checkpoint + WAL replay.
    let mut kills = Vec::new();
    for tick in 1..=rounds as u64 {
        if rng.chance(15) {
            let shard = rng.below(shards as u64) as usize;
            kills.push(Fault { shard, at_tick: tick, kind: FaultKind::Panic });
        }
    }
    let config = SupervisorConfig {
        shards,
        queue_capacity: 2,
        checkpoint_every: 1 + rng.below(5),
        ..SupervisorConfig::default()
    };
    let killed = kills.len() as u64;
    let mut sup = Supervisor::with_faults(config, &FaultPlan { faults: kills }).unwrap();
    for (id, s) in scripts.iter().enumerate() {
        sup.add_tenant(id as u64, tenant_spec(s)).unwrap();
    }
    for round in 0..rounds {
        // Random submission order across tenants; arrivals randomly split
        // into two submits (counts merge in the tenant inbox, so the split
        // must not be observable).
        let mut order: Vec<usize> = (0..scripts.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for &t in &order {
            let arrivals = &scripts[t].rounds[round];
            if arrivals.is_empty() {
                continue;
            }
            if arrivals.len() > 1 && rng.chance(30) {
                let split = 1 + rng.below(arrivals.len() as u64 - 1) as usize;
                sup.submit(t as u64, arrivals[..split].to_vec()).unwrap();
                sup.submit(t as u64, arrivals[split..].to_vec()).unwrap();
            } else {
                sup.submit(t as u64, arrivals.clone()).unwrap();
            }
        }
        sup.tick().unwrap();
        if rng.chance(20) {
            let probe = rng.below(shards as u64) as usize;
            let snap = sup.snapshot_shard(probe).unwrap();
            assert!(
                snap.conserves_jobs(),
                "shard {probe} violates job conservation at round {round}"
            );
        }
    }
    for shard in 0..shards {
        let snap = sup.snapshot_shard(shard).unwrap();
        assert!(snap.conserves_jobs(), "shard {shard}: conservation at final snapshot");
    }
    assert_eq!(sup.recoveries(), killed, "every injected kill was recovered once");
    let results = sup.finish().unwrap();
    (0..scripts.len() as u64).map(|t| results[&t].clone()).collect()
}

fn fuzz_one(seed: u64) {
    let scripts = draw_scripts(seed, 5, 20);
    let reference = reference_results(&scripts);
    for shards in [1usize, 2, 8] {
        let got = service_run(&scripts, shards, seed ^ (shards as u64) << 32);
        assert_eq!(
            got, reference,
            "seed {seed}: results depend on shard count {shards} or interleaving"
        );
    }
}

#[test]
fn fixed_seed_fuzz_is_shard_count_and_interleaving_invariant() {
    for seed in [11, 22, 33] {
        fuzz_one(seed);
    }
}

/// Time-boxed random-seed pass, enabled by `RRS_FUZZ_MS` (milliseconds).
/// Without the variable it runs a single extra seed, so tier-1 stays fast
/// and deterministic.
#[test]
fn fuzz_random_smoke() {
    let budget_ms: u64 = std::env::var("RRS_FUZZ_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    if budget_ms == 0 {
        fuzz_one(0xC0FFEE);
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
        println!("fuzz_random_smoke: seed {seed}");
        fuzz_one(seed);
        seed = Rng(seed).next();
        iterations += 1;
    }
    println!("fuzz_random_smoke: {iterations} iterations in {:?}", start.elapsed());
}
