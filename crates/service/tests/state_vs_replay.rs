//! Log replay is the oracle for state restore.
//!
//! A restored tenant (or engine) loads its saved state directly; nothing is
//! replayed. Replaying the same arrivals through a fresh instance is the
//! independent way to reach the same point, so the two must agree exactly.
//! For every [`PolicySpec`] policy, random traces are cut at random rounds;
//! each cut is restored once from its snapshot and once by replaying the
//! arrivals, and both must continue bit-identically to the uncut run: the
//! same next snapshot (compared as binary-codec bytes, so the saved policy
//! state must match to the bit) and the same final [`RunResult`].
//!
//! Snapshots are restored from their binary encoding, as a checkpoint read
//! from disk is. The tenant-level check runs each policy at its own speed
//! and carries a non-empty inbox across the cut; the engine-level check
//! runs every policy at both engine speeds.

use proptest::prelude::*;
use rrs_core::streaming::StreamingEngine;
use rrs_core::{ColorId, ColorTable, CostModel, RunResult, Speed};
use rrs_service::{PolicySpec, Tenant, TenantSpec};
use std::collections::BTreeMap;

/// More colors than any tested cache holds, so evictions, thrash and
/// starvation signals all occur.
const BOUNDS: [u64; 8] = [1, 2, 4, 8, 2, 4, 8, 16];

type Rounds = Vec<Vec<(ColorId, u64)>>;

fn rounds_strategy() -> impl Strategy<Value = Rounds> {
    let submit = proptest::collection::vec((0u32..BOUNDS.len() as u32, 0u64..7), 0..6);
    proptest::collection::vec(submit, 1..40).prop_map(|rounds| {
        rounds
            .into_iter()
            .map(|row| row.into_iter().map(|(c, k)| (ColorId(c), k)).collect())
            .collect()
    })
}

/// `value` after a trip through the binary codec.
fn reencoded<T: serde::Serialize + serde::Deserialize>(value: &T) -> T {
    rrs_codec::from_slice(&rrs_codec::to_vec(value)).unwrap()
}

fn spec(policy: PolicySpec, n: usize, delta: u64) -> TenantSpec {
    TenantSpec::new(policy, ColorTable::from_delay_bounds(&BOUNDS), n, delta)
}

/// One submit's arrivals merged per color, ascending, zero counts dropped —
/// what a tenant's inbox hands its engine.
fn merged(row: &[(ColorId, u64)]) -> Vec<(ColorId, u64)> {
    let mut m: BTreeMap<ColorId, u64> = BTreeMap::new();
    for &(c, k) in row.iter().filter(|&&(_, k)| k > 0) {
        *m.entry(c).or_insert(0) += k;
    }
    m.into_iter().collect()
}

/// A tenant that ticked `rounds[..cut]` and holds `rounds[cut]` (if any)
/// in its inbox, reached by replaying those arrivals from round 0.
fn replayed_tenant(spec: &TenantSpec, rounds: &Rounds, cut: usize) -> Tenant {
    let mut t = Tenant::new(spec.clone()).unwrap();
    for row in &rounds[..cut] {
        t.submit(row).unwrap();
        t.tick().unwrap();
    }
    if let Some(row) = rounds.get(cut) {
        t.submit(row).unwrap();
    }
    t
}

/// Ticks the inbox, submits and ticks the rest of `rounds` past `cut`,
/// and returns the snapshot after the first tick plus the final result.
fn continue_tenant(mut t: Tenant, rounds: &Rounds, cut: usize) -> (Vec<u8>, RunResult) {
    t.tick().unwrap();
    let next = rrs_codec::to_vec(&t.snapshot());
    for row in rounds.iter().skip(cut + 1) {
        t.submit(row).unwrap();
        t.tick().unwrap();
    }
    (next, t.finish().unwrap())
}

fn engine(spec: &TenantSpec, speed: Speed) -> StreamingEngine {
    let policy = spec.policy.build(&spec.colors, spec.n, spec.delta).unwrap();
    StreamingEngine::with_speed(
        spec.colors.clone(),
        policy,
        spec.n,
        CostModel::new(spec.delta),
        speed,
    )
    .unwrap()
}

/// Steps `rounds[from..]` and returns the snapshot after the first step
/// plus the final result.
fn continue_engine(mut e: StreamingEngine, rounds: &Rounds, from: usize) -> (Vec<u8>, RunResult) {
    let mut next = None;
    for row in &rounds[from..] {
        e.step(&merged(row)).unwrap();
        next.get_or_insert_with(|| rrs_codec::to_vec(&e.snapshot()));
    }
    let next = next.unwrap_or_else(|| rrs_codec::to_vec(&e.snapshot()));
    (next, e.finish().unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tenants_restored_from_state_continue_like_a_replay(
        rounds in rounds_strategy(),
        cut_seeds in proptest::collection::vec(0usize..1000, 1..4),
        wide in 0u8..2,
        delta in 1u64..4,
    ) {
        let n = if wide == 1 { 8 } else { 4 };
        for &policy in PolicySpec::all() {
            let spec = spec(policy, n, delta);
            let uncut = continue_tenant(replayed_tenant(&spec, &rounds, 0), &rounds, 0);
            for &seed in &cut_seeds {
                let cut = seed % (rounds.len() + 1);
                let live = replayed_tenant(&spec, &rounds, cut);
                let snap = live.snapshot();
                let from_state = Tenant::restore(reencoded(&snap)).unwrap();
                prop_assert_eq!(&from_state.snapshot(), &snap, "{:?}: restore is lossless", policy);
                let from_replay = replayed_tenant(&spec, &rounds, cut);
                let a = continue_tenant(from_state, &rounds, cut);
                let b = continue_tenant(from_replay, &rounds, cut);
                prop_assert!(a == b, "{:?} cut at {}: restore diverged from replay", policy, cut);
                prop_assert_eq!(&a.1, &uncut.1, "{:?} cut at {}: result differs", policy, cut);
            }
        }
    }

    #[test]
    fn engines_restored_from_state_continue_like_a_replay_at_both_speeds(
        rounds in rounds_strategy(),
        cut_seed in 0usize..1000,
        delta in 1u64..4,
    ) {
        let cut = cut_seed % (rounds.len() + 1);
        for &policy in PolicySpec::all() {
            let spec = spec(policy, 8, delta);
            for speed in [Speed::Uni, Speed::Double] {
                let mut replayed = engine(&spec, speed);
                for row in &rounds[..cut] {
                    replayed.step(&merged(row)).unwrap();
                }
                let snap = replayed.snapshot();
                let policy_box = spec.policy.build(&spec.colors, spec.n, spec.delta).unwrap();
                let (colors, saved) = (spec.colors.clone(), reencoded(&snap));
                let restored = StreamingEngine::restore(colors, policy_box, saved).unwrap();
                prop_assert_eq!(&restored.snapshot(), &snap, "{:?} {:?}: lossless", policy, speed);
                let a = continue_engine(restored, &rounds, cut);
                let b = continue_engine(replayed, &rounds, cut);
                prop_assert!(a == b, "{:?} {:?} cut at {}: restore diverged", policy, speed, cut);
            }
        }
    }
}
